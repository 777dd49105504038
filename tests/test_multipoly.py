import random
from fractions import Fraction

import pytest

from rigicert.algebra.multipoly import MultiPoly, resultant
from rigicert.errors import DegenerateInputError, InputError

from oracles import sylvester_matrix


def fraction_det(matrix):
    """Exact determinant by Gaussian elimination (test oracle)."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def uni(coeffs, var="x", variables=("x",)):
    terms = {}
    i = variables.index(var)
    for d, c in enumerate(coeffs):
        exps = [0] * len(variables)
        exps[i] = d
        terms[tuple(exps)] = Fraction(c)
    return MultiPoly(variables, terms)


def random_uni(rng, variables, var, max_deg):
    deg = rng.randint(1, max_deg)
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg)]
    coeffs.append(Fraction(rng.randint(1, 6)))
    return uni(coeffs, var, variables)


def random_multi(rng, variables, max_deg=2, nterms=5):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, max_deg) for _ in variables)
        terms[exps] = terms.get(exps, Fraction(0)) + Fraction(rng.randint(-5, 5))
    return MultiPoly(variables, terms)


def test_basic_arithmetic():
    vs = ("x", "y")
    x = MultiPoly.variable(vs, "x")
    y = MultiPoly.variable(vs, "y")
    p = (x + y) ** 2
    assert p.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert (p - p).is_zero()
    assert p.degree_in("x") == 2 and p.total_degree() == 2
    assert p.evaluate({"x": Fraction(1), "y": Fraction(2)}) == 9
    assert p.substitute({"y": Fraction(3)}).terms == {(2, 0): 1, (1, 0): 6, (0, 0): 9}


def test_divexact():
    vs = ("x", "y")
    x = MultiPoly.variable(vs, "x")
    y = MultiPoly.variable(vs, "y")
    a = (x + y) * (x - y)
    assert a.divexact(x + y) == x - y
    product = (x * y + MultiPoly.constant(vs, 2)) * (x ** 2 - y)
    assert product.divexact(x ** 2 - y) == x * y + MultiPoly.constant(vs, 2)


def test_resultant_pinned_examples():
    vs = ("x", "a", "b")
    x = MultiPoly.variable(vs, "x")
    a = MultiPoly.variable(vs, "a")
    b = MultiPoly.variable(vs, "b")
    # res_x(x - a, x - b) = a - b  (Sylvester with f-rows first)
    assert resultant(x - a, x - b, "x") == a - b
    two = MultiPoly.constant(("x",), 2)
    xv = MultiPoly.variable(("x",), "x")
    assert resultant(xv ** 2 - two, xv - MultiPoly.constant(("x",), 1), "x").constant_value() == -1


def test_resultant_errors():
    vs = ("x", "y")
    y = MultiPoly.variable(vs, "y")
    with pytest.raises(DegenerateInputError):
        resultant(y, y + MultiPoly.constant(vs, 1), "x")
    with pytest.raises(InputError):
        resultant(MultiPoly.zero(vs), y, "x")


def test_resultant_matches_sylvester_determinant_univariate():
    rng = random.Random(101)
    for _ in range(150):
        f = random_uni(rng, ("x",), "x", 5)
        g = random_uni(rng, ("x",), "x", 5)
        res = resultant(f, g, "x")
        matrix = [[entry.constant_value() for entry in row] for row in sylvester_matrix(f, g, "x")]
        assert res.constant_value() == fraction_det(matrix)


def test_resultant_matches_determinant_multivariate_by_evaluation():
    rng = random.Random(103)
    vs = ("x", "y", "z")
    done = 0
    while done < 60:
        f = random_multi(rng, vs)
        g = random_multi(rng, vs)
        if f.is_zero() or g.is_zero():
            continue
        if f.degree_in("x") == 0 and g.degree_in("x") == 0:
            continue
        point = {"y": Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                 "z": Fraction(rng.randint(-9, 9), rng.randint(1, 3))}
        fe, ge = f.substitute(point), g.substitute(point)
        # specialization commutes with the resultant only when degrees survive
        if fe.degree_in("x") != f.degree_in("x") or ge.degree_in("x") != g.degree_in("x"):
            continue
        res = resultant(f, g, "x").substitute(point)
        if fe.degree_in("x") == 0 or ge.degree_in("x") == 0:
            continue
        res_eval = resultant(fe, ge, "x")
        assert res == res_eval
        done += 1


def test_resultant_zero_iff_common_factor():
    rng = random.Random(107)
    vs = ("x", "y")
    for _ in range(40):
        h = random_uni(rng, vs, "x", 2)
        f = random_uni(rng, vs, "x", 2) * h
        g = random_uni(rng, vs, "x", 2) * h
        assert resultant(f, g, "x").is_zero()
    for _ in range(40):
        f = random_uni(rng, ("x",), "x", 4)
        g = random_uni(rng, ("x",), "x", 4)
        shared = resultant(f, g, "x").is_zero()
        # check against an evaluation count: a nonzero resultant means no common root
        matrix = [[entry.constant_value() for entry in row] for row in sylvester_matrix(f, g, "x")]
        assert shared == (fraction_det(matrix) == 0)


def test_resultant_swap_antisymmetry():
    rng = random.Random(109)
    for _ in range(60):
        f = random_uni(rng, ("x",), "x", 4)
        g = random_uni(rng, ("x",), "x", 4)
        a = resultant(f, g, "x").constant_value()
        b = resultant(g, f, "x").constant_value()
        sign = (-1) ** (f.degree_in("x") * g.degree_in("x"))
        assert a == sign * b


def test_resultant_multiplicativity():
    rng = random.Random(113)
    for _ in range(30):
        f1 = random_uni(rng, ("x",), "x", 3)
        f2 = random_uni(rng, ("x",), "x", 3)
        g = random_uni(rng, ("x",), "x", 3)
        lhs = resultant(f1 * f2, g, "x").constant_value()
        rhs = resultant(f1, g, "x").constant_value() * resultant(f2, g, "x").constant_value()
        assert lhs == rhs
