import random
from fractions import Fraction

import pytest

from rigicert.algebra.multipoly import MultiPoly, _add, _divexact, _mul, _strip, as_fraction, resultant
from rigicert.errors import DegenerateInputError, InputError, InternalInvariantError

from oracles import divexact, resultant_fraction_prs, sylvester_matrix


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
    half = MultiPoly.constant(vs, Fraction(1, 2))
    assert (half * x - y) ** 3 == (half * x - y) * (half * x - y) * (half * x - y)
    assert p**0 == MultiPoly.zero(vs) ** 0 == MultiPoly.constant(vs, 1)
    assert MultiPoly.zero(vs) ** 2 == MultiPoly.zero(vs)
    assert (p - p).is_zero()
    assert p.degree_in("x") == 2 and p.total_degree() == 2
    assert p.evaluate({"x": Fraction(1), "y": Fraction(2)}) == 9
    assert p.substitute({"y": Fraction(3)}).terms == {(2, 0): 1, (1, 0): 6, (0, 0): 9}


def test_divexact():
    vs = ("x", "y")
    x = MultiPoly.variable(vs, "x")
    y = MultiPoly.variable(vs, "y")
    a = (x + y) * (x - y)
    assert divexact(a, x + y) == x - y
    product = (x * y + MultiPoly.constant(vs, 2)) * (x ** 2 - y)
    assert divexact(product, x ** 2 - y) == x * y + MultiPoly.constant(vs, 2)


def random_dense2(rng, deg_x, deg_y=3, span=9):
    """A dense polynomial over Z in two variables, of degree deg_x in the outer."""
    while True:
        a = _strip([_strip([rng.randint(-span, span) for _ in range(deg_y + 1)]) for _ in range(deg_x + 1)])
        if len(a) == deg_x + 1:
            return a


def test_dense_exact_quotient_two_variables():
    # the kernel's exact quotient at k = 2, which the resultant's PRS divides by
    rng = random.Random(269)
    for _ in range(150):
        a = random_dense2(rng, rng.randint(0, 4))
        b = random_dense2(rng, rng.randint(1, 4))
        assert _divexact(_mul(a, b, 2), b, 2) == a
        r = random_dense2(rng, rng.randint(0, len(b) - 2))
        if r:
            with pytest.raises(InternalInvariantError):
                _divexact(_add(_mul(a, b, 2), r, 2), b, 2)
    y1 = [1, 1]  # 1 + y, constant in x
    xy = [[], [0, 1]]  # x*y
    assert _divexact([], [y1, [2]], 2) == []  # zero dividend
    with pytest.raises(InternalInvariantError):  # divisor of higher degree
        _divexact([y1, [2]], [[1], [], [1]], 2)
    assert _divexact([[2, 2], [0, 1, 1]], [y1], 2) == [[2], [0, 1]]  # constant divisor in x
    with pytest.raises(InternalInvariantError):
        _divexact([[2, 2], [0, 1]], [y1], 2)
    # negative leading coefficients: (x*y - 1) * (-x + 3) = -x^2*y + x*(3y + 1) - 3
    product = [[-3], [1, 3], [0, -1]]
    assert _mul(_add(xy, [[-1]], 2), [[3], [-1]], 2) == product
    assert _divexact(product, [[3], [-1]], 2) == [[-1], [0, 1]]
    with pytest.raises(InternalInvariantError):
        _divexact(product, [[2], [-1]], 2)


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


def bareiss_det(matrix):
    """Determinant over a polynomial ring by fraction-free (Bareiss)
    elimination, each step an exact division by the previous pivot (test
    oracle; shares no code with the resultant kernel)."""
    m = [row[:] for row in matrix]
    n = len(m)
    negate = False
    previous = None
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if not m[r][k].is_zero()), None)
        if pivot is None:
            return MultiPoly.zero(m[0][0].variables)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            negate = not negate
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                entry = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = entry if previous is None else divexact(entry, previous)
        previous = m[k][k]
    return -m[-1][-1] if negate else m[-1][-1]


def random_rational(rng, variables, deg, nterms=5, den=4, uses=None, top=2):
    """A polynomial of degree exactly `deg` in x over the given variables,
    with exponents at most `top` in the variables of `uses` (default: all)
    and coefficients a/b with 1 <= b <= den."""
    uses = variables if uses is None else uses

    def exponent(v, lead):
        if v == "x":
            return deg if lead else rng.randint(0, deg)
        return rng.randint(0, 1 if lead else top) if v in uses else 0

    terms = {}
    for _ in range(nterms):
        exps = tuple(exponent(v, False) for v in variables)
        terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, den))
    lead = tuple(exponent(v, True) for v in variables)
    terms[lead] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, den))
    return MultiPoly(variables, terms)


def assert_matches_oracles(f, g):
    res = resultant(f, g, "x")
    assert res == resultant_fraction_prs(f, g, "x")
    assert res == bareiss_det(sylvester_matrix(f, g, "x"))
    return res


VARIABLE_SETS = (("x",), ("x", "y"), ("y", "x", "z"))


def test_resultant_matches_oracles_on_random_rational_polynomials():
    rng = random.Random(127)
    for variables in VARIABLE_SETS:
        top = 5 if len(variables) == 1 else 3
        for _ in range(40):
            f = random_rational(rng, variables, rng.randint(1, top))
            g = random_rational(rng, variables, rng.randint(1, top))
            assert_matches_oracles(f, g)


def test_resultant_sign_with_odd_degrees_and_the_smaller_first():
    rng = random.Random(131)
    for variables in VARIABLE_SETS:
        for da, db in ((1, 3), (3, 5), (1, 5), (3, 3)):
            f = random_rational(rng, variables, da)
            g = random_rational(rng, variables, db)
            res = assert_matches_oracles(f, g)
            # res(g, f) = (-1)^(deg f deg g) res(f, g), here -res(f, g)
            assert resultant(g, f, "x") == -res


def remainder_chain(rng, variables, degrees):
    """(f, g) whose remainder sequence in x has the given degrees: from the
    last two up, each polynomial is a multiple of the next plus the one after."""
    chain = [random_rational(rng, variables, d, nterms=2, top=1) for d in degrees[-2:]]
    for d, d_next in zip(reversed(degrees[:-2]), reversed(degrees[1:-1])):
        q = random_rational(rng, variables, d - d_next, nterms=2, top=1)
        chain.insert(0, q * chain[0] + chain[1])
    return chain[0], chain[1]


def test_resultant_degree_gaps():
    """Remainder degrees that drop by two at every step: past the first step
    the subresultant update divides by a power of an h_prev that is not 1,
    and a last drop from degree 2 to 0 divides the result by h_prev."""
    rng = random.Random(137)
    for variables in VARIABLE_SETS[:2]:
        for degrees in ((7, 5, 3, 1, 0), (6, 4, 2, 0), (5, 3, 0)):
            for _ in range(3):
                f, g = remainder_chain(rng, variables, degrees)
                assert (f.degree_in("x"), g.degree_in("x")) == degrees[:2]
                assert_matches_oracles(f, g)
                assert_matches_oracles(g, f)


def test_resultant_of_a_common_factor_is_zero():
    rng = random.Random(139)
    for variables in VARIABLE_SETS:
        for _ in range(8):
            h = random_rational(rng, variables, rng.randint(1, 2), nterms=3, top=1)
            f = h * random_rational(rng, variables, rng.randint(1, 2), nterms=3, top=1)
            g = h * random_rational(rng, variables, rng.randint(0, 2), nterms=3, top=1)
            assert assert_matches_oracles(f, g).is_zero()


def test_resultant_with_an_operand_constant_in_var():
    rng = random.Random(149)
    vs = ("x", "y", "z")
    for _ in range(8):
        c = random_rational(rng, vs, 0)
        g = random_rational(rng, vs, rng.randint(1, 3))
        assert assert_matches_oracles(c, g) == c ** g.degree_in("x")
        assert assert_matches_oracles(g, c) == c ** g.degree_in("x")
    three = MultiPoly.constant(("x",), Fraction(3, 7))
    assert resultant(three, uni([1, 0, 1]), "x").constant_value() == Fraction(9, 49)


def test_resultant_with_a_variable_only_one_operand_uses():
    rng = random.Random(151)
    vs = ("w", "x", "y", "z")
    for _ in range(10):
        f = random_rational(rng, vs, rng.randint(1, 3), uses=("y",))
        g = random_rational(rng, vs, rng.randint(1, 3), uses=("z",))
        res = assert_matches_oracles(f, g)
        assert "w" not in res.used_variables()


def test_resultant_with_large_denominators():
    rng = random.Random(157)
    for variables in VARIABLE_SETS[:2]:
        for _ in range(10):
            f, g = (
                random_rational(rng, variables, rng.randint(1, 4), den=10**30)
                for _ in range(2)
            )
            f = f.scale(Fraction(rng.randint(1, 10**25), 10**40 + 7))
            assert_matches_oracles(f, g)


def test_resultant_variable_errors():
    vs = ("x", "y")
    x = MultiPoly.variable(vs, "x")
    with pytest.raises(InputError):
        resultant(x, x, "z")
    with pytest.raises(InputError):
        resultant(x, MultiPoly.variable(("x",), "x"), "x")


# h1 = res_x4(g_34, g_45) and h2 = res_x6(g_56, g_36) at the published
# specialization, as {(deg x3, deg x5): coefficient}
H1 = {
    (0, 0): "2025/4", (0, 1): "3375/2", (0, 2): "8073/4", (0, 3): "684", (0, 4): "288",
    (1, 0): "-6750", (1, 1): "-1944", (1, 2): "-414", (1, 3): "-972", (1, 4): "-288",
    (2, 0): "16632", (2, 1): "-5544", (2, 2): "-6192", (2, 3): "288", (3, 0): "-14976",
    (3, 1): "10368", (3, 2): "4608", (4, 0): "4608", (4, 1): "-4608",
}
H2 = {
    (0, 0): "-279207/1024", (0, 1): "55917/128", (0, 2): "22021/32", (0, 3): "-1650",
    (0, 4): "800", (1, 0): "-46521/512", (1, 1): "-22123/64", (1, 2): "12219/32",
    (1, 3): "850", (1, 4): "-800", (2, 0): "384857/1024", (2, 1): "-20703/128",
    (2, 2): "-4047/4", (2, 3): "800", (3, 0): "735/16", (3, 1): "-2303/16", (3, 2): "98",
    (4, 0): "98", (4, 1): "-98",
}


def test_published_elimination_pinned():
    from rigicert.algebra.systems import K33_SPECIAL_DISTANCES, eliminate_to_x3, k33_system, square_eliminate_y

    result = eliminate_to_x3(square_eliminate_y(k33_system(K33_SPECIAL_DISTANCES)))
    for h, pinned in ((result.h1, H1), (result.h2, H2)):
        assert h.variables == ("x3", "x4", "x5", "x6")
        assert h.terms == {(a, 0, b, 0): Fraction(c) for (a, b), c in pinned.items()}
    assert result.raw_content == Fraction(-531441, 16777216)


def assert_clean(p: MultiPoly) -> None:
    """An arithmetic result is what the public constructor makes of it: no
    zero coefficient, only Fraction coefficients, int exponent vectors."""
    assert p == MultiPoly(p.variables, p.terms)
    assert all(type(c) is Fraction and c for c in p.terms.values())
    assert all(type(e) is tuple and len(e) == len(p.variables) for e in p.terms)
    assert all(type(d) is int for e in p.terms for d in e)


def test_arithmetic_results_are_built_clean():
    rng = random.Random(25)
    vs = ("x", "y", "z")
    x = MultiPoly.variable(vs, "x")
    for _ in range(60):
        p = random_multi(rng, vs, nterms=rng.randint(0, 6))
        q = random_multi(rng, vs, nterms=rng.randint(0, 6)).scale(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        # operands that share terms, so that sums and differences cancel
        r = p + q.scale(Fraction(1, 2)) - p.scale(Fraction(rng.randint(-1, 1)))
        results = [p + q, p - q, p - p, p + (-p), r - q, -p, p * q, p * r, p.scale(0), r.scale(Fraction(-2, 7))]
        results += [p**n for n in range(4)]
        results += [r.substitute({"y": Fraction(rng.randint(-2, 2), rng.randint(1, 3))})]
        results += [p.substitute({"x": 0, "z": Fraction(1, 2)}), p.substitute({})]
        results += p.coefficients_in("y") + r.coefficients_in("x")
        f, g = x * x + p, x * r + q + MultiPoly.constant(vs, 1)
        results += [resultant(f, g, "x"), resultant(g, x - q, "x")]
        results += [MultiPoly.zero(vs), MultiPoly.constant(vs, 0), MultiPoly.constant(vs, "-3/4"), x]
        for result in results:
            assert_clean(result)
            assert result.variables == vs


def test_float_exponent_is_refused():
    with pytest.raises(InputError, match="bad exponent vector"):
        MultiPoly(("x",), {(1.5,): 1})


def test_str_exponent_is_refused():
    with pytest.raises(InputError, match="bad exponent vector"):
        MultiPoly(("x", "y"), [(("1", 0), 1)])


def test_bool_exponent_is_refused():
    with pytest.raises(InputError, match="bad exponent vector"):
        MultiPoly(("x",), {(True,): 1})
    x = MultiPoly.variable(("x",), "x")
    for value in (True, False):
        with pytest.raises(InputError, match="integer power expected"):
            x**value


def test_non_str_variable_names_are_refused():
    # a name that is not a str would be kept, and repr would then raise TypeError
    for build in (
        lambda: MultiPoly((1, 2), {(1, 0): 1}),
        lambda: MultiPoly.zero(("x", None)),
        lambda: MultiPoly.constant((b"x",), 1),
        lambda: MultiPoly.variable((1,), 1),
    ):
        with pytest.raises(InputError, match="variable names must be strings"):
            build()


def test_as_fraction_refuses_bools():
    for value in (True, False):
        with pytest.raises(InputError, match="cannot interpret"):
            as_fraction(value)
    with pytest.raises(InputError, match="cannot interpret"):
        MultiPoly(("x",), {(1,): True})
    assert as_fraction(1) == 1 and as_fraction("-3/4") == Fraction(-3, 4)


def test_repeated_variable_names_are_refused():
    for build in (
        lambda: MultiPoly(("x", "x")),
        lambda: MultiPoly(["x", "y", "x"], {(1, 0, 0): 1}),
        lambda: MultiPoly.zero(("y", "y")),
        lambda: MultiPoly.constant(("x", "x"), 1),
        lambda: MultiPoly.variable(("x", "x"), "x"),
    ):
        with pytest.raises(InputError, match="repeated variable names"):
            build()


def test_substitute_of_an_unknown_variable_is_refused():
    p = MultiPoly.variable(("x", "y"), "x")
    with pytest.raises(InputError, match="^unknown variable 'z'$"):
        p.substitute({"z": 1})


def test_power_refuses_negative_and_non_int_exponents():
    p = MultiPoly.variable(("x",), "x") + MultiPoly.constant(("x",), 1)
    with pytest.raises(InputError, match="^negative power$"):
        p**-1
    for n in (1.5, 2.0, "2", Fraction(2)):
        with pytest.raises(InputError, match="integer power expected"):
            p**n
