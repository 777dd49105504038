"""Sparse multivariate polynomials over exact rationals, and resultants.

Coefficients are `fractions.Fraction`; exponent vectors index a fixed variable
tuple.  The public constructor validates what it is given: distinct str
variable names, exponent vectors of non-negative ints, exact rational
coefficients (a bool is neither), repeated exponent vectors summed.
Arithmetic builds each result once, through the unchecked `MultiPoly._of`,
from operands that are already valid: `+` and `-` merge the operands' term
dicts in one pass and drop the terms that cancel, and every other operation
drops its zero terms itself.

`resultant` clears denominators once: each operand p becomes a primitive
integer polynomial P = c_p p, with c_p rational, nested as dense coefficient
lists over the eliminated variable and then every other variable either
operand uses.  The subresultant polynomial remainder sequence (Brown & Traub,
J. ACM 18, 1971) runs on those lists, with every division exact over Z and the
sign bookkeeping matching the Sylvester determinant, f-rows first.  The
result is scaled back once, res(f, g) = res(F, G) / (c_f^deg g * c_g^deg f),
and returned as one MultiPoly.

The dense kernel below (`_strip`, `_add`, `_neg`, `_sub`, `_mul`, `_pow`, and
`_exact_quotient` with its raising wrapper `_divexact`) is the package's one
implementation of these operations: `MultiPoly.__pow__` and `UniPoly` (k = 1)
call it, and unipoly's GF(q) arithmetic reduces its results mod q.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping

from ..errors import DegenerateInputError, InputError, InternalInvariantError

Exponents = tuple[int, ...]


def as_fraction(value) -> Fraction:
    """An exact rational from a Fraction, an int or a decimal or fraction
    string; a bool is not a number here."""
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise InputError(f"cannot interpret {value!r} as an exact rational")


class MultiPoly:
    """Immutable sparse polynomial over a fixed ordered variable tuple."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponents, Fraction] = ()):
        object.__setattr__(self, "variables", _checked_variables(variables))
        nvars = len(self.variables)
        clean: dict[Exponents, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != nvars or not all(type(e) is int and e >= 0 for e in exps):
                raise InputError(f"bad exponent vector {exps} for {nvars} variables")
            coeff = as_fraction(coeff)
            if coeff:
                clean[exps] = clean.get(exps, Fraction(0)) + coeff
                if not clean[exps]:
                    del clean[exps]
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of(cls, variables: tuple[str, ...], terms: dict[Exponents, Fraction]) -> "MultiPoly":
        """The polynomial of terms that arithmetic made, unchecked: `variables`
        a valid tuple, `terms` a dict of nonzero Fractions that it then owns."""
        p = object.__new__(cls)
        object.__setattr__(p, "variables", variables)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # construction helpers

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "MultiPoly":
        return cls._of(_checked_variables(variables), {})

    @classmethod
    def constant(cls, variables: Iterable[str], value) -> "MultiPoly":
        variables = _checked_variables(variables)
        v = as_fraction(value)
        return cls._of(variables, {(0,) * len(variables): v} if v else {})

    @classmethod
    def variable(cls, variables: Iterable[str], name: str) -> "MultiPoly":
        variables = _checked_variables(variables)
        if name not in variables:
            raise InputError(f"unknown variable {name!r}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls._of(variables, {exps: Fraction(1)})

    # predicates and views

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise InputError("not a constant polynomial")
        return next(iter(self.terms.values()), Fraction(0))

    def degree_in(self, name: str) -> int:
        i = self._index(name)
        return max((exps[i] for exps in self.terms), default=0)

    def total_degree(self) -> int:
        return max((sum(exps) for exps in self.terms), default=0)

    def _index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise InputError(f"unknown variable {name!r}")

    def coefficients_in(self, name: str) -> list["MultiPoly"]:
        """Ascending coefficient list viewing the polynomial as univariate in `name`."""
        i = self._index(name)
        buckets: dict[int, dict[Exponents, Fraction]] = {}
        for exps, coeff in self.terms.items():
            reduced = exps[:i] + (0,) + exps[i + 1 :]
            buckets.setdefault(exps[i], {})[reduced] = coeff
        top = max(buckets, default=0)
        return [MultiPoly._of(self.variables, buckets.get(d, {})) for d in range(top + 1)]

    def used_variables(self) -> frozenset[str]:
        used = set()
        for exps in self.terms:
            for name, e in zip(self.variables, exps):
                if e:
                    used.add(name)
        return frozenset(used)

    # arithmetic

    def _check_compatible(self, other: "MultiPoly") -> None:
        if self.variables != other.variables:
            raise InputError("variable tuples differ")

    def _merge(self, other: "MultiPoly", op, lone) -> "MultiPoly":
        """self op other in one pass over other's terms: `lone` maps a term
        that self lacks, and terms that cancel are dropped."""
        self._check_compatible(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps)
            if acc is None:
                terms[exps] = lone(coeff)
            elif acc := op(acc, coeff):
                terms[exps] = acc
            else:
                del terms[exps]
        return MultiPoly._of(self.variables, terms)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return self._merge(other, operator.add, operator.pos)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._of(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self._merge(other, operator.sub, operator.neg)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        terms: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(operator.add, e1, e2))
                acc = terms.get(key)
                terms[key] = c1 * c2 if acc is None else acc + c1 * c2
        return MultiPoly._of(self.variables, {e: c for e, c in terms.items() if c})

    def scale(self, value) -> "MultiPoly":
        v = as_fraction(value)
        return MultiPoly._of(self.variables, {e: c * v for e, c in self.terms.items()} if v else {})

    def __pow__(self, n: int) -> "MultiPoly":
        """p^n = P^n / c^n on the dense kernel, for p = P / c with P over Z."""
        _check_power(n)
        if self.is_zero():
            return MultiPoly.constant(self.variables, 0 if n else 1)
        k = len(self.variables)
        dense, c = _integer_form(self, list(range(k)))
        scale = c**n
        return MultiPoly._of(self.variables, {e: v / scale for e, v in _unnest(_pow(dense, n, k), k)})

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        missing = self.used_variables() - set(assignment)
        if missing:
            raise InputError(f"missing values for {sorted(missing)}")
        total = Fraction(0)
        values = [as_fraction(assignment.get(v, 0)) for v in self.variables]
        for exps, coeff in self.terms.items():
            term = coeff
            for val, e in zip(values, exps):
                if e:
                    term *= val**e
            total += term
        return total

    def substitute(self, assignment: Mapping[str, Fraction]) -> "MultiPoly":
        """Partially evaluate some variables at exact rational values."""
        values = {self._index(name): as_fraction(v) for name, v in assignment.items()}
        terms: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            for i, value in values.items():
                e = exps[i]
                if e:
                    coeff = coeff * value**e
            key = tuple(0 if i in values else e for i, e in enumerate(exps))
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return MultiPoly._of(self.variables, {e: c for e, c in terms.items() if c})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.variables, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        if self.is_zero():
            return "MultiPoly(0)"
        bits = []
        for exps in sorted(self.terms, reverse=True):
            coeff = self.terms[exps]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.variables, exps)
                if e
            )
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return "MultiPoly(" + " + ".join(bits) + ")"


def _checked_variables(variables: Iterable[str]) -> tuple[str, ...]:
    variables = tuple(variables)
    for name in variables:
        if not isinstance(name, str):
            raise InputError(f"variable names must be strings, got {name!r}")
    if len(set(variables)) != len(variables):
        raise InputError(f"repeated variable names in {variables}")
    return variables


def _check_power(n) -> None:
    """Refuse a bool exponent, or one that is not an int >= 0, which `_pow` loops on."""
    if type(n) is not int:
        raise InputError(f"integer power expected, got {n!r}")
    if n < 0:
        raise InputError("negative power")


# The dense kernel works on integer polynomials.  A polynomial in k variables
# over Z is an int when k == 0, and otherwise the list of its coefficients,
# polynomials in the other k - 1 variables, in ascending degree with no
# trailing zero.  Zero is 0 or [], so `not a` tests for it at any k.  Operands
# may also be tuples (UniPoly's coefficients); results are lists.


def _zero(k: int):
    return 0 if k == 0 else []


def _one(k: int):
    return 1 if k == 0 else [_one(k - 1)]


def _strip(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _add(a, b, k: int):
    if k == 0:
        return a + b
    if len(a) < len(b):
        a, b = b, a
    if k == 1:
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
    else:
        out = [_add(x, y, k - 1) for x, y in zip(a, b)] + a[len(b) :]
    return _strip(out)


def _neg(a, k: int):
    if k == 0:
        return -a
    if k == 1:
        return [-c for c in a]
    return [_neg(c, k - 1) for c in a]


def _sub(a, b, k: int):
    return _add(a, _neg(b, k), k)


def _mul(a, b, k: int):
    if k == 0:
        return a * b
    if not a or not b:
        return []
    # the product of the leading coefficients is the (nonzero) leading one
    if k == 1:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return out
    out = [[]] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = _add(out[i + j], _mul(x, y, k - 1), k - 1)
    return out


def _pow(a, n: int, k: int):
    result = _one(k)
    while n:
        if n & 1:
            result = _mul(result, a, k)
        n >>= 1
        if n:
            a = _mul(a, a, k)
    return result


def _exact_quotient(a, b, k: int):
    """a / b for a nonzero b, or None where b does not divide a over Z."""
    if k == 0:
        q, r = divmod(a, b)
        return None if r else q
    if not a:
        return []
    db = len(b) - 1
    if len(a) <= db:
        return None
    r = list(a)
    q = [_zero(k - 1)] * (len(a) - db)
    lead = b[-1]
    for i in range(len(q) - 1, -1, -1):
        c = r[i + db]
        if not c:
            continue
        if k == 1:
            qi, rem = divmod(c, lead)
            if rem:
                return None
            for j in range(db):
                r[i + j] -= qi * b[j]
        else:
            qi = _exact_quotient(c, lead, k - 1)
            if qi is None:
                return None
            for j in range(db):
                r[i + j] = _sub(r[i + j], _mul(qi, b[j], k - 1), k - 1)
        q[i] = qi
    return None if any(r[:db]) else q


def _divexact(a, b, k: int):
    """a / b for a nonzero b that divides a; raises if it does not."""
    q = _exact_quotient(a, b, k)
    if q is None:
        raise InternalInvariantError("inexact polynomial division")
    return q


def _pseudo_remainder(a: list, b: list, k: int) -> list:
    """prem(a, b) = lc(b)^(deg a - deg b + 1) * a mod b, for a and b in R[var]
    with R the polynomials in k variables."""
    db = len(b) - 1
    lb = b[-1]
    r = a
    e = len(a) - db
    while len(r) > db:
        lr = r[-1]
        shift = len(r) - 1 - db
        r = [_mul(c, lb, k) for c in r[:-1]]
        for i in range(db):
            r[shift + i] = _sub(r[shift + i], _mul(lr, b[i], k), k)
        e -= 1
        _strip(r)
    if e > 0 and r:
        scale = _pow(lb, e, k)
        r = [_mul(c, scale, k) for c in r]
    return r


def _subresultant(a: list, b: list, k: int):
    """res_var(a, b) for a, b in R[var] of positive degrees, by the
    subresultant PRS (Brown & Traub 1971); the sign is that of the Sylvester
    determinant with the a-rows on top."""
    da, db = len(a) - 1, len(b) - 1
    sign = -1 if (da % 2 == 1 and db % 2 == 1 and da < db) else 1
    if da < db:
        a, b = b, a
    g_prev = h_prev = _one(k)
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            sign = -sign
        r = _pseudo_remainder(a, b, k)
        if not r:
            return _zero(k)
        a = b
        divisor = _mul(g_prev, _pow(h_prev, delta, k), k)
        b = [_divexact(c, divisor, k) for c in r]
        g_prev = a[-1]
        if delta == 1:
            h_prev = g_prev
        elif delta > 1:
            h_prev = _divexact(_pow(g_prev, delta, k), _pow(h_prev, delta - 1, k), k)
        if len(b) == 1:
            d_last = len(a) - 1
            result = _pow(b[0], d_last, k)
            if d_last > 1:
                result = _divexact(result, _pow(h_prev, d_last - 1, k), k)
            return result if sign == 1 else _neg(result, k)


def _nest(terms: dict[Exponents, int], k: int):
    """The dense form of {exponents: coefficient}, first exponent outermost."""
    if k == 0:
        return terms.get((), 0)
    buckets: dict[int, dict[Exponents, int]] = {}
    for exps, c in terms.items():
        buckets.setdefault(exps[0], {})[exps[1:]] = c
    return [
        _nest(buckets[d], k - 1) if d in buckets else _zero(k - 1)
        for d in range(max(buckets, default=-1) + 1)
    ]


def _unnest(a, k: int, prefix: Exponents = ()):
    """The (exponents, coefficient) pairs of a dense polynomial's nonzero terms."""
    if k == 0:
        if a:
            yield prefix, a
        return
    for d, c in enumerate(a):
        yield from _unnest(c, k - 1, prefix + (d,))


def _integer_form(p: MultiPoly, order: list[int]) -> tuple[list, Fraction]:
    """(P, c) with P the dense integer polynomial over the variable indices
    `order` (outermost first) and c a rational with p = P / c."""
    lcm = math.lcm(*(c.denominator for c in p.terms.values()))
    ints = {
        tuple(exps[i] for i in order): c.numerator * (lcm // c.denominator)
        for exps, c in p.terms.items()
    }
    content = math.gcd(*ints.values())
    ints = {exps: c // content for exps, c in ints.items()}
    return _nest(ints, len(order)), Fraction(lcm, content)


def resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Sylvester resultant of f and g with respect to `var`.

    The sign matches the determinant of the Sylvester matrix with the f-rows
    on top; the module docstring describes the integer scaling.
    """
    if f.is_zero() or g.is_zero():
        raise InputError("resultant requires nonzero polynomials")
    f._check_compatible(g)
    i = f._index(var)
    used = f.used_variables() | g.used_variables()
    others = [j for j, name in enumerate(f.variables) if j != i and name in used]
    a, c_f = _integer_form(f, [i] + others)
    b, c_g = _integer_form(g, [i] + others)
    da, db = len(a) - 1, len(b) - 1
    if da == 0 and db == 0:
        raise DegenerateInputError(f"neither polynomial involves {var!r}")
    k = len(others)
    if da == 0:
        res = _pow(a[0], db, k)
    elif db == 0:
        res = _pow(b[0], da, k)
    else:
        res = _subresultant(a, b, k)
    scale = c_f**db * c_g**da
    terms = {}
    for exps, c in _unnest(res, k):
        full = [0] * len(f.variables)
        for j, e in zip(others, exps):
            full[j] = e
        terms[tuple(full)] = c / scale
    return MultiPoly._of(f.variables, terms)
