"""Sparse multivariate polynomials over exact rationals, and resultants.

Coefficients are `fractions.Fraction`; exponent vectors index a fixed variable
tuple.  The resultant runs a subresultant polynomial remainder sequence with
the sign bookkeeping matching the Sylvester determinant, f-rows first.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from ..errors import DegenerateInputError, InputError, InternalInvariantError

Exponents = tuple[int, ...]


def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise InputError(f"cannot interpret {value!r} as an exact rational")


class MultiPoly:
    """Immutable sparse polynomial over a fixed ordered variable tuple."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponents, Fraction] = ()):
        object.__setattr__(self, "variables", tuple(variables))
        nvars = len(self.variables)
        clean: dict[Exponents, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise InputError(f"bad exponent vector {exps} for {nvars} variables")
            coeff = as_fraction(coeff)
            if coeff:
                clean[exps] = clean.get(exps, Fraction(0)) + coeff
                if not clean[exps]:
                    del clean[exps]
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # construction helpers

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "MultiPoly":
        return cls(variables)

    @classmethod
    def constant(cls, variables: Iterable[str], value) -> "MultiPoly":
        variables = tuple(variables)
        v = as_fraction(value)
        return cls(variables, {(0,) * len(variables): v} if v else {})

    @classmethod
    def variable(cls, variables: Iterable[str], name: str) -> "MultiPoly":
        variables = tuple(variables)
        if name not in variables:
            raise InputError(f"unknown variable {name!r}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: Fraction(1)})

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
        return [MultiPoly(self.variables, buckets.get(d, {})) for d in range(top + 1)]

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

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
        return MultiPoly(self.variables, terms)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        terms: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                acc = terms.get(key)
                terms[key] = c1 * c2 if acc is None else acc + c1 * c2
        return MultiPoly(self.variables, terms)

    def scale(self, value) -> "MultiPoly":
        v = as_fraction(value)
        return MultiPoly(self.variables, {e: c * v for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise InputError("negative power")
        result = MultiPoly.constant(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
        values = {name: as_fraction(v) for name, v in assignment.items()}
        idx = [self.variables.index(name) for name in values]
        terms: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            for name, i in zip(values, idx):
                e = exps[i]
                if e:
                    coeff = coeff * values[name] ** e
            key = tuple(0 if i in idx else e for i, e in enumerate(exps))
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return MultiPoly(self.variables, terms)

    def leading_term_lex(self) -> tuple[Exponents, Fraction]:
        exps = max(self.terms)
        return exps, self.terms[exps]

    def divexact(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact division; raises if the divisor does not divide evenly."""
        self._check_compatible(divisor)
        if divisor.is_zero():
            raise InputError("division by the zero polynomial")
        if divisor.is_constant():
            return self.scale(1 / divisor.constant_value())
        remainder = dict(self.terms)
        quotient: dict[Exponents, Fraction] = {}
        lead_e, lead_c = divisor.leading_term_lex()
        while remainder:
            exps = max(remainder)
            coeff = remainder[exps]
            q_exps = tuple(a - b for a, b in zip(exps, lead_e))
            if any(e < 0 for e in q_exps):
                raise InternalInvariantError("inexact polynomial division")
            q_coeff = coeff / lead_c
            quotient[q_exps] = quotient.get(q_exps, Fraction(0)) + q_coeff
            for d_exps, d_coeff in divisor.terms.items():
                key = tuple(a + b for a, b in zip(q_exps, d_exps))
                val = remainder.get(key, Fraction(0)) - q_coeff * d_coeff
                if val:
                    remainder[key] = val
                else:
                    remainder.pop(key, None)
        return MultiPoly(self.variables, quotient)

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


def _strip(coeffs: list[MultiPoly]) -> list[MultiPoly]:
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _pseudo_remainder(a: list[MultiPoly], b: list[MultiPoly]) -> list[MultiPoly]:
    """prem(a, b) = lc(b)^(deg a - deg b + 1) * a mod b, all over the coefficient ring."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    e = len(a) - len(b) + 1
    while _strip(r) and len(r) - 1 >= db:
        lr = r[-1]
        shift = len(r) - 1 - db
        r = [c * lb for c in r[:-1]]
        for i, bc in enumerate(b[:-1]):
            r[shift + i] = r[shift + i] - lr * bc
        e -= 1
        _strip(r)
    lb_rest = lb**e if e > 0 else None
    if lb_rest is not None:
        r = [c * lb_rest for c in r]
    return _strip(r)


def resultant(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Sylvester resultant of f and g with respect to `var`.

    Computed by a subresultant polynomial remainder sequence; the sign matches
    the determinant of the Sylvester matrix with the f-rows on top.
    """
    if f.is_zero() or g.is_zero():
        raise InputError("resultant requires nonzero polynomials")
    a = _strip(f.coefficients_in(var))
    b = _strip(g.coefficients_in(var))
    da, db = len(a) - 1, len(b) - 1
    if da == 0 and db == 0:
        raise DegenerateInputError(f"neither polynomial involves {var!r}")
    if da == 0:
        return a[0] ** db
    if db == 0:
        return b[0] ** da
    sign = -1 if (da % 2 == 1 and db % 2 == 1 and da < db) else 1
    if da < db:
        a, b = b, a
    variables = f.variables
    one = MultiPoly.constant(variables, 1)
    zero = MultiPoly.zero(variables)
    g_prev, h_prev = one, one
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            sign = -sign
        r = _pseudo_remainder(a, b)
        if not r:
            return zero
        a = b
        divisor = g_prev * (h_prev**delta)
        b = [c.divexact(divisor) for c in r]
        g_prev = a[-1]
        if delta == 0:
            pass
        elif delta == 1:
            h_prev = g_prev
        else:
            h_prev = (g_prev**delta).divexact(h_prev ** (delta - 1))
        if len(b) - 1 == 0:
            d_last = len(a) - 1
            numerator = b[0] ** d_last
            if d_last > 1:
                numerator = numerator.divexact(h_prev ** (d_last - 1))
            return numerator if sign == 1 else -numerator
