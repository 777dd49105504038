"""Dense univariate polynomials over the integers, with factorization.

The factorization pipeline is the classical one: Yun squarefree decomposition,
Cantor-Zassenhaus factorization modulo a good prime, quadratic multifactor
Hensel lifting past the Mignotte bound, and subset recombination.  The prime
is chosen by factor counts alone: of the first four good odd primes, the one
with the fewest factors in its distinct-degree split; Cantor-Zassenhaus runs
on that split, so the winner is not swept again.  A prime q is good for p
when q does not divide lc(p) and p mod q is squarefree; `_good_split` alone
decides that, for the prime choice, `degree_multiset_mod` and the solubility
sieve.  Everything runs on Python's arbitrary-precision integers.  The gcds
of Yun's algorithm come from the heuristic gcd GCDHEU (`poly_gcd`): one
integer gcd of the two operands' values at a large point, read back as a
polynomial and accepted only after trial division.

The distinct-degree step over GF(q) follows von zur Gathen & Shoup: x^q mod f
is computed once, and each degree then costs one vector-matrix product
h -> h(x^q) with the Frobenius matrix, whose rows are x^(iq) mod f, instead of
a modular q-th power.  The rows past x^q are built only when degree 2 is
reached, so a caller that stops after degree 1 pays for x^q alone.  That
kernel packs each coefficient vector into 64-bit slots of one Python int
(Kronecker substitution), so products and sums run in C big-int arithmetic.
A slot sums at most deg f products of two residues, so the kernel requires
deg f * q^2 < 2^63 and raises InputError beyond it.  Cantor-Zassenhaus raises
to its power (q^d - 1)/2 on the same packed products (`_packed_pow`).

Integer arithmetic comes from the one dense kernel in `multipoly` (`_strip`,
`_add`, `_neg`, `_sub`, `_mul`, `_pow`, `_exact_quotient`): `UniPoly` calls it
on its coefficient tuples, and gf_add, gf_sub and gf_mul reduce its results
mod q.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import struct
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from ..errors import InputError, InternalInvariantError
from .multipoly import _add, _exact_quotient, _mul, _neg, _pow, _strip, _sub


class UniPoly:
    """Integer polynomial as an ascending coefficient tuple (empty = zero)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise InputError(f"integer coefficient expected, got {c!r}")
        object.__setattr__(self, "coeffs", tuple(_strip(cs)))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def from_fractions(cls, values: Sequence[Fraction]) -> "UniPoly":
        """Clear denominators and strip content: the primitive associate."""
        fracs = [Fraction(v) for v in values]
        scale = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        ints = [int(f * scale) for f in fracs]
        return cls(ints).normalized()

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise InputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def normalized(self) -> "UniPoly":
        """Primitive part with positive leading coefficient."""
        if self.is_zero():
            return self
        c = self.content()
        if self.leading < 0:
            c = -c
        return UniPoly([x // c for x in self.coeffs])

    def __add__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly(_add(self.coeffs, other.coeffs, 1))

    def __neg__(self) -> "UniPoly":
        return UniPoly(_neg(self.coeffs, 1))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly(_sub(self.coeffs, other.coeffs, 1))

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly(_mul(self.coeffs, other.coeffs, 1))

    def scale(self, k: int) -> "UniPoly":
        return UniPoly([c * k for c in self.coeffs])

    def __pow__(self, n: int) -> "UniPoly":
        return UniPoly(_pow(self.coeffs, n, 1))

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def try_divide(self, divisor: "UniPoly") -> "UniPoly | None":
        """Quotient if the division is exact over the integers, else None."""
        if divisor.is_zero():
            raise InputError("division by zero polynomial")
        q = _exact_quotient(self.coeffs, divisor.coeffs, 1)
        return None if q is None else UniPoly(q)

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)})"


def _mod_sym(c: int, m: int) -> int:
    """The residue of c mod m in (-m/2, m/2]."""
    c %= m
    return c - m if 2 * c > m else c


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Greatest common divisor over Z: the gcd of the contents times the
    primitive gcd, which has positive leading coefficient.

    The primitive gcd comes from the heuristic gcd GCDHEU (Char, Geddes &
    Gonnet, J. Symb. Comput. 7, 1989).  Both primitive operands F = D*F1 and
    G = D*G1, D their gcd, are evaluated at an integer xi >= 2*min(|F|, |G|)
    + 2 (max norms), and the balanced xi-adic digits of gamma' =
    gcd(F(xi), G(xi)) are read back as a candidate C.  The primitive part of
    C is returned only if it divides both F and G; by the theorem of Char,
    Geddes & Gonnet it is then D.  Otherwise xi grows and the step repeats.

    The loop needs no cap.  gamma' = |D(xi)| * gamma with gamma =
    gcd(F1(xi), G1(xi)), and gamma divides res(F1, G1), which is nonzero
    because F1 and G1 are coprime (res = u*F1 + v*G1 with integer u, v).
    So once xi > 2*|res(F1, G1)|*|D|, every coefficient of gamma*D lies
    below xi/2, the digits are exactly gamma*D, and their primitive part is
    D.  Every answer is exact because of the trial division.
    """
    if a.is_zero():
        return b.normalized()
    if b.is_zero():
        return a.normalized()
    cont = math.gcd(a.content(), b.content())
    f, g = a.normalized(), b.normalized()
    xi = 2 * min(max(map(abs, f.coeffs)), max(map(abs, g.coeffs))) + 2
    while True:
        h = math.gcd(f.evaluate(xi), g.evaluate(xi))
        digits = []
        while h:
            c = _mod_sym(h, xi)
            digits.append(c)
            h = (h - c) // xi
        cand = UniPoly(digits).normalized()
        if f.try_divide(cand) is not None and g.try_divide(cand) is not None:
            return cand.scale(cont)
        xi = xi * 73794 // 27011  # geometric growth, by about e


def squarefree_decomposition(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's algorithm on the primitive part: [(q_i, i)] with q_i squarefree,
    pairwise coprime, and p ~ prod q_i^i up to a rational constant."""
    if p.is_zero():
        raise InputError("zero polynomial has no squarefree decomposition")
    f = p.normalized()
    if f.degree < 1:
        return []
    out: list[tuple[UniPoly, int]] = []
    g = poly_gcd(f, f.derivative())
    w = f.try_divide(g)
    y = f.derivative().try_divide(g)
    if w is None or y is None:
        raise InternalInvariantError("inexact division in squarefree decomposition")
    i = 1
    while True:
        z = y - w.derivative()
        if z.is_zero():
            if w.degree > 0:
                out.append((w.normalized(), i))
            break
        h = poly_gcd(w, z)
        if h.degree > 0:
            out.append((h.normalized(), i))
        w2 = w.try_divide(h)
        y2 = z.try_divide(h)
        if w2 is None or y2 is None:
            raise InternalInvariantError("inexact division in squarefree decomposition")
        w, y = w2, y2
        i += 1
    return out


# ---------------------------------------------------------------------------
# arithmetic in GF(p)[x]: plain ascending int lists, coefficients in [0, p)


def gf_from_int(p_coeffs: Sequence[int], q: int) -> list[int]:
    return _strip([c % q for c in p_coeffs])


def gf_add(a: list[int], b: list[int], q: int) -> list[int]:
    return gf_from_int(_add(a, b, 1), q)


def gf_sub(a: list[int], b: list[int], q: int) -> list[int]:
    return gf_from_int(_sub(a, b, 1), q)


def gf_mul(a: list[int], b: list[int], q: int) -> list[int]:
    return gf_from_int(_mul(a, b, 1), q)


def gf_divmod(a: list[int], b: list[int], q: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder), reducing mod q only the coefficient that becomes
    the next leading term, then the remainder once at the end."""
    if not b:
        raise InputError("gf division by zero")
    inv = pow(b[-1], -1, q)
    rem = list(a)
    db = len(b) - 1
    quo = [0] * max(0, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] % q
        if c:
            f = (c * inv) % q
            quo[i - db] = f
            shift = i - db
            for j in range(db):
                rem[shift + j] -= f * b[j]
    return _strip(quo), gf_from_int(rem[:db], q)


def gf_rem(a: list[int], b: list[int], q: int) -> list[int]:
    return gf_divmod(a, b, q)[1]


def gf_monic(f: list[int], q: int) -> list[int]:
    if not f:
        return []
    inv = pow(f[-1], -1, q)
    return _strip([(c * inv) % q for c in f])


def gf_gcd(a: list[int], b: list[int], q: int) -> list[int]:
    while b:
        a, b = b, gf_rem(a, b, q)
    return gf_monic(a, q)


def gf_extended_euclid(a: list[int], b: list[int], q: int) -> tuple[list[int], list[int], list[int]]:
    """(g, s, t) with s*a + t*b = g = monic gcd."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        quo, rem = gf_divmod(r0, r1, q)
        r0, r1 = r1, rem
        s0, s1 = s1, gf_sub(s0, gf_mul(quo, s1, q), q)
        t0, t1 = t1, gf_sub(t0, gf_mul(quo, t1, q), q)
    if not r0:
        raise InputError("extended euclid of two zero polynomials")
    inv = [pow(r0[-1], -1, q)]
    return gf_mul(r0, inv, q), gf_mul(s0, inv, q), gf_mul(t0, inv, q)


def gf_derivative(f: list[int], q: int) -> list[int]:
    return _strip([(i * c) % q for i, c in enumerate(f)][1:])


def gf_is_squarefree(f: list[int], q: int) -> bool:
    """Whether f has no repeated factor over GF(q): gcd(f, f') = 1."""
    return len(gf_gcd(f, gf_derivative(f, q), q)) == 1


#: Each packed coefficient of the Frobenius kernel is one unsigned 64-bit slot.
_SLOT_LIMIT = 1 << 63


def _pack(v: Sequence[int]) -> int:
    """Kronecker packing: coefficient i goes into 64-bit slot i of one int."""
    return int.from_bytes(struct.pack(f"<{len(v)}Q", *v), "little")


def _unpack(x: int, slots: int, q: int) -> list[int]:
    """The first `slots` packed coefficients, each reduced mod q."""
    return [c % q for c in struct.unpack(f"<{slots}Q", x.to_bytes(8 * slots, "little"))]


def _frobenius_mulmod(f: list[int], q: int):
    """Product mod f of two packed residues, for monic f of degree n >= 2.

    Products run on packed ints, reduced with a packed table of x^k mod f
    for k = n..2n-2.  A slot sums at most n products of two coefficients
    below q, so it stays below n*q^2 < 2^63 (checked by the caller).
    """
    n = len(f) - 1
    top = [(-c) % q for c in f[:-1]]  # x^n mod f
    table = []
    r = top
    for _ in range(n - 1):
        table.append(_pack(r))
        lead = r[-1]
        r = [0] + r[:-1]
        if lead:
            r = [(c + lead * t) % q for c, t in zip(r, top)]

    def mulmod(a: int, b: int) -> int:
        c = _unpack(a * b, 2 * n - 1, q)
        acc = _pack(c[:n]) + sum(map(operator.mul, c[n:], table))
        return _pack(_unpack(acc, n, q))

    return mulmod


def _packed_pow(mulmod, a: int, e: int) -> int:
    """a^e for a packed residue a, by left-to-right square-and-multiply with
    a `_frobenius_mulmod` product; the packed 1 (the int 1) at e = 0."""
    if e == 0:
        return 1
    r = a
    for bit in bin(e)[3:]:
        r = mulmod(r, r)
        if bit == "1":
            r = mulmod(r, a)
    return r


def _distinct_degree_steps(f: list[int], q: int) -> Iterator[tuple[list[int], int]]:
    """(g, d) for d = 1, 2, ... on monic squarefree f: g the monic product of
    the irreducible factors of degree d, [1] where there is none.  Once 2d
    exceeds the degree m of the cofactor `work` left, work is irreducible,
    and the last pair is (work, m).  The pairs with g != [1] are the
    distinct-degree split.

    h runs through x^(q^d) mod f.  x^q comes from `_packed_pow`; the
    other rows x^(iq) mod f of the Frobenius matrix, the matrix of
    h -> h^q = h(x^q) on GF(q)[x]/(f), are built only when degree 2 is asked
    for, so a caller that stops after degree 1 pays for x^q alone.  Each
    later degree is one product of h with the matrix.  h stays reduced mod f,
    not mod the shrinking cofactor: work divides f, so gcd(h - x, work) is
    the same.  On a non-squarefree f the pairs mean nothing, but the steps
    still end.  Raises InputError unless deg f * q^2 < 2^63 (packed slots).
    """
    n = len(f) - 1
    if n * q * q >= _SLOT_LIMIT:
        raise InputError(
            f"GF({q}) kernel needs deg * q^2 < 2^63; degree {n} at modulus {q} exceeds it"
        )
    work = list(f)
    d = 0
    while len(work) > 1:
        d += 1
        if 2 * d > len(work) - 1:
            yield work, len(work) - 1
            return
        if d == 1:
            mulmod = _frobenius_mulmod(f, q)
            xq = _packed_pow(mulmod, _pack([0, 1]), q)
            h = _unpack(xq, n, q)
        else:
            if d == 2:
                rows = [_pack([1] + [0] * (n - 1)), xq]
                while len(rows) < n:
                    rows.append(mulmod(rows[-1], xq))
            h = _unpack(sum(map(operator.mul, h, rows)), n, q)
        g = gf_gcd(gf_sub(h, [0, 1], q), work, q)
        if len(g) > 1:
            work, _ = gf_divmod(work, g, q)
        yield g, d


def gf_equal_degree_split(f: list[int], d: int, q: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus split of a monic product of degree-d irreducibles, odd q.

    a^((q^d - 1)/2) mod f runs on the packed kernel of `_distinct_degree_steps`,
    whose slot bound deg f * q^2 < 2^63 the caller's f already met.
    """
    n = len(f) - 1
    if n == d:
        return [f]
    mulmod = _frobenius_mulmod(f, q)
    while True:
        a = _strip([rng.randrange(q) for _ in range(n)])
        if len(a) - 1 < 1:
            continue
        g = gf_gcd(a, f, q)
        if 0 < len(g) - 1 < n:
            h = g
        else:
            b = _unpack(_packed_pow(mulmod, _pack(a), (q**d - 1) // 2), n, q)
            h = gf_gcd(gf_sub(b, [1], q), f, q)
            if not (0 < len(h) - 1 < n):
                continue
        other, _ = gf_divmod(f, h, q)
        return gf_equal_degree_split(h, d, q, rng) + gf_equal_degree_split(other, d, q, rng)


def gf_factor_squarefree(split: list[tuple[list[int], int]], q: int) -> list[list[int]]:
    """Sorted monic irreducible factors of a monic squarefree polynomial over
    GF(q), odd q, from its distinct-degree split (`_good_split`).

    The equal-degree splits draw from `random.Random(q)`; the sorted output
    does not depend on the draws."""
    rng = random.Random(q)
    out: list[list[int]] = []
    for prod, d in split:
        out.extend(gf_equal_degree_split(prod, d, q, rng))
    out.sort()
    return out


def _good_split(p: UniPoly, q: int, prefixes: frozenset | None = None) -> list[tuple[list[int], int]] | None:
    """The distinct-degree split [(g, d)] of p mod q (the pairs of
    `_distinct_degree_steps` with g != [1]) where q is good: q does not divide
    lc(p) and p mod q is squarefree, so that by Dedekind the degrees are a
    Frobenius cycle type.  Else None, and, given `prefixes`, None as soon as
    the factor counts (c_1, ..., c_d) of degrees 1..d are none of them.
    Since the prefixes turn most primes down within the first degrees, the
    squarefree test then waits until the whole sweep is done (a sweep ends on
    any f); without them it runs first, and saves a bad prime its sweep.
    """
    if p.leading % q == 0:
        return None
    f = gf_monic(gf_from_int(p.coeffs, q), q)
    if prefixes is None:
        if not gf_is_squarefree(f, q):
            return None
        return [(g, d) for g, d in _distinct_degree_steps(f, q) if len(g) > 1]
    split, counts = [], []
    for g, d in _distinct_degree_steps(f, q):
        counts += [0] * (d - 1 - len(counts))
        counts.append((len(g) - 1) // d)
        if tuple(counts) not in prefixes:
            return None
        if len(g) > 1:
            split.append((g, d))
    return split if gf_is_squarefree(f, q) else None


def _split_degrees(split: Sequence[tuple[list[int], int]]) -> tuple[int, ...]:
    """The ascending factor degrees of a distinct-degree split."""
    return tuple(d for g, d in split for _ in range((len(g) - 1) // d))


def degree_multiset_mod(p: UniPoly, q: int) -> tuple[int, ...] | None:
    """Sorted degrees of the irreducible factors of p mod q, or None where
    p mod q is not squarefree (`_good_split`).

    Requires q not dividing the leading coefficient.
    """
    if p.leading % q == 0:
        raise InputError(f"{q} divides the leading coefficient")
    split = _good_split(p, q)
    return None if split is None else _split_degrees(split)


# ---------------------------------------------------------------------------
# Hensel lifting and Zassenhaus recombination


def _hensel_step(m2: int, f, g, h, s, t):
    """One quadratic lift: inputs satisfy f = g*h and s*g + t*h = 1 (mod m),
    h monic; outputs satisfy the same mod m2, which may be any divisor of m**2."""
    mul = lambda a, b: gf_mul(a, b, m2)
    sub = lambda a, b: gf_sub(a, b, m2)
    add = lambda a, b: gf_add(a, b, m2)
    e = sub(gf_from_int(f, m2), mul(g, h))
    q_, r_ = gf_divmod(mul(s, e), h, m2)
    g_star = add(add(g, mul(t, e)), mul(q_, g))
    h_star = add(h, r_)
    b = sub(add(mul(s, g_star), mul(t, h_star)), [1])
    c_, d_ = gf_divmod(mul(s, b), h_star, m2)
    s_star = sub(s, d_)
    t_star = sub(sub(t, mul(t, b)), mul(c_, g_star))
    return g_star, h_star, s_star, t_star


def _lift_pair(moduli: list[int], f, g, h, s, t):
    for m2 in moduli:
        g, h, s, t = _hensel_step(m2, f, g, h, s, t)
    return g, h


def hensel_lift(p: int, target: int, f: list[int], factors: list[list[int]]) -> tuple[list[list[int]], int]:
    """Lift f = lc(f) * prod(factors) from mod p to mod M >= target.

    The factors are monic and pairwise coprime mod p; returns monic lifts and
    the modulus M actually reached, the least power p**e >= target.  The lift
    climbs the exponent chain ceil(e / 2**k), so each step's modulus divides
    the square of the one before and the last stops at p**e, where squaring
    the modulus every step could overshoot the target by up to its square.

    `recurse` halves the factor list, so its depth is ceil(log2 r) for r
    modular factors, and r <= deg f: no input comes near Python's recursion
    limit."""
    e, modulus = 1, p
    while modulus < target:
        e, modulus = e + 1, modulus * p
    exponents = []
    while e > 1:
        exponents.append(e)
        e = (e + 1) // 2
    moduli = [p**k for k in reversed(exponents)]

    def recurse(f: list[int], facs: list[list[int]]) -> list[list[int]]:
        if len(facs) == 1:
            return [gf_monic(f, modulus)]
        half = len(facs) // 2
        g0 = [f[-1] % p]
        for fac in facs[:half]:
            g0 = gf_mul(g0, fac, p)
        h0 = [1]
        for fac in facs[half:]:
            h0 = gf_mul(h0, fac, p)
        one, s, t = gf_extended_euclid(g0, h0, p)
        if one != [1]:
            raise InternalInvariantError("factor halves are not coprime mod p")
        g, h = _lift_pair(moduli, gf_from_int(f, modulus), g0, h0, s, t)
        return recurse(g, facs[:half]) + recurse(h, facs[half:])

    return recurse(gf_from_int(f, modulus), factors), modulus


def _mignotte_bound(f: UniPoly) -> int:
    norm = math.isqrt((f.degree + 1) * sum(c * c for c in f.coeffs)) + 1
    return (1 << f.degree) * norm * abs(f.leading)


def _choose_factoring_prime(f: UniPoly) -> tuple[int, list[list[int]]]:
    """The prime to factor f at, with the monic factors of f mod that prime.

    The candidates are the good odd primes (`_good_split`), in ascending
    order.  Among the first four, the one with the fewest factors in its
    distinct-degree split wins, the smallest on a tie, and the scan stops
    early at a prime with one factor.  Cantor-Zassenhaus runs on the chosen
    prime's split only, so no prime is swept twice.
    """
    candidates = []  # (factors, prime, split)
    for q in filter(is_prime, itertools.count(3, 2)):
        split = _good_split(f, q)
        if split is None:
            continue
        factors = len(_split_degrees(split))
        candidates.append((factors, q, split))
        if len(candidates) == 4 or factors == 1:
            break
    _, q, split = min(candidates, key=lambda c: c[:2])
    return q, gf_factor_squarefree(split, q)


def factor_squarefree_primitive(f: UniPoly) -> list[UniPoly]:
    """Irreducible factors of a primitive squarefree polynomial with positive lc."""
    q, modular = _choose_factoring_prime(f)
    if len(modular) == 1:
        return [f]
    bound = 2 * _mignotte_bound(f) + 1
    lifted, modulus = hensel_lift(q, bound, list(f.coeffs), modular)
    remaining = list(range(len(lifted)))
    current = f
    out: list[UniPoly] = []
    size = 1
    while 2 * size <= len(remaining):
        found = False
        for combo in itertools.combinations(remaining, size):
            cand = [current.leading % modulus]
            for i in combo:
                cand = gf_mul(cand, lifted[i], modulus)
            cand_int = UniPoly([_mod_sym(c, modulus) for c in cand]).normalized()
            quotient = current.try_divide(cand_int)
            if quotient is not None:
                out.append(cand_int)
                current = quotient.normalized()
                remaining = [i for i in remaining if i not in combo]
                found = True
                break
        if not found:
            size += 1
    if current.degree > 0:
        out.append(current.normalized())
    out.sort(key=lambda u: (u.degree, u.coeffs))
    return out


def factor_over_q(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Irreducible primitive factors with multiplicities over the rationals.

    The product of the factors (to their multiplicities) reconstructs the
    input up to a rational constant.
    """
    if p.is_zero():
        raise InputError("cannot factor the zero polynomial")
    out: list[tuple[UniPoly, int]] = []
    for part, mult in squarefree_decomposition(p):
        for factor in factor_squarefree_primitive(part):
            out.append((factor, mult))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


def is_irreducible(p: UniPoly) -> bool:
    if p.normalized().degree < 1:
        return False
    factors = factor_over_q(p)
    return len(factors) == 1 and factors[0][1] == 1


def is_prime(n: int) -> bool:
    """Trial division; for single numbers, where a sieve would waste work."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def primes_up_to(bound: int) -> list[int]:
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [i for i, flag in enumerate(sieve) if flag]
