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

Each reading of p mod q (`_good_split`) packs p mod q once, into one
`_Slots(deg p, q)`: every GF(q) polynomial is one Python int of W-bit slots
(Kronecker substitution), so sums and products run in C big-int arithmetic.
It stays packed through the squarefree test (one gcd with the derivative),
the distinct-degree step, the factor degrees, Cantor-Zassenhaus and, at the
factoring prime, the products and Bezout cofactors of Hensel lifting's split
nodes; lists begin at modulus q^2, in `_lift_pair`.
The distinct-degree step follows von zur Gathen & Shoup: x^q mod f is
computed once, and each degree then costs one vector-matrix product
h -> h(x^q) with the Frobenius matrix, whose rows are x^(iq) mod f and are
built only when degree 2 is reached.  W is chosen per (deg f, q): a slot sums
at most deg f products of two residues, so it stays below V = deg f * q^2,
and one packed reduction by a multiplied inverse (Granlund & Montgomery)
takes every slot mod q in four big-int operations.  A reduced int gives its
degree by `bit_length` and its coefficients by one `struct` unpack.  x^q takes
squarings alone, and each product is brought below deg f by polynomial
Barrett reduction (`_Ring`).  The kernel's contract is deg f * q^2 < 2^63; it
raises InputError beyond it.

Integer arithmetic comes from the one dense kernel in `multipoly` (`_strip`,
`_add`, `_neg`, `_sub`, `_mul`, `_pow`, `_exact_quotient`): `UniPoly` calls it
on its coefficient tuples, and gf_add, gf_sub and gf_mul reduce its results
mod the powers q^k of Hensel lifting and recombination.  The public `UniPoly`
constructor checks that every coefficient is an int, not a bool, and strips
trailing zeros; arithmetic builds each result once, through the unchecked
`UniPoly._of`, from the kernel's stripped int lists.
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
from .multipoly import _add, _check_power, _exact_quotient, _mul, _neg, _pow, _strip, _sub


class UniPoly:
    """Integer polynomial as an ascending coefficient tuple (empty = zero)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:
                raise InputError(f"integer coefficient expected, got {c!r}")
        object.__setattr__(self, "coeffs", tuple(_strip(cs)))

    @classmethod
    def _of(cls, coeffs: Sequence[int]) -> "UniPoly":
        """The polynomial of ints that arithmetic made, unchecked: `coeffs`
        holds no trailing zero."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", tuple(coeffs))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def from_fractions(cls, values: Sequence[Fraction]) -> "UniPoly":
        """Clear denominators and strip content: the primitive associate."""
        fracs = [Fraction(v) for v in values]
        scale = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        ints = [int(f * scale) for f in fracs]
        return cls._of(_strip(ints)).normalized()

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
        return UniPoly._of([x // c for x in self.coeffs])

    def __add__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly._of(_add(self.coeffs, other.coeffs, 1))

    def __neg__(self) -> "UniPoly":
        return UniPoly._of(_neg(self.coeffs, 1))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly._of(_sub(self.coeffs, other.coeffs, 1))

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly._of(_mul(self.coeffs, other.coeffs, 1))

    def scale(self, k: int) -> "UniPoly":
        if type(k) is not int:
            raise InputError(f"integer scale expected, got {k!r}")
        return UniPoly._of([c * k for c in self.coeffs] if k else ())

    def __pow__(self, n: int) -> "UniPoly":
        _check_power(n)
        return UniPoly._of(_pow(self.coeffs, n, 1))

    def derivative(self) -> "UniPoly":
        return UniPoly._of([i * c for i, c in enumerate(self.coeffs)][1:])

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
        return None if q is None else UniPoly._of(q)

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
        cand = UniPoly._of(digits).normalized()  # the last digit is nonzero
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
# arithmetic mod q, a prime or a prime power, on plain ascending int lists


def gf_from_int(p_coeffs: Sequence[int], q: int) -> list[int]:
    return _strip([c % q for c in p_coeffs])


def gf_add(a: list[int], b: list[int], q: int) -> list[int]:
    return gf_from_int(_add(a, b, 1), q)


def gf_sub(a: list[int], b: list[int], q: int) -> list[int]:
    return gf_from_int(_sub(a, b, 1), q)


def gf_mul(a: list[int], b: list[int], q: int) -> list[int]:
    return gf_from_int(_mul(a, b, 1), q)


def gf_divmod(a: list[int], b: list[int], q: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder) for any modulus q where lc(b) is a unit, as
    Hensel lifting needs mod p^k, reducing mod q only the coefficient that
    becomes the next leading term, then the remainder once at the end."""
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


def gf_monic(f: list[int], q: int) -> list[int]:
    if not f:
        return []
    inv = pow(f[-1], -1, q)
    return _strip([(c * inv) % q for c in f])


# ---------------------------------------------------------------------------
# the packed GF(q)[x] kernel: one int per polynomial, q prime


#: The kernel's contract: a slot holds at most deg f products of two residues
#: plus one residue, below deg f * q^2, and that bound must stay below 2^63.
_SLOT_LIMIT = 1 << 63


class _Slots:
    """GF(q)[x] polynomials of degree at most n, q prime, each packed into
    one int: coefficient i in W-bit slot i (Kronecker substitution), so sums
    and products run in C big-int arithmetic.

    Every slot the kernel makes stays below V = n * q^2 (the contract), and
    `reduce` brings all of them into [0, q) at once by a multiplied inverse
    (Granlund & Montgomery, PLDI 1994): with 2^k > (V - 1)(q - 1) and
    m = ceil(2^k / q), floor(x * m / 2^k) = floor(x / q) for 0 <= x < V,
    and W is the least multiple of 32 above the bits of (V - 1) * m, so the
    slots of x * m do not overlap.  The quotients then lie in the bits k..W-1
    of each slot of x * m, and x - q * (((x * m) >> k) & MASK) leaves every
    slot reduced, without a borrow.  A reduced int gives its degree by
    `bit_length`, and its coefficients by one `struct` unpack of 32-bit
    words (q < 2^32 under the contract).
    """

    __slots__ = ("q", "width", "words", "magic", "shift", "field", "qs", "masks")

    def __init__(self, n: int, q: int):
        if n * q * q >= _SLOT_LIMIT:
            raise InputError(
                f"GF({q}) kernel needs deg * q^2 < 2^63; degree {n} at modulus {q} exceeds it"
            )
        n = max(n, 1)
        bound = n * q * q
        shift = ((bound - 1) * (q - 1)).bit_length()
        magic = -(-(1 << shift) // q)
        width = -(-((bound - 1) * magic).bit_length() // 32) * 32
        size = width // 8
        self.q, self.width, self.words, self.magic, self.shift = q, width, width // 32, magic, shift
        # the quotient field of each of the 2n slots a product can fill
        self.field = int.from_bytes(((1 << (width - shift)) - 1).to_bytes(size, "little") * 2 * n, "little")
        self.qs = int.from_bytes(q.to_bytes(size, "little") * (n + 1), "little")  # q in slots 0..n
        self.masks = [(1 << (i * width)) - 1 for i in range(2 * n)]  # the slots below i

    def pack(self, coeffs: Sequence[int]) -> int:
        """The packed int of a coefficient list with entries in [0, q)."""
        if self.words > 1:
            spread = [0] * (len(coeffs) * self.words)
            spread[:: self.words] = coeffs
            coeffs = spread
        return int.from_bytes(struct.pack(f"<{len(coeffs)}I", *coeffs), "little")

    def unpack(self, x: int, count: int) -> tuple[int, ...]:
        """The first `count` coefficients of a reduced x below x^count."""
        words = self.words
        return struct.unpack(f"<{count * words}I", x.to_bytes(count * 4 * words, "little"))[::words]

    def to_list(self, x: int) -> list[int]:
        """The stripped coefficient list of a reduced x."""
        return list(self.unpack(x, self.degree(x) + 1))

    def reduce(self, x: int) -> int:
        """x with every slot taken mod q; each slot below V on entry."""
        return x - self.q * (((x * self.magic) >> self.shift) & self.field)

    def degree(self, x: int) -> int:
        """The degree of a reduced x, -1 for zero."""
        return (x.bit_length() - 1) // self.width

    def sub(self, a: int, b: int) -> int:
        return self.reduce(a + self.qs - b)

    def monic(self, x: int) -> int:
        return self.reduce(x * pow(x >> (self.degree(x) * self.width), -1, self.q)) if x else 0

    def divmod(self, a: int, b: int) -> tuple[int, int]:
        """(quotient, remainder) of reduced a by reduced b != 0, the one
        GF(q) long division, whose remainder steps `gcd` inlines: each
        quotient term t cancels the leading slot c by adding (q - t) * b,
        shifted under it, and masks that slot off; the remainder is reduced
        once at the end."""
        q, width, masks = self.q, self.width, self.masks
        db = (b.bit_length() - 1) // width
        if db < 0:
            raise InputError("gf division by zero")
        inv = pow(b >> (db * width), -1, q)
        quo = 0
        da = (a.bit_length() - 1) // width
        shift = (da - db) * width
        while shift >= 0:
            c = (a >> (da * width)) % q
            if c:
                t = c * inv % q
                quo |= t << shift
                a += (q - t) * b << shift
            a &= masks[da]
            da -= 1
            shift -= width
        return quo, self.reduce(a)

    def bezout(self, a: int, b: int) -> tuple[int, int]:
        """(s, t) with s*a + t*b = 1 for reduced coprime a and b: extended
        Euclid on `divmod`; InternalInvariantError where they are not coprime."""
        s0, s1, t0, t1 = 1, 0, 0, 1
        while b:
            quo, rem = self.divmod(a, b)
            a, b = b, rem
            s0, s1 = s1, self.sub(s0, self.reduce(quo * s1))
            t0, t1 = t1, self.sub(t0, self.reduce(quo * t1))
        if self.degree(a) != 0:
            raise InternalInvariantError("Bezout cofactors asked of polynomials that are not coprime")
        inv = pow(a, -1, self.q)
        return self.reduce(s0 * inv), self.reduce(t0 * inv)

    def gcd(self, a: int, b: int) -> int:
        """The monic gcd of reduced a and b (zero for two zeros): Euclid with
        `divmod`'s remainder steps inlined, and no quotient kept."""
        q, width, masks = self.q, self.width, self.masks
        while b:
            db = (b.bit_length() - 1) // width
            inv = q - pow(b >> (db * width), -1, q)  # -1 / lc(b)
            da = (a.bit_length() - 1) // width
            shift = (da - db) * width
            while shift >= 0:
                c = (a >> (da * width)) % q
                if c:
                    a += c * inv % q * b << shift
                a &= masks[da]
                da -= 1
                shift -= width
            a, b = b, self.reduce(a)
        return self.monic(a)


class _Ring:
    """GF(q)[x]/(f) on packed residues of degree below n = deg f >= 1, f monic.

    A product r, of degree below 2n, is reduced slotwise and then mod f by
    polynomial Barrett reduction, which is exact over a field: with
    mu = floor(x^(2n-1) / f), the quotient floor(r / f) is
    floor(floor(r / x^n) * mu / x^(n-1)), and r mod f keeps the low n slots
    of r + quotient * (x^n mod f)."""

    __slots__ = ("slots", "n", "top", "mu")

    def __init__(self, slots: _Slots, f: int):
        n = slots.degree(f)
        self.slots, self.n = slots, n
        self.top = slots.sub(0, f & slots.masks[n])  # x^n mod f = -(f - x^n)
        self.mu = slots.divmod(1 << ((2 * n - 1) * slots.width), f)[0]

    def _fold(self, r: int) -> int:
        """r mod f for a reduced r of degree below 2n."""
        slots, n, width = self.slots, self.n, self.slots.width
        quo = slots.reduce((r >> (n * width)) * self.mu) >> ((n - 1) * width)
        return slots.reduce((r + quo * self.top) & slots.masks[n])

    def mulmod(self, a: int, b: int) -> int:
        return self._fold(self.slots.reduce(a * b))

    def power(self, a: int, e: int) -> int:
        """a^e by left-to-right square-and-multiply; the packed 1 at e = 0."""
        if e == 0:
            return 1
        r = a
        for bit in bin(e)[3:]:
            r = self.mulmod(r, r)
            if bit == "1":
                r = self.mulmod(r, a)
        return r

    def x_power(self, e: int) -> int:
        """x^e by squarings alone: from x^j, j the longest prefix of e's bits
        below n, each further bit squares, and a set bit shifts the square
        up one slot (times x) before the one fold."""
        width, rest = self.slots.width, 0
        while e >> rest >= self.n:
            rest += 1
        r = 1 << ((e >> rest) * width)
        for i in range(rest - 1, -1, -1):
            r = self._fold(self.slots.reduce(r * r << ((e >> i) & 1) * width))
        return r


def _distinct_degree_steps(slots: _Slots, f: int) -> Iterator[tuple[int, int]]:
    """(g, d) for d = 1, 2, ... on a packed monic squarefree f: g the packed
    monic product of the irreducible factors of degree d, 1 where there is
    none.  Once 2d exceeds the degree m of the cofactor `work` left, work is
    irreducible, and the last pair is (work, m).  The pairs with g != 1 are
    the distinct-degree split.

    h runs through x^(q^d) mod f.  x^q takes squarings alone
    (`_Ring.x_power`); the other rows x^(iq) mod f of the Frobenius matrix,
    the matrix of h -> h^q = h(x^q) on GF(q)[x]/(f), are built only when
    degree 2 is asked for, so a caller that stops after degree 1 pays for x^q
    alone.  Each later degree is one product of h with the matrix.  h stays
    reduced mod f, not mod the shrinking cofactor: work divides f, so
    gcd(h - x, work) is the same.  On a non-squarefree f the pairs mean
    nothing, but the steps still end.
    """
    n = m = slots.degree(f)
    work, d = f, 0
    while m > 0:
        d += 1
        if 2 * d > m:
            yield work, m
            return
        if d == 1:
            ring = _Ring(slots, work)
            h = ring.x_power(slots.q)
        else:
            if d == 2:
                rows = [1, h]
                while len(rows) < n:
                    rows.append(ring.mulmod(rows[-1], h))
            h = slots.reduce(sum(map(operator.mul, slots.unpack(h, n), rows)))
        g = slots.gcd(slots.sub(h, 1 << slots.width), work)  # gcd(h - x, work)
        if g != 1:
            work = slots.divmod(work, g)[0]
            m = slots.degree(work)
        yield g, d


def _equal_degree_split(slots: _Slots, f: int, d: int, rng: random.Random) -> list[int]:
    """Cantor-Zassenhaus split of a packed monic product of degree-d
    irreducibles, odd q: a^((q^d - 1)/2) mod f on the packed ring."""
    q, n = slots.q, slots.degree(f)
    if n == d:
        return [f]
    ring = _Ring(slots, f)
    while True:
        a = slots.pack([rng.randrange(q) for _ in range(n)])
        if slots.degree(a) < 1:
            continue
        h = slots.gcd(a, f)
        if not 0 < slots.degree(h) < n:
            b = ring.power(a, (q**d - 1) // 2)
            h = slots.gcd(slots.sub(b, 1), f)
            if not 0 < slots.degree(h) < n:
                continue
        other = slots.divmod(f, h)[0]
        return _equal_degree_split(slots, h, d, rng) + _equal_degree_split(slots, other, d, rng)


def gf_factor_squarefree(split: tuple[_Slots, list[tuple[int, int]]]) -> list[int]:
    """The packed monic irreducible factors of p mod q, odd q, in ascending
    degree, in the table of its split (`_good_split`).  The equal-degree
    splits draw from `random.Random(q)`, so the order is the same every run."""
    slots, pairs = split
    rng = random.Random(slots.q)
    return [h for g, d in pairs for h in _equal_degree_split(slots, g, d, rng)]


def _good_split(p: UniPoly, q: int, prefixes: frozenset | None = None) -> tuple[_Slots, list[tuple[int, int]]] | None:
    """The distinct-degree split (slots, [(g, d)]) of p mod q, the pairs of
    `_distinct_degree_steps` with g != 1, where q is good: q does not divide
    lc(p) and p mod q is squarefree, so that by Dedekind the degrees are a
    Frobenius cycle type.  Else None, and, given `prefixes`, None as soon as
    the factor counts (c_1, ..., c_d) of degrees 1..d are none of them.

    p mod q is packed once, into slots = `_Slots(deg p, q)`, which holds the
    pairs too.  The squarefree test is one gcd of the monic f with the
    derivative of p mod q, a unit times f'.  Since the prefixes turn most
    primes down within the first degrees, the test then waits until the
    whole sweep is done (a sweep ends on any f); without them it runs first,
    and saves a bad prime its sweep.
    """
    if p.leading % q == 0:
        return None
    slots = _Slots(p.degree, q)
    residues = [c % q for c in p.coeffs]
    f = slots.monic(slots.pack(residues))

    def squarefree() -> bool:
        return slots.gcd(f, slots.pack([i * c % q for i, c in enumerate(residues)][1:])) == 1

    if prefixes is None:
        if not squarefree():
            return None
        return slots, [(g, d) for g, d in _distinct_degree_steps(slots, f) if g != 1]
    split, counts = [], []
    for g, d in _distinct_degree_steps(slots, f):
        counts += [0] * (d - 1 - len(counts))
        counts.append(slots.degree(g) // d)
        if tuple(counts) not in prefixes:
            return None
        if g != 1:
            split.append((g, d))
    return (slots, split) if squarefree() else None


def _split_degrees(split: tuple[_Slots, list[tuple[int, int]]]) -> tuple[int, ...]:
    """The ascending factor degrees of a distinct-degree split."""
    slots, pairs = split
    return tuple(d for g, d in pairs for _ in range(slots.degree(g) // d))


def degree_multiset_mod(p: UniPoly, q: int) -> tuple[int, ...] | None:
    """Sorted degrees of the irreducible factors of p mod q, or None where
    p mod q is not squarefree (`_good_split`).

    Requires q prime, below 2^32 like every residue the kernel packs (which
    bounds the trial division), and not dividing the leading coefficient.
    """
    if type(q) is not int or q >= 1 << 32 or not is_prime(q):
        raise InputError(f"prime modulus below 2^32 expected, got {q!r}")
    if p.leading % q == 0:
        raise InputError(f"{q} divides the leading coefficient")
    split = _good_split(p, q)
    return None if split is None else _split_degrees(split)


# ---------------------------------------------------------------------------
# Hensel lifting and Zassenhaus recombination


def _lift_pair(moduli: list[int], f, g, h, s, t):
    """Lift f = g*h, s*g + t*h = 1 (mod m), h monic, through each modulus of
    `moduli` in turn, each dividing the square of the one before, by
    quadratic steps; returns g and h.  The last step lifts g and h only,
    since nothing reads its s and t."""
    for m2 in moduli:
        mul = lambda a, b: gf_mul(a, b, m2)
        sub = lambda a, b: gf_sub(a, b, m2)
        add = lambda a, b: gf_add(a, b, m2)
        e = sub(gf_from_int(f, m2), mul(g, h))
        q_, r_ = gf_divmod(mul(s, e), h, m2)
        g = add(add(g, mul(t, e)), mul(q_, g))
        h = add(h, r_)
        if m2 != moduli[-1]:
            b = sub(add(mul(s, g), mul(t, h)), [1])
            c_, d_ = gf_divmod(mul(s, b), h, m2)
            s = sub(s, d_)
            t = sub(sub(t, mul(t, b)), mul(c_, g))
    return g, h


def hensel_lift(slots: _Slots, target: int, f: list[int], factors: list[int]) -> tuple[list[list[int]], int]:
    """Lift f = lc(f) * prod(factors) from mod q = slots.q to mod M >= target:
    the monic lifts, as lists in the factors' order, and M = the least q**e
    >= target.  The factors are packed in `slots`, monic and pairwise coprime.
    The lift climbs the exponent chain ceil(e / 2**k), so each step's modulus
    divides the square of the one before and the last stops at q**e, where
    squaring the modulus every step could overshoot the target by its square.

    `recurse` splits the factors where their degrees come closest to halves:
    given them in ascending degree (`gf_factor_squarefree`), a part of two or
    more has at most 2/3 of its node's degree, so the depth is O(log deg f).
    A node forms lc * the left product, the right product and their Bezout
    cofactors in `slots` (degrees at most deg f) and unpacks those four."""
    q = slots.q
    e, modulus = 1, q
    while modulus < target:
        e, modulus = e + 1, modulus * q
    exponents = []
    while e > 1:
        exponents.append(e)
        e = (e + 1) // 2
    moduli = [q**k for k in reversed(exponents)]

    def recurse(f: list[int], facs: list[int]) -> list[list[int]]:
        if len(facs) == 1:
            return [gf_monic(f, modulus)]
        ends = list(itertools.accumulate(map(slots.degree, facs)))
        half = min(range(1, len(facs)), key=lambda i: abs(2 * ends[i - 1] - ends[-1]))
        g0, h0 = f[-1] % q, 1
        for fac in facs[:half]:
            g0 = slots.reduce(g0 * fac)
        for fac in facs[half:]:
            h0 = slots.reduce(h0 * fac)
        s, t = slots.bezout(g0, h0)
        g, h = _lift_pair(moduli, f, *map(slots.to_list, (g0, h0, s, t)))
        return recurse(g, facs[:half]) + recurse(h, facs[half:])

    return recurse(gf_from_int(f, modulus), factors), modulus


def _mignotte_bound(f: UniPoly) -> int:
    norm = math.isqrt((f.degree + 1) * sum(c * c for c in f.coeffs)) + 1
    return (1 << f.degree) * norm * abs(f.leading)


def _choose_factoring_prime(f: UniPoly) -> tuple[_Slots, list[int]]:
    """The table of the prime to factor f at, with the packed monic factors
    of f mod that prime in it.

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
    split = min(candidates, key=lambda c: c[:2])[2]
    return split[0], gf_factor_squarefree(split)


def factor_squarefree_primitive(f: UniPoly) -> list[UniPoly]:
    """Irreducible factors of a primitive squarefree polynomial with positive lc."""
    slots, modular = _choose_factoring_prime(f)
    if len(modular) == 1:
        return [f]
    bound = 2 * _mignotte_bound(f) + 1
    lifted, modulus = hensel_lift(slots, bound, list(f.coeffs), modular)
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
            cand_int = UniPoly._of([_mod_sym(c, modulus) for c in cand]).normalized()
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
    if type(bound) is not int:
        raise InputError(f"integer bound expected, got {bound!r}")
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return list(itertools.compress(range(bound + 1), sieve))
