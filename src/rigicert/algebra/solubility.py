"""Cycle-type sieving for non-solubility certificates.

Factorization degree patterns of an integer polynomial modulo good primes are
cycle types of elements of its Galois group (Dedekind).  A prime q is good when
it does not divide the leading coefficient and p mod q is squarefree; the
sieve reads only those reductions, through `unipoly._good_split`, the one
reader of p mod q, which factoring uses too; its packed split is read here
only by `unipoly._split_degrees`.  Three sound rules can refute solubility of
a transitive group from observed cycle types:

  jordan_prime_cycle   a p-cycle with n/2 < p <= n-3, p prime: the group is
                       primitive and contains the alternating group.
  burnside_two_transitive   an (n-1)-cycle makes the group 2-transitive, and
                       soluble 2-transitive groups have prime-power degree.
  max_soluble_table    the type occurs in none of the maximal soluble
                       transitive groups of degree n (enumerated explicitly
                       for n = 6 and 8: the two imprimitive wreath products
                       per degree, plus the affine semilinear group AGL(1,8)
                       twisted by Frobenius at degree 8).

The sieve asks each prime only what a rule can answer.  Once per degree it
collects the count prefixes (c_1, ..., c_d) of the cycle types that meet a
rule, c_i the number of i-cycles; outside the two table degrees only types
with one nontrivial cycle can meet one, so that takes n - 1 types, not every
partition of n.  `_good_split` stops the distinct-degree sweep of a prime as
soon as the factor counts found so far are no such prefix; at degree 16 that
is after degree 1 for most primes, since c_1 must be 3 or 5.  Only a prime
that gets through the whole sweep is tested for a squarefree reduction.  At
degrees 2, 3, 4, 5 and 7 no cycle type meets any rule, so the certificate
ends INCONCLUSIVE at once there, without scanning a prime.  Prime bounds
that are not ints, or lie above MAX_PRIME_BOUND or below 2, are refused with
InputError, once per request, before anything is factored.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator, Sequence

from ..errors import InputError
from .unipoly import UniPoly, _good_split, _split_degrees, factor_over_q, is_prime, primes_up_to

Permutation = tuple[int, ...]

#: Largest prime bound a certificate accepts: the sieve of primes up to the
#: bound takes one byte per integer, and the GF(q) kernel needs deg * q^2 < 2^63.
MAX_PRIME_BOUND = 10**6


def _compose(a: Permutation, b: Permutation) -> Permutation:
    """Apply b first, then a."""
    return tuple(a[b[i]] for i in range(len(a)))


def _closure(generators: Sequence[Permutation]) -> frozenset[Permutation]:
    n = len(generators[0])
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for g in frontier:
            for gen in generators:
                h = _compose(gen, g)
                if h not in seen:
                    seen.add(h)
                    new.append(h)
        frontier = new
    return frozenset(seen)


def cycle_type(perm: Permutation) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = perm[v]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


def _cycles_to_perm(n: int, cycles: Sequence[Sequence[int]]) -> Permutation:
    perm = list(range(n))
    for cyc in cycles:
        for i, v in enumerate(cyc):
            perm[v] = cyc[(i + 1) % len(cyc)]
    return tuple(perm)


def _wreath_generators(block_size: int, block_count: int) -> list[Permutation]:
    """S_{block_size} wr S_{block_count} acting imprimitively on their product."""
    n = block_size * block_count
    gens = [
        _cycles_to_perm(n, [(0, 1)]),  # transposition inside the first block
        _cycles_to_perm(n, [tuple(range(block_size))]),  # cycle inside the first block
        _cycles_to_perm(n, [(i, i + block_size) for i in range(block_size)]),  # swap blocks 0,1
        _cycles_to_perm(
            n,
            [tuple(i + j * block_size for j in range(block_count)) for i in range(block_size)],
        ),  # rotate all blocks
    ]
    return gens


def _agl18_elements() -> frozenset[Permutation]:
    """AGammaL(1,8): maps x -> a * x^(2^k) + b over GF(8); order 168."""
    # GF(8) as integers 0..7 with polynomial arithmetic mod t^3 + t + 1
    def mul(a: int, b: int) -> int:
        out = 0
        for bit in range(3):
            if (b >> bit) & 1:
                out ^= a << bit
        for bit in (5, 4, 3):
            if (out >> bit) & 1:
                out ^= (0b1011) << (bit - 3)
        return out

    def frob(a: int, k: int) -> int:
        for _ in range(k):
            a = mul(a, a)
        return a

    elems = set()
    for a in range(1, 8):
        for b in range(8):
            for k in range(3):
                elems.add(tuple(mul(a, frob(x, k)) ^ b for x in range(8)))
    return frozenset(elems)


@lru_cache(maxsize=None)
def maximal_soluble_transitive_groups(degree: int) -> tuple[tuple[str, int, frozenset[Permutation]], ...]:
    """(name, expected order, elements) for each maximal soluble transitive
    group of the given degree, up to conjugacy."""
    if degree == 6:
        return (
            ("S2_wr_S3", 48, _closure(_wreath_generators(2, 3))),
            ("S3_wr_S2", 72, _closure(_wreath_generators(3, 2))),
        )
    if degree == 8:
        return (
            ("S2_wr_S4", 384, _closure(_wreath_generators(2, 4))),
            ("S4_wr_S2", 1152, _closure(_wreath_generators(4, 2))),
            ("AGammaL_1_8", 168, _agl18_elements()),
        )
    raise InputError(f"no maximal-soluble-group table for degree {degree}")


@lru_cache(maxsize=None)
def soluble_cycle_types(degree: int) -> frozenset[tuple[int, ...]]:
    """Every cycle type realized by some maximal soluble transitive group."""
    types: set[tuple[int, ...]] = set()
    for _, order, elements in maximal_soluble_transitive_groups(degree):
        if len(elements) != order:
            raise InputError(f"group table for degree {degree} has wrong order")
        types.update(cycle_type(p) for p in elements)
    return frozenset(types)


def _is_prime_power(n: int) -> bool:
    """Whether n >= 2 is a power of its least divisor above 1, a prime."""
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return n == 1


RULE_JORDAN = "jordan_prime_cycle"
RULE_BURNSIDE = "burnside_two_transitive"
RULE_TABLE = "max_soluble_table"


def rules_for_degree(n: int) -> list[str]:
    rules = [RULE_JORDAN, RULE_BURNSIDE]
    if n in (6, 8):
        rules.append(RULE_TABLE)
    return rules


def _rule_hit(multiset: tuple[int, ...], n: int) -> str | None:
    nontrivial = [d for d in multiset if d > 1]
    if len(nontrivial) == 1:
        p = nontrivial[0]
        if is_prime(p) and 2 * p > n and p <= n - 3:
            return RULE_JORDAN
    if nontrivial == [n - 1] and not _is_prime_power(n):
        return RULE_BURNSIDE
    if n in (6, 8) and multiset not in soluble_cycle_types(n):
        return RULE_TABLE
    return None


class SolubilityVerdict(Enum):
    NOT_SOLUBLE = "NOT_SOLUBLE"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class SolubilityCertificate:
    polynomial: UniPoly
    verdict: SolubilityVerdict
    witness: tuple[int, tuple[int, ...], str] | None
    rules_checked: tuple[str, ...]
    prime_bound: int


def _partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Every partition of n as an ascending tuple, the cycle types of S_n;
    the one partition of 0 is ().

    Walks the parts in descending order: take one from the last part above
    1 and refill the tail with parts of that size."""
    parts = [n] if n else []
    while True:
        yield tuple(reversed(parts))
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        parts[-1] -= 1
        size, rest = parts[-1], ones + 1
        while rest > size:
            parts.append(size)
            rest -= size
        parts.append(rest)


@lru_cache(maxsize=None)
def _rule_prefixes(n: int) -> frozenset[tuple[int, ...]]:
    """Every count prefix (c_1, ..., c_d), 1 <= d <= n, of a cycle type of
    degree n that meets a rule, c_i its number of i-cycles.  Empty where no
    type meets a rule: then no prime can give a witness.

    The Jordan and Burnside rules each ask for exactly one nontrivial cycle,
    so only the table rule can meet a type with more.  Without a table the
    candidates are the n - 1 types (1^(n-k), k), 2 <= k <= n, instead of
    every partition of n, whose number grows exponentially."""
    if RULE_TABLE in rules_for_degree(n):
        types = _partitions(n)
    else:
        types = ((1,) * (n - k) + (k,) for k in range(2, n + 1))
    prefixes: set[tuple[int, ...]] = set()
    for t in types:
        if _rule_hit(t, n) is not None:
            counts = tuple(t.count(i) for i in range(1, n + 1))
            prefixes.update(counts[:d] for d in range(1, n + 1))
    return frozenset(prefixes)


def nonsolubility_certificate(p: UniPoly, prime_bound: int = 10000) -> SolubilityCertificate:
    """Refute solubility of the Galois group of an irreducible polynomial, or
    report INCONCLUSIVE.  Sound: never NOT_SOLUBLE for a soluble group."""
    _check_prime_bound(prime_bound)
    factors = factor_over_q(p)
    if len(factors) != 1 or factors[0][1] != 1:
        raise InputError("polynomial is reducible; factor first and certify the pieces")
    return _certificate(p, prime_bound, primes_up_to(prime_bound))


def _check_prime_bound(prime_bound: int) -> None:
    """Refuse a prime bound that is not an int in [2, MAX_PRIME_BOUND];
    callers check it before any elimination or factoring, which the bound
    cannot change."""
    if type(prime_bound) is not int:
        raise InputError(f"integer prime bound expected, got {prime_bound!r}")
    if prime_bound > MAX_PRIME_BOUND:
        raise InputError(f"prime bound {prime_bound} exceeds the limit {MAX_PRIME_BOUND}")
    if prime_bound < 2:
        raise InputError(f"prime bound {prime_bound} is below 2, the least prime")


def _certificate(p: UniPoly, prime_bound: int, primes: list[int]) -> SolubilityCertificate:
    """`nonsolubility_certificate` of a p the caller knows to be irreducible,
    such as a factor from `factor_over_q`; p is not factored again.  The
    caller checks the bound and passes `primes_up_to(prime_bound)`, once for
    all the factors it certifies."""
    p = p.normalized()
    n = p.degree
    rules = tuple(rules_for_degree(n))
    prefixes = _rule_prefixes(n)
    if prefixes:
        for q in primes:
            split = _good_split(p, q, prefixes)
            if split is not None:
                multiset = _split_degrees(split)
                witness = (q, multiset, _rule_hit(multiset, n))
                return SolubilityCertificate(p, SolubilityVerdict.NOT_SOLUBLE, witness, rules, prime_bound)
    return SolubilityCertificate(p, SolubilityVerdict.INCONCLUSIVE, None, rules, prime_bound)
