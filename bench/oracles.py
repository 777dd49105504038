"""Reference computations that share no code with rigicert.

Standard library only.  Graphs are given as a vertex list and an edge list of
label pairs; polynomials as ascending integer coefficient lists.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache


# ---------------------------------------------------------------------------
# graphs


def _masks(vertices, edges) -> list[int]:
    index = {v: i for i, v in enumerate(sorted(vertices))}
    adj = [0] * len(index)
    for u, v in edges:
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    return adj


def laman_basic(vertices, edges) -> tuple[bool, bool]:
    """(Laman, basic) by scanning every vertex subset.

    Laman: e = 2n - 3 and every subset S with |S| >= 2 spans at most 2|S| - 3
    edges.  Basic: Laman and no proper subset with |S| >= 3 spans exactly
    2|S| - 3.  Exponential; fine up to about 16 vertices.
    """
    adj = _masks(vertices, edges)
    n = len(adj)
    if len(edges) != 2 * n - 3:
        return False, False
    full = (1 << n) - 1
    span = [0] * (1 << n)
    size = [0] * (1 << n)
    basic = True
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        span[mask] = span[rest] + (adj[low] & rest).bit_count()
        size[mask] = size[rest] + 1
        k = size[mask]
        if k >= 2 and span[mask] > 2 * k - 3:
            return False, False
        if 3 <= k and mask != full and span[mask] == 2 * k - 3:
            basic = False
    return True, basic


def _connected_without(adj: list[int], removed: int) -> bool:
    alive = ((1 << len(adj)) - 1) & ~removed
    if alive == 0:
        return True
    seen = alive & -alive
    frontier = seen
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = adj[low.bit_length() - 1] & alive & ~seen
        seen |= new
        frontier |= new
    return seen == alive


def is_three_connected(vertices, edges) -> bool:
    """More than 3 vertices and no vertex pair whose removal disconnects the rest."""
    adj = _masks(vertices, edges)
    n = len(adj)
    if n <= 3:
        return False
    return all(
        _connected_without(adj, (1 << i) | (1 << j))
        for i in range(n)
        for j in range(i + 1, n)
    )


def construction_base(vertices, edges):
    """The first edge (ascending) from which repeatedly stripping a degree-2
    vertex outside the edge leaves exactly that edge, with the strip order
    reversed into placement triples (vertex, anchor, anchor); else None."""
    for base in sorted(edges):
        nbrs = {v: set() for v in vertices}
        for u, v in edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        order = []
        while len(nbrs) > 2:
            v = next((w for w in sorted(nbrs) if w not in base and len(nbrs[w]) == 2), None)
            if v is None:
                break
            a, b = sorted(nbrs.pop(v))
            nbrs[a].discard(v)
            nbrs[b].discard(v)
            order.append((v, a, b))
        if len(nbrs) == 2 and nbrs[base[0]] == {base[1]}:
            return tuple(base), order[::-1]
    return None


# ---------------------------------------------------------------------------
# integer polynomials


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_eval(coeffs: list[int], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def same_up_to_scalar(a: list[int], b: list[int]) -> bool:
    """a and b are rational multiples of each other (and both nonzero)."""
    if len(a) != len(b) or not a or a[-1] == 0 or b[-1] == 0:
        return False
    return all(x * b[-1] == y * a[-1] for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# GF(p)[x], p an odd prime; lists are ascending and carry no leading zeros


def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _mod(a: list[int], f: list[int], p: int) -> list[int]:
    a = [c % p for c in a]
    inv = pow(f[-1], -1, p)
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i] * inv % p
        if c:
            for j in range(df + 1):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
    return _trim(a[:df])


def _mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    return _mod(poly_mul(a, b), f, p)


def _powmod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = _mod(base, f, p)
    while e:
        if e & 1:
            result = _mulmod(result, base, f, p)
        base = _mulmod(base, base, f, p)
        e >>= 1
    return result


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
    while b:
        a, b = b, _mod(a, b, p)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _div(a: list[int], b: list[int], p: int) -> list[int]:
    a = [c % p for c in a]
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv % p
        q[i - db] = c
        if c:
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    return _trim(q)


def gf_degree_multiset(coeffs: list[int], p: int) -> tuple[tuple[int, ...], bool]:
    """Irreducible factor degrees of coeffs mod p by distinct-degree
    factorization, and whether coeffs stays squarefree mod p.  The degrees
    are only returned for the squarefree case (empty tuple otherwise)."""
    f = _trim([c % p for c in coeffs])
    if len(f) != len(coeffs):
        raise ValueError(f"{p} divides the leading coefficient")
    derivative = _trim([(i * c) % p for i, c in enumerate(f)][1:])
    if len(_gcd(f, derivative, p)) > 1:
        return (), False
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    degrees: list[int] = []
    h = [0, 1]
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, f, p)
        x_minus = h + [0] * (2 - len(h))  # h - x
        x_minus[1] = (x_minus[1] - 1) % p
        x_minus = _trim(x_minus)
        g = _gcd(f, x_minus, p) if x_minus else list(f)
        if len(g) > 1:
            degrees.extend([d] * ((len(g) - 1) // d))
            f = _div(f, g, p)
            h = _mod(h, f, p) if len(f) > 1 else []
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return tuple(sorted(degrees)), True


# ---------------------------------------------------------------------------
# solubility rules, from the degree multiset of a Frobenius element


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def primes_up_to(bound: int) -> list[int]:
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\0\0"
    for d in range(2, int(bound**0.5) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytearray(len(sieve[d * d :: d]))
    return [q for q in range(bound + 1) if sieve[q]]


def _is_prime_power(n: int) -> bool:
    q = next(d for d in range(2, n + 1) if n % d == 0)
    while n % q == 0:
        n //= q
    return n == 1


@lru_cache(maxsize=None)
def partitions(n: int, largest: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Partitions of n as ascending tuples, parts at most `largest`."""
    if n == 0:
        return ((),)
    top = n if largest is None else min(n, largest)
    return tuple(rest + (k,) for k in range(top, 0, -1) for rest in partitions(n - k, k))


def _wreath_cycle_types(a: int, b: int) -> set[tuple[int, ...]]:
    """Cycle types of S_a wr S_b on a*b points: a k-cycle of the blocks whose
    k-th power acts on one block with type lambda gives cycles k*lambda_i."""
    types = set()
    for blocks in partitions(b):
        for inner in itertools.product(partitions(a), repeat=len(blocks)):
            types.add(tuple(sorted(k * part for k, lam in zip(blocks, inner) for part in lam)))
    return types


def _agaml18_cycle_types() -> set[tuple[int, ...]]:
    """Cycle types of x -> a * x^(2^k) + b over GF(8) = GF(2)[t]/(t^3+t^2+1)."""

    def mul(x: int, y: int) -> int:
        out = 0
        for bit in range(3):
            if (y >> bit) & 1:
                out ^= x << bit
        for bit in (4, 3):
            if (out >> bit) & 1:
                out ^= 0b1101 << (bit - 3)
        return out

    types = set()
    for a, b, k in itertools.product(range(1, 8), range(8), range(3)):
        image = []
        for x in range(8):
            for _ in range(k):
                x = mul(x, x)
            image.append(mul(a, x) ^ b)
        seen, lengths = set(), []
        for start in range(8):
            length, x = 0, start
            while x not in seen:
                seen.add(x)
                x, length = image[x], length + 1
            if length:
                lengths.append(length)
        types.add(tuple(sorted(lengths)))
    return types


#: Cycle types of the soluble transitive groups of degree 6 and 8: every one
#: lies in an imprimitive wreath product, or at degree 8 in AGammaL(1,8) (the
#: soluble primitive groups of degree 6 are none, of degree 8 AGL(1,8) and
#: AGammaL(1,8)).
SOLUBLE_CYCLE_TYPES = {
    6: frozenset(_wreath_cycle_types(2, 3) | _wreath_cycle_types(3, 2)),
    8: frozenset(_wreath_cycle_types(2, 4) | _wreath_cycle_types(4, 2) | _agaml18_cycle_types()),
}


def refuting_rules(multiset: tuple[int, ...], n: int) -> set[str]:
    """The rules by which a Frobenius element with this degree multiset rules
    out a soluble Galois group for an irreducible polynomial of degree n."""
    rules = set()
    nontrivial = [d for d in multiset if d > 1]
    if len(nontrivial) == 1 and is_prime(nontrivial[0]) and n < 2 * nontrivial[0] <= 2 * (n - 3):
        rules.add("jordan_prime_cycle")  # a p-cycle, n/2 < p <= n-3: contains A_n
    if sorted(multiset) == [1, n - 1] and not _is_prime_power(n):
        rules.add("burnside_two_transitive")  # soluble 2-transitive groups have prime-power degree
    if n in SOLUBLE_CYCLE_TYPES and tuple(sorted(multiset)) not in SOLUBLE_CYCLE_TYPES[n]:
        rules.add("max_soluble_table")
    return rules


@lru_cache(maxsize=None)
def refutable_degree(n: int) -> bool:
    """Whether any degree multiset can refute solubility at degree n."""
    return any(refuting_rules(m, n) for m in partitions(n))


def first_refuting_prime(coeffs: list[int], bound: int) -> int | None:
    """The first prime up to the bound whose squarefree reduction refutes
    solubility, skipping primes that divide the leading coefficient."""
    for q in primes_up_to(bound):
        if coeffs[-1] % q == 0:
            continue
        multiset, squarefree = gf_degree_multiset(coeffs, q)
        if squarefree and refuting_rules(multiset, len(coeffs) - 1):
            return q
    return None
