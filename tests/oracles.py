"""Exhaustive oracles the tests check rigicert's fast routines against.

Each scans every vertex subset, edge set or prime directly.  None of them is
used by the package itself.
"""

from __future__ import annotations

import itertools

from rigicert.algebra.multipoly import MultiPoly
from rigicert.algebra.solubility import CycleTypeReport
from rigicert.algebra.unipoly import UniPoly, degree_multiset_mod, poly_gcd, primes_up_to
from rigicert.errors import DegenerateInputError, InputError, UnsupportedSizeError
from rigicert.graph import Graph, canonical_form


def _subset_edge_counts(g: Graph, min_size: int, max_size: int):
    """(subset, edge count of the induced subgraph) for every vertex subset
    of the given sizes, by bit counting over the adjacency."""
    verts = g.sorted_vertices()
    index = {v: i for i, v in enumerate(verts)}
    adj_bits = {v: 0 for v in verts}
    for u, v in g.edges:
        adj_bits[u] |= 1 << index[v]
        adj_bits[v] |= 1 << index[u]
    for size in range(min_size, max_size + 1):
        for subset in itertools.combinations(verts, size):
            mask = 0
            for v in subset:
                mask |= 1 << index[v]
            yield subset, sum((adj_bits[v] & mask).bit_count() for v in subset) // 2


def is_independent_exhaustive(g: Graph) -> bool:
    """Brute-force independence over all vertex subsets; induced subgraphs
    suffice because dropping edges only raises 2n - e."""
    return all(2 * len(subset) - e >= 3 for subset, e in _subset_edge_counts(g, 2, g.n))


def mi_subgraphs_exhaustive(g: Graph) -> list[frozenset[int]]:
    """Vertex sets of every proper induced subgraph (>= 3 vertices) with
    freedom 0.  For an independent graph these are exactly its maximally
    independent proper subgraphs: a non-induced one would force the induced
    closure below 0."""
    return [
        frozenset(subset)
        for subset, e in _subset_edge_counts(g, 3, g.n - 1)
        if 2 * len(subset) - e - 3 == 0
    ]


def containment_maximal(family: list[frozenset[int]]) -> list[frozenset[int]]:
    """The members of `family` inside no other member, ordered by their
    ascending vertex lists."""
    return sorted((w for w in family if not any(w < other for other in family)), key=sorted)


def enumerate_laman_exhaustive(n: int) -> set[bytes]:
    """Independent census oracle: scan every edge set of size 2n-3 directly.

    Uses the exhaustive subgraph independence check, not the pebble game, so
    the two census routes share no code path.
    """
    if n < 3 or n > 6:
        raise UnsupportedSizeError("exhaustive census oracle supports 3 <= n <= 6")
    verts = list(range(n))
    all_edges = list(itertools.combinations(verts, 2))
    found: set[bytes] = set()
    for chosen in itertools.combinations(all_edges, 2 * n - 3):
        g = Graph(verts, chosen)
        if any(g.degree(v) == 0 for v in verts):
            continue
        if is_independent_exhaustive(g):
            found.add(canonical_form(g))
    return found


def sylvester_matrix(f: MultiPoly, g: MultiPoly, var: str) -> list[list[MultiPoly]]:
    """The (deg f + deg g) Sylvester matrix in `var`, f-rows first."""

    def coefficients(p: MultiPoly) -> list[MultiPoly]:
        coeffs = p.coefficients_in(var)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        return coeffs

    a, b = coefficients(f), coefficients(g)
    da, db = len(a) - 1, len(b) - 1
    if da < 1 and db < 1:
        raise DegenerateInputError(f"neither polynomial involves {var!r}")
    n = da + db
    zero = MultiPoly.zero(f.variables)
    rows = []
    for i in range(db):
        row = [zero] * n
        for j, c in enumerate(reversed(a)):
            row[i + j] = c
        rows.append(row)
    for i in range(da):
        row = [zero] * n
        for j, c in enumerate(reversed(b)):
            row[i + j] = c
        rows.append(row)
    return rows


def poly_is_not_squarefree(p: UniPoly) -> bool:
    return poly_gcd(p, p.derivative()).degree > 0


def frobenius_cycle_types(p: UniPoly, prime_bound: int) -> tuple[list[CycleTypeReport], list[int]]:
    """Degree multisets of p modulo every prime up to the bound.

    Primes dividing the leading coefficient are skipped and returned in the
    second list; primes where the reduction is not squarefree stay in the
    report with the flag down (their types are not Frobenius cycle types).
    """
    if p.is_zero() or p.degree < 1:
        raise InputError("cycle types need a nonconstant polynomial")
    if poly_is_not_squarefree(p):
        raise InputError("polynomial must be squarefree over the rationals")
    reports, skipped = [], []
    for q in primes_up_to(prime_bound):
        if p.leading % q == 0:
            skipped.append(q)
            continue
        reports.append(CycleTypeReport(q, *degree_multiset_mod(p, q)))
    return reports, skipped
