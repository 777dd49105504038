"""Laman-graph predicates, subgraph surgery, and exhaustive small-order censuses.

The fast independence test is a (2,3) pebble game; an exhaustive subgraph
oracle is kept alongside for cross-checks at small orders.  All operations are
pure functions over immutable graphs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import InputError, InternalInvariantError, UnsupportedSizeError
from .graph import (
    Edge,
    Graph,
    canonical_form,
    contract_edge,
    edge,
    freedom_number,
    induced_subgraph,
    is_m_connected,
)


def _pebble_accepts(g: Graph, edges: list[Edge]) -> bool:
    """Run the (2,3) pebble game, inserting `edges` in order.

    Returns False as soon as an edge cannot gather 4 pebbles on its endpoints,
    i.e. the edge set is not (2,3)-sparse.
    """
    pebbles = {v: 2 for v in g.vertices}
    out: dict[int, set[int]] = {v: set() for v in g.vertices}

    def take_pebble(root: int, protected: tuple[int, int]) -> bool:
        # DFS along the orientation for a vertex with a spare pebble; reverse
        # the path to bring the pebble to `root`.  Ascending-label tie-break.
        seen = {root}
        parent: dict[int, int] = {}
        stack = [root]
        found = None
        while stack:
            v = stack.pop()
            if v != root and pebbles[v] > 0 and v not in protected:
                found = v
                break
            for w in sorted(out[v], reverse=True):
                if w not in seen:
                    seen.add(w)
                    parent[w] = v
                    stack.append(w)
        if found is None:
            return False
        v = found
        pebbles[v] -= 1
        while v != root:
            p = parent[v]
            out[v].add(p)
            out[p].discard(v)
            v = p
        pebbles[root] += 1
        return True

    for u, v in edges:
        while pebbles[u] + pebbles[v] < 4:
            if not take_pebble(u, (u, v)) and not take_pebble(v, (u, v)):
                return False
        pebbles[u] -= 1
        out[u].add(v)
    return True


def is_independent(g: Graph) -> bool:
    """True iff every subgraph on n vertices with e edges has 2n - e >= 3."""
    return _pebble_accepts(g, g.sorted_edges())


def is_independent_exhaustive(g: Graph) -> bool:
    """Brute-force oracle over all vertex subsets; induced subgraphs suffice
    because dropping edges only raises 2n - e."""
    verts = g.sorted_vertices()
    adj_bits = {v: 0 for v in verts}
    index = {v: i for i, v in enumerate(verts)}
    for u, v in g.edges:
        adj_bits[u] |= 1 << index[v]
        adj_bits[v] |= 1 << index[u]
    for size in range(2, g.n + 1):
        for subset in itertools.combinations(verts, size):
            mask = 0
            for v in subset:
                mask |= 1 << index[v]
            e_count = sum((adj_bits[v] & mask).bit_count() for v in subset) // 2
            if 2 * size - e_count < 3:
                return False
    return True


def is_laman(g: Graph) -> bool:
    return freedom_number(g) == 0 and is_independent(g)


def _zero_freedom_proper_subsets(g: Graph):
    """Vertex sets of proper induced subgraphs (>= 3 vertices) with freedom 0.

    For an independent graph these are exactly the maximally independent
    proper subgraphs: a non-induced subgraph with freedom 0 would force the
    induced closure below 0.
    """
    verts = g.sorted_vertices()
    for size in range(3, g.n):
        for subset in itertools.combinations(verts, size):
            sub = induced_subgraph(g, subset)
            if freedom_number(sub) == 0:
                yield frozenset(subset), sub


def is_basic(g: Graph) -> bool:
    """Laman with no proper subgraph (>= 3 vertices) of freedom number 0."""
    if not is_laman(g):
        return False
    for _ in _zero_freedom_proper_subsets(g):
        return False
    return True


def internal_vertices(g: Graph, subset: frozenset[int]) -> frozenset[int]:
    """Vertices of the induced subgraph on `subset` with no neighbour outside."""
    return frozenset(v for v in subset if g.neighbors(v) <= subset)


def attachment_vertices(g: Graph, subset: frozenset[int]) -> list[int]:
    """Vertices of `subset` adjacent to the rest of the graph, ascending."""
    return sorted(v for v in subset if not g.neighbors(v) <= subset)


def mi_proper_subgraphs(g: Graph) -> list[frozenset[int]]:
    """Vertex sets of all maximally independent proper subgraphs of a Laman graph."""
    return [subset for subset, _ in _zero_freedom_proper_subsets(g)]


def maximal_mi_subgraph(g: Graph, prefer_internal: bool = True) -> Graph | None:
    """A containment-maximal maximally independent proper subgraph, or None.

    Returns None exactly when the graph is basic.  With prefer_internal, if
    any candidate has an internal vertex the returned one does too (needed by
    the reduction engine's surgery step).  Qualifying ties break by smallest
    canonical form, then by vertex tuple.
    """
    if not is_laman(g):
        raise InputError("maximal MI subgraphs are defined for Laman graphs")
    candidates = mi_proper_subgraphs(g)
    if not candidates:
        return None
    maximal = [
        w for w in candidates
        if not any(w < other for other in candidates)
    ]
    if prefer_internal and any(internal_vertices(g, w) for w in candidates):
        maximal = [w for w in maximal if internal_vertices(g, w)]
        if not maximal:
            raise InternalInvariantError(
                "an internal-vertex MI subgraph has no maximal extension with one"
            )
    graphs = [induced_subgraph(g, w) for w in maximal]
    graphs.sort(key=lambda h: (canonical_form(h), tuple(h.sorted_vertices())))
    return graphs[0]


def triangles_through(g: Graph, e: Edge) -> list[int]:
    """Common neighbours of the endpoints (apexes of 3-cycles through e)."""
    u, v = edge(*e)
    return sorted(g.neighbors(u) & g.neighbors(v))


def is_contractible(g: Graph, e: Edge) -> bool:
    """True iff G/e is again Laman; requires e to sit in exactly one 3-cycle."""
    e = edge(*e)
    if not is_laman(g):
        raise InputError("contractibility is defined for Laman graphs")
    if e not in g.edges:
        raise InputError(f"edge {e} not in the graph")
    if len(triangles_through(g, e)) != 1:
        return False
    return is_laman(contract_edge(g, e))


@dataclass(frozen=True)
class SurgerySpec:
    """Replacement of a maximally independent subgraph by an attachment fan."""

    target: Graph
    replaced_subgraph: Graph
    attachment_vertices: tuple[int, ...]


def make_surgery_spec(g: Graph, replaced: Graph) -> SurgerySpec:
    """Build a spec with the attachment vertices in ascending label order."""
    return SurgerySpec(g, replaced, tuple(attachment_vertices(g, replaced.vertices)))


def fan_edges(cycle: tuple[int, ...]) -> list[Edge]:
    """Cycle c1..cm..c1 plus the chords (c1,c3)..(c1,c{m-1}): 2m-3 edges."""
    m = len(cycle)
    es = [edge(cycle[i], cycle[(i + 1) % m]) for i in range(m)]
    es += [edge(cycle[0], cycle[i]) for i in range(2, m - 1)]
    return es


def surgery(spec: SurgerySpec) -> Graph:
    """Strip a maximally independent subgraph and fan-triangulate its
    attachment vertices.  Every precondition failure is named."""
    g, r = spec.target, spec.replaced_subgraph
    if not r.vertices <= g.vertices:
        raise InputError("replaced subgraph is not inside the target")
    if induced_subgraph(g, r.vertices) != r:
        raise InputError("replaced subgraph must be vertex induced")
    if not (3 <= r.n and r.vertices < g.vertices):
        raise InputError("replaced subgraph must be proper with at least 3 vertices")
    if not is_laman(r):
        raise InputError("replaced subgraph must be maximally independent")
    if not is_laman(g):
        raise InputError("target must be maximally independent")
    if not is_m_connected(g, 3):
        raise InputError("target must be 3-connected")
    cycle = spec.attachment_vertices
    if sorted(cycle) != attachment_vertices(g, r.vertices):
        raise InputError("attachment vertices do not match the replaced subgraph")
    if len(cycle) < 3:
        raise InputError("surgery needs at least 3 attachment vertices")
    internal = internal_vertices(g, r.vertices)
    vertices = g.vertices - internal
    edges = (g.edges - r.edges) | set(fan_edges(cycle))
    return Graph(vertices, edges)


@dataclass(frozen=True)
class CensusResult:
    vertex_count: int
    laman_canonical_forms: tuple[bytes, ...]
    basic_canonical_forms: tuple[bytes, ...]
    representatives: tuple[Graph, ...]

    @property
    def laman_count(self) -> int:
        return len(self.laman_canonical_forms)

    @property
    def basic_count(self) -> int:
        return len(self.basic_canonical_forms)

    def representative(self, form: bytes) -> Graph:
        return self.representatives[self.laman_canonical_forms.index(form)]


_CENSUS_RANGE = (3, 8)


def henneberg_children(g: Graph, rng: random.Random | None = None) -> list[Graph]:
    """All one-vertex Henneberg extensions of a Laman graph.

    Move I adds a degree-2 vertex; move II splits an edge with a new degree-3
    vertex.  Both preserve the Laman property.
    """
    new = max(g.vertices) + 1
    children = []
    for u, v in itertools.combinations(g.sorted_vertices(), 2):
        children.append(Graph(g.vertices | {new}, g.edges | {edge(u, new), edge(v, new)}))
    for u, v in g.sorted_edges():
        for z in g.sorted_vertices():
            if z in (u, v):
                continue
            children.append(
                Graph(
                    g.vertices | {new},
                    (g.edges - {edge(u, v)}) | {edge(u, new), edge(v, new), edge(z, new)},
                )
            )
    if rng is not None:
        rng.shuffle(children)
    return children


def enumerate_laman(n: int, rng: random.Random | None = None) -> CensusResult:
    """All Laman graphs on n vertices up to isomorphism, by Henneberg closure.

    The optional rng only shuffles expansion order; the canonical result set
    is order-independent.
    """
    lo, hi = _CENSUS_RANGE
    if not lo <= n <= hi:
        raise UnsupportedSizeError(f"census supports {lo} <= n <= {hi}")
    level: dict[bytes, Graph] = {}
    triangle = Graph({0, 1, 2}, [(0, 1), (0, 2), (1, 2)])
    level[canonical_form(triangle)] = triangle
    for _ in range(3, n):
        next_level: dict[bytes, Graph] = {}
        parents = list(level.values())
        if rng is not None:
            rng.shuffle(parents)
        for parent in parents:
            for child in henneberg_children(parent, rng):
                key = canonical_form(child)
                if key in next_level:
                    continue
                if not is_laman(child):
                    raise InternalInvariantError("Henneberg move produced a non-Laman graph")
                next_level[key] = child
        level = next_level
    forms = sorted(level)
    reps = tuple(level[f] for f in forms)
    basics = tuple(f for f, g in zip(forms, reps) if is_basic(g))
    return CensusResult(n, tuple(forms), basics, reps)


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
