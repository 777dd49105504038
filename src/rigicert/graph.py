"""Simple undirected graphs and the structural operations everything else builds on.

Vertices are arbitrary non-negative integer labels and are preserved by every
operation; all values are immutable after construction, so concurrent readers
need no locking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

from .errors import InputError, ParseError, UnsupportedSizeError

Edge = tuple[int, int]

#: Desk-scale cap for the permutation-search operations (canonical_form, is_planar).
MAX_CANONICAL_VERTICES = 12


def edge(u: int, v: int) -> Edge:
    """Normalize an unordered vertex pair to a sorted tuple."""
    if u == v:
        raise InputError(f"self-loop ({u},{v}) is not a valid edge")
    return (u, v) if u < v else (v, u)


class Graph:
    """Finite simple undirected graph with labelled vertices.

    Immutable: the vertex and edge sets are frozen at construction and all
    operations return new graphs.
    """

    __slots__ = ("vertices", "edges", "_adj")

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[Edge] = ()):
        vs = frozenset(vertices)
        es = frozenset(edge(u, v) for u, v in edges)
        for u, v in es:
            if u not in vs or v not in vs:
                raise InputError(f"edge ({u},{v}) has an endpoint outside the vertex set")
        for v in vs:
            if v < 0:
                raise InputError(f"vertex label {v} is negative")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", es)
        adj: dict[int, frozenset[int]] = {}
        nbrs: dict[int, set[int]] = {v: set() for v in vs}
        for u, v in es:
            nbrs[u].add(v)
            nbrs[v].add(u)
        for v in vs:
            adj[v] = frozenset(nbrs[v])
        object.__setattr__(self, "_adj", adj)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def n(self) -> int:
        """Number of vertices (the order |G|)."""
        return len(self.vertices)

    @property
    def e(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return edge(u, v) in self.edges

    def sorted_vertices(self) -> list[int]:
        return sorted(self.vertices)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def with_edges(self, extra: Iterable[Edge]) -> "Graph":
        return Graph(self.vertices, self.edges | {edge(u, v) for u, v in extra})

    def without_edges(self, removed: Iterable[Edge]) -> "Graph":
        return Graph(self.vertices, self.edges - {edge(u, v) for u, v in removed})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.sorted_edges()})"


@dataclass(frozen=True)
class SeparationPair:
    """A vertex pair whose removal disconnects the rest of the graph."""

    pair: Edge

    def __post_init__(self):
        a, b = self.pair
        if a == b:
            raise InputError("separation pair must consist of two distinct vertices")
        if a > b:
            object.__setattr__(self, "pair", (b, a))


@dataclass(frozen=True)
class Block:
    """A decomposition block: a subgraph plus bookkeeping for virtual edges.

    ``subgraph`` includes the virtual edges as ordinary edges (that is the
    connectivity view); ``redundant_flags`` marks the virtual edges that are
    ignored when the block is read as a Laman graph.
    """

    subgraph: Graph
    virtual_edges: frozenset[Edge] = frozenset()
    redundant_flags: frozenset[Edge] = frozenset()

    def __post_init__(self):
        if not self.redundant_flags <= self.virtual_edges:
            raise InputError("redundant flags must be a subset of the virtual edges")
        if not self.virtual_edges <= self.subgraph.edges:
            raise InputError("virtual edges must be edges of the block subgraph")

    def core(self) -> Graph:
        """The block with redundant virtual edges stripped (solvability view)."""
        return self.subgraph.without_edges(self.redundant_flags)

    def is_triangle(self) -> bool:
        return self.subgraph.n == 3 and self.subgraph.e == 3

    def key(self) -> tuple:
        """Order-insensitive identity used to compare decompositions."""
        return (
            self.subgraph.vertices,
            self.subgraph.edges,
            self.virtual_edges,
            self.redundant_flags,
        )


@dataclass(frozen=True)
class SeparationEvent:
    """One separation performed during block decomposition (for auditing)."""

    pair: Edge
    parent_vertices: frozenset[int]
    part_freedoms: tuple[int, ...]
    edge_was_present: bool


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[Block, ...]
    separation_history: tuple[SeparationPair, ...]
    events: tuple[SeparationEvent, ...] = field(default=(), compare=False)

    def block_keys(self) -> frozenset:
        return frozenset(b.key() for b in self.blocks)


def freedom_number(g: Graph) -> int:
    """2n - e - 3; zero for Laman graphs, negative means over-braced."""
    return 2 * g.n - g.e - 3


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    vs = set(vertices)
    unknown = vs - g.vertices
    if unknown:
        raise InputError(f"unknown vertex labels {sorted(unknown)}")
    es = [e for e in g.edges if e[0] in vs and e[1] in vs]
    return Graph(vs, es)


def connected_components(g: Graph, removed: Iterable[int] = ()) -> list[frozenset[int]]:
    """The components of G - removed, in ascending order of their least vertex.

    Walks the adjacency of g itself, so no induced subgraph is built; every
    vertex-cut question in the package is answered here.
    """
    seen = set(removed)
    comps: list[frozenset[int]] = []
    for start in g.sorted_vertices():
        if start in seen:
            continue
        stack = [start]
        comp = {start}
        seen.add(start)
        while stack:
            v = stack.pop()
            for w in g._adj[v]:
                if w not in seen:
                    comp.add(w)
                    seen.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def _separates(g: Graph, removed: set[int]) -> bool:
    if g.n - len(removed) < 2:
        return False
    return len(connected_components(g, removed)) > 1


def is_m_connected(g: Graph, m: int) -> bool:
    """|G| > m and no (m-1)-subset of vertices separates the rest."""
    if m < 1:
        raise InputError("m must be a positive integer")
    if g.n <= m:
        return False
    for removed in itertools.combinations(g.sorted_vertices(), m - 1):
        if _separates(g, set(removed)):
            return False
    return True


def separation_pairs(g: Graph) -> list[SeparationPair]:
    """All vertex pairs whose removal disconnects the rest; empty iff 3-connected."""
    if not is_connected(g):
        raise InputError("separation pairs are defined for connected graphs only")
    if g.n < 4:
        raise InputError("separation pairs require at least 4 vertices")
    pairs = []
    for a, b in itertools.combinations(g.sorted_vertices(), 2):
        if _separates(g, {a, b}):
            pairs.append(SeparationPair((a, b)))
    return pairs


def separation_blocks(g: Graph, pair: SeparationPair) -> list[Graph]:
    """The components of G - {a,b}, each re-closed over the pair, in ascending
    order of the component's least vertex."""
    a, b = pair.pair
    if a not in g.vertices or b not in g.vertices:
        raise InputError(f"pair {pair.pair} not in the vertex set")
    comps = connected_components(g, pair.pair)
    if len(comps) < 2:
        raise InputError(f"pair {pair.pair} does not separate the graph")
    return [induced_subgraph(g, comp | {a, b}) for comp in comps]


def contract_edge(g: Graph, e: Edge) -> Graph:
    """G/e: delete the edge, merge its endpoints, drop duplicate edges.

    The merged vertex keeps the smaller of the two labels.
    """
    e = edge(*e)
    if e not in g.edges:
        raise InputError(f"edge {e} not in the graph")
    keep, gone = e
    new_edges = set()
    for u, v in g.edges:
        if (u, v) == e:
            continue
        u2 = keep if u == gone else u
        v2 = keep if v == gone else v
        new_edges.add(edge(u2, v2))
    return Graph(g.vertices - {gone}, new_edges)


def _refine_colors(order: list[int], adj: dict[int, frozenset[int]]) -> dict[int, int]:
    """Iterated neighbourhood-degree refinement; colors are isomorphism-invariant."""
    color = {v: len(adj[v]) for v in order}
    while True:
        sig = {
            v: (color[v], tuple(sorted(color[w] for w in adj[v])))
            for v in order
        }
        ranks = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new_color = {v: ranks[sig[v]] for v in order}
        if new_color == color:
            return color
        color = new_color


def canonical_form(g: Graph) -> bytes:
    """A byte string equal for two graphs iff they are isomorphic.

    Minimizes the upper-triangular adjacency bit matrix over vertex orderings,
    pruned to orderings compatible with the refined degree classes.
    """
    n = g.n
    if n > MAX_CANONICAL_VERTICES:
        raise UnsupportedSizeError(f"canonical form supports at most {MAX_CANONICAL_VERTICES} vertices")
    verts = g.sorted_vertices()
    if n <= 1:
        return f"{n}:".encode()
    color = _refine_colors(verts, g._adj)
    classes: dict[int, list[int]] = {}
    for v in verts:
        classes.setdefault(color[v], []).append(v)
    class_list = [classes[c] for c in sorted(classes)]
    total_bits = n * (n - 1) // 2
    best: int | None = None

    # Backtracking over orderings that respect the class sequence; a partial
    # bit pattern already above the best-so-far prefix can never win.
    def extend(prefix: list[int], remaining: list[list[int]], acc: int, bits: int):
        nonlocal best
        if not remaining:
            if best is None or acc < best:
                best = acc
            return
        head, *tail = remaining
        for i, v in enumerate(head):
            acc2 = acc
            for u in prefix:
                acc2 = (acc2 << 1) | (1 if v in g._adj[u] else 0)
            bits2 = bits + len(prefix)
            if best is not None and acc2 > (best >> (total_bits - bits2)):
                continue
            rest = head[:i] + head[i + 1 :]
            extend(prefix + [v], ([rest] if rest else []) + tail, acc2, bits2)

    extend([], class_list, 0, 0)
    assert best is not None
    width = max(1, (total_bits + 3) // 4)
    return f"{n}:{best:0{width}x}".encode()


def _disjoint_paths_exist(
    g: Graph,
    demands: list[tuple[int, int]],
    branch: frozenset[int],
    used: set[int],
) -> bool:
    """Try to route all demand pairs with pairwise internally disjoint paths.

    Interior vertices must avoid the branch vertices and anything already used.
    """
    if not demands:
        return True
    a, b = demands[0]

    def dfs_path(v: int, interior: list[int], on_path: set[int]) -> bool:
        for w in sorted(g.neighbors(v)):
            if w == b:
                for x in interior:
                    used.add(x)
                if _disjoint_paths_exist(g, demands[1:], branch, used):
                    return True
                for x in interior:
                    used.discard(x)
                continue
            if w in branch or w in used or w in on_path:
                continue
            on_path.add(w)
            interior.append(w)
            if dfs_path(w, interior, on_path):
                return True
            interior.pop()
            on_path.discard(w)
        return False

    if g.has_edge(a, b):
        if _disjoint_paths_exist(g, demands[1:], branch, used):
            return True
    return dfs_path(a, [], {a})


def _has_subdivision(g: Graph, pattern: str) -> bool:
    verts = g.sorted_vertices()
    if pattern == "K5":
        candidates = [v for v in verts if g.degree(v) >= 4]
        if len(candidates) < 5:
            return False
        for branch in itertools.combinations(candidates, 5):
            demands = list(itertools.combinations(branch, 2))
            if _disjoint_paths_exist(g, demands, frozenset(branch), set()):
                return True
        return False
    if pattern == "K33":
        candidates = [v for v in verts if g.degree(v) >= 3]
        if len(candidates) < 6:
            return False
        for six in itertools.combinations(candidates, 6):
            for left in itertools.combinations(six, 3):
                if six[0] not in left:
                    continue  # fix the lowest vertex on the left side to halve the work
                right = tuple(v for v in six if v not in left)
                demands = [(u, v) for u in left for v in right]
                if _disjoint_paths_exist(g, demands, frozenset(six), set()):
                    return True
        return False
    raise ValueError(pattern)


def is_planar(g: Graph) -> bool:
    """Kuratowski test: no subdivision of K5 or K(3,3)."""
    if g.n > MAX_CANONICAL_VERTICES:
        raise UnsupportedSizeError(f"planarity test supports at most {MAX_CANONICAL_VERTICES} vertices")
    if g.n < 5 or g.e < 9:
        return True
    if g.n >= 3 and g.e > 3 * g.n - 6:
        return False
    return not (_has_subdivision(g, "K5") or _has_subdivision(g, "K33"))


# Text format: whitespace-separated token stream, `#` comments run to end of
# line.  `n <N>` declares the vertex count, `e <u> <v>` declares an edge.


def parse_graph(text: str) -> Graph:
    declared_n: int | None = None
    edges: list[Edge] = []
    seen_edges: set[Edge] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        i = 0
        while i < len(tokens):
            tag = tokens[i]
            if tag == "n":
                if declared_n is not None:
                    raise ParseError("duplicate vertex-count declaration", lineno)
                if i + 1 >= len(tokens):
                    raise ParseError("'n' needs a count", lineno)
                try:
                    declared_n = int(tokens[i + 1])
                except ValueError:
                    raise ParseError(f"bad vertex count {tokens[i + 1]!r}", lineno)
                if declared_n < 0:
                    raise ParseError("vertex count must be non-negative", lineno)
                i += 2
            elif tag == "e":
                if i + 2 >= len(tokens):
                    raise ParseError("'e' needs two endpoints", lineno)
                try:
                    u, v = int(tokens[i + 1]), int(tokens[i + 2])
                except ValueError:
                    raise ParseError(f"bad edge endpoints {tokens[i + 1]!r} {tokens[i + 2]!r}", lineno)
                if u < 0 or v < 0:
                    raise ParseError("vertex labels must be non-negative", lineno)
                if u == v:
                    raise ParseError(f"self-loop at vertex {u}", lineno)
                ed = edge(u, v)
                if ed in seen_edges:
                    raise ParseError(f"duplicate edge ({u},{v})", lineno)
                seen_edges.add(ed)
                edges.append(ed)
                i += 3
            else:
                raise ParseError(f"unknown token {tag!r}", lineno)
    if declared_n is None:
        raise ParseError("missing 'n <N>' declaration", 1)
    vertices = {v for ed in edges for v in ed}
    if len(vertices) > declared_n:
        raise ParseError(
            f"edges mention {len(vertices)} distinct vertices but n is {declared_n}", 1
        )
    # Fill missing (isolated) vertices with the smallest unused labels so the
    # count matches; files for this domain never carry isolated vertices.
    label = 0
    while len(vertices) < declared_n:
        if label not in vertices:
            vertices.add(label)
        label += 1
    return Graph(vertices, edges)


def format_graph(g: Graph, single_line: bool = False) -> str:
    parts = [f"n {g.n}"] + [f"e {u} {v}" for u, v in g.sorted_edges()]
    return (" ".join(parts)) if single_line else ("\n".join(parts) + "\n")
