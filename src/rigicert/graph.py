"""Simple undirected graphs and the structural operations everything else builds on.

Vertices are arbitrary non-negative integer labels and are preserved by every
operation.  A graph's vertex and edge sets are frozen at construction, so
concurrent readers need no locking; the one slot filled later holds a value
derived from those sets, which never changes once set (two readers that
fill it at once store equal values).

A separation pair is a plain `Edge`, the pair (a, b) with a < b, whether or
not ab is an edge of the graph.  Whether a graph is 3-connected, the question
asked of every graph the reduction makes, is answered by `_triconnected`,
Hopcroft and Tarjan's path search stopped at the first separation pair it
meets: linear in the size of the graph but for one sort of each vertex's
arcs.  Which pairs separate, and which is least, is read
from one enumeration of the vertex sets whose removal disconnects the rest,
`_separating_sets`, which also answers `is_m_connected` for m other than 3:
it removes vertices in ascending order and recurses, and answers the last
vertex of each set with one lowpoint DFS for the cut vertices of what is
left, so a full scan for separation pairs costs O(n (n + e)).  Cutting a
graph at a pair is left to the block decomposition, which adds virtual edges.

Canonical forms come from one search on neighbour index lists,
`_canonical_search`, vertex i being the i-th smallest label; on request it
also returns the graph's automorphisms, which the census uses to skip
equivalent Henneberg moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InputError, ParseError, UnsupportedSizeError

Edge = tuple[int, int]

#: Desk-scale cap for canonical_form, the one permutation search.
MAX_CANONICAL_VERTICES = 12

#: The largest vertex count a graph file may declare: `parse_graph` fills the
#: labels no edge mentions as isolated vertices, so a short file could
#: otherwise ask for any number of them.
MAX_DECLARED_VERTICES = 10**5


def edge(u: int, v: int) -> Edge:
    """Normalize an unordered vertex pair to a sorted tuple."""
    if u == v:
        raise InputError(f"self-loop ({u},{v}) is not a valid edge")
    return (u, v) if u < v else (v, u)


class Graph:
    """Finite simple undirected graph with labelled vertices.

    Immutable: the vertex and edge sets are frozen at construction and all
    operations return new graphs.  The private slot `_game` starts unset; the
    rigidity module fills it with the graph's pebble game the first time it
    is asked about the graph, and the game never changes once set.
    """

    __slots__ = ("vertices", "edges", "_adj", "_game")

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[Edge] = ()):
        vs = frozenset(vertices)
        try:
            es = frozenset(edge(u, v) for u, v in edges)
        except (TypeError, ValueError) as exc:
            raise InputError(f"an edge is not a pair of vertex labels: {exc}") from None
        nbrs: dict[int, set[int]] = {}
        for v in vs:
            if type(v) is not int:
                raise InputError(f"integer vertex label expected, got {v!r}")
            if v < 0:
                raise InputError(f"vertex label {v} is negative")
            nbrs[v] = set()
        try:
            for u, v in es:
                if type(u) is not int or type(v) is not int:  # 1.0 and True equal the label 1
                    raise InputError(f"edge ({u!r}, {v!r}) has an endpoint that is not an int")
                nbrs[u].add(v)
                nbrs[v].add(u)
        except KeyError:
            raise InputError(f"edge ({u},{v}) has an endpoint outside the vertex set") from None
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", es)
        object.__setattr__(self, "_adj", {v: frozenset(ns) for v, ns in nbrs.items()})

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
        """The block with redundant virtual edges stripped (solvability view);
        the subgraph itself where there is nothing to strip, since graphs are
        immutable."""
        if not self.redundant_flags:
            return self.subgraph
        return self.subgraph.without_edges(self.redundant_flags)

    def is_triangle(self) -> bool:
        return self.subgraph.n == 3 and self.subgraph.e == 3


@dataclass(frozen=True)
class SeparationEvent:
    """One separation performed during block decomposition (for auditing)."""

    pair: Edge
    part_freedoms: tuple[int, ...]
    edge_was_present: bool


@dataclass(frozen=True)
class BlockDecomposition:
    """The blocks, and the separations that made them in the order performed."""

    blocks: tuple[Block, ...]
    events: tuple[SeparationEvent, ...]


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

    Walks the adjacency of g itself, so no induced subgraph is built.  It
    answers whether G is connected and which parts a separation pair leaves;
    which vertex sets separate G is found by `_separating_sets` through the
    lowpoint scan `_cut_vertices`.
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


def _cut_vertices(g: Graph, removed: frozenset[int]) -> list[int]:
    """The vertices v of H = G - removed, ascending, such that H - v has more
    than one component.

    One iterative lowpoint DFS (Tarjan 1972; Hopcroft & Tarjan 1973) over the
    adjacency of g, skipping removed vertices, so no subgraph is built and a
    long path cannot exhaust the interpreter's recursion limit.  A non-root u
    is a cut vertex of its component iff some child v has low[v] >= disc[u];
    a root iff it has two or more children.  low may take in the tree edge to
    the parent, which leaves that test as it is.  Where H is disconnected,
    removing a vertex leaves at least as many components as H has unless the
    vertex is isolated, so with three components every vertex separates and
    with two every vertex that is not isolated.
    """
    adj = g._adj
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    cuts: set[int] = set()
    isolated: set[int] = set()
    components = 0
    for root in g.vertices:
        if root in removed or root in disc:
            continue
        components += 1
        disc[root] = low[root] = len(disc)
        children = 0
        stack = [(root, iter(adj[root]))]
        while stack:
            v, nbrs = stack[-1]
            for w in nbrs:
                if w in removed:
                    continue
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    stack.append((w, iter(adj[w])))
                    break
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if not stack:
                    continue
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if u == root:
                    children += 1
                elif low[v] >= disc[u]:
                    cuts.add(u)
        if children >= 2:
            cuts.add(root)
        elif children == 0:
            isolated.add(root)
    if components >= 3:
        return sorted(disc)
    if components == 2:
        return sorted(v for v in disc if v not in isolated)
    return sorted(cuts)


def _separating_sets(g: Graph, size: int) -> Iterator[tuple[int, ...]]:
    """The `size`-subsets of V, in ascending combination order, whose removal
    leaves more than one component.

    A separating k-set whose least vertex is a is {a} plus a separating
    (k-1)-set of G - a whose vertices all lie above a, so the scan recurses
    on the removed set in ascending a down to size 1, where one lowpoint DFS
    of G - removed finds every cut vertex (`_cut_vertices`): O(n^(k-1) (n+e))
    in all.  Callers that read only the first set stop the scan there.
    """
    verts = g.sorted_vertices()

    def above(floor: int, size: int, removed: frozenset[int]) -> Iterator[tuple[int, ...]]:
        if size == 1:
            for v in _cut_vertices(g, removed):
                if v > floor:
                    yield (v,)
            return
        for a in verts:
            if a > floor:
                for rest in above(a, size - 1, removed | {a}):
                    yield (a, *rest)

    if size == 0:
        if len(connected_components(g)) > 1:
            yield ()
        return
    yield from above(-1, size, frozenset())


def _triconnected(g: Graph) -> bool:
    """Whether G, of at least 4 vertices, is 3-connected: the path search of
    Hopcroft & Tarjan ("Dividing a graph into triconnected components", 1973)
    with the type-1 and type-2 conditions as corrected by Gutwenger & Mutzel
    ("A linear time implementation of SPQR-trees", 2000), stopped at the first
    separation pair, so no component is ever split off.  Linear in the size of
    G but for sorting each vertex's arcs, which a comparison sort does here
    in place of the paper's bucket pass; no recursion.

    A vertex of degree at most 2 is separated by its neighbours, and on at
    most 5 vertices least degree 3 is enough: each side of a separating pair
    or vertex would hold a vertex of degree at most 2.  Otherwise, on vertex
    indices in ascending label order, rooted at index 0:

    - DFS1 numbers the vertices in preorder (`num`) and finds father, ND
      (descendants, itself included), lowpt1 and lowpt2, and each vertex's
      arcs: tree arcs to its children and fronds to its ancestors.  It
      refuses a cut vertex and a disconnected graph.
    - Each vertex's arcs are sorted by phi: 3 lowpt1(w), plus 2 where
      lowpt2(w) >= v, for a tree arc v -> w, and 3 w + 1 for a frond.  In
      that order a vertex's first arc continues the path it lies on and each
      later arc starts a new one (the root's one arc starts the first), so
      the path starts need no pass of their own; nor does NEWNUM, the
      preorder that visits the children in reverse: a child is numbered its
      father's number plus one plus the ND of the children after it.
    - The path search keeps TSTACK, triples (h, a, b) and EOS markers (a =
      -1).  It stops on a type-2 pair (after the tree arc v -> w, a top
      triple with a = v and father(b) != v, v not the root) or on a type-1
      pair (lowpt2(w) >= v, with father(v) not the root or an arc of v still
      to come).

    Every a is an ancestor of the current vertex, compared only with
    ancestors, so it stays a DFS1 number; h and highpt, which compare
    vertices of different subtrees, are NEWNUMs.  highpt(v), the first frond
    into v that the search visits, is read only on the way back to v.  Until
    one is visited, each triple that read could pop has b = v or an h from a
    subtree of v already searched, numbered above the later subtrees where
    the first frond lies, so 0 pops what the final value would: nothing.
    """
    adj = g._adj
    for a in adj.values():
        if len(a) < 3:
            return False
    n = len(adj)
    if n <= 5:
        return True
    verts = sorted(adj)
    if verts[-1] == n - 1:  # the labels are their own indices
        nbrs = [adj[v] for v in verts]
    else:
        index = {v: i for i, v in enumerate(verts)}
        nbrs = [[index[w] for w in adj[v]] for v in verts]

    num = [0] * n
    father = [-1] * n
    low1 = [0] * n
    low2 = [0] * n
    nd = [1] * n
    arcs: list[list[int]] = [[] for _ in range(n)]
    order = [0]
    num[0] = low1[0] = low2[0] = 1
    stack = [(0, iter(nbrs[0]))]
    while stack:
        v, it = stack[-1]
        fv = father[v]
        for w in it:
            x = num[w]
            if not x:
                order.append(w)
                num[w] = low1[w] = low2[w] = len(order)
                father[w] = v
                arcs[v].append(w)
                stack.append((w, iter(nbrs[w])))
                break
            if x < num[v] and w != fv:  # a frond; an edge to a descendant was one
                arcs[v].append(w)
                if x < low1[v]:
                    low2[v] = low1[v]
                    low1[v] = x
                elif low1[v] < x < low2[v]:
                    low2[v] = x
        else:
            stack.pop()
            if fv < 0:
                continue
            if fv == 0:
                if nd[v] != n - 1:  # the root has a second child, or G another component
                    return False
            elif low1[v] >= num[fv]:  # fv is a cut vertex
                return False
            l1, l2, lf = low1[v], low2[v], low1[fv]
            if l1 < lf:
                low1[fv] = l1
                low2[fv] = min(lf, l2)
            elif l1 == lf:
                low2[fv] = min(low2[fv], l2)
            elif l1 < low2[fv]:
                low2[fv] = l1
            nd[fv] += nd[v]

    newnum = [0] * n
    newnum[0] = 1
    for v in order:
        nv = num[v]
        av = arcs[v]
        if len(av) > 1:
            keys = [
                ((3 * low1[w] + (2 if low2[w] >= nv else 0)) if father[w] == v else 3 * num[w] + 1) * n + w
                for w in av
            ]
            keys.sort()
            av[:] = [k % n for k in keys]
        nxt = newnum[v] + 1
        for w in reversed(av):
            if father[w] == v:
                newnum[w] = nxt
                nxt += nd[w]

    high = [0] * n
    pos = [0] * n
    eos = (0, -1, -1)
    ts = [eos]
    stack = [0]
    while True:
        v = stack[-1]
        av = arcs[v]
        i = pos[v]
        while i < len(av):
            w = av[i]
            i += 1
            starts = i > 1 or v == 0
            if father[w] == v:
                if starts:
                    l1 = low1[w]
                    if ts[-1][1] > l1:
                        y = 0
                        while ts[-1][1] > l1:
                            h, _, b = ts.pop()
                            if h > y:
                                y = h
                        ts.append((y, l1, b))
                    else:
                        ts.append((newnum[w] + nd[w] - 1, l1, v))
                    ts.append(eos)
                pos[v] = i
                stack.append(w)
                break
            if not high[w]:
                high[w] = newnum[v]
            if starts:
                x = num[w]
                if ts[-1][1] > x:
                    y = 0
                    while ts[-1][1] > x:
                        h, _, b = ts.pop()
                        if h > y:
                            y = h
                    ts.append((y, x, b))
                else:
                    ts.append((newnum[v], x, v))
        else:
            # back along the tree arc v -> w
            stack.pop()
            if not stack:
                return True
            w, v = v, stack[-1]
            i = pos[v]
            if v:
                nv = num[v]
                while ts[-1][1] == nv:
                    if father[ts[-1][2]] != v:
                        return False  # type-2 pair (v, b)
                    ts.pop()
                if low2[w] >= nv and (father[v] or i < len(arcs[v])):
                    return False  # type-1 pair (lowpt1(w), v)
            if i > 1 or v == 0:
                while ts.pop()[1] >= 0:
                    pass
            hv = high[v]
            top = ts[-1]
            while top[1] >= 0 and top[2] != v and hv > top[0]:
                ts.pop()
                top = ts[-1]


def is_m_connected(g: Graph, m: int) -> bool:
    """|G| > m and no (m-1)-subset of vertices separates the rest.  For m = 3
    one linear path search answers (`_triconnected`); other m read the
    enumeration `_separating_sets`."""
    if type(m) is not int or m < 1:
        raise InputError("m must be a positive integer")
    if g.n <= m:
        return False
    if m == 3:
        return _triconnected(g)
    return next(_separating_sets(g, m - 1), None) is None


def separation_pairs(g: Graph) -> list[Edge]:
    """All vertex pairs (a, b), a < b, whose removal disconnects the rest, in
    ascending order; empty iff 3-connected."""
    if len(connected_components(g)) > 1:
        raise InputError("separation pairs are defined for connected graphs only")
    if g.n < 4:
        raise InputError("separation pairs require at least 4 vertices")
    return list(_separating_sets(g, 2))


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


def _refine_colors(nbrs: list[list[int]]) -> list[int]:
    """Iterated neighbourhood-degree refinement on vertex indices; the colours
    are isomorphism-invariant.

    Each round ranks the signatures (colour, sorted neighbour colours), so a
    round's classes refine the last round's; once a round splits no class the
    partition is equitable, and one more round would return the same ranks,
    so those ranks are the fixpoint."""
    color = [len(a) for a in nbrs]
    classes = len(set(color))
    while True:
        sig = [(color[v], tuple(sorted([color[w] for w in a]))) for v, a in enumerate(nbrs)]
        ranks = {s: i for i, s in enumerate(sorted(set(sig)))}
        new_color = [ranks[s] for s in sig]
        if len(ranks) == classes:
            return new_color
        color, classes = new_color, len(ranks)


def _canonical_search(nbrs: list[list[int]], automorphisms: bool = False) -> tuple[bytes, list[list[int]]]:
    """The canonical form of the graph on vertices 0..n-1 whose neighbours of
    i are `nbrs[i]`, and, if asked, its automorphisms.

    The form is the least upper-triangular adjacency bit matrix, read row by
    row, over the vertex orderings that place the refined colour classes in
    ascending colour order; a partial matrix already above the best one's
    prefix is dropped.  The search runs on an explicit stack.  `nbr_bits[v]`
    holds bit n-1-k for each placed neighbour of v at position k, so the row
    of a candidate at depth k is `nbr_bits[v] >> (n - k)` and costs no scan
    of the prefix.

    The colours are invariant, so the orderings that attain the minimum are
    one coset of Aut(G): mapping the first onto each of them gives every
    automorphism, the identity first, as a list sigma with sigma[i] the image
    of i.  Without `automorphisms` the list is empty.
    """
    n = len(nbrs)
    if n <= 1:
        return f"{n}:".encode(), [list(range(n))] if automorphisms else []
    color = _refine_colors(nbrs)
    by_color = sorted(range(n), key=color.__getitem__)
    # the candidates for position k: the class of the k-th vertex in colour order
    classes: dict[int, list[int]] = {}
    for v in by_color:
        classes.setdefault(color[v], []).append(v)
    slot = [classes[color[v]] for v in by_color]
    total_bits = n * (n - 1) // 2
    # the bits past the matrix prefix that ends with the row of position k
    shift = [total_bits - k * (k + 1) // 2 for k in range(n)]
    best = -1
    minimizers: list[list[int]] = []
    nbr_bits = [0] * n
    used = [False] * n
    prefix = [0] * n
    acc = [0] * n
    pos = [0] * n
    last = n - 1
    k = 0
    while k >= 0:
        members = slot[k]
        i = pos[k]
        while i < len(members):
            v = members[i]
            i += 1
            if used[v]:
                continue
            acc2 = (acc[k] << k) | (nbr_bits[v] >> (n - k))
            if best >= 0 and acc2 > best >> shift[k]:
                continue
            break
        else:
            k -= 1
            if k >= 0:
                v = prefix[k]
                used[v] = False
                bit = 1 << (last - k)
                for w in nbrs[v]:
                    nbr_bits[w] ^= bit
            continue
        pos[k] = i
        if k == last:
            if acc2 != best:
                best = acc2
                minimizers.clear()
            if automorphisms:
                prefix[k] = v
                minimizers.append(prefix.copy())
            continue
        used[v] = True
        prefix[k] = v
        bit = 1 << (last - k)
        for w in nbrs[v]:
            nbr_bits[w] |= bit
        k += 1
        acc[k] = acc2
        pos[k] = 0
    auts = []
    for ordering in minimizers:
        sigma = [0] * n
        for a, b in zip(minimizers[0], ordering):
            sigma[a] = b
        auts.append(sigma)
    width = max(1, (total_bits + 3) // 4)
    return f"{n}:{best:0{width}x}".encode(), auts


def canonical_form(g: Graph) -> bytes:
    """A byte string equal for two graphs iff they are isomorphic:
    `_canonical_search` on the vertex indices in ascending label order."""
    if g.n > MAX_CANONICAL_VERTICES:
        raise UnsupportedSizeError(f"canonical form supports at most {MAX_CANONICAL_VERTICES} vertices")
    verts = g.sorted_vertices()
    index = {v: i for i, v in enumerate(verts)}
    return _canonical_search([[index[w] for w in g._adj[v]] for v in verts])[0]


class _LeftRightTest:
    """The testing phase of the left-right planarity test (Brandes, "The
    left-right planarity test", 2009; the criterion is de Fraysseix and
    Rosenstiehl's): no embedding is built, so the sides of the edges and the
    references that only fix them are not kept.

    Vertices are renumbered 0..n-1 in ascending label order and each edge gets
    an id in the order the orientation DFS directs it, from `tail` to `head`.
    Both DFS passes keep their own stack, so a deep graph cannot exhaust the
    interpreter's recursion limit.  A conflict pair is a list
    [left.low, left.high, right.low, right.high] of return-edge ids, None
    where the interval is empty.
    """

    def __init__(self, g: Graph):
        verts = g.sorted_vertices()
        index = {v: i for i, v in enumerate(verts)}
        adj = [sorted(index[w] for w in g._adj[v]) for v in verts]
        n = len(verts)
        self.height = [-1] * n
        self.parent_edge = [-1] * n
        self.tail: list[int] = []
        self.head: list[int] = []
        self.lowpt: list[int] = []
        self.lowpt2: list[int] = []
        self.nesting_depth: list[int] = []
        self.out: list[list[int]] = [[] for _ in range(n)]
        for v in range(n):
            if self.height[v] < 0:
                self._orient(v, adj)
        self.ref: list[int | None] = [None] * len(self.head)
        self.pairs: list[list[int | None]] = []

    def _new_edge(self, v: int, w: int, low: int) -> int:
        k = len(self.head)
        self.tail.append(v)
        self.head.append(w)
        self.lowpt.append(low)
        self.lowpt2.append(self.height[v])
        self.nesting_depth.append(0)
        self.out[v].append(k)
        return k

    def _orient(self, root: int, adj: list[list[int]]) -> None:
        """Orientation DFS from `root`: tree edges point away from it, back edges
        towards it; fills height, lowpt, lowpt2 and nesting depth."""
        height, parent_edge, tail = self.height, self.parent_edge, self.tail
        height[root] = 0
        pos = {root: 0}
        stack = [root]
        while stack:
            v = stack[-1]
            hv = height[v]
            e = parent_edge[v]
            parent = tail[e] if e >= 0 else -1
            nbrs = adj[v]
            i = pos[v]
            while i < len(nbrs):
                w = nbrs[i]
                i += 1
                if height[w] < 0:
                    pos[v], pos[w] = i, 0
                    parent_edge[w] = self._new_edge(v, w, hv)
                    height[w] = hv + 1
                    stack.append(w)
                    break
                if height[w] < hv and w != parent:
                    self._finish(self._new_edge(v, w, height[w]))
            else:
                stack.pop()
                if e >= 0:
                    self._finish(e)

    def _finish(self, k: int) -> None:
        """Edge k is fully explored: set its nesting depth and pass its lowpoints
        up to the parent edge of its tail."""
        lowpt, lowpt2 = self.lowpt, self.lowpt2
        v = self.tail[k]
        low = lowpt[k]
        self.nesting_depth[k] = 2 * low + (lowpt2[k] < self.height[v])
        e = self.parent_edge[v]
        if e < 0:
            return
        if low < lowpt[e]:
            lowpt2[e] = min(lowpt[e], lowpt2[k])
            lowpt[e] = low
        elif low > lowpt[e]:
            lowpt2[e] = min(lowpt2[e], low)
        else:
            lowpt2[e] = min(lowpt2[e], lowpt2[k])

    def planar(self) -> bool:
        """Testing DFS over each vertex's out-edges in order of nesting depth,
        keeping the conflict pairs of the return edges on one stack."""
        height, parent_edge, head, lowpt = self.height, self.parent_edge, self.head, self.lowpt
        for edges in self.out:
            edges.sort(key=self.nesting_depth.__getitem__)
        pairs = self.pairs
        stack_bottom: list[list[int | None] | None] = [None] * len(head)
        entered = [False] * len(height)
        pos = [0] * len(height)
        for root in range(len(height)):
            if parent_edge[root] >= 0:
                continue
            stack = [root]
            while stack:
                v = stack[-1]
                hv = height[v]
                edges = self.out[v]
                i = pos[v]
                while i < len(edges):
                    k = edges[i]
                    w = head[k]
                    if parent_edge[w] != k:
                        stack_bottom[k] = pairs[-1] if pairs else None
                        pairs.append([None, None, k, k])
                    elif not entered[w]:
                        entered[w] = True
                        stack_bottom[k] = pairs[-1] if pairs else None
                        pos[v] = i
                        stack.append(w)
                        break
                    # the return edges of v's first out-edge stay as they are
                    if i > 0 and lowpt[k] < hv and not self._add_constraints(k, parent_edge[v], stack_bottom[k]):
                        return False
                    i += 1
                else:
                    stack.pop()
                    if parent_edge[v] >= 0:
                        self._trim(self.tail[parent_edge[v]])
        return True

    def _add_constraints(self, ei: int, e: int, bottom) -> bool:
        """Merge the return edges of ei, and those of earlier out-edges of the
        same vertex that conflict with them, into one new conflict pair."""
        lowpt, ref, pairs = self.lowpt, self.ref, self.pairs
        p: list[int | None] = [None, None, None, None]
        while True:
            q = pairs.pop()
            if q[1] is not None:
                q[:] = q[2], q[3], q[0], q[1]
            if q[1] is not None:
                return False
            if lowpt[q[2]] > lowpt[e]:
                if p[3] is None:
                    p[3] = q[3]
                else:
                    ref[p[2]] = q[3]
                p[2] = q[2]
            if (pairs[-1] if pairs else None) is bottom:
                break
        low = lowpt[ei]
        while pairs:
            q = pairs[-1]
            if not (q[1] is not None and lowpt[q[1]] > low or q[3] is not None and lowpt[q[3]] > low):
                break
            pairs.pop()
            if q[3] is not None and lowpt[q[3]] > low:
                q[:] = q[2], q[3], q[0], q[1]
            if q[3] is not None and lowpt[q[3]] > low:
                return False
            if p[3] is None:
                p[3] = q[3]
            else:
                ref[p[2]] = q[3]
            if q[2] is not None:
                p[2] = q[2]
            if p[1] is None:
                p[1] = q[1]
            else:
                ref[p[0]] = q[1]
            p[0] = q[0]
        if p[1] is not None or p[3] is not None:
            pairs.append(p)
        return True

    def _trim(self, u: int) -> None:
        """Drop the return edges that end at u, as the DFS goes back to u."""
        lowpt, ref, head, pairs = self.lowpt, self.ref, self.head, self.pairs
        hu = self.height[u]

        def lowest(p) -> int:
            if p[1] is None:
                return lowpt[p[2]]
            if p[3] is None:
                return lowpt[p[0]]
            return min(lowpt[p[0]], lowpt[p[2]])

        while pairs and lowest(pairs[-1]) == hu:
            pairs.pop()
        if pairs:
            p = pairs[-1]
            while p[1] is not None and head[p[1]] == u:
                p[1] = ref[p[1]]
            if p[1] is None:
                p[0] = None
            while p[3] is not None and head[p[3]] == u:
                p[3] = ref[p[3]]
            if p[3] is None:
                p[2] = None


def is_planar(g: Graph) -> bool:
    """Whether G has a plane embedding, by the left-right planarity test.

    Linear in the size of G for any number of vertices and components; graphs
    with fewer than 5 vertices or 9 edges are planar and graphs with more than
    3n - 6 edges are not, without a search.
    """
    if g.n < 5 or g.e < 9:
        return True
    if g.e > 3 * g.n - 6:
        return False
    return _LeftRightTest(g).planar()


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
                if declared_n > MAX_DECLARED_VERTICES:
                    raise ParseError(
                        f"vertex count {declared_n} exceeds the limit {MAX_DECLARED_VERTICES}", lineno
                    )
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
