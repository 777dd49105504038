"""Laman predicates, maximally independent subgraphs, surgery, Henneberg census.

One (2,3) pebble game decides independence, and the same game, with three
pebbles gathered on an edge, gives the edge's rigid component in every G - x
at once, which answers every maximally independent (MI) proper subgraph
question without enumerating vertex subsets.  A rigid component is the
maximal tight set (2|S| - 3 edges) holding an edge.  The game runs on vertex
indices and keeps its orientation in both directions, heads and tails, so a
search against the orientation needs no reverse adjacency built per query
and a copy of the game is a few list copies.  All operations are pure
functions over immutable graphs.

A graph's game is played once per graph object, on the first question asked
of it, and kept on it (`_game`); each MI search, each `is_contractible`
query and each reduction round's contractibility questions together
(`_contractibility`) move pebbles on one `copy` of it, so the kept game
never changes.  The census keeps none: a game on each catalog graph it
returns would raise its peak memory by about a tenth, for questions nobody
asks again.

A Laman graph on 4 or more vertices with a triangle or a vertex of degree 2
is not basic, so `is_basic` and the census run the MI search only on graphs
with neither: at n <= 8 those are the basic graphs themselves.  The census
makes each Henneberg child on neighbour index lists (`_child_neighbours`,
the one Henneberg move), keys it on them, skips the moves that an
automorphism of the parent maps to an earlier move, and builds a `Graph`
from the lists only for each new class.

Three facts let one game per graph answer every question a reduction round asks:

- Components of G - x from G's game.  Let G be independent and gather three
  pebbles on its edge uv, which always succeeds.  Of the four pebbles of u
  and v only one is not free, and it covers uv, so along the orientation u
  and v reach only each other.  A tight set T through u and v is closed
  under out-edges, since its 2|T| - 3 edges take every pebble of T but the
  three on uv; so T holds R(z), everything z reaches, for each z in T, and
  holds no other free pebble.  Conversely R(z) + {u, v} is closed and holds
  exactly those three free pebbles, so it is tight.  Tight sets through uv
  have a tight union.  Hence, for x not u or v, the rigid component of uv
  in G - x is V minus the vertices that reach x or a free pebble off uv:
  one search against the orientation from x and the free pebbles
  (`_component`), or, for every x at once, each vertex's set of vertices
  reaching it (`_reaching`).
- Star restriction.  Let x1 be a vertex of least degree.  Every maximal MI
  proper subgraph W is a rigid component of G - x1 (if x1 is not in W), or the
  rigid component of G - x holding an edge x1y, for any x not in W (if x1 is
  in W): a tight set of 3 or more vertices gives each of its vertices degree
  >= 2 inside the set (dropping a vertex of degree <= 1 would leave more
  than 2k - 3 edges on the other k vertices), so x1 has a neighbour y != x in
  W, and the component of x1y in G - x is a proper tight set containing W,
  hence W.  So only G - x1 needs every edge asked; every other G - x needs
  only x1's star, and each star edge needs one gather for all of them.
- Contraction.  Let the edge uv of a Laman graph G lie in exactly one
  triangle uvw.  G/uv has the right edge count, and a subgraph S through u
  and v loses one edge if w is not in S and two if it is; so G/uv is Laman
  iff no tight S of 3 or more vertices holds u and v but not w, that is iff
  the rigid component of uv in G - w is {u, v}.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import InputError, InternalInvariantError, UnsupportedSizeError
from .graph import (
    Edge,
    Graph,
    _canonical_search,
    canonical_form,
    edge,
    freedom_number,
    induced_subgraph,
    is_m_connected,
)


class _PebbleGame:
    """The (2,3) pebble game (Jacobs & Hendrickson 1997; Lee & Streinu 2008) after
    inserting G's edges in ascending order, played on vertex indices 0..n-1 in
    ascending label order.  Each vertex owns two pebbles, free (`pebbles[i]`)
    or covering an edge that then points away from it; `out[i]` lists the at
    most two heads of i's edges and `into[i]` is the set of their tails, both
    kept on every move.  `independent` turns False, ending the game, at the
    first edge that cannot gather 4 pebbles.  Queries take vertex indices
    (`index` maps labels to them) and return vertex sets as bitmasks of
    indices, which `members` turns into labels."""

    def __init__(self, g: Graph):
        self.labels = g.sorted_vertices()
        self.index = index = {v: i for i, v in enumerate(self.labels)}
        n = len(self.labels)
        self.pebbles = pebbles = [2] * n
        self.out: list[list[int]] = [[] for _ in range(n)]
        self.into: list[set[int]] = [set() for _ in range(n)]
        self.independent = True
        for u, v in g.sorted_edges():
            i, j = index[u], index[v]
            if not self._gather(i, j, 4):
                self.independent = False
                return
            pebbles[i] -= 1
            self.out[i].append(j)
            self.into[j].add(i)

    def copy(self) -> _PebbleGame:
        """A game in the same state that moves only its own pebbles."""
        game = _PebbleGame.__new__(_PebbleGame)
        game.labels, game.index, game.independent = self.labels, self.index, self.independent
        game.pebbles = self.pebbles.copy()
        game.out = list(map(list.copy, self.out))
        game.into = list(map(set.copy, self.into))
        return game

    def _take_pebble(self, root: int, other: int) -> bool:
        # DFS along the orientation for a vertex other than root and `other`
        # with a spare pebble; reverse the path to bring the pebble to `root`.
        pebbles, out, into = self.pebbles, self.out, self.into
        parent = {root: root}
        stack = [root]
        while stack:
            v = stack.pop()
            for w in out[v]:
                if w in parent:
                    continue
                parent[w] = v
                if pebbles[w] and w != other:
                    pebbles[w] -= 1
                    while w != root:
                        p = parent[w]
                        out[w].append(p)
                        into[p].add(w)
                        out[p].remove(w)
                        into[w].discard(p)
                        w = p
                    pebbles[root] += 1
                    return True
                stack.append(w)
        return False

    def _gather(self, i: int, j: int, count: int) -> bool:
        # Bring `count` free pebbles onto i and j; False if they cannot be found.
        pebbles = self.pebbles
        while pebbles[i] + pebbles[j] < count:
            if not self._take_pebble(i, j) and not self._take_pebble(j, i):
                return False
        return True

    def _hold(self, i: int, j: int) -> None:
        # three free pebbles on the edge ij; an independent game always has them
        if not self._gather(i, j, 3):
            edge_labels = (self.labels[i], self.labels[j])
            raise InternalInvariantError(f"edge {edge_labels} cannot hold three pebbles")

    def _component(self, i: int, j: int, x: int) -> int:
        """The rigid component of the edge ij in G - x, for x not i or j, as
        a bitmask of vertex indices: with three pebbles on ij, the vertices
        that reach neither x nor a free pebble off ij, found by one search
        against the orientation (along `into`) from x and the free pebbles."""
        self._hold(i, j)
        outside = list(map(bool, self.pebbles))
        outside[i] = outside[j] = False
        outside[x] = True
        into = self.into
        stack = list(itertools.compress(range(len(outside)), outside))
        while stack:
            for w in into[stack.pop()]:
                if not outside[w]:
                    outside[w] = True
                    stack.append(w)
        return sum(1 << k for k in itertools.compress(range(len(outside)), map(operator.not_, outside)))

    def _reaching(self) -> list[int]:
        """For each vertex w, the bitmask of the vertices that reach w along
        the orientation, w among them.  Tarjan's search along `into` closes a
        strongly connected class only after every class it reaches, so each
        class's mask is its own bits and the finished masks of its tails."""
        into = self.into
        n = len(into)
        reach = [0] * n
        order = [0] * n  # discovery number; 0 while unvisited
        low = [0] * n
        closed = [False] * n
        stack: list[int] = []
        count = 0
        for root in range(n):
            if order[root]:
                continue
            count += 1
            order[root] = low[root] = count
            stack.append(root)
            path = [(root, iter(into[root]))]
            while path:
                v, tails = path[-1]
                for w in tails:
                    if not order[w]:
                        count += 1
                        order[w] = low[w] = count
                        stack.append(w)
                        path.append((w, iter(into[w])))
                        break
                    if not closed[w] and order[w] < low[v]:
                        low[v] = order[w]
                else:
                    path.pop()
                    if path and low[v] < low[path[-1][0]]:
                        low[path[-1][0]] = low[v]
                    if low[v] == order[v]:
                        members = []
                        mask = 0
                        while not members or members[-1] != v:
                            w = stack.pop()
                            members.append(w)
                            mask |= 1 << w
                        for w in members:
                            for t in into[w]:
                                mask |= reach[t]
                        for w in members:
                            reach[w] = mask
                            closed[w] = True
        return reach

    def members(self, mask: int) -> frozenset[int]:
        """The labels of the vertex indices set in `mask`."""
        return frozenset(itertools.compress(self.labels, map(int, bin(mask)[:1:-1])))


def _game(g: Graph) -> _PebbleGame:
    """G's pebble game, played on the first call for this graph object and
    kept on it; callers never move its pebbles."""
    game = getattr(g, "_game", None)
    if game is None:
        game = _PebbleGame(g)
        object.__setattr__(g, "_game", game)
    return game


def is_independent(g: Graph) -> bool:
    """True iff every subgraph on n vertices with e edges has 2n - e >= 3."""
    return _game(g).independent


def is_laman(g: Graph) -> bool:
    return freedom_number(g) == 0 and is_independent(g)


def _vertex_deleted_components(g: Graph, final: _PebbleGame) -> Iterator[frozenset[int]]:
    """Rigid components (>= 3 vertices) of graphs G - x, from G's game `final`,
    among them every maximal MI proper subgraph; each is yielded once.  G must
    be independent: each component then induces an MI proper subgraph.  With
    x1 of least degree (smallest label on ties), G - x1 is asked about every
    edge not inside a component already found, and each other G - x only
    about the edges x1y, which the star restriction in the module docstring
    shows is enough.  All the questions move pebbles on one copy of `final`:
    one gather per edge of G - x1 and one per star edge, which answers every
    G - x at once from the vertices reaching each x."""
    if not g.vertices:
        return
    game = final.copy()
    index = game.index
    x1 = index[min(g.sorted_vertices(), key=g.degree)]
    # the components found so far; while G - x1 is asked, exactly its own
    found: set[int] = set()
    for u, v in g.sorted_edges():
        i, j = index[u], index[v]
        pair = 1 << i | 1 << j
        if x1 != i and x1 != j and not any(c & pair == pair for c in found):
            comp = game._component(i, j, x1)
            if comp.bit_count() >= 3:
                found.add(comp)
                yield game.members(comp)
    n = len(game.labels)
    full = (1 << n) - 1
    for y in sorted(index[w] for w in g.neighbors(game.labels[x1])):
        game._hold(x1, y)
        reach = game._reaching()
        loose = 0
        for k in itertools.compress(range(n), game.pebbles):
            if k != x1 and k != y:
                loose |= reach[k]
        for x in range(n):
            if x != x1 and x != y:
                comp = full & ~(loose | reach[x])
                if comp.bit_count() >= 3 and comp not in found:
                    found.add(comp)
                    yield game.members(comp)


def _no_proper_laman_subgraph(g: Graph, final: _PebbleGame) -> bool:
    """Whether the Laman graph G, with its game `final`, has no proper Laman
    subgraph of 3 or more vertices.  On 4 or more vertices a triangle is one,
    and so is G - v for a vertex v of degree 2 (it keeps 2(n-1) - 3 edges), so
    only graphs with neither reach the MI search."""
    if g.n >= 4:
        adj = g._adj
        for v, nbrs in adj.items():
            if len(nbrs) == 2 or any(w > v and not adj[w].isdisjoint(nbrs) for w in nbrs):
                return False
    return not any(_vertex_deleted_components(g, final))


def is_basic(g: Graph) -> bool:
    """Laman with no proper subgraph (>= 3 vertices) of freedom number 0."""
    return is_laman(g) and _no_proper_laman_subgraph(g, _game(g))


def internal_vertices(g: Graph, subset: frozenset[int]) -> frozenset[int]:
    """Vertices of the induced subgraph on `subset` with no neighbour outside."""
    return frozenset(v for v in subset if g.neighbors(v) <= subset)


def attachment_vertices(g: Graph, subset: frozenset[int]) -> list[int]:
    """Vertices of `subset` adjacent to the rest of the graph, ascending."""
    return sorted(v for v in subset if not g.neighbors(v) <= subset)


def mi_proper_subgraphs(g: Graph) -> list[frozenset[int]]:
    """Vertex sets of the containment-maximal MI proper subgraphs (>= 3
    vertices) of an independent graph, ordered by their sorted vertex lists."""
    if not is_independent(g):
        raise InputError("maximally independent subgraphs are defined for independent graphs")
    found = set(_vertex_deleted_components(g, _game(g)))
    return sorted((w for w in found if not any(w < other for other in found)), key=sorted)


def maximal_mi_subgraph(g: Graph) -> Graph | None:
    """A containment-maximal maximally independent proper subgraph, or None.

    Returns None exactly when the graph is basic.  If any MI proper subgraph
    has an internal vertex the returned one does too (needed by the reduction
    engine's surgery step); an internal vertex of W stays internal in every
    superset of W.  Ties break by smallest canonical form, then vertex tuple;
    a single candidate needs no tie-break, so only a tie of two or more
    reaches the canonical form's size cap.
    """
    if not is_laman(g):
        raise InputError("maximal MI subgraphs are defined for Laman graphs")
    maximal = mi_proper_subgraphs(g)
    if not maximal:
        return None
    maximal = [w for w in maximal if internal_vertices(g, w)] or maximal
    graphs = [induced_subgraph(g, w) for w in maximal]
    if len(graphs) > 1:
        graphs.sort(key=lambda h: (canonical_form(h), tuple(h.sorted_vertices())))
    return graphs[0]


def triangles_through(g: Graph, e: Edge) -> list[int]:
    """Common neighbours of the endpoints (apexes of 3-cycles through e)."""
    u, v = edge(*e)
    return sorted(g.neighbors(u) & g.neighbors(v))


def is_contractible(g: Graph, e: Edge) -> bool:
    """True iff e lies in exactly one 3-cycle and G/e is again Laman, decided
    by the contraction criterion in the module docstring.  G must be Laman
    and e one of its edges; an edge in more or fewer than one 3-cycle gives
    False."""
    e = edge(*e)
    if not is_laman(g):
        raise InputError("contractibility is defined for Laman graphs")
    if e not in g.edges:
        raise InputError(f"edge {e} not in the graph")
    return _contractible(g, _game(g).copy(), e)


def _contractible(g: Graph, game: _PebbleGame, e: Edge) -> bool:
    """`is_contractible` of the edge e, a sorted pair, of the Laman graph G,
    asked by moving pebbles on `game`, a copy of G's game."""
    apexes = triangles_through(g, e)
    if len(apexes) != 1:
        return False
    index = game.index
    i, j = index[e[0]], index[e[1]]
    return game._component(i, j, index[apexes[0]]) == 1 << i | 1 << j


def _contractibility(g: Graph) -> Callable[[Edge], bool]:
    """`is_contractible` for the edges, sorted pairs, of the Laman graph G,
    with the checks left to the caller: every question moves pebbles on one
    copy of G's game, as an MI search does, and each edge is decided once."""
    game = _game(g).copy()
    answers: dict[Edge, bool] = {}

    def contractible(e: Edge) -> bool:
        if e not in answers:
            answers[e] = _contractible(g, game, e)
        return answers[e]

    return contractible


def fan_edges(cycle: tuple[int, ...]) -> list[Edge]:
    """Cycle c1..cm..c1 plus the chords (c1,c3)..(c1,c{m-1}): 2m-3 edges."""
    m = len(cycle)
    es = [edge(cycle[i], cycle[(i + 1) % m]) for i in range(m)]
    es += [edge(cycle[0], cycle[i]) for i in range(2, m - 1)]
    return es


def surgery(g: Graph, r: Graph) -> Graph:
    """Strip the maximally independent subgraph R from G and fan-triangulate
    R's attachment vertices, the fan following their ascending order.  Every
    precondition failure is named."""
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
    return _surgery(g, r)


def _surgery(g: Graph, r: Graph) -> Graph:
    """`surgery` once G is known to be 3-connected and Laman and R to be one
    of its MI proper subgraphs, vertex induced."""
    cycle = tuple(attachment_vertices(g, r.vertices))
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


def _henneberg_moves(nbrs: list[list[int]]) -> list[tuple[int, ...]]:
    """The one-vertex Henneberg moves on the graph with neighbour index lists
    `nbrs`, in the census's order: move I on the vertex pair u < v as (u, v),
    then move II on each edge u < v, in ascending order, and a third vertex z
    as (u, v, z)."""
    n = len(nbrs)
    moves: list[tuple[int, ...]] = list(itertools.combinations(range(n), 2))
    for u in range(n):
        for v in sorted(w for w in nbrs[u] if w > u):
            moves += [(u, v, z) for z in range(n) if z != u and z != v]
    return moves


def _child_neighbours(nbrs: list[list[int]], move: tuple[int, ...]) -> list[list[int]]:
    """The Henneberg child's neighbour index lists; the new vertex is
    len(nbrs).  Move I joins it to u and v; move II also joins it to z and
    deletes the edge uv.  Both preserve the Laman property.  The lists of the
    vertices the move leaves alone are shared."""
    new = len(nbrs)
    child = nbrs.copy()
    u, v = move[0], move[1]
    if len(move) == 2:
        child[u] = nbrs[u] + [new]
        child[v] = nbrs[v] + [new]
    else:
        child[u] = [w for w in nbrs[u] if w != v] + [new]
        child[v] = [w for w in nbrs[v] if w != u] + [new]
        child[move[2]] = nbrs[move[2]] + [new]
    child.append(list(move))
    return child


def _move_image(sigma: list[int], move: tuple[int, ...]) -> tuple[int, ...]:
    """The move that the automorphism sigma maps `move` to."""
    u, v = sigma[move[0]], sigma[move[1]]
    if u > v:
        u, v = v, u
    return (u, v) if len(move) == 2 else (u, v, sigma[move[2]])


def _moves_up_to_symmetry(nbrs: list[list[int]]) -> Iterator[tuple[int, ...]]:
    """The moves of `_henneberg_moves(nbrs)`, in order, that no automorphism
    of the graph maps to an earlier move."""
    # the identity comes first; moves are distinct, so it skips nothing
    others = _canonical_search(nbrs, automorphisms=True)[1][1:]
    skipped: set[tuple[int, ...]] = set()
    for move in _henneberg_moves(nbrs):
        if move not in skipped:
            skipped.update(_move_image(sigma, move) for sigma in others)
            yield move


def enumerate_laman(n: int) -> CensusResult:
    """All Laman graphs on n vertices up to isomorphism, by Henneberg closure.

    Every graph of a level has the labels 0..k-1, so its labels are its
    vertex indices.  `_child_neighbours` gives a child's neighbour index
    lists; the child is keyed on them, and its `Graph` is built from them,
    and its one pebble game played, only when its key is new; the game
    checks that it is Laman and, on the last level, whether it is basic,
    and is then dropped.  A move that an automorphism of the parent maps to
    an earlier move of the same parent is skipped: its child is isomorphic to
    one already keyed, so the first child of every class, which is the
    class's representative, is the one plain closure would keep.
    """
    lo, hi = _CENSUS_RANGE
    if not lo <= n <= hi:
        raise UnsupportedSizeError(f"census supports {lo} <= n <= {hi}")
    triangle = Graph({0, 1, 2}, [(0, 1), (0, 2), (1, 2)])
    level = {_canonical_search([[1, 2], [0, 2], [0, 1]])[0]: triangle}
    # the triangle has no proper subgraph of 3 or more vertices
    basics = set(level) if n == 3 else set()
    for new in range(3, n):
        next_level: dict[bytes, Graph] = {}
        for parent in level.values():
            nbrs = [list(parent.neighbors(v)) for v in range(new)]
            for move in _moves_up_to_symmetry(nbrs):
                child = _child_neighbours(nbrs, move)
                key = _canonical_search(child)[0]
                if key in next_level:
                    continue
                pairs = [(i, j) for i, row in enumerate(child) for j in row if i < j]
                g = next_level[key] = Graph(range(new + 1), pairs)
                game = _PebbleGame(g)
                if not (freedom_number(g) == 0 and game.independent):
                    raise InternalInvariantError("Henneberg move produced a non-Laman graph")
                if new == n - 1 and _no_proper_laman_subgraph(g, game):
                    basics.add(key)
        level = next_level
    forms = sorted(level)
    return CensusResult(
        n, tuple(forms), tuple(f for f in forms if f in basics), tuple(level[f] for f in forms)
    )
