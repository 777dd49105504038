import random

import pytest

from rigicert import rigidity
from rigicert.decomposition import decompose_unique
from rigicert.graph import Block, Graph, edge
from rigicert.rigidity import enumerate_laman


def triangle() -> Graph:
    return Graph({0, 1, 2}, [(0, 1), (0, 2), (1, 2)])


def k4() -> Graph:
    return Graph(range(4), [(a, b) for a in range(4) for b in range(a + 1, 4)])


def k4_minus_edge() -> Graph:
    # missing edge (0,1); separation pair is {2,3}
    return Graph(range(4), [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def k5() -> Graph:
    return Graph(range(5), [(a, b) for a in range(5) for b in range(a + 1, 5)])


def k33(labels=(1, 4, 6, 2, 3, 5)) -> Graph:
    # parts are the first and last three labels
    left, right = labels[:3], labels[3:]
    return Graph(labels, [(a, b) for a in left for b in right])


def henneberg_ii_from_k33(seed: int, n: int) -> Graph:
    """K(3,3) grown to n vertices by seeded Henneberg II moves: split an edge
    uv by a new vertex that is also joined to a third vertex z.  Every result
    is a 3-connected, non-planar Laman graph."""
    rng = random.Random(seed)
    g = k33(labels=tuple(range(6)))
    while g.n < n:
        u, v = rng.choice(g.sorted_edges())
        z = rng.choice(sorted(g.vertices - {u, v}))
        x = g.n
        g = Graph(g.vertices | {x}, (g.edges - {(u, v)}) | {edge(u, x), edge(v, x), edge(z, x)})
    return g


def henneberg_ii_plus_triangle() -> Graph:
    """`henneberg_ii_from_k33(3, 13)` with the triangle 13-14-15 joined to it by
    the edges (0,13), (1,14), (2,15): a 16-vertex 3-connected Laman graph
    whose maximal MI proper subgraphs have 13 and 3 vertices."""
    g = henneberg_ii_from_k33(3, 13)
    joined = [(13, 14), (14, 15), (13, 15), (0, 13), (1, 14), (2, 15)]
    return Graph(g.vertices | {13, 14, 15}, g.edges | set(joined))


def prism() -> Graph:
    return Graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


def g5() -> Graph:
    # K4 minus (0,1) glued with the path 0-4-1; separation pair {0,1}
    return Graph(range(5), [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4)])


def two_triangles() -> Graph:
    # triangles 0-1-2 and 1-2-3 sharing edge (1,2)
    return Graph(range(4), [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def four_cycle() -> Graph:
    return Graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])


def triangle_strip(n: int) -> Graph:
    """Vertex v joined to v - 1 and v - 2: n - 2 triangles in a row, each
    block split peeling off one of them."""
    edges = [(0, 1)] + [(u, v) for v in range(2, n) for u in (v - 2, v - 1)]
    return Graph(range(n), edges)


def relabel(g: Graph, mapping: dict[int, int]) -> Graph:
    return Graph((mapping[v] for v in g.vertices), (edge(mapping[u], mapping[v]) for u, v in g.edges))


def decompose_relabelled(g: Graph, rng: random.Random):
    """`decompose_unique` of g under a seeded permutation of its labels, with
    the blocks and the separation pairs mapped back to g's labels."""
    labels = g.sorted_vertices()
    shuffled = labels[:]
    rng.shuffle(shuffled)
    forward = dict(zip(labels, shuffled))
    back = {w: v for v, w in forward.items()}

    def edges_back(es):
        return frozenset(edge(back[u], back[v]) for u, v in es)

    d = decompose_unique(relabel(g, forward))
    blocks = frozenset(
        Block(relabel(b.subgraph, back), edges_back(b.virtual_edges), edges_back(b.redundant_flags))
        for b in d.blocks
    )
    return blocks, [edge(back[ev.pair[0]], back[ev.pair[1]]) for ev in d.events]


@pytest.fixture(scope="session")
def census_by_n():
    return {n: enumerate_laman(n) for n in range(3, 9)}


@pytest.fixture
def pebble_games(monkeypatch):
    """The graphs that pebble games are built on while the test runs, in order."""
    built: list[Graph] = []
    init = rigidity._PebbleGame.__init__

    def counting_init(game, g):
        built.append(g)
        init(game, g)

    monkeypatch.setattr(rigidity._PebbleGame, "__init__", counting_init)
    return built


@pytest.fixture
def graphs_built(monkeypatch):
    """The graphs constructed while the test runs, in order."""
    built: list[Graph] = []
    init = Graph.__init__

    def counting_init(g, vertices=(), edges=()):
        init(g, vertices, edges)
        built.append(g)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    return built


@pytest.fixture
def validating_constructions(monkeypatch):
    """The classes whose public, validating constructor ran while the test
    runs, one entry per construction, in order."""
    from rigicert.algebra.multipoly import MultiPoly
    from rigicert.algebra.unipoly import UniPoly

    built: list[str] = []
    for cls in (MultiPoly, UniPoly):
        init = cls.__init__

        def counting_init(p, *args, init=init, name=cls.__name__, **kwargs):
            built.append(name)
            init(p, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    return built
