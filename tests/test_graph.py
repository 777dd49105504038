import itertools
import random

import networkx as nx
import pytest

from rigicert.decomposition import _split_block
from rigicert.errors import InputError, ParseError, UnsupportedSizeError
from rigicert.graph import (
    MAX_DECLARED_VERTICES,
    Block,
    Graph,
    _canonical_search,
    _separating_sets,
    _triconnected,
    canonical_form,
    connected_components,
    contract_edge,
    format_graph,
    freedom_number,
    induced_subgraph,
    is_m_connected,
    is_planar,
    parse_graph,
    separation_pairs,
)

from conftest import g5, henneberg_ii_from_k33, k4, k4_minus_edge, k5, k33, prism, relabel, triangle, two_triangles
from oracles import (
    automorphism_count_exhaustive,
    canonical_form_recursive,
    henneberg_children_by_label,
    is_planar_kuratowski,
    separating_sets_exhaustive,
)


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    return h


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(range(n), edges)


def test_graph_invariants():
    with pytest.raises(InputError):
        Graph({0, 1}, [(0, 0)])
    with pytest.raises(InputError):
        Graph({0, 1}, [(0, 2)])
    with pytest.raises(InputError):
        Graph({-1, 0}, [])
    g = Graph({0, 1}, [(1, 0), (0, 1)])  # same edge both ways collapses
    assert g.e == 1 and g.has_edge(0, 1)


def test_freedom_number_examples():
    assert freedom_number(triangle()) == 0
    assert freedom_number(k33()) == 0
    assert freedom_number(k4()) == -1
    assert freedom_number(Graph()) == -3
    assert freedom_number(Graph({7})) == -1


def test_freedom_gluing_identity():
    # join disjoint H and K at a shared pair {a,b} with (ab) in neither
    rng = random.Random(7)
    for _ in range(200):
        nh, nk = rng.randint(2, 6), rng.randint(2, 6)
        h = random_graph(rng, nh)
        k = random_graph(rng, nk)
        a, b = 100, 101
        hv = list(h.vertices) + [a, b]
        kv = [v + 50 for v in k.vertices] + [a, b]
        h_edges = set(h.edges)
        k_edges = {(u + 50, v + 50) for u, v in k.edges}
        # attach a and b to a random vertex of each part so labels appear
        h_edges |= {(rng.randrange(nh), a), (rng.randrange(nh), b)}
        k_edges |= {(rng.randrange(nk) + 50, a), (rng.randrange(nk) + 50, b)}
        hg = Graph(hv, h_edges)
        kg = Graph(kv, k_edges)
        union = Graph(set(hv) | set(kv), hg.edges | kg.edges)
        assert freedom_number(union) == freedom_number(hg) + freedom_number(kg) - 1


def test_induced_subgraph():
    assert induced_subgraph(k4(), {1, 2, 3}) == Graph({1, 2, 3}, [(1, 2), (1, 3), (2, 3)])
    g = k33()
    assert induced_subgraph(g, g.vertices) == g
    sub = induced_subgraph(g, {1, 2, 3})
    assert sub.sorted_edges() == [(1, 2), (1, 3)]
    with pytest.raises(InputError):
        induced_subgraph(g, {1, 99})


def test_is_m_connected_examples():
    assert is_m_connected(k33(), 3)
    assert not is_m_connected(k4_minus_edge(), 3)
    assert not is_m_connected(Graph({0, 1, 2}, [(0, 1), (1, 2)]), 2)
    assert is_m_connected(triangle(), 2)
    assert not is_m_connected(triangle(), 3)  # |G| > m fails
    # one DFS deeper than the interpreter's recursion limit
    n = 5000
    path = [(v, v + 1) for v in range(n - 1)]
    assert is_m_connected(Graph(range(n), path + [(0, n - 1)]), 2)
    assert not is_m_connected(Graph(range(n), path), 2)


def test_is_m_connected_against_bruteforce():
    rng = random.Random(3)
    # non-contiguous labels; a cut vertex 5, an isolated vertex 11, a leaf 7
    # whose neighbour 3 leaves it alone, empty and one-vertex graphs
    graphs = [
        Graph(),
        Graph({4}),
        Graph({2, 9}),
        Graph({2, 5, 9, 11}, [(2, 5), (5, 9)]),
        Graph({1, 3, 5, 7, 20, 30}, [(1, 3), (1, 5), (3, 5), (3, 7), (5, 20), (5, 30), (20, 30)]),
        Graph({1, 3, 5, 8, 13}, [(1, 3), (3, 5), (5, 1), (8, 13)]),
    ]
    for _ in range(150):
        n = rng.randint(1, 12)
        labels = rng.sample(range(3 * n), n)
        p = rng.uniform(0.1, 0.9)
        graphs.append(Graph(labels, [e for e in itertools.combinations(labels, 2) if rng.random() < p]))
    for g in graphs:
        for k in range(4):
            assert list(_separating_sets(g, k)) == separating_sets_exhaustive(g, k)
        for m in (1, 2, 3, 4):
            brute = g.n > m and not any(
                _separates_brute(g, set(rem))
                for rem in itertools.combinations(g.vertices, m - 1)
            )
            assert is_m_connected(g, m) == brute
        if g.n >= 4 and len(connected_components(g)) == 1:
            brute_pairs = [
                pair
                for pair in itertools.combinations(g.sorted_vertices(), 2)
                if _separates_brute(g, set(pair))
            ]
            assert separation_pairs(g) == brute_pairs
        for k in range(min(3, g.n) + 1):
            for removed in itertools.combinations(g.sorted_vertices(), k):
                rest = induced_subgraph(g, g.vertices - set(removed))
                assert connected_components(g, removed) == connected_components(rest)


def test_is_m_connected_refuses_an_m_that_is_not_an_int():
    # a path is not 2-connected, yet m = 2.5 read it as such, and "3" raised
    # a bare TypeError
    path = Graph(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)])
    for m in (2.5, "3", 3.0, True, None):
        with pytest.raises(InputError, match="^m must be a positive integer$"):
            is_m_connected(path, m)
    assert not is_m_connected(path, 2) and is_m_connected(path, 1)


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        ([1.5, 2], [(1.5, 2)], "^integer vertex label expected, got 1.5$"),
        ([True, 2], [(True, 2)], "^integer vertex label expected, got True$"),
        (["a"], [], "^integer vertex label expected, got 'a'$"),
        ([0, 1, 2], [(0, 1, 2)], "^an edge is not a pair of vertex labels"),
        ([0, 1], [0], "^an edge is not a pair of vertex labels"),
        ([1, 2], [(1.0, 2)], "^edge \\(1.0, 2\\) has an endpoint that is not an int$"),
        ([1, 3], [(True, 3)], "^edge \\(True, 3\\) has an endpoint that is not an int$"),
        ([0, 1], [(0, 1), (1, 5)], "^edge \\(1,5\\) has an endpoint outside the vertex set$"),
        ([-1, 0], [(-1, 0)], "^vertex label -1 is negative$"),
    ],
)
def test_graph_refuses_malformed_labels_and_edges(vertices, edges, message):
    # the float and the bool were accepted, "a" raised TypeError and the
    # triple ValueError; an endpoint 1.0 or True, equal to the label 1, was
    # kept in the edge and printed as "e 1.0 2".  The last two were refused
    # before too; the endpoint check now runs in the adjacency pass
    with pytest.raises(InputError, match=message):
        Graph(vertices, edges)


def wheel(n: int) -> Graph:
    """Hub 0 joined to the cycle 1..n-1."""
    return Graph(range(n), [(0, v) for v in range(1, n)] + [(v, v % (n - 1) + 1) for v in range(1, n)])


def least_degree_three(rng: random.Random, n: int) -> Graph:
    """A sparse random graph on n vertices with edges added until every vertex
    has degree 3 or more."""
    edges = {e for e in itertools.combinations(range(n), 2) if rng.random() < 2.5 / n}
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    for v in range(n):
        while degree[v] < 3:
            w = rng.randrange(n)
            if w != v and (min(v, w), max(v, w)) not in edges:
                edges.add((min(v, w), max(v, w)))
                degree[v] += 1
                degree[w] += 1
    return Graph(range(n), edges)


def glued(rng: random.Random, pieces: list[Graph], shared: int, with_edge: bool) -> Graph:
    """The pieces, each with `shared` of its vertices sent to 0 (and 1) and
    the rest to fresh labels, with or without the edge 01: the vertex 0, or
    the pair {0, 1}, separates them."""
    edges: set = set()
    fresh = shared
    for piece in pieces:
        mapping = dict(zip(rng.sample(piece.sorted_vertices(), shared), range(shared)))
        for v in piece.sorted_vertices():
            if v not in mapping:
                mapping[v] = fresh
                fresh += 1
        edges |= relabel(piece, mapping).edges
    if shared == 2:
        edges = edges | {(0, 1)} if with_edge else edges - {(0, 1)}
    return Graph(range(fresh), edges)


def shuffled_labels(rng: random.Random, g: Graph) -> Graph:
    """g on distinct labels drawn from 0..3n+4, so they need not be contiguous."""
    labels = g.sorted_vertices()
    return relabel(g, dict(zip(labels, rng.sample(range(3 * len(labels) + 5), len(labels)))))


def test_triconnected_against_the_scan_and_networkx(census_by_n):
    rng = random.Random(26)
    graphs = list(census_by_n[7].representatives) + list(census_by_n[8].representatives)
    graphs += [shuffled_labels(rng, henneberg_ii_from_k33(s, rng.randint(6, 40))) for s in range(60)]
    graphs += [shuffled_labels(rng, least_degree_three(rng, rng.randint(4, 40))) for _ in range(300)]
    pieces = [k4(), k5(), prism(), k33(), wheel(6), wheel(8)]
    pieces += [henneberg_ii_from_k33(s, rng.randint(7, 12)) for s in range(8)]
    for shared in (1, 2, 2):
        for _ in range(40):
            g = glued(rng, rng.sample(pieces, rng.randint(2, 3)), shared, shared == 2 and rng.random() < 0.5)
            graphs.append(shuffled_labels(rng, g))
    graphs += [wheel(n) for n in range(4, 12)] + [shuffled_labels(rng, wheel(30)), wheel(200)]
    # disconnected: two K4s, and K5 beside an isolated vertex
    graphs += [Graph(range(8), k4().edges | relabel(k4(), {v: v + 4 for v in range(4)}).edges)]
    graphs += [Graph({0, 1, 2, 3, 4, 9}, k5().edges)]
    # every graph on 4 and 5 vertices
    for n in (4, 5):
        pairs = list(itertools.combinations(range(n), 2))
        graphs += [Graph(range(n), itertools.compress(pairs, bits)) for bits in itertools.product((0, 1), repeat=len(pairs))]
    answers = []
    for g in graphs:
        scan = next(_separating_sets(g, 2), None) is None
        assert _triconnected(g) == scan == (nx.node_connectivity(to_nx(g)) >= 3), sorted(g.edges)
        answers.append(scan)
    # both answers occur often
    assert 300 < sum(answers) < len(answers) - 300


def _separates_brute(g: Graph, removed: set[int]) -> bool:
    rest = g.vertices - removed
    if len(rest) < 2:
        return False
    sub = induced_subgraph(g, rest)
    return len(connected_components(sub)) > 1


def test_separation_pairs_examples():
    assert separation_pairs(k4_minus_edge()) == [(2, 3)]
    assert separation_pairs(k33()) == []
    assert separation_pairs(g5()) == [(0, 1)]
    with pytest.raises(InputError):
        separation_pairs(Graph({0, 1, 2, 3}, [(0, 1), (2, 3)]))
    with pytest.raises(InputError):
        separation_pairs(triangle())


def split_parts(g: Graph, pair) -> list[Graph]:
    parts, _ = _split_block(Block(g), pair)
    return [p.subgraph for p in parts]


def test_separation_blocks():
    blocks = split_parts(k4_minus_edge(), (2, 3))
    keys = sorted(tuple(sorted(b.vertices)) for b in blocks)
    assert keys == [(0, 2, 3), (1, 2, 3)]
    for b in blocks:
        assert b.e == 3

    blocks = split_parts(g5(), (0, 1))
    keys = sorted(tuple(sorted(b.vertices)) for b in blocks)
    assert keys == [(0, 1, 2, 3), (0, 1, 4)]

    bowtie = Graph(range(4), [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    blocks = split_parts(bowtie, (0, 1))
    assert all(b.n == 3 and b.e == 3 for b in blocks)


def test_separation_block_union_and_intersection(census_by_n):
    # the parts of a Laman graph cut at any of its separation pairs: the
    # pair's edge is added where missing, and the parts meet only in it
    checked = 0
    for n in range(4, 8):
        for g in census_by_n[n].representatives:
            for p in separation_pairs(g):
                blocks = split_parts(g, p)
                union_v = set().union(*(b.vertices for b in blocks))
                union_e = set().union(*(b.edges for b in blocks))
                assert union_v == g.vertices and union_e == g.edges | {p}
                for b1, b2 in itertools.combinations(blocks, 2):
                    assert b1.vertices & b2.vertices == set(p)
                    assert b1.edges & b2.edges == {p}
                checked += 1
    assert checked == 168


def test_contract_edge():
    g = two_triangles()
    c = contract_edge(g, (0, 1))
    assert c.n == 3 and c.e == 3 and freedom_number(c) == 0
    c2 = contract_edge(g, (1, 2))
    assert c2.n == 3 and c2.e == 2 and freedom_number(c2) == 1
    assert contract_edge(triangle(), (0, 2)).sorted_edges() == [(0, 1)]
    with pytest.raises(InputError):
        contract_edge(g, (0, 3))
    # merged vertex keeps the smaller label
    assert 0 in contract_edge(g, (0, 1)).vertices
    assert 1 not in contract_edge(g, (0, 1)).vertices


def test_contract_edge_counts():
    rng = random.Random(5)
    for _ in range(100):
        g = random_graph(rng, rng.randint(3, 8), rng.uniform(0.3, 0.9))
        if not g.edges:
            continue
        e = sorted(g.edges)[rng.randrange(g.e)]
        common = len(g.neighbors(e[0]) & g.neighbors(e[1]))
        c = contract_edge(g, e)
        assert c.n == g.n - 1
        assert c.e == g.e - 1 - common


def test_canonical_form_invariance():
    rng = random.Random(13)
    for _ in range(80):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph([perm[v] for v in g.vertices], [(perm[u], perm[v]) for u, v in g.edges])
        assert canonical_form(g) == canonical_form(h)


def test_canonical_form_exhaustive_small():
    g = k33()
    base = canonical_form(g)
    labels = sorted(g.vertices)
    for perm in itertools.permutations(range(len(labels))):
        mapping = {labels[i]: labels[perm[i]] for i in range(len(labels))}
        h = Graph(g.vertices, [(mapping[u], mapping[v]) for u, v in g.edges])
        assert canonical_form(h) == base


def test_canonical_form_separates_non_isomorphic():
    assert canonical_form(k33()) != canonical_form(prism())
    assert canonical_form(triangle()) != canonical_form(Graph({0, 1, 2}, [(0, 1), (1, 2)]))
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, 0.5)
        h = random_graph(rng, n, 0.5)
        same = canonical_form(g) == canonical_form(h)
        assert same == nx.is_isomorphic(to_nx(g), to_nx(h))


def test_canonical_form_matches_the_recursive_search_on_labels():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(0, 10)
        labels = rng.sample(range(50), n)
        p = rng.uniform(0.2, 0.8)
        edges = [(labels[i], labels[j]) for i, j in itertools.combinations(range(n), 2) if rng.random() < p]
        g = Graph(labels, edges)
        assert canonical_form(g) == canonical_form_recursive(g)


def test_canonical_form_matches_the_recursive_search_on_census_children(census_by_n):
    children = [c for g in census_by_n[7].representatives for c in henneberg_children_by_label(g)]
    assert len(children) > 5000
    for child in children:
        assert canonical_form(child) == canonical_form_recursive(child)


def test_canonical_search_yields_every_automorphism():
    rng = random.Random(29)
    graphs = [k33(), prism(), k4(), k5(), triangle(), Graph(range(6)), Graph(range(1))]
    graphs += [random_graph(rng, rng.randint(1, 7), rng.uniform(0.2, 0.8)) for _ in range(60)]
    for g in graphs:
        index = {v: i for i, v in enumerate(g.sorted_vertices())}
        nbrs = [sorted(index[w] for w in g.neighbors(v)) for v in g.sorted_vertices()]
        edges = {tuple(sorted((index[u], index[v]))) for u, v in g.edges}
        form, automorphisms = _canonical_search(nbrs, automorphisms=True)
        assert form == canonical_form(g)
        assert automorphisms[0] == list(range(g.n))
        assert len(automorphisms) == automorphism_count_exhaustive(g)
        assert len({tuple(sigma) for sigma in automorphisms}) == len(automorphisms)
        for sigma in automorphisms:
            assert {tuple(sorted((sigma[u], sigma[v]))) for u, v in edges} == edges
        assert _canonical_search(nbrs) == (form, [])
    assert automorphism_count_exhaustive(k33()) == 72


def test_canonical_form_size_cap():
    big = Graph(range(13))
    with pytest.raises(UnsupportedSizeError):
        canonical_form(big)


def test_is_planar_examples():
    assert is_planar(triangle())
    assert not is_planar(k33())
    assert not is_planar(k5())
    assert is_planar(prism())
    assert is_planar(k4())
    # K5 subdivision: subdivide one edge
    g = Graph(range(6), [(a, b) for a in range(5) for b in range(a + 1, 5) if (a, b) != (0, 1)] + [(0, 5), (1, 5)])
    assert not is_planar(g)


def test_is_planar_against_networkx():
    rng = random.Random(23)
    for _ in range(120):
        n = rng.randint(4, 9)
        g = random_graph(rng, n, rng.uniform(0.25, 0.7))
        expected, _ = nx.check_planarity(to_nx(g))
        assert is_planar(g) == expected


def test_is_planar_against_kuratowski_oracle():
    rng = random.Random(29)
    seen = set()
    for _ in range(150):
        n = rng.randint(5, 10)
        g = random_graph(rng, n, rng.uniform(0.25, 0.6))
        expected = is_planar_kuratowski(g)
        assert is_planar(g) == expected
        seen.add(expected)
    assert seen == {True, False}


def test_is_planar_against_networkx_up_to_60_vertices():
    rng = random.Random(31)
    seen = set()
    for _ in range(200):
        n = rng.randint(10, 60)
        # about 1.5n down to 3n edges: either side of planarity
        g = random_graph(rng, n, rng.uniform(3.0, 6.0) / (n - 1))
        expected, _ = nx.check_planarity(to_nx(g))
        assert is_planar(g) == expected
        seen.add(expected)
    assert seen == {True, False}


def maximal_planar(rng: random.Random, n: int) -> set[tuple[int, int]]:
    """Edges of a seeded random triangulation of the sphere on n >= 4
    vertices: stacked vertices in random faces, then random edge flips."""
    faces = [(0, 1, 2), (0, 1, 2)]
    for d in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces += [(a, b, d), (b, c, d), (a, c, d)]
    edges = {tuple(sorted(pair)) for f in faces for pair in itertools.combinations(f, 2)}
    for _ in range(3 * n):
        u, v = rng.choice(sorted(edges))
        both = [f for f in faces if u in f and v in f]
        x, y = (next(w for w in f if w not in (u, v)) for f in both)
        if x == y or tuple(sorted((x, y))) in edges:
            continue
        for f in both:
            faces.remove(f)
        faces += [(x, y, u), (x, y, v)]
        edges = (edges - {(u, v)}) | {tuple(sorted((x, y)))}
    return edges


def test_is_planar_on_maximal_planar_graphs_and_one_edge_more():
    rng = random.Random(37)
    seen = set()
    for _ in range(60):
        n = rng.randint(10, 60)
        edges = maximal_planar(rng, n)
        assert len(edges) == 3 * n - 6
        assert is_planar(Graph(range(n), edges))
        missing = [pair for pair in itertools.combinations(range(n), 2) if pair not in edges]
        extra = rng.choice(missing)
        assert not is_planar(Graph(range(n), edges | {extra}))
        # below the 3n - 6 bound the extra edge is decided by the search itself
        thinned = set(rng.sample(sorted(edges), len(edges) - rng.randint(1, n // 2))) | {extra}
        g = Graph(range(n), thinned)
        expected, _ = nx.check_planarity(to_nx(g))
        assert is_planar(g) == expected
        seen.add(expected)
    assert seen == {True, False}


def subdivided(rng: random.Random, g: Graph, extra_vertices: int) -> Graph:
    """g with randomly chosen edges subdivided by extra_vertices new vertices."""
    edges = set(g.edges)
    label = max(g.vertices) + 1
    for _ in range(extra_vertices):
        u, v = rng.choice(sorted(edges))
        edges = (edges - {(u, v)}) | {(u, label), (v, label)}
        label += 1
    return Graph(set(g.vertices) | set(range(max(g.vertices) + 1, label)), edges)


def padded(rng: random.Random, g: Graph, pieces: int) -> Graph:
    """g with planar pieces (wheels and grids) glued on at one vertex, along
    one edge, or left apart as further components, then relabelled."""
    vertices, edges = set(g.vertices), set(g.edges)
    for _ in range(pieces):
        base = max(vertices) + 1
        if rng.random() < 0.5:
            k = rng.randint(3, 7)  # wheel: hub `base`, rim base+1..base+k
            piece = [(base, base + i) for i in range(1, k + 1)]
            piece += [(base + i, base + i % k + 1) for i in range(1, k + 1)]
        else:
            r, c = rng.randint(2, 4), rng.randint(2, 4)
            piece = [(base + i * c + j, base + i * c + j + 1) for i in range(r) for j in range(c - 1)]
            piece += [(base + i * c + j, base + (i + 1) * c + j) for i in range(r - 1) for j in range(c)]
        glue = rng.choice(("vertex", "edge", "apart"))
        mapping: dict[int, int] = {}
        if glue == "vertex":
            mapping[base] = rng.choice(sorted(vertices))
        elif glue == "edge":
            u, v = rng.choice(sorted(edges))
            mapping[piece[0][0]], mapping[piece[0][1]] = u, v
        for a, b in piece:
            a, b = mapping.get(a, a), mapping.get(b, b)
            vertices |= {a, b}
            edges.add((min(a, b), max(a, b)))
    relabel = dict(zip(sorted(vertices), rng.sample(range(10 * len(vertices)), len(vertices))))
    return Graph(relabel.values(), [(relabel[u], relabel[v]) for u, v in edges])


def test_is_planar_on_padded_kuratowski_subdivisions():
    rng = random.Random(41)
    for _ in range(80):
        core = rng.choice((k5(), k33()))
        g = padded(rng, subdivided(rng, core, rng.randint(0, 6)), rng.randint(1, 4))
        assert not is_planar(g)
        # one core edge fewer and the same padding is planar
        u, v = rng.choice(core.sorted_edges())
        h = padded(rng, subdivided(rng, core.without_edges([(u, v)]), rng.randint(0, 6)), rng.randint(1, 4))
        assert is_planar(h) and nx.check_planarity(to_nx(h))[0]  # 2-sums of planar graphs


def test_is_planar_disconnected_and_cut_vertices():
    rng = random.Random(43)
    for _ in range(60):
        parts = [random_graph(rng, rng.randint(5, 9), rng.uniform(0.3, 0.7)) for _ in range(rng.randint(2, 4))]
        vertices, edges, offset = set(), set(), 0
        for part in parts:
            vertices |= {v + offset for v in part.vertices}
            edges |= {(u + offset, v + offset) for u, v in part.edges}
            offset += part.n
        apart = Graph(vertices, edges)
        assert is_planar(apart) == all(is_planar(part) for part in parts)
        assert is_planar(apart) == nx.check_planarity(to_nx(apart))[0]
        # chain the parts at single shared vertices: every join is a cut vertex
        starts = [0]
        for part in parts[:-1]:
            starts.append(starts[-1] + part.n - 1)
        chained = Graph(
            {v + s for part, s in zip(parts, starts) for v in part.vertices},
            {(u + s, v + s) for part, s in zip(parts, starts) for u, v in part.edges},
        )
        assert is_planar(chained) == all(is_planar(part) for part in parts)
        assert is_planar(chained) == nx.check_planarity(to_nx(chained))[0]


def test_is_planar_on_the_laman_census(census_by_n):
    for n in range(3, 9):
        for g in census_by_n[n].representatives:
            expected, _ = nx.check_planarity(to_nx(g))
            assert is_planar(g) == expected == is_planar_kuratowski(g)


def test_is_planar_deep_graphs_need_no_recursion():
    n = 5000
    cycle = Graph(range(n), [(i, (i + 1) % n) for i in range(n)])
    assert is_planar(cycle)
    k = 60
    grid = Graph(
        range(k * k),
        [(i * k + j, i * k + j + 1) for i in range(k) for j in range(k - 1)]
        + [(i * k + j, (i + 1) * k + j) for i in range(k - 1) for j in range(k)],
    )
    assert is_planar(grid)
    # K(3,3) at the far end of a 5,000-vertex path
    tail = [(i, i + 1) for i in range(n)] + [(n + a, n + b) for a in range(3) for b in range(3, 6)]
    assert not is_planar(Graph(range(n + 6), tail))


def test_parse_and_format_roundtrip():
    g = k33()
    text = format_graph(g)
    assert parse_graph(text) == g
    assert parse_graph(format_graph(g, single_line=True)) == g
    text_with_comments = "# a comment\nn 3\ne 0 1 # trailing\ne 1 2\ne 0 2\n"
    assert parse_graph(text_with_comments) == triangle()


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_graph("e 0 1\n")  # no n-line
    with pytest.raises(ParseError):
        parse_graph("n 2\ne 0 0\n")
    with pytest.raises(ParseError):
        parse_graph("n 2\ne 0 1\ne 1 0\n")
    with pytest.raises(ParseError):
        parse_graph("n 1\ne 0 1\n")
    with pytest.raises(ParseError):
        parse_graph("n 2\nq 3\n")
    with pytest.raises(ParseError):  # refused before the fill, so fast and small
        parse_graph(f"n {MAX_DECLARED_VERTICES + 1}\ne 0 1\n")
    err = None
    try:
        parse_graph("n 3\ne 0 1\ne 0 x\n")
    except ParseError as exc:
        err = exc
    assert err is not None and err.line == 3


def test_parse_fills_isolated_vertices():
    g = parse_graph("n 4\ne 0 1\n")
    assert g.vertices == {0, 1, 2, 3}
