import copy
import itertools
import random

import pytest

from rigicert import rigidity
from rigicert.decomposition import reduce_to_terminal
from rigicert.errors import InputError, UnsupportedSizeError
from rigicert.graph import (
    Graph,
    _canonical_search,
    canonical_form,
    contract_edge,
    freedom_number,
    induced_subgraph,
    is_m_connected,
    is_planar,
)
from rigicert.rigidity import (
    attachment_vertices,
    enumerate_laman,
    fan_edges,
    internal_vertices,
    is_basic,
    is_contractible,
    is_independent,
    is_laman,
    maximal_mi_subgraph,
    mi_proper_subgraphs,
    surgery,
    triangles_through,
)

from conftest import four_cycle, henneberg_ii_from_k33, k4, k4_minus_edge, k33, prism, triangle, two_triangles
from oracles import (
    containment_maximal,
    enumerate_laman_closure,
    enumerate_laman_exhaustive,
    henneberg_children_by_label,
    is_contractible_by_contraction,
    is_independent_exhaustive,
    mi_proper_subgraphs_all_vertex_scan,
    mi_subgraphs_exhaustive,
    rigid_component_exhaustive,
)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(range(n), edges)


def test_is_independent_examples():
    assert is_independent(k33())
    assert not is_independent(k4())
    assert is_independent(Graph({0, 1}, [(0, 1)]))
    assert is_independent(Graph())
    assert is_independent(four_cycle())


def test_is_independent_matches_oracle_small():
    # every labelled graph on up to 5 vertices
    for n in range(1, 6):
        for edges in _all_edge_sets(n):
            g = Graph(range(n), edges)
            assert is_independent(g) == is_independent_exhaustive(g), edges


def _all_edge_sets(n):
    all_edges = list(itertools.combinations(range(n), 2))
    for size in range(len(all_edges) + 1):
        yield from itertools.combinations(all_edges, size)


def test_is_independent_matches_oracle_random():
    rng = random.Random(29)
    for _ in range(400):
        n = rng.randint(6, 8)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        assert is_independent(g) == is_independent_exhaustive(g)


def test_is_laman_examples():
    assert is_laman(k33())
    assert is_laman(triangle())
    assert not is_laman(four_cycle())
    assert not is_laman(k4())
    assert is_laman(two_triangles())
    assert is_laman(prism())


def test_is_basic_examples():
    assert is_basic(k33())
    assert not is_basic(k4_minus_edge())
    assert is_basic(triangle())
    assert not is_basic(prism())
    assert not is_basic(two_triangles())


def test_maximal_mi_subgraph():
    assert maximal_mi_subgraph(k33()) is None
    r = maximal_mi_subgraph(k4_minus_edge())
    assert r is not None and freedom_number(r) == 0
    assert r.vertices == {0, 2, 3}  # deterministic tie-break picks this triangle
    # containment-maximal: no strictly larger MI proper subgraph
    for w in mi_subgraphs_exhaustive(k4_minus_edge()):
        assert not (r.vertices < w)
    r2 = maximal_mi_subgraph(prism())
    assert r2 is not None and freedom_number(r2) == 0
    with pytest.raises(InputError):
        maximal_mi_subgraph(k4())
    with pytest.raises(InputError):
        mi_proper_subgraphs(k4())


def test_maximal_mi_subgraph_keeps_internal_vertex():
    # H1 extension of the prism: new vertex 6 on vertices (0,1); the prism is
    # an MI proper subgraph with internal vertices of the result
    g = Graph(range(7), prism().edges | {(0, 6), (1, 6)})
    assert is_laman(g)
    r = maximal_mi_subgraph(g)
    assert r is not None
    assert internal_vertices(g, r.vertices)


def _henneberg_graphs(seed: int, count: int, max_n: int, min_n: int = 4) -> list[Graph]:
    """Seeded random Laman graphs of min_n..max_n vertices grown from a
    triangle, each relabelled with distinct random labels below 100."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        g = triangle()
        for _ in range(rng.randint(min_n, max_n) - 3):
            g = rng.choice(henneberg_children_by_label(g))
        relabel = dict(zip(g.sorted_vertices(), rng.sample(range(100), g.n)))
        graphs.append(Graph(relabel.values(), [(relabel[u], relabel[v]) for u, v in g.edges]))
    return graphs


def _check_mi_queries_against_oracle(g: Graph) -> None:
    family = mi_subgraphs_exhaustive(g)
    maximal = containment_maximal(family)
    assert mi_proper_subgraphs(g) == maximal
    assert is_basic(g) == (not family)
    r = maximal_mi_subgraph(g)
    if not family:
        assert r is None
        return
    # the documented choice over the whole family: a maximal candidate with
    # an internal vertex if any MI proper subgraph has one, then the smallest
    # canonical form, then the smallest vertex tuple
    if any(internal_vertices(g, w) for w in family):
        maximal = [w for w in maximal if internal_vertices(g, w)]
    best = min(maximal, key=lambda w: (canonical_form(induced_subgraph(g, w)), tuple(sorted(w))))
    assert r == induced_subgraph(g, best)


def test_mi_queries_match_oracle_on_census(census_by_n):
    for n in range(3, 9):
        for g in census_by_n[n].representatives:
            _check_mi_queries_against_oracle(g)


def test_mi_queries_match_oracle_on_relabelled_henneberg_graphs():
    graphs = _henneberg_graphs(seed=31, count=120, max_n=11)
    assert max(g.n for g in graphs) == 11
    for g in graphs:
        assert is_laman(g)
        _check_mi_queries_against_oracle(g)


def test_mi_proper_subgraphs_match_oracle_on_independent_graphs():
    # not only Laman graphs: the least-degree vertex of the star restriction
    # may have degree 0 or 1, and the graph may be disconnected
    rng = random.Random(43)
    checked = with_mi = 0
    while checked < 600:
        g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.1, 0.7))
        if is_independent(g):
            family = mi_subgraphs_exhaustive(g)
            assert mi_proper_subgraphs(g) == containment_maximal(family)
            checked += 1
            with_mi += bool(family)
    assert with_mi > 100


def test_internal_vertices_persist_in_maximal_mi_subgraphs(census_by_n):
    # an MI proper subgraph with an internal vertex lies in a maximal one that
    # keeps it internal, so maximal_mi_subgraph need look at no other candidate
    graphs = [g for n in range(6, 9) for g in census_by_n[n].representatives]
    graphs += _henneberg_graphs(seed=37, count=60, max_n=11)
    with_internal = 0
    for g in graphs:
        family = mi_subgraphs_exhaustive(g)
        maximal = containment_maximal(family)
        for w in family:
            inner = internal_vertices(g, w)
            if inner:
                assert any(w <= m and inner <= internal_vertices(g, m) for m in maximal)
                with_internal += 1
    assert with_internal > 100


def test_mi_queries_on_a_20_vertex_three_connected_graph():
    # Henneberg II edge splits from K(3,3); far beyond the oracle's reach
    g = henneberg_ii_from_k33(seed=20, n=20)
    assert is_laman(g) and is_m_connected(g, 3)
    maximal = mi_proper_subgraphs(g)
    assert maximal and not is_basic(g)
    for w in maximal:
        assert 3 <= len(w) < g.n and is_laman(induced_subgraph(g, w))
        assert not any(w < other for other in maximal)


def test_rigidity_questions_share_one_kept_pebble_game(pebble_games):
    # the first question plays the game and keeps it on the graph; the rest
    # read it, moving pebbles only on copies
    g = henneberg_ii_from_k33(seed=20, n=20)
    assert is_independent(g)
    game = g._game
    before = copy.deepcopy((game.pebbles, game.out, game.into))
    assert is_laman(g) and not is_basic(g)
    maximal = mi_proper_subgraphs(g)
    assert maximal_mi_subgraph(g).vertices in maximal
    contractible = [is_contractible(g, e) for e in g.sorted_edges()]
    assert len(pebble_games) == 1 and pebble_games[0] is g
    assert g._game is game and (game.pebbles, game.out, game.into) == before
    # an equal graph built separately plays its own game, and fresh games
    # give the same answers as the kept one
    assert [is_contractible(Graph(g.vertices, g.edges), e) for e in g.sorted_edges()] == contractible
    twin = Graph(g.vertices, g.edges)
    assert twin == g and mi_proper_subgraphs(twin) == maximal
    assert twin._game is not game and pebble_games[-1] is twin
    assert len(pebble_games) == 2 + g.e


def test_census_keeps_no_pebble_game(pebble_games):
    census = enumerate_laman(8)
    assert len(pebble_games) > census.laman_count
    assert not any(hasattr(g, "_game") for g in census.representatives)


@pytest.mark.parametrize("n", [20, 40, 60, 80])
def test_mi_queries_match_all_vertex_scan_beyond_the_subset_oracle(n):
    # the graph itself (not basic) and the basic terminal its reduction ends at
    g = henneberg_ii_from_k33(seed=n, n=n)
    graphs = [g] + [t for t, _ in reduce_to_terminal(g).terminals]
    assert [is_basic(h) for h in graphs] == [False] + [True] * (len(graphs) - 1)
    for h in graphs:
        maximal = mi_proper_subgraphs_all_vertex_scan(h)
        assert mi_proper_subgraphs(h) == maximal
        assert is_basic(h) == (not maximal)


def _oracle_graphs(census_by_n):
    """Relabelled census graphs, independent non-Laman graphs made from them
    by deleting one to three edges, and Henneberg graphs of 9 vertices."""
    rng = random.Random(47)
    graphs = []
    for n in range(4, 9):
        reps = census_by_n[n].representatives
        for g in rng.sample(reps, min(12, len(reps))):
            relabel = dict(zip(g.sorted_vertices(), rng.sample(range(100), g.n)))
            graphs.append(Graph(relabel.values(), [(relabel[u], relabel[v]) for u, v in g.edges]))
    deleted = [g.without_edges(rng.sample(g.sorted_edges(), rng.randint(1, 3))) for g in graphs]
    return graphs, deleted, _henneberg_graphs(seed=47, count=8, max_n=9, min_n=9)


def test_rigid_components_match_tight_set_oracle(census_by_n):
    # one copy of G's game answers every (x, edge of G - x) in turn, so each
    # query starts from the orientation the earlier ones left behind
    laman, deleted, henneberg = _oracle_graphs(census_by_n)
    larger = 0
    for g in laman + deleted + henneberg:
        final = rigidity._PebbleGame(g)
        assert final.independent
        before = copy.deepcopy((final.pebbles, final.out, final.into))
        game = final.copy()
        for x in g.sorted_vertices():
            h = induced_subgraph(g, g.vertices - {x})
            for u, v in h.sorted_edges():
                mask = game._component(game.index[u], game.index[v], game.index[x])
                component = game.members(mask)
                assert component == rigid_component_exhaustive(h, u, v), (g, x, (u, v))
                larger += len(component) > 2
        # both directions of the orientation still agree, and pebbles are kept
        tails = [{t for t, heads in enumerate(game.out) if w in heads} for w in range(g.n)]
        assert game.into == tails
        assert all(p + len(heads) == 2 for p, heads in zip(game.pebbles, game.out))
        # the copy shares no list or set with the game it came from
        assert (final.pebbles, final.out, final.into) == before
    assert larger > 2000


def test_reaching_masks_match_forward_searches(census_by_n):
    # after a gather on each edge, every vertex's mask of the vertices
    # reaching it against a search along `out` from each vertex; the
    # orientations have cycles, so some classes hold more than one vertex
    laman, deleted, henneberg = _oracle_graphs(census_by_n)
    cyclic = 0
    for g in laman + deleted + henneberg + [henneberg_ii_from_k33(seed=3, n=40)]:
        game = rigidity._PebbleGame(g).copy()
        for u, v in g.sorted_edges():
            game._hold(game.index[u], game.index[v])
            reaching = game._reaching()
            for z in range(g.n):
                seen, stack = {z}, [z]
                while stack:
                    for w in game.out[stack.pop()]:
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
                assert all((reaching[w] >> z) & 1 == (w in seen) for w in range(g.n)), (g, (u, v), z)
            cyclic += len(set(reaching)) < g.n
    assert cyclic > 100


def test_star_restricted_search_call_count(monkeypatch, pebble_games):
    # one copy of G's game per search; G - x1 gathers once per edge it asks
    # about and each star edge x1y once for every G - x: at most e gathers
    g = henneberg_ii_from_k33(seed=2, n=80)
    assert is_independent(g)
    gathers, copies = [], []
    gather, copy_game = rigidity._PebbleGame._gather, rigidity._PebbleGame.copy

    def counting_gather(game, i, j, count):
        gathers.append((i, j))
        return gather(game, i, j, count)

    def counting_copy(game):
        copies.append(game)
        return copy_game(game)

    monkeypatch.setattr(rigidity._PebbleGame, "_gather", counting_gather)
    monkeypatch.setattr(rigidity._PebbleGame, "copy", counting_copy)
    for search in (mi_proper_subgraphs, maximal_mi_subgraph):
        gathers.clear()
        copies.clear()
        search(g)
        assert 0 < len(gathers) <= g.e
        assert copies == [g._game]
    assert pebble_games == [g]


def test_contractibility_criterion_matches_contraction(census_by_n):
    graphs = [g for n in range(4, 9) for g in census_by_n[n].representatives]
    graphs += _henneberg_graphs(seed=41, count=40, max_n=16, min_n=7)
    verdicts = [
        (is_contractible(g, e), is_contractible_by_contraction(g, e)) for g in graphs for e in g.sorted_edges()
    ]
    assert all(fast == slow for fast, slow in verdicts)
    contractible = sum(fast for fast, _ in verdicts)
    assert 1000 < contractible < len(verdicts) - 1000


def test_contraction_query_on_relabelled_and_edge_deleted_graphs(census_by_n):
    # the relabelled Laman graphs against contraction; on the edge-deleted
    # ones, which hold free pebbles off the gathered edge, both functions
    # refuse, and the query behind them still says whether G/uv is independent
    laman, deleted, _ = _oracle_graphs(census_by_n)
    rng = random.Random(3)
    deleted += [g.without_edges([rng.choice(g.sorted_edges())]) for g in census_by_n[8].representatives]
    verdicts = [(is_contractible(g, e), is_contractible_by_contraction(g, e)) for g in laman for e in g.sorted_edges()]
    assert all(fast == slow for fast, slow in verdicts)
    assert 0 < sum(fast for fast, _ in verdicts) < len(verdicts)
    answers = []
    for g in deleted:
        for function in (is_contractible, is_contractible_by_contraction):
            with pytest.raises(InputError, match="defined for Laman graphs"):
                function(g, g.sorted_edges()[0])
        game = rigidity._PebbleGame(g)
        for u, v in g.sorted_edges():
            apexes = triangles_through(g, (u, v))
            if len(apexes) == 1:
                i, j = game.index[u], game.index[v]
                alone = game.copy()._component(i, j, game.index[apexes[0]]) == 1 << i | 1 << j
                answers.append(alone)
                assert alone == is_independent(contract_edge(g, (u, v))), (g, (u, v))
    assert set(answers) == {True, False}


def test_is_contractible():
    g = two_triangles()
    assert is_contractible(g, (0, 1))
    assert not is_contractible(g, (1, 2))  # lies in two 3-cycles
    for e in k33().sorted_edges():
        assert not is_contractible(k33(), e)  # bipartite: no 3-cycles
    with pytest.raises(InputError):
        is_contractible(four_cycle(), (0, 1))


def test_fan_edges_shapes():
    assert sorted(fan_edges((0, 1, 2))) == [(0, 1), (0, 2), (1, 2)]
    m4 = fan_edges((0, 1, 2, 3))
    assert len(m4) == 5 and (0, 2) in m4
    m5 = fan_edges((0, 1, 2, 3, 4))
    assert len(m5) == 7 and (0, 2) in m5 and (0, 3) in m5
    # fan always has freedom 0
    for m in range(3, 8):
        g = Graph(range(m), fan_edges(tuple(range(m))))
        assert freedom_number(g) == 0 and is_laman(g)


def test_surgery_prism_face():
    g = prism()
    r = induced_subgraph(g, {0, 1, 2})
    result = surgery(g, r)
    assert result == g  # replacing a triangle face by a triangle


def test_surgery_preconditions_named():
    g = prism()
    bad = Graph({0, 1, 2}, [(0, 1), (0, 2)])  # not the induced subgraph
    with pytest.raises(InputError, match="vertex induced"):
        surgery(g, bad)
    with pytest.raises(InputError, match="3-connected"):
        surgery(two_triangles().with_edges([]), induced_subgraph(two_triangles(), {0, 1, 2}))
    with pytest.raises(InputError, match="maximally independent"):
        surgery(k4(), induced_subgraph(k4(), {0, 1, 2}))


def test_surgery_preserves_rigidity_properties(census_by_n):
    # run surgery over every maximal MI subgraph of 3-connected census graphs
    checked = 0
    for n in (6, 7):
        for g in census_by_n[n].representatives:
            if not is_m_connected(g, 3):
                continue
            r = maximal_mi_subgraph(g)
            if r is None:
                continue
            h = surgery(g, r)
            assert freedom_number(h) == freedom_number(g)
            assert is_laman(h)
            assert is_m_connected(h, 3)
            cyc = attachment_vertices(g, r.vertices)
            for i in range(len(cyc)):
                assert is_contractible(h, (cyc[i], cyc[(i + 1) % len(cyc)]))
            checked += 1
    assert checked > 0


def test_enumerate_laman_counts_small():
    assert enumerate_laman(3).laman_count == 1
    assert enumerate_laman(4).laman_count == 1
    assert enumerate_laman(5).laman_count == 3
    # exhaustive cross-check on all 2n-3 edge sets
    for n in (4, 5):
        assert set(enumerate_laman(n).laman_canonical_forms) == enumerate_laman_exhaustive(n)


def test_enumerate_laman_contains_k33():
    forms = enumerate_laman(6).laman_canonical_forms
    assert canonical_form(k33()) in forms
    assert canonical_form(prism()) in forms


def test_enumerate_laman_exhaustive_cross_check_n6(census_by_n):
    # scan all 5005 nine-edge graphs on 6 vertices with the subgraph oracle
    assert set(census_by_n[6].laman_canonical_forms) == enumerate_laman_exhaustive(6)


def test_enumerate_laman_all_laman_and_stable(census_by_n):
    for n in (6, 7):
        census = census_by_n[n]
        for g in census.representatives:
            assert is_laman(g)
        again = enumerate_laman(n)
        assert again.representatives == census.representatives


def test_basic_census_counts(census_by_n):
    assert len(census_by_n[6].basic_canonical_forms) == 1
    assert census_by_n[6].basic_canonical_forms[0] == canonical_form(k33())
    assert len(census_by_n[7].basic_canonical_forms) == 0
    assert len(census_by_n[8].basic_canonical_forms) == 2
    for census in census_by_n.values():
        forms = census.laman_canonical_forms
        assert len(set(forms)) == len(forms)
        assert set(census.basic_canonical_forms) <= set(forms)


def test_census_counts_match_the_literature(census_by_n):
    # Laman graphs on n vertices up to isomorphism: OEIS A227117
    assert [census_by_n[n].laman_count for n in range(3, 9)] == [1, 1, 3, 13, 70, 608]
    assert [census_by_n[n].basic_count for n in range(3, 9)] == [1, 0, 0, 1, 0, 2]


@pytest.mark.parametrize("n", range(3, 9))
def test_census_matches_plain_henneberg_closure(census_by_n, n):
    # the orbit-pruned census keeps the first child of every class, as
    # plain closure does: the same forms, basics and representatives, in order
    forms, basics, reps = enumerate_laman_closure(n)
    census = census_by_n[n]
    assert list(census.laman_canonical_forms) == forms
    assert list(census.basic_canonical_forms) == basics
    assert [g.sorted_edges() for g in census.representatives] == [g.sorted_edges() for g in reps]


def test_census_keeps_the_first_move_of_each_orbit(census_by_n):
    # a move is kept iff no automorphism maps it to an earlier move, and each
    # skipped move's child is isomorphic to the child of an earlier kept move
    skipped = 0
    for g in [g for n in range(3, 8) for g in census_by_n[n].representatives]:
        nbrs = [list(g.neighbors(v)) for v in range(g.n)]
        kept = list(rigidity._moves_up_to_symmetry(nbrs))
        moves = rigidity._henneberg_moves(nbrs)
        index = {move: i for i, move in enumerate(moves)}
        automorphisms = _canonical_search(nbrs, automorphisms=True)[1]

        def image(sigma, move):
            return (*sorted(sigma[x] for x in move[:2]), *(sigma[x] for x in move[2:]))

        assert kept == [m for i, m in enumerate(moves) if all(index[image(s, m)] >= i for s in automorphisms)]
        forms = {}
        for move in moves:
            form = _canonical_search(rigidity._child_neighbours(nbrs, move))[0]
            if move in kept:
                forms.setdefault(form, index[move])
            else:
                assert forms[form] < index[move]
                skipped += 1
    assert skipped > 0


def _has_triangle_or_degree_two(g: Graph) -> bool:
    return any(g.degree(v) == 2 for v in g.vertices) or any(g.neighbors(u) & g.neighbors(v) for u, v in g.edges)


def _shortcut_free_laman_graphs(seed: int, count: int) -> list[Graph]:
    """Seeded Laman graphs with no triangle and no vertex of degree 2: K(3,3),
    two copies of it glued along an edge (not basic), and random walks of one
    or two steps from the glued pair through such Henneberg children."""
    # the copies share the edge (0, 3)
    edges = [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)] + [(a, b) for a in (0, 6, 7) for b in (3, 8, 9)]
    glued = Graph(range(10), edges)
    rng = random.Random(seed)
    graphs = [k33(), glued]
    for _ in range(count):
        g = glued
        for _ in range(rng.randint(1, 2)):
            g = rng.choice([c for c in henneberg_children_by_label(g) if not _has_triangle_or_degree_two(c)])
        graphs.append(g)
    return graphs


def test_basic_shortcut_agrees_with_the_mi_search():
    shortcut_free = _shortcut_free_laman_graphs(seed=41, count=30)
    graphs = _henneberg_graphs(seed=41, count=150, max_n=9, min_n=3) + shortcut_free + [prism(), k4_minus_edge()]
    for g in graphs:
        assert is_laman(g)
        basic = not mi_proper_subgraphs_all_vertex_scan(g)
        assert is_basic(g) == basic
        assert rigidity._no_proper_laman_subgraph(g, rigidity._PebbleGame(g)) == basic
        if g.n >= 4 and _has_triangle_or_degree_two(g):
            assert not basic
    # graphs the shortcut leaves to the MI search go both ways
    assert {is_basic(g) for g in shortcut_free} == {True, False}


def test_census_searches_for_subgraphs_only_in_basic_graphs(monkeypatch):
    searched = []
    search = rigidity._vertex_deleted_components

    def counting_search(g, final):
        searched.append(g.n)
        return search(g, final)

    monkeypatch.setattr(rigidity, "_vertex_deleted_components", counting_search)
    for n in range(3, 9):
        enumerate_laman(n)
    assert searched == [6, 8, 8]


def test_basic_census_range_errors():
    with pytest.raises(UnsupportedSizeError):
        enumerate_laman(2)
    with pytest.raises(UnsupportedSizeError):
        enumerate_laman(9)


def test_corollary_three_connected_nonplanar(census_by_n):
    # every basic Laman graph with more than 3 vertices in the census
    for n in range(4, 9):
        for form in census_by_n[n].basic_canonical_forms:
            g = census_by_n[n].representative(form)
            assert is_m_connected(g, 3)
            assert not is_planar(g)


def test_henneberg_children_all_laman():
    for child in henneberg_children_by_label(two_triangles()):
        assert is_laman(child)
