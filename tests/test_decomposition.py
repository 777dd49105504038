import inspect
import itertools
import random
import sys
from pathlib import Path

import pytest

from rigicert import decomposition, rigidity
from rigicert.decomposition import (
    QSClassification,
    StepKind,
    TerminalKind,
    Verdict,
    _first_separation_pair,
    _reduce_step,
    _split_block,
    decompose_unique,
    is_doublet,
    qs_classify,
    reduce_step,
    reduce_to_terminal,
)
from rigicert.errors import InputError
from rigicert.graph import (
    Block,
    Edge,
    Graph,
    canonical_form,
    connected_components,
    is_m_connected,
    is_planar,
    parse_graph,
    separation_pairs,
)
from rigicert.rigidity import internal_vertices, is_basic, is_laman, maximal_mi_subgraph, mi_proper_subgraphs

from conftest import (
    decompose_relabelled,
    four_cycle,
    g5,
    henneberg_ii_from_k33,
    henneberg_ii_plus_triangle,
    k4,
    k4_minus_edge,
    k33,
    prism,
    triangle,
    triangle_strip,
)
from oracles import containment_maximal, mi_subgraphs_exhaustive

REDUCE_LARGE = Path(__file__).parents[1] / "bench" / "inputs" / "seed-1" / "reduce-large"


def test_decompose_k4_minus_edge():
    d = decompose_unique(k4_minus_edge())
    assert len(d.blocks) == 2
    for b in d.blocks:
        assert b.is_triangle()
        assert not b.virtual_edges  # edge (2,3) is real in both blocks
    assert [ev.pair for ev in d.events] == [(2, 3)]


def test_decompose_g5():
    d = decompose_unique(g5())
    assert len(d.blocks) == 2
    by_size = sorted(d.blocks, key=lambda b: b.subgraph.n)
    tri, k4b = by_size
    assert tri.subgraph.vertices == {0, 1, 4}
    assert tri.virtual_edges == {(0, 1)} and not tri.redundant_flags
    assert k4b.subgraph.vertices == {0, 1, 2, 3}
    assert k4b.subgraph.e == 6  # K4 once the redundant edge is included
    assert k4b.virtual_edges == {(0, 1)} and k4b.redundant_flags == {(0, 1)}
    assert is_m_connected(k4b.subgraph, 3)
    assert is_laman(k4b.core())


def test_decompose_k33_single_block():
    d = decompose_unique(k33())
    assert len(d.blocks) == 1
    assert d.blocks[0].subgraph == k33()
    assert not d.blocks[0].virtual_edges
    assert d.events == ()


def test_decompose_errors():
    with pytest.raises(InputError):
        decompose_unique(k4())
    with pytest.raises(InputError):
        decompose_unique(triangle())


def test_decompose_order_invariance(census_by_n):
    # relabelling changes which pair is least, so the split order changes
    # while the blocks, mapped back, must not
    rng = random.Random(41)
    reordered = 0
    for n in (6, 7):
        for g in census_by_n[n].representatives:
            d = decompose_unique(g)
            pairs = [ev.pair for ev in d.events]
            for _ in range(3):
                blocks, relabelled_pairs = decompose_relabelled(g, rng)
                assert blocks == frozenset(d.blocks)
                reordered += relabelled_pairs != pairs
    assert reordered > 0


def first_pair_oracle(b: Block) -> Edge | None:
    """The split the decomposition is defined by: the least of all the
    separation pairs of the block's subgraph."""
    if b.subgraph.n < 4:
        return None
    pairs = separation_pairs(b.subgraph)
    return pairs[0] if pairs else None


def test_first_separation_pair_is_the_least_of_all(census_by_n):
    # over every block the decomposition meets, virtual edges included, and
    # every block the classification meets, the parts' cores
    blocks = 0
    for n in range(4, 9):
        for g in census_by_n[n].representatives:
            work = [Block(g)]
            events = []
            while work:
                b = work.pop(0)
                pair = _first_separation_pair(b)
                assert pair == first_pair_oracle(b)
                blocks += 1
                if pair is not None:
                    parts, event = _split_block(b, pair)
                    events.append(event)
                    work.extend(parts)
            assert tuple(events) == decompose_unique(g).events
            work = [Block(g)]
            while work:
                b = work.pop()
                pair = _first_separation_pair(b)
                assert pair == first_pair_oracle(b)
                blocks += 1
                if pair is not None:
                    parts, _ = _split_block(b, pair)
                    work.extend(Block(p.core(), p.virtual_edges - p.redundant_flags) for p in parts)
    assert blocks > sum(len(census_by_n[n].representatives) for n in range(4, 9))

    rng = random.Random(53)
    connected = 0
    while connected < 300:
        n = rng.randint(4, 9)
        p = rng.uniform(0.25, 0.7)
        g = Graph(range(n), [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        if len(connected_components(g)) == 1:
            assert _first_separation_pair(Block(g)) == first_pair_oracle(Block(g))
            connected += 1


def qs_witnesses_oracle(b: Block) -> list[Block]:
    """`qs_classify`'s witnesses by the recursive definition, in order."""
    if b.is_triangle():
        return []
    pair = first_pair_oracle(b)
    if pair is None:
        return [b]
    parts, _ = _split_block(b, pair)
    return [w for p in parts for w in qs_witnesses_oracle(Block(p.core(), p.virtual_edges - p.redundant_flags))]


def test_qs_classify_witnesses_in_recursive_order(census_by_n):
    graphs = [g for n in range(4, 9) for g in census_by_n[n].representatives]
    # K(3,3), the prism and K(3,3) again, glued at the edges (0,1) and (7,8)
    prism_edges = {(0, 1), (1, 6), (0, 6), (7, 8), (8, 9), (7, 9), (0, 7), (1, 8), (6, 9)}
    glued = Graph(
        range(14),
        k33(labels=(0, 2, 3, 1, 4, 5)).edges | prism_edges | k33(labels=(7, 10, 11, 8, 12, 13)).edges,
    )
    witnesses = qs_classify(glued).witness_blocks
    assert is_laman(glued) and [b.subgraph.n for b in witnesses] == [6, 6, 6]
    assert [is_planar(b.subgraph) for b in witnesses] == [False, True, False]
    for g in graphs + [glued]:
        assert list(qs_classify(g).witness_blocks) == qs_witnesses_oracle(Block(g))


def test_deep_chains_of_splits_need_no_recursion():
    g = triangle_strip(60)
    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        c = qs_classify(g)
        d = decompose_unique(g)
    finally:
        sys.setrecursionlimit(limit)
    assert c.verdict == Verdict.QS and c.witness_blocks == ()
    assert len(d.blocks) == 58 and all(b.is_triangle() for b in d.blocks)


@pytest.mark.parametrize("n", [6, 20])
def test_block_splits_build_one_graph_per_part(n, graphs_built):
    # a strip splits n - 3 times into two parts, each built once, and a
    # block with nothing to strip is its own core
    for split_all in (decompose_unique, qs_classify):
        g = triangle_strip(n)
        graphs_built.clear()
        split_all(g)
        assert len(graphs_built) == 2 * (n - 3)


def test_decompose_freedom_pattern_events(census_by_n):
    for n in range(4, 8):
        for g in census_by_n[n].representatives:
            d = decompose_unique(g)
            for ev in d.events:
                if ev.edge_was_present:
                    assert all(f == 0 for f in ev.part_freedoms)
                else:
                    assert sorted(ev.part_freedoms) == [0] + [1] * (len(ev.part_freedoms) - 1)
            assert any(not b.redundant_flags for b in d.blocks)


def test_decompose_blocks_rebuild_the_graph(census_by_n):
    # stripping all virtual edges, the blocks union back to the input
    for n in range(4, 8):
        for g in census_by_n[n].representatives:
            d = decompose_unique(g)
            vertices = set()
            edges = set()
            for b in d.blocks:
                vertices |= b.subgraph.vertices
                edges |= b.subgraph.edges - b.virtual_edges
            assert vertices == g.vertices and edges == g.edges


def test_qs_classify_examples():
    assert qs_classify(k4_minus_edge()).verdict == Verdict.QS
    assert qs_classify(g5()).verdict == Verdict.QS
    assert qs_classify(triangle()).verdict == Verdict.QS
    # the one-edge Laman graph K2: a ruler draws it, so no witness
    assert qs_classify(Graph(range(2), [(0, 1)])) == QSClassification(Verdict.QS, ())

    c = qs_classify(prism())
    assert c.verdict == Verdict.NOT_RS_PROVEN_PLANAR
    assert len(c.witness_blocks) == 1
    assert c.witness_blocks[0].subgraph == prism()

    c = qs_classify(k33())
    assert c.verdict == Verdict.NOT_RS_CONJECTURED
    assert c.witness_blocks[0].subgraph == k33()

    with pytest.raises(InputError):
        qs_classify(four_cycle())


def test_qs_classify_splits_at_a_virtual_edge():
    # qs_classify splits at {0,1}, then the freedom-1 part {0,1,2,3,5} (which
    # gained the virtual edge (0,1)) at {2,3}.  Its part {0,1,2,3} drops the
    # redundant edge (2,3) and splits again at {0,1}, already a virtual edge.
    # decompose_unique keeps (2,3) there, so it never reuses a pair.
    g = parse_graph("n 7 e 0 2 e 0 3 e 0 4 e 0 6 e 1 2 e 1 3 e 1 4 e 1 6 e 2 5 e 3 5 e 4 6")
    c = qs_classify(g)
    assert c.verdict == Verdict.QS and c.witness_blocks == ()

    d = decompose_unique(g)
    assert [ev.pair for ev in d.events] == [(0, 1), (2, 3)]
    blocks = [
        (sorted(b.subgraph.vertices), sorted(b.virtual_edges), sorted(b.redundant_flags))
        for b in d.blocks
    ]
    assert blocks == [
        ([0, 1, 2, 3], [(0, 1), (2, 3)], [(2, 3)]),
        ([0, 1, 4, 6], [(0, 1)], [(0, 1)]),
        ([2, 3, 5], [(2, 3)], []),
    ]


def test_qs_classify_census_verdict_counts(census_by_n):
    expected = {
        7: {"QS": 62, "NOT_RS_PROVEN_PLANAR": 5, "NOT_RS_CONJECTURED": 3},
        8: {"QS": 511, "NOT_RS_PROVEN_PLANAR": 60, "NOT_RS_CONJECTURED": 37},
    }
    for n, counts in expected.items():
        verdicts = [qs_classify(g).verdict.value for g in census_by_n[n].representatives]
        assert {v: verdicts.count(v) for v in counts} == counts
        assert len(verdicts) == sum(counts.values())


def test_qs_classify_henneberg_one_graphs():
    # pure vertex-addition growth keeps everything triangle-decomposable
    rng = random.Random(43)
    for _ in range(25):
        g = triangle()
        for _ in range(rng.randint(1, 5)):
            verts = g.sorted_vertices()
            u, v = rng.sample(verts, 2)
            w = max(verts) + 1
            g = Graph(g.vertices | {w}, g.edges | {(u, w), (v, w)})
        assert qs_classify(g).verdict == Verdict.QS


def test_is_doublet_is_prism(census_by_n):
    matches = [
        g
        for g in census_by_n[6].representatives
        if is_doublet(g)
    ]
    assert len(matches) == 1
    assert canonical_form(matches[0]) == canonical_form(prism())


def test_reduce_step_preconditions():
    with pytest.raises(InputError, match="non-basic"):
        reduce_step(k33())
    with pytest.raises(InputError, match="more than 6"):
        reduce_step(prism())
    with pytest.raises(InputError, match="3-connected"):
        reduce_step(g5())


def test_reduce_step_emits_smaller_three_connected(census_by_n):
    for g in census_by_n[8].representatives:
        if not is_m_connected(g, 3) or is_basic(g):
            continue
        children, records = reduce_step(g)
        assert children
        assert records[0].kind == StepKind.SURGERY
        for child in children:
            assert child.n <= 7
            assert is_laman(child)
            assert is_m_connected(child, 3)


def test_one_round_on_each_census_graph_never_splits_a_block(census_by_n):
    # one round on every 3-connected non-basic Laman graph of 7 and 8
    # vertices, the inputs every reduction round takes, counted by the kinds
    # of step it records; no round reaches the block-split branch
    surgery, contraction = StepKind.SURGERY, StepKind.CONTRACTION
    expected = {
        7: (3, 0, {(surgery,): 1, (surgery, contraction): 2}),
        8: (24, 2, {(surgery,): 11, (surgery, contraction): 11}),
    }
    for n, (three_connected, basic, kinds) in expected.items():
        graphs = [g for g in census_by_n[n].representatives if is_m_connected(g, 3)]
        rounds = []
        for g in graphs:
            r = maximal_mi_subgraph(g)
            if r is None:
                continue
            children, records = _reduce_step(g, r)
            rounds.append(tuple(record.kind for record in records))
            for child in children:
                assert is_laman(child) and is_m_connected(child, 3)
        assert len(graphs) == three_connected and len(graphs) - len(rounds) == basic
        assert {k: rounds.count(k) for k in set(rounds)} == kinds


def test_reduce_to_terminal_basics_and_doublet():
    trace = reduce_to_terminal(k33())
    assert trace.steps == () and trace.terminal_kind == TerminalKind.BASIC
    trace = reduce_to_terminal(prism())
    assert trace.steps == () and trace.terminal_kind == TerminalKind.DOUBLET


def test_reduce_to_terminal_census(census_by_n):
    ran = 0
    for n in (7, 8):
        for g in census_by_n[n].representatives:
            if not is_m_connected(g, 3):
                continue
            trace = reduce_to_terminal(g)
            assert trace.terminals
            for terminal, kind in trace.terminals:
                assert kind in (TerminalKind.BASIC, TerminalKind.DOUBLET)
                if kind == TerminalKind.DOUBLET:
                    assert is_doublet(terminal)
                else:
                    assert is_basic(terminal)
            for record in trace.steps:
                for out in record.output_graphs:
                    assert is_laman(out)
            # vertex counts weakly decrease through each record
            for record in trace.steps:
                for out in record.output_graphs:
                    assert out.n <= record.input_graph.n
            ran += 1
    assert ran > 0


def test_reduce_with_one_mi_candidate_above_12_vertices():
    # the only maximal MI subgraph with an internal vertex has 13 vertices, more
    # than canonical_form takes; a single candidate needs no tie-break
    g = henneberg_ii_plus_triangle()
    assert sorted(len(w) for w in mi_proper_subgraphs(g)) == [3, 13]
    trace = reduce_to_terminal(g)
    assert [record.kind for record in trace.steps] == [StepKind.SURGERY]
    assert trace.steps[0].detail.replaced.n == 13
    assert trace.steps[0].detail.attachment == (0, 1, 2)
    assert [(t.n, kind) for t, kind in trace.terminals] == [(6, TerminalKind.DOUBLET)]


def test_reduction_plays_one_pebble_game_per_graph(pebble_games):
    # one game per popped graph (each round pops one, each terminal one) plus
    # one per surgered graph
    trace = reduce_to_terminal(henneberg_ii_from_k33(2, 80))
    surgeries = sum(record.kind == StepKind.SURGERY for record in trace.steps)
    popped = surgeries + len(trace.terminals)
    assert surgeries >= 2
    assert len(pebble_games) <= popped + surgeries


def _replaces_no_internal_vertex(record) -> bool:
    return record.kind == StepKind.SURGERY and not internal_vertices(
        record.input_graph, record.detail.replaced.vertices
    )


def test_no_mi_subgraph_of_a_surgered_graph_has_an_internal_vertex(census_by_n):
    # the theorem in the decomposition docstring, which spares a round an MI
    # search of its surgered graph h: when the replaced subgraph has no
    # internal vertex, no MI proper subgraph of h has one.  Checked on every
    # such round of the reductions of the 3-connected census graphs of 7 and 8
    # vertices, of the default-seed benchmark's reduce-large graphs and of
    # Henneberg graphs of up to 160 vertices; an h of at most 10 vertices is
    # checked on every vertex subset too
    graphs = [g for n in (7, 8) for g in census_by_n[n].representatives if is_m_connected(g, 3)]
    graphs += [parse_graph(path.read_text()) for path in sorted(REDUCE_LARGE.glob("r*.txt"))]
    graphs += [henneberg_ii_from_k33(seed, n) for seed, n in ((1, 20), (1, 40), (2, 60), (2, 80), (2, 160))]
    rounds = exhaustive = 0
    for g in graphs:
        for record in reduce_to_terminal(g).steps:
            if not _replaces_no_internal_vertex(record):
                continue
            (h,) = record.output_graphs
            maximal = mi_proper_subgraphs(h)
            assert not any(internal_vertices(h, w) for w in maximal)
            rounds += 1
            if h.n <= 10:
                every = mi_subgraphs_exhaustive(h)
                assert containment_maximal(every) == maximal
                assert not any(internal_vertices(h, w) for w in every)
                exhaustive += 1
    assert len(graphs) == 27 + 568 + 5
    assert (rounds, exhaustive) == (1459, 1334)


def test_reduction_runs_one_mi_search_per_popped_graph(monkeypatch):
    # each popped graph (each round pops one, each terminal one) is searched
    # at most once; a round whose replaced subgraph has no internal vertex
    # searches no further graph
    searched: list[Graph] = []
    search = rigidity._vertex_deleted_components

    def counting_search(g, final):
        searched.append(g)
        return search(g, final)

    monkeypatch.setattr(rigidity, "_vertex_deleted_components", counting_search)
    trace = reduce_to_terminal(henneberg_ii_from_k33(2, 80))
    surgeries = [record for record in trace.steps if record.kind == StepKind.SURGERY]
    assert sum(map(_replaces_no_internal_vertex, surgeries)) >= 2
    assert len(searched) <= len(surgeries) + len(trace.terminals)


def test_a_round_asks_each_contractibility_question_once(monkeypatch, census_by_n):
    # the scan for an edge to contract reuses the answers for the fan's cycle
    # edges, and a round's questions all move pebbles on one copy of the
    # surgered graph's game
    rounds: list[list[tuple[int, Edge]]] = []
    copies: list[int] = []  # the games copied in each round
    copied = [0]
    ask, copy, reduce_round = rigidity._contractible, rigidity._PebbleGame.copy, decomposition._reduce_step

    def counting_ask(g, game, e):
        rounds[-1].append((id(g), e))
        return ask(g, game, e)

    def counting_copy(game):
        copied[0] += 1
        return copy(game)

    def counting_round(g, r):
        rounds.append([])
        before = copied[0]
        result = reduce_round(g, r)
        copies.append(copied[0] - before)
        return result

    monkeypatch.setattr(rigidity, "_contractible", counting_ask)
    monkeypatch.setattr(rigidity._PebbleGame, "copy", counting_copy)
    monkeypatch.setattr(decomposition, "_reduce_step", counting_round)
    graphs = [g for n in (7, 8) for g in census_by_n[n].representatives if is_m_connected(g, 3)]
    for g in graphs + [henneberg_ii_from_k33(2, 80)]:
        reduce_to_terminal(g)
    assert sum(map(bool, rounds)) >= 10
    for questions, games in zip(rounds, copies):
        assert len(set(questions)) == len(questions)
        assert games == (1 if questions else 0)


def test_contraction_block_split_instance():
    # frozen 10-vertex instance: contracting (0,1) (sole triangle {0,1,4},
    # every triangle vertex of degree >= 4) loses 3-connectivity, and the
    # decomposition of the contraction yields 3-connected blocks with exactly
    # one free of redundant edges -- the shape the reduction's block-split
    # branch consumes
    from rigicert.graph import contract_edge
    from rigicert.rigidity import internal_vertices, is_contractible, triangles_through

    from oracles import mi_subgraphs_exhaustive

    g = Graph(
        range(10),
        [(0, 1), (0, 4), (0, 6), (0, 7), (1, 3), (1, 4), (1, 8), (2, 5), (2, 6), (2, 8),
         (3, 5), (3, 7), (4, 6), (4, 9), (5, 7), (5, 9), (8, 9)],
    )
    assert is_laman(g) and is_m_connected(g, 3) and not is_basic(g)
    assert not any(internal_vertices(g, w) for w in mi_subgraphs_exhaustive(g))
    e = (0, 1)
    assert is_contractible(g, e)
    apexes = triangles_through(g, e)
    assert len(apexes) == 1
    assert all(g.degree(v) >= 4 for v in set(e) | set(apexes))
    contracted = contract_edge(g, e)
    assert is_laman(contracted) and not is_m_connected(contracted, 3)
    d = decompose_unique(contracted)
    assert len(d.blocks) == 2
    for b in d.blocks:
        assert is_m_connected(b.subgraph, 3)
    redundant_free = [b for b in d.blocks if not b.redundant_flags]
    assert len(redundant_free) == 1
    assert is_laman(redundant_free[0].core())
    # the engine itself resolves the graph end to end (beyond the census size)
    trace = reduce_to_terminal(g)
    assert all(k in (TerminalKind.BASIC, TerminalKind.DOUBLET) for _, k in trace.terminals)


def test_reduce_trace_deterministic(census_by_n):
    targets = [g for g in census_by_n[7].representatives if is_m_connected(g, 3) and not is_basic(g)]
    for g in targets:
        t1 = reduce_to_terminal(g)
        t2 = reduce_to_terminal(g)
        assert [s.kind for s in t1.steps] == [s.kind for s in t2.steps]
        assert [canonical_form(s.input_graph) for s in t1.steps] == [
            canonical_form(s.input_graph) for s in t2.steps
        ]
        assert canonical_form(t1.terminal) == canonical_form(t2.terminal)
