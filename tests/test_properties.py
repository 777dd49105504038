"""Property-based checks for the core combinatorial invariants."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from rigicert.graph import Graph, canonical_form, contract_edge, freedom_number
from rigicert.rigidity import is_independent

from oracles import is_independent_exhaustive


@st.composite
def small_graphs(draw, min_vertices=2, max_vertices=7):
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return Graph(range(n), edges)


@given(small_graphs(), small_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_gluing_identity(h, k, rng):
    # joining disjoint graphs at a fresh pair {a,b}, edge (ab) in neither side
    a, b = 90, 91
    h_edges = set(h.edges) | {(rng.randrange(h.n), a), (rng.randrange(h.n), b)}
    k_shift = {v: v + 40 for v in k.vertices}
    k_edges = {(k_shift[u], k_shift[v]) for u, v in k.edges}
    k_edges |= {(k_shift[rng.randrange(k.n)], a), (k_shift[rng.randrange(k.n)], b)}
    hg = Graph(set(h.vertices) | {a, b}, h_edges)
    kg = Graph(set(k_shift.values()) | {a, b}, k_edges)
    union = Graph(hg.vertices | kg.vertices, hg.edges | kg.edges)
    assert freedom_number(union) == freedom_number(hg) + freedom_number(kg) - 1


@given(small_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_canonical_form_permutation_invariant(g, rng):
    labels = sorted(g.vertices)
    perm = labels[:]
    rng.shuffle(perm)
    relabel = dict(zip(labels, perm))
    h = Graph(g.vertices, [(relabel[u], relabel[v]) for u, v in g.edges])
    assert canonical_form(h) == canonical_form(g)


@given(small_graphs(min_vertices=3), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_contraction_counts(g, rng):
    if not g.edges:
        return
    e = sorted(g.edges)[rng.randrange(g.e)]
    common = len(g.neighbors(e[0]) & g.neighbors(e[1]))
    c = contract_edge(g, e)
    assert c.n == g.n - 1
    assert c.e == g.e - 1 - common


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_pebble_game_matches_exhaustive(g):
    assert is_independent(g) == is_independent_exhaustive(g)
