import itertools
import math
import random
from fractions import Fraction

import pytest

from rigicert.algebra.embeddings import (
    construction_order,
    max_residual,
    qs_solve,
    verify_embedding,
)
from rigicert.errors import (
    InputError,
    NotQuadraticallyConstructibleError,
    UnrealizableDistancesError,
)
from rigicert.graph import Graph, edge
from rigicert.rigidity import is_laman

from conftest import k4_minus_edge, k33, relabel, triangle
from oracles import construction_order_by_rebuild, construction_order_by_scan


def planted_henneberg_one(rng: random.Random, n: int):
    """Random Henneberg-I graph with exact rational coordinates planted."""
    g = Graph({0, 1}, [(0, 1)])
    coords = {0: (Fraction(0), Fraction(0)), 1: (Fraction(1), Fraction(0))}
    while g.n < n:
        u, v = rng.sample(g.sorted_vertices(), 2)
        w = g.n
        # keep the new point off the line through u and v so branches split
        while True:
            p = (Fraction(rng.randint(-12, 12), rng.randint(1, 6)), Fraction(rng.randint(1, 12), rng.randint(1, 6)))
            ux, uy = coords[u]
            vx, vy = coords[v]
            cross = (p[0] - ux) * (vy - uy) - (p[1] - uy) * (vx - ux)
            if cross != 0 and p not in coords.values():
                break
        coords[w] = p
        g = Graph(g.vertices | {w}, g.edges | {edge(u, w), edge(v, w)})
    distances = {}
    for u, v in g.edges:
        if (u, v) == (0, 1):
            continue
        dx = coords[u][0] - coords[v][0]
        dy = coords[u][1] - coords[v][1]
        distances[(u, v)] = dx * dx + dy * dy
    return g, distances, coords


def test_triangle_two_branches():
    g = triangle()
    sols = qs_solve(g, {(0, 2): 1, (1, 2): 1}, (0, 1))
    assert len(sols) == 2
    tops = sorted(s[2] for s in sols)
    assert tops[0][0] == pytest.approx(0.5) and tops[0][1] == pytest.approx(-math.sqrt(3) / 2)
    assert tops[1][1] == pytest.approx(math.sqrt(3) / 2)
    for s in sols:
        assert verify_embedding(g, {(0, 2): 1, (1, 2): 1}, (0, 1), s, 1e-12)


def test_k4_minus_edge_plant_and_recover():
    rng = random.Random(419)
    g = k4_minus_edge()  # base on the shared edge (2,3)
    coords = {2: (Fraction(0), Fraction(0)), 3: (Fraction(1), Fraction(0)),
              0: (Fraction(1, 2), Fraction(2)), 1: (Fraction(1, 3), Fraction(-1))}
    d = {}
    for u, v in g.edges:
        if (u, v) == (2, 3):
            continue
        dx = coords[u][0] - coords[v][0]
        dy = coords[u][1] - coords[v][1]
        d[(u, v)] = dx * dx + dy * dy
    sols = qs_solve(g, d, (2, 3))
    planted = {v: (float(x), float(y)) for v, (x, y) in coords.items()}
    best = min(
        max(abs(s[v][0] - planted[v][0]) + abs(s[v][1] - planted[v][1]) for v in g.vertices)
        for s in sols
    )
    assert best < 1e-12
    for s in sols:
        assert verify_embedding(g, d, (2, 3), s, 1e-9)


def test_construction_order_errors():
    with pytest.raises(NotQuadraticallyConstructibleError):
        construction_order(k33(), (1, 2))  # min degree 3: nothing to strip
    with pytest.raises(InputError):
        construction_order(triangle(), (0, 3))
    four_cycle = Graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(NotQuadraticallyConstructibleError):
        construction_order(four_cycle, (0, 1))  # stripping strands extra vertices


def relabelled_census_pairs(census_by_n):
    """Every census graph of 3 to 8 vertices, relabelled, with each edge as
    the base: 8,820 (graph, base) pairs."""
    rng = random.Random(467)
    for census in census_by_n.values():
        for g in census.representatives:
            labels = rng.sample(range(3 * g.n), g.n)
            h = relabel(g, dict(zip(g.sorted_vertices(), labels)))
            for base in h.sorted_edges():
                yield h, base


def assert_same_order_or_error(oracle, h, base) -> bool:
    """Whether the strip succeeded, after checking that `construction_order`
    gives the oracle's order, or raises the oracle's error."""
    try:
        expected = oracle(h, base)
    except NotQuadraticallyConstructibleError as exc:
        with pytest.raises(NotQuadraticallyConstructibleError) as raised:
            construction_order(h, base)
        assert str(raised.value) == str(exc)
        return False
    assert construction_order(h, base) == expected
    return True


def test_construction_order_matches_the_rebuilding_strip(census_by_n):
    # the same order, or the same error, as stripping by rebuilding
    outcomes = [assert_same_order_or_error(construction_order_by_rebuild, h, base) for h, base in relabelled_census_pairs(census_by_n)]
    assert len(outcomes) == 8820 and 0 < sum(outcomes) < len(outcomes)


def test_construction_order_matches_the_degree_scan(census_by_n):
    # the heap of degree-2 vertices strips in the order of a full scan of
    # the degree table per step, on the census pairs, on random graphs that
    # need not be Laman (a waiting vertex can fall to degree 1 there), and on
    # large random Henneberg-I graphs, whose strips keep many vertices waiting
    outcomes = [assert_same_order_or_error(construction_order_by_scan, h, base) for h, base in relabelled_census_pairs(census_by_n)]
    assert len(outcomes) == 8820 and 0 < sum(outcomes) < len(outcomes)
    rng = random.Random(479)
    outcomes = []
    for _ in range(400):
        n = rng.randint(3, 12)
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(range(n), rng.sample(pairs, rng.randint(1, min(len(pairs), 2 * n))))
        outcomes.append(assert_same_order_or_error(construction_order_by_scan, g, rng.choice(g.sorted_edges())))
    assert 0 < sum(outcomes) < len(outcomes)
    for n in (50, 400, 1500):
        edges = [(0, 1)]
        for w in range(2, n):
            u, v = rng.sample(sorted({x for e in edges[-8:] for x in e} | {rng.randrange(w)}), 2)
            edges += [(u, w), (v, w)]
        labels = rng.sample(range(5 * n), n)
        g = relabel(Graph(range(n), edges), dict(zip(range(n), labels)))
        for base in rng.sample(g.sorted_edges(), 3) + [edge(labels[0], labels[1])]:
            assert_same_order_or_error(construction_order_by_scan, g, base)
        assert len(construction_order(g, edge(labels[0], labels[1]))) == n - 2


def test_unrealizable_distances():
    with pytest.raises(UnrealizableDistancesError):
        qs_solve(triangle(), {(0, 2): 100, (1, 2): 1}, (0, 1))


def test_planted_recovery_random():
    rng = random.Random(421)
    for _ in range(30):
        n = rng.randint(3, 10)
        g, d, coords = planted_henneberg_one(rng, n)
        assert is_laman(g)
        sols = qs_solve(g, d, (0, 1))
        assert all(verify_embedding(g, d, (0, 1), s, 1e-9) for s in sols)
        planted = {v: (float(x), float(y)) for v, (x, y) in coords.items()}
        best = min(
            max(abs(s[v][0] - planted[v][0]) + abs(s[v][1] - planted[v][1]) for v in g.vertices)
            for s in sols
        )
        assert best <= 1e-9
        assert min(max_residual(g, d, (0, 1), s) for s in sols) <= 1e-9


def test_verify_embedding_rejects_perturbation():
    g = triangle()
    d = {(0, 2): 1, (1, 2): 1}
    sols = qs_solve(g, d, (0, 1))
    good = sols[0]
    assert verify_embedding(g, d, (0, 1), good, 1e-12)
    bad = dict(good)
    bad[2] = (bad[2][0] + 1e-3, bad[2][1])
    assert not verify_embedding(g, d, (0, 1), bad, 1e-9)
    moved_pin = dict(good)
    moved_pin[0] = (1e-15, 0.0)
    assert not verify_embedding(g, d, (0, 1), moved_pin, 1e-9)
    with pytest.raises(InputError):
        verify_embedding(g, d, (0, 1), {0: (0.0, 0.0)}, 1e-9)
