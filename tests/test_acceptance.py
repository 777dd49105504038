"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

import sympy

from rigicert.algebra.embeddings import max_residual, qs_solve, verify_embedding
from rigicert.algebra.solubility import SolubilityVerdict, nonsolubility_certificate
from rigicert.algebra.systems import (
    K33_SPECIAL_DISTANCES,
    eliminate_to_x3,
    k33_system,
    square_eliminate_y,
)
from rigicert.algebra.unipoly import UniPoly, factor_over_q
from rigicert.decomposition import decompose_unique, is_doublet, reduce_step
from rigicert.graph import (
    Graph,
    canonical_form,
    edge,
    freedom_number,
    induced_subgraph,
    is_m_connected,
)
from rigicert.rigidity import (
    attachment_vertices,
    internal_vertices,
    is_basic,
    is_contractible,
    is_independent,
    is_laman,
    mi_proper_subgraphs,
    surgery,
)

from conftest import decompose_relabelled, k33
from oracles import is_independent_exhaustive, mi_subgraphs_exhaustive
from test_systems import DEG6_FACTOR, DEG8_FACTOR


def criterion(number: int, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")

        return wrapper

    return decorate


@criterion(1, "basic census")
def test_criterion_1_basic_census(census_by_n):
    assert census_by_n[6].basic_count == 1
    assert census_by_n[7].basic_count == 0
    assert census_by_n[8].basic_count == 2
    only = census_by_n[6].representative(census_by_n[6].basic_canonical_forms[0])
    assert canonical_form(only) == canonical_form(k33())


@criterion(2, "K(3,3) eliminant reproduction")
def test_criterion_2_eliminant():
    result = eliminate_to_x3(square_eliminate_y(k33_system(K33_SPECIAL_DISTANCES)))
    p = result.eliminant
    assert p.degree == 20
    factors = factor_over_q(p)
    linear = [(f, m) for f, m in factors if f.degree == 1]
    assert linear == [(UniPoly([-1, 1]), 6)]  # (x-1) with multiplicity exactly 6
    deg6 = next(f for f, m in factors if f.degree == 6 and m == 1)
    deg8 = next(f for f, m in factors if f.degree == 8 and m == 1)
    # printed coefficient vectors up to one common integer scalar
    assert deg6.coeffs[-1] % 87733791129600 == 0 or 87733791129600 % deg6.coeffs[-1] == 0
    scalar = Fraction(deg6.coeffs[-1], 87733791129600)
    assert scalar.denominator == 1 or scalar.numerator == 1
    assert tuple(c * scalar for c in DEG6_FACTOR) == deg6.coeffs
    assert tuple(c * scalar for c in DEG8_FACTOR) == deg8.coeffs


@criterion(3, "non-solubility certificates with soluble controls")
def test_criterion_3_certificates():
    for coeffs in (DEG6_FACTOR, DEG8_FACTOR):
        cert = nonsolubility_certificate(UniPoly(coeffs), 10000)
        assert cert.verdict == SolubilityVerdict.NOT_SOLUBLE
        assert cert.witness is not None and cert.witness[0] <= 10000

    x = sympy.symbols("x")
    controls: list[UniPoly] = []
    for k in range(1, 31):
        poly = sympy.Poly(sympy.cyclotomic_poly(k, x), x)
        if 1 <= poly.degree() <= 8:
            controls.append(UniPoly([int(c) for c in reversed(poly.all_coeffs())]))
    controls.append(UniPoly([-2, 0, 0, 0, 0, 0, 0, 0, 1]))  # x^8 - 2

    rng = random.Random(20260810)
    towers = 0
    while towers < 50:
        a, b = rng.randint(1, 9), rng.randint(1, 6)
        c = rng.choice([2, 3, 5, 6, 7, 10, 11, 13])
        if towers % 2:
            inner = sympy.sqrt(c)
        else:
            e = rng.choice([2, 3, 5, 7])
            inner = sympy.sqrt(c + rng.randint(1, 4) * sympy.sqrt(e))
        expr = sympy.sqrt(a + b * inner)
        minimal = sympy.Poly(sympy.minimal_polynomial(expr, x, domain=sympy.QQ), x)
        if minimal.degree() < 2:
            continue
        controls.append(UniPoly([int(co) for co in reversed(minimal.all_coeffs())]))
        towers += 1

    for control in controls:
        cert = nonsolubility_certificate(control, 10000)
        assert cert.verdict == SolubilityVerdict.INCONCLUSIVE, control


@criterion(4, "pebble game vs exhaustive oracle")
def test_criterion_4_oracle_equivalence():
    for n in range(0, 7):
        all_edges = list(itertools.combinations(range(n), 2))
        for size in range(len(all_edges) + 1):
            for chosen in itertools.combinations(all_edges, size):
                g = Graph(range(n), chosen)
                assert is_independent(g) == is_independent_exhaustive(g)
    rng = random.Random(8121)
    for _ in range(1000):
        n = rng.randint(7, 8)
        p = rng.uniform(0.15, 0.85)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        g = Graph(range(n), edges)
        assert is_independent(g) == is_independent_exhaustive(g)


def _surgery_instances(census_by_n):
    for n in range(6, 9):
        for g in census_by_n[n].representatives:
            if not is_m_connected(g, 3):
                continue
            for w in mi_proper_subgraphs(g):
                yield g, induced_subgraph(g, w)


@criterion(5, "surgery and decomposition invariant suite")
def test_criterion_5_invariant_suite(census_by_n):
    # freedom pattern at every separation: all parts 0 with the pair edge
    # present, otherwise exactly one part 0 and the rest 1
    separations = 0
    for n in range(4, 9):
        for g in census_by_n[n].representatives:
            decomposition = decompose_unique(g)
            for event in decomposition.events:
                assert all(f >= 0 for f in event.part_freedoms)
                if event.edge_was_present:
                    assert set(event.part_freedoms) == {0}
                else:
                    assert sorted(event.part_freedoms) == [0] + [1] * (len(event.part_freedoms) - 1)
                separations += 1
            assert any(not b.redundant_flags for b in decomposition.blocks)
    assert separations > 500

    # surgery properties on every census instance
    instances = 0
    for g, r in _surgery_instances(census_by_n):
        h = surgery(g, r)
        assert freedom_number(h) == freedom_number(g)  # freedom preserved
        assert is_independent(h)  # independence preserved
        assert is_laman(h)  # the surgered graph stays maximally independent
        assert is_m_connected(h, 3)  # and 3-connected when the subgraph was maximal
        cycle = attachment_vertices(g, r.vertices)
        for i in range(len(cycle)):
            assert is_contractible(h, (cycle[i], cycle[(i + 1) % len(cycle)]))  # fan cycle edges contract
        # internal-vertex MI subgraphs of the surgered graph come from the original
        for w in mi_subgraphs_exhaustive(h):
            if internal_vertices(h, w):
                assert freedom_number(induced_subgraph(g, w)) == 0
                assert internal_vertices(g, w)
        # the fan replacement is containment-maximal among MI proper subgraphs
        fan_vertices = frozenset(cycle)
        if fan_vertices < h.vertices:
            others = mi_subgraphs_exhaustive(h)
            assert fan_vertices in others
            assert not any(fan_vertices < w for w in others)
        instances += 1
    assert instances >= 29

    # block decomposition independent of the separation order, which seeded
    # relabellings change
    rng = random.Random(5150)
    reordered = 0
    for n in range(4, 9):
        for g in census_by_n[n].representatives:
            d = decompose_unique(g)
            pairs = [ev.pair for ev in d.events]
            for _ in range(10):
                blocks, relabelled_pairs = decompose_relabelled(g, rng)
                assert blocks == frozenset(d.blocks)
                reordered += relabelled_pairs != pairs
    assert reordered > 0


@criterion(6, "reduction engine over the census")
def test_criterion_6_reduction(census_by_n):
    reduced = 0
    for n in (7, 8):
        for g in census_by_n[n].representatives:
            if not is_m_connected(g, 3):
                continue
            stack = [g]
            while stack:
                h = stack.pop()
                assert is_laman(h) and is_m_connected(h, 3)
                if is_basic(h):
                    continue
                if is_doublet(h):
                    continue
                children, _ = reduce_step(h)
                assert children
                assert all(child.n <= h.n for child in children)
                stack.extend(children)
            reduced += 1
    assert reduced == 27


@criterion(7, "quadratic-chain solver recovers planted embeddings")
def test_criterion_7_qs_solver():
    rng = random.Random(7777)
    solved = 0
    while solved < 100:
        n = rng.randint(3, 10)
        g = Graph({0, 1}, [(0, 1)])
        coords = {0: (Fraction(0), Fraction(0)), 1: (Fraction(1), Fraction(0))}
        while g.n < n:
            u, v = rng.sample(g.sorted_vertices(), 2)
            w = g.n
            while True:
                p = (
                    Fraction(rng.randint(-10, 10), rng.randint(1, 5)),
                    Fraction(rng.randint(1, 10), rng.randint(1, 5)),
                )
                ux, uy = coords[u]
                vx, vy = coords[v]
                if (p[0] - ux) * (vy - uy) != (p[1] - uy) * (vx - ux) and p not in coords.values():
                    break
            coords[w] = p
            g = Graph(g.vertices | {w}, g.edges | {edge(u, w), edge(v, w)})
        d = {}
        for u, v in g.edges:
            if (u, v) == (0, 1):
                continue
            dx, dy = coords[u][0] - coords[v][0], coords[u][1] - coords[v][1]
            d[(u, v)] = dx * dx + dy * dy
        embeddings = qs_solve(g, d, (0, 1))
        planted = {v: (float(x), float(y)) for v, (x, y) in coords.items()}
        recovered = min(
            max(
                math.hypot(e[v][0] - planted[v][0], e[v][1] - planted[v][1])
                for v in g.vertices
            )
            for e in embeddings
        )
        assert recovered <= 1e-9
        assert min(max_residual(g, d, (0, 1), e) for e in embeddings) <= 1e-9
        assert all(verify_embedding(g, d, (0, 1), e, 1e-9) for e in embeddings)
        solved += 1
