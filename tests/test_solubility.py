import random
from pathlib import Path

import pytest
import sympy

from rigicert.algebra.solubility import (
    RULE_BURNSIDE,
    RULE_JORDAN,
    RULE_TABLE,
    SolubilityVerdict,
    _certificate,
    cycle_type,
    maximal_soluble_transitive_groups,
    nonsolubility_certificate,
    rules_for_degree,
    soluble_cycle_types,
)
from rigicert.algebra.systems import K33_SPECIAL_DISTANCES, eliminate_to_x3, k33_system, square_eliminate_y
from rigicert.algebra.unipoly import UniPoly, factor_over_q, primes_up_to
from rigicert.errors import InputError

from oracles import frobenius_cycle_types, rule_prefixes_from_partitions
from test_systems import DEG6_FACTOR, DEG8_FACTOR


def test_cycle_type():
    assert cycle_type((1, 0, 2, 3)) == (1, 1, 2)
    assert cycle_type((1, 2, 0)) == (3,)
    assert cycle_type(tuple(range(5))) == (1, 1, 1, 1, 1)


def test_group_orders_and_transitivity():
    expected = {6: {"S2_wr_S3": 48, "S3_wr_S2": 72}, 8: {"S2_wr_S4": 384, "S4_wr_S2": 1152, "AGammaL_1_8": 168}}
    for degree, orders in expected.items():
        groups = maximal_soluble_transitive_groups(degree)
        assert {name: order for name, order, _ in groups} == orders
        for name, order, elements in groups:
            assert len(elements) == order
            # closure under composition
            sample = random.Random(degree).sample(sorted(elements), 12)
            for a in sample:
                for b in sample:
                    assert tuple(a[b[i]] for i in range(degree)) in elements
            # transitivity
            images = {p[0] for p in elements}
            assert images == set(range(degree))


def test_soluble_cycle_types_no_five_cycles():
    # none of the maximal soluble groups of degree 6 or 8 has order divisible by 5
    for degree in (6, 8):
        for t in soluble_cycle_types(degree):
            assert 5 not in t


def test_frobenius_cycle_types_examples():
    reports, skipped = frobenius_cycle_types(UniPoly([1, 0, 1]), 20)
    by_prime = dict(reports)
    assert by_prime[3] == (2,)
    assert by_prime[5] == (1, 1)
    assert skipped == []
    # x^2 + 1 = (x + 1)^2 mod 2 is the only reduction that is not squarefree
    assert [q for q, multiset in reports if multiset is None] == [2]
    for q, multiset in reports:
        if multiset is not None:
            assert sum(multiset) == 2

    reports, skipped = frobenius_cycle_types(UniPoly([3, 10]), 11)
    assert skipped == [2, 5]
    with pytest.raises(InputError):
        frobenius_cycle_types(UniPoly([1, -2, 1]), 10)  # not squarefree


def test_certificates_for_published_factors():
    f6 = UniPoly(DEG6_FACTOR)
    cert = nonsolubility_certificate(f6, 10000)
    assert cert.verdict == SolubilityVerdict.NOT_SOLUBLE
    prime, multiset, rule = cert.witness
    assert multiset == (1, 5) and rule == RULE_BURNSIDE and prime == 71
    assert set(cert.rules_checked) == {RULE_JORDAN, RULE_BURNSIDE, RULE_TABLE}

    f8 = UniPoly(DEG8_FACTOR)
    cert = nonsolubility_certificate(f8, 10000)
    assert cert.verdict == SolubilityVerdict.NOT_SOLUBLE
    prime, multiset, rule = cert.witness
    assert prime == 23 and multiset == (3, 5) and rule == RULE_TABLE


def test_jordan_rule_fires_on_degree8_five_cycle():
    # x^8 - x - 1 has Galois group S8; scan until a {1,1,1,5} type appears
    p = UniPoly([-1, -1, 0, 0, 0, 0, 0, 0, 1])
    cert = nonsolubility_certificate(p, 10000)
    assert cert.verdict == SolubilityVerdict.NOT_SOLUBLE


def test_certificate_requires_irreducible():
    with pytest.raises(InputError):
        nonsolubility_certificate(UniPoly([-1, 0, 1]), 100)


def test_certificate_prime_bound_limit():
    from rigicert.algebra.solubility import MAX_PRIME_BOUND

    p = UniPoly(DEG6_FACTOR)
    assert nonsolubility_certificate(p, MAX_PRIME_BOUND).verdict == SolubilityVerdict.NOT_SOLUBLE
    with pytest.raises(InputError, match=f"limit {MAX_PRIME_BOUND}"):
        nonsolubility_certificate(p, MAX_PRIME_BOUND + 1)
    assert nonsolubility_certificate(p, 2).prime_bound == 2
    for bound in (1, 0, -5):
        with pytest.raises(InputError, match=f"prime bound {bound} is below 2"):
            nonsolubility_certificate(p, bound)


def test_certificate_of_a_known_factor_matches_the_public_one():
    """`k33` certifies each factor from `factor_over_q` without factoring it
    again; on every default-seed benchmark vector that gives the certificate
    the public function gives."""
    items = Path(__file__).parents[1] / "bench" / "inputs" / "seed-1" / "k33" / "items.txt"
    vectors = [line.split()[-1].split(",") for line in items.read_text().splitlines()]
    certified, primes = 0, primes_up_to(10000)
    for distances in vectors:
        elimination = eliminate_to_x3(square_eliminate_y(k33_system(distances)))
        for factor, _ in factor_over_q(elimination.eliminant):
            if factor.degree >= 2:
                assert _certificate(factor, 10000, primes) == nonsolubility_certificate(factor, 10000)
                certified += 1
    assert len(vectors) == 49 and certified >= 49


def test_certificate_prime_bound_refused_before_factoring(monkeypatch):
    from rigicert.algebra import solubility

    with pytest.raises(InputError, match="exceeds the limit"):
        nonsolubility_certificate(UniPoly([-1, 0, 1]), 10**7)

    def no_factoring(p):
        raise AssertionError("factored before the prime bound was checked")

    # the bound is checked once, before factoring; `_certificate` trusts its caller
    monkeypatch.setattr(solubility, "factor_over_q", no_factoring)
    with pytest.raises(InputError, match="exceeds the limit"):
        nonsolubility_certificate(UniPoly(DEG6_FACTOR), 10**7)


def test_soluble_controls_stay_inconclusive():
    # cyclotomic polynomials of degree <= 8 (abelian, hence soluble)
    x = sympy.symbols("x")
    controls = []
    for k in range(1, 31):
        poly = sympy.Poly(sympy.cyclotomic_poly(k, x), x)
        if poly.degree() <= 8:
            controls.append(UniPoly([int(c) for c in reversed(poly.all_coeffs())]))
    # x^8 - 2 (soluble: 2-group times cyclic data inside a metabelian extension)
    controls.append(UniPoly([-2, 0, 0, 0, 0, 0, 0, 0, 1]))
    for p in controls:
        if p.degree < 1:
            continue
        cert = nonsolubility_certificate(p, 2000)
        assert cert.verdict == SolubilityVerdict.INCONCLUSIVE, p


def quadratic_tower_minimal_poly(rng: random.Random):
    """Minimal polynomial of sqrt(a + b*sqrt(c)) for random rationals."""
    x = sympy.symbols("x")
    while True:
        a = rng.randint(1, 9)
        b = rng.randint(1, 5)
        c = rng.choice([2, 3, 5, 6, 7, 10])
        expr = sympy.sqrt(a + b * sympy.sqrt(c))
        poly = sympy.minimal_polynomial(expr, x, domain=sympy.QQ)
        p = sympy.Poly(poly, x)
        if p.degree() in (4, 8):
            return UniPoly([int(c_) for c_ in reversed(p.all_coeffs())])


def test_quadratic_tower_controls_inconclusive():
    rng = random.Random(401)
    seen = 0
    while seen < 12:
        p = quadratic_tower_minimal_poly(rng)
        cert = nonsolubility_certificate(p, 1000)
        assert cert.verdict == SolubilityVerdict.INCONCLUSIVE, p
        seen += 1


def test_rules_for_degree():
    assert rules_for_degree(6) == [RULE_JORDAN, RULE_BURNSIDE, RULE_TABLE]
    assert rules_for_degree(5) == [RULE_JORDAN, RULE_BURNSIDE]


def test_rule_hits_directly():
    from rigicert.algebra.solubility import _rule_hit

    assert _rule_hit((1, 1, 1, 5), 8) == RULE_JORDAN
    assert _rule_hit((1, 5), 6) == RULE_BURNSIDE
    assert _rule_hit((3, 5), 8) == RULE_TABLE
    # a 7-cycle with a fixed point lives in the affine semilinear group: no rule
    assert _rule_hit((1, 7), 8) is None
    # 8 is a prime power, so a 7-cycle alone cannot trigger the 2-transitive rule
    assert _rule_hit((8,), 8) is None
    assert _rule_hit((2, 2, 2), 6) is None
    # degree without a table: only the two generic rules can fire
    assert _rule_hit((1, 1, 5), 7) is None  # 5 > n-3 = 4: outside the safe range
    assert _rule_hit((1, 6), 7) is None  # 7 is prime (a prime power)


def test_is_prime_power_against_factorint():
    from rigicert.algebra.solubility import _is_prime_power

    for n in range(2, 2001):
        assert _is_prime_power(n) == (len(sympy.factorint(n)) == 1), n


def test_refutation_free_degrees():
    # every cycle type of S_n, enumerated by sympy independently of the sieve
    from sympy.utilities.iterables import partitions

    from rigicert.algebra.solubility import _partitions, _rule_hit, _rule_prefixes

    free = set()
    for n in range(2, 21):
        types = {tuple(sorted(d for d, k in part.items() for _ in range(k))) for part in partitions(n)}
        assert sorted(_partitions(n)) == sorted(types)
        hits = [t for t in types if _rule_hit(t, n)]
        if not hits:
            free.add(n)
        counts = [tuple(t.count(i) for i in range(1, n + 1)) for t in hits]
        assert _rule_prefixes(n) == {c[:d] for c in counts for d in range(1, n + 1)}
    assert free == {2, 3, 4, 5, 7}
    # at degree 16 a witness is [1^5, 11] or [1^3, 13]
    assert {c for c in _rule_prefixes(16) if len(c) == 1} == {(3,), (5,)}


def test_rule_prefixes_match_every_partition():
    # outside degrees 6 and 8 the prefixes come from the one-cycle types
    # alone; against `_rule_hit` on every partition, built independently
    from rigicert.algebra.solubility import _partitions, _rule_prefixes

    for n in range(1, 41):
        assert _rule_prefixes(n) == rule_prefixes_from_partitions(n), n
    # degree 0 (a constant) has no refuting type, and its one partition is ()
    assert _rule_prefixes(0) == frozenset()
    assert list(_partitions(0)) == [()]


def test_refutation_free_degree_scans_no_prime(monkeypatch):
    from rigicert.algebra import unipoly

    sweep = unipoly._distinct_degree_steps
    swept = []

    def watched_sweep(slots, f):
        swept.append((slots.degree(f), slots.q))
        return sweep(slots, f)

    monkeypatch.setattr(unipoly, "_distinct_degree_steps", watched_sweep)
    p = UniPoly([-1, -1, 0, 0, 0, 0, 0, 1])  # x^7 - x - 1, irreducible with group S7
    cert = nonsolubility_certificate(p, 10000)
    assert cert.verdict == SolubilityVerdict.INCONCLUSIVE
    assert cert.witness is None and cert.prime_bound == 10000
    assert cert.rules_checked == (RULE_JORDAN, RULE_BURNSIDE)
    # factoring p sweeps its candidate primes; the sieve after it sweeps none
    swept.clear()
    assert _certificate(p, 10000, primes_up_to(10000)) == cert
    assert swept == []
    # the watched sweep is the one a degree with refuting cycle types runs
    cert = _certificate(UniPoly(DEG6_FACTOR), 10000, primes_up_to(10000))
    assert cert.witness[0] == 71 and swept[-1] == (6, 71)
    assert {n for n, _ in swept} == {6}


def test_each_reading_of_p_mod_q_builds_one_table(monkeypatch):
    """One `_Slots` per reading of p mod q: each `_good_split` past the
    leading-coefficient test packs p mod q into exactly one table, which its
    squarefree test, its sweep, `_split_degrees` and Cantor-Zassenhaus share,
    on the published eliminant's factoring and a degree-8 certificate."""
    from rigicert.algebra import solubility, unipoly

    tables = []
    init, good_split, factor = unipoly._Slots.__init__, unipoly._good_split, unipoly.gf_factor_squarefree

    def counted_init(self, n, q):
        tables.append((n, q))
        init(self, n, q)

    readings = []  # (tables built, q kept past lc(p), prefixes given, q good)

    def watched_good_split(p, q, prefixes=None):
        before = len(tables)
        split = good_split(p, q, prefixes)
        readings.append((len(tables) - before, p.leading % q != 0, prefixes is not None, split is not None))
        return split

    factorings = []  # tables built by each Cantor-Zassenhaus run

    def watched_factor(split):
        before = len(tables)
        out = factor(split)
        factorings.append(len(tables) - before)
        return out

    monkeypatch.setattr(unipoly._Slots, "__init__", counted_init)
    monkeypatch.setattr(unipoly, "_good_split", watched_good_split)
    monkeypatch.setattr(solubility, "_good_split", watched_good_split)
    monkeypatch.setattr(unipoly, "gf_factor_squarefree", watched_factor)
    eliminant = eliminate_to_x3(square_eliminate_y(k33_system(K33_SPECIAL_DISTANCES))).eliminant
    assert [f.degree for f, _ in factor_over_q(eliminant)] == [1, 6, 8]
    cert = _certificate(UniPoly(DEG8_FACTOR), 10000, primes_up_to(10000))
    assert cert.verdict == SolubilityVerdict.NOT_SOLUBLE
    assert all(built == kept for built, kept, _, _ in readings)
    assert factorings and set(factorings) == {0}
    # both orders of the squarefree test ran, on good and bad primes
    outcomes = {(sieved, good) for _, kept, sieved, good in readings if kept}
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def test_early_stopping_sieve_matches_full_multisets():
    """The sieve's per-prime answer (`_good_split` with the rule prefixes)
    against `degree_multiset_mod` +
    `_rule_hit` at every prime up to 2,000, and its first witness against
    the first prime whose full multiset meets a rule, on seeded polynomials
    of degrees 6, 8, 14 and 16.  Each degree also gets a product L*Q^2*R
    (L linear, Q and R irreducible, Q quadratic), whose reductions are never
    squarefree.  At degree 8, with R cubic, the sweep's counts wherever Q
    and R stay irreducible are those of [1, 2, 5], which meets the table
    rule, so only the squarefree test turns that prime down."""
    from rigicert.algebra.solubility import _rule_hit, _rule_prefixes
    from rigicert.algebra.unipoly import (
        _good_split,
        _split_degrees,
        degree_multiset_mod,
        is_irreducible,
    )

    rng = random.Random(263)

    def random_poly(deg):
        return UniPoly([rng.randint(-30, 30) for _ in range(deg)] + [rng.randint(1, 30)])

    def random_irreducible(deg):
        while not is_irreducible(p := random_poly(deg)):
            pass
        return p

    witnesses = set()
    for n in (6, 8, 14, 16):
        prefixes = _rule_prefixes(n)
        polys = [random_poly(n).normalized() for _ in range(2)]
        polys.append((random_poly(1) * random_irreducible(2) ** 2 * random_irreducible(n - 5)).normalized())
        for p in polys:
            first = None
            for q in primes_up_to(2000):
                if p.leading % q == 0:
                    continue
                multiset = degree_multiset_mod(p, q)
                rule = None if multiset is None else _rule_hit(multiset, n)
                split = _good_split(p, q, prefixes)
                sieved = None if split is None else _split_degrees(split)
                assert sieved == (multiset if rule else None), (p, q)
                if rule is not None and first is None:
                    first = (q, multiset, rule)
            assert _certificate(p, 2000, primes_up_to(2000)).witness == first
            if first is not None:
                witnesses.add((n, first[2]))
    assert {n for n, _ in witnesses} == {6, 8, 14, 16}
    assert {rule for _, rule in witnesses} == {RULE_JORDAN, RULE_BURNSIDE, RULE_TABLE}


def test_inert_prime_appears_for_generic_irreducibles():
    # polynomials with full symmetric Galois group have n-cycles, so some
    # good prime below a generous bound must show the one-block multiset
    rng = random.Random(443)
    from rigicert.algebra.unipoly import is_irreducible

    found = 0
    while found < 6:
        deg = rng.randint(2, 7)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [1]
        p = UniPoly(coeffs)
        if not is_irreducible(p):
            continue
        reports, _ = frobenius_cycle_types(p, 3000)
        multisets = {multiset for _, multiset in reports if multiset is not None}
        assert all(sum(m) == deg for m in multisets)
        assert (deg,) in multisets
        found += 1
