import hashlib
import math
import random
from fractions import Fraction

import pytest
import sympy

from rigicert.algebra.unipoly import (
    UniPoly,
    _distinct_degree_steps,
    _good_split,
    _Ring,
    _Slots,
    degree_multiset_mod,
    factor_over_q,
    gf_add,
    gf_divmod,
    gf_extended_euclid,
    gf_factor_squarefree,
    gf_from_int,
    gf_monic,
    gf_mul,
    hensel_lift,
    is_irreducible,
    is_prime,
    poly_gcd,
    primes_up_to,
    squarefree_decomposition,
)
from rigicert.errors import InputError

from oracles import distinct_degree_steps_by_lists, gf_gcd_by_lists, gf_pow_mod, lift_pair_every_step, poly_gcd_prs


def random_poly(rng, max_deg=8, span=20):
    deg = rng.randint(1, max_deg)
    coeffs = [rng.randint(-span, span) for _ in range(deg)]
    coeffs.append(rng.choice([c for c in range(-span, span + 1) if c]))
    return UniPoly(coeffs)


def to_sympy(p: UniPoly):
    x = sympy.symbols("x")
    return sympy.Poly(list(reversed(p.coeffs)), x)


def test_unipoly_basics():
    p = UniPoly([1, 2, 0, 0])
    assert p.coeffs == (1, 2) and p.degree == 1
    assert (p * p).coeffs == (1, 4, 4)
    assert (p - p).is_zero()
    assert UniPoly([2, 4, 6]).normalized().coeffs == (1, 2, 3)
    assert UniPoly([2, -4]).normalized().coeffs == (-1, 2)
    assert UniPoly([0, 0, 3]).evaluate(5) == 75
    assert UniPoly([1, 1]).evaluate(Fraction(1, 2)) == Fraction(3, 2)


def test_try_divide():
    a = UniPoly([-1, 0, 1])  # x^2 - 1
    assert a.try_divide(UniPoly([1, 1])).coeffs == (-1, 1)
    assert a.try_divide(UniPoly([2, 1])) is None
    assert UniPoly().try_divide(UniPoly([3, 1])) == UniPoly()
    # a*b / b = a; a*b + r with r != 0 and deg r < deg b is inexact
    # (random_poly draws leading coefficients of either sign)
    rng = random.Random(251)
    for _ in range(200):
        a, b = random_poly(rng, max_deg=6, span=30), random_poly(rng, max_deg=6, span=30)
        assert (a * b).try_divide(b) == a
        r = UniPoly([rng.randint(-30, 30) for _ in range(b.degree)])
        if not r.is_zero():
            assert (a * b + r).try_divide(b) is None
    assert UniPoly([1, 1]).try_divide(UniPoly([1, 0, 1])) is None  # divisor of higher degree
    assert UniPoly([2, 4, -6]).try_divide(UniPoly([-2])) == UniPoly([-1, -2, 3])  # constant divisor
    assert UniPoly([2, 4, 5]).try_divide(UniPoly([2])) is None
    assert UniPoly([6, 1, -1]).try_divide(UniPoly([3, -1])) == UniPoly([2, 1])  # negative leads
    assert UniPoly([6, 1, -1]).try_divide(UniPoly([2, -1])) is None
    with pytest.raises(InputError):
        a.try_divide(UniPoly())


def sympy_heu_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """sympy's GCDHEU on the same operands (content times primitive gcd)."""
    from sympy.polys.domains import ZZ
    from sympy.polys.euclidtools import dup_zz_heu_gcd

    h, _, _ = dup_zz_heu_gcd([ZZ(c) for c in reversed(a.coeffs)], [ZZ(c) for c in reversed(b.coeffs)], ZZ)
    return UniPoly([int(c) for c in reversed(h)])


def test_poly_gcd_random():
    # against sympy's gcd, the primitive-PRS oracle and sympy's GCDHEU, with
    # a large integer content shared by both operands
    rng = random.Random(211)
    for _ in range(120):
        a, b, c = (random_poly(rng, 4, 6) for _ in range(3))
        k = rng.randrange(1, 10**30)
        f = (a * c).scale(k * rng.randrange(1, 10**6))
        g = (b * c).scale(-k * rng.randrange(1, 10**6))
        g_mine = poly_gcd(f, g)
        assert to_sympy(g_mine) == sympy.gcd(to_sympy(f), to_sympy(g))
        assert g_mine == poly_gcd_prs(f, g) == sympy_heu_gcd(f, g)
        assert g_mine.content() % k == 0
        # c must divide the gcd
        assert g_mine.try_divide(c.normalized()) is not None or c.normalized().degree == 0


def test_poly_gcd_grows_xi_when_cofactor_values_share_a_factor(monkeypatch):
    """f = D*F1 and g = D*(F1 + t*F1(xi)) with xi = 2*|f| + 2, the first
    evaluation point: gcd(F1(xi), G1(xi)) = |F1(xi)|, so the first candidate
    is f itself, which does not divide g, and xi has to grow."""
    evaluate = UniPoly.evaluate
    points = []

    def counting_evaluate(self, x):
        points.append(x)
        return evaluate(self, x)

    rng = random.Random(257)
    for _ in range(40):
        d = random_poly(rng, 5, 20).normalized()
        f1 = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [1])
        f = d * f1
        xi = 2 * max(map(abs, f.coeffs)) + 2
        g = d * (f1 + UniPoly([rng.randint(2, 9) * evaluate(f1, xi)]))
        content = rng.randrange(1, 10**20)
        f, g = f.scale(content), g.scale(content * rng.randrange(1, 1000))
        monkeypatch.setattr(UniPoly, "evaluate", counting_evaluate)
        points.clear()
        mine = poly_gcd(f, g)
        monkeypatch.setattr(UniPoly, "evaluate", evaluate)
        assert points[0] == xi and len(set(points)) > 1  # the growth branch ran
        assert mine == d.scale(content) == poly_gcd_prs(f, g) == sympy_heu_gcd(f, g)


def test_squarefree_decomposition():
    x = UniPoly([0, 1])
    p = (x + UniPoly([1])) ** 3 * (x + UniPoly([2])) * (UniPoly([1, 0, 1])) ** 2
    parts = squarefree_decomposition(p)
    rebuilt = UniPoly([1])
    for q, mult in parts:
        rebuilt = rebuilt * q**mult
    assert rebuilt.normalized() == p.normalized()
    mults = sorted(m for _, m in parts)
    assert mults == [1, 2, 3]


def test_hensel_lift_stops_at_the_least_power_of_p_past_the_target():
    rng = random.Random(131)
    checked = 0
    while checked < 30:
        f = random_poly(rng, max_deg=5, span=30) * random_poly(rng, max_deg=5, span=30)
        p = rng.choice([3, 5, 7, 11, 13])
        split = _good_split(f, p)
        if split is None:
            continue
        factors = gf_factor_squarefree(split)
        e = rng.randint(1, 40)  # chains such as 5, 3, 2 and 17, 9, 5, 3, 2
        target = p**e - rng.choice([0, 1, p ** (e - 1) * (p - 1) - 1])
        lifts, modulus = hensel_lift(p, target, list(f.coeffs), factors)
        assert modulus == p**e and (e == 1 or p ** (e - 1) < target)
        assert [gf_from_int(g, p) for g in lifts] == factors
        assert all(g[-1] == 1 and all(0 <= c < modulus for c in g) for g in lifts)
        product = [f.leading % modulus]
        for g in lifts:
            product = gf_mul(product, g, modulus)
        assert product == gf_from_int(f.coeffs, modulus)
        checked += 1


def test_hensel_lift_matches_the_chain_lifting_s_and_t_at_every_step(monkeypatch):
    # the lifts are unique (h monic, g0 and h0 coprime mod p), so skipping the
    # last step's s and t changes none of them; seeded products of up to four
    # random factors, lifted past random targets
    from rigicert.algebra import unipoly

    rng = random.Random(173)
    checked = 0
    while checked < 40:
        f = random_poly(rng, max_deg=4, span=40)
        for _ in range(rng.randint(1, 3)):
            f = f * random_poly(rng, max_deg=4, span=40)
        p = rng.choice([3, 5, 7, 11, 13, 17])
        split = _good_split(f, p)
        if split is None or f.degree < 2:
            continue
        factors = gf_factor_squarefree(split)
        target = rng.randrange(2, 10 ** rng.randint(2, 60))
        lifted = hensel_lift(p, target, list(f.coeffs), factors)
        with monkeypatch.context() as m:
            m.setattr(unipoly, "_lift_pair", lift_pair_every_step)
            assert hensel_lift(p, target, list(f.coeffs), factors) == lifted
        checked += len(factors) > 1
    assert checked == 40


def test_factor_examples():
    fac = factor_over_q(UniPoly([-1, 0, 1]))
    assert [(f.coeffs, m) for f, m in fac] == [((-1, 1), 1), ((1, 1), 1)]
    fac = factor_over_q(UniPoly([0, 0, 2, 2]))  # 2x^2(x+1)
    assert [(f.coeffs, m) for f, m in fac] == [((0, 1), 2), ((1, 1), 1)]
    # x^5 + x^4 + 1 = (x^2+x+1)(x^3-x+1)
    assert not is_irreducible(UniPoly([1, 0, 0, 0, 1, 1]))
    assert is_irreducible(UniPoly([-1, -1, 0, 0, 0, 1]))  # x^5 - x - 1


def test_factor_roundtrip_random():
    rng = random.Random(223)
    x = sympy.symbols("x")
    for trial in range(150):
        p = random_poly(rng, max_deg=9, span=30)
        if rng.random() < 0.4:
            p = p * random_poly(rng, max_deg=4, span=10)
        if rng.random() < 0.2:
            p = p * p
        factors = factor_over_q(p)
        rebuilt = UniPoly([1])
        for f, m in factors:
            rebuilt = rebuilt * f**m
            assert f.normalized() == f  # primitive, positive lc
        assert rebuilt.normalized() == p.normalized()
        # irreducibility of each factor per sympy
        for f, _ in factors:
            assert sympy.Poly(list(reversed(f.coeffs)), x).is_irreducible


def test_factor_roundtrip_1000_up_to_degree_20():
    rng = random.Random(999)
    for _ in range(1000):
        deg = rng.randint(1, 20)
        coeffs = [rng.randint(-50, 50) for _ in range(deg)]
        coeffs.append(rng.choice([c for c in range(-50, 51) if c]))
        p = UniPoly(coeffs)
        rebuilt = UniPoly([1])
        for f, m in factor_over_q(p):
            rebuilt = rebuilt * f**m
        assert rebuilt.normalized() == p.normalized()


def test_factor_recombination_stress():
    x = sympy.symbols("x")
    # minimal polynomial of sqrt2 + sqrt3 + sqrt5: irreducible of degree 8
    # but a product of linear/quadratic factors modulo every prime
    sd = sympy.Poly(sympy.minimal_polynomial(sympy.sqrt(2) + sympy.sqrt(3) + sympy.sqrt(5), x), x)
    p = UniPoly([int(c) for c in reversed(sd.all_coeffs())])
    assert factor_over_q(p) == [(p.normalized(), 1)]
    # a product of five small irreducibles exercises subset recombination
    parts = [UniPoly([2, 0, 1]), UniPoly([3, 0, 1]), UniPoly([1, 1, 1]), UniPoly([-2, 0, 0, 1]), UniPoly([5, 3])]
    prod = UniPoly([1])
    for q in parts:
        prod = prod * q
    recovered = factor_over_q(prod)
    assert sorted(f.coeffs for f, _ in recovered) == sorted(q.normalized().coeffs for q in parts)
    assert all(m == 1 for _, m in recovered)


def test_factor_matches_sympy_structure():
    rng = random.Random(227)
    for _ in range(40):
        p = random_poly(rng, max_deg=8, span=15) * random_poly(rng, max_deg=6, span=15)
        mine = sorted((f.degree, m) for f, m in factor_over_q(p))
        _, ref = sympy.factor_list(to_sympy(p))
        theirs = sorted((sympy.Poly(f).degree(), m) for f, m in ref)
        assert mine == theirs


def sympy_factors(p: UniPoly) -> list[tuple[tuple[int, ...], int]]:
    """Primitive irreducible factors of p over Q with positive lc, by sympy."""
    x = sympy.symbols("x")
    _, ref = sympy.factor_list(to_sympy(p))
    return sorted(
        (UniPoly(int(c) for c in reversed(sympy.Poly(f, x).all_coeffs())).normalized().coeffs, m)
        for f, m in ref
    )


def test_factor_over_q_of_powers_of_x_times_g():
    rng = random.Random(269)
    x = UniPoly([0, 1])
    for k in range(1, 5):
        a, b = random_poly(rng, max_deg=4, span=9), random_poly(rng, max_deg=4, span=9)
        for g in (UniPoly([-6]), a * b, a**2 * b, (a * b) ** 3 * x):
            p = x**k * g
            assert sorted((f.coeffs, m) for f, m in factor_over_q(p)) == sympy_factors(p)


def test_choose_factoring_prime_matches_the_first_four_good_primes(monkeypatch):
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor_sqf, gf_from_int_poly, gf_sqf_p

    from rigicert.algebra import unipoly

    calls = []
    gf_factor = unipoly.gf_factor_squarefree

    def counting(split):
        calls.append(split[0].q)
        return gf_factor(split)

    monkeypatch.setattr(unipoly, "gf_factor_squarefree", counting)
    rng = random.Random(271)
    one_factor = []
    while len(one_factor) < 40:
        f = random_poly(rng, max_deg=10, span=25)
        if rng.random() < 0.6:
            f = f * random_poly(rng, max_deg=6, span=25)
        f = f.normalized()
        if f.degree < 2 or not to_sympy(f).is_sqf:
            continue
        # brute force: sympy's factors at the first four odd primes not
        # dividing lc(f) where f stays squarefree; the first with the fewest
        # factors is the rule, early stop at one factor included
        good = []
        for q in primes_up_to(1000)[1:]:
            fq = gf_from_int_poly(list(reversed(f.coeffs)), q)
            if f.leading % q and gf_sqf_p(fq, q, ZZ):
                good.append((q, sorted(list(reversed(g)) for g in gf_factor_sqf(fq, q, ZZ)[1])))
            if len(good) == 4:
                break
        expected = min(good, key=lambda qf: len(qf[1]))
        calls.clear()
        assert unipoly._choose_factoring_prime(f) == expected
        assert calls == [expected[0]]
        one_factor.append(len(expected[1]) == 1)
    assert any(one_factor) and not all(one_factor)  # both exits of the scan ran


def test_choose_factoring_prime_sweeps_each_candidate_once(monkeypatch):
    # every good odd prime up to the end of the scan is swept once, in
    # ascending order, the winner included: Cantor-Zassenhaus reuses the
    # winner's split instead of sweeping again, and a bad prime is not swept
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_from_int_poly, gf_sqf_p

    from rigicert.algebra import unipoly

    sweep = unipoly._distinct_degree_steps
    swept = []

    def watched_sweep(slots, f):
        swept.append(slots.q)
        return sweep(slots, f)

    monkeypatch.setattr(unipoly, "_distinct_degree_steps", watched_sweep)
    rng = random.Random(283)
    winners = set()
    for _ in range(40):
        f = (random_poly(rng, max_deg=8, span=25) * random_poly(rng, max_deg=6, span=25)).normalized()
        if f.degree < 2 or not to_sympy(f).is_sqf:
            continue
        swept.clear()
        q, factors = unipoly._choose_factoring_prime(f)
        assert q in swept
        scanned = [r for r in primes_up_to(swept[-1])[1:] if f.leading % r]
        good = [r for r in scanned if gf_sqf_p(gf_from_int_poly(list(reversed(f.coeffs)), r), r, ZZ)]
        assert swept == good
        winners.add((q == swept[-1], len(factors) == 1))
    assert len(winners) >= 2  # winners both at the end of the scan and before it


def test_gf_factor_squarefree_is_deterministic():
    rng = random.Random(277)
    checked = 0
    for q in (3, 11, 101):
        for _ in range(10):
            p = random_poly(rng, max_deg=12, span=q)
            split = _good_split(p, q)
            if p.degree > 1 and split is not None:
                assert gf_factor_squarefree(split) == gf_factor_squarefree(_good_split(p, q))
                checked += 1
    assert checked >= 10


def sympy_degrees_mod(p: UniPoly, q: int) -> list[tuple[int, int]]:
    """(degree, multiplicity) of each irreducible factor of p mod q, by sympy."""
    x = sympy.symbols("x")
    factors = sympy.factor_list(sympy.Poly(list(reversed(p.coeffs)), x, modulus=q))[1]
    return [(sympy.Poly(f, x).degree(), m) for f, m in factors]


def test_degree_multiset_mod():
    # x^2 + 1 is irreducible mod 3
    assert degree_multiset_mod(UniPoly([1, 0, 1]), 3) == (2,)
    # x^4 + 1 is never irreducible mod an odd prime
    p = UniPoly([1, 0, 0, 0, 1])
    for q in primes_up_to(100):
        if q == 2:
            continue
        multiset = degree_multiset_mod(p, q)
        assert sum(multiset) == 4
        assert multiset != (4,)
    # a reduction that is not squarefree gives no multiset: (x-1)^2 mod anything
    assert degree_multiset_mod(UniPoly([1, -2, 1]), 5) is None
    assert any(m > 1 for _, m in sympy_degrees_mod(UniPoly([1, -2, 1]), 5))
    with pytest.raises(InputError):
        degree_multiset_mod(UniPoly([1, 5]), 5)
    # a nonzero constant has no factors; zero has no leading coefficient
    assert degree_multiset_mod(UniPoly([3]), 5) == ()
    with pytest.raises(InputError):
        degree_multiset_mod(UniPoly(), 5)


def test_degree_multiset_against_sympy():
    rng = random.Random(229)
    for _ in range(60):
        p = random_poly(rng, max_deg=7, span=12)
        for q in (2, 3, 5, 7, 11, 13):
            if p.leading % q == 0:
                continue
            mine = degree_multiset_mod(p, q)
            ref = sympy_degrees_mod(p, q)
            if mine is None:
                assert any(m > 1 for _, m in ref)
            else:
                assert all(m == 1 for _, m in ref)
                assert list(mine) == sorted(d for d, _ in ref)


def test_degree_multisets_of_published_factors():
    # (prime, multiset or None) over every good prime up to 10^4, as the
    # recursive GF(q) squarefree decomposition computed it; a faster kernel
    # must reproduce the list exactly
    from test_systems import DEG6_FACTOR, DEG8_FACTOR

    expected = {
        6: (1222, [31, 47, 193, 241, 3079, 3739], "8d407695da33d4336afe7081ee9e71f84654221c663035bb0edb70176dc9da16"),
        8: (1223, [5, 11, 43, 47, 67, 367, 5861, 6661], "2fbf4bf408dcd991cf0bdef613f0d5c811111e500ba2e9d09ba544ee444c20d9"),
    }
    for coeffs in (DEG6_FACTOR, DEG8_FACTOR):
        p = UniPoly(coeffs)
        rows = [(q, degree_multiset_mod(p, q)) for q in primes_up_to(10000) if p.leading % q]
        count, not_squarefree, digest = expected[p.degree]
        assert len(rows) == count
        assert [q for q, multiset in rows if multiset is None] == not_squarefree
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def test_gf_factor_squarefree_products():
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor_sqf, gf_sqf_p

    rng = random.Random(233)
    for q in (3, 7, 13, 101):
        for _ in range(25):
            p = random_poly(rng, max_deg=8, span=q)
            fq = gf_from_int(p.coeffs, q)
            if len(fq) < 2:
                continue
            fq = gf_monic(fq, q)
            split = _good_split(UniPoly(fq), q)
            if split is None:
                assert not gf_sqf_p(list(reversed(fq)), q, ZZ)
                continue
            factors = gf_factor_squarefree(split)
            prod = [1]
            from rigicert.algebra.unipoly import gf_mul

            for f in factors:
                prod = gf_mul(prod, f, q)
            assert prod == fq
            _, theirs = gf_factor_sqf(list(reversed(fq)), q, ZZ)
            assert factors == sorted(list(reversed(g)) for g in theirs)


#: The largest prime q with 20 * q^2 < 2^63: the kernel's edge at degree 20.
EDGE_PRIME = next(c for c in range(math.isqrt((2**63 - 1) // 20), 0, -1) if is_prime(c))

#: The moduli of the kernel's differential tests, from GF(2) to the edge.
KERNEL_PRIMES = (2, 3, 9973, 999983, EDGE_PRIME)


def packed_ring(f: list[int], q: int) -> tuple[_Slots, _Ring]:
    slots = _Slots(len(f) - 1, q)
    return slots, _Ring(slots, slots.pack(f))


def test_packed_pow_against_list_powers():
    # the x^q of the sieve and the Cantor-Zassenhaus powers a^((q^d - 1)/2),
    # on packed slots, against square-and-multiply on coefficient lists; the
    # last prime is the largest with 20 * q^2 < 2^63
    rng = random.Random(263)
    for q in (2, 3, 5, 101, 9973, EDGE_PRIME):
        for n in rng.sample(range(2, 21), 5):
            assert n * q * q < 2**63
            f = [rng.randrange(q) for _ in range(n)] + [1]
            slots, ring = packed_ring(f, q)
            a = [rng.randrange(q) for _ in range(n)]
            d = rng.randint(1, n // 2)
            for e in (0, 1, 2, q, (q**d - 1) // 2, rng.randrange(q**d), rng.randrange(q * n)):
                packed = slots.to_list(ring.power(slots.pack(a), e))
                assert packed == gf_pow_mod(gf_from_int(a, q), e, f, q)
    # q = 2, d = 1 gives the exponent 0, and x^0 is 1
    slots, ring = packed_ring([1, 1, 1], 2)
    assert ring.power(slots.pack([0, 1]), (2**1 - 1) // 2) == 1


def test_x_power_around_the_degree():
    # x^e by squarings alone starts from x^j, j the longest prefix of e's
    # bits below n: e below n needs no product, e = n one fold, and so on
    rng = random.Random(313)
    for q in KERNEL_PRIMES:
        for n in (1, 2, 3, 7, 16, 20):
            f = [rng.randrange(q) for _ in range(n)] + [1]
            slots, ring = packed_ring(f, q)
            for e in [*range(2 * n + 3), q - 1, q, q + 1, n * q, q * q]:
                assert slots.to_list(ring.x_power(e)) == gf_pow_mod([0, 1], e, f, q)


def test_distinct_degree_steps_against_lists():
    # the packed sweep against the same sweep on coefficient lists, up to
    # the edge prime, squarefree f or not
    rng = random.Random(337)
    for q in KERNEL_PRIMES:
        for n in range(21):
            for _ in range(2):
                f = [rng.randrange(q) for _ in range(n)] + [1]
                slots = _Slots(n, q)
                steps = [(slots.to_list(g), d) for g, d in _distinct_degree_steps(slots, slots.pack(f))]
                assert steps == distinct_degree_steps_by_lists(f, q)


def test_packed_reduction_against_mod():
    # every slot below V = n * q^2 comes out as its residue mod q, in each of
    # the 2n slots a product fills: V - 1, multiples of q up to it, their
    # neighbours and random values
    assert EDGE_PRIME == 679093949
    rng = random.Random(317)
    for q in KERNEL_PRIMES:
        for n in range(1, 21):
            slots = _Slots(n, q)
            bound = n * q * q
            top = (bound - 1) // q * q
            special = [0, 1, q - 1, q, q + 1, 2 * q, top - 1, top, bound - 1]
            rows = [[bound - 1] * 2 * n, [top] * 2 * n]
            rows += [[rng.choice(special) for _ in range(2 * n)] for _ in range(3)]
            rows += [[rng.randrange(bound) for _ in range(2 * n)] for _ in range(3)]
            for row in rows:
                x = sum(v << (i * slots.width) for i, v in enumerate(row))
                assert slots.reduce(x) == slots.pack([v % q for v in row])
                assert slots.to_list(slots.reduce(x)) == gf_from_int(row, q)


def test_packed_euclid_against_lists():
    # the one GF(q) Euclid on packed slots against long division and
    # Euclid on coefficient lists: quotient and remainder, the monic gcd
    # and the extended gcd, with zero and constant operands among them
    rng = random.Random(331)

    def draw(q: int, degree: int) -> list[int]:
        return gf_from_int([rng.randrange(q) for _ in range(degree + 1)], q)

    for q in KERNEL_PRIMES:
        for n in range(1, 21):
            slots = _Slots(n, q)
            pairs = [([], []), ([], [1]), ([q - 1], []), ([1], [q - 1]), (draw(q, n), []), ([], draw(q, n))]
            pairs += [(draw(q, n), [rng.randrange(1, q)]), ([rng.randrange(1, q)], draw(q, n))]
            for _ in range(4):
                common = draw(q, rng.randint(0, n))
                rest = n - max(len(common) - 1, 0)
                pairs.append((gf_mul(common, draw(q, rng.randint(0, rest)), q), gf_mul(common, draw(q, rng.randint(0, rest)), q)))
                pairs.append((draw(q, rng.randint(0, n)), draw(q, rng.randint(0, n))))
            for a, b in pairs:
                pa, pb = slots.pack(a), slots.pack(b)
                if b:
                    quo, rem = slots.divmod(pa, pb)
                    assert (slots.to_list(quo), slots.to_list(rem)) == gf_divmod(a, b, q)
                else:
                    with pytest.raises(InputError, match="gf division by zero"):
                        slots.divmod(pa, pb)
                g = gf_gcd_by_lists(a, b, q)
                assert slots.to_list(slots.gcd(pa, pb)) == g
                if not (a or b):
                    with pytest.raises(InputError):
                        gf_extended_euclid(a, b, q)
                    continue
                g2, s, t = gf_extended_euclid(a, b, q)
                assert g2 == g and gf_add(gf_mul(s, a, q), gf_mul(t, b, q), q) == g


def test_gf_divmod_identity():
    # a = quo * b + rem with deg rem < deg b, every coefficient in [0, q);
    # 3^64 is a Hensel-sized modulus, where only a monic b is invertible
    rng = random.Random(239)
    for q in (2, 3, 9973, 3**64):
        for _ in range(80):
            lb = rng.randint(1, 8)
            lead = 1 if q == 3**64 else rng.randrange(1, q)
            b = [rng.randrange(q) for _ in range(lb - 1)] + [lead]
            a = gf_from_int([rng.randrange(q) for _ in range(rng.randint(0, 2 * lb + 4))], q)
            quo, rem = gf_divmod(a, b, q)
            assert len(rem) < len(b)
            assert all(0 <= c < q for c in quo + rem)
            assert quo[-1:] != [0] and rem[-1:] != [0]  # both stripped
            assert gf_add(gf_mul(quo, b, q), rem, q) == a
            if len(a) < len(b):
                assert (quo, rem) == ([], a)
    # a constant divisor leaves no remainder
    assert gf_divmod([4, 0, 3], [2], 5) == ([2, 0, 4], [])


def split_lists(split):
    """A packed split from `_good_split` as (coefficient list, degree) pairs."""
    if split is None:
        return None
    slots, pairs = split
    return [(slots.to_list(g), d) for g, d in pairs]


def test_good_split_against_sympy():
    # the distinct-degree split of a good prime against sympy's, and None
    # exactly where sympy finds the reduction not squarefree or q divides lc
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_ddf_zassenhaus, gf_sqf_p

    rng = random.Random(241)
    for q in (2, 3, 5, 23, 9973):
        checked = 0
        for n in range(1, 25):
            for _ in range(3):
                f = [rng.randrange(q) for _ in range(n)] + [1]
                split = split_lists(_good_split(UniPoly(f), q))
                if not gf_sqf_p(list(reversed(f)), q, ZZ):
                    assert split is None
                    continue
                theirs = gf_ddf_zassenhaus(list(reversed(f)), q, ZZ)
                assert split == [(list(reversed(g)), d) for g, d in theirs]
                checked += 1
        assert checked >= 24
        # a leading coefficient that q divides makes q bad, whatever below it
        p = UniPoly([rng.randrange(1, 100) for _ in range(4)] + [q * rng.randrange(1, 9)])
        assert _good_split(p, q) is None
        # p times a unit mod q, plus multiples of q, has the same split
        p = UniPoly([rng.randrange(q) for _ in range(6)] + [1])
        lead = rng.randrange(1, q)
        scaled = UniPoly([c * lead + q * rng.randrange(-5, 6) for c in p.coeffs])
        assert split_lists(_good_split(scaled, q)) == split_lists(_good_split(p, q))


def test_good_split_modulus_limit():
    # every slot sum stays below deg * q^2, which must stay below 2^63
    message = "GF(2147483647) kernel needs deg * q^2 < 2^63; degree 4 at modulus 2147483647 exceeds it"
    for call in (_good_split, degree_multiset_mod):
        with pytest.raises(InputError, match="2\\^63") as raised:
            call(UniPoly([1, 0, 0, 0, 1]), 2**31 - 1)
        assert str(raised.value) == message
    # the edge prime is accepted at degree 20, not at degree 21
    _Slots(20, EDGE_PRIME)
    with pytest.raises(InputError, match=f"degree 21 at modulus {EDGE_PRIME} exceeds it"):
        _Slots(21, EDGE_PRIME)


def test_primes_up_to():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(1) == []
    assert [q for q in range(-2, 1000) if is_prime(q)] == primes_up_to(999)


def test_unipoly_power_refuses_negative_and_non_int_exponents():
    p = UniPoly([1, 1])
    with pytest.raises(InputError, match="^negative power$"):
        p**-1
    for n in (1.5, 2.0, "2", Fraction(2)):
        with pytest.raises(InputError, match="integer power expected"):
            p**n
    assert p**0 == UniPoly([1]) and UniPoly() ** 0 == UniPoly([1]) and UniPoly() ** 3 == UniPoly()


def test_unipoly_refuses_bool_coefficients():
    # a bool would be kept as True and printed as such in a report
    for coeffs in ([True, 0, True], [1, False], (False,)):
        with pytest.raises(InputError, match="integer coefficient expected"):
            UniPoly(coeffs)
    # nor may a bool stand for an int power or scale
    p = UniPoly([1, 1])
    for value in (True, False):
        with pytest.raises(InputError, match="integer power expected"):
            p**value
        with pytest.raises(InputError, match="integer scale expected"):
            p.scale(value)
    assert UniPoly([1, 0, 1]).coeffs == (1, 0, 1)


def test_unipoly_results_are_built_clean():
    # every result is what the public constructor makes of its coefficients:
    # a tuple of ints with no trailing zero
    rng = random.Random(25)
    for _ in range(80):
        p, q = random_poly(rng, max_deg=6), random_poly(rng, max_deg=6)
        r = p * q
        results = [p + q, p - q, p - p, p + (-p), p + q - q.scale(1) - p, -p, r, UniPoly() * p]
        results += [p.scale(rng.randint(-3, 3)), p.scale(0), p**2, p**0, p.derivative(), UniPoly([7]).derivative()]
        results += [r.try_divide(q), p.normalized(), r.scale(-6).normalized(), poly_gcd(r, p), poly_gcd(p, q)]
        results += [UniPoly.from_fractions([Fraction(c, rng.randint(1, 5)) for c in p.coeffs] + [Fraction(0)])]
        for result in results:
            assert result == UniPoly(result.coeffs)
            assert type(result.coeffs) is tuple and all(type(c) is int for c in result.coeffs)
            assert not result.coeffs or result.coeffs[-1]
    with pytest.raises(InputError, match="integer scale expected"):
        UniPoly([1, 2]).scale(Fraction(1, 2))
