import math
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from decomplab import (
    GammaSemigroup,
    IntegerSet,
    ResourceLimitError,
    SUnitEquation,
    enumerate_semigroup,
    h_family,
    l_set,
    mprimitivity_scan,
    productset,
    solve_sunit,
    solve_two_term,
    strip_gamma_part,
    two_term_min_exponent_bound,
    verify_exceptional_factorization,
    windowed_equal,
)
from decomplab import semigroup
from decomplab.semigroup import SolutionClass, _has_vanishing_subsum
from oracles import (
    coprime_sums,
    h_family_star,
    sunit_classes,
    sunit_triples,
    two_term_sweep,
    vanishing_subsum,
)

G2 = GammaSemigroup.of([2])
G3 = GammaSemigroup.of([3])
G23 = GammaSemigroup.of([2, 3])


def test_generator_validation():
    with pytest.raises(ValueError) as err:
        GammaSemigroup.of([6, 10])
    assert "6" in str(err.value) and "10" in str(err.value)
    with pytest.raises(ValueError):
        GammaSemigroup.of([1, 3])
    with pytest.raises(ValueError):
        GammaSemigroup.of([])
    assert GammaSemigroup.of([35, 6]).generators == (6, 35)


def test_enumerate_semigroup_examples():
    assert tuple(enumerate_semigroup(G2, 20).elements) == (1, 2, 4, 8, 16)
    assert tuple(enumerate_semigroup(G23, 20).elements) == (1, 2, 3, 4, 6, 8, 9, 12, 16, 18)
    assert tuple(enumerate_semigroup(GammaSemigroup.of([6, 35]), 40).elements) == (1, 6, 35, 36)


def test_enumerate_semigroup_closure():
    for g, limit in ((G23, 200), (GammaSemigroup.of([4, 9, 25]), 500)):
        values = enumerate_semigroup(g, limit)
        vset = set(values)
        for x in values:
            for y in values:
                if x * y <= limit:
                    assert x * y in vset, (x, y)


def test_h_family_examples():
    assert tuple(h_family(G2, 2, 20).elements) == (2, 3, 5, 9, 17)
    assert tuple(h_family(G23, 2, 20).elements) == (2, 3, 4, 5, 7, 9, 10, 11, 13, 17, 19)
    assert h_family(G23, 1, 50).elements == enumerate_semigroup(G23, 50).elements


def test_h_family_brute_force():
    # each limit is a block sum, then one less, so the top sum is kept once
    # and dropped once
    for gens in ((2,), (2, 3), (2, 3, 5), (4, 9, 25), (6, 35)):
        g = GammaSemigroup.of(gens)
        elems = enumerate_semigroup(g, 80).elements
        for k in (1, 2, 3, 4):
            for cumulative in (False, True):
                top = max(coprime_sums(elems, k, 80, cumulative))
                for limit in (top, top - 1):
                    want = coprime_sums(elems, k, limit, cumulative)
                    got = set(h_family(g, k, limit, cumulative).elements)
                    assert got == want, (gens, k, cumulative, limit)


def test_coprime_blocks_match_brute_force_on_random_generators():
    # blocks are walked by the generators dividing each element; 4, 9, 25
    # and 27 are generators too, sharing no prime with the others
    rng = random.Random(26)
    pool = (2, 3, 4, 5, 7, 9, 11, 25, 27)
    for _ in range(40):
        gens = []
        for gen in rng.sample(pool, rng.randint(1, 4)):
            if all(math.gcd(gen, h) == 1 for h in gens):
                gens.append(gen)
        g, k, limit = GammaSemigroup.of(gens), rng.randint(1, 4), rng.randint(10, 150)
        elems = enumerate_semigroup(g, limit).elements
        want = [combo for size in range(1, k + 1)
                for combo in combinations_with_replacement(elems, size)
                if all(math.gcd(x, y) == 1 for x, y in combinations(combo, 2))]
        blocks = semigroup._coprime_blocks(g, k, limit)
        assert sorted(blocks) == sorted(want), (gens, k, limit)
        for cumulative in (False, True):
            got = set(h_family(g, k, limit, cumulative).elements)
            assert got == coprime_sums(elems, k, limit, cumulative), (gens, k, limit)
            assert got <= set(h_family_star(g, k, limit, cumulative).elements)


def test_h_family_monotone():
    for k in (2, 3, 4):
        exact = set(h_family(G23, k, 100).elements)
        cum = set(h_family(G23, k, 100, cumulative=True).elements)
        cum_next = set(h_family(G23, k + 1, 100, cumulative=True).elements)
        assert exact <= cum <= cum_next


def test_h_family_star_absorbs_semigroup():
    # without coprimality the family is closed under semigroup scaling
    limit = 400
    for g in (G2, G23):
        for k in (2, 3):
            star = h_family_star(g, k, limit)
            for c in (2, 3, 6):
                scaled = productset(
                    enumerate_semigroup(g, c),
                    IntegerSet(star.slice(1, limit // c), 1, limit // c),
                )
                shrunk = limit // c
                eq, _ = windowed_equal(
                    IntegerSet(scaled.slice(1, shrunk), 1, shrunk),
                    IntegerSet(star.slice(1, shrunk), 1, shrunk),
                    1,
                    shrunk,
                )
                assert eq, (g.generators, k, c)


def test_exceptional_factorization():
    report = verify_exceptional_factorization(20)
    assert report.passed
    assert report.family_count == 12  # {1,2,3,4,5,6,8,9,10,16,17,18}
    assert verify_exceptional_factorization(8).passed
    assert verify_exceptional_factorization(2**10).passed
    with pytest.raises(ValueError):
        verify_exceptional_factorization(7)


def test_exceptional_families_expand_both_sides():
    fam = h_family(G2, 3, 20, cumulative=True)
    assert tuple(fam.elements) == (1, 2, 3, 4, 5, 6, 8, 9, 10, 16, 17, 18)
    assert tuple(h_family(G2, 3, 8, cumulative=True).elements) == (1, 2, 3, 4, 5, 6, 8)


def test_strip_gamma_part_examples():
    assert strip_gamma_part(60, G23) == (5, 12)
    assert strip_gamma_part(252, GammaSemigroup.of([6, 35])) == (7, 36)
    assert strip_gamma_part(7, G23) == (7, 1)


def test_strip_gamma_part_properties():
    rng = random.Random(17)
    for _ in range(500):
        a = rng.randrange(1, 10**6)
        a0, d = strip_gamma_part(a, G23)
        assert a0 * d == a
        assert a0 % 2 and a0 % 3
        assert d in set(enumerate_semigroup(G23, max(d, 1)))
        assert strip_gamma_part(a0, G23) == (a0, 1)


def test_sunit_classes_two_three():
    classes = solve_sunit(SUnitEquation.of([1, 1, -1], G23), 100)
    reps = {c.representative for c in classes}
    symmetric = {tuple(sorted(r[:2])) + (r[2],) for r in reps}
    assert symmetric == {(1, 1, 2), (1, 2, 3), (1, 3, 4), (1, 8, 9)}
    assert not any(c.degenerate for c in classes)


def test_sunit_matches_triple_loop():
    elems = enumerate_semigroup(G23, 100).elements
    want = sunit_triples(elems, 100)
    got = {c.representative for c in solve_sunit(SUnitEquation.of([1, 1, -1], G23), 100)}
    assert got == want


def test_sunit_two_terms():
    classes = solve_sunit(SUnitEquation.of([1, -1], G23), 50)
    assert [c.representative for c in classes] == [(1, 1)]
    assert not classes[0].degenerate


def test_sunit_four_terms_powers_of_two():
    classes = solve_sunit(SUnitEquation.of([1, 1, 1, -1], G2), 16)
    reps = {c.representative for c in classes}
    assert (1, 1, 2, 4) in reps
    # proportional copies like (2,2,4,8) collapse onto their reduced form
    assert (2, 2, 4, 8) not in reps
    for rep in reps:
        assert rep[0] + rep[1] + rep[2] == rep[3]


def test_sunit_symmetric_slot_permutations_enumerated():
    # the first two coefficients are equal, so swapping those slots of any
    # class representative must land on another enumerated class
    classes = solve_sunit(SUnitEquation.of([1, 1, -1], G23), 100)
    reps = {c.representative for c in classes}
    for r in reps:
        assert (r[1], r[0], r[2]) in reps, r


def test_sunit_no_two_classes_proportional():
    classes = solve_sunit(SUnitEquation.of([1, 1, -1], G23), 200)
    reps = [c.representative for c in classes]
    elems = [e for e in enumerate_semigroup(G23, 200).elements if e > 1]
    for i, r in enumerate(reps):
        for s in reps[i + 1:]:
            for lam in elems:
                assert tuple(x * lam for x in r) != s
                assert tuple(x * lam for x in s) != r


def test_sunit_degenerate_flag():
    # 2^a + 2^b = 2^c + 2^d forces {a,b} = {c,d}, so some term pair always
    # cancels: every solution of x1 - x2 + x3 - x4 = 0 over powers of two
    # is degenerate
    classes = solve_sunit(SUnitEquation.of([1, -1, 1, -1], G2), 8)
    flags = {c.representative: c.degenerate for c in classes}
    assert flags[(1, 1, 1, 1)] is True
    assert flags[(1, 1, 2, 2)] is True
    assert all(flags.values())


def test_vanishing_subsum_matches_subset_loop():
    rng = random.Random(11)
    for _ in range(3000):
        m = rng.randint(2, 6)
        if rng.random() < 0.5:
            terms = [rng.choice([-1, 1]) * rng.randint(1, 12) for _ in range(m - 1)]
        else:
            terms = [Fraction(rng.randint(-12, 12) or 1, rng.randint(1, 4)) for _ in range(m - 1)]
        if sum(terms) == 0:
            continue
        terms.append(-sum(terms))
        pos = [t for t in terms if t > 0]
        neg = [-t for t in terms if t < 0]
        assert _has_vanishing_subsum(pos, neg) == vanishing_subsum(terms), terms
    # the split l_set makes: eps*(x1+...+xl) = eta*(y1+...+yh)
    elems = enumerate_semigroup(G23, 36).elements
    scales = enumerate_semigroup(G23, 6).elements
    by_sum = {}
    for size in (1, 2, 3):
        for blk in combinations_with_replacement(elems, size):
            by_sum.setdefault(sum(blk), []).append(blk)
    blocks = [blk for group in by_sum.values() for blk in group]
    for _ in range(3000):
        eps, eta, xs = rng.choice(scales), rng.choice(scales), rng.choice(blocks)
        if eps * sum(xs) % eta or eps * sum(xs) // eta not in by_sum:
            continue
        ys = rng.choice(by_sum[eps * sum(xs) // eta])
        pos, neg = [eps * x for x in xs], [eta * y for y in ys]
        assert _has_vanishing_subsum(pos, neg) == vanishing_subsum(pos + [-v for v in neg])


def test_sunit_rational_coeffs():
    classes = solve_sunit(SUnitEquation.of([Fraction(1, 2), -1], G2), 32)
    # x1/2 = x2: representatives reduce by the common power of two
    assert [c.representative for c in classes] == [(2, 1)]


def _sunit_case(rng, elems, m, variant):
    """Coefficients for one randomized case: 0 small integers of either
    sign; 1 rational, with the last one planted so that a random tuple of
    elements solves the equation; 2 as 1 with a negative first coefficient;
    3 all positive, so that nothing solves it."""
    if variant == 0:
        return [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(m)]
    if variant == 3:
        return [Fraction(rng.randint(1, 5), rng.choice([1, 1, 2, 3])) for _ in range(m)]
    while True:
        coeffs = [Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.choice([1, 1, 2, 3]))
                  for _ in range(m - 1)]
        if variant == 2:
            coeffs[0] = -abs(coeffs[0])
        xs = [rng.choice(elems) for _ in range(m)]
        partial = sum(c * x for c, x in zip(coeffs, xs))
        if partial:
            return coeffs + [-partial / xs[-1]]


def test_sunit_matches_reference_loop():
    rng = random.Random(20261018)
    gammas = [GammaSemigroup.of(g) for g in ([2], [2, 3], [2, 3, 5], [4, 9], [6, 35])]
    seen = {"solved": 0, "degenerate": 0, "empty": 0}
    for g in gammas:
        for m in range(2, 6):
            for variant in range(4):
                height = rng.randint(30, 3000)
                while len(enumerate_semigroup(g, height)) ** (m - 1) > 1000:
                    height //= 2
                elems = enumerate_semigroup(g, height).elements
                coeffs = _sunit_case(rng, elems, m, variant)
                got = solve_sunit(SUnitEquation.of(coeffs, g), height)
                assert got == sunit_classes(coeffs, g, height), (coeffs, g, height)
                if variant == 3:
                    assert got == []
                seen["solved"] += bool(got)
                seen["degenerate"] += any(c.degenerate for c in got)
                seen["empty"] += not got
    assert seen["solved"] >= 40 and seen["degenerate"] >= 5 and seen["empty"] >= 20, seen


def test_sunit_refuses_past_the_head_budget(monkeypatch):
    g = GammaSemigroup.of([2, 3, 5, 7])
    assert len(enumerate_semigroup(g, 10**12)) == 14672

    def no_walk(*args, **kwargs):
        raise AssertionError("the head tuples were walked")

    with monkeypatch.context() as patch:
        patch.setattr(semigroup, "iter_product", no_walk)
        with pytest.raises(ResourceLimitError):
            solve_sunit(SUnitEquation.of([1, 1, 1, -1], g), 10**12)
    assert solve_sunit(SUnitEquation.of([1, -1], g), 10**12) == [SolutionClass((1, 1), False)]
    # the budget is max(SUNIT_BUDGET, E) head tuples: E = 10 below 20 here
    monkeypatch.setattr(semigroup, "SUNIT_BUDGET", 100)
    assert solve_sunit(SUnitEquation.of([1, 1, 1, -1], G23), 20)
    monkeypatch.setattr(semigroup, "SUNIT_BUDGET", 99)
    with pytest.raises(ResourceLimitError):
        solve_sunit(SUnitEquation.of([1, 1, 1, -1], G23), 20)
    assert solve_sunit(SUnitEquation.of([1, 1, -1], G23), 20)
    monkeypatch.setattr(semigroup, "SUNIT_BUDGET", 1)
    assert solve_sunit(SUnitEquation.of([1, 1, -1], G23), 20)


def test_sunit_class_count_stable_with_height():
    counts = {
        h: len(solve_sunit(SUnitEquation.of([1, 1, -1], G23), h))
        for h in (100, 1000, 10**4)
    }
    assert counts[100] == counts[1000] == counts[10**4]


def test_sunit_validation():
    with pytest.raises(ValueError):
        SUnitEquation.of([1, 0, -1], G23)
    with pytest.raises(ValueError):
        SUnitEquation.of([1], G23)
    with pytest.raises(ValueError):
        solve_sunit(SUnitEquation.of([1, -1], G23), 0)


def test_l_set_small_height():
    assert set(l_set(G23, 2, 1, 1)) <= {1}
    assert set(l_set(G23, 2, 1, 4)) <= {1}


def test_l_set_contains_pair_sum_coordinates():
    coords = set(l_set(G23, 2, 100, 10))
    assert {1, 2, 3, 4, 8, 9} <= coords


def test_l_set_matches_brute_force():
    g = G2
    height, eps_height, k = 16, 4, 2
    elems = enumerate_semigroup(g, height).elements
    eps_elems = enumerate_semigroup(g, eps_height).elements
    blocks = [(x,) for x in elems]
    for x, y in combinations_with_replacement(elems, 2):
        if math.gcd(x, y) == 1:
            blocks.append(tuple(sorted((x, y))))
    want = set()
    for eps in eps_elems:
        for eta in eps_elems:
            for xs in blocks:
                for ys in blocks:
                    if len(xs) + len(ys) < 3:
                        continue
                    if eps * sum(xs) != eta * sum(ys):
                        continue
                    sx = {0}
                    for v in xs:
                        sx |= {s + eps * v for s in sx}
                    sy = {0}
                    for v in ys:
                        sy |= {s + eta * v for s in sy}
                    if (sx & sy) - {0, eps * sum(xs)}:
                        continue
                    want.update(xs)
                    want.update(ys)
    assert set(l_set(g, k, height, eps_height)) == want


def test_two_term_examples():
    assert solve_two_term(1, 1, 2, 0, 10) == [(a, a) for a in range(11)]
    assert solve_two_term(3, 1, 2, 1, 20) == [(0, 1)]
    assert solve_two_term(1, 2, 3, 1, 20) == [(1, 0)]


def test_two_term_brute_force_consistency():
    rng = random.Random(23)
    for _ in range(100):
        t2, t1 = rng.randrange(1, 9), rng.randrange(1, 9)
        n = rng.randrange(2, 6)
        c = rng.randrange(-20, 21)
        got = solve_two_term(t2, t1, n, c, 8)
        want = [
            (a1, a2)
            for a1 in range(9)
            for a2 in range(9)
            if t2 * n**a1 - t1 * n**a2 == c
        ]
        assert got == want


def test_two_term_lookup_matches_sweep():
    rng = random.Random(20201126)
    for _ in range(300):
        n, cap = rng.randrange(2, 12), rng.randrange(0, 30)
        t2 = rng.randrange(1, 50)
        # t1 = t2 * n**k puts a whole diagonal of solutions at c = 0
        t1 = t2 * n ** rng.randrange(3) if rng.random() < 0.3 else rng.randrange(1, 50)
        a1, a2 = rng.randrange(cap + 1), rng.randrange(cap + 1)
        planted = t2 * n**a1 - t1 * n**a2
        assert (a1, a2) in solve_two_term(t2, t1, n, planted, cap)
        for c in (0, planted, -abs(planted), rng.randrange(-10**6, 0), rng.randrange(10**6)):
            assert solve_two_term(t2, t1, n, c, cap) == two_term_sweep(t2, t1, n, c, cap)


def test_two_term_min_exponent_bound():
    assert two_term_min_exponent_bound(2, 0) is None
    assert two_term_min_exponent_bound(2, 12) == 2
    assert two_term_min_exponent_bound(3, 5) == 0
    # every solution respects the bound
    sols = solve_two_term(3, 1, 2, 4, 10)
    bound = two_term_min_exponent_bound(2, 4)
    assert all(min(s) <= bound for s in sols)


def test_mprim_scan_finds_exceptional_part():
    report = mprimitivity_scan(G2, 3, 2**16, cumulative=True, max_b_size=2, max_b_elem=2)
    assert [c.b for c in report.candidates] == [(1, 2)]
    assert report.expected_parts == ((1, 2),) and report.consistent


def test_mprim_scan_negative_cases_small():
    report = mprimitivity_scan(G23, 2, 10**4, max_b_size=3, max_b_elem=30)
    assert report.candidates == () and report.consistent
    report = mprimitivity_scan(G3, 3, 10**4, cumulative=True, max_b_size=3, max_b_elem=30)
    assert report.candidates == () and report.consistent
