"""Acceptance suite: the project's exit criteria, one test per criterion.

Run with `pytest -s tests/test_acceptance.py -v` to see one pass/fail line
per criterion.
"""

import contextlib
import io
import math
import random
import time
from itertools import combinations

from decomplab import (
    GammaSemigroup,
    IntegerSet,
    SmoothnessPolicy,
    SUnitEquation,
    additive_witness,
    build_plan,
    decompose_search,
    enumerate_semigroup,
    factorize,
    h_family,
    is_prime,
    mprimitivity_scan,
    multiplicative_witness,
    productset,
    select_triple,
    satisfies_covering,
    sieve,
    smooth_set,
    solve_sunit,
    strip_gamma_part,
    sumset,
    verify_composite_decomposition,
    verify_exceptional_factorization,
)
from decomplab.cli import EXIT_OK, run
from decomplab.tuples import is_admissible
from oracles import additive_accepted_parts, sunit_triples


def _check(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {status}: {label}{suffix}")
    assert ok, f"{label}{suffix}"


def _run_cli_quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return run(argv)


def composites_window(lo, hi):
    mask = sieve(hi).mask()
    return IntegerSet(tuple(n for n in range(max(lo, 2), hi + 1) if not mask[n]), lo, hi)


def test_composite_cover_exact_at_one_million():
    started = time.perf_counter()
    report = verify_composite_decomposition(10**6)
    elapsed = time.perf_counter() - started
    code = _run_cli_quiet(["verify-thm1", "--limit", "1000000"])
    _check(
        "composite cover equals base + {0,1,3,5} on [9, 10^6], zero mismatches, fast",
        report.passed
        and report.first_mismatch is None
        and report.covered_count == report.composite_count
        and code == EXIT_OK
        and elapsed < 10.0,
        f"{report.composite_count} composites, {elapsed:.2f}s",
    )


def test_triple_selector_exhaustive_to_300():
    pairs = 0
    failures = []
    for b3 in range(2, 301):
        for b2 in range(1, b3):
            t, case = select_triple(b2, b3)
            pairs += 1
            if not (is_admissible(t) and satisfies_covering(t, (0, b2, b3))):
                failures.append((b2, b3, case))
    _check(
        "offset-pattern selector admissible and covering for every pair up to 300",
        pairs == 44850 and not failures,
        f"{pairs} pairs, {len(failures)} failures",
    )


def test_small_additive_witnesses_all_found():
    missing = []
    largest = 0
    for b2 in range(1, 21):
        w = additive_witness((0, b2), 9, 10**7)
        if w is None or not w.validate():
            missing.append((0, b2))
        else:
            largest = max(largest, w.n)
    for b2, b3 in combinations(range(1, 13), 2):
        w = additive_witness((0, b2, b3), 9, 10**7)
        if w is None or not w.validate():
            missing.append((0, b2, b3))
        else:
            largest = max(largest, w.n)
    _check(
        "validated additive witnesses below 10^7 for every pair base (b2 <= 20) "
        "and triple base (b3 <= 12)",
        not missing,
        f"86 bases, largest witness n = {largest}",
    )


def test_multiplicative_witnesses_and_progression_identity():
    failures = []
    for size in (1, 2):
        for extra in combinations(range(2, 13), size):
            b = (1,) + extra
            w = multiplicative_witness(b, 1, 10**6)
            if w is None or not w.validate():
                failures.append(b)
    rng = random.Random(404)
    for _ in range(20):
        size = rng.randrange(2, 5)
        b = tuple(sorted(rng.sample(range(2, 40), size)))
        w = multiplicative_witness(b, rng.randrange(1, 50), 100)
        if w is None or w.branch != "nonunit" or not w.validate():
            failures.append(b)
    identity_ok = True
    for _ in range(100):
        size = rng.randrange(1, 4)
        plan = build_plan((1,) + tuple(sorted(rng.sample(range(2, 60), size))))
        b2 = plan.b[1]
        # identity b2*(n+1) - 1 == step*t + offset holds for every t exactly
        # when the assembled step and offset take these algebraic forms
        if plan.prog_step != b2 * plan.modulus:
            identity_ok = False
        if plan.prog_offset != b2 * (plan.x0 + 1) - 1:
            identity_ok = False
        for t in (0, 1, rng.randrange(2, 10**9)):
            if b2 * ((t * plan.modulus + plan.x0) + 1) - 1 != plan.progression(t):
                identity_ok = False
    _check(
        "validated multiplicative witnesses for every unit base within [1,12] "
        "(sizes 2-3), 20 random unit-free bases, progression identity on 100 plans",
        not failures and identity_ok,
        f"{len(failures)} failures",
    )


def test_exceptional_identity_at_three_scales():
    results = {}
    for exp in (10, 20, 30):
        report = verify_exceptional_factorization(2**exp)
        results[exp] = report.passed and report.first_mismatch is None
    code = _run_cli_quiet(["verify-exception", "--limit", "1048576"])
    _check(
        "cumulative three-term family over {2} factors exactly as "
        "{1,2} x {2^b, 2^b+1} at limits 2^10, 2^20, 2^30",
        all(results.values()) and code == EXIT_OK,
        str(results),
    )


def test_multiplicative_primitivity_scans():
    negative = [
        ((2, 3), 2, False),
        ((2,), 2, False),
        ((3,), 3, True),
    ]
    ok = True
    details = []
    for gens, k, cum in negative:
        report = mprimitivity_scan(
            GammaSemigroup.of(gens), k, 10**5,
            cumulative=cum, max_b_size=3, max_b_elem=100,
        )
        ok &= report.candidates == () and report.consistent
        details.append(f"{gens} k={k} cum={cum}: {len(report.candidates)}")
    exceptional = mprimitivity_scan(
        GammaSemigroup.of([2]), 3, 10**5,
        cumulative=True, max_b_size=3, max_b_elem=100,
    )
    ok &= [c.b for c in exceptional.candidates] == [(1, 2)] and exceptional.consistent
    details.append(f"(2,) k=3 cum=True: {[c.b for c in exceptional.candidates]}")
    _check(
        "scans find no multiplicative part except exactly {1,2} in the one "
        "exceptional configuration",
        ok,
        "; ".join(details),
    )


def test_additive_search_over_composites():
    target = composites_window(9, 10**5)
    small = decompose_search(target, "additive", 3, 50)
    wide = decompose_search(target, "additive", 4, 5)
    parts = [c.b for c in wide]
    _check(
        "no additive part of size <= 3 with elements <= 50 survives on the "
        "composites window, while {0,1,3,5} is found at size 4",
        small == [] and (0, 1, 3, 5) in parts,
        f"size-4 candidates: {parts}",
    )


def test_search_and_sunit_match_independent_oracles():
    rng = random.Random(20260811)
    mismatches = 0
    for _ in range(200):
        density = rng.uniform(0.15, 0.95)
        values = [v for v in range(0, 31) if rng.random() < density]
        if not values:
            values = [rng.randrange(0, 31)]
        target = IntegerSet(tuple(values), 0, 30)
        got = [c.b for c in decompose_search(target, "additive", 3, 10, full_window=True)]
        want = additive_accepted_parts(values, 0, 30, 3, 10, True)
        if got != want:
            mismatches += 1
    classes = solve_sunit(SUnitEquation.of([1, 1, -1], GammaSemigroup.of([2, 3])), 100)
    reps = {c.representative for c in classes}
    loop = sunit_triples(enumerate_semigroup(GammaSemigroup.of([2, 3]), 100).elements, 100)
    symmetric = {tuple(sorted(r[:2])) + (r[2],) for r in reps}
    sunit_ok = (
        reps == loop
        and symmetric == {(1, 1, 2), (1, 2, 3), (1, 3, 4), (1, 8, 9)}
        and not any(c.degenerate for c in classes)
    )
    _check(
        "windowed search equals the brute-force searcher on 200 random targets, "
        "and the sum-equation classes match a naive triple loop",
        mismatches == 0 and sunit_ok,
        f"{mismatches} target mismatches; classes {sorted(symmetric)}",
    )


def _random_coprime_generators(rng):
    pool = [2, 3, 5, 7, 11, 13, 4, 9, 25, 8, 27, 49, 121]
    rng.shuffle(pool)
    chosen = []
    for cand in pool:
        if all(math.gcd(cand, c) == 1 for c in chosen):
            chosen.append(cand)
        if len(chosen) == rng.randrange(1, 4):
            break
    return GammaSemigroup.of(chosen)


def test_randomized_property_suites():
    cases = 10**4
    rng = random.Random(1789)

    for _ in range(cases):
        n = rng.randrange(1, 1 << 63)
        product = 1
        for p, e in factorize(n):
            assert is_prime(p)
            product *= p**e
        assert product == n
    print(f"  factorization round-trip: {cases} cases")

    gammas = [GammaSemigroup.of(g) for g in ((2, 3), (2,), (6, 35), (4, 9, 25), (3, 10))]
    for _ in range(cases):
        g = rng.choice(gammas)
        a = rng.randrange(1, 10**9)
        a0, d = strip_gamma_part(a, g)
        assert a0 * d == a
        assert all(a0 % gen for gen in g.generators)
        assert d in set(enumerate_semigroup(g, d))
        assert strip_gamma_part(a0, g) == (a0, 1)
    print(f"  gamma-part split identities: {cases} cases")

    for _ in range(cases):
        g = _random_coprime_generators(rng)
        k = rng.randrange(2, 5)
        limit = rng.randrange(10, 81)
        exact = set(h_family(g, k, limit))
        cum = set(h_family(g, k, limit, cumulative=True))
        cum_next = set(h_family(g, k + 1, limit, cumulative=True))
        assert exact <= cum <= cum_next
    print(f"  sum-family monotonicity: {cases} cases")

    zero = IntegerSet((0,), 0, 0)
    one = IntegerSet((1,), 1, 1)
    for _ in range(cases):
        a = IntegerSet.from_values(rng.sample(range(0, 200), rng.randrange(1, 9)))
        b = IntegerSet.from_values(rng.sample(range(0, 200), rng.randrange(1, 9)))
        assert sumset(a, b).elements == sumset(b, a).elements
        assert sumset(zero, a).elements == a.elements
        ap = IntegerSet.from_values([v + 1 for v in a.elements])
        bp = IntegerSet.from_values([v + 1 for v in b.elements])
        assert productset(one, ap).elements == ap.elements
        assert productset(ap, bp).elements == productset(bp, ap).elements
    print(f"  sumset/productset identities: {cases} cases")

    _check(
        "randomized invariants at 10^4 cases per family",
        True,
        "factorization, gamma-part, sum-family monotonicity, set algebra",
    )


def test_smoothness_policies_partition_and_shift():
    # supporting spot checks tied to the windowed-set plumbing the criteria use
    x = 2000
    smooth = set(smooth_set(SmoothnessPolicy.composites(), x))
    primes = {int(p) for p in sieve(x).primes()}
    partition_ok = (smooth | primes | {1} == set(range(1, x + 1))) and not (smooth & primes)
    shift_ok = True
    for policy in (SmoothnessPolicy.composites(), SmoothnessPolicy.fixed_bound(7)):
        base = smooth_set(policy, 499)
        from decomplab import shifted_smooth_set

        shift_ok &= tuple(shifted_smooth_set(policy, 500).elements) == tuple(
            m + 1 for m in base.elements
        )
    _check(
        "smooth sets partition against primes and shift cleanly",
        partition_ok and shift_ok,
    )
