import math
import random
from itertools import combinations

import pytest

from decomplab import (
    CongruenceSystem,
    CrtWitnessPlan,
    build_plan,
    crt_solve,
    is_composite,
    is_prime,
    multiplicative_witness,
)


def test_crt_examples():
    assert crt_solve(CongruenceSystem(((0, 3), (0, 5), (0, 4)))) == (60, 60)
    assert crt_solve(CongruenceSystem(((1, 2),))) == (1, 2)
    assert crt_solve(CongruenceSystem(((2, 3), (3, 5)))) == (8, 15)


def test_crt_solution_is_smallest_positive():
    rng = random.Random(11)
    moduli_pool = [2, 3, 5, 7, 11, 13, 9, 25, 8]
    for _ in range(200):
        mods = rng.sample(moduli_pool, rng.randrange(1, 4))
        while any(math.gcd(a, b) != 1 for i, a in enumerate(mods) for b in mods[i + 1:]):
            mods = rng.sample(moduli_pool, rng.randrange(1, 4))
        congs = tuple((rng.randrange(m), m) for m in mods)
        x0, modulus = crt_solve(CongruenceSystem(congs))
        assert modulus == math.prod(mods)
        assert 1 <= x0 <= modulus
        assert all(x0 % m == r for r, m in congs)
        assert not any(
            all(x % m == r for r, m in congs) for x in range(1, min(x0, 2000))
        )


def test_congruence_validation():
    with pytest.raises(ValueError):
        CongruenceSystem(((0, 4), (0, 6)))
    with pytest.raises(ValueError):
        CongruenceSystem(((5, 3),))
    with pytest.raises(ValueError):
        CongruenceSystem(((0, 1),))


def test_build_plan_power_of_two():
    plan = build_plan((1, 2))
    assert plan.p_set == (4,)
    assert (plan.q1, plan.q2) == (3, 5)
    assert (plan.x0, plan.modulus) == (60, 60)
    assert (plan.prog_step, plan.prog_offset) == (120, 121)


def test_build_plan_odd_anchor():
    # q must dodge divisors of b2 - 1 = 2, so the auxiliaries are 5 and 7
    plan = build_plan((1, 3))
    assert plan.p_set == (3,)
    assert (plan.q1, plan.q2) == (5, 7)
    assert (plan.x0, plan.modulus) == (105, 105)
    assert (plan.prog_step, plan.prog_offset) == (315, 317)


def test_build_plan_mixed():
    plan = build_plan((1, 2, 3))
    assert plan.p_set == (3, 4)
    assert (plan.q1, plan.q2) == (5, 7)
    assert (plan.x0, plan.modulus) == (420, 420)
    assert (plan.prog_step, plan.prog_offset) == (840, 841)
    assert math.gcd(840, 841) == 1


def test_build_plan_four_with_odd_b2():
    # b2 = 3 is 3 mod 4: x0 must be 1 mod 4 or the offset would be even
    plan = build_plan((1, 3, 4))
    assert plan.x0 % 4 == 1
    assert plan.prog_offset % 2 == 1
    assert math.gcd(plan.prog_step, plan.prog_offset) == 1


def test_build_plan_validation():
    with pytest.raises(ValueError):
        build_plan((2, 3))
    with pytest.raises(ValueError):
        build_plan((1,))


def test_plan_invariants_exhaustive():
    for size in (1, 2, 3):
        for extra in combinations(range(2, 31), size):
            plan = build_plan((1,) + extra)
            b2 = plan.b[1]
            assert math.gcd(plan.prog_step, plan.prog_offset) == 1, plan
            assert plan.x0 % plan.q1 == 0 and plan.x0 % plan.q2 == 0
            assert plan.modulus % (plan.q1 * plan.q2) == 0
            for p in plan.p_set:
                if p == 4:
                    assert plan.x0 % 4 == (0 if b2 % 2 == 0 else 1)
                else:
                    assert plan.x0 % p == (1 if (b2 - 1) % p == 0 else 0)


def test_progression_identity_random_plans():
    rng = random.Random(42)
    for _ in range(100):
        size = rng.randrange(1, 4)
        extra = tuple(sorted(rng.sample(range(2, 60), size)))
        plan = build_plan((1,) + extra)
        b2 = plan.b[1]
        for t in (0, 1, rng.randrange(2, 10**6)):
            n = t * plan.modulus + plan.x0
            assert b2 * (n + 1) - 1 == plan.progression(t)


def test_witness_without_unit():
    w = multiplicative_witness((2, 3), 10, 100)
    assert w.branch == "nonunit" and w.n == 12
    assert w.validate()
    assert (w.n + 1) % 2 != 0 and (w.n + 1) % 3 != 0


def test_witness_without_unit_takes_next_multiple():
    w = multiplicative_witness((2, 3), 13, 100)
    assert w.n == 18


def test_witness_with_unit_small():
    w = multiplicative_witness((1, 2), 1, 10**4)
    # t=1 gives 241 (prime) but the scan starts above n0: t=2,3 give 361, 481
    assert w.t == 4 and w.n == 300
    assert w.validate()
    assert is_prime(2 * (w.n + 1) - 1)


def test_witness_with_unit_odd_b2():
    w = multiplicative_witness((1, 3), 1, 10**4)
    assert w.t == 2 and w.n == 315
    assert w.validate()
    assert is_prime(947) and 3 * (w.n + 1) - 1 == 947
    assert (w.n + 1) % 3 != 0


def test_witness_checks_recompute():
    for b in ((1, 2), (1, 6), (1, 2, 3), (1, 3, 4), (1, 5, 7)):
        w = multiplicative_witness(b, 1, 10**5)
        assert w is not None and w.validate(), b
        assert is_composite(w.n)
        assert all((w.n + 1) % v != 0 for v in b if v > 1)
        if w.branch == "unit":
            assert is_prime(b[1] * (w.n + 1) - 1)


def test_witness_not_found():
    # a one-step scan window with a composite progression value
    assert multiplicative_witness((1, 2), 1, 2) is None  # t=2 gives 361 = 19**2


def test_witness_validation_contract():
    with pytest.raises(ValueError):
        multiplicative_witness((3,), 1, 10)
    with pytest.raises(ValueError):
        multiplicative_witness((0, 2), 1, 10)
    with pytest.raises(ValueError):
        multiplicative_witness((2, 3), 0, 10)


def test_witness_refuses_an_empty_unit_range():
    # with 1 in b, t runs over (n0, t_hi], which is empty here
    for n0, t_hi in ((2 * 10**6, 10**6), (5, 5)):
        with pytest.raises(ValueError, match="empty search range"):
            multiplicative_witness((1, 2), n0, t_hi)
    assert multiplicative_witness((4, 9), 5, 5).branch == "nonunit"  # no scan, no range


def test_witness_json_shape():
    w = multiplicative_witness((1, 2), 1, 10**4)
    d = w.to_json_dict()
    assert set(d) == {"b", "branch", "plan", "n", "checks"}
    assert d["branch"] == "unit"
    assert d["plan"]["prog_step"] == 120 and d["plan"]["prog_offset"] == 121
    assert d["checks"]["shifted_prime"] == 601
    w = multiplicative_witness((4, 9), 5, 10)
    d = w.to_json_dict()
    assert d["branch"] == "nonunit" and d["plan"] is None


def test_transcript_present():
    w = multiplicative_witness((1, 5), 1, 10**4)
    assert w.transcript and any("progression" in line for line in w.transcript)
