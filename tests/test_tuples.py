import tracemalloc

import pytest

from decomplab import (
    OffsetTuple,
    additive_witness,
    find_constellation,
    is_admissible,
    is_composite,
    is_prime,
    satisfies_covering,
    select_triple,
)
from decomplab import arith, tuples
from oracles import naive_constellation, naive_is_prime


def offs(*values):
    return OffsetTuple.of(values)


def test_offset_tuple_collapses_duplicates():
    t = offs(-1, -1, 1)
    assert t.offsets == (-1, 1)
    with pytest.raises(ValueError):
        OffsetTuple.of([])
    with pytest.raises(ValueError):
        OffsetTuple((3, 1))


def test_is_admissible_examples():
    assert not is_admissible(offs(0, 2, 4))  # hits 0,2,1 mod 3
    assert is_admissible(offs(0, 2, 6))
    assert is_admissible(offs(-1, 1))
    assert not is_admissible(offs(0, 1))  # opposite parities cover mod 2
    assert not is_admissible(offs(0, 1, 2))


def test_is_admissible_brute_force():
    # cross-check against a direct residue enumeration for every small tuple
    from itertools import combinations

    for size in (2, 3, 4):
        for t in combinations(range(-4, 8), size):
            expected = True
            for p in (2, 3):
                if p <= size and len({u % p for u in t}) == p:
                    expected = False
            assert is_admissible(offs(*t)) == expected, t


def test_select_triple_examples():
    t, case = select_triple(1, 2)
    assert case == "t4" and t.offsets == (-1, 1)
    t, case = select_triple(2, 4)
    assert case == "t2" and t.offsets == (-4, -2, 2)
    t, case = select_triple(3, 9)
    assert case == "t1" and t.offsets == (-9, -3, 9)


def test_select_triple_hits_all_cases():
    seen = {}
    for b3 in range(2, 61):
        for b2 in range(1, b3):
            t, case = select_triple(b2, b3)
            seen.setdefault(case, (b2, b3))
            assert is_admissible(t)
            assert satisfies_covering(t, (0, b2, b3))
    assert sorted(seen) == ["t1", "t2", "t3", "t4", "t5", "t6"]


def test_select_triple_validation():
    with pytest.raises(ValueError):
        select_triple(0, 3)
    with pytest.raises(ValueError):
        select_triple(3, 3)


def test_find_constellation_twin_pattern():
    got = find_constellation(offs(-1, 1), 3, 10, require_composite_center=True)
    assert got.typecode == "Q" and got.tolist() == [4, 6]


def test_find_constellation_cousin_consecutive():
    got = find_constellation(offs(-2, 2), 3, 20, require_composite_center=True,
                             require_consecutive=True)
    assert got.tolist() == [9, 15]  # 7,11 and 13,17 are consecutive prime pairs


def test_find_constellation_triple_pattern():
    assert find_constellation(offs(0, 2, 6), 1, 20).tolist() == [5, 11, 17]


def test_find_constellation_against_naive():
    for t in (offs(-1, 1), offs(0, 2, 6), offs(0, 4, 6), offs(-3, -1, 3)):
        got = find_constellation(t, 1, 500)
        want = [
            n for n in range(1, 501)
            if all(n + u >= 2 and naive_is_prime(n + u) for u in t.offsets)
        ]
        assert got.tolist() == want, t.offsets


def test_consecutive_filter_is_a_subset():
    t = offs(0, 2, 6)
    plain = find_constellation(t, 1, 2000)
    consec = find_constellation(t, 1, 2000, require_consecutive=True)
    assert set(consec) <= set(plain)
    # n=5: primes 5,7,11 leave no room for others; n=11: 11,13,17 likewise
    assert 5 in consec and 11 in consec
    # n=97: 97, 99? no -- check one where a foreign prime intrudes
    for n in set(plain) - set(consec):
        lo_v, hi_v = n + t.offsets[0], n + t.offsets[-1]
        foreign = [
            q for q in range(lo_v + 1, hi_v)
            if naive_is_prime(q) and q not in {n + u for u in t.offsets}
        ]
        assert foreign, n


def test_find_constellation_far_windows_match_naive_scan():
    cases = (
        ((-2, 2), True, False),
        ((-6, -2, 0), False, True),
        ((-4, 2), True, True),
        ((0, 2, 6), False, True),
    )
    for lo in (10**9, 2 * arith.SEGMENT_BITS - 700):
        for offsets, center, consecutive in cases:
            got = find_constellation(offs(*offsets), lo, lo + 1500, require_composite_center=center,
                                     require_consecutive=consecutive)
            want = naive_constellation(offsets, lo, lo + 1500, is_prime, center, consecutive)
            assert got.tolist() == want, (lo, offsets)


def test_find_constellation_across_segment_edges(monkeypatch):
    # 32-integer segments: windows of a few hundred cross many chunk edges
    monkeypatch.setattr(arith, "SEGMENT_BITS", 16)
    for lo, hi in ((0, 400), (10**9 - 200, 10**9 + 200)):
        for offsets in ((-2, 2), (-30, -28), (-12, -6, -2), (0, 4, 6), (-40, 2)):
            for center in (False, True):
                for consecutive in (False, True):
                    got = find_constellation(offs(*offsets), lo, hi,
                                             require_composite_center=center,
                                             require_consecutive=consecutive)
                    want = naive_constellation(offsets, lo, hi, is_prime, center, consecutive)
                    assert got.tolist() == want, (lo, offsets, center, consecutive)


def test_find_constellation_dense_hits_across_window_edges(monkeypatch):
    # one or two offsets hit often, so window edges fall on hits: each
    # candidate belongs to exactly one window
    monkeypatch.setattr(arith, "SEGMENT_BITS", 8)
    for offsets in ((0,), (-3,), (5,), (-2, 0), (0, 4)):
        for center in (False, True):
            got = find_constellation(offs(*offsets), 0, 1500, require_composite_center=center)
            assert got.tolist() == naive_constellation(offsets, 0, 1500, is_prime, center), offsets


def test_find_constellation_holds_hits_at_eight_bytes_each():
    # 102,238 consecutive hits: about 0.8 MiB as array('Q') on top of the
    # scan's one segment, where a list of ints would take 3.5 MiB more
    tracemalloc.start()
    try:
        hits = find_constellation(offs(0, 6), 12453559, 24907118, require_consecutive=True)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < 5, peak
    assert hits.typecode == "Q" and len(hits) == 102238
    assert hits[0] == 12453647 and hits[-1] == 24907117
    assert all(a < b for a, b in zip(hits, hits[1:]))


def test_find_constellation_rejects_inadmissible():
    with pytest.raises(ValueError):
        find_constellation(offs(0, 1, 2), 1, 100)


def test_additive_witness_pairs():
    w = additive_witness((0, 1), 9, 10**5)
    assert w.n == 12 and w.prime_values == (11, 13) and w.case == "pair"
    assert w.validate()
    w = additive_witness((0, 2), 9, 10**5)
    assert w.n == 15 and w.prime_values == (13, 17)
    assert w.validate()


def test_additive_witness_triple():
    w = additive_witness((0, 1, 2), 9, 10**5)
    assert w.n == 12 and w.case == "t4" and w.pattern.offsets == (-1, 1)
    assert w.validate()


def test_additive_witness_respects_floor():
    # with n0 = 9 and b = {0,2} the scan starts at 11, so 9 (9 < 11) is skipped
    w = additive_witness((0, 2), 9, 10**5)
    assert w.n >= 11


def test_additive_witness_not_found_is_none():
    assert additive_witness((0, 1), 9, 10) is None


def test_additive_witness_is_the_first_hit_past_the_first_windows(monkeypatch):
    # 16-integer segments: each hit lies more than four windows past the start
    monkeypatch.setattr(arith, "SEGMENT_BITS", 8)
    for b, n0 in (((0, 4), 10**6), ((0, 6), 10**6), ((0, 4, 10), 1000), ((0, 3, 5), 10**6),
                  ((0, 6, 12), 10**6)):
        w = additive_witness(b, n0, n0 + 10**4)
        pos = n0 + b[-1]
        want = naive_constellation(w.pattern.offsets, pos, n0 + 10**4, is_prime, True)
        assert w.n == want[0] and w.n - pos > 4 * 2 * arith.SEGMENT_BITS, (b, n0)


def test_additive_witness_validation_contract():
    with pytest.raises(ValueError):
        additive_witness((0,), 9, 100)
    with pytest.raises(ValueError):
        additive_witness((1, 3), 9, 100)
    with pytest.raises(ValueError):
        additive_witness((0, 1), 8, 100)
    # the scan starts at n0 + max(b); a bound below it leaves nothing to search
    with pytest.raises(ValueError, match="empty search range"):
        additive_witness((0, 2), 9, 10)
    with pytest.raises(ValueError, match="empty search range"):
        additive_witness((0, 2), 10**9, 10**7)
    assert additive_witness((0, 2), 9, 11) is None


def test_witness_json_shape():
    w = additive_witness((0, 3, 5), 9, 10**6)
    d = w.to_json_dict()
    assert set(d) == {"b", "tuple", "case", "n", "primes", "validated"}
    assert d["validated"] is True
    assert d["primes"] == [w.n + u for u in w.pattern.offsets]
    assert is_composite(w.n) and all(is_prime(v) for v in d["primes"])
