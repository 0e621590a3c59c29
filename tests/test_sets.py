import copy
import pickle
import random
import sys
import time
import tracemalloc
from array import array
from collections import Counter
from itertools import combinations, product

import pytest

from decomplab import (
    DecompositionCandidate,
    GammaSemigroup,
    IntegerSet,
    SmoothnessPolicy,
    WindowError,
    decompose_search,
    h_family,
    productset,
    smooth_set,
    sumset,
    verify_composite_decomposition,
    windowed_equal,
)
from decomplab import arith, search, sets
from decomplab.arith import SEGMENT_BITS
from oracles import (
    additive_accepted_parts,
    additive_parts_by_subset_search,
    composite_cover_reports,
    composites_window,
    least_product_gap,
    maximal_c,
    multiplicative_accepted_parts,
    part_covers,
)


def iset(values, lo=None, hi=None):
    return IntegerSet.from_values(values, window_lo=lo, window_hi=hi)


def test_integer_set_validation():
    with pytest.raises(ValueError):
        IntegerSet((3, 2), 0, 5)
    with pytest.raises(ValueError):
        IntegerSet((2, 2), 0, 5)
    with pytest.raises(ValueError):
        IntegerSet((7,), 0, 5)
    with pytest.raises(ValueError):
        IntegerSet((), 5, 4)
    with pytest.raises(ValueError):
        IntegerSet.from_values([])
    s = iset([5, 1, 3, 3])
    assert tuple(s.elements) == (1, 3, 5)
    assert 3 in s and 2 not in s
    assert s.slice(2, 4) == (3,)
    # as_mask spans [0, window_hi] and marks the elements of either form
    t = iset([4, 6, 8, 9], lo=2, hi=12)
    for u in (t, IntegerSet(t.as_bits(), 2, 12), IntegerSet(0b1101, 5, 12)):
        mask = u.as_mask()
        assert len(mask) == 13 and [i for i in range(13) if mask[i]] == list(u.elements)
    assert not any(IntegerSet((), 5, 7).as_mask())
    for bad in ((4, 6), 1 << 11):  # outside the window, as a tuple and as bits
        with pytest.raises(ValueError):
            IntegerSet(bad, 5, 12)


def test_out_of_range_values_are_value_errors(tmp_path):
    # checked before the values are stored as uint64, which would raise OverflowError
    for v, lo, hi, message in ((-1, 0, 10, "inside the window"),
                               (1 << 64, 0, 1 << 64, "exceed 2\\*\\*63")):
        with pytest.raises(ValueError, match=message):
            IntegerSet((v,), lo, hi)
        with pytest.raises(ValueError, match=message):
            IntegerSet.from_values([3, v], lo, hi)
        path = tmp_path / "t.txt"
        path.write_text(f"# window {lo} {hi}\n3\n{v}\n")
        with pytest.raises(ValueError, match=message):
            IntegerSet.load_text(path)
    with pytest.raises(ValueError):
        IntegerSet.from_values([-1])
    with pytest.raises(ValueError):
        IntegerSet.from_values([1 << 64])
    with pytest.raises(ValueError, match="bits must be >= 0"):
        IntegerSet(-1, 0, 10)
    # 2**63 itself is a legal element on every path
    top = 1 << 63
    for s in (IntegerSet((0, top), 0, top), iset([top, 0]), IntegerSet(1, top, top),
              IntegerSet(array("Q", [top]), top, top)):
        assert top in s and top - 1 not in s and top + 1 not in s
        assert s.slice(top, top + 5) == (top,)
    for past in (0b11, array("Q", [top, top + 1])):
        with pytest.raises(ValueError, match="exceed 2\\*\\*63"):
            IntegerSet(past, top, top + 1)


def test_text_roundtrip(tmp_path):
    s = iset([4, 6, 8, 9], lo=4, hi=10)
    path = tmp_path / "s.txt"
    s.save_text(path)
    assert path.read_text().splitlines()[0] == "# window 4 10"
    assert IntegerSet.load_text(path) == s
    bad = tmp_path / "bad.txt"
    bad.write_text("4\n6\n")
    with pytest.raises(ValueError):
        IntegerSet.load_text(bad)


def test_load_text_reads_unsorted_files_and_refuses_values_past_the_array(tmp_path):
    path = tmp_path / "t.txt"
    # values that do not strictly increase are sorted and deduplicated
    path.write_text("# window 2 20\n9\n\n4\n9\n20\n")
    assert IntegerSet.load_text(path) == IntegerSet((4, 9, 20), 2, 20)
    path.write_text("# window 0 5\n")
    assert IntegerSet.load_text(path) == IntegerSet((), 0, 5)
    # below 0 or past 2**64 the array cannot hold a value: a ValueError all
    # the same when it comes first; between 2**63 and 2**64 the array holds
    # it, and the window's checks refuse it
    for lines, hi, message in (("-1\n3\n", 10, "inside the window"),
                               (f"{1 << 64}\n3\n", 1 << 64, "exceed 2\\*\\*63"),
                               (f"3\n{(1 << 63) + 1}\n", 1 << 64, "exceed 2\\*\\*63"),
                               ("3\n11\n", 10, "inside the window")):
        path.write_text(f"# window 0 {hi}\n{lines}")
        with pytest.raises(ValueError, match=message):
            IntegerSet.load_text(path)


def _write(path, lo, hi, lines):
    path.write_text(f"# window {lo} {hi}\n" + "".join(f"{v}\n" for v in lines))


def test_load_text_reads_a_dense_file_as_bits(tmp_path, monkeypatch):
    # above 1/64 of the window the values go to bits, at or below it they
    # stay an array, as the smooth sets choose; slices of 64 characters
    # make the switch fall many slices into the file
    monkeypatch.setattr(sets, "_READ_SLICE", 64)
    path = tmp_path / "t.txt"
    lo, hi = 100, 6499  # 6400 integers: 100 values are 1/64
    for count, form in ((99, array), (100, array), (101, int), (3000, int)):
        values = sorted(random.Random(count).sample(range(lo, hi + 1), count))
        _write(path, lo, hi, values)
        loaded = IntegerSet.load_text(path)
        assert type(loaded._data) is form and loaded == IntegerSet(tuple(values), lo, hi), count
        # order and repeats do not matter, whatever the form
        _write(path, lo, hi, values[::-1] + values[:7])
        assert IntegerSet.load_text(path) == loaded, count
    # blank and space-only lines, one run of them longer than a slice, and
    # no newline at the end
    values = list(range(lo, hi + 1, 3))
    path.write_text(f"# window {lo} {hi}\n" + "\n".join(map(str, values[:50])) + "\n" * 200
                    + " \n\t\n" + "\n".join(map(str, values[50:])))
    loaded = IntegerSet.load_text(path)
    assert type(loaded._data) is int and loaded == IntegerSet(tuple(values), lo, hi)
    # a window wider than MASK_BUDGET keeps the array
    monkeypatch.setattr(sets, "MASK_BUDGET", hi - lo)
    _write(path, lo, hi, values)
    assert type(IntegerSet.load_text(path)._data) is array


def test_load_text_fails_past_the_switch_to_bits_as_before(tmp_path, monkeypatch):
    # a value outside the window, below 0, past 2**63 or past 2**64 met after
    # the switch: the same ValueError as from an array, raised in the one
    # pass over a sorted file, with no second read through from_values
    monkeypatch.setattr(sets, "_READ_SLICE", 64)
    calls, from_values = [], IntegerSet.from_values.__func__
    monkeypatch.setattr(IntegerSet, "from_values",
                        classmethod(lambda cls, *args: calls.append(args) or from_values(cls, *args)))
    path = tmp_path / "t.txt"
    top = 1 << 63
    for lo, hi, bad, message in ((10, 1000, 1001, "inside the window"),
                                 (10, 1000, 9, "inside the window"),
                                 (10, 1000, -1, "inside the window"),
                                 (10, 1000, 1 << 64, "inside the window"),
                                 (top - 500, top + 500, top + 1, "exceed 2\\*\\*63")):
        values = list(range(lo, lo + 200))
        _write(path, lo, hi, values)
        assert type(IntegerSet.load_text(path)._data) is int
        _write(path, lo, hi, values + [bad])
        with pytest.raises(ValueError, match=message):
            IntegerSet.load_text(path)
    assert not calls
    path.write_text("# window 10 1000\n" + "\n".join(map(str, range(10, 200))) + "\nx\n")
    with pytest.raises(ValueError, match="invalid literal"):
        IntegerSet.load_text(path)
    # of two faults, the one met first in the file is reported
    path.write_text("# window 10 1000\n1001\n" + "\n".join(map(str, range(10, 200))) + "\nx\n")
    with pytest.raises(ValueError, match="inside the window"):
        IntegerSet.load_text(path)


def test_load_text_of_a_dense_file_holds_neither_its_array_nor_its_flags(tmp_path):
    composites = smooth_set(SmoothnessPolicy.composites(), 4 * 10**5)
    path = tmp_path / "c.txt"
    composites.save_text(path)
    array_bytes = 8 * len(composites)  # about 2.9 MB; flags over the window, 0.4 MB
    tracemalloc.start()
    try:
        loaded = IntegerSet.load_text(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == composites and type(loaded._data) is int
    assert peak < array_bytes // 4, peak


def _bits_of(values, lo):
    return sum(1 << (v - lo) for v in values)


BITS_WINDOWS = ((0, 0), (0, 70), (9, 9), (9, 200), (3, 1000),
                (1 << 40, (1 << 40) + 300), ((1 << 63) - 100, 1 << 63))


def test_bits_form_reads_like_the_array_form(tmp_path):
    rng = random.Random(64)
    for lo, hi in BITS_WINDOWS:
        for density in (0, 0.03, 0.5, 1):
            values = [v for v in range(lo, hi + 1) if rng.random() < density]
            bits = _bits_of(values, lo)
            dense, sparse = IntegerSet(bits, lo, hi), IntegerSet(tuple(values), lo, hi)
            assert dense == sparse and sparse == dense
            assert dense != IntegerSet(bits, lo, hi + 1)
            assert dense != IntegerSet(bits ^ 1, lo, hi)
            assert len(dense) == len(values)
            assert list(dense) == values and dense.elements == sparse.elements
            for v in {lo - 1, lo, lo + 1, hi - 1, hi, hi + 1, *values[:3], *values[-3:]}:
                assert (v in dense) == (v in sparse) == (v in values), v
            for a, b in ((lo, hi), (lo - 5, lo + 3), (hi - 3, hi + 5), (lo + 10, lo + 5),
                         (lo + 7, hi - 7), (hi + 1, hi + 9)):
                assert dense.slice(a, b) == sparse.slice(a, b), (a, b)
            for k in (0, 1, 2, 20, len(values), len(values) + 1):
                want_head, want_tail = tuple(values[:k]), tuple(values[max(len(values) - k, 0):])
                assert dense.head(k) == sparse.head(k) == want_head, k
                assert dense.tail(k) == sparse.tail(k) == want_tail, k
            assert dense.as_bits() == sparse.as_bits() == bits
            if hi <= 1000:
                assert dense.as_mask() == sparse.as_mask()
            dense.save_text(tmp_path / "dense.txt")
            sparse.save_text(tmp_path / "sparse.txt")
            text = (tmp_path / "dense.txt").read_bytes()
            assert text == (tmp_path / "sparse.txt").read_bytes()
            assert IntegerSet.load_text(tmp_path / "dense.txt") == dense
    # the bits must lie in the window, and so under 2**63
    with pytest.raises(ValueError):
        IntegerSet(-1, 0, 5)
    with pytest.raises(ValueError, match="inside the window"):
        IntegerSet(1 << 6, 0, 5)
    with pytest.raises(ValueError, match="exceed 2\\*\\*63"):
        IntegerSet(2, 1 << 63, (1 << 63) + 1)
    with pytest.raises(ValueError, match="invalid window"):
        IntegerSet(0, 5, 4)
    with pytest.raises(AttributeError):
        dense.window_lo = 0
    assert pickle.loads(pickle.dumps(dense)) == dense and copy.deepcopy(sparse) == sparse


def test_unpack_reads_either_side_of_its_density_cut():
    # 8 * count against the span: 792 and 800 of 800 bits, then 808 of 800
    rng = random.Random(8)
    for lo in (0, 1, 12345):
        for count in (0, 1, 99, 100, 101, 800):
            offsets = sorted({0, 799, *rng.sample(range(1, 799), count - 2)} if count > 1
                             else {799} if count else ())
            bits = _bits_of([lo + i for i in offsets], lo)
            assert sets._unpack(bits, lo).tolist() == [lo + i for i in offsets], (lo, count)


def test_bits_form_head_and_tail_across_wide_gaps():
    # elements far apart at both ends, so head and tail widen their reads
    # several times before they hold k elements; in the wider window the
    # tail's reads start far above the top element
    lo, top = 5, (1 << 20) + 5
    values = [lo, lo + 1000, *range(lo + 500000, lo + 500100), top - 3000, top]
    for hi in (top, 1 << 26):
        for s in (IntegerSet(_bits_of(values, lo), lo, hi), IntegerSet(array("Q", values), lo, hi)):
            for k in (-1, 0, 1, 2, 3, 50, 104, 105):
                n = max(k, 0)
                assert s.head(k) == tuple(values[:n]), (hi, k)
                assert s.tail(k) == tuple(values[max(len(values) - n, 0):]), (hi, k)


def test_reads_of_a_wide_window_hold_no_mask_as_wide_as_it():
    # one element in a window of 2**28 integers: a read is as wide as the
    # bits, up to their top set bit, not as the window
    s = IntegerSet(1, 0, 1 << 28)
    tracemalloc.start()
    try:
        reads = (s.slice(0, 1 << 28), s.slice(1, 1 << 28), s.head(2), s.tail(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reads == ((0,), (), (0,), (0,))
    assert peak < 1 << 20, peak


def test_additive_bits_path_matches_oracle_at_window_edges():
    # where the window's edges bite: lo = 0, one-point windows, parts past
    # hi (climit < 0, so max_b_elem > hi tries no more), and the free range
    # below a window far from 0; c is checked against its definition too,
    # on the sparse path as well as the bits
    rng = random.Random(16)
    accepted = 0
    for lo, hi, rounds in ((0, 0, 2), (5, 5, 4), (0, 1, 4), (0, 12, 10), (3, 12, 10),
                           (0, 40, 10), (7, 40, 10), (1000, 1006, 3)):
        for _ in range(rounds):
            values = [v for v in range(lo, hi + 1) if rng.random() < 0.75] or [hi]
            tset = set(values)
            target = IntegerSet(tuple(values), lo, hi)
            for size, elem in ((2, hi + 5 if hi < 100 else 12), (3, 6), (4, 5)):
                for full, path in product((False, True), (search._dense_path, search._sparse_path)):
                    found = search._search(target, "additive", size, elem, full, path)
                    want = additive_accepted_parts(values, lo, hi, size, elem, full)
                    assert [cand.b for cand in found] == want, (values, lo, hi, size, elem, full)
                    for cand in found:
                        climit = hi - cand.b[-1]
                        c = [x for x in range(climit + 1)
                             if all(x + beta in tset or x + beta < lo for beta in cand.b)]
                        assert cand.c == IntegerSet(tuple(c), 0, climit), cand.b
                        assert cand.verify(target)
                    accepted += len(found)
    assert accepted


def test_multiplicative_flags_path_matches_oracle_at_window_edges():
    # the multiplicative twin of the test above, on bits- and array-form
    # targets alike: one-point windows, parts past hi, lo = 1000 with its
    # free range [1, 999], and c checked against its definition, on the
    # sparse path as well as the flags
    rng = random.Random(17)
    accepted = 0
    for lo, hi, rounds in ((1, 1, 2), (5, 5, 4), (1, 2, 4), (1, 12, 10), (3, 12, 10),
                           (1, 40, 10), (7, 40, 10), (1000, 1000, 2), (1000, 1006, 3)):
        for _ in range(rounds):
            values = [v for v in range(lo, hi + 1) if rng.random() < 0.75] or [hi]
            tset = set(values)
            targets = (IntegerSet(_bits_of(values, lo), lo, hi), IntegerSet(tuple(values), lo, hi))
            for size, elem in ((2, hi + 5 if hi < 100 else 12), (3, 6), (4, 5)):
                for full, path in product((False, True), (search._dense_path, search._sparse_path)):
                    found, again = (search._search(t, "multiplicative", size, elem, full, path)
                                    for t in targets)
                    assert found == again, (values, lo, hi, size, elem, full)
                    want = multiplicative_accepted_parts(values, lo, hi, size, elem, full)
                    assert [cand.b for cand in found] == want, (values, lo, hi, size, elem, full)
                    for cand in found:
                        climit = hi // cand.b[-1]
                        c = [x for x in range(1, climit + 1)
                             if all(x * beta in tset or x * beta < lo for beta in cand.b)]
                        assert cand.c == IntegerSet(tuple(c), 1, climit), cand.b
                        assert cand.verify(targets[0])
                    accepted += len(found)
    assert accepted


def test_sumset_examples():
    c = iset([9, 10])
    assert tuple(sumset(iset([0, 1, 3, 5]), c).elements) == (9, 10, 11, 12, 13, 14, 15)
    assert tuple(sumset(iset([1, 2]), iset([1, 2])).elements) == (2, 3, 4)
    shifted = sumset(iset([0], lo=0, hi=0), c)
    assert shifted.elements == c.elements
    assert (shifted.window_lo, shifted.window_hi) == (9, 10)


def test_productset_examples():
    assert tuple(productset(iset([1, 2]), iset([4, 5])).elements) == (4, 5, 8, 10)
    assert tuple(productset(iset([2, 3]), iset([2, 3])).elements) == (4, 6, 9)
    c = iset([3, 7])
    assert productset(iset([1]), c).elements == c.elements


def test_operand_swap_and_identities():
    rng = random.Random(3)
    for _ in range(50):
        a = iset(rng.sample(range(0, 60), 6))
        b = iset(rng.sample(range(0, 60), 5))
        assert sumset(a, b).elements == sumset(b, a).elements
        ap = iset([v + 1 for v in a.elements])
        bp = iset([v + 1 for v in b.elements])
        assert productset(ap, bp).elements == productset(bp, ap).elements


def test_large_sumset_and_productset_match_python_sets():
    rng = random.Random(5)
    b = iset(rng.sample(range(1, 1 << 40), 600))
    c = iset(rng.sample(range(1, 1 << 20), 500))
    assert len(b) * len(c) >= 1 << 18
    want = sorted({x + y for x in b for y in c})
    got = sumset(b, c).elements
    assert list(got) == want and all(type(v) is int for v in got)
    want = sorted({x * y for x in b for y in c})
    assert list(productset(b, c).elements) == want


def test_overflow_errors():
    # 2**63 itself is the cap: reachable, but nothing beyond
    exact = sumset(iset([1 << 62]), iset([1 << 62]))
    assert tuple(exact.elements) == (1 << 63,)
    assert tuple(productset(iset([1 << 31]), iset([1 << 32])).elements) == (1 << 63,)
    with pytest.raises(OverflowError):
        sumset(iset([(1 << 62) + 1]), iset([1 << 62]))
    with pytest.raises(OverflowError):
        productset(iset([1 << 40]), iset([1 << 40]))
    with pytest.raises(ValueError):
        productset(iset([0, 1]), iset([1, 2]))


def test_windowed_equal():
    a = iset([4, 6], lo=4, hi=8)
    b = iset([4, 6, 8], lo=4, hi=8)
    assert windowed_equal(a, a, 4, 8) == (True, None)
    assert windowed_equal(a, b, 4, 7) == (True, None)
    assert windowed_equal(a, b, 4, 8) == (False, 8)
    assert windowed_equal(iset([4, 5], lo=4, hi=8), b, 4, 8) == (False, 5)
    with pytest.raises(WindowError):
        windowed_equal(a, b, 3, 8)


def test_decompose_tiny_target():
    target = iset([0, 1, 2, 3])
    found = decompose_search(target, "additive", 2, 3)
    parts = [c.b for c in found]
    assert (0, 1) in parts and (0, 2) in parts and (0, 3) not in parts
    by_b = {c.b: c for c in found}
    assert tuple(by_b[(0, 1)].c.elements) == (0, 1, 2)
    assert tuple(by_b[(0, 2)].c.elements) == (0, 1)
    assert all(c.verify(target) for c in found)


def test_decompose_primes_window_empty_full_window():
    primes = iset([2, 3, 5, 7, 11], lo=2, hi=11)
    assert decompose_search(primes, "additive", 3, 8, full_window=True) == []


def test_decompose_finds_known_composite_cover():
    target = composites_window(9, 10**4)
    parts = [c.b for c in decompose_search(target, "additive", 4, 5)]
    assert (0, 1, 3, 5) in parts


def test_decompose_candidates_reverify():
    target = composites_window(9, 3000)
    for cand in decompose_search(target, "additive", 4, 6):
        assert cand.verify(target)
    fam = iset([1, 2, 3, 4, 5, 6, 8, 9, 10, 16, 17, 18], lo=1, hi=20)
    for cand in decompose_search(fam, "multiplicative", 2, 4):
        assert cand.verify(fam)


def test_decompose_multiplicative_small():
    # {1,2,4,8} = {1,2} * {1,2,4}; the complement reported is the maximal one
    target = iset([1, 2, 4, 8], lo=1, hi=8)
    found = decompose_search(target, "multiplicative", 2, 4, full_window=True)
    by_b = {c.b: c for c in found}
    assert tuple(by_b[(1, 2)].c.elements) == (1, 2, 4)
    assert tuple(by_b[(1, 4)].c.elements) == (1, 2)
    assert all(c.verify(target) for c in found)


def test_full_window_product_candidate_verifies_short_of_hi():
    # max(b) = 2 does not divide hi = 11, so B * C's own window ends at 10;
    # verify compares B * C with the target on [1, 11] all the same
    target = IntegerSet((1, 2, 3, 4, 5, 6, 8, 10), 1, 11)
    found = decompose_search(target, "multiplicative", 2, 2, full_window=True)
    assert [c.b for c in found] == [(1, 2)]
    assert found[0].coverage_window == (1, 11)
    assert found[0].verify(target) is True


def test_decompose_validation():
    target = iset([1, 2, 3])
    with pytest.raises(ValueError):
        decompose_search(target, "additive", 1, 3)
    with pytest.raises(ValueError):
        decompose_search(target, "weird", 2, 3)
    with pytest.raises(ValueError):
        decompose_search(iset([0, 1, 2]), "multiplicative", 2, 3)
    with pytest.raises(ValueError):
        decompose_search(IntegerSet((), 0, 5), "additive", 2, 3)


def test_decompose_matches_oracle_quick():
    rng = random.Random(99)
    for lo, rounds in ((0, 40), (1, 15), (2, 15), (5, 15), (10, 15)):
        for _ in range(rounds):
            density = rng.uniform(0.2, 0.9)
            values = [v for v in range(lo, 31) if rng.random() < density]
            if not values:
                values = [rng.randrange(lo, 31)]
            target = IntegerSet(tuple(values), lo, 30)
            for full in (False, True):
                got = [c.b for c in decompose_search(target, "additive", 3, 10, full_window=full)]
                want = additive_accepted_parts(values, lo, 30, 3, 10, full)
                assert got == want, (values, lo, full)


def test_decompose_multiplicative_matches_oracle():
    rng = random.Random(17)
    accepted = [0, 0]
    for _ in range(80):
        lo = rng.choice((1, 2, 5, 10))
        hi = rng.randrange(lo + 10, 80)
        if rng.random() < 0.5:
            density = rng.uniform(0.3, 0.95)
            values = [v for v in range(lo, hi + 1) if rng.random() < density] or [hi]
        else:  # a product set B * C, so that the full window accepts too
            b = rng.sample(range(1, 9), rng.randrange(2, 4))
            c = rng.sample(range(1, hi // max(b) + 1), min(hi // max(b), rng.randrange(2, 12)))
            values = sorted({x * y for x in b for y in c if x * y >= lo}) or [hi]
        target = IntegerSet(tuple(values), lo, hi)
        for full in (False, True):
            found = decompose_search(target, "multiplicative", 3, 8, full_window=full)
            want = multiplicative_accepted_parts(values, lo, hi, 3, 8, full)
            assert [c.b for c in found] == want, (values, lo, hi, full)
            assert all(c.verify(target) for c in found)
            accepted[full] += len(found)
    assert all(accepted)  # both modes accept some parts


def test_sparse_path_equals_dense_path():
    rng = random.Random(20201126)
    accepted = Counter()
    for _ in range(160):
        kind = rng.choice(("additive", "multiplicative"))
        lo = rng.choice((1, 2, 5, 10, 1000))
        hi = lo + rng.choice((60, 400, 10**4))
        if rng.random() < 0.5:
            values = rng.sample(range(lo, hi + 1), rng.randrange(1, 50))
        else:  # B (+|*) C, so that some parts are accepted
            b = rng.sample(range(1, 9), rng.randrange(1, 3))
            if kind == "additive":
                b.append(0)
                c = rng.sample(range(lo, hi - max(b) + 1), rng.randrange(2, 40))
                values = [x + y for x in b for y in c]
            else:
                c = rng.sample(range(1, hi // max(b) + 1), min(hi // max(b), rng.randrange(2, 40)))
                values = [x * y for x in b for y in c if x * y >= lo] or [hi]
        target = IntegerSet.from_values(values, lo, hi)
        # parts of 4 on the small windows, where the oracle runs
        for full, size in product((False, True), (3, 4) if hi <= 500 else (3,)):
            found = [search._search(target, kind, size, 8, full, path)
                     for path in (search._dense_path, search._sparse_path)]
            dense, sparse = ([(c.b, tuple(c.c.elements), c.c.window_lo, c.c.window_hi,
                               c.coverage_window) for c in cands] for cands in found)
            assert sparse == dense, (kind, tuple(target), lo, hi, full, size)
            assert all(c.verify(target) for c in found[1])
            if hi <= 500:
                oracle = (additive_accepted_parts if kind == "additive"
                          else multiplicative_accepted_parts)
                assert [c[0] for c in sparse] == oracle(tuple(target), lo, hi, size, 8, full)
            accepted[kind, full] += len(sparse)
    assert len(accepted) == 4 and all(accepted.values())  # every kind and mode accepts


def test_decompose_search_depth_stops_at_the_pool():
    # parts can hold no more than 0 and the pool 1..3, so sizes past 4 add
    # nothing, however many are allowed
    target = composites_window(9, 40)
    want = decompose_search(target, "additive", 4, 3)
    start = time.perf_counter()
    assert decompose_search(target, "additive", 10**9, 3) == want
    assert time.perf_counter() - start < 0.5


def _frame_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_search_walks_deep_trees_without_recursion():
    # every subset of 1..12 with 0 is accepted on a full target: 4095 parts
    # in a tree 13 deep, walked within 15 frames of the caller
    target = IntegerSet(tuple(range(41)), 0, 40)
    for path in (search._dense_path, search._sparse_path):
        want = search._search(target, "additive", 13, 12, False, path)
        assert len(want) == 4095 and max(len(c.b) for c in want) == 13
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_frame_depth() + 15)
        try:
            found = search._search(target, "additive", 13, 12, False, path)
        finally:
            sys.setrecursionlimit(limit)
        assert found == want, path.__name__


def _counted(path, calls):
    """path with its narrow steps and its full cover checks counted in calls;
    every part checked keeps two c or more."""
    def counted(target, additive, c_min):
        start, divides, narrow, covers, holds, meets, as_set = path(target, additive, c_min)

        def counted_narrow(c, beta):
            calls["narrow"] += 1
            return narrow(c, beta)

        def counted_covers(b, c, *windows):
            calls["covers"] += 1
            assert len(as_set(c, target.window_hi // b[-1])) >= 2, b
            return covers(b, c, *windows)

        return start, divides, counted_narrow, counted_covers, holds, meets, as_set

    return counted


def test_search_narrows_once_per_part_and_skips_small_c():
    # {3, 5}: a sum family whose prefixes mostly keep fewer than two c, so
    # the walk narrows far fewer parts than the 1,285,750 of sizes 2..4 in
    # its pool, and checks the cover only of parts with two c or more.
    # {2, 3, 5}: all 164,276 parts of sizes 2..3 keep two c or more and are
    # rejected; the kept list of core witnesses rejects most parts it
    # narrows with one membership test each, unchecked, and prunes the
    # subtrees that cannot cover a kept witness, so the walk narrows 289
    # parts and checks the cover of 4 in full
    for gamma, size, narrows, checks in (([3, 5], 4, 60000, None), ([2, 3, 5], 3, None, 10000)):
        target = h_family(GammaSemigroup.of(gamma), 3, 10**5, cumulative=True)
        counts = []
        for path in (search._dense_path, search._sparse_path):
            calls = Counter()
            found = search._search(target, "multiplicative", size, 100, False,
                                   _counted(path, calls))
            assert found == search._search(target, "multiplicative", size, 100, False, path)
            counts.append(calls)
        assert counts[0] == counts[1], gamma
        assert 0 < counts[0]["covers"], gamma
        assert narrows is None or counts[0]["narrow"] <= narrows, counts[0]
        assert checks is None or counts[0]["covers"] <= checks, counts[0]


class _Tagged:
    """A path's c, with the part it belongs to."""

    __slots__ = ("b", "c")

    def __init__(self, b, c):
        self.b, self.c = b, c


def _tagged(path, log):
    """path with every c tagged by its part, and the walk's steps logged in
    order: ("narrow", b) for each part b narrowed, to None or not, and
    ("check", b, t) for each part whose cover is checked in full, t being
    what covers returned."""
    def tagged(target, additive, c_min):
        start, divides, narrow, covers, holds, meets, as_set = path(target, additive, c_min)

        def tag_narrow(node, beta):
            b = node.b + (beta,)
            log.append(("narrow", b))
            c = narrow(node.c, beta)
            return None if c is None else _Tagged(b, c)

        def tag_covers(b, node, *windows):
            t = covers(b, node.c, *windows)
            log.append(("check", b, t))
            return t

        return (_Tagged((0,) if additive else (), start), divides, tag_narrow, tag_covers,
                lambda b, node, t: holds(b, node.c, t), lambda node, a, z: meets(node.c, a, z),
                lambda node, climit: as_set(node.c, climit))

    return tagged


def _logged_searches(seed, windows, sizes):
    """Random targets on the given (lo, hi, rounds), each searched on both
    paths, both kinds and both coverage windows with _tagged: yields the
    search's arguments, its log, the pool, its window rule and the core,
    once the candidates are checked against the brute-force oracles."""
    rng = random.Random(seed)
    for lo, hi, rounds in windows:
        for _ in range(rounds):
            values = [v for v in range(lo, hi + 1) if rng.random() < 0.75] or [hi]
            target = IntegerSet(tuple(values), lo, hi)
            for kind, path, full, (size, elem) in product(
                    ("additive", "multiplicative"), (search._dense_path, search._sparse_path),
                    (False, True), sizes):
                additive = kind == "additive"
                log = []
                found = search._search(target, kind, size, elem, full, _tagged(path, log))
                oracle = additive_accepted_parts if additive else multiplicative_accepted_parts
                assert [c.b for c in found] == oracle(values, lo, hi, size, elem, full)
                pool = [d for d in range(1, min(elem, hi) + 1)
                        if additive or any(v % d == 0 for v in values)]

                def window(m, full=full, additive=additive):
                    if full:
                        return lo, hi
                    return (lo + m, hi - m) if additive else (lo * m, hi // m)

                core = window(pool[-1] if pool else 1)
                yield values, lo, hi, kind, path, full, size, log, pool, window, core


def _replay(log, values, lo, hi, additive, window, core):
    """The kept witnesses of a logged walk, replayed from the definitions:
    a check's witness in the core goes to the front of at most
    search._KEPT, and a part of two or more elements rejected unchecked
    moves the first kept t it leaves uncovered, by part_covers, to the
    front.  Yields each part narrowed to two c or more, whether it was
    checked, the kept t it leaves uncovered when it was not, and the kept
    list after the part's step."""
    kept = []
    for k, step in enumerate(log):
        b = step[1]
        if step[0] == "check" or len(maximal_c(values, lo, hi, b, additive)) < 2:
            continue
        cover_lo, cover_hi = window(b[-1])
        uncovered = []
        checked = log[k + 1: k + 2] and log[k + 1][:2] == ("check", b)
        if checked:
            t = log[k + 1][2]
            if t is not None and core[0] <= t <= core[1]:
                kept = [t, *kept][:search._KEPT]
        elif len(b) >= 2 and cover_lo <= cover_hi:
            uncovered = [t for t in kept if cover_lo <= t <= cover_hi and t in values
                         and not part_covers(values, lo, hi, b, additive, t)]
            if uncovered:
                kept = [uncovered[0], *(t for t in kept if t != uncovered[0])]
        yield b, checked, uncovered, kept


def test_rejections_by_an_inherited_witness_leave_it_uncovered():
    # a part of two or more elements rejected with no full cover check
    # leaves uncovered a kept witness: a target element t of the core that
    # a check found uncovered, kept among the last search._KEPT used.  By
    # the definitions, t lies in the part's cover window and the part leaves
    # it uncovered too.  Both paths, both kinds, one-point windows and the
    # free range below lo = 1000, with and without full_window
    rejected = Counter()
    for values, lo, hi, kind, path, full, size, log, pool, window, core in _logged_searches(
            25, ((1, 1, 2), (5, 5, 2), (1, 12, 6), (3, 12, 6), (1, 40, 6), (7, 40, 6),
                 (1, 150, 2), (1000, 1006, 2)), ((3, 8), (4, 6))):
        additive = kind == "additive"
        for b, checked, uncovered, kept in _replay(log, values, lo, hi, additive, window, core):
            cover_lo, cover_hi = window(b[-1])
            if len(b) >= 2 and not checked and cover_lo <= cover_hi:
                assert uncovered, (values, lo, kind, full, b, kept)
                rejected[kind, path, full] += 1
    assert len(rejected) == 8, rejected  # every kind, path and window rejects by a witness


def test_pruned_subtrees_hold_no_part_that_covers_a_kept_witness():
    # a part whose subtree the walk does not enter, though the size allows
    # it and the pool has elements past the part's last, was pruned by a
    # kept witness t: every part below it, enumerated here, leaves t
    # uncovered, by part_covers.  Both kinds, both paths, with and without
    # full_window; the candidates equal the oracles' throughout
    pruned = Counter()
    for values, lo, hi, kind, path, full, size, log, pool, window, core in _logged_searches(
            31, ((1, 12, 4), (3, 30, 6), (1, 60, 6), (7, 60, 6), (1, 150, 3), (1000, 1010, 2)),
            ((3, 8), (4, 6))):
        additive = kind == "additive"
        prefixes = {step[1][:-1] for step in log if step[0] == "narrow"}
        for b, checked, uncovered, kept in _replay(log, values, lo, hi, additive, window, core):
            later = [d for d in pool if d > b[-1]]
            if len(b) >= size or not later or b in prefixes:
                continue  # a leaf, or a subtree the walk entered
            below = [b + rest for n in range(1, size - len(b) + 1)
                     for rest in combinations(later, n)]
            assert any(all(not part_covers(values, lo, hi, part, additive, t) for part in below)
                       for t in kept), (values, lo, hi, kind, full, b, kept)
            pruned[kind, path, full] += 1
    assert len(pruned) == 8, pruned  # every kind, path and window prunes a subtree


def test_sliced_multiplicative_cover_finds_the_least_gap(monkeypatch):
    # slices of 8 and 16 integers: gaps made at a slice's edges, at the
    # core's edges, below and above the core, and none; covers returns the
    # least gap in the core, else the least gap, as the oracle does
    rng = random.Random(31)
    for width in (8, 16):
        monkeypatch.setattr(search, "_SLICE", width)
        for lo, hi in ((1, 130), (3, 250), (10, 400)):
            b0 = rng.sample(range(1, 7), 3)
            c0 = rng.sample(range(1, hi // max(b0) + 1), min(hi // max(b0), 40))
            values = sorted({x * y for x in b0 for y in c0 if lo <= x * y}
                            | set(rng.sample(range(lo, hi + 1), 10)))
            target = IntegerSet(tuple(values), lo, hi)
            _, divides, narrow, covers, _, _, as_set = search._dense_path(target, False, 1)
            pool = [d for d in range(1, 9) if divides(d)]
            for b in (b for n in (1, 2, 3) for b in combinations(pool, n)):
                c = None
                for beta in b:
                    c = narrow(c, beta)
                    if c is None:
                        break
                else:
                    for full, m in product((False, True), [m for m in pool if m >= b[-1]]):
                        cover = (lo, hi) if full else (lo * b[-1], hi // b[-1])
                        core = (lo, hi) if full else (lo * m, hi // m)
                        edges = {e + d for a in (cover[0], core[0], core[1] + 1)
                                 for e in range(a, cover[1] + 1, width) for d in (-1, 0)}
                        edges |= {cover[1], core[1]}
                        gaps = [t for t in values if t in edges and cover[0] <= t <= cover[1]]
                        for made in ((), *([t] for t in gaps), rng.sample(gaps, min(3, len(gaps)))):
                            cut = c
                            for t, beta in product(made, b):  # t loses every x that covers it
                                if t % beta == 0:
                                    cut &= ~(1 << (t // beta))
                            cvals = list(as_set(cut, hi // b[-1]))
                            want = least_product_gap(values, b, cvals, cover, core)
                            assert covers(b, cut, *cover, *core) == want, (width, values, b, made)


def test_decompose_matches_exhaustive_complement_search():
    # tiny windows: literally try every complement subset
    rng = random.Random(5)
    for _ in range(30):
        values = sorted(rng.sample(range(0, 9), rng.randrange(2, 8)))
        target = IntegerSet(tuple(values), 0, 8)
        got = [c.b for c in decompose_search(target, "additive", 2, 4, full_window=True)]
        want = additive_parts_by_subset_search(values, 0, 8, 2, 4)
        assert got == want, values


def test_verify_composite_decomposition():
    for limit in (50, 1000, 10**4, 10**5):
        report = verify_composite_decomposition(limit)
        assert report.passed and report.first_mismatch is None
        assert report.covered_count == report.composite_count
    with pytest.raises(ValueError):
        verify_composite_decomposition(19)


def test_verify_composite_decomposition_matches_oracle():
    small = range(20, 201)
    edge = range(SEGMENT_BITS - 6, SEGMENT_BITS + 7)
    want = composite_cover_reports([*small, *edge])
    for limit in [*small, *edge]:
        assert verify_composite_decomposition(limit).to_json_dict() == want[limit], limit


def test_verify_composite_decomposition_small_segments(monkeypatch):
    # segments of 16 and 32 integers put many halo edges inside [9, 200]
    want = composite_cover_reports(range(20, 201))
    for bits in (8, 16):
        monkeypatch.setattr(arith, "SEGMENT_BITS", bits)
        for limit in range(20, 201):
            assert verify_composite_decomposition(limit).to_json_dict() == want[limit], limit


def test_verify_composite_decomposition_reports_failing_covers(monkeypatch):
    # with these offsets composites go uncovered in every window: the report
    # keeps the first mismatch, and its counts run across the windows' edges
    monkeypatch.setattr(arith, "SEGMENT_BITS", 8)
    for offsets in ((0, 1, 3, 7), (0, 2, 4)):
        monkeypatch.setattr(sets, "COVER_OFFSETS", offsets)
        want = composite_cover_reports(range(20, 301), offsets)
        for limit in range(20, 301):
            report = verify_composite_decomposition(limit)
            assert not report.passed
            assert report.to_json_dict() == want[limit], (offsets, limit)


def test_base_set_membership_spot_check():
    # 9 belongs to the base set: 9, 10, 12, 14 are all composite
    from decomplab import is_prime

    assert not any(is_prime(9 + off) for off in (0, 1, 3, 5))
    report = verify_composite_decomposition(50)
    assert report.base_count == sum(
        1
        for n in range(1, 51)
        if not any(is_prime(n + off) for off in (0, 1, 3, 5))
    )
