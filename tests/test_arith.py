import math
import os
import random
import subprocess
import sys
import tracemalloc
from bisect import bisect_left
from itertools import compress

import pytest

from decomplab import _pack, arith, primes
from decomplab import (
    OffsetTuple,
    PrimeSieve,
    ResourceLimitError,
    SmoothnessPolicy,
    factorize,
    find_constellation,
    greatest_prime_factor,
    is_composite,
    is_prime,
    shifted_smooth_set,
    sieve,
    smooth_set,
    verify_composite_decomposition,
)
from decomplab.arith import SEGMENT_BITS
from decomplab.sets import MASK_BUDGET
from oracles import (naive_factorize, naive_is_prime, naive_pack, naive_sieve, naive_smooth,
                     prime_flags, window_prime_flags)


def test_is_prime_edge_cases():
    assert not is_prime(0)
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(241)
    assert not is_prime(121)


def test_is_prime_matches_trial_division():
    for n in range(2000):
        assert is_prime(n) == naive_is_prime(n), n


def test_is_prime_known_hard_cases():
    # strong pseudoprimes to small base sets, and values near 2**64
    assert not is_prime(3215031751)            # spsp to bases 2,3,5,7
    assert not is_prime(3825123056546413051)   # spsp to bases 2..23
    assert is_prime(2**61 - 1)
    assert is_prime(2**64 - 59)
    assert not is_prime(2**64 - 1)


def test_is_prime_domain():
    with pytest.raises(ValueError):
        is_prime(-1)
    with pytest.raises(ValueError):
        is_prime(2**64)


def test_sieve_small():
    assert list(sieve(10).primes()) == [2, 3, 5, 7]
    assert sieve(100).count() == 25
    assert sieve(1).count() == 0


def test_sieve_against_naive():
    ps = sieve(10**4)
    assert list(ps.primes()) == naive_sieve(10**4)


def test_sieve_million_count():
    assert sieve(10**6).count() == 78498


def test_sieve_crosses_segment_boundary():
    # limits straddling the segment size must agree with a fresh small sieve
    seg = 1 << 20
    ps = sieve(seg + 10)
    small = sieve(1000)
    for n in range(1000):
        assert ps.is_prime(n) == small.is_prime(n)
    for n in range(seg - 3, seg + 11):
        assert ps.is_prime(n) == is_prime(n)


def test_sieve_agrees_with_miller_rabin():
    ps = sieve(10**5)
    mask = ps.mask()
    for n in range(10**5 + 1):
        assert bool(mask[n]) == is_prime(n)


def test_views_are_flags_and_sets_without_numpy():
    # mask and as_mask are flags over [0, top], primes a bits-form set; a
    # test module imports numpy, so the views are read in a fresh interpreter
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from oracles import naive_sieve, prime_flags\n"
        "from decomplab import IntegerSet, sieve\n"
        "ps = sieve(1000)\n"
        "assert ps.mask() == prime_flags(1000)\n"
        "assert list(ps.primes()) == naive_sieve(1000)\n"
        "assert ps.primes() == IntegerSet(naive_sieve(1000), 0, 1000)\n"
        "values, flags = (4, 6, 8, 9), bytearray(13)\n"
        "for v in values:\n"
        "    flags[v] = 1\n"
        "array_form = IntegerSet(values, 2, 12)\n"
        "bits_form = IntegerSet(array_form.as_bits(), 2, 12)\n"
        "assert array_form.as_mask() == bits_form.as_mask() == flags\n"
        "assert ps.primes().as_mask() == prime_flags(1000)\n"
        "assert 'numpy' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, os.path.dirname(__file__)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_sieve_contract_violations(monkeypatch):
    ps = sieve(50)
    with pytest.raises(ValueError):
        ps.is_prime(51)
    with pytest.raises(ValueError):
        sieve(0)
    monkeypatch.setattr(arith, "_DEFAULT_SIEVE_BUDGET", 1000)
    with pytest.raises(MemoryError):
        sieve(10**9)


def test_resource_limits_refuse_before_allocating():
    with pytest.raises(ResourceLimitError, match="budget"):
        sieve(20_000_000_000)
    with pytest.raises(ResourceLimitError, match="base primes"):
        next(arith.prime_windows(1 << 60, (1 << 60) + 10))
    assert issubclass(ResourceLimitError, MemoryError)


def _window_flags(w):
    """A PrimeWindow's bytes as flags over the window, byte i 1 when
    w.start + i is prime: their binary digits, least significant first."""
    digits = format(int.from_bytes(w.to_bytes(), "little"), "b").zfill(w.size)[::-1]
    return digits.encode().translate(bytes.maketrans(b"01", b"\0\1"))


def _scan_flags(lo, hi):
    """Primality over [lo, hi] as one run of flags: the prime scan's
    windows, joined; empty when lo > hi."""
    return b"".join(_window_flags(w) for w in arith.prime_windows(lo, hi))


def _naive_bits(limit):
    return naive_pack(prime_flags(limit)).to_bytes((limit + 8) // 8, "little")


# the ends of the prime scan's first windows from 0: 2**14 new integers,
# doubling up to one segment
SCAN_EDGES = [2**14 * (2**k - 1) + d for k in range(1, 9) for d in (-3, 3)]


def test_sieve_bits_match_naive_packing():
    # every last-byte fill, and the edges of the odd-number segments
    span = 2 * SEGMENT_BITS
    for limit in [*range(1, 80), span - 9, span - 1, span, span + 1, span + 8, 2 * span + 3,
                  *SCAN_EDGES]:
        assert sieve(limit).bits == _naive_bits(limit), limit


def test_sieve_window_matches_is_prime_across_segment_edges():
    top = 6 * SEGMENT_BITS + 3
    window = _scan_flags(0, top)
    assert window == prime_flags(top)
    for k in range(1, 7):
        for n in range(k * SEGMENT_BITS - 3, k * SEGMENT_BITS + 4):
            assert window[n] == is_prime(n), n
    for edge in SCAN_EDGES:
        for n in range(edge - 3, edge + 4):
            assert window[n] == is_prime(n), n
    # windows starting just below, at and past each edge
    for k in (1, 2, 3):
        for lo in (k * SEGMENT_BITS - 3, k * SEGMENT_BITS, k * SEGMENT_BITS + 3):
            got = _scan_flags(lo, lo + 2 * SEGMENT_BITS + 5)
            assert got == window[lo: lo + 2 * SEGMENT_BITS + 6], lo


def test_sieve_window_low_starts():
    for lo in (0, 1, 2):
        for hi in range(lo - 1, 60):
            got = list(_scan_flags(lo, hi))
            assert got == [naive_is_prime(n) for n in range(lo, hi + 1)], (lo, hi)
    with pytest.raises(ValueError):
        next(arith.prime_windows(-1, 10))


def test_sieve_window_near_one_billion():
    lo = 10**9 - 1000
    got = _scan_flags(lo, lo + 3000)
    assert list(got) == [is_prime(n) for n in range(lo, lo + 3001)]


def test_sieve_window_small_segments(monkeypatch):
    # many segment edges inside short windows, and scans of 100 to 200
    # segments from 0 and from 1001, each segment in a window of its own
    monkeypatch.setattr(arith, "SEGMENT_BITS", 8)
    flags = prime_flags(3201)
    for lo, hi in ((0, 3000), (1, 47), (2, 16), (17, 33), (1000, 2999), (0, 1600), (0, 1601),
                   (0, 3201), (1001, 2600), (1001, 2601)):
        assert _scan_flags(lo, hi) == flags[lo: hi + 1]
    assert sieve(3000).bits == _naive_bits(3000)


def test_strike_one_full_segment_near_two_to_48():
    # all 1.07M base primes below 2**24 reach this segment; most strike it once
    # or not at all, and the segment must not cost memory for each of them
    s = 2**48 + 1
    e = s + 2 * SEGMENT_BITS - 2
    flags = arith._odd_sieve(e)
    tracemalloc.start()
    try:
        bits = _pack(flags(s, e), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 << 20, peak / 2**20
    evens = int.from_bytes(b"\x55" * (SEGMENT_BITS // 4), "little")  # bit 2i: s + 2i
    assert bits | evens == evens
    rng = random.Random(48)
    for i in [*range(2000), *range(SEGMENT_BITS - 2000, SEGMENT_BITS),
              *rng.sample(range(SEGMENT_BITS), 2000)]:
        assert (bits >> 2 * i) & 1 == is_prime(s + 2 * i), i


def _peak_mib(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_prime_scan_works_in_one_segment_of_memory():
    # a full segment's flags (1 MiB), its bits and the window's: no segment-
    # long copy of the 3..13 pattern, and zeros only as long as the longest
    # slice that crosses off a prime past it (n / 17 bytes); to 10**8, and
    # to 2.2 * 10**8, 105 segments
    for limit in (10**8, 220_000_000):
        peak = _peak_mib(lambda: arith.tally_primes(limit))
        assert peak < 3.5, (limit, peak)
    # a first window of 2**14 integers costs its own size, whatever the
    # scan's reach (it sieves base primes for 4 * 10**8)
    peak = _peak_mib(lambda: next(arith.prime_windows(10**8, 2 * 10**9)))
    assert peak < 1, peak


def test_segment_is_sized_by_the_scan_height():
    # the least power of two >= 512 r / ln r odd numbers, r = isqrt(hi),
    # capped at SEGMENT_BITS: the cap from 9365**2 (about 8.8 * 10**7) up
    for hi in (156_000_000, 10**9, 10**12, 2**48):
        assert arith._segment_bits(hi) == SEGMENT_BITS, hi
    assert arith._segment_bits(25_000_000) == arith._segment_bits(56_000_000) == 2**19
    for hi in (-1, 0, 1, 100, 10**6, 25_000_000, 56_000_000, 87_703_224, 87_703_225):
        r = math.isqrt(max(hi, 9))
        bits = arith._segment_bits(hi)
        assert bits == SEGMENT_BITS or bits // 2 < 512 * r / math.log(r) <= bits, hi
        assert bits & (bits - 1) == 0, hi
    assert arith._segment_bits(87_703_224) == SEGMENT_BITS // 2
    assert arith._segment_bits(87_703_225) == SEGMENT_BITS


def test_scans_below_the_cap_work_in_their_own_segment():
    # scans short of 8.8 * 10**7 strike segments of 2**18 or 2**19 odd
    # numbers; each bound lies below the scan's peak with 2**20 (about 2.5,
    # 2.8 and 3.6 MiB)
    peak = _peak_mib(lambda: arith.tally_primes(24_628_345))
    assert peak < 2, peak
    peak = _peak_mib(lambda: verify_composite_decomposition(55_545_595))
    assert peak < 2, peak
    peak = _peak_mib(lambda: find_constellation(OffsetTuple((0, 6)), 12_453_559, 24_907_118,
                                                require_consecutive=True))
    assert peak < 3, peak


def test_presieved_segments_at_every_phase_of_the_pattern():
    # the pattern fills a segment from the phase of s // 2 mod _WHEEL and
    # doubles; lengths in odd numbers about one and two periods, and a full
    # segment, against the oracle, as flags and packed
    wheel, seg = arith._WHEEL, SEGMENT_BITS
    starts = [2 * (q * wheel + r) + 1 for q, r in ((0, 0), (0, 1), (0, 6), (1, wheel // 3),
                                                   (2, wheel // 2), (3, wheel - 8),
                                                   (4, wheel - 1), (5, 0))]
    lengths = (1, wheel - 1, wheel, wheel + 1, 2 * wheel + 1, seg)
    top = max(starts) + 2 * seg
    want_flags = prime_flags(top)
    flags = arith._odd_sieve(top)
    for s in starts:
        for n in lengths:
            e = s + 2 * (n - 1)
            want = bytes(want_flags[s: e + 1: 2])
            want_bits = naive_pack(want, 2)  # bit 2k for s + 2k
            got = flags(s, e)
            assert got[:n] == want and not any(got[n:]) and len(got) % 4 == 0, (s, n)
            assert _pack(got, 2) == want_bits, (s, n)


def test_base_primes_are_the_odd_primes_up_to_the_root():
    # listed a segment at a time from 3: to the first segment's end, one
    # past it, and every base prime a window below 2**48 needs
    seg = 2 * SEGMENT_BITS
    for root in (1, 2, 3, 4, seg + 2, seg + 3, arith._BASE_PRIME_LIMIT):
        flags = prime_flags(root)
        assert arith._base_primes(root).tolist() == list(compress(range(3, root + 1, 2),
                                                                  flags[3::2])), root


def test_sieve_window_across_two_to_48():
    lo = 2**48 - 2000
    got = _scan_flags(lo, 2**48 + 2000)
    assert list(got) == [is_prime(n) for n in range(lo, 2**48 + 2001)]


def _window_text(w):
    """A PrimeWindow's bits as text, character i "1" when w.start + i is
    prime, checked against its bytes."""
    text = format(w.bits, "b").zfill(w.size)[::-1]
    assert len(text) == w.size, (w.start, w.size)  # no bit past the window
    assert _flags_text(_window_flags(w)) == text
    return text


def _flags_text(flags):
    return bytes(flags).translate(bytes.maketrans(b"\0\1", b"01")).decode()


def _check_prime_windows(lo, hi, overlap, want):
    """prime_windows(lo, hi, overlap) gives want (primality over [lo, hi])
    once the repeated integers are dropped, repeats the last `overlap`
    integers of each window, so any overlap + 1 consecutive integers lie in
    one window, and keeps each window's size in the bounds of the segment
    the scan picks for its height."""
    bits = arith._segment_bits(hi)
    end, fresh = lo - 1, []
    for w in arith.prime_windows(lo, hi, overlap):
        s = w.start
        assert s == max(end - overlap + 1, lo), (lo, hi, overlap, s, end)
        new = s + w.size - 1 - end
        assert w.size <= max(2 * bits, bits + overlap)
        assert new >= min(overlap, bits) or s + w.size - 1 == hi
        fresh.append(_window_text(w)[w.size - new:])
        end += new
    assert end == max(hi, lo - 1)
    assert "".join(fresh) == _flags_text(want), (lo, hi, overlap)


def test_prime_windows_small_segments(monkeypatch):
    flags = prime_flags(3000)
    for bits in (8, 16):
        monkeypatch.setattr(arith, "SEGMENT_BITS", bits)
        for lo in (0, 1, 2):
            for hi in (lo - 1, lo, 40, 3000):
                for overlap in (0, 1, 5, 10, 3 * bits):  # 3 * bits is past a segment
                    _check_prime_windows(lo, hi, overlap, flags[lo: hi + 1])
                assert _scan_flags(lo, hi) == flags[lo: hi + 1]


def test_prime_windows_real_segments():
    top = 3 * 2 * SEGMENT_BITS + 100
    flags = prime_flags(top)
    for lo in (0, 1, 2):
        for overlap in (0, 10, 2 * SEGMENT_BITS + 7):
            _check_prime_windows(lo, top, overlap, flags[lo:])
    lo = 10**9
    want = bytes(map(is_prime, range(lo, lo + 3001)))
    for overlap in (0, 10, 5000):
        _check_prime_windows(lo, lo + 3000, overlap, want)
    assert list(arith.prime_windows(10, 9)) == list(arith.prime_windows(10, 3, 5)) == []


def _composite_text(lo, hi, flags):
    return "".join("1" if n > 1 and not flags[n] else "0" for n in range(lo, hi + 1))


def test_composite_bits_complement_the_prime_bits(monkeypatch):
    # bit i is lo + i composite: 0 and 1 are not, and the joined windows'
    # bytes follow on across every window edge, under small segments too
    flags = prime_flags(3000)
    for bits in (8, 16, SEGMENT_BITS):
        monkeypatch.setattr(arith, "SEGMENT_BITS", bits)
        for lo, hi in ((0, 0), (0, 1), (1, 1), (0, 2), (1, 47), (2, 16), (4, 4), (17, 33),
                       (0, 3000), (1000, 2999)):
            got = arith.composite_bits(lo, hi)
            assert got.bit_length() <= hi - lo + 1, (bits, lo, hi)
            text = format(got, "b").zfill(hi - lo + 1)[::-1]
            assert text == _composite_text(lo, hi, flags), (bits, lo, hi)
    monkeypatch.undo()
    top = 2 * (2 * SEGMENT_BITS) + 40  # past two windows of the real scan, each edge inside
    bits = arith.composite_bits(1, top)
    assert bits == arith.composite_bits(0, top) >> 1
    for edge in [2 * SEGMENT_BITS * k for k in (1, 2)] + SCAN_EDGES[:6]:
        for n in range(edge - 5, edge + 6):
            assert (bits >> (n - 1)) & 1 == is_composite(n), n
    lo = 10**9 - 100
    got = arith.composite_bits(lo, lo + 300)
    assert [(got >> i) & 1 for i in range(301)] == [is_composite(n) for n in range(lo, lo + 301)]


def test_prime_windows_match_the_window_oracle_at_segment_edges():
    # windows from 0, 1 and 2 across two segment edges, with and without an
    # overlap past a segment, and a segment's width either side of 10**9
    # and below 2**48 to past it, where every base prime below 2**24 is listed
    seg = 2 * SEGMENT_BITS
    cases = [(lo, lo + 2 * seg + 5, overlap) for lo in (0, 1, 2) for overlap in (0, seg + 7)]
    cases += [(10**9 - seg - 3, 10**9 + seg + 3, 0), (2**48 - 2**15 - 3, 2**48 + 2**14, 0)]
    for lo, hi, overlap in cases:
        want = window_prime_flags(lo, hi)
        _check_prime_windows(lo, hi, overlap, want)
        for w in arith.prime_windows(lo, hi, overlap):
            text = _window_text(w)
            for i in {*range(min(40, w.size)), *range(max(w.size - 40, 0), w.size)}:
                assert text[i] == "01"[is_prime(w.start + i)], w.start + i


def test_prime_windows_refuse_only_the_window_past_the_base_prime_limit(monkeypatch):
    # base primes up to 100: a window may end below 101**2, the next is refused
    monkeypatch.setattr(arith, "SEGMENT_BITS", 8)
    monkeypatch.setattr(arith, "_BASE_PRIME_LIMIT", 100)
    flags = prime_flags(101**2 + 100)
    ends = []
    with pytest.raises(ResourceLimitError, match="base primes"):
        for w in arith.prime_windows(3000, 10**6):
            assert _window_text(w) == _flags_text(flags[w.start: w.start + w.size])
            ends.append(w.start + w.size - 1)
    assert ends[-1] < 101**2 <= ends[-1] + 2 * arith.SEGMENT_BITS


def test_sieve_cache_roundtrip(tmp_path):
    ps = sieve(12345)
    path = tmp_path / "p.psv"
    ps.save(path)
    loaded = PrimeSieve.load(path)
    assert loaded == ps
    raw = path.read_bytes()
    assert raw[:4] == b"PSV1"
    assert int.from_bytes(raw[4:12], "little") == 12345
    assert len(raw) == 12 + (12345 + 8) // 8


def test_sieve_cache_validation(tmp_path):
    bad = tmp_path / "bad.psv"
    bad.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ValueError):
        PrimeSieve.load(bad)
    truncated = tmp_path / "short.psv"
    ps = sieve(1000)
    ps.save(truncated)
    truncated.write_bytes(truncated.read_bytes()[:-3])
    with pytest.raises(ValueError):
        PrimeSieve.load(truncated)
    for head in (b"", b"PSV1", b"PSV1abc", b"PSV1" + bytes(7)):  # shorter than the header
        bad.write_bytes(head)
        with pytest.raises(ValueError):
            PrimeSieve.load(bad)
    # a byte too many, and a limit whose bits no file holds, fail on the size
    ps.save(bad)
    bad.write_bytes(bad.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="expected 126 bitset bytes, found 127"):
        PrimeSieve.load(bad)
    bad.write_bytes(b"PSV1" + (2**64 - 1).to_bytes(8, "little") + bytes(126))
    with pytest.raises(ValueError, match="found 126"):
        PrimeSieve.load(bad)


def test_sieve_cache_rejects_stray_padding_bits(tmp_path):
    # limit 20 fills bits 0-4 of byte 2; bit 5 stands for 21, past the limit
    path = tmp_path / "stray.psv"
    sieve(20).save(path)
    raw = bytearray(path.read_bytes())
    raw[-1] |= 1 << 5
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="padding"):
        PrimeSieve.load(path)


# tiny windows, and 2**14 and 2**21 either side of the scan's first window
# and of a segment's edge
TALLY_LIMITS = (1, 2, 3, 7, 8, 9, 2**14 - 1, 2**14 + 1, 2**21 - 1, 2**21 + 1, 2**22 + 1)


def test_tally_primes_streams_what_sieve_joins(tmp_path):
    for limit in TALLY_LIMITS:
        ps = sieve(limit)
        ps.save(tmp_path / "joined.psv")
        want = (ps.count(), ps.largest_prime())
        cache = tmp_path / f"streamed-{limit}.psv"
        assert arith.tally_primes(limit) == (*want, False), limit
        assert arith.tally_primes(limit, cache) == (*want, False), limit
        assert cache.read_bytes() == (tmp_path / "joined.psv").read_bytes(), limit
        assert arith.tally_primes(limit, cache) == (*want, True), limit
        assert arith.tally_primes(limit, str(cache)) == (*want, True), limit
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["joined.psv"] + [f"streamed-{limit}.psv" for limit in TALLY_LIMITS])


def test_tally_primes_over_fifty_nine_windows(tmp_path):
    # a scan to 110,000,000 strikes 59 windows; pi(limit) and the largest
    # prime below it as sympy gives them
    limit = 110_000_000
    cache = tmp_path / "big.psv"
    assert arith.tally_primes(limit, cache) == (6_303_309, 109_999_993, False)
    ps = sieve(limit)
    assert (ps.count(), ps.largest_prime()) == (6_303_309, 109_999_993)
    assert cache.read_bytes()[12:] == ps.bits
    del ps
    assert arith.tally_primes(limit, cache) == (6_303_309, 109_999_993, True)


def test_tally_primes_judges_a_stale_cache_from_its_header(tmp_path, monkeypatch):
    cache = tmp_path / "s.psv"
    sieve(1000).save(cache)
    # another limit: the bitset is never read, and the scan replaces the file
    reads = []
    monkeypatch.setattr(arith, "_slices", lambda fh: reads.append(fh) or iter(()))
    assert arith.tally_primes(2000, cache) == (303, 1999, False)
    assert reads == []
    monkeypatch.undo()
    assert PrimeSieve.load(cache) == sieve(2000)
    # the same checks as load: a corrupt cache is refused, and left alone
    raw = bytearray(cache.read_bytes())
    raw[-1] |= 1 << 7  # 2007, past the limit
    cache.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="padding"):
        arith.tally_primes(1000, cache)
    assert cache.read_bytes() == bytes(raw)


def test_tally_primes_leaves_no_cache_when_the_scan_fails(tmp_path, monkeypatch):
    def failing_windows(lo, hi, overlap=0):
        windows = prime_windows(lo, hi, overlap)
        yield next(windows)
        raise MemoryError("scan failed")

    prime_windows, stale = arith.prime_windows, sieve(1000)
    cache = tmp_path / "s.psv"
    monkeypatch.setattr(arith, "prime_windows", failing_windows)
    with pytest.raises(MemoryError):
        arith.tally_primes(100000, cache)
    assert list(tmp_path.iterdir()) == []
    # a stale cache stays as it was
    stale.save(cache)
    with pytest.raises(MemoryError):
        arith.tally_primes(100000, cache)
    assert list(tmp_path.iterdir()) == [cache] and PrimeSieve.load(cache) == stale


def test_cache_writes_sweep_part_files_whose_writer_is_gone(tmp_path, monkeypatch):
    # a writer killed by a signal leaves <cache>.<pid>.part behind: the next
    # write of that cache removes it once no process has its pid, and keeps
    # a live writer's part file and every other file
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped: no process has its pid
    gone, alive = (f"s.psv.{pid}.part" for pid in (child.pid, os.getppid()))
    kept = [alive, "s.psv.x.part", "s.psv.part", f"t.psv.{child.pid}.part", f"s.psv.{child.pid}"]
    monkeypatch.chdir(tmp_path)
    for name in (gone, *kept):
        (tmp_path / name).write_bytes(b"cut short")
    assert arith.tally_primes(1000, "s.psv") == (168, 997, False)  # a name in the folder
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["s.psv", *kept])
    (tmp_path / gone).write_bytes(b"cut short")
    sieve(1000).save(tmp_path / "s.psv")  # a path with its folder
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["s.psv", *kept])


def test_tally_primes_refuses_before_opening_any_file(tmp_path, monkeypatch):
    monkeypatch.setattr(arith, "prime_windows", None)  # the scan must not start
    with pytest.raises(ResourceLimitError, match="budget"):
        arith.tally_primes(8 * arith._DEFAULT_SIEVE_BUDGET, tmp_path / "big.psv")
    with pytest.raises(ValueError, match="limit must be >= 1"):
        arith.tally_primes(0, tmp_path / "zero.psv")
    assert list(tmp_path.iterdir()) == []


def test_largest_prime():
    assert sieve(1).largest_prime() is None
    assert sieve(2).largest_prime() == 2
    for limit in (23, 24, 8191, 8192, 1024, 1031, 10**5):
        assert sieve(limit).largest_prime() == max(naive_sieve(limit)), limit
    # the top prime more than 4096 bytes before the end, and no prime at all;
    # then the same across slices of the bits
    for size in (5000, 3 << 16):
        assert PrimeSieve(8 * size, b"\x04" + b"\0" * size).largest_prime() == 2
        assert PrimeSieve(8 * size, bytes(size + 1)).largest_prime() is None
        assert PrimeSieve(8 * size, b"\x04" + b"\0" * size + b"\x01").count() == 2


def test_greatest_prime_factor():
    assert greatest_prime_factor(1) == 1
    assert greatest_prime_factor(12) == 3
    assert greatest_prime_factor(2**10) == 2


def test_greatest_prime_factor_properties():
    for n in range(2, 10**5 + 1):
        g = greatest_prime_factor(n)
        facs = factorize(n)
        assert is_prime(g)
        assert n % g == 0
        assert g == max(p for p, _ in facs)


def test_factorize_examples():
    assert factorize(1) == []
    assert factorize(60) == [(2, 2), (3, 1), (5, 1)]
    assert factorize(121) == [(11, 2)]


def test_factorize_matches_naive():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(1, 10**6)
        assert factorize(n) == naive_factorize(n)


def test_factorize_large_semiprime():
    p, q = 2**31 - 1, 2**31 - 19  # both prime
    assert factorize(p * q) == [(q, 1), (p, 1)]


def test_trial_primes_are_the_primes_below_1024():
    # primes sieves them in 512 bytes of its own, without the prime scan
    assert primes._TRIAL_PRIMES == tuple(n for n in range(1024) if naive_is_prime(n))


def test_factorize_domain():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(1 << 63)


def test_smooth_set_composites():
    got = smooth_set(SmoothnessPolicy.composites(), 20)
    assert tuple(got.elements) == (4, 6, 8, 9, 10, 12, 14, 15, 16, 18, 20)
    assert (got.window_lo, got.window_hi) == (1, 20)


def test_smooth_set_fixed():
    assert tuple(smooth_set(SmoothnessPolicy.fixed_bound(2), 40).elements) == (1, 2, 4, 8, 16, 32)
    assert tuple(smooth_set(SmoothnessPolicy.fixed_bound(3), 20).elements) == (1, 2, 3, 4, 6, 8, 9, 12, 16, 18)


def test_smooth_set_log_matches_pointwise():
    policy = SmoothnessPolicy.log_factor(1.5)
    bulk = set(smooth_set(policy, 300).elements)
    for n in range(1, 301):
        assert (n in bulk) == policy.is_smooth(n), n
    # the max(..., 2) floor keeps 1 and 2 smooth at any positive factor
    assert 1 in bulk and 2 in bulk
    # factor * ln n lands on p+(n) within one ulp; math.log and np.log give
    # different last bits at these n (numpy 2.4.6 with AVX-512)
    for n, factor in ((9170, 14.358221637031136), (19143, 71.90893709186054),
                      (94869, 11.081780487050688)):
        policy = SmoothnessPolicy.log_factor(factor)
        assert policy.is_smooth(n) == (n in smooth_set(policy, n)), n
    # the same boundary at every n <= 10**5 where the two logs differ here
    import numpy as np
    logs = np.log(np.arange(1, 10**5 + 1, dtype=np.float64))
    for n in range(2, 10**5 + 1):
        if logs[n - 1] == math.log(n):
            continue
        g = greatest_prime_factor(n)
        for f in (g / math.log(n), g / float(logs[n - 1])):
            for factor in (np.nextafter(f, 0.0), f, np.nextafter(f, np.inf)):
                policy = SmoothnessPolicy.log_factor(float(factor))
                assert policy.is_smooth(n) == (n in smooth_set(policy, n)), (n, factor)


def test_log_policy_needs_a_finite_factor():
    for factor in (math.nan, math.inf, -math.inf, -1.0, None):
        with pytest.raises(ValueError, match="finite factor"):
            SmoothnessPolicy.log_factor(factor)
    # a finite factor whose threshold overflows to inf keeps every n
    assert tuple(smooth_set(SmoothnessPolicy.log_factor(1e308), 50).elements) == tuple(range(1, 51))


SMOOTH_POLICIES = (
    [SmoothnessPolicy.composites()]
    + [SmoothnessPolicy.fixed_bound(b) for b in (1, 2, 97, 4000, 2**31 + 5)]
    + [SmoothnessPolicy.log_factor(f) for f in (0.5, 3.5, 1e308)]
)


def test_smooth_sets_match_pointwise_across_window_edges(monkeypatch):
    limit = 3000
    for policy in SMOOTH_POLICIES:
        want = tuple(n for n in range(1, limit + 1) if policy.is_smooth(n))
        for bits in (8, 256):  # windows of 16 and 512 integers
            monkeypatch.setattr(arith, "SEGMENT_BITS", bits)
            assert tuple(smooth_set(policy, limit).elements) == want, (policy, bits)
            shifted = shifted_smooth_set(policy, limit + 1).elements
            assert tuple(shifted) == tuple(n + 1 for n in want), (policy, bits)


def test_smooth_sets_match_the_naive_oracle():
    # fixed bounds at the edges of the closure's prime list and on both sides
    # of its switch to the complement; log factors from a threshold at the
    # floor of 2 to one past the floats
    rng = random.Random(20201126)
    complements = 0
    for limit in (1, 2, 3, *(rng.randint(4, 2 * 10**4) for _ in range(3))):
        root = math.isqrt(limit)
        cross = 1 + bisect_left(range(1, limit + 1), True,
                                key=lambda b: arith._complement_is_cheaper(limit, b, b))
        complements += cross <= limit
        bounds = {1, 2, root - 1, root + 1, cross - 1, cross + 1, limit - 1, limit, 2**31 + 5}
        policies = [SmoothnessPolicy.fixed_bound(b) for b in sorted(bounds) if b >= 1]
        policies += [SmoothnessPolicy.log_factor(f) for f in (0.1, 0.5, 1.5, 3, 3.5, 1e3, 1e308)]
        for policy in policies:
            want = naive_smooth(policy.kind, policy.bound or policy.factor, limit)
            assert list(smooth_set(policy, limit).elements) == want, (policy, limit)
            shifted = shifted_smooth_set(policy, limit + 1)
            assert list(shifted.elements) == [n + 1 for n in want], (policy, limit)
            assert (shifted.window_lo, shifted.window_hi) == (1, limit + 1)
    assert complements >= 2


def test_log_threshold_is_taken_only_at_candidates(monkeypatch):
    # y(n) is taken at the top, by one bisection for the primes with
    # y(p) >= p and by one per other prime p <= y(limit) for its least
    # cofactor: never per integer
    limit, taken = 10**6, []
    exact = SmoothnessPolicy.log_threshold

    def counted(self, n):
        taken.append(n)
        return exact(self, n)

    monkeypatch.setattr(SmoothnessPolicy, "log_threshold", counted)
    policy = SmoothnessPolicy.log_factor(2)
    arith._smooth_flags(policy, limit)
    primes = naive_sieve(int(exact(policy, float(limit))))
    assert 0 < len(taken) <= len(primes) * math.ceil(math.log2(limit))


def test_smooth_mask_memory_is_one_byte_per_integer(monkeypatch):
    # the fixed and log flags take a byte per integer, on either path;
    # composites take the complement of the prime bits, a bit per integer
    monkeypatch.setattr(arith, "SEGMENT_BITS", 1 << 12)
    limit = 10**6
    assert arith._complement_is_cheaper(limit, limit // 2, limit // 2)
    for build, bound in ((lambda: smooth_set(SmoothnessPolicy.composites(), limit), limit // 2),
                         (lambda: arith._smooth_flags(SmoothnessPolicy.fixed_bound(140), limit),
                          2 * limit),
                         (lambda: arith._smooth_flags(SmoothnessPolicy.fixed_bound(limit // 2),
                                                      limit), 2 * limit),
                         (lambda: arith._smooth_flags(SmoothnessPolicy.log_factor(2), limit),
                          2 * limit)):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (bound, peak / limit)


def test_smooth_set_refused_at_the_mask_budget():
    for policy in (SmoothnessPolicy.composites(), SmoothnessPolicy.fixed_bound(140),
                   SmoothnessPolicy.log_factor(2)):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="dense mask"):
                smooth_set(policy, MASK_BUDGET)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (policy, peak)


def test_one_handling_across_policies():
    # p+(1) = 1: excluded under the composites regime, included once y0 >= 1
    assert 1 not in smooth_set(SmoothnessPolicy.composites(), 10)
    assert 1 in smooth_set(SmoothnessPolicy.fixed_bound(1), 10).elements
    assert tuple(smooth_set(SmoothnessPolicy.fixed_bound(1), 10).elements) == (1,)


def test_composites_partition():
    x = 3000
    smooth = set(smooth_set(SmoothnessPolicy.composites(), x))
    primes = set(naive_sieve(x))
    assert smooth | primes | {1} == set(range(1, x + 1))
    assert not (smooth & primes) and 1 not in smooth


def test_shifted_smooth_examples():
    assert tuple(shifted_smooth_set(SmoothnessPolicy.composites(), 20).elements) == (5, 7, 9, 10, 11, 13, 15, 16, 17, 19)
    assert tuple(shifted_smooth_set(SmoothnessPolicy.fixed_bound(2), 10).elements) == (2, 3, 5, 9)
    assert tuple(shifted_smooth_set(SmoothnessPolicy.fixed_bound(1), 2).elements) == (2,)


def test_shifted_is_shift_of_smooth():
    for policy in (
        SmoothnessPolicy.composites(),
        SmoothnessPolicy.fixed_bound(5),
        SmoothnessPolicy.log_factor(2.0),
    ):
        for limit in (2, 17, 100, 257):
            base = smooth_set(policy, limit - 1)
            shifted = shifted_smooth_set(policy, limit)
            assert tuple(shifted.elements) == tuple(m + 1 for m in base.elements)


def test_policy_validation():
    with pytest.raises(ValueError):
        SmoothnessPolicy.fixed_bound(0)
    with pytest.raises(ValueError):
        SmoothnessPolicy.log_factor(0)
    with pytest.raises(ValueError):
        SmoothnessPolicy("junk")
    with pytest.raises(ValueError):
        SmoothnessPolicy.composites().is_smooth(0)


def test_is_composite():
    assert not is_composite(0) and not is_composite(1) and not is_composite(2)
    assert is_composite(4) and is_composite(9) and not is_composite(97)
