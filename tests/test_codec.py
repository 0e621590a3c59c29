"""The packed-bits codec in decomplab/__init__.py against naive oracles: one
unpacker in three regimes, one packer at strides 1 and 2."""

import random
import tracemalloc

import pytest

import decomplab
from decomplab import IntegerSet, OffsetTuple, SmoothnessPolicy, find_constellation, smooth_set
from decomplab import _WALK, _SLICE, _pack, _unpack, arith
from oracles import naive_constellation, naive_pack, naive_unpack, window_prime_flags


def _bits(offsets):
    offsets = list(offsets)
    raw = bytearray(max(offsets, default=-1) // 8 + 1)
    for i in offsets:
        raw[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(raw, "little")


def _regimes(monkeypatch):
    """Counts of the flag reads _unpack makes: by finditer and by compress.
    A walk makes neither."""
    seen = {"finditer": 0, "compress": 0}

    def counted(name, f):
        def wrapper(*args):
            seen[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(decomplab.re, "finditer", counted("finditer", decomplab.re.finditer))
    monkeypatch.setattr(decomplab, "compress", counted("compress", decomplab.compress))
    return seen


def _check(bits, start=0):
    assert _unpack(bits, start).tolist() == naive_unpack(bits, start), (bits.bit_length(), start)


@pytest.mark.parametrize("start", [0, 12345])
def test_unpack_in_each_regime(monkeypatch, start):
    rng = random.Random(24)
    size = 1 << 16  # 8192 bytes, one slice
    nbytes = size // 8
    cut = -(-nbytes // _WALK)  # the fewest nonzero bytes that are spread
    cases = {
        "empty": (0, None),
        "50 hits": (_bits(rng.sample(range(size), 50)), "walk"),
        "1/256": (_bits(rng.sample(range(size), size // 256)), "walk"),
        # one bit in each of cut - 1 or cut bytes: either side of the walk's cut
        "walk side": (_bits(8 * j + 3 for j in rng.sample(range(nbytes), cut - 1)), "walk"),
        "spread side": (_bits(8 * j + 3 for j in rng.sample(range(nbytes), cut)), "finditer"),
        # nbytes - 1, nbytes or nbytes + 1 bits of 8 * nbytes: either side of 1/8
        "below 1/8": (_bits(rng.sample(range(size), nbytes - 1)) | 1 << size - 1, "finditer"),
        "at 1/8": (_bits(rng.sample(range(size - 1), nbytes - 1)) | 1 << size - 1, "compress"),
        "above 1/8": (_bits(rng.sample(range(size - 1), nbytes)) | 1 << size - 1, "compress"),
        "1/2": (_bits(rng.sample(range(size - 1), size // 2)) | 1 << size - 1, "compress"),
        "all ones": ((1 << size) - 1, "compress"),
    }
    for name, (bits, regime) in cases.items():
        seen = _regimes(monkeypatch)
        _check(bits, start)
        read = [r for r, n in seen.items() if n]
        assert read == ([] if regime in ("walk", None) else [regime]), name
        monkeypatch.undo()


def test_unpack_at_every_length_from_even_and_odd_starts():
    # the AND of 8, 4 or 1 random words sets about 1/256 (walked), 1/16
    # (spread, then searched) or 1/2 (spread, then compressed) of the bits
    rng = random.Random(7)
    slice_bits = 8 * _SLICE
    lengths = (1, 7, 8, 9, slice_bits - 8, slice_bits, slice_bits + 8, 3 * slice_bits + 77)
    for length in lengths:
        for words in (8, 4, 1, 0):  # 0: all ones
            bits = (1 << length) - 1
            for _ in range(words):
                bits &= rng.getrandbits(length)
            bits |= 1 << length - 1
            want = naive_unpack(bits, 0)
            for start in (0, 10**8 + 1):
                assert _unpack(bits, start).tolist() == [start + v for v in want], (
                    length, words, start)


def test_unpack_slices_each_spread_or_read_alike():
    # dense slices around a sparse one, and a sparse slice whose bits are all
    # in one byte: each slice keeps its own place in the result
    slice_bits = 8 * _SLICE
    bits = ((1 << slice_bits) - 1) | 0xFF << slice_bits + 8000 | 0x5 << 3 * slice_bits - 3
    _check(bits, 0)
    _check(bits, 99)


def _pack_odd(flags):
    # the kernel's stride-2 packer before the codec: one slice per bit pair
    return (int.from_bytes(flags[0::4], "little") | int.from_bytes(flags[1::4], "little") << 2
            | int.from_bytes(flags[2::4], "little") << 4
            | int.from_bytes(flags[3::4], "little") << 6)


def test_pack_round_trips_at_both_strides():
    rng = random.Random(3)
    for n in (0, 1, 7, 8, 9, 64, 1001, 1 << 14):
        for density in (0, 0.01, 0.5, 1):
            flags = bytearray(rng.random() < density for _ in range(n))
            assert _pack(flags) == naive_pack(flags), (n, density)
            assert _pack(flags, 2) == naive_pack(flags, 2), (n, density)
            assert _unpack(_pack(flags), 5).tolist() == [5 + k for k in range(n) if flags[k]]
            assert _unpack(_pack(flags, 2), 5).tolist() == [5 + 2 * k for k in range(n)
                                                            if flags[k]]


def test_stride_two_pack_matches_the_kernels_old_packer():
    flags = arith._odd_sieve(10**9 + 2**21)
    for s in (1, 3, 10**6 + 1, 10**9 + 1):
        for size in (1, 9, 2**14, 2**21):
            segment = flags(s, s + size - 1)
            assert _pack(segment, 2) == _pack_odd(segment) == naive_pack(segment, 2), (s, size)


def test_constellation_of_every_prime_reads_windows_by_finditer(monkeypatch):
    lo, hi = 10**8, 10**8 + 3 * 2**21
    seen = _regimes(monkeypatch)
    hits = find_constellation(OffsetTuple.of((0,)), lo, hi).tolist()
    assert seen["finditer"] and not seen["compress"]
    flags = window_prime_flags(lo, hi)
    assert hits == naive_constellation((0,), lo, hi, lambda n: flags[n - lo] == 1)


def test_bits_form_save_text_writes_a_slice_at_a_time(tmp_path):
    # tracemalloc's cost per allocation sets the test's time, so the set is
    # only as large as keeps a write that built the array 10 times the bound
    limit, bound = 6 * 10**5, 384 << 10
    composites = smooth_set(SmoothnessPolicy.composites(), limit)
    assert isinstance(composites._data, int) and 8 * len(composites) >= 10 * bound
    path = tmp_path / "c.txt"
    tracemalloc.start()
    try:
        composites.save_text(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, peak  # the elements array alone takes about 4.4 MB
    # as the array form writes them
    IntegerSet(composites.elements, 1, limit).save_text(tmp_path / "array.txt")
    assert path.read_bytes() == (tmp_path / "array.txt").read_bytes()
