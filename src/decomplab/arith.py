"""Exact integer primitives over windows: the prime scan, sieves and their
cache files, composite bits and smooth sets.  The tests of single integers,
is_prime, is_composite, factorize and greatest_prime_factor, are in primes,
and are re-exported here with MAX_VALUE."""

from __future__ import annotations

import contextlib
import io
import math
import os
import struct
from array import array
from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import compress

from . import _SLICE, _Record, _flags, _gather, _pack, _unpack, sets
from .primes import (  # noqa: F401  (MAX_VALUE, factorize and is_prime are re-exported)
    MAX_VALUE, factorize, greatest_prime_factor, is_composite, is_prime)

SEGMENT_BITS = 1 << 20  # most odd numbers in a sieve segment: 1 MiB of flags, 2**21 integers
_BASE_PRIME_LIMIT = 1 << 24  # largest base prime, so windows reach 2**48
_DEFAULT_SIEVE_BUDGET = 1 << 31  # bytes of packed bits
_SIEVE_MAGIC = b"PSV1"
_WHEEL_PRIMES = (3, 5, 7, 11, 13)  # pre-sieved: every segment starts from their pattern
_WHEEL = 3 * 5 * 7 * 11 * 13  # odd numbers in one period of the pattern
# translate tables of the smooth flags: a set source byte makes j * p smooth
# (_KEEP) or, below cut_p, only a source for larger n (_LATE)
_KEEP, _LATE = b"\0" + b"\1" * 255, b"\0" + b"\2" * 255
_ONLY_ONE, _NOT = b"\0\1" + bytes(254), b"\1" + bytes(255)
_COMPLEMENT = bytes(range(255, -1, -1))  # every bit of a byte flipped
# _complement_is_cheaper's costs, in bytes the closure copies: fitted to both
# paths at 10**6 and 10**7 integers (Python 3.11.7, 2 CPUs)
_SLICE_BYTES = 1000  # one slice of the closure
_CLEAR_BYTES = 2.7  # one byte cleared through a window
_MERTENS = 0.2615  # Sum_{p <= x} 1 / p = ln ln x + M + o(1)


class PrimeSieve(_Record):
    """Packed primality bits over [0, limit]: bit i of byte j covers 8j + i,
    read as the codec's flags (mask) or as a bits-form IntegerSet (primes).
    The `sieve` command holds none of it: tally_primes tallies the scan or
    the cache one window at a time."""

    __slots__ = ("limit", "bits")

    def is_prime(self, n: int) -> bool:
        if not 0 <= n <= self.limit:
            raise ValueError(f"sieve covers [0, {self.limit}], got {n}")
        return bool((self.bits[n >> 3] >> (n & 7)) & 1)

    def count(self) -> int:
        return _tally(_slices(io.BytesIO(self.bits)))[0]

    def mask(self) -> bytearray:
        """Primality flags over [0, limit]: byte n is 1 when n is prime."""
        flags = _flags(self.bits, 0, 0)
        del flags[self.limit + 1:]  # the padding bits' flags, cut in place
        return flags

    def primes(self) -> sets.IntegerSet:
        """The primes as a bits-form IntegerSet on [0, limit], unpacked when read."""
        return sets.IntegerSet(int.from_bytes(self.bits, "little"), 0, self.limit)

    def largest_prime(self) -> int | None:
        """The largest prime <= limit: the top set bit."""
        return _tally(_slices(io.BytesIO(self.bits)))[1]

    def save(self, path) -> None:
        with _psv_writer(path, self.limit) as write:
            write(self.bits)

    @classmethod
    def load(cls, path) -> "PrimeSieve":
        with open(path, "rb") as fh:
            limit = _psv_limit(fh, path)
            bits = fh.read()
        return cls(limit=limit, bits=bits)


def _psv_limit(fh, path) -> int:
    """The limit of the open `.psv` file fh, once its magic, its header, its
    size against the limit and its padding byte, read alone from the end,
    are checked; fh is left at the first bitset byte.  The size comes
    before any read of the bitset, so a corrupt limit allocates nothing."""
    magic = fh.read(4)
    if magic != _SIEVE_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    head = fh.read(8)
    if len(head) < 8:
        raise ValueError(f"{path}: header cut short at {4 + len(head)} of 12 bytes")
    (limit,) = struct.unpack("<Q", head)
    expected, found = (limit + 8) // 8, fh.seek(0, io.SEEK_END) - 12
    if found != expected:
        raise ValueError(f"{path}: expected {expected} bitset bytes, found {found}")
    fh.seek(-1, io.SEEK_END)
    if fh.read(1)[0] >> ((limit & 7) + 1):
        raise ValueError(f"{path}: padding bits past limit {limit} are set")
    fh.seek(12)
    return limit


@contextlib.contextmanager
def _psv_writer(path, limit: int):
    """Write the `.psv` file of limit at path: the block gets the write of
    the bitset's bytes, which go to a sibling temporary file.  That file
    replaces path once the block is done, and is removed if it raises, so
    path never holds a file cut short.  An unwritable path fails here,
    named as a direct write to it would name it.  Once the part file is
    open, those of writers of path that are gone are removed (_sweep_parts)."""
    path = os.fspath(path)
    part = f"{path}.{os.getpid()}.part"
    try:
        if os.path.exists(path):  # a file that may not be overwritten stays
            open(path, "r+b").close()
        fh = open(part, "wb")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    _sweep_parts(path)
    try:
        with fh:
            fh.write(_SIEVE_MAGIC + struct.pack("<Q", limit))
            yield fh.write
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(part)
        raise


def _sweep_parts(path: str) -> None:
    """Remove the files `<path>.<pid>.part` whose pid names no process: a
    writer killed by a signal that Python cannot catch leaves its part file
    behind.  A live writer's part file stays, and so does any file whose
    name or process cannot be read."""
    folder, name = os.path.split(path)
    with contextlib.suppress(OSError):
        for entry in os.scandir(folder or "."):
            pid = entry.name[len(name) + 1: -len(".part")]
            if not (entry.name.startswith(name + ".") and entry.name.endswith(".part")
                    and pid.isascii() and pid.isdigit()):
                continue
            try:
                os.kill(int(pid), 0)  # signal 0 only asks whether pid exists
            except ProcessLookupError:
                with contextlib.suppress(OSError):
                    os.remove(entry.path)
            except (OSError, OverflowError):  # alive under another user, or no pid
                pass


def _slices(fh):
    """The bitset of fh from where it stands, _SLICE bytes at a time, as
    (offset, bits) pieces: bit i of bits stands for offset + i."""
    offset = 0
    while chunk := fh.read(_SLICE):
        yield offset, int.from_bytes(chunk, "little")
        offset += 8 * len(chunk)


def _tally(pieces) -> tuple[int, int | None]:
    """(number of primes, largest prime) over ascending (offset, bits)
    pieces of primality bits, bit i of bits for offset + i."""
    total, largest = 0, None
    for offset, bits in pieces:
        if bits:
            total += bits.bit_count()
            largest = offset + bits.bit_length() - 1
    return total, largest


class PrimeWindow(namedtuple("PrimeWindow", ("start", "size", "bits"))):
    """Primality over [start, start + size - 1] as packed bits in the `.psv`
    layout: bit i of the int `bits` says whether start + i is prime.  A
    tuple, which the constellation scan unpacks, built by collections, which
    argparse loads already; typing.NamedTuple would import typing."""

    __slots__ = ()

    def to_bytes(self) -> bytes:
        return self.bits.to_bytes((self.size + 7) // 8, "little")


def _odd_sieve(hi: int):
    """Sieve the odd base primes up to isqrt(hi) once, and return flags, a
    crossing-off of one segment of odd numbers s, s + 2, ... <= e (s odd)
    with the base primes p, p * p <= e.  flags(s, e) returns a bytearray
    whose byte k is 1 when s + 2k is prime, padded with zeros to whole
    words; it is one buffer, which the next call overwrites, so the prime
    scan packs its windows' shares of a strike segment before it strikes
    the next, and a window that crosses the segment's edge takes its
    repeated integers from the window before, not from these flags.
    A segment starts from the pattern with the multiples of 3, 5, 7, 11 and
    13 crossed off, _WHEEL bytes long: one period at the segment's phase,
    sliced from two periods of it, is doubled in place up to the segment's
    length, so the working memory is the segment and not a segment-long
    copy of the pattern.  Each larger p then crosses off its odd multiples
    from max(p * p, s) in one slice assignment from `zeros`, which is as
    long as the longest such slice: n / 17 + 2 bytes for n odd numbers, 17
    being the least prime the pattern leaves; the flags' buffer and zeros
    are allocated again, once the old ones are freed, only when a segment's
    length differs from the last one's.  A sweep (Python 3.11.7, 2 CPUs),
    one segment crossed off and packed by _pack(flags, 2), in ms, with the
    segment that _segment_bits gives a scan to each height (below 9365**2
    it is shorter):

        height      10**8    10**9    10**10   10**11   10**12   10**13
        base primes 1240     3403     9592     27292    78497    227646
        segment     2**21    2**21    2**21    2**21    2**21    2**21 ints
        2**14 ints  0.6      1.1      2.8      7.0      18       44
        2**21 ints  5.9      7.2      12       22       56       75

    The prime 2 is left to the caller."""
    root = math.isqrt(hi)
    if root > _BASE_PRIME_LIMIT:
        raise sets.ResourceLimitError(f"sieving up to {hi} needs base primes above the "
                                      f"{_BASE_PRIME_LIMIT} limit")
    base = _base_primes(root)
    pattern = bytearray(b"\1") * _WHEEL
    for p in _WHEEL_PRIMES:  # byte k stands for 1 + 2k
        pattern[p // 2:: p] = bytes(len(range(p // 2, _WHEEL, p)))
    periods = memoryview(bytes(pattern) * 2)  # any phase's first period is one slice
    # 17, the least odd number > 1 the pattern keeps, is the least prime it leaves
    least = 2 * pattern.index(1, 1) + 1
    first = bisect_right(base, _WHEEL_PRIMES[-1])  # the primes the pattern leaves
    out = zeros = bytearray()  # a segment's flags and zeros, reused by the next call

    def flags(s: int, e: int) -> bytearray:
        # padded with zeros to whole words, which crossing off past e keeps
        nonlocal out, zeros
        odd = (e - s) // 2 + 1
        if len(out) != -(-odd // 4) * 4:
            out = zeros = None  # the last buffers are freed before the new ones are made
            out = bytearray(-(-odd // 4) * 4)
            zeros = bytearray(len(out) // least + 2)
        at = (s // 2) % _WHEEL
        filled = min(odd, _WHEEL)
        out[:filled] = periods[at: at + filled]
        with memoryview(out) as view:
            # whole periods double in place: the copy of [0, step) to
            # [filled, filled + step) does not overlap, as step <= filled
            while filled < odd:
                step = min(filled, odd - filled)
                view[filled: filled + step] = view[:step]
                filled += step
        out[odd:] = bytes(len(out) - odd)
        if s <= _WHEEL_PRIMES[-1]:
            for p in _WHEEL_PRIMES:
                if s <= p <= e:
                    out[(p - s) // 2] = 1
            if s == 1:
                out[0] = 0
        n = len(out)
        top = bisect_right(base, math.isqrt(e))
        mid = max(bisect_right(base, math.isqrt(s - 1)), first)  # p * p < s below
        wide = min(max(bisect_right(base, n), first), mid)  # below, p may strike twice
        for p in base[first: wide]:
            i = -((s + p) >> 1) % p  # s + 2i is p's first odd multiple at or above s
            out[i:: p] = zeros[: (n - 1 - i) // p + 1]
        for p in base[wide: mid]:
            i = -((s + p) >> 1) % p
            if i < n:
                out[i] = 0
        for p in base[mid: top]:
            i = (p * p - s) >> 1
            out[i:: p] = zeros[: (n - 1 - i) // p + 1]
        return out

    return flags


def _segment_bits(hi: int) -> int:
    """Odd numbers per segment of a scan up to hi: the least power of two
    that is at least 512 r / ln r, r = isqrt(hi) (r / ln r estimates the base
    primes, each of which costs a slice call per segment), and at most
    SEGMENT_BITS: 2**17 at 10**6, 2**18 at 10**7, 2**19 from 4282**2
    (about 1.8 * 10**7) and 2**20 from 9365**2 (about 8.8 * 10**7) up."""
    r = math.isqrt(max(hi, 9))
    return min(SEGMENT_BITS, 1 << (math.ceil(512 * r / math.log(r)) - 1).bit_length())


def _base_primes(root: int) -> array:
    """The odd primes up to root in one array('I'), sieved a segment at a
    time."""
    base = array("I")
    if root >= 3:
        flags, seg = _odd_sieve(root), 2 * _segment_bits(root)
        for a in range(3, root + 1, seg):
            e = min(a + seg - 1, root)
            base.extend(compress(range(a, e + 1, 2), flags(a, e)))
    return base


def prime_windows(lo: int, hi: int, overlap: int = 0):
    """Primality over [lo, hi] in windows: yields PrimeWindows.  Each window
    repeats the last `overlap` integers of the one before, so any
    overlap + 1 consecutive integers lie in one window.  Its new integers
    start at 2**14, as lazy scans often stop in the first window, and double
    up to cap = min(2 * bits, 8 * _SLICE) integers for bits =
    _segment_bits(hi), so that they hold 64 KiB of bits or less, but are at
    least min(overlap, cap // 2); a window spans at most
    max(cap, cap // 2 + overlap) integers.  With overlap 0, every window but
    the last holds a multiple of 8 integers (2**14 * 2**k up to the cap).

    The strike segment is sized apart from the windows.  It is struck from
    the first integer no segment has covered: to the window's end, or on
    as far again as the scan has come from lo once that is further, but
    never over 2 * bits integers (bits odd numbers).  A window packs its
    new integers from the segment by stride-4 slices limited to its share,
    and from the start of the next segment if it crosses an edge.  Its
    repeated integers come from the last window's int, as the next strike
    overwrites the flags."""
    if lo < 0:
        raise ValueError(f"a prime scan needs lo >= 0, got {lo}")
    seg = 2 * _segment_bits(hi)  # integers per strike segment
    cap = min(seg, 8 * _SLICE)
    least, most = min(overlap, cap // 2), max(cap - overlap, cap // 2)
    fresh, reach, b, start, x, bits = 1 << 14, -1, -1, lo, lo, 0
    while x <= hi:  # the new integers: [x, end]
        fresh = min(max(fresh, least), most)
        # the repeated integers, from the last window's int, which is freed
        # here, before the new integers are packed
        bits >>= max(x - overlap, lo) - start
        start, end = max(x - overlap, lo), min(max(x, lo + overlap) + fresh - 1, hi)
        if x <= 2 <= end:
            bits |= 1 << (2 - start)
        x |= 1
        while x <= end:
            if x > b:  # strike the next segment, of odd numbers [x, b]
                flags = None  # a new segment's buffer replaces this one, not joins it
                if end > reach:
                    # base primes up to sqrt(4 * end): sieved again once end
                    # quadruples, and refused only by a window that needs
                    # primes above the limit
                    reach = min(4 * end, hi, max(end, _BASE_PRIME_LIMIT ** 2))
                    cross = _odd_sieve(reach)
                a, b = x, min(max(end, 2 * x - lo - 1), x + seg - 1, reach)
                flags = cross(a, b)
            k, z = (x - a) // 2, (min(end, b) - a) // 2 + 1  # flags [k, z): [x, min(end, b)]
            piece = int.from_bytes(flags[k: z: 4], "little")
            for j in (1, 2, 3):  # flags k + j + 4i on bit 2j + 8i
                piece |= int.from_bytes(flags[k + j: z: 4], "little") << 2 * j
            bits = bits | piece << (x - start) if bits else piece << (x - start)  # 0 | p copies p
            x = a + 2 * z
        yield PrimeWindow(start, end - start + 1, bits)
        x, fresh = end + 1, 2 * fresh


def composite_bits(lo: int, hi: int) -> int:
    """Compositeness over [lo, hi] as one int: bit i says whether lo + i is
    composite, 0 for an empty window.  It is the complement of the prime
    bits, less 0 and 1, which are neither prime nor composite: each window's
    bytes are complemented by a table as they are joined, then 0, 1 and
    the padding bits past hi are cleared in place.  The buffer is a
    BytesIO's, as int.from_bytes would copy a bytearray to bytes first."""
    if hi < lo:
        return 0
    out = io.BytesIO()
    for w in prime_windows(lo, hi):
        out.write(w.to_bytes().translate(_COMPLEMENT))
    with out.getbuffer() as view:
        for i in (*range(2 - lo), *range(hi + 1 - lo, 8 * len(view))):
            view[i >> 3] &= ~(1 << (i & 7))
    return int.from_bytes(out.getvalue(), "little")  # the buffer itself, not a copy of it


def _check_sieve_limit(limit: int) -> None:
    """Refuse a sieve below 1, or one whose bits exceed the byte budget."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if (limit + 8) // 8 > _DEFAULT_SIEVE_BUDGET:
        raise sets.ResourceLimitError(f"sieve to {limit} exceeds the "
                                      f"{_DEFAULT_SIEVE_BUDGET}-byte budget")


def sieve(limit: int) -> PrimeSieve:
    """The prime scan's windows over [0, limit], joined once into one
    bitset: each one's bytes follow on, as every window but the last holds
    a multiple of 8 integers.  O(limit/8) bytes of result bits plus one
    strike segment and one window of working space.  For the count, the
    largest prime or a cache file alone, tally_primes needs no bitset."""
    _check_sieve_limit(limit)
    out = io.BytesIO()
    for w in prime_windows(0, limit):
        out.write(w.to_bytes())
    return PrimeSieve(limit, out.getvalue())  # the buffer itself, not a copy of it


def tally_primes(limit: int, cache=None) -> tuple[int, int | None, bool]:
    """(number of primes, largest prime, whether the cache gave them) over
    [0, limit], in one strike segment and one window of memory.  A `.psv`
    file at cache whose header holds this limit is tallied _SLICE bytes at
    a time; a file with another limit is judged from its header alone.
    Otherwise the prime scan is tallied window by window, and with a cache
    each window's bytes are written to it as they come (see _psv_writer).
    The limit is checked before any file is opened."""
    _check_sieve_limit(limit)
    if cache and os.path.exists(cache):
        with open(cache, "rb") as fh:
            if _psv_limit(fh, cache) == limit:
                return (*_tally(_slices(fh)), True)
    with _psv_writer(cache, limit) if cache else contextlib.nullcontext() as write:
        return (*_tally(_scanned(limit, write)), False)


def _scanned(limit: int, write):
    """The prime scan over [0, limit] as (start, bits) pieces; each window's
    bytes go to write first, if there is one."""
    for w in prime_windows(0, limit):
        if write:
            write(w.to_bytes())
        yield w.start, w.bits



class SmoothnessPolicy(_Record):
    """Threshold rule y(n) deciding which integers count as smooth (friable).

    kind "composites" models any threshold with n/2 < y(n) < n: a composite n
    has p+(n) <= n/2 < y(n) while a prime n has p+(n) = n > y(n), so the
    smooth integers are exactly the composites (1 is excluded since
    p+(1) = 1 > y(1)).  kind "fixed" keeps p+(n) <= bound.  kind "log" keeps
    p+(n) <= max(factor * ln n, 2); the floor of 2 keeps the set nonempty at
    small n, a deliberate deviation below e**(2/factor).
    """

    __slots__ = ("kind", "bound", "factor")
    _defaults = {"bound": None, "factor": None}

    def __post_init__(self):
        if self.kind not in ("composites", "fixed", "log"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "fixed" and (self.bound is None or self.bound < 1):
            raise ValueError("fixed policy needs bound >= 1")
        if self.kind == "log" and not 0 < (self.factor or 0) < math.inf:  # nan fails too
            raise ValueError("log policy needs a finite factor > 0")

    @classmethod
    def composites(cls) -> "SmoothnessPolicy":
        return cls("composites")

    @classmethod
    def fixed_bound(cls, bound: int) -> "SmoothnessPolicy":
        return cls("fixed", bound=bound)

    @classmethod
    def log_factor(cls, factor: float) -> "SmoothnessPolicy":
        return cls("log", factor=factor)

    def describe(self) -> str:
        if self.kind == "composites":
            return "composites (n/2 < y(n) < n)"
        if self.kind == "fixed":
            return f"fixed bound y0 = {self.bound}"
        return f"log factor: p+(n) <= max({self.factor} ln n, 2)"

    def is_smooth(self, n: int) -> bool:
        if n < 1:
            raise ValueError("smoothness is defined for n >= 1")
        if self.kind == "composites":
            return is_composite(n)
        g = greatest_prime_factor(n)
        if self.kind == "fixed":
            return g <= self.bound
        return g <= self.log_threshold(float(n))

    def log_threshold(self, n: float) -> float:
        """max(factor * ln n, 2) for n >= 1: the one definition of y(n) that
        is_smooth and _smooth_flags share.  ln 1 = 0 falls to the floor of 2,
        and a product past the floats is inf."""
        return max(self.factor * math.log(n), 2.0)


def _smooth_flags(policy: SmoothnessPolicy, top: int) -> bytearray:
    """Byte n of the result, for n in [0, top], is 1 when n >= 1 is smooth
    under the fixed or log policy and 0 otherwise.

    y(n) is nondecreasing on the integers (below 2**28 consecutive logs
    differ by about 1 / n, far more than an ulp), so a prime p <= y(top)
    divides a smooth j * p exactly when j >= cut(p), the least j with
    p <= y(j * p): 1 up to `free` (the fixed bound, or the primes with
    y(p) >= p, a prefix as n / ln n increases for n >= 3), else bisected.
    The closure builds the flags from g[1] = 1 through the primes up to
    y(top) in increasing order: g[j * p] = g[j] for j <= top // p, in
    ascending slices that end by s * p, so each source is final when read.
    Every n > 1 is written once, from j = n / p+(n), as 1 when j >= cut(p),
    else as 2 (a source only); Sum top / p bytes in all.  For large y the
    complement, cheaper there, starts from every n smooth and clears
    j * p for j < cut(p) at the primes in (free, y(top)], and all multiples
    of the primes in (y(top), top] through the prime scan's windows."""
    fixed = policy.kind == "fixed"
    y = int(min(policy.bound if fixed else policy.log_threshold(float(top)), top))
    free = y if fixed or y < 3 else 2 + bisect_left(
        range(3, y + 1), True, key=lambda n: policy.log_threshold(float(n)) < n)

    def cut(p: int) -> int:
        return 1 if p <= free else 1 + bisect_left(
            range(1, top // p + 1), p, key=lambda j: policy.log_threshold(float(j * p)))

    if _complement_is_cheaper(top, y, free):
        flags = bytearray(b"\1") * (top + 1)
        flags[0] = 0
        for w in prime_windows(free + 1, y):
            for p in _unpack(w.bits, w.start):
                c = cut(p)
                flags[p: (c - 1) * p + 1: p] = bytes(c - 1)
        for w in prime_windows(y + 1, top):
            keep = int.from_bytes(_flags(w.bits, w.start, w.size).translate(_NOT), "little")
            for j in range(1, top // w.start + 1):
                end = min(w.start + w.size - 1, top // j)
                part = slice(j * w.start, j * end + 1, j)
                flags[part] = (int.from_bytes(flags[part], "little") & keep).to_bytes(
                    end - w.start + 1, "little")
        return flags
    flags = bytearray(top + 1)
    flags[1] = 1
    for p in [2, *_base_primes(y)] if y >= 2 else ():
        c, s, jmax = cut(p), 1, top // p
        while s <= jmax:
            e = min(s * p, s + _SLICE, jmax + 1, c if s < c else jmax + 1)
            flags[s * p: (e - 1) * p + 1: p] = flags[s: e].translate(_LATE if s < c else _KEEP)
            s = e
    if free < y:
        for a in range(0, top + 1, _SLICE):
            flags[a: a + _SLICE] = flags[a: a + _SLICE].translate(_ONLY_ONE)
    return flags


def _complement_is_cheaper(top: int, y: int, free: int) -> bool:
    """Whether the complement costs less than the closure.  The closure
    copies top * Sum_{p <= y} 1 / p bytes (Mertens) in pi(y) slices or more;
    the complement sieves (y, top] and clears about top * ln(top / y) bytes
    there, plus a slice per prime in (free, y]."""
    if y < 3:
        return False
    closure = top * (math.log(math.log(y)) + _MERTENS) + _SLICE_BYTES * y / math.log(y)
    complement = (_CLEAR_BYTES * top * math.log(top / y) + top - y
                  + _SLICE_BYTES * (y / math.log(y) - free / math.log(free)))
    return complement < closure


def _smooth_over(policy: SmoothnessPolicy, top: int, shift: int) -> sets.IntegerSet:
    """{m + shift : m in [0, top] smooth}, on the window [1, top + shift].
    Composites are the complement of the prime bits; the other policies
    come from _smooth_flags, as bits where they are denser than 1/64 and
    the bits form is the smaller, else as an array."""
    sets.check_mask_budget(top)
    if policy.kind == "composites":
        return sets.IntegerSet(composite_bits(1 - shift, top), 1, top + shift)
    flags = _smooth_flags(policy, top)
    if 64 * flags.count(1) > top:
        return sets.IntegerSet(_pack(flags) << shift >> 1, 1, top + shift)
    return sets.IntegerSet(_gather(array("Q"), flags, shift, True), 1, top + shift)


def smooth_set(policy: SmoothnessPolicy, limit: int) -> sets.IntegerSet:
    """The smooth integers in [1, limit] under the policy, window [1, limit]."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    return _smooth_over(policy, limit, 0)


def shifted_smooth_set(policy: SmoothnessPolicy, limit: int) -> sets.IntegerSet:
    """{m + 1 : m smooth, m + 1 <= limit}, window [1, limit]."""
    if limit < 2:
        raise ValueError("limit must be >= 2")
    return _smooth_over(policy, limit - 1, 1)
