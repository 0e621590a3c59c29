"""Finite integer-set algebra: windowed sets, sumsets, product sets, the
composite cover check, and the entry point of the exhaustive windowed
decomposition search, whose walk and paths are in search."""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import islice, starmap
from operator import lt

from . import _Record, _flags, _pack, _unpack

VALUE_CAP = 1 << 63
MASK_BUDGET = 1 << 28  # largest window a dense boolean mask may span
_WRITE_SLICE = 1 << 12  # elements, or integers of a bits-form window, save_text formats at a time
_READ_SLICE = 1 << 13  # characters load_text parses at a time


class WindowError(ValueError):
    """An operation needed data outside a set's asserted-complete window."""


class ResourceLimitError(MemoryError):
    """A request would exceed a fixed memory budget; raised before allocating."""


def check_mask_budget(window_hi: int) -> None:
    """Refuse a dense mask over [0, window_hi] larger than MASK_BUDGET."""
    if window_hi + 1 > MASK_BUDGET:
        raise ResourceLimitError(
            f"window top {window_hi} too large for a dense mask (budget {MASK_BUDGET})"
        )


def _check_range(elements, window_lo: int, window_hi: int) -> None:
    """The window is valid, and the ends of the ascending elements lie inside
    it and not above VALUE_CAP, so that every element fits a uint64."""
    if window_lo < 0 or window_lo > window_hi:
        raise ValueError(f"invalid window [{window_lo}, {window_hi}]")
    if elements:
        if elements[0] < window_lo or elements[-1] > window_hi:
            raise ValueError("elements must lie inside the window")
        if elements[-1] > VALUE_CAP:
            raise ValueError("elements must not exceed 2**63")


class IntegerSet(_Record):
    """Sorted, deduplicated non-negative integers, asserted complete on
    [window_lo, window_hi].

    The window records the truncation: membership is only meaningful inside
    it, and elements outside it are a construction error.

    The elements have one of two forms, the array-or-bitmap choice of
    Roaring bitmaps (Chambi, Lemire, Kaser and Godin, SPE 2016).  The array
    form is one array('Q'), 8 bytes per element.  The bits form is the
    codec's bits from window_lo (see decomplab), 1 bit per integer of the
    window, taken by composite sets, the dense searches' complements and
    smooth sets above density 1/64.  Both forms answer len, in, slice, head,
    tail, iteration, as_mask and save_text alike, and two sets are equal
    when their windows and elements are, whatever their forms.  `elements`
    is the array; a bits-form set unpacks it anew on each read, so take
    count, head and tail from len, head and tail.

    The constructor takes an int as the bits form: IntegerSet(bits, lo, hi)
    is {lo + i : bit i of bits is set}.  Any other sequence is checked in
    full (strictly increasing, inside the window, at most 2**63) and then
    converted.  An array('Q') is taken as sorted and distinct, as
    from_values, sumset, productset and the smooth sets build it, and only
    its ends are checked.  An IntegerSet is an immutable record, not hashable.
    """

    __slots__ = ("_data", "window_lo", "window_hi")  # __eq__ without __hash__: unhashable

    def __post_init__(self):  # perfbench's tracer wraps this name
        data, lo, hi = self._data, self.window_lo, self.window_hi
        if type(data) is int:
            if data < 0:
                raise ValueError("bits must be >= 0")
            _check_range((lo, lo + data.bit_length() - 1) if data else (), lo, hi)
            return
        _check_range(data, lo, hi)
        if isinstance(data, array) and data.typecode == "Q":
            return
        prev = -1
        for v in data:
            if v <= prev:
                raise ValueError("elements must be strictly increasing")
            prev = v
        object.__setattr__(self, "_data", array("Q", data))

    @classmethod
    def from_values(cls, values, window_lo=None, window_hi=None) -> "IntegerSet":
        elems = sorted({int(v) for v in values})
        if not elems and (window_lo is None or window_hi is None):
            raise ValueError("an empty set needs an explicit window")
        lo = elems[0] if window_lo is None else window_lo
        hi = elems[-1] if window_hi is None else window_hi
        _check_range(elems, lo, hi)
        return cls(array("Q", elems), lo, hi)

    @property
    def elements(self) -> array:
        """The elements as one ascending array('Q')."""
        data = self._data
        return _unpack(data, self.window_lo) if type(data) is int else data

    def __len__(self):
        data = self._data
        return data.bit_count() if type(data) is int else len(data)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, value):
        data = self._data
        if type(data) is int:
            return self.window_lo <= value <= self.window_hi and bool(
                data >> (value - self.window_lo) & 1)
        i = bisect_left(data, value)
        return i < len(data) and data[i] == value

    def __eq__(self, other):
        if not isinstance(other, IntegerSet):
            return NotImplemented
        if (self.window_lo, self.window_hi) != (other.window_lo, other.window_hi):
            return False
        if type(self._data) is int and type(other._data) is int:
            return self._data == other._data
        return self.elements == other.elements

    def __repr__(self):
        return f"IntegerSet({self.elements!r}, {self.window_lo}, {self.window_hi})"

    def _range(self, lo: int, hi: int) -> array:
        """The elements in [lo, hi], ascending: bisected out of the array form,
        or shifted and masked out of the bits form up to its top set bit."""
        data, start = self._data, self.window_lo
        if type(data) is not int:
            return data[bisect_left(data, lo): bisect_right(data, hi)]
        lo, hi = max(lo, start), min(hi, start + data.bit_length() - 1)
        part = data >> (lo - start) if lo > start else data  # x >> 0 would copy x
        return _unpack(part & ((1 << max(hi - lo + 1, 0)) - 1), lo)

    def slice(self, lo: int, hi: int) -> tuple[int, ...]:
        """Elements in [lo, hi]."""
        return tuple(self._range(lo, hi))

    def head(self, k: int) -> tuple[int, ...]:
        """The k least elements (all of them if there are fewer)."""
        return self._end(k, False)

    def tail(self, k: int) -> tuple[int, ...]:
        """The k greatest elements (all of them if there are fewer)."""
        return self._end(k, True)

    def _end(self, k: int, top: bool) -> tuple[int, ...]:
        """head(k), or tail(k) if top: one range from that end of the window,
        64 * k integers wide, widened fourfold until it holds k elements."""
        lo, hi, width = self.window_lo, self.window_hi, 64 * k
        while k > 0:
            part = self._range(hi - width + 1, hi) if top else self._range(lo, lo + width - 1)
            if len(part) >= k or width > hi - lo:
                return tuple(part[-k:] if top else part[:k])
            width *= 4
        return ()

    def as_bits(self) -> int:
        """Membership over [window_lo, window_hi] as one int: bit i stands
        for window_lo + i.  The array form is packed through one byte per
        window integer, so a window wider than MASK_BUDGET is refused."""
        data, lo = self._data, self.window_lo
        if type(data) is int:
            return data
        check_mask_budget(self.window_hi - lo)
        return _pack(_flags(data, lo, self.window_hi - lo + 1))

    def as_mask(self) -> bytearray:
        """Membership flags over exactly [0, window_hi], byte i 1 when i is an
        element: a byte per integer, so a mask past MASK_BUDGET is refused."""
        check_mask_budget(self.window_hi)
        data, size = self._data, self.window_hi + 1
        flags = _flags(data << self.window_lo if type(data) is int else data, 0, size)
        del flags[size:]  # the bits' padding, cut in place
        return flags

    def save_text(self, path) -> None:
        """Text format: header "# window lo hi", then one integer per line.  The
        bits form is unpacked a slice at a time: its array is never built."""
        data, lo = self._data, self.window_lo
        if type(data) is int:
            raw, step = data.to_bytes((data.bit_length() + 7) // 8, "little"), _WRITE_SLICE // 8
            parts = (_unpack(int.from_bytes(raw[a: a + step], "little"), lo + 8 * a)
                     for a in range(0, len(raw), step))
        else:
            parts = (data[a: a + _WRITE_SLICE] for a in range(0, len(data), _WRITE_SLICE))
        with open(path, "w") as fh:
            fh.write(f"# window {lo} {self.window_hi}\n")
            for part in parts:
                fh.write("%d\n" * len(part) % tuple(part))

    @classmethod
    def load_text(cls, path) -> "IntegerSet":
        """Reads the text format in one pass, a slice of _READ_SLICE characters
        at a time, into the form the smooth sets take.  While the values number
        at most 1/64 of the window they go into one array('Q'), sorted and
        deduplicated by from_values if they do not strictly increase.  Once
        they pass 1/64, on a window no wider than MASK_BUDGET, the values so
        far and every slice after them are set in bits: neither the whole
        array nor flags over the whole window are ever held, and bits, like
        from_values, ignore order and repeats."""
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 4 or header[0] != "#" or header[1] != "window":
                raise ValueError(f"{path}: missing '# window lo hi' header")
            lo, hi = int(header[2]), int(header[3])
            _check_range((), lo, hi)
            width = hi - lo + 1
            values, ends, slices = array("Q"), [], _text_slices(fh, lo, hi)
            for part, a, z in slices:
                values.extend(part)
                ends.append((len(values), a, z))
                if 64 * len(values) > width and width <= MASK_BUDGET:
                    break
            else:
                if all(map(lt, values, islice(values, 1, None))):
                    return cls(values, lo, hi)
                return cls.from_values(values, lo, hi)
            bits, start = bytearray((width + 7) // 8), 0
            for stop, a, z in ends:  # the values so far, slice by slice
                _set_bits(bits, values[start: stop].tolist(), lo, a, z)
                start = stop
            for part, a, z in slices:
                _set_bits(bits, part, lo, a, z)
            return cls(int.from_bytes(bits, "little"), lo, hi)


def _text_slices(fh, lo: int, hi: int):
    """The integers on the lines left in fh, one list per _READ_SLICE characters
    read, with its ends, checked as the constructor checks them (so a bad value
    fails with its ValueError); blank lines are skipped, and slices of nothing else."""
    rest = ""
    while True:
        text = fh.read(_READ_SLICE)
        lines = (rest + text).split("\n")
        rest = lines.pop() if text else ""
        try:
            part = list(map(int, lines))
        except ValueError:  # a blank line; a line that is no integer raises again
            part = list(map(int, filter(str.strip, lines)))
        if part:
            a, z = min(part), max(part)
            _check_range((a, z), lo, hi)
            yield part, a, z
        if not text:
            return


def _set_bits(bits: bytearray, part: list, lo: int, a: int, z: int) -> None:
    """Sets bit v - lo of bits for each v of part, in any order; a and z are
    the least and the greatest v."""
    k = (a - lo) >> 3  # the byte of bits that holds a
    base = lo + 8 * k
    if z - base < 32 * len(part):  # flags over the span: at most 4 times part as an array
        n = ((z - base) >> 3) + 1
        spread = _pack(_flags(part, base, z - base + 1))
        bits[k: k + n] = (int.from_bytes(bits[k: k + n], "little") | spread).to_bytes(n, "little")
    else:  # sparser than 1/32 here, where one value at a time is faster
        for v in part:
            v -= lo
            bits[v >> 3] |= 1 << (v & 7)


def sumset(b: IntegerSet, c: IntegerSet) -> IntegerSet:
    """{x + y : x in b, y in c}, window [lo_b+lo_c, hi_b+hi_c]."""
    xs, ys = b.elements, c.elements
    if xs and ys and xs[-1] + ys[-1] > VALUE_CAP:
        raise OverflowError("sum exceeds 2**63")
    elems = array("Q", sorted({x + y for x in xs for y in ys}))
    return IntegerSet(elems, b.window_lo + c.window_lo, b.window_hi + c.window_hi)


def productset(b: IntegerSet, c: IntegerSet) -> IntegerSet:
    """{x * y : x in b, y in c}; every element of both parts must be >= 1."""
    xs, ys = b.elements, c.elements
    if (xs and xs[0] < 1) or (ys and ys[0] < 1):
        raise ValueError("product sets need all elements >= 1")
    if xs and ys and xs[-1] * ys[-1] > VALUE_CAP:
        raise OverflowError("product exceeds 2**63")
    elems = array("Q", sorted({x * y for x in xs for y in ys}))
    return IntegerSet(elems, b.window_lo * c.window_lo, b.window_hi * c.window_hi)


def windowed_equal(a: IntegerSet, b: IntegerSet, lo: int, hi: int) -> tuple[bool, int | None]:
    """Do a and b agree on [lo, hi]?  Returns (equal, smallest disagreement).

    [lo, hi] must sit inside both windows, otherwise the comparison would
    silently treat unknown tails as empty.
    """
    if lo > hi:
        raise ValueError(f"empty comparison window [{lo}, {hi}]")
    for name, s in (("first", a), ("second", b)):
        if lo < s.window_lo or hi > s.window_hi:
            raise WindowError(
                f"[{lo}, {hi}] is not inside the {name} set's window "
                f"[{s.window_lo}, {s.window_hi}]"
            )
    xa, xb = a.slice(lo, hi), b.slice(lo, hi)
    if xa == xb:
        return True, None
    for u, v in zip(xa, xb):
        if u != v:
            return False, min(u, v)
    longer = xa if len(xa) > len(xb) else xb
    return False, longer[min(len(xa), len(xb))]


class DecompositionCandidate(_Record):
    """An accepted part pair: the small part b and the canonical maximal c.

    coverage_window is the interval on which the combined set was checked to
    equal the target; it may be empty (lo > hi) for degenerate geometry.
    """

    __slots__ = ("kind", "b", "c", "coverage_window")

    def verify(self, target: IntegerSet) -> bool:
        """Recombine the parts and recheck equality with the target."""
        if len(self.b) < 2 or len(self.c) < 2:
            return False
        lo, hi = self.coverage_window
        if lo > hi:
            return True
        combine = sumset if self.kind == "additive" else productset
        combined = combine(IntegerSet(self.b, self.b[0], self.b[-1]), self.c)
        # B (+|*) C as it stands: a product's window may end short of hi
        equal, _ = windowed_equal(target, IntegerSet(combined.slice(lo, hi), lo, hi), lo, hi)
        return equal


def decompose_search(
    target: IntegerSet,
    kind: str,
    max_b_size: int,
    max_b_elem: int,
    full_window: bool = False,
) -> list[DecompositionCandidate]:
    """Enumerate small parts b and accept those whose canonical maximal c
    reproduces the target on the coverage window.

    Additive candidates are subsets of [0, max_b_elem] containing 0;
    multiplicative candidates are subsets of the divisors (<= max_b_elem) of
    target elements.  For each b the canonical maximal c collects every shift
    (or ratio) whose combinations all land in the target or below the window;
    b is accepted when c has at least two elements and b (+|*) c covers every
    target element on the coverage window.  By default that window is shrunk
    by max(b) at both ends (additive) or scaled by max(b) (multiplicative) to
    suppress truncation edge artifacts; full_window=True checks the whole
    window instead.

    Two paths give the same candidates.  The dense path works over the
    whole window [0, hi], so each part costs passes over all of it: both
    kinds on ints of bits, multiplicative ones gathering their multiples
    from one byte per integer of the window (as_mask).  The sparse path
    works on the target's elements.  It is taken when
    64 * (|target| + lo) <= hi: the target and the free range below the
    window fill at most 1/64 of it.  The factor comes from timing both
    paths in process on one machine, when every part rebuilt its c from
    scratch.  Re-timed with the walk of search._search and its witnesses, on 2
    CPUs (window / (|target| + lo) in brackets; dense, then sparse):
      - sum families, as mprim-scan searches them with parts
        (max_b_size, max_b_elem) = (3, 100): h_family {2,3,5}, k <= 3 at
        1e5 [21] 0.20 s, 0.43 s; at 1e6 [118] 0.74 s, 0.94 s; {3,5},
        k <= 3 at 1e6 [2632] 0.023 s, 0.010 s;
      - random additive targets at 1e6 (a uniform sample, lo = 0), parts
        (3, 16): [64] 0.017 s, 0.018 s; [256] 0.013 s, 0.004 s; (4, 8) at
        [1024] 0.003 s, under 0.001 s;
      - smooth sets, whose elements share many small divisors: the log
        policy with factor 2.5, parts (3, 20), at 4e5 [44] 0.042 s,
        0.49 s; at 1e6 [66] 0.10 s, 0.84 s; at 1e7 [195] 1.0 s, 3.7 s.
    The witnesses moved the sum families' crossover back up: the dense
    path now wins on them at [21] and [118], and the sparse path at
    [2632].  Random targets cross near [64], and smooth sets favour the
    dense path up to [195].  The factor is kept as it was tuned, so a sum
    family at [118] takes the slower path.
    Either way a window above MASK_BUDGET is refused.

    Only parts with |b| <= max_b_size are visible: a decomposition whose both
    halves are large/infinite is invisible to this finite search.
    """
    if not len(target):
        raise ValueError("target must be nonempty")
    if max_b_size < 2 or max_b_elem < 1:
        raise ValueError("need max_b_size >= 2 and max_b_elem >= 1")
    if kind not in ("additive", "multiplicative"):
        raise ValueError(f"unknown kind {kind!r}")
    lo, hi = target.window_lo, target.window_hi
    if kind == "multiplicative" and (target.head(1)[0] < 1 or lo < 1):
        raise ValueError("multiplicative search needs a positive target and window")
    check_mask_budget(hi)
    from .search import _dense_path, _search, _sparse_path
    path = _sparse_path if 64 * (len(target) + lo) <= hi else _dense_path
    return _search(target, kind, max_b_size, max_b_elem, full_window, path)


COVER_OFFSETS = (0, 1, 3, 5)


class CompositeCoverReport(_Record):
    __slots__ = ("limit", "passed", "first_mismatch", "base_count", "covered_count",
                 "composite_count")

    def to_json_dict(self):
        return {**self._asdict(), "offsets": list(COVER_OFFSETS)}


def verify_composite_decomposition(limit: int) -> CompositeCoverReport:
    """Check that the composites in [9, limit] are exactly A + {0,1,3,5} with
    A = {n >= 1 : none of n, n+1, n+3, n+5 is prime}.

    Every sum lands on a non-prime, and conversely an odd composite n sits in
    A itself while an even composite n >= 10 has a non-prime among n-1, n-3,
    n-5 (one of them is divisible by 3 and exceeds 3), so equality is exact on
    [9, limit] with no edge slack.
    """
    if limit < 20:
        raise ValueError("limit must be at least 20")
    from .arith import prime_windows

    halo = COVER_OFFSETS[-1]
    base = covered = composite = 0
    first = None
    for counts, mismatch in starmap(_cover_window, prime_windows(0, limit + halo, 2 * halo)):
        base, covered, composite = base + counts[0], covered + counts[1], composite + counts[2]
        first = mismatch if first is None else first
    return CompositeCoverReport(limit, first is None, first, base, covered, composite)


def _cover_window(s: int, size: int, prime: int):
    """One window [s, e] of the cover walk, on its prime bits: A on
    [s, e - 5] covers [s + 5, e - 5].  Returns the counts there of A (from 1
    in the first window), the cover and the composites (from 9), and the
    first mismatch.  Each window-sized int is dropped once used: with fewer
    of them alive at once, glibc's malloc does not hand the heap's top back
    to the system after every window, only to fault it in again."""
    halo = COVER_OFFSETS[-1]
    size -= halo  # A's bits: [s, e - 5]
    ones = (1 << size) - 1
    hit = prime
    for off in COVER_OFFSETS[1:]:
        hit |= prime >> off
    base = (hit & ones) ^ ones  # none of n + offsets prime
    del hit
    covered = 0
    for off in COVER_OFFSETS:
        covered |= base << off
    c0 = max(9 - s, halo)  # the cover is claimed on [9, limit]
    claimed = ones >> c0 << c0
    del ones
    covered &= claimed
    composite = (prime & claimed) ^ claimed
    del claimed
    counts = ((base >> (halo if s else 1)).bit_count(), covered.bit_count(),
              composite.bit_count())
    mismatches = covered ^ composite
    return counts, (s + (mismatches & -mismatches).bit_length() - 1 if mismatches else None)
