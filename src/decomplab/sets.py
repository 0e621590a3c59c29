"""Finite integer-set algebra: windowed sets, sumsets, product sets, and the
exhaustive windowed decomposition searcher."""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass
from functools import partial
from itertools import combinations, starmap

VALUE_CAP = 1 << 63
MASK_BUDGET = 1 << 28  # largest window a dense boolean mask may span
_FILL_SLICE = 1 << 20  # mask entries from_mask turns into elements at a time


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


@dataclass(frozen=True)
class IntegerSet:
    """Sorted, deduplicated non-negative integers, asserted complete on
    [window_lo, window_hi].

    The window records the truncation: membership is only meaningful inside
    it, and elements outside it are a construction error.

    The elements are stored in one array('Q') and boxed into Python ints only
    when read; slice() returns a tuple.  Any other sequence given to the
    constructor is checked in full (strictly increasing, inside the window,
    at most 2**63) and then converted.  An array('Q') is taken as sorted and
    distinct, as from_mask, from_values, sumset and productset build it, and
    only its ends are checked.  An IntegerSet is not hashable.
    """

    elements: array
    window_lo: int
    window_hi: int

    def __post_init__(self):
        elems = self.elements
        _check_range(elems, self.window_lo, self.window_hi)
        if isinstance(elems, array) and elems.typecode == "Q":
            return
        prev = -1
        for v in elems:
            if v <= prev:
                raise ValueError("elements must be strictly increasing")
            prev = v
        object.__setattr__(self, "elements", array("Q", elems))

    @classmethod
    def from_values(cls, values, window_lo=None, window_hi=None) -> "IntegerSet":
        elems = sorted({int(v) for v in values})
        if not elems and (window_lo is None or window_hi is None):
            raise ValueError("an empty set needs an explicit window")
        lo = elems[0] if window_lo is None else window_lo
        hi = elems[-1] if window_hi is None else window_hi
        _check_range(elems, lo, hi)
        return cls(array("Q", elems), lo, hi)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, value):
        i = bisect_left(self.elements, value)
        return i < len(self.elements) and self.elements[i] == value

    def slice(self, lo: int, hi: int) -> tuple[int, ...]:
        """Elements in [lo, hi]."""
        elems = self.elements
        return tuple(elems[bisect_left(elems, lo): bisect_right(elems, hi)])

    def as_mask(self) -> np.ndarray:
        """Dense membership mask over [0, window_hi]."""
        import numpy as np
        check_mask_budget(self.window_hi)
        mask = np.zeros(self.window_hi + 1, dtype=bool)
        if self.elements:
            mask[np.frombuffer(self.elements, dtype=np.uint64)] = True
        return mask

    @classmethod
    def from_mask(cls, mask: np.ndarray, window_lo: int, window_hi: int,
                  start: int = 0) -> "IntegerSet":
        """{start + i : mask[i]} on [window_lo, window_hi]; the inverse of as_mask.

        The 1-D mask is read _FILL_SLICE entries at a time, so no index array
        longer than one slice is held beside the elements."""
        import numpy as np
        if start < 0:
            raise ValueError("mask offset start must be >= 0")
        out = array("Q")
        for a in range(0, len(mask), _FILL_SLICE):
            idx = np.flatnonzero(mask[a: a + _FILL_SLICE]).view(np.uint64)
            if len(idx):
                _check_range((start + a + int(idx[0]), start + a + int(idx[-1])),
                             window_lo, window_hi)
                idx += start + a
                out.frombytes(memoryview(idx).cast("B"))
        return cls(out, window_lo, window_hi)

    def save_text(self, path) -> None:
        """Text format: header "# window lo hi", then one integer per line."""
        with open(path, "w") as fh:
            fh.write(f"# window {self.window_lo} {self.window_hi}\n")
            for v in self.elements:
                fh.write(f"{v}\n")

    @classmethod
    def load_text(cls, path) -> "IntegerSet":
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 4 or header[0] != "#" or header[1] != "window":
                raise ValueError(f"{path}: missing '# window lo hi' header")
            lo, hi = int(header[2]), int(header[3])
            values = [int(line) for line in fh if line.strip()]
        return cls.from_values(values, lo, hi)


def sumset(b: IntegerSet, c: IntegerSet) -> IntegerSet:
    """{x + y : x in b, y in c}, window [lo_b+lo_c, hi_b+hi_c]."""
    if b.elements and c.elements and b.elements[-1] + c.elements[-1] > VALUE_CAP:
        raise OverflowError("sum exceeds 2**63")
    elems = array("Q", sorted({x + y for x in b.elements for y in c.elements}))
    return IntegerSet(elems, b.window_lo + c.window_lo, b.window_hi + c.window_hi)


def productset(b: IntegerSet, c: IntegerSet) -> IntegerSet:
    """{x * y : x in b, y in c}; every element of both parts must be >= 1."""
    for part in (b, c):
        if part.elements and part.elements[0] < 1:
            raise ValueError("product sets need all elements >= 1")
    if b.elements and c.elements and b.elements[-1] * c.elements[-1] > VALUE_CAP:
        raise OverflowError("product exceeds 2**63")
    elems = array("Q", sorted({x * y for x in b.elements for y in c.elements}))
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


@dataclass(frozen=True)
class DecompositionCandidate:
    """An accepted part pair: the small part b and the canonical maximal c.

    coverage_window is the interval on which the combined set was checked to
    equal the target; it may be empty (lo > hi) for degenerate geometry.
    """

    kind: str
    b: tuple[int, ...]
    c: IntegerSet
    coverage_window: tuple[int, int]

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

    Only parts with |b| <= max_b_size are visible: a decomposition whose both
    halves are large/infinite is invisible to this finite search.
    """
    import numpy as np
    if not target.elements:
        raise ValueError("target must be nonempty")
    if max_b_size < 2 or max_b_elem < 1:
        raise ValueError("need max_b_size >= 2 and max_b_elem >= 1")
    if kind not in ("additive", "multiplicative"):
        raise ValueError(f"unknown kind {kind!r}")
    lo, hi = target.window_lo, target.window_hi
    mask = target.as_mask()
    allowed = mask.copy()
    allowed[:lo] = True  # combinations below the window are unconstrained

    # The kind decides the parts b tried, the least c, shrunk(max b) =
    # (lo (+|*) max b, hi (-|//) max b), whose top bounds c, and
    # view(arr, beta, climit), whose element c is arr[beta (+|*) c].
    if kind == "additive":
        head, pool, c_min = (0,), range(1, max_b_elem + 1), 0

        def shrunk(maxb):
            return lo + maxb, hi - maxb

        def view(arr, beta, climit):
            return arr[beta: beta + climit + 1]
    else:
        if target.elements[0] < 1 or lo < 1:
            raise ValueError("multiplicative search needs a positive target and window")
        head, pool, c_min = (), [d for d in range(1, max_b_elem + 1) if mask[d::d].any()], 1

        def shrunk(maxb):
            return lo * maxb, hi // maxb

        def view(arr, beta, climit):
            return arr[::beta][: climit + 1]

    accepted: list[DecompositionCandidate] = []
    for size in range(2, max_b_size + 1):
        for rest in combinations(pool, size - len(head)):
            b = head + rest
            edge, climit = shrunk(b[-1])
            if climit < c_min:
                continue
            ok = view(allowed, b[0], climit).copy()
            for beta in b[1:]:
                ok &= view(allowed, beta, climit)
            ok[:c_min] = False
            if np.count_nonzero(ok) < 2:
                continue
            cover_lo, cover_hi = (lo, hi) if full_window else (edge, climit)
            if cover_lo <= cover_hi:
                covered = np.zeros(hi + 1, dtype=bool)
                for beta in b:
                    hit = view(covered, beta, climit)
                    hit |= ok
                seg = slice(cover_lo, cover_hi + 1)
                if np.any(mask[seg] & ~covered[seg]):
                    continue
            accepted.append(DecompositionCandidate(
                kind, b, IntegerSet.from_mask(ok, c_min, climit), (cover_lo, cover_hi)
            ))
    accepted.sort(key=lambda cand: cand.b)
    return accepted


COVER_OFFSETS = (0, 1, 3, 5)


@dataclass(frozen=True)
class CompositeCoverReport:
    limit: int
    passed: bool
    first_mismatch: int | None
    base_count: int
    covered_count: int
    composite_count: int

    def to_json_dict(self):
        return {**asdict(self), "offsets": list(COVER_OFFSETS)}


def verify_composite_decomposition(limit: int) -> CompositeCoverReport:
    """Check that the composites in [9, limit] are exactly A + {0,1,3,5} with
    A = {n >= 1 : none of n, n+1, n+3, n+5 is prime}.

    Every sum lands on a non-prime, and conversely an odd composite n sits in
    A itself while an even composite n >= 10 has a non-prime among n-1, n-3,
    n-5 (one of them is divisible by 3 and exceeds 3), so equality is exact on
    [9, limit] with no edge slack.
    """
    import numpy as np
    if limit < 20:
        raise ValueError("limit must be at least 20")
    from .arith import SEGMENT_BITS, prime_windows

    halo = COVER_OFFSETS[-1]
    # A and its cover for every window, in two rows as long as the longest A
    span = min(limit + 1, max(2 * SEGMENT_BITS, SEGMENT_BITS + 2 * halo))
    scratch = np.empty((2, span), dtype=bool)
    windows = prime_windows(0, limit + halo, 2 * halo)
    totals, first = np.zeros(3, dtype=np.int64), None
    for counts, mismatch in starmap(partial(_cover_window, scratch), windows):
        totals += counts
        first = mismatch if first is None else first
    return CompositeCoverReport(limit, first is None, first, *totals.tolist())


def _cover_window(scratch: np.ndarray, s: int, prime: np.ndarray):
    """One window [s, e] of the cover walk, inverted in place: A on [s, e - 5]
    covers [s + 5, e - 5].  Returns the counts there of A (from 1 in the first
    window), the cover and the composites (from 9), and the first mismatch."""
    import numpy as np
    halo = COVER_OFFSETS[-1]
    nonprime = np.logical_not(prime, out=prime)
    size = len(nonprime) - halo
    c0 = max(9 - s, halo)  # the cover is claimed on [9, limit]
    base, covered = scratch[0, :size], scratch[1, :max(size - c0, 0)]
    base[:] = nonprime[:size]
    for off in COVER_OFFSETS[1:]:
        base &= nonprime[off: off + size]
    covered[:] = False
    for off in COVER_OFFSETS:
        covered |= base[c0 - off: size - off]
    composite = nonprime[c0:size]
    counts = (np.count_nonzero(base[halo if s else 1:]), np.count_nonzero(covered),
              np.count_nonzero(composite))
    covered ^= composite  # now the mismatches
    mismatches = np.flatnonzero(covered)
    return counts, (s + c0 + int(mismatches[0]) if len(mismatches) else None)
