"""Admissible offset patterns, prime-constellation scans, and additive
non-coverage witnesses for small part sizes."""

from __future__ import annotations

from array import array
from functools import partial
from itertools import starmap

from . import _Record, _unpack
from .primes import is_composite, is_prime


class OffsetTuple(_Record):
    """Sorted distinct integer offsets (coincident entries collapse)."""

    __slots__ = ("offsets",)

    def __post_init__(self):
        if not self.offsets:
            raise ValueError("offset tuple must be nonempty")
        if any(b <= a for a, b in zip(self.offsets, self.offsets[1:])):
            raise ValueError("offsets must be sorted and distinct")

    @classmethod
    def of(cls, values) -> "OffsetTuple":
        return cls(tuple(sorted({int(v) for v in values})))

    def __len__(self):
        return len(self.offsets)

    def __iter__(self):
        return iter(self.offsets)


def is_admissible(t: OffsetTuple) -> bool:
    """True when no prime has every residue class hit by the offsets.

    A prime p > |t| cannot be covered by |t| residues, so only p <= |t|
    needs checking.
    """
    k = len(t.offsets)
    for p in range(2, k + 1):
        if is_prime(p) and len({u % p for u in t.offsets}) == p:
            return False
    return True


def satisfies_covering(t: OffsetTuple, base) -> bool:
    """Every s in base has some beta in base with beta - s among the offsets.

    When n is composite and every n + u (u in the offsets) is prime, this is
    exactly the property forcing n - s out of any additive complement of the
    composites for each shift s in base.
    """
    offs = set(t.offsets)
    return all(any(beta - s in offs for beta in base) for s in base)


def select_triple(b2: int, b3: int) -> tuple[OffsetTuple, str]:
    """Admissible 3-offset pattern covering {0, b2, b3}, with its case label.

    The case split keys on the parities of b2, b3 and their residues mod 3;
    the chosen pattern is asserted both admissible and covering, so a
    transcription error in the table raises instead of returning junk.
    """
    if not 0 < b2 < b3:
        raise ValueError("need 0 < b2 < b3")
    if (b3 - b2) % 2 == 0:
        if b3 % 3 == 0:
            case, offs = "t1", (-b3, -b2, b3)
        else:
            case, offs = "t2", (-b3, -b2, b2)
    elif b2 % 2 == 1:
        if (b2 - b3) % 3 == 0:
            case, offs = "t3", (-b3 + b2, b3 - b2, b2)
        else:
            case, offs = "t4", (-b3 + b2, -b2, b2)
    else:
        if (b2 - b3) % 3 == 0:
            case, offs = "t5", (-b3 + b2, b3 - b2, b3)
        else:
            case, offs = "t6", (-b3, b3 - b2, b3)
    t = OffsetTuple.of(offs)
    base = (0, b2, b3)
    if not is_admissible(t) or not satisfies_covering(t, base):
        raise AssertionError(f"case {case} produced an invalid pattern for base {base}")
    return t, case


def find_constellation(
    t: OffsetTuple,
    lo: int,
    hi: int,
    require_composite_center: bool = False,
    require_consecutive: bool = False,
) -> array:
    """All n in [lo, hi] with n + u prime for every offset u, ascending, in
    one array('Q'), 8 bytes a hit.  A hit n >= 0 and n + max(u, 0) lies in
    a window the prime scan sieved, so n is below its reach, (2**24 + 1)**2,
    and 'Q' holds it.

    Options restrict to composite n, and to patterns whose primes are
    consecutive (no foreign prime strictly between the smallest and largest
    pattern prime).  An empty result is evidence of nothing: constellations
    are only conjectured to recur.
    """
    if not is_admissible(t):
        raise ValueError("offsets must form an admissible pattern")
    hits = array("Q")
    for window_hits in _constellation_scan(t, lo, hi, require_composite_center,
                                           require_consecutive):
        hits += window_hits
    return hits


def _constellation_scan(t, lo, hi, composite_center, consecutive):
    """find_constellation's hits, one array('Q') per window of a lazy prime
    scan."""
    from .arith import prime_windows
    lo = max(lo, 0)
    # 0 is in the span for the composite test
    u_lo, u_hi = min(t.offsets[0], 0), max(t.offsets[-1], 0)
    window_hits = partial(_constellation_window, t, lo, hi, u_lo, u_hi, composite_center,
                          consecutive)
    return starmap(window_hits, prime_windows(max(lo + u_lo, 0), hi + u_hi, u_hi - u_lo))


def _constellation_window(t, lo, hi, u_lo, u_hi, composite_center, consecutive, s, size, prime):
    # the n in [lo, hi] whose span lies in the window [s, s + size - 1]: bit i
    # of ok stands for a + i
    a = max(lo, s - u_lo)
    count = min(hi, s + size - 1 - u_hi) - a + 1
    if count <= 0:
        return array("Q")
    ok = (1 << count) - 1
    for u in t.offsets:
        ok &= prime >> (a + u - s)
    if composite_center:
        ok &= ~(prime >> (a - s)) & -1 << max(2 - a, 0)  # neither 0 nor 1 is composite
    if consecutive:
        # no prime strictly between the first and last pattern primes but the
        # pattern's own; a candidate dies at the first foreign prime, so the
        # walk stops once none is left
        inner = set(t.offsets)
        for v in range(t.offsets[0] + 1, t.offsets[-1]):
            if not ok:
                break
            if v not in inner:
                ok &= ~(prime >> (a + v - s))
    return _unpack(ok, a)


class AdditiveWitness(_Record):
    """A composite n whose offset pattern is all prime: no additive
    decomposition of the composite tail can use this base set."""

    __slots__ = ("b", "pattern", "case", "n", "prime_values", "n0")

    def validate(self) -> bool:
        if self.b[0] != 0 or len(self.b) not in (2, 3):
            return False
        if not is_composite(self.n) or self.n < self.n0 + self.b[-1]:
            return False
        if self.prime_values != tuple(self.n + u for u in self.pattern.offsets):
            return False
        if not all(v >= 2 and is_prime(v) for v in self.prime_values):
            return False
        return satisfies_covering(self.pattern, self.b)

    def to_json_dict(self):
        return {
            "b": list(self.b),
            "tuple": list(self.pattern.offsets),
            "case": self.case,
            "n": self.n,
            "primes": list(self.prime_values),
            "validated": self.validate(),
        }


def additive_witness(b, n0: int, search_hi: int) -> AdditiveWitness | None:
    """Search [n0 + max(b), search_hi] for a witness against the base set b.

    b must be {0, b2} or {0, b2, b3}, and the range must not be empty.  For
    pairs the pattern is {-b2, b2}; for triples it comes from select_triple.
    Returns None when nothing is found below the bound, which is
    inconclusive, never a refutation.
    """
    b = tuple(sorted({int(v) for v in b}))
    if len(b) not in (2, 3) or b[0] != 0:
        raise ValueError("b must be {0, b2} or {0, b2, b3}")
    if n0 < 9:
        raise ValueError("n0 must be at least 9")
    if len(b) == 2:
        pattern, case = OffsetTuple.of((-b[1], b[1])), "pair"
    else:
        pattern, case = select_triple(b[1], b[2])
    pos = n0 + b[-1]
    if pos > search_hi:
        raise ValueError(f"empty search range [{pos}, {search_hi}]: raise the search bound")
    # witnesses usually lie within a few thousand of n0, in the scan's first window
    scan = _constellation_scan(pattern, pos, search_hi, True, False)
    n = next((hits[0] for hits in scan if hits), None)
    if n is None:
        return None
    witness = AdditiveWitness(b=b, pattern=pattern, case=case, n=n,
                              prime_values=tuple(n + u for u in pattern.offsets), n0=n0)
    if not witness.validate():
        raise AssertionError(f"witness {n} for {b} failed revalidation")
    return witness
