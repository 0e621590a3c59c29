"""Exact integer primitives: primality, sieves, factorization, smoothness."""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from dataclasses import dataclass

from .sets import IntegerSet, ResourceLimitError, check_mask_budget

MAX_VALUE = 1 << 63  # factorization-style inputs stay below this
_U64 = 1 << 64

# First 12 primes: strong-pseudoprime testing with these bases is
# deterministic for every n < 2**64 (indeed below psi_12 =
# 318665857834031151167461 ~ 3.2 * 10**23, the least strong pseudoprime to
# all twelve).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

SEGMENT_BITS = 1 << 20  # odd numbers per sieve segment: 1 MiB of flags, 2**21 integers
_BASE_PRIME_LIMIT = 1 << 24  # largest base prime, so windows reach 2**48
_DEFAULT_SIEVE_BUDGET = 1 << 31  # bytes of packed bits
_SIEVE_MAGIC = b"PSV1"


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64."""
    if n < 0 or n >= _U64:
        raise ValueError(f"is_prime covers [0, 2**64), got {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = ((d & -d).bit_length()) - 1
    d >>= r
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_composite(n: int) -> bool:
    return n > 1 and not is_prime(n)


@dataclass(frozen=True)
class PrimeSieve:
    """Packed primality bits over [0, limit]: bit i of byte j covers 8j + i."""

    limit: int
    bits: bytes

    def is_prime(self, n: int) -> bool:
        if not 0 <= n <= self.limit:
            raise ValueError(f"sieve covers [0, {self.limit}], got {n}")
        return bool((self.bits[n >> 3] >> (n & 7)) & 1)

    def count(self) -> int:
        return int.from_bytes(self.bits, "little").bit_count()

    def mask(self) -> np.ndarray:
        """Boolean primality array over [0, limit]."""
        import numpy as np
        arr = np.unpackbits(np.frombuffer(self.bits, dtype=np.uint8), bitorder="little")
        return arr[: self.limit + 1].astype(bool)

    def primes(self) -> np.ndarray:
        import numpy as np
        return np.flatnonzero(self.mask())

    def largest_prime(self) -> int | None:
        """The largest prime <= limit, read from the last nonzero byte."""
        top = self.bits.rstrip(b"\0")
        return 8 * (len(top) - 1) + top[-1].bit_length() - 1 if top else None

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(_SIEVE_MAGIC)
            fh.write(struct.pack("<Q", self.limit))
            fh.write(self.bits)

    @classmethod
    def load(cls, path) -> "PrimeSieve":
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != _SIEVE_MAGIC:
                raise ValueError(f"{path}: bad magic {magic!r}")
            head = fh.read(8)
            if len(head) < 8:
                raise ValueError(f"{path}: header cut short at {4 + len(head)} of 12 bytes")
            (limit,) = struct.unpack("<Q", head)
            bits = fh.read()
        expected = (limit + 8) // 8
        if len(bits) != expected:
            raise ValueError(f"{path}: expected {expected} bitset bytes, found {len(bits)}")
        if bits[-1] >> ((limit & 7) + 1):
            raise ValueError(f"{path}: padding bits past limit {limit} are set")
        return cls(limit=limit, bits=bits)


def _odd_sieve(hi: int):
    """Sieve the odd base primes up to isqrt(hi) once, and return strike(s, e):
    whether each odd number s, s + 2, ... <= e (s odd) is prime, crossed off
    with the base primes p, p * p <= e.  Each prime's first odd multiple at or
    above max(p * p, s), (max(p, ceil(s / p)) | 1) * p, is crossed off in one
    array step for all of them; a Python loop then walks only the primes whose
    next odd multiple still lies in the segment, those below about (e - s) / 2.
    The prime 2 is left to the caller."""
    import numpy as np
    root = math.isqrt(hi)
    if root > _BASE_PRIME_LIMIT:
        raise ResourceLimitError(f"sieving up to {hi} needs base primes above the "
                                 f"{_BASE_PRIME_LIMIT} limit")
    base = np.flatnonzero(sieve_window(3, root)) + 3  # ends at root < 3, an empty window

    def strike(s: int, e: int) -> np.ndarray:
        n = (e - s) // 2 + 1
        ps = base[: int(np.searchsorted(base, math.isqrt(e), side="right"))]
        # p's first odd multiple at or above max(p*p, s), as an offset; the next is p on
        i = ((np.maximum(ps, -(-s // ps)) | 1) * ps - s) // 2
        flags = np.ones(n, dtype=bool)
        flags[i[i < n]] = False
        twice = i + ps < n  # only these primes strike the segment again
        for p, j in zip(ps[twice].tolist(), (i + ps)[twice].tolist()):
            flags[j::p] = False
        if s == 1:
            flags[:1] = False
        return flags

    return strike


def prime_windows(lo: int, hi: int, overlap: int = 0):
    """Primality over [lo, hi] in windows: yields (start, prime), prime[i]
    telling whether start + i is prime.  Each window repeats the last
    `overlap` integers of the one before, so any overlap + 1 consecutive
    integers lie in one window.  Its new integers start at 2**14, as lazy
    scans often stop in the first window, and double up to one segment
    (2 * SEGMENT_BITS), but are at least min(overlap, SEGMENT_BITS); a window
    spans at most max(2 * SEGMENT_BITS, SEGMENT_BITS + overlap) integers."""
    import numpy as np
    if lo < 0:
        raise ValueError(f"a prime scan needs lo >= 0, got {lo}")
    seg = 2 * SEGMENT_BITS  # integers per segment
    least, most = min(overlap, seg // 2), max(seg - overlap, seg // 2)
    fresh, start, end, reach = 1 << 14, lo, lo + overlap - 1, -1
    while start <= hi:
        fresh = min(max(fresh, least), most)
        end = min(end + fresh, hi)
        if end > reach:
            # base primes up to sqrt(4 * end): sieved again once end quadruples,
            # and refused only by a window that needs primes above the limit
            reach = min(4 * end, hi, max(end, _BASE_PRIME_LIMIT ** 2))
            strike = _odd_sieve(reach)
        prime = np.zeros(end - start + 1, dtype=bool)
        for a in range(start | 1, end + 1, seg):  # one segment of flags at a time
            prime[a - start: a - start + seg: 2] = strike(a, min(a + seg - 1, end))
        if start <= 2 <= end:
            prime[2 - start] = True
        yield start, prime
        del prime  # the caller's alone now: not held while the next is sieved
        start = end - overlap + 1 if end < hi else hi + 1
        fresh *= 2


def sieve_window(lo: int, hi: int) -> np.ndarray:
    """Primality over [lo, hi]: element i tells whether lo + i is prime; the
    result is empty when lo > hi."""
    import numpy as np
    out = np.zeros(max(hi - lo + 1, 0), dtype=bool)
    for s, prime in prime_windows(lo, hi):
        out[s - lo: s - lo + len(prime)] = prime
        del prime  # free before the next window is sieved
    return out


def sieve(limit: int) -> PrimeSieve:
    """The prime scan's windows over [0, limit], packed; O(limit/8) bytes of
    result bits plus one window of working space."""
    import numpy as np
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if (limit + 8) // 8 > _DEFAULT_SIEVE_BUDGET:
        raise ResourceLimitError(f"sieve to {limit} exceeds the "
                                 f"{_DEFAULT_SIEVE_BUDGET}-byte budget")
    # every window from 0 starts at a multiple of 8, so its bytes follow on
    return PrimeSieve(limit, b"".join(np.packbits(prime, bitorder="little").tobytes()
                                      for _, prime in prime_windows(0, limit)))


_TRIAL_PRIMES = tuple(p for p in range(2, 1 << 10) if is_prime(p))


def _brent_rho(n: int) -> int:
    """Nontrivial factor of a composite n with no small prime factors
    (Brent's cycle-finding variant of Pollard rho, deterministic restarts)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        y, r, q = 2, 1, 1
        g, ys, x = 1, 2, 2
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g, y = 1, ys
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(abs(x - y), n)
        if 1 < g < n:
            return g
    raise ArithmeticError(f"cycle search failed for {n}")


def _split(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _brent_rho(n)
    _split(d, out)
    _split(n // d, out)


def factorize(n: int) -> list[tuple[int, int]]:
    """Complete sorted factorization of 1 <= n < 2**63; [] for n = 1."""
    if not 1 <= n < MAX_VALUE:
        raise ValueError(f"factorize covers [1, 2**63), got {n}")
    out: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        _split(n, out)
    return sorted(out.items())


def greatest_prime_factor(n: int) -> int:
    """p+(n), with the convention p+(1) = 1."""
    if n == 1:
        return 1
    return factorize(n)[-1][0]


@dataclass(frozen=True)
class SmoothnessPolicy:
    """Threshold rule y(n) deciding which integers count as smooth (friable).

    kind "composites" models any threshold with n/2 < y(n) < n: a composite n
    has p+(n) <= n/2 < y(n) while a prime n has p+(n) = n > y(n), so the
    smooth integers are exactly the composites (1 is excluded since
    p+(1) = 1 > y(1)).  kind "fixed" keeps p+(n) <= bound.  kind "log" keeps
    p+(n) <= max(factor * ln n, 2); the floor of 2 keeps the set nonempty at
    small n, a deliberate deviation below e**(2/factor).
    """

    kind: str
    bound: int | None = None
    factor: float | None = None

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
        return bool(g <= self.log_threshold(float(n)))

    def log_threshold(self, n):
        """max(factor * ln n, 2) for a float n or float array n.  is_smooth and
        the bulk mask both take it from here, with numpy's log, because
        math.log may differ from it in the last bit."""
        import numpy as np
        # ln 0 = -inf falls to the floor of 2; a product past the floats is inf
        with np.errstate(divide="ignore", over="ignore"):
            return np.maximum(self.factor * np.log(n), 2.0)


def _smooth_window(policy: SmoothnessPolicy, s: int, prime: np.ndarray,
                   base: list[int]) -> np.ndarray:
    """keep[i]: whether s + i > 1 is smooth, given the window's primality and
    the primes up to sqrt(end).  With y a bound on y(n) over the window,
    dividing out the primes p <= min(y, sqrt(end)) and their powers leaves 1,
    p+(n) > sqrt(end), or a number above y, so n is smooth iff max(largest p
    divided out, rest) <= y(n).  The log threshold is taken only where that
    maximum is at most y."""
    import numpy as np
    if policy.kind == "composites":
        return ~prime
    e = s + len(prime) - 1
    # the unit of slack covers np.log failing to be monotone in the last bit
    y = policy.bound if policy.kind == "fixed" else policy.log_threshold(float(e)) + 1
    rem = np.arange(s, e + 1, dtype=np.int32)  # below 2**31 by the mask budget
    top = np.zeros_like(rem)  # the largest p divided out of each n
    for p in base[: bisect_right(base, min(y, math.isqrt(e)))]:
        top[-s % p:: p] = p
        q = p
        while q <= e:
            rem[-s % q:: q] //= p
            q *= p
    most = np.maximum(top, rem)
    keep = most <= y
    if policy.kind == "log":
        idx = np.flatnonzero(keep)
        keep[idx] = most[idx] <= policy.log_threshold((idx + s).astype(np.float64))
    return keep


def _smooth_mask(policy: SmoothnessPolicy, limit: int) -> np.ndarray:
    """Smoothness over [0, limit] by windows: the mask plus one window of memory."""
    import numpy as np
    check_mask_budget(limit)
    base = np.flatnonzero(sieve_window(0, math.isqrt(limit))).tolist()
    keep = np.zeros(limit + 1, dtype=bool)
    for s, prime in prime_windows(0, limit):
        keep[s: s + len(prime)] = _smooth_window(policy, s, prime, base)
        del prime  # free before the next window is sieved
    keep[: 2 if policy.kind == "composites" else 1] = False  # 0, and 1 for composites
    return keep


def smooth_set(policy: SmoothnessPolicy, limit: int) -> IntegerSet:
    """The smooth integers in [1, limit] under the policy, window [1, limit]."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    return IntegerSet.from_mask(_smooth_mask(policy, limit), 1, limit)


def shifted_smooth_set(policy: SmoothnessPolicy, limit: int) -> IntegerSet:
    """{m + 1 : m smooth, m + 1 <= limit}, window [1, limit]."""
    if limit < 2:
        raise ValueError("limit must be >= 2")
    return IntegerSet.from_mask(_smooth_mask(policy, limit - 1), 1, limit, start=1)
