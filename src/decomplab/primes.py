"""Primality and factorization of single integers: the deterministic
Miller-Rabin test below 2**64, and trial division then Brent's rho below
2**63.  The prime scans and the smooth sets are in arith, which re-exports
these names."""

from __future__ import annotations

import math
from itertools import compress

MAX_VALUE = 1 << 63  # factorization-style inputs stay below this
_U64 = 1 << 64

# First 12 primes: strong-pseudoprime testing with these bases is
# deterministic for every n < 2**64 (indeed below psi_12 =
# 318665857834031151167461 ~ 3.2 * 10**23, the least strong pseudoprime to
# all twelve).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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


def _trial_primes() -> tuple[int, ...]:
    """The primes below 1024, from a sieve of 512 bytes, byte k for 2k + 1."""
    odd = bytearray(b"\1") * 512
    odd[0] = 0
    for k in range(1, 16):  # the odd p up to 31 = isqrt(1023)
        if odd[k]:
            p = 2 * k + 1
            odd[p * p // 2:: p] = bytes(len(range(p * p // 2, 512, p)))
    return (2, *compress(range(1, 1024, 2), odd))


_TRIAL_PRIMES = _trial_primes()


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
