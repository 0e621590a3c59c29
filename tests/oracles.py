"""Brute-force reference implementations used to cross-check the library.

Everything here is deliberately naive pure Python, independent of the
library's vectorized code paths.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from itertools import product as iter_product
from math import gcd, isqrt, log

from decomplab import IntegerSet, enumerate_semigroup
from decomplab.semigroup import SolutionClass, _has_vanishing_subsum, strip_gamma_part


def naive_is_prime(n):
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def prime_flags(limit):
    """bytearray whose byte n is 1 exactly when n is prime, for n <= limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"[: limit + 1]
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = bytes(len(flags[p * p:: p]))
    return flags


def window_prime_flags(lo, hi):
    """bytearray whose byte i is 1 exactly when lo + i is prime, for lo + i
    <= hi: the window with the multiples of every prime up to isqrt(hi)
    crossed off, from p * p on."""
    flags = bytearray([1]) * (hi - lo + 1)
    flags[: max(2 - lo, 0)] = bytes(max(2 - lo, 0))
    for p in naive_sieve(isqrt(hi)):
        first = max(p * p, -(-lo // p) * p) - lo
        flags[first:: p] = bytes(len(range(first, len(flags), p)))
    return flags


def naive_sieve(limit):
    flags = prime_flags(limit)
    return [n for n in range(limit + 1) if flags[n]]


def composites_window(lo, hi):
    """The composites of [lo, hi] as an IntegerSet on that window."""
    flags = prime_flags(hi)
    return IntegerSet(tuple(n for n in range(max(lo, 2), hi + 1) if not flags[n]), lo, hi)


def composite_cover_reports(limits, offsets=(0, 1, 3, 5)):
    """The fields of the composite-cover report at each limit, straight from
    the definitions: A = {n >= 1 : none of n + u (u in offsets) is prime},
    and A + offsets is compared with the composites on [9, limit]."""
    top = max(limits)
    prime = prime_flags(top + offsets[-1])
    in_a = bytearray(top + 1)
    wanted = set(limits)
    reports = {}
    base = covered = composite = 0
    first = None
    for x in range(1, top + 1):
        if not any(prime[x + off] for off in offsets):
            in_a[x] = 1
            base += 1
        if x >= 9:
            is_covered = any(in_a[x - off] for off in offsets if x - off >= 0)
            is_composite = not prime[x]
            covered += is_covered
            composite += is_composite
            if first is None and is_covered != is_composite:
                first = x
        if x in wanted:
            reports[x] = {
                "limit": x,
                "passed": first is None,
                "first_mismatch": first,
                "base_count": base,
                "covered_count": covered,
                "composite_count": composite,
                "offsets": list(offsets),
            }
    return reports


def naive_unpack(bits, start):
    """start + i for every set bit i of bits, one binary digit at a time."""
    return [start + i for i, digit in enumerate(reversed(bin(bits))) if digit == "1"]


def naive_pack(flags, step=1):
    """Flags as bits, bit step * k set when flags[k] is: a binary numeral whose
    digit step * k is 1 when flags[k] is set, read by int."""
    digits = bytearray(b"0" * (step * len(flags)))
    digits[::step] = bytes(flags).translate(b"0" + b"1" * 255)
    return int(b"0" + digits[::-1], 2)


def naive_factorize(n):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def naive_smooth(kind, value, limit):
    """The n in [1, limit] with p+(n) <= value (kind "fixed") or
    p+(n) <= max(value * ln n, 2) (kind "log"), p+(1) = 1: the predicate
    perfbench/check.py applies to smooth reports."""
    out = []
    for n in range(1, limit + 1):
        top = naive_factorize(n)[-1][0] if n > 1 else 1
        if top <= (value if kind == "fixed" else max(value * log(n), 2.0)):
            out.append(n)
    return out


def additive_accepted_parts(target, lo, hi, max_b_size, max_b_elem, full_window):
    """Accepted additive small parts, straight from the definitions."""
    tset = set(target)
    accepted = []
    for size in range(2, max_b_size + 1):
        for rest in combinations(range(1, max_b_elem + 1), size - 1):
            b = (0,) + rest
            maxb = b[-1]
            if hi - maxb < 0:
                continue
            cvals = [
                c for c in range(0, hi - maxb + 1)
                if all((c + beta in tset) or (c + beta < lo) for beta in b)
            ]
            if len(cvals) < 2:
                continue
            cover_lo, cover_hi = (lo, hi) if full_window else (lo + maxb, hi - maxb)
            sums = {c + beta for c in cvals for beta in b}
            if all(t in sums for t in tset if cover_lo <= t <= cover_hi):
                accepted.append(b)
    return sorted(accepted)


def multiplicative_accepted_parts(target, lo, hi, max_b_size, max_b_elem, full_window):
    """Accepted multiplicative small parts, straight from the definitions:
    b is drawn from the divisors <= max_b_elem of target elements, and c
    from [1, hi // max(b)]."""
    tset = set(target)
    pool = [d for d in range(1, max_b_elem + 1) if any(t % d == 0 for t in tset)]
    accepted = []
    for size in range(2, max_b_size + 1):
        for b in combinations(pool, size):
            maxb = b[-1]
            cvals = [
                c for c in range(1, hi // maxb + 1)
                if all((c * beta in tset) or (c * beta < lo) for beta in b)
            ]
            if len(cvals) < 2:
                continue
            cover_lo, cover_hi = (lo, hi) if full_window else (lo * maxb, hi // maxb)
            products = {c * beta for c in cvals for beta in b}
            if all(t in products for t in tset if cover_lo <= t <= cover_hi):
                accepted.append(b)
    return sorted(accepted)


def part_covers(target, lo, hi, b, additive, t):
    """Whether t is in b (+|*) c for part b's maximal c, straight from the
    definitions: c runs over [0, hi - max b] (additive) or [1, hi // max b]
    (multiplicative) and keeps each x whose combination with every beta of b
    lands in the target or below lo."""
    tset = set(target)
    maxb = b[-1]
    if additive:
        cvals = [c for c in range(0, hi - maxb + 1)
                 if all(c + beta in tset or c + beta < lo for beta in b)]
        return any(c + beta == t for c in cvals for beta in b)
    cvals = [c for c in range(1, hi // maxb + 1)
             if all(c * beta in tset or c * beta < lo for beta in b)]
    return any(c * beta == t for c in cvals for beta in b)


def additive_parts_by_subset_search(target, lo, hi, max_b_size, max_b_elem):
    """Full-window acceptance by literally trying every complement subset.

    Only usable for tiny windows; independently validates that the maximal
    complement is canonical (if any complement works, the maximal one does).
    """
    tset = set(target)
    accepted = []
    for size in range(2, max_b_size + 1):
        for rest in combinations(range(1, max_b_elem + 1), size - 1):
            b = (0,) + rest
            maxb = b[-1]
            if hi - maxb < 0:
                continue
            domain = list(range(0, hi - maxb + 1))
            found = False
            for csize in range(2, len(domain) + 1):
                for cvals in combinations(domain, csize):
                    sums = {c + beta for c in cvals for beta in b}
                    if {v for v in sums if lo <= v <= hi} == tset:
                        found = True
                        break
                if found:
                    break
            if found:
                accepted.append(b)
    return sorted(accepted)


def sunit_triples(gamma_elements, height):
    """Solutions of x1 + x2 - x3 = 0 by a literal triple loop, reduced by the
    common semigroup part, as canonical class representatives."""
    elems = [e for e in gamma_elements if e <= height]
    eset = set(elems)
    classes = set()
    for x1 in elems:
        for x2 in elems:
            for x3 in elems:
                if x1 + x2 != x3:
                    continue
                g = gcd(gcd(x1, x2), x3)
                lam = 1
                for e in sorted(eset):
                    if e > 1:
                        while g % e == 0:
                            g //= e
                            lam *= e
                classes.add((x1 // lam, x2 // lam, x3 // lam))
    return classes


def sunit_classes(coeffs, gamma, height):
    """The S-unit classes of sum(coeffs[i] * x_i) = 0 over the semigroup gamma
    up to height: every head of m - 1 elements fixes the last coordinate in
    exact rational arithmetic, E**(m - 1) steps for E elements."""
    elems = enumerate_semigroup(gamma, height).elements
    members = set(elems)
    coeffs = tuple(Fraction(c) for c in coeffs)
    m = len(coeffs)
    last = coeffs[-1]
    classes = {}
    for head in iter_product(elems, repeat=m - 1):
        partial = sum((c * x for c, x in zip(coeffs, head)), Fraction(0))
        tail = -partial / last
        if tail.denominator != 1:
            continue
        xm = tail.numerator
        if xm < 1 or xm > height or xm not in members:
            continue
        xs = head + (xm,)
        lam = strip_gamma_part(gcd(*xs), gamma)[1]
        rep = tuple(x // lam for x in xs)
        if rep not in classes:
            terms = [c * x for c, x in zip(coeffs, xs)]
            degenerate = _has_vanishing_subsum(
                [t for t in terms if t > 0], [-t for t in terms if t < 0]
            )
            classes[rep] = SolutionClass(rep, degenerate)
    return [classes[r] for r in sorted(classes)]


def coprime_sums(elements, k, limit, cumulative=False):
    """Sums <= limit of exactly k (or 1..k when cumulative) pairwise coprime
    values from elements, by trying every multiset."""
    sums = set()
    for size in range(1, k + 1) if cumulative else (k,):
        for combo in combinations_with_replacement(elements, size):
            if sum(combo) <= limit and all(gcd(x, y) == 1 for x, y in combinations(combo, 2)):
                sums.add(sum(combo))
    return sums


def h_family_star(g, k, limit, cumulative=False):
    """Sum families without the coprimality restriction (k-fold sumsets)."""
    base = enumerate_semigroup(g, limit).elements
    current = set(base)
    collected = set(base)
    for _ in range(k - 1):
        current = {x + y for x in base for y in current if x + y <= limit}
        collected |= current
    values = collected if cumulative else current
    return IntegerSet(tuple(sorted(values)), 1, limit)


def vanishing_subsum(terms):
    """Does some proper, nonempty subset of the terms sum to 0?  Tries every
    subset in exact rational arithmetic."""
    m = len(terms)
    for mask in range(1, (1 << m) - 1):
        total = Fraction(0)
        for i in range(m):
            if mask >> i & 1:
                total += terms[i]
        if total == 0:
            return True
    return False


def naive_constellation(offsets, lo, hi, is_prime, composite_center=False, consecutive=False):
    """n in [max(lo, 0), hi] with every n + u prime, tested one integer at a
    time with the given primality predicate."""
    hits = []
    for n in range(max(lo, 0), hi + 1):
        if not all(n + u >= 2 and is_prime(n + u) for u in offsets):
            continue
        if composite_center and (n < 2 or is_prime(n)):
            continue
        if consecutive and len(offsets) >= 2:
            inner = [q for q in range(n + offsets[0] + 1, n + offsets[-1]) if is_prime(q)]
            if len(inner) != len(offsets) - 2:
                continue
        hits.append(n)
    return hits


def two_term_sweep(t2, t1, n, c, alpha_cap):
    """All (a1, a2) <= alpha_cap with t2 * n**a1 - t1 * n**a2 = c, by sweeping
    every pair."""
    powers = [1]
    for _ in range(alpha_cap):
        powers.append(powers[-1] * n)
    out = []
    for a1 in range(alpha_cap + 1):
        lhs = t2 * powers[a1]
        for a2 in range(alpha_cap + 1):
            if lhs - t1 * powers[a2] == c:
                out.append((a1, a2))
    return out
