"""Coprime-generated multiplicative semigroups, families of pairwise-coprime
sums, bounded-height S-unit enumeration, and the lone factorable family."""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import product as iter_product
from operator import mul

from . import _Record, sets

SUNIT_BUDGET = 1 << 22  # most head tuples solve_sunit may hash


class GammaSemigroup(_Record):
    """Pairwise coprime generators > 1 of a multiplicative semigroup
    (which always contains 1), a sorted tuple."""

    __slots__ = ("generators",)

    def __post_init__(self):
        if not self.generators:
            raise ValueError("need at least one generator")
        if any(b <= a for a, b in zip(self.generators, self.generators[1:])):
            raise ValueError("generators must be sorted and distinct")
        for g in self.generators:
            if g < 2:
                raise ValueError(f"generator {g} must be > 1")
        gens = self.generators
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                d = math.gcd(gens[i], gens[j])
                if d != 1:
                    raise ValueError(
                        f"generators {gens[i]} and {gens[j]} are not coprime (gcd {d})"
                    )

    @classmethod
    def of(cls, values) -> "GammaSemigroup":
        return cls(tuple(sorted({int(v) for v in values})))


def enumerate_semigroup(g: GammaSemigroup, limit: int) -> sets.IntegerSet:
    """All generator products <= limit, including the empty product 1."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    return sets.IntegerSet(tuple(_products(g, limit)), 1, limit)


def _products(g: GammaSemigroup, limit: int) -> list[int]:
    """The generator products <= limit, 1 among them, in ascending order."""
    values = [1]
    for gen in g.generators:
        grown = []
        for v in values:
            w = v
            while w <= limit:
                grown.append(w)
                w *= gen
        values = grown
    return sorted(values)


def h_family(g: GammaSemigroup, k: int, limit: int, cumulative: bool = False) -> sets.IntegerSet:
    """Sums of exactly k (or 1..k when cumulative) pairwise coprime semigroup
    elements, truncated to [1, limit].

    Repeated 1s are allowed (gcd(1,1) = 1); any element > 1 can appear at
    most once.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if limit < 1:
        raise ValueError("limit must be >= 1")
    sums = (sum(b) for b in _coprime_blocks(g, k, limit) if cumulative or len(b) == k)
    return sets.IntegerSet(tuple(sorted({s for s in sums if s <= limit})), 1, limit)


class ExceptionalFactorizationReport(_Record):
    __slots__ = ("limit", "passed", "first_mismatch", "family_count", "product_count")

    def to_json_dict(self):
        return self._asdict()


def verify_exceptional_factorization(limit: int) -> ExceptionalFactorizationReport:
    """Check, exactly on [1, limit], that the sums of up to three pairwise
    coprime powers of two equal {1,2} * {2**beta, 2**beta + 1 : beta >= 0}."""
    if limit < 8:
        raise ValueError("limit must be >= 8")
    family = h_family(GammaSemigroup.of([2]), 3, limit, cumulative=True)
    core = set()
    power = 1
    while power <= limit:
        core.add(power)
        if power + 1 <= limit:
            core.add(power + 1)
        power *= 2
    rhs = sets.productset(
        sets.IntegerSet((1, 2), 1, 2),
        sets.IntegerSet(tuple(sorted(core)), 1, limit),
    )
    passed, mismatch = sets.windowed_equal(family, rhs, 1, limit)
    return ExceptionalFactorizationReport(
        limit=limit,
        passed=passed,
        first_mismatch=mismatch,
        family_count=len(family),
        product_count=len(rhs.slice(1, limit)),
    )


def strip_gamma_part(a: int, g: GammaSemigroup) -> tuple[int, int]:
    """Split a = a0 * d where d is the largest semigroup divisor of a; no
    generator divides a0.  Unique by pairwise coprimality of the generators."""
    if a < 1:
        raise ValueError("a must be >= 1")
    a0, d = a, 1
    for gen in g.generators:
        while a0 % gen == 0:
            a0 //= gen
            d *= gen
    return a0, d


class SUnitEquation(_Record):
    """a1*x1 + ... + am*xm = 0 with nonzero rational coefficients (a tuple
    of Fractions) and each xi drawn from the semigroup gamma."""

    __slots__ = ("coeffs", "gamma")

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ValueError("need at least two coefficients")
        if any(c == 0 for c in self.coeffs):
            raise ValueError("coefficients must be nonzero")

    @classmethod
    def of(cls, coeffs, gamma: GammaSemigroup) -> "SUnitEquation":
        from fractions import Fraction

        return cls(tuple(Fraction(c) for c in coeffs), gamma)


class SolutionClass(_Record):
    """Canonical representative (no common semigroup factor > 1) of a
    proportionality class of solutions."""

    __slots__ = ("representative", "degenerate")


def _has_vanishing_subsum(pos, neg) -> bool:
    """Given sum(pos) = sum(neg) with every term positive, does a proper,
    nonempty subset of the terms of sum(pos) - sum(neg) vanish?  Such a
    subset takes equal subsums from the two sides.  The sides always share
    two subsums, 0 (both empty) and the full sum (both full), and every
    other shared subsum comes from a proper subset."""
    def subset_sums(vals):
        sums = {0}
        for v in vals:
            sums |= {s + v for s in sums}
        return sums

    return len(subset_sums(pos) & subset_sums(neg)) > 2


def solve_sunit(eq: SUnitEquation, height: int) -> list[SolutionClass]:
    """Enumerate all solutions with every coordinate <= height, one per
    proportionality class: the member in which no generator divides every
    coordinate, which the search meets as dividing never raises a coordinate.
    With the coefficients scaled to integers by the lcm of their denominators,
    the sums are matched by halves: each tail looks up the negation of its
    weighted sum among the hashed sums of the first m // 2 coordinates,
    refused past max(SUNIT_BUDGET, E) heads."""
    if height < 1:
        raise ValueError("height must be >= 1")
    elems = _products(eq.gamma, height)  # a list, so that S-unit equations need no sets layer
    if elems[-1] > 1 << 63:  # the cap that enumerate_semigroup's IntegerSet keeps
        raise ValueError("elements must not exceed 2**63")
    h = len(eq.coeffs) // 2
    if len(elems) ** h > max(SUNIT_BUDGET, len(elems)):
        raise sets.ResourceLimitError(f"{len(elems)}**{h} S-unit head tuples exceed SUNIT_BUDGET")
    scale = math.lcm(*(c.denominator for c in eq.coeffs))
    coeffs = [int(c * scale) for c in eq.coeffs]
    heads: dict[int, list[tuple[int, ...]]] = {}
    for head in iter_product(elems, repeat=h):
        heads.setdefault(sum(map(mul, coeffs, head)), []).append(head)
    classes = []
    for tail in iter_product(elems, repeat=len(coeffs) - h):
        for head in heads.get(-sum(map(mul, coeffs[h:], tail)), ()):
            xs = head + tail
            g = math.gcd(*xs)
            if any(g % gen == 0 for gen in eq.gamma.generators):
                continue  # a multiple of the class's member xs / gen, also found
            terms = [c * x for c, x in zip(coeffs, xs)]
            degenerate = _has_vanishing_subsum(
                [t for t in terms if t > 0], [-t for t in terms if t < 0]
            )
            classes.append(SolutionClass(xs, degenerate))
    return sorted(classes, key=lambda c: c.representative)


def _coprime_blocks(g: GammaSemigroup, k: int, height: int) -> list[tuple[int, ...]]:
    """Tuples of 1..k pairwise coprime semigroup elements <= height, sorted
    ascending inside each block; 1 may repeat.

    Elements are tried in decreasing order, so each new one goes in front.
    Each element is tagged with the bitmask of the generators that divide
    it; as the generators are pairwise coprime, two elements are coprime
    exactly when their masks are disjoint.  The indices of the elements free
    of a chosen mask are listed once per mask, so the walk visits only the
    elements that extend a block, with no gcd.
    """
    elems = sorted(
        (v for v in enumerate_semigroup(g, height).elements if v > 1), reverse=True
    )
    masks = [sum(1 << j for j, gen in enumerate(g.generators) if e % gen == 0) for e in elems]
    free: dict[int, list[int]] = {}  # chosen mask -> the indices of the elements outside it
    blocks: list[tuple[int, ...]] = []

    def walk(start, chosen, used):
        n = len(chosen)
        for pad in range(0 if n else 1, k - n + 1):
            blocks.append((1,) * pad + chosen)
        if n == k:
            return
        if used not in free:
            free[used] = [i for i, m in enumerate(masks) if not m & used]
        fits = free[used]
        for i in fits[bisect_left(fits, start):]:
            walk(i + 1, (elems[i],) + chosen, used | masks[i])

    walk(0, (), 0)
    return blocks


def l_set(g: GammaSemigroup, k: int, height: int, eps_height: int) -> sets.IntegerSet:
    """Empirical under-approximation of the finite coordinate set: collect
    every coordinate appearing in a non-degenerate solution of
    eps*(x1+...+xl) = eta*(y1+...+yh) with pairwise coprime blocks,
    l,h <= k, l+h >= 3, coordinates <= height and eps, eta <= eps_height.

    The true set is ineffective; this reports evidence at explicit bounds,
    computed separately for each (generators, k) pair.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if height < 1 or eps_height < 1:
        raise ValueError("heights must be >= 1")
    blocks = _coprime_blocks(g, k, height)
    by_sum: dict[int, list[tuple[int, ...]]] = {}
    for blk in blocks:
        by_sum.setdefault(sum(blk), []).append(blk)
    scales = enumerate_semigroup(g, eps_height).elements
    coords: set[int] = set()
    for eps in scales:
        for eta in scales:
            for xs in blocks:
                target = eps * sum(xs)
                if target % eta:
                    continue
                for ys in by_sum.get(target // eta, ()):
                    if len(xs) + len(ys) < 3:
                        continue
                    if coords.issuperset(xs) and coords.issuperset(ys):
                        continue  # the degeneracy test could add no coordinate
                    if _has_vanishing_subsum([eps * x for x in xs], [eta * y for y in ys]):
                        continue
                    coords.update(xs)
                    coords.update(ys)
    return sets.IntegerSet(tuple(sorted(coords)), 1, height)


def solve_two_term(t2: int, t1: int, n: int, c: int, alpha_cap: int) -> list[tuple[int, int]]:
    """All (a1, a2) with both exponents <= alpha_cap and
    t2 * n**a1 - t1 * n**a2 = c, by lookup: n >= 2 makes t1 * n**a2
    injective in a2, so each a1 has at most one partner."""
    if t1 < 1 or t2 < 1:
        raise ValueError("t1 and t2 must be positive")
    if n < 2:
        raise ValueError("n must be >= 2")
    if alpha_cap < 0:
        raise ValueError("alpha_cap must be >= 0")
    powers = [1]
    for _ in range(alpha_cap):
        powers.append(powers[-1] * n)
    partner = {t1 * q: a2 for a2, q in enumerate(powers)}
    return [(a1, partner[t2 * q - c]) for a1, q in enumerate(powers) if t2 * q - c in partner]


def two_term_min_exponent_bound(n: int, c: int) -> int | None:
    """For c != 0, the largest e with n**e | c; min(a1, a2) of any solution is
    forced at or below it since n**min divides both terms.  None when c = 0."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if c == 0:
        return None
    e, rest = 0, abs(c)
    while rest % n == 0:
        rest //= n
        e += 1
    return e


class MprimScanReport(_Record):
    __slots__ = ("generators", "k", "cumulative", "limit", "max_b_size", "max_b_elem",
                 "candidates", "expected_parts", "consistent")

    def to_json_dict(self):
        return {
            "generators": list(self.generators),
            "k": self.k,
            "cumulative": self.cumulative,
            "limit": self.limit,
            "max_b_size": self.max_b_size,
            "max_b_elem": self.max_b_elem,
            "found_parts": [list(c.b) for c in self.candidates],
            "expected_parts": [list(b) for b in self.expected_parts],
            "consistent": self.consistent,
        }


def mprimitivity_scan(
    g: GammaSemigroup,
    k: int,
    limit: int,
    cumulative: bool = False,
    max_b_size: int = 3,
    max_b_elem: int = 100,
) -> MprimScanReport:
    """Build the sum-family truncation and run the multiplicative
    decomposition search over it.

    Predicted outcome: no candidate at all, except generators {2} with
    cumulative sums of up to k = 3 terms, where exactly the part {1, 2}
    must appear.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    family = h_family(g, k, limit, cumulative=cumulative)
    candidates = tuple(
        sets.decompose_search(family, "multiplicative", max_b_size, max_b_elem)
    )
    exceptional = g.generators == (2,) and cumulative and k == 3
    expected = ((1, 2),) if exceptional else ()
    found = tuple(c.b for c in candidates)
    return MprimScanReport(
        generators=g.generators,
        k=k,
        cumulative=cumulative,
        limit=limit,
        max_b_size=max_b_size,
        max_b_elem=max_b_elem,
        candidates=candidates,
        expected_parts=expected,
        consistent=found == expected,
    )
