#!/usr/bin/env python3
"""Families of pairwise-coprime sums over a coprime-generated semigroup are
multiplicatively primitive, with one exception: sums of up to three powers
of two factor as {1,2} x {2^b, 2^b+1}.  The S-unit machinery behind the
proof is also runnable at bounded height: exact solution classes, the
empirical coordinate set, and the two-power equation.
"""

from decomplab import (
    GammaSemigroup,
    SUnitEquation,
    enumerate_semigroup,
    h_family,
    l_set,
    mprimitivity_scan,
    solve_sunit,
    solve_two_term,
    verify_exceptional_factorization,
)

g23 = GammaSemigroup.of([2, 3])
g2 = GammaSemigroup.of([2])

print("semigroup generated by {2,3}, up to 50:", list(enumerate_semigroup(g23, 50)))
print("sums of two coprime elements, up to 50:", list(h_family(g23, 2, 50)))

print("\nexceptional identity at three scales:")
for exp in (10, 20, 30):
    report = verify_exceptional_factorization(2**exp)
    print(f"  limit 2^{exp}: passed={report.passed}, {report.family_count} family elements")

print("\nscans for multiplicative parts (size <= 5, elements <= 100, limit 10^6):")
for gens, k, cum in [((2, 3), 2, False), ((2,), 2, False), ((2,), 3, True)]:
    report = mprimitivity_scan(
        GammaSemigroup.of(gens), k, 10**6, cumulative=cum, max_b_size=5, max_b_elem=100
    )
    label = "up to" if cum else "exactly"
    print(f"  {set(gens)}, {label} {k} terms: parts found {[list(c.b) for c in report.candidates]}")

print("\nx + y = z over the {2,3}-semigroup, coordinates <= 100:")
for cls in solve_sunit(SUnitEquation.of([1, 1, -1], g23), 100):
    print(f"  class {cls.representative} (degenerate: {cls.degenerate})")

print("\nempirical coordinate set for block sums (k=2, height 100, scale 10):")
print(" ", list(l_set(g23, 2, 100, 10)))

print("\ntwo-power equations:")
print("  3*2^a - 2^b = 1:", solve_two_term(3, 1, 2, 1, 30))
print("  2^a - 3*2^b = 5:", solve_two_term(1, 3, 2, 5, 30))
