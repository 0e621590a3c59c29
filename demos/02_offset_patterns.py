#!/usr/bin/env python3
"""Why no additive part of size 2 or 3 can work: for any base {0, b2} or
{0, b2, b3} there is an admissible offset pattern t such that a composite n
with n+u prime for all u in t rules the base out.  Assuming prime patterns
recur forever (the open conjecture), one witness kills the base for every
tail.  Here we pick the patterns, scan for witnesses, and re-validate them.
"""

from decomplab import additive_witness, find_constellation, is_admissible, select_triple
from decomplab.tuples import OffsetTuple, satisfies_covering

print("the six selector cases, one sample each:")
for b2, b3 in [(3, 9), (2, 4), (1, 4), (1, 2), (2, 5), (2, 3)]:
    t, case = select_triple(b2, b3)
    print(f"  base {{0,{b2},{b3}}} -> case {case}: offsets {list(t.offsets)}, "
          f"admissible={is_admissible(t)}, covering={satisfies_covering(t, (0, b2, b3))}")

print("\ntwin-style pattern {-1, 1}: composite centers up to 100:")
print(" ", find_constellation(OffsetTuple.of([-1, 1]), 3, 100,
                             require_composite_center=True).tolist())

print("\npattern {0, 2, 6} and its consecutive-prime subset up to 2000:")
plain = find_constellation(OffsetTuple.of([0, 2, 6]), 1, 2000).tolist()
consec = find_constellation(OffsetTuple.of([0, 2, 6]), 1, 2000, require_consecutive=True).tolist()
print(f"  all hits:        {plain}")
print(f"  consecutive only: {consec}")

print("\nwitnesses for every pair base with b2 <= 10 (tail start 9):")
for b2 in range(1, 11):
    w = additive_witness((0, b2), 9, 10**6)
    print(f"  {{0,{b2}}}: n = {w.n}, primes {list(w.prime_values)}, valid {w.validate()}")

print("\nwitnesses for a few triple bases:")
for base in [(0, 1, 2), (0, 2, 5), (0, 4, 9), (0, 7, 11)]:
    w = additive_witness(base, 9, 10**6)
    print(f"  {base}: case {w.case}, pattern {list(w.pattern.offsets)}, n = {w.n}")
