#!/usr/bin/env python3
"""When the smoothness threshold sits between n/2 and n, the smooth numbers
are exactly the composites, and the composite tail splits as a sumset:

    composites on [9, X]  =  A + {0, 1, 3, 5},
    A = {n : none of n, n+1, n+3, n+5 is prime}.

This script rebuilds both sides from scratch and then asks the windowed
searcher to rediscover the part {0,1,3,5} with no hints.
"""

from decomplab import (
    IntegerSet,
    SmoothnessPolicy,
    composite_bits,
    decompose_search,
    smooth_set,
    verify_composite_decomposition,
)

LIMIT = 100_000

policy = SmoothnessPolicy.composites()
smooth = smooth_set(policy, 30)
print(f"smooth numbers up to 30 under the composites regime: {list(smooth)}")

report = verify_composite_decomposition(LIMIT)
print(f"\nexact cover check up to {LIMIT:,}:")
print(f"  composites in [9, {LIMIT:,}]: {report.composite_count:,}")
print(f"  covered by A + {{0,1,3,5}}:  {report.covered_count:,}")
print(f"  passed: {report.passed} (first mismatch: {report.first_mismatch})")

target = IntegerSet(composite_bits(9, LIMIT), 9, LIMIT)

print("\nsearching additive parts of size <= 3 with elements <= 50 ...")
small = decompose_search(target, "additive", max_b_size=3, max_b_elem=50)
print(f"  found: {[c.b for c in small]}  (expected none)")

print("searching additive parts of size <= 4 with elements <= 5 ...")
wide = decompose_search(target, "additive", max_b_size=4, max_b_elem=5)
for cand in wide:
    print(f"  part {cand.b}: complement has {len(cand.c)} elements, "
          f"verified on {cand.coverage_window}, re-check {cand.verify(target)}")
