#!/usr/bin/env python3
"""
Walkthrough: the bookkeeping layer of the stability arguments.

First pages are tables of stabilizer labels indexed by realizable words; the
first differential is the signed face-merge matrix.  The ledger replays the
inequality arithmetic of the induction over a finite grid, and the exception
lists locate the only parameters where the orbit sets fall short.
"""

from arccalc import (
    SurfaceType,
    cancellation_report,
    d1_matrix,
    e1_skeleton,
    main_theorem_ledger,
    orbit_set_exceptions,
    twisted_range,
)
from arccalc.cli import main

print("=== a first page ===")
# the table that `arccalc e1` prints: one row per summand, then the
# vanishing bound p + q <= 2g - 2 + side
main(["e1", "--ambient", "3,2", "--side", "1", "--max-p", "4", "--format", "table"])
page = e1_skeleton(SurfaceType(3, 2), 1, 4)

print()
print("=== first-differential columns and their cancellations ===")
for word in [(0, 2, 1), (1, 2, 0), (0, 3, 2, 1), (0, 2, 1, 3), (0, 3, 1, 2)]:
    survivors = cancellation_report(word)
    pretty = "  ".join(f"{c:+d}*{list(f)}" for f, c in sorted(survivors.items()))
    print(f"column of {list(word)}: {pretty}")
m = d1_matrix(page, 3)
print(f"d1 from column 3: {m}")

print()
print("=== the obligation ledger ===")
obligations = main_theorem_ledger(50, 20)
violated = [o for o in obligations if not o.holds]
print(f"{len(obligations)} inequality instances on the 50x20 grid, {len(violated)} violated")
sample = obligations[100]
print(f"sample: [{sample.claim}] {sample.params} -> {sample.inequality} ({sample.holds})")

print()
print("=== twisted stability thresholds ===")
for mode, lm in [("abs-iso-s01", None), ("abs-surj", (1, -1)), ("abs-iso", (1, 0))]:
    gs = [g for g in range(0, 12) if twisted_range(mode, 2, 1, g, lm)]
    print(f"{mode} (n=2, k=1): holds from genus {gs[0]}")

print()
print("=== where the orbit sets fall short ===")
for case in ("surj-s01", "surj-s11", "inj-s11"):
    tuples = orbit_set_exceptions(case)
    print(f"{case}: {[(t.lm, t.n, t.g, t.k) for t in tuples]}")
