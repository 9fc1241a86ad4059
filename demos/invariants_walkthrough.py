#!/usr/bin/env python3
"""
Walkthrough: from an endpoint-matching word to the surfaces it cuts out.

A system of p disjoint arcs joining two marked boundary points is recorded by
the permutation matching the arc order at one end to the order at the other,
plus a side flag (1: both points on one boundary circle, 2: on two).  This
script computes every invariant of the thickened system for a few words,
confirms the closed-form boundary count against the ribbon-graph trace, and
reproduces the stabilizer tables that drive the stability induction.
"""

from arccalc import (
    ArcClass,
    SurfaceType,
    boundary_of_neighborhood,
    cut_surface,
    oracle_boundary_count,
    realizable_perms,
    simplex_genus,
)

print("=== invariants of small arc systems ===")
for word, side in [((0,), 1), ((1, 0), 1), ((1, 2, 0), 1), ((1, 2, 0), 2), ((0, 2, 1), 2)]:
    a = ArcClass(word, side)
    nb = boundary_of_neighborhood(a)
    trace = oracle_boundary_count(a.perm, a.side)
    print(
        f"word {word} side {side}: thickening has {nb} boundary circles "
        f"(trace agrees: {trace == nb}), genus {simplex_genus(a)}"
    )

print()
print("=== realizability thresholds ===")
for g in (0, 1, 2):
    words = realizable_perms(3, 1, g)
    print(f"genus {g}, one circle: {len(words)}/6 degree-3 words realizable: {sorted(words)}")

print()
print("=== cutting along an arc system ===")
ambient = SurfaceType(5, 3)
a = ArcClass((1, 2, 0), 2)
cut = cut_surface(ambient, a)
print(f"cut {ambient} along {a.perm} (two circles) -> {cut}")
print(f"euler characteristic gains the arc count: {ambient.euler_char} + 3 = {cut.euler_char}")

print()
print("=== the two stabilizer tables of the induction ===")
g, r = 6, 4
print(f"boundary-add setup, ambient F({g},{r + 1}), two circles:")
for word in [(1, 0), (0, 1), (0, 2, 1), (1, 2, 0)]:
    label = cut_surface(SurfaceType(g, r + 1), ArcClass(word, 2))
    print(f"  {word} -> {label}")
print(f"genus-raise setup, ambient F({g + 1},{r - 1}), one circle:")
for word in [(1, 0), (0, 1), (0, 2, 1), (1, 2, 0), (0, 1, 2)]:
    label = cut_surface(SurfaceType(g + 1, r - 1), ArcClass(word, 1))
    print(f"  {word} -> {label}")
