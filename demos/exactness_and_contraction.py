#!/usr/bin/env python3
"""
Walkthrough: exactness of the permutation complex and its quotients.

The chain complex with one basis word per permutation is contractible: the
degree-raising map that prepends a fixed point is a contracting homotopy.
Restricting to realizable words at genus g keeps the complex exact in a
range growing with g, with a small parity-dependent correction at the top of
the range.  All homology here is computed over the integers via Smith normal
form, so the zero groups below are exact statements.
"""

from arccalc import (
    boundary,
    hat,
    homology,
    identity,
    perm_complex,
    quotient_complex,
    snf,
    verify_homotopy,
    verify_quotient_homotopy,
)
from arccalc.complexes import quotient_contraction

print("=== the full complex is exact ===")
c = perm_complex(6)
for d in range(2, 6):
    print(f"homology at degree {d}: {homology(c, d)}")
rep = verify_homotopy(6)
print(f"contraction identity on {rep.checked} words: ok={rep.ok}")

print()
print("=== boundary matrices have unit invariant factors ===")
m = c.boundary_matrix(5)
res = snf(m)
print(f"degree-5 boundary: {m}, rank {res.rank}, factors all 1: {set(res.invariant_factors) == {1}}")

print()
print("=== quotient complexes: exact in range, not beyond ===")
for g, side in [(2, 1), (3, 2), (5, 2)]:
    top = g + side - 1
    q = quotient_complex(g, side, top + 1)
    inside = [homology(q, d).trivial for d in range(2, top + 1)]
    print(f"genus {g}, side {side}: degrees 2..{top} trivial: {all(inside)}")
q = quotient_complex(2, 1, 5)
h = homology(q, 4)
print(f"genus 2, side 1, degree 4 (outside the range): betti {h.betti} (nontrivial)")

print()
print("=== the top-degree correction ===")
# prepending a fixed point to the top identity word escapes the quotient;
# the replacement is zero or the twist word, depending on parity
for g, side in [(2, 1), (3, 1)]:
    top = g + side - 1
    word = identity(top)
    lifted = hat(word)
    print(f"genus {g}, side {side}: top degree {top}, lifted identity {lifted}")
    tau = quotient_contraction(g, side, word)
    if tau is None:
        print(f"  replacement 0: identity boundary vanishes: {boundary(identity(top + 1)).is_zero()}")
    else:
        print(f"  replacement {tau}: boundaries agree: {boundary(tau) == boundary(identity(top + 1))}")
    rep = verify_quotient_homotopy(g, side)
    print(f"  lifted contraction on {rep.checked} words: ok={rep.ok}")
