"""
Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as the
criteria complete.  Every check is exact; the stated time budgets are
asserted too.
"""

import random
import time

from arccalc.complexes import (
    homology,
    quotient_complex,
    verify_homotopy,
    verify_homotopy_sampled,
)
from arccalc.e1page import cancellation_report, d1_matrix, e1_skeleton
from arccalc.intmat import SparseIntMatrix, snf
from arccalc.ledger import (
    GLUINGS,
    EXCEPTION_CASES,
    TWISTED_MODES,
    check_orbit_set_exceptions,
    main_theorem_ledger,
    twisted_range,
)
from arccalc.perms import all_perms, boundary, compose, identity, rotation
from arccalc.ribbon import oracle_boundary_count
from arccalc.surfaces import (
    ArcClass,
    SurfaceType,
    boundary_of_neighborhood,
    cut_surface,
    realizable,
    simplex_genus,
)

from dense_snf import dense_invariant_factors


class _Criterion:
    def __init__(self, name, budget_s=None):
        self.name = name
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"{verdict} [{self.name}] ({elapsed:.2f}s)")
        if exc_type is None and self.budget_s is not None:
            assert elapsed < self.budget_s, (
                f"{self.name}: {elapsed:.2f}s exceeds budget {self.budget_s}s"
            )
        return False


def test_criterion_01_formula_trace_equivalence():
    with _Criterion("formula/trace equivalence, all words to degree 7", 30):
        for p in range(1, 8):
            for w in all_perms(p):
                for side in (1, 2):
                    a = ArcClass(w, side)
                    assert boundary_of_neighborhood(a) == oracle_boundary_count(w, side), a


def test_criterion_02_anchor_values():
    with _Criterion("anchor boundary counts of the 3-cycle word"):
        assert boundary_of_neighborhood(ArcClass((1, 2, 0), 1)) == 3
        assert boundary_of_neighborhood(ArcClass((1, 2, 0), 2)) == 5
        assert oracle_boundary_count((1, 2, 0), 1) == 3
        assert oracle_boundary_count((1, 2, 0), 2) == 5


def test_criterion_03_stabilizer_tables():
    two_circle = {
        (1, 0): lambda g, r: (g - 1, r + 1),
        (0, 1): lambda g, r: (g - 1, r + 1),
        (0, 2, 1): lambda g, r: (g - 1, r),
        (1, 2, 0): lambda g, r: (g - 2, r + 2),
    }
    one_circle = {
        (1, 0): lambda g, r: (g, r - 1),
        (0, 1): lambda g, r: (g - 1, r + 1),
        (0, 2, 1): lambda g, r: (g - 1, r),
        (1, 2, 0): lambda g, r: (g - 1, r),
        (0, 1, 2): lambda g, r: (g - 2, r + 2),
    }
    with _Criterion("stabilizer tables over the symbolic grid"):
        checked = 0
        for g in range(2, 9):
            for r in range(1, 7):
                for word, label in two_circle.items():
                    out = cut_surface(SurfaceType(g, r + 1), ArcClass(word, 2))
                    assert (out.g, out.r) == label(g, r), (word, 2, g, r)
                    checked += 1
                if r >= 2:  # the genus-raising move consumes two circles
                    for word, label in one_circle.items():
                        out = cut_surface(SurfaceType(g + 1, r - 1), ArcClass(word, 1))
                        assert (out.g, out.r) == label(g, r), (word, 1, g, r)
                        checked += 1
        assert checked == 7 * 6 * 4 + 7 * 5 * 5


def test_criterion_04_zero_genus_classification():
    with _Criterion("zero-genus words to degree 7", 10):
        for p in range(1, 8):
            rotations = set()
            cur = identity(p)
            for _ in range(p):
                rotations.add(cur)
                cur = compose(rotation(p), cur)
            for w in all_perms(p):
                assert (simplex_genus(ArcClass(w, 1)) == 0) == (w == identity(p))
                assert (simplex_genus(ArcClass(w, 2)) == 0) == (w in rotations)


def test_criterion_05_contracting_homotopy():
    with _Criterion("contraction identity: exhaustive to 6, 10^4 samples at 7 and 8"):
        assert verify_homotopy(6).ok
        for degree in (7, 8):
            rep = verify_homotopy_sampled(degree, 10_000, seed=degree)
            assert rep.checked == 10_000 and rep.ok


def test_criterion_06_quotient_exactness():
    with _Criterion("quotient exactness for genus 2..5, both sides", 300):
        for g in (2, 3, 4, 5):
            for side in (1, 2):
                top = g + side - 1
                c = quotient_complex(g, side, top + 1)
                for position in range(1, g - 2 + side + 1):
                    h = homology(c, position + 1)
                    assert h.betti == 0 and not h.torsion, (g, side, position)


def test_criterion_07_even_degree_correction():
    with _Criterion("twist word boundary equals identity boundary, even degrees"):
        for g in (2, 4, 6):
            tau = (2, 0, 1) + tuple(range(3, g + 1))
            assert boundary(tau) == boundary(identity(g + 1))


def test_criterion_08_d1_cancellation_columns():
    expected = {
        (0, 2, 1): {(1, 0): 1},
        (1, 2, 0): {(0, 1): 1},
        (0, 3, 2, 1): {(2, 1, 0): 1, (0, 2, 1): -1},
        (0, 2, 1, 3): {(1, 0, 2): 1, (0, 2, 1): -1},
        (0, 3, 1, 2): {(2, 0, 1): 1, (0, 1, 2): -1},
    }
    handled_rows = {(0, 2, 1), (1, 2, 0)}  # degree-3 columns pinned above
    with _Criterion("first-differential columns of the five marked words"):
        page = e1_skeleton(SurfaceType(6, 3), 1, 4)
        for word, want in expected.items():
            p = len(word)
            m = d1_matrix(page, p)
            src = [s.perm for s in page.column(p)].index(word)
            targets = [s.perm for s in page.column(p - 1)]
            col = {targets[i]: v for i, j, v in m.entries() if j == src}
            assert col == want, word
            assert cancellation_report(word) == want
            # the degree-3 columns are single surviving faces; the degree-4
            # columns are single once the rows handled separately are dropped
            projected = {w: v for w, v in col.items() if w not in handled_rows}
            assert len(projected) == 1 or word == (0, 3, 1, 2)


def test_criterion_09_exception_lists():
    with _Criterion("orbit-set exception lists", 1):
        for case in EXCEPTION_CASES:
            ok, computed = check_orbit_set_exceptions(case)
            assert ok, (case, computed)


def test_criterion_10_obligation_ledger():
    with _Criterion("stability obligations on the 50x20 grid", 10):
        obligations = main_theorem_ledger(50, 20)
        assert obligations and all(o.holds for o in obligations)
        for mode in TWISTED_MODES:
            for lm in GLUINGS:
                for n in range(0, 21):
                    for k in range(0, 21):
                        prev = False
                        held = False
                        for g in range(0, 51):
                            cur = twisted_range(mode, n, k, g, lm)
                            assert cur or not prev, (mode, lm, n, k, g)
                            prev = cur
                        if twisted_range("abs-iso", n, k, 50, lm):
                            assert twisted_range("abs-surj", n, k, 50, lm)


def test_criterion_11_snf_referee():
    with _Criterion("sparse SNF against dense elimination, 200 seeded matrices"):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 12)
            m = rng.randint(1, 12)
            dense = [
                [rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(m)]
                for _ in range(n)
            ]
            sparse = SparseIntMatrix.from_entries(
                n, m, ((i, j, v) for i, row in enumerate(dense) for j, v in enumerate(row) if v)
            )
            expected = tuple(dense_invariant_factors(dense))
            res = snf(sparse, want_transforms=True)
            assert res.invariant_factors == expected
            assert snf(sparse).invariant_factors == expected
            diagonal = SparseIntMatrix.from_entries(
                n, m, ((t, t, v) for t, v in enumerate(res.invariant_factors))
            )
            assert (res.U @ sparse @ res.V) == diagonal


def test_criterion_12_euler_ledgers():
    with _Criterion("euler bookkeeping, all words to degree 7 over the grid"):
        for p in range(1, 8):
            for w in all_perms(p):
                for side in (1, 2):
                    a = ArcClass(w, side)
                    s = simplex_genus(a)
                    assert 2 - 2 * s - boundary_of_neighborhood(a) == -p
                    for g in range(0, 7):
                        if not realizable(a, g):
                            continue
                        for r in range(side, 6):
                            amb = SurfaceType(g, r)
                            assert cut_surface(amb, a).euler_char == amb.euler_char + p
