import pytest

from arccalc import e1page
from arccalc.e1page import (
    cancellation_report,
    d1_follows_cancellation,
    d1_matrix,
    e1_skeleton,
    quotient_boundary_matrix,
)
from arccalc.intmat import SparseIntMatrix
from arccalc.perms import all_perms, boundary
from arccalc.surfaces import (
    ArcClass,
    SurfaceType,
    _neighborhood_boundary,
    cut_surface,
    realizable_perms,
    simplex_genus,
)


def column_of(page, p, word):
    m = d1_matrix(page, p)
    col = [s.perm for s in page.column(p)].index(word)
    targets = [s.perm for s in page.column(p - 1)]
    return {targets[i]: v for i, j, v in m.entries() if j == col}


class TestSkeleton:
    def test_vanishing_bound(self):
        assert e1_skeleton(SurfaceType(3, 2), 1, 1).vanishing_bound == 5
        assert e1_skeleton(SurfaceType(2, 2), 2, 1).vanishing_bound == 4

    def test_column_2_boundary_add(self):
        # ambient (g, r+1) with two marked circles
        page = e1_skeleton(SurfaceType(6, 5), 2, 2)
        labels = {s.perm: s.stabilizer for s in page.column(2)}
        assert labels == {
            (0, 1): SurfaceType(5, 5),
            (1, 0): SurfaceType(5, 5),
        }

    def test_column_2_genus_raise(self):
        # ambient (g+1, r-1) with one marked circle
        page = e1_skeleton(SurfaceType(7, 3), 1, 2)
        labels = {s.perm: s.stabilizer for s in page.column(2)}
        assert labels == {
            (0, 1): SurfaceType(5, 5),
            (1, 0): SurfaceType(6, 3),
        }

    def test_summand_count_matches_realizable(self):
        page = e1_skeleton(SurfaceType(2, 2), 1, 5)
        for p in range(1, 6):
            assert len(page.column(p)) == len(realizable_perms(p, 1, 2))

    def test_euler_identity_of_labels(self):
        for g in (2, 3, 4):
            for side in (1, 2):
                amb = SurfaceType(g, 3)
                page = e1_skeleton(amb, side, 5)
                for p in range(1, 6):
                    for s in page.column(p):
                        assert s.stabilizer.euler_char == amb.euler_char + p

    def test_preconditions(self):
        with pytest.raises(ValueError):
            e1_skeleton(SurfaceType(1, 2), 1, 3)
        with pytest.raises(ValueError):
            e1_skeleton(SurfaceType(3, 1), 2, 3)
        with pytest.raises(ValueError):
            e1_skeleton(SurfaceType(3, 1), 1, 0)

    def test_max_p_over_the_cap_raises_before_enumerating(self, monkeypatch):
        # a column over the cap would filter all of S_9 or more
        def unreachable(*args):
            pytest.fail("realizable_perms called for a max_p over the cap")

        monkeypatch.setattr(e1page, "realizable_perms", unreachable)
        with pytest.raises(ValueError, match="max_p"):
            e1_skeleton(SurfaceType(4, 2), 2, 9)


class TestD1:
    def test_equals_quotient_boundary(self):
        for g in (2, 3, 4, 5):
            for side in (1, 2):
                page = e1_skeleton(SurfaceType(g, 2), side, 6)
                for p in range(2, 7):
                    assert d1_matrix(page, p) == quotient_boundary_matrix(page, p)

    def test_squares_to_zero(self):
        page = e1_skeleton(SurfaceType(3, 2), 1, 5)
        for p in range(2, 5):
            assert (d1_matrix(page, p) @ d1_matrix(page, p + 1)).is_zero()

    def test_needs_p_at_least_2(self):
        page = e1_skeleton(SurfaceType(3, 2), 1, 3)
        with pytest.raises(ValueError):
            d1_matrix(page, 1)

    def test_named_columns(self):
        page = e1_skeleton(SurfaceType(5, 2), 1, 4)
        assert column_of(page, 3, (0, 2, 1)) == {(1, 0): 1}
        assert column_of(page, 3, (1, 2, 0)) == {(0, 1): 1}
        assert column_of(page, 4, (0, 3, 2, 1)) == {(2, 1, 0): 1, (0, 2, 1): -1}
        assert column_of(page, 4, (0, 2, 1, 3)) == {(1, 0, 2): 1, (0, 2, 1): -1}
        assert column_of(page, 4, (0, 3, 1, 2)) == {(2, 0, 1): 1, (0, 1, 2): -1}

    def test_degree_4_source_labels(self):
        # the four named degree-4 sources all carry the same stabilizer
        # label, one genus and one circle below the degree-3 targets
        g, r = 6, 3
        page = e1_skeleton(SurfaceType(g + 1, r - 1), 1, 4)
        labels = {s.perm: s.stabilizer for s in page.column(4)}
        for word in [(1, 2, 3, 0), (0, 3, 2, 1), (0, 2, 1, 3), (0, 3, 1, 2)]:
            assert labels[word] == SurfaceType(g - 2, r + 1), word

    def test_identity_column_parity(self):
        page = e1_skeleton(SurfaceType(6, 2), 2, 5)
        for p in (3, 5):
            expected = {tuple(range(p - 1)): 1} if p % 2 else {}
            assert column_of(page, p, tuple(range(p))) == expected
        assert column_of(page, 4, (0, 1, 2, 3)) == {}


class TestCancellation:
    def test_named_examples(self):
        assert cancellation_report((0, 2, 1)) == {(1, 0): 1}
        assert cancellation_report((1, 2, 0)) == {(0, 1): 1}
        assert cancellation_report((0, 3, 2, 1)) == {(0, 2, 1): -1, (2, 1, 0): 1}
        assert cancellation_report((0, 2, 1, 3)) == {(0, 2, 1): -1, (1, 0, 2): 1}
        assert cancellation_report((0, 3, 1, 2)) == {(0, 1, 2): -1, (2, 0, 1): 1}

    def test_matches_boundary_terms_exhaustively(self):
        for p in range(2, 6):
            for w in all_perms(p):
                assert cancellation_report(w) == boundary(w).coeffs, w

    def test_single_arc_has_no_faces(self):
        assert cancellation_report((0,)) == {}

    def test_d1_check_catches_a_changed_entry(self):
        page = e1_skeleton(SurfaceType(3, 2), 1, 4)
        for p in (3, 4):
            m = d1_matrix(page, p)
            assert d1_follows_cancellation(page, p, m)
            (i, j, v), *rest = m.entries()
            changed = SparseIntMatrix.from_entries(m.nrows, m.ncols, [(i, j, -v), *rest])
            assert not d1_follows_cancellation(page, p, changed)

    def test_d1_check_rejects_extra_rows(self):
        page = e1_skeleton(SurfaceType(3, 2), 1, 3)
        m = d1_matrix(page, 3)
        padded = SparseIntMatrix.from_entries(m.nrows + 5, m.ncols, m.entries())
        assert not d1_follows_cancellation(page, 3, padded)
        # an entry in an extra row is not a face of any target word
        extra = SparseIntMatrix.from_entries(m.nrows + 5, m.ncols, [*m.entries(), (m.nrows + 2, 0, 1)])
        assert not d1_follows_cancellation(page, 3, extra)

    def test_matches_d1_column(self):
        page = e1_skeleton(SurfaceType(6, 2), 1, 5)
        for p in range(2, 6):
            for s in page.column(p):
                col = column_of(page, p, s.perm)
                assert col == cancellation_report(s.perm)


def test_column_genus_recorded():
    page = e1_skeleton(SurfaceType(3, 2), 1, 3)
    for p in range(1, 4):
        for s in page.column(p):
            assert s.genus == simplex_genus(ArcClass(s.perm, 1))


def test_labels_read_each_boundary_count_once_uncached():
    ambient = SurfaceType(4, 2)
    _neighborhood_boundary.cache_clear()
    page = e1_skeleton(ambient, 2, 6)
    assert _neighborhood_boundary.cache_info().currsize == 0
    # the labels agree with the ArcClass route, which goes through the cache
    for p in range(1, 7):
        for s in page.column(p):
            a = ArcClass(s.perm, 2)
            assert s.genus == simplex_genus(a)
            assert s.stabilizer == cut_surface(ambient, a)
