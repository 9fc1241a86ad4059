import copy
import dataclasses
import pickle
import tracemalloc

import pytest

from arccalc import e1page, surfaces
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
    boundary_count,
    cut_surface,
    realizable_perms,
    simplex_genus,
)


def columns_of(page, p, m):
    """Each column of ``m`` as a ``{target word: value}`` dict."""
    targets = [s.perm for s in page.column(p - 1)]
    cols = [{} for _ in range(m.ncols)]
    for i, j, v in m.entries():
        cols[j][targets[i]] = v
    return cols


def column_of(page, p, word):
    col = [s.perm for s in page.column(p)].index(word)
    return columns_of(page, p, d1_matrix(page, p))[col]


def referee(page, p, m):
    """The d1 check by whole columns: each column dict equals its word's report."""
    reports = [e1page.cancellation_report(s.perm) for s in page.column(p)]
    return columns_of(page, p, m) == reports


class TestSkeleton:
    @pytest.mark.parametrize("side", [True, False, 0, 3])
    def test_a_side_outside_sides_raises(self, side):
        # True once made a page whose side read True
        with pytest.raises(ValueError, match="side must be 1 or 2"):
            e1_skeleton(SurfaceType(3, 2), side, 2)

    def test_summands_hold_byte_words_and_read_tuples(self):
        page = e1_skeleton(SurfaceType(3, 2), 1, 5)
        for p in range(1, 6):
            words = [s.word for s in page.column(p)]
            assert all(type(w) is bytes for w in words)
            assert [s.perm for s in page.column(p)] == [tuple(w) for w in words]
            assert [s.perm for s in page.column(p)] == list(realizable_perms(p, 1, 3))

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

    def test_equal_labels_are_one_object(self):
        page = e1_skeleton(SurfaceType(4, 2), 2, 6)
        labels = [s.stabilizer for p in range(1, 7) for s in page.column(p)]
        assert len({id(x) for x in labels}) == len(set(labels)) < len(labels)

    def test_summands_are_frozen_and_round_trip(self):
        s = e1_skeleton(SurfaceType(4, 2), 2, 3).column(3)[1]
        for copied in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
            assert copied == s and hash(copied) == hash(s)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.genus = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.stabilizer.g = 0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            e1_skeleton(SurfaceType(1, 2), 1, 3)
        with pytest.raises(ValueError):
            e1_skeleton(SurfaceType(3, 1), 2, 3)
        with pytest.raises(ValueError):
            e1_skeleton(SurfaceType(3, 1), 1, 0)

    def test_max_p_over_the_cap_raises_before_enumerating(self, monkeypatch):
        # a column over the cap would count all of S_9 or more
        def unreachable(*args):
            pytest.fail("the genus pass ran for a max_p over the cap")

        monkeypatch.setattr(e1page, "_genera", unreachable)
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
        assert cancellation_report(b"\0") == {}

    def test_a_byte_word_gets_the_same_report_with_byte_keys(self):
        for p in range(1, 7):
            for w in all_perms(p):
                got = cancellation_report(bytes(w))
                assert all(type(f) is bytes for f in got), w
                assert {tuple(f): c for f, c in got.items()} == cancellation_report(w), w

    @pytest.mark.parametrize("word", [(0, 5, 1), (0, 0), (2, 1, 0, 0), ()])
    def test_a_word_that_is_not_a_permutation_raises(self, word):
        # (0, 5, 1) had faces that are not words, and the others had no
        # faces at all, which an empty column passed vacuously
        with pytest.raises(ValueError, match="not a permutation word"):
            cancellation_report(word)

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

    def test_d1_check_agrees_with_the_column_referee(self):
        page = e1_skeleton(SurfaceType(4, 2), 2, 7)
        for p in range(2, 8):
            m = d1_matrix(page, p)
            assert d1_follows_cancellation(page, p, m)
            assert referee(page, p, m)

    def test_matches_d1_column(self):
        page = e1_skeleton(SurfaceType(6, 2), 1, 5)
        for p in range(2, 6):
            for s in page.column(p):
                col = column_of(page, p, s.perm)
                assert col == cancellation_report(s.perm)


class TestStreamedCheck:
    """Changes to a d1 matrix that a check of one pass and a count must catch."""

    # column 4 of this page is a proper subset of S_4
    P = 5

    @pytest.fixture
    def page(self):
        return e1_skeleton(SurfaceType(3, 2), 1, self.P)

    @staticmethod
    def free_column(m, i):
        """A column without an entry in row ``i``."""
        return next(j for j in range(m.ncols) if j not in m._rows[i])

    def rejects(self, page, m):
        assert not d1_follows_cancellation(page, self.P, m)
        assert not referee(page, self.P, m)

    def test_a_dropped_entry(self, page):
        m = d1_matrix(page, self.P)
        _, *rest = m.entries()
        self.rejects(page, SparseIntMatrix.from_entries(m.nrows, m.ncols, rest))

    def test_an_extra_entry_in_a_row_the_column_touches(self, page):
        m = d1_matrix(page, self.P)
        (i, j, v), *rest = m.entries()
        extra = (i, self.free_column(m, i), 1)
        self.rejects(page, SparseIntMatrix.from_entries(m.nrows, m.ncols, [(i, j, v), *rest, extra]))

    def test_an_entry_moved_to_another_column(self, page):
        m = d1_matrix(page, self.P)
        (i, j, v), *rest = m.entries()
        moved = SparseIntMatrix.from_entries(m.nrows, m.ncols, [*rest, (i, self.free_column(m, i), v)])
        assert moved.nnz == m.nnz
        self.rejects(page, moved)

    def test_a_reported_face_outside_the_targets(self, page, monkeypatch):
        targets = {s.perm for s in page.column(self.P - 1)}
        outside = next(w for w in all_perms(self.P - 1) if w not in targets)
        report = e1page.cancellation_report
        # the face is added in the kind of word asked about: bytes from the
        # check, tuples from the referee
        monkeypatch.setattr(e1page, "cancellation_report", lambda w: {**report(w), type(w)(outside): 1})
        self.rejects(page, d1_matrix(page, self.P))


def test_d1_check_holds_a_fraction_of_the_matrix():
    # the check streams over the source words; a transpose of the matrix
    # into column dicts held 1.22 times the matrix
    page = e1_skeleton(SurfaceType(4, 2), 2, 7)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        m = d1_matrix(page, 7)
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert d1_follows_cancellation(page, 7, m)
        scratch = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert scratch <= held / 4, (scratch, held)


def test_column_genus_recorded():
    page = e1_skeleton(SurfaceType(3, 2), 1, 3)
    for p in range(1, 4):
        for s in page.column(p):
            assert s.genus == simplex_genus(ArcClass(s.perm, 1))


def test_skeleton_counts_each_word_once(monkeypatch):
    # one boundary count per word of S_1..S_7, also in the columns where
    # every word is realizable: 1! + ... + 7! = 5913
    counted = []

    def counting(perm, side):
        counted.append(perm)
        return boundary_count(perm, side)

    monkeypatch.setattr(surfaces, "boundary_count", counting)
    e1_skeleton(SurfaceType(4, 2), 2, 7)
    assert len(counted) == 5913
    assert len(set(counted)) == 5913


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
