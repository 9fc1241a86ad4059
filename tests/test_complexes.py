import gc
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
import weakref
from functools import cache
from math import factorial

import pytest

import arccalc
from arccalc import complexes, surfaces
from arccalc.complexes import (
    complement_report,
    exactness_report,
    face_matrix,
    homology,
    perm_complex,
    quotient_complex,
    quotient_contraction,
    verify_homotopy,
    verify_homotopy_sampled,
    verify_quotient_homotopy,
)
from arccalc.intmat import SparseIntMatrix, _unit_echelon, snf
from arccalc.perms import FormalSum, all_perms, boundary, cofaces, faces, hat, identity
from arccalc.surfaces import (
    _genus_levels,
    _neighborhood_boundary,
    _realizable,
    _word_genus,
    boundary_count,
    realizable_perms,
)


class TestConstruction:
    def test_perm_complex_dimensions(self):
        c = perm_complex(4)
        assert [c.dimension(d) for d in range(1, 5)] == [1, 2, 6, 24]

    def test_quotient_excludes_low_genus_words(self):
        c = quotient_complex(2, 1, 4)
        assert identity(4) not in c.basis(4)
        assert c.dimension(4) < 24

    def test_quotient_full_below_threshold(self):
        for g in (2, 3, 4):
            for side in (1, 2):
                c = quotient_complex(g, side, 6)
                for p in range(1, 7):
                    if p <= g - 1 + side:
                        assert c.basis(p) == tuple(all_perms(p))

    def test_boundary_squares_to_zero(self):
        for c in (perm_complex(7), quotient_complex(3, 2, 7)):
            for d in range(c.min_degree + 2, c.max_degree + 1):
                assert (c.boundary_matrix(d - 1) @ c.boundary_matrix(d)).is_zero(), d

    def test_quotient_needs_genus_2(self):
        with pytest.raises(ValueError):
            quotient_complex(1, 1)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            perm_complex(9)

    def test_face_outside_index_raises(self):
        assert face_matrix([(0, 2, 1)], [(0, 1), (1, 0)]).to_dense() == [[0], [1]]
        with pytest.raises(ValueError, match=r"face \(1, 0\) of \(0, 2, 1\)"):
            face_matrix([(0, 2, 1)], [(0, 1)])

    def test_words_of_another_degree_raise(self):
        targets = [(0, 1), (1, 0)]
        with pytest.raises(ValueError):
            face_matrix([(0, 2, 1), (1, 0)], targets)
        with pytest.raises(ValueError):
            face_matrix([(0, 2, 1)], [*targets, (0,)])
        with pytest.raises(ValueError):
            face_matrix([(0, 2, 2)], targets)

    def test_a_column_that_is_not_a_permutation_is_named(self):
        # a repeated value makes a short face, an entry from k on stays out
        # of range in a face, and an entry over 255 makes no byte word
        targets = [(0, 1), (1, 0)]
        for bad in ((0, 2, 2), (0, 1, 3), (0, 1, 300)):
            with pytest.raises(ValueError, match=re.escape(str(bad))):
                face_matrix([(0, 2, 1), bad], targets)

    def test_targets_that_are_not_permutations_raise(self):
        # every face is among the targets, so only the bad word can raise
        for bad in ((1, 1), (0, 2), (2, 0)):
            with pytest.raises(ValueError, match="not a permutation word"):
                face_matrix([(0, 2, 1)], [(0, 1), (1, 0), bad])

    def test_a_repeated_target_raises(self):
        # a repeated word would leave one of its rows empty for good
        with pytest.raises(ValueError, match="repeated"):
            face_matrix([(0, 2, 1)], [(0, 1), (1, 0), (0, 1)])

    def test_face_matrix_names_byte_words_as_tuples(self):
        targets = [b"\0\1", b"\1\0"]
        cases = [
            ([b"\0\2\2"], targets, "face (1, 1) of (0, 2, 2) is outside"),
            ([b"\0\2\1", b"\1\0"], targets, "(1, 0) is not a permutation word of degree 3"),
            ([b"\0\2\1"], [*targets, b"\1\1"], "target (1, 1) is not a permutation word"),
            ([b"\0\2\1"], [*targets, b"\0\1"], "target (0, 1) is repeated"),
        ]
        for words, targets_, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)) as info:
                face_matrix(words, targets_)
            assert "b'" not in str(info.value)

    def test_a_list_changed_after_construction_changes_nothing(self):
        # each degree is held as a tuple: appending to the caller's list
        # changes neither the dimension nor the boundary matrix
        twos = [(0, 1)]
        c = complexes.ChainComplex({1: [(0,)], 2: twos})
        twos.append((1, 0))
        assert c.dimension(2) == 1 and c.basis(2) == ((0, 1),)
        assert c.boundary_matrix(2).to_dense() == [[0]]
        held = tuple(map(bytes, all_perms(3)))
        assert complexes.ChainComplex({3: held})._bases[3] is held

    def test_an_empty_complex_is_named(self):
        with pytest.raises(ValueError, match="at least one degree"):
            complexes.ChainComplex({})

    def test_a_bool_side_raises(self):
        with pytest.raises(ValueError, match="side must be 1 or 2"):
            quotient_complex(2, True, 3)

    def test_basis_is_lex_sorted(self):
        c = quotient_complex(2, 2, 5)
        for d in range(1, 6):
            assert list(c.basis(d)) == sorted(c.basis(d))


def referee_face_matrix(words, targets):
    """
    The face matrix from faces made here, by deleting an entry of a tuple and
    lowering each value above it by 1: a referee that shares no code with
    :func:`arccalc.perms.faces`, which :func:`face_matrix` reads.
    """
    row = {w: i for i, w in enumerate(targets)}
    return SparseIntMatrix.from_entries(
        len(targets),
        len(words),
        (
            (row[tuple(x - (x > v) for x in w[:j] + w[j + 1:])], c, (-1) ** j)
            for c, w in enumerate(words)
            for j, v in enumerate(w)
        ),
    )


class TestByteBases:
    """The library's complexes hold byte words and read them out as tuples."""

    @staticmethod
    def held_as_bytes(c):
        return all(type(w) is bytes for d in range(c.min_degree, c.max_degree + 1) for w in c._bases[d])

    def test_perm_complex(self):
        c = perm_complex(7)
        assert self.held_as_bytes(c)
        for d in range(1, 8):
            assert c.basis(d) == tuple(all_perms(d))
            assert c.dimension(d) == len(c.basis(d))

    @pytest.mark.parametrize("side", [1, 2])
    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_quotient_complex(self, g, side):
        c = quotient_complex(g, side, 7)
        assert self.held_as_bytes(c)
        for d in range(1, 8):
            assert c.basis(d) == realizable_perms(d, side, g)
            assert c.dimension(d) == len(c.basis(d))


class TestFaceRanks:
    """A face's row is its rank, that is its position, in the target basis."""

    @pytest.mark.parametrize(
        "d, g, side",
        [*((d, None, None) for d in range(2, 9)), (7, 3, 1), (8, 4, 2)],
        ids=[*(f"S{d}" for d in range(2, 9)), "g3-side1-d7", "g4-side2-d8"],
    )
    def test_any_column_order_and_any_index(self, d, g, side):
        # every word of S_2..S_8 and of two quotients, the columns reversed
        # and the targets shuffled: a column's faces come from its word,
        # never from its position
        if g is None:
            words, targets = list(all_perms(d)), list(all_perms(d - 1))
        else:
            words, targets = list(realizable_perms(d, side, g)), list(realizable_perms(d - 1, side, g))
        words.reverse()
        random.Random(d).shuffle(targets)
        got = face_matrix(words, targets)
        assert sorted(got.entries()) == sorted(referee_face_matrix(words, targets).entries())


class TestStreamedColumns:
    """``face_matrix`` reads its columns from any iterable, once."""

    @pytest.mark.parametrize(
        "d, g, side",
        [*((d, None, None) for d in range(2, 7)), (6, 3, 1)],
        ids=[*(f"S{d}" for d in range(2, 7)), "g3-side1-d6"],
    )
    def test_a_generator_gives_the_matrix_of_the_tuple(self, d, g, side):
        if g is None:
            words, targets = tuple(map(bytes, all_perms(d))), tuple(map(bytes, all_perms(d - 1)))
        else:
            words, targets = realizable_perms(d, side, g), realizable_perms(d - 1, side, g)
        streamed = face_matrix((w for w in words), targets)
        assert streamed == face_matrix(words, targets)
        assert (streamed.nrows, streamed.ncols) == (len(targets), len(words))

    def test_an_empty_generator_gives_no_columns(self):
        m = face_matrix((w for w in ()), [(0, 1), (1, 0)])
        assert (m.nrows, m.ncols) == (2, 0)
        assert m.is_zero()

    @pytest.mark.parametrize(
        "words",
        [
            [(0,)],
            [(0, 2, 2)],
            [(0, 2, 1), (1, 0)],
            [(0, 2, 1), (0, 1, 300)],
            [b"\0\2\1", b"\0\2\2"],
        ],
        ids=["first-short", "first-repeated", "later-short", "later-over-255", "later-bytes"],
    )
    def test_a_bad_column_raises_the_text_of_the_tuple(self, words):
        targets = [(0, 1), (1, 0)]
        with pytest.raises(ValueError) as from_tuple:
            face_matrix(tuple(words), targets)
        with pytest.raises(ValueError) as from_generator:
            face_matrix((w for w in words), targets)
        assert str(from_generator.value) == str(from_tuple.value)


def emptied(m, rows):
    """``m`` with the given rows emptied."""
    return SparseIntMatrix.from_entries(m.nrows, m.ncols, ((i, j, v) for i, j, v in m.entries() if i not in rows))


class TestSkippedRows:
    """``face_matrix`` leaves the rows in ``skip_rows`` empty, and checks every face."""

    @pytest.mark.parametrize(
        "d, g, side",
        [*((d, None, None) for d in range(2, 8)), (7, 3, 1), (7, 4, 2)],
        ids=[*(f"S{d}" for d in range(2, 8)), "g3-side1-d7", "g4-side2-d7"],
    )
    def test_the_full_matrix_with_those_rows_emptied(self, d, g, side):
        if g is None:
            words, targets = tuple(map(bytes, all_perms(d))), tuple(map(bytes, all_perms(d - 1)))
        else:
            words, targets = realizable_perms(d, side, g), realizable_perms(d - 1, side, g)
        full = face_matrix(words, targets)
        # a third of the rows at random, and the lead columns of the boundary
        # below, the rows a cleared reduction skips
        skips = [frozenset(random.Random(d).sample(range(len(targets)), len(targets) // 3))]
        if d > 2:
            below = realizable_perms(d - 2, side, g) if g is not None else tuple(all_perms(d - 2))
            skips.append(snf(face_matrix(targets, below)).unit_pivot_columns)
        for skip in skips:
            got = face_matrix(words, targets, skip_rows=skip)
            assert got == emptied(full, skip)
            assert all(got._rows[i] == {} for i in skip)
            assert snf(got, skip_rows=skip) == snf(full, skip_rows=skip)

    @pytest.mark.parametrize("d", [3, 6])
    def test_an_empty_set_gives_the_whole_matrix(self, d):
        words, targets = list(all_perms(d)), list(all_perms(d - 1))
        got = face_matrix(words, targets, skip_rows=frozenset())
        assert got == face_matrix(words, targets)
        assert sorted(got.entries()) == sorted(referee_face_matrix(words, targets).entries())

    def test_every_row_skipped_gives_a_zero_matrix_of_the_same_shape(self):
        targets = tuple(all_perms(4))
        m = face_matrix(all_perms(5), targets, skip_rows=frozenset(range(len(targets))))
        assert (m.nrows, m.ncols) == (24, 120)
        assert m.is_zero()

    @pytest.mark.parametrize(
        "words, targets, skip",
        [
            ([(0, 2, 1)], [(0, 1)], {0}),
            ([(0, 1, 2), (0, 2, 1)], [(0, 1)], {0}),
            ([b"\0\1\2", b"\0\2\1"], [b"\0\1"], {0}),
        ],
        ids=["only-row-skipped", "later-column", "bytes"],
    )
    def test_a_missing_face_raises_the_same_message_when_rows_are_skipped(self, words, targets, skip):
        with pytest.raises(ValueError) as whole:
            face_matrix(words, targets)
        with pytest.raises(ValueError) as skipped:
            face_matrix(words, targets, skip_rows=frozenset(skip))
        assert str(skipped.value) == str(whole.value)
        assert "face (1, 0) of (0, 2, 1) is outside the target basis" in str(skipped.value)

    @pytest.mark.parametrize("words", [[(0, 2, 1)], (w for w in ())], ids=["words", "no-words"])
    @pytest.mark.parametrize("bad", [-1, 2, 7])
    def test_a_skip_row_outside_the_targets_raises(self, words, bad):
        with pytest.raises(ValueError, match=re.escape(f"skip rows [{bad}] are outside range(2)")):
            face_matrix(words, [(0, 1), (1, 0)], skip_rows=frozenset({0, bad}))


def complement_basis(p, side, g):
    """The non-realizable words of degree ``p`` at genus ``g``, from the coface levels."""
    *_, level = _genus_levels(p - g - side, side, p)
    return tuple(w for w, s in level if not _realizable(w, side, g, s))


def in_quotient(side, g):
    """The membership test of the quotient complex at genus ``g``, on byte words."""
    return lambda w: _realizable(w, side, g, _word_genus(w, side))


class TestRelativeFaces:
    """``face_matrix`` with ``relative_to`` drops the faces in the subcomplex, and checks each."""

    @pytest.mark.parametrize("d, g, side", [(6, 3, 1), (7, 4, 1), (7, 4, 2)])
    def test_the_relative_boundary_is_the_full_one_on_the_complement(self, d, g, side):
        # the rows of the boundary of S_d at the non-realizable words of
        # degree d - 1, on the columns at those of degree d
        words, targets = complement_basis(d, side, g), complement_basis(d - 1, side, g)
        assert words and targets
        full = face_matrix(map(bytes, all_perms(d)), tuple(map(bytes, all_perms(d - 1))))
        row = {w: i for i, w in enumerate(map(bytes, all_perms(d - 1)))}
        col = {w: j for j, w in enumerate(map(bytes, all_perms(d)))}
        got = face_matrix(words, targets, relative_to=in_quotient(side, g))
        assert got.to_dense() == [[full._rows[row[t]].get(col[w], 0) for w in words] for t in targets]

    def test_the_test_is_asked_only_of_faces_outside_the_targets(self):
        asked = []

        def realizable(f):
            asked.append(f)
            return True

        m = face_matrix([(0, 2, 1)], [(1, 0)], relative_to=realizable)
        assert m.to_dense() == [[1]]
        assert asked == [b"\0\1", b"\0\1"]

    @pytest.mark.parametrize("words", [[(0, 2, 1)], [b"\0\2\1"]], ids=["tuple", "bytes"])
    def test_a_face_outside_both_sets_raises(self, words):
        with pytest.raises(ValueError, match=re.escape("face (0, 1) of (0, 2, 1) is outside the target basis")):
            face_matrix(words, [(1, 0)], relative_to=lambda f: False)


class TestHomology:
    def test_full_complex_is_exact(self):
        c = perm_complex(7)
        for d in range(2, 7):
            h = homology(c, d)
            assert h.trivial, (d, h)

    def test_full_ranks_count_the_contraction_pairs(self):
        # hat pairs each word whose leading run of fixed points has even
        # length with a word one degree up, through a unit incidence, so
        # rank d_{d+1} is the number of such words in S_d
        def leading_run(word):
            return next((i for i, x in enumerate(word) if x != i), len(word))

        c = perm_complex(7)
        counts = []
        for d in range(1, 7):
            res = snf(c.boundary_matrix(d + 1))
            assert all(f == 1 for f in res.invariant_factors)
            assert res.rank == sum(leading_run(w) % 2 == 0 for w in all_perms(d))
            counts.append(res.rank)
        assert counts == [0, 2, 4, 20, 100, 620]

    def test_single_degree_betti_is_dimension(self):
        from arccalc.complexes import ChainComplex

        c = ChainComplex({3: tuple(all_perms(3))})
        assert homology(c, 3).betti == 6

    def test_explicit_zero_matrices(self):
        # both faces of a degree-2 word are (0,), with opposite signs, so the
        # one boundary matrix of the complex on S_1, S_2 is zero
        c = perm_complex(2)
        assert c.boundary_matrix(2).is_zero()
        assert homology(c, 1).betti == 1
        assert homology(c, 2).betti == 2

    def test_missing_degree_rejected(self):
        c = perm_complex(4)
        with pytest.raises(ValueError):
            homology(c, 0)
        with pytest.raises(ValueError):
            homology(c, 5)

    def test_rank_bound(self):
        c = quotient_complex(3, 1, 6)
        for d in range(2, 6):
            r_out = snf(c.boundary_matrix(d)).rank
            r_in = snf(c.boundary_matrix(d + 1)).rank
            assert r_out + r_in <= c.dimension(d)

    def test_quotient_exact_in_guaranteed_range(self):
        # exactness at chain positions 1..g-2+side, i.e. word degrees
        # 2..g-1+side
        for g in (2, 3):
            for side in (1, 2):
                c = quotient_complex(g, side, min(7, g + side + 1))
                for d in range(2, g + side):
                    assert homology(c, d).trivial, (g, side, d)

    def test_betti_nonzero_outside_range(self):
        # just past the guaranteed range the quotient is no longer exact
        report = exactness_report(2, 1, 6)
        outside = {r["degree"]: r for r in report if not r["guaranteed"]}
        assert not outside[4]["trivial"]

    @pytest.mark.parametrize("max_degree", [1, 2])
    def test_report_checking_no_degree_raises(self, max_degree):
        with pytest.raises(ValueError):
            exactness_report(2, 1, max_degree)

    def test_report_json_fields(self):
        rows = exactness_report(2, 2, 5)
        assert {"degree", "betti", "torsion", "trivial", "guaranteed"} <= set(rows[0])


def rank_gf2(m):
    """
    Rank over GF(2), sharing no code with ``snf``: each row is one int
    bitmask of its odd entries, reduced by XOR against the kept row with the
    same lowest set bit until it is zero or has a new lowest bit.
    """
    masks = [0] * m.nrows
    for i, j, v in m.entries():
        if v % 2:
            masks[i] |= 1 << j
    kept = {}
    for row in masks:
        while row:
            low = row & -row
            if low not in kept:
                kept[low] = row
                break
            row ^= kept[low]
    return len(kept)


@cache
def through_degree_7(g, side):
    """The quotient complex at ``g, side`` to degree 7, or the full one for ``g`` of None."""
    return perm_complex(7) if g is None else quotient_complex(g, side, 7)


THROUGH_DEGREE_7 = [pytest.param(None, None, id="full")] + [
    pytest.param(g, side, id=f"g{g}-s{side}") for g in range(2, 8) for side in (1, 2)
]


def check_cleared(c, d):
    """
    ``∂_{d+1}`` cleared by the unit pivots of ``∂_d`` has the invariant
    factors of ``∂_{d+1}``; every pivot of ``∂_d`` is a unit, so the columns
    offered for clearing number its rank.  Returns how many rows were
    skipped and the cleared result.
    """
    out = snf(c.boundary_matrix(d))
    assert len(out.unit_pivot_columns) == out.rank
    b = c.boundary_matrix(d + 1)
    cleared = snf(b, skip_rows=out.unit_pivot_columns)
    assert cleared.invariant_factors == snf(b).invariant_factors
    return out.rank, cleared


def check_gf2_rank(m, res):
    assert rank_gf2(m) == res.rank - sum(f % 2 == 0 for f in res.invariant_factors)


class TestClearing:
    @pytest.mark.parametrize("g, side", THROUGH_DEGREE_7)
    def test_no_boundary_matrix_falls_back(self, g, side):
        # every lead of the unit echelon is a unit, whole and cleared as
        # homology clears it, so the clearing and GF(2) tests below run it
        c = through_degree_7(g, side)
        cleared = frozenset()
        for d in range(2, 8):
            m = c.boundary_matrix(d)
            assert _unit_echelon(m, frozenset()) is not None, d
            res = _unit_echelon(m, cleared)
            assert res is not None, d
            cleared = res.unit_pivot_columns

    @pytest.mark.parametrize("g, side", THROUGH_DEGREE_7)
    def test_cleared_factors_equal_the_full_ones(self, g, side):
        c = through_degree_7(g, side)
        for d in range(2, 7):
            check_cleared(c, d)

    @pytest.mark.parametrize("g, side", THROUGH_DEGREE_7)
    def test_gf2_rank_referees_the_cleared_ranks(self, g, side):
        # the ranks homology uses: each matrix cleared by the one below it
        c = through_degree_7(g, side)
        cleared = frozenset()
        for d in range(2, 8):
            m = c.boundary_matrix(d)
            res = snf(m, skip_rows=cleared)
            check_gf2_rank(m, res)
            cleared = res.unit_pivot_columns

    @pytest.mark.parametrize("g, side", [(4, 1), (7, 2)])
    def test_degree_8_cleared_to_full_row_rank(self, g, side):
        c = quotient_complex(g, side, 8)
        skipped, res = check_cleared(c, 7)
        m = c.boundary_matrix(8)
        assert res.rank == m.nrows - skipped
        check_gf2_rank(m, res)

    @pytest.mark.parametrize(
        "g, side",
        [
            pytest.param(None, None, id="full"),
            pytest.param(3, 1, id="g3-s1"),
            pytest.param(4, 2, id="g4-s2"),
        ],
    )
    def test_homology_leaves_the_boundary_matrices_as_built(self, g, side):
        # snf shares its rows with the complex's matrices until it writes
        # them, so homology at every degree must leave each matrix as built
        c = perm_complex(6) if g is None else quotient_complex(g, side, 7)
        for d in range(c.min_degree, c.max_degree + 1):
            homology(c, d)
        for d in range(c.min_degree + 1, c.max_degree + 1):
            assert c.boundary_matrix(d) == face_matrix(c.basis(d), c.basis(d - 1)), d


def homology_rows(g, side):
    """``exactness_report``'s rows to degree 7 from :func:`homology` of the whole quotient complex."""
    c = through_degree_7(g, side)
    rows = []
    for d in range(2, 7):
        h = homology(c, d)
        rows.append(
            {
                "degree": d,
                "betti": h.betti,
                "torsion": list(h.torsion),
                "trivial": h.trivial,
                "guaranteed": d <= g + side - 1,
            }
        )
    return rows


class _Watched(SparseIntMatrix):
    """A matrix with a serial number, which a weak reference can watch."""

    __slots__ = ("serial", "__weakref__")


class TestExactnessWalk:
    """``exactness_report`` walks the degrees, one boundary matrix at a time."""

    @pytest.mark.parametrize("g, side", [p for p in THROUGH_DEGREE_7 if p.values[0] is not None])
    def test_the_walk_equals_homology_of_the_complex(self, g, side):
        assert exactness_report(g, side, 7) == homology_rows(g, side)

    @pytest.mark.parametrize("g, side, max_degree", [(2, 1, 3), (4, 2, 7)])
    def test_each_boundary_is_built_once_and_dropped_before_the_next(self, g, side, max_degree, monkeypatch):
        built, alive, reduced, keywords, stored = [], [], [], [], []

        def counting_face_matrix(words, targets, **kwargs):
            alive.append(sum(ref() is not None for ref in built))
            keywords.append(kwargs)
            plain = face_matrix(words, targets, **kwargs)
            m = _Watched(0, 0)
            m.nrows, m.ncols, m._rows, m.serial = plain.nrows, plain.ncols, plain._rows, len(built)
            built.append(weakref.ref(m))
            return m

        def counting_snf(m, *args, **kwargs):
            res = snf(m, *args, **kwargs)
            skip = kwargs.get("skip_rows", frozenset())
            reduced.append((m.serial, skip, res))
            stored.append(sum(len(m._rows[i]) for i in skip))
            return res

        monkeypatch.setattr(complexes, "face_matrix", counting_face_matrix)
        monkeypatch.setattr(complexes, "snf", counting_snf)
        exactness_report(g, side, max_degree)
        assert len(built) == max_degree - 1
        # no boundary is alive when the next one is built, and none is left
        assert alive == [0] * len(built)
        assert all(ref() is None for ref in built)
        # an upper bound only: reducing each boundary once is no regression
        assert len(reduced) <= 2 * (max_degree - 2)
        assert {serial for serial, _, _ in reduced} == set(range(max_degree - 1))
        # a cleared reduction skips the lead columns of the boundary below it;
        # the first boundary, on S_2, is zero, so the one above is not cleared
        leads, cleared = {}, 0
        for serial, skip, res in reduced:
            if skip:
                assert skip == leads[serial - 1], serial
                cleared += 1
            leads[serial] = res.unit_pivot_columns
        assert cleared == max_degree - 3
        # the top build alone gets a skip set, the lead columns of the
        # boundary below it; every inner build keeps all its rows
        top = len(built) - 1
        assert keywords[:top] == [{}] * top
        assert keywords[top] == {"skip_rows": leads[top - 1]}
        # the last reduction is the top's, cleared by those columns, and
        # the matrix it reads stores no entry in them
        assert reduced[-1][:2] == (top, leads[top - 1])
        assert stored[-1] == 0

    def test_the_walk_holds_little_beside_the_top_boundary(self):
        # at g6 side 2 every word through degree 7 is realizable, so the top
        # boundary is the face matrix of S_7 over S_6; building every basis
        # and boundary before reducing any peaked at 1.49 times its size.
        # exactness_report takes the complement route there, so the direct
        # walk is called by name
        top, below = tuple(map(bytes, all_perms(7))), tuple(map(bytes, all_perms(6)))
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            m = face_matrix(top, below)
            size = tracemalloc.get_traced_memory()[0] - before
            del m, top, below
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            complexes._direct_rows(6, 2, 7)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 1.3 * size, (peak, size)


class TestComplementRoute:
    """``complement_report`` reads the rows off the non-realizable words, and the report picks a route."""

    @pytest.mark.parametrize("max_degree", range(3, 8))
    @pytest.mark.parametrize("g, side", [(g, side) for g in range(4, 8) for side in (1, 2)])
    def test_the_complement_equals_the_direct_walk(self, g, side, max_degree):
        assert complement_report(g, side, max_degree) == complexes._direct_rows(g, side, max_degree)

    def test_the_coface_rows_are_the_relative_face_matrix_transposed(self):
        # the top boundary of g3 side 1 through degree 5, read as rows over
        # cofaces, against the face matrix of the enumerated degree 6: the
        # same nonzero columns, in another order
        g, side = 3, 1
        words, above = complement_basis(5, side, g), complement_basis(6, side, g)
        skip = frozenset(range(0, len(words), 3))
        rows = complexes._coface_rows(words, skip)
        built = face_matrix(above, words, skip_rows=skip, relative_to=in_quotient(side, g))

        def columns(m):
            cols = [dict() for _ in range(m.ncols)]
            for i, j, v in m.entries():
                cols[j][i] = v
            return sorted(sorted(c.items()) for c in cols if c)

        assert all(rows._rows[i] == {} for i in skip)
        assert columns(rows) == columns(built)
        assert rows.ncols == len({c for i, w in enumerate(words) if i not in skip for row in cofaces(w) for c in row})

    @pytest.mark.parametrize(
        "g, side, max_degree, cells",
        [
            (7, 2, 8, (46233, 0)),
            (4, 1, 8, (11909, 34324 + 32256 * 81 // 2)),
            (2, 1, 4, (16, 17 + 16 * 25 // 2)),
            (6, 1, 8, (46021, 212 + 211 * 81 // 2)),
        ],
    )
    def test_the_cells_each_route_would_build(self, g, side, max_degree, cells):
        assert complexes._route_cells(g, side, max_degree) == cells

    def test_degree_8_takes_the_complement_from_g6_s1_and_g5_s2(self):
        for side, first in ((1, 6), (2, 5)):
            cells = {g: complexes._route_cells(g, side, 8) for g in range(2, 10)}
            assert [g for g, (direct, complement) in cells.items() if complement < direct] == list(range(first, 10))

    @pytest.mark.parametrize("max_degree", [7, 8])
    def test_the_rule_takes_the_route_timed_faster(self, max_degree):
        # every case of the route grid recorded in BENCH_36.json, each route
        # timed by name in fresh processes
        with open(os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_36.json")) as fh:
            grid = [c for c in json.load(fh)["route_grid"]["cases"] if c["max_degree"] == max_degree]
        assert len(grid) == 16
        for case in grid:
            direct, complement = complexes._route_cells(case["g"], case["side"], max_degree)
            picked = "complement" if complement < direct else "direct"
            assert picked == case["faster"], case

    def test_the_complement_walk_holds_one_boundary_at_a_time(self, monkeypatch):
        # at g6 side 1 the complement is not empty through degree 8: each
        # inner boundary is a face matrix and the top one its coface rows
        built, alive, entries = [], [], []

        def watching(make):
            def watched(*args, **kwargs):
                alive.append(sum(ref() is not None for ref in built))
                plain = make(*args, **kwargs)
                entries.append(plain.nnz)
                m = _Watched(0, 0)
                m.nrows, m.ncols, m._rows, m.serial = plain.nrows, plain.ncols, plain._rows, len(built)
                built.append(weakref.ref(m))
                return m

            return watched

        monkeypatch.setattr(complexes, "face_matrix", watching(face_matrix))
        monkeypatch.setattr(complexes, "_coface_rows", watching(complexes._coface_rows))
        assert all(r["trivial"] for r in complement_report(6, 1, 8))
        # ∂_3 .. ∂_8 and the top's coface rows, the last two not zero; none
        # is alive when the next is built, and none is left
        assert len(built) == 7
        assert entries[:5] == [0] * 5 and all(entries[5:]), entries
        assert alive == [0] * len(built)
        assert all(ref() is None for ref in built)

    @pytest.mark.parametrize(
        "g, side, max_degree, route, snf_calls, matrices",
        [
            (7, 2, 8, "complement", 0, 0),
            (4, 1, 8, "direct", 12, 7),
            (2, 1, 4, "direct", 4, 3),
        ],
        ids=["homology-g7-s2", "homology-g4-s1", "tiny-homology"],
    )
    def test_the_route_each_named_case_takes(self, g, side, max_degree, route, snf_calls, matrices, monkeypatch):
        # the benchmark's two homology commands and its self-test's tiny one
        taken, drawn, reduced = [], [], []

        def taking(name):
            walk = getattr(complexes, name)

            def route(*args):
                taken.append(name)
                return walk(*args)

            return route

        def counting(levels):
            # each level is read once, so its words are counted as they are read
            def count(level):
                for pair in level:
                    drawn.append(pair)
                    yield pair

            return lambda *args: map(count, levels(*args))

        def counting_snf(m, *args, **kwargs):
            reduced.append(m)
            return snf(m, *args, **kwargs)

        for name in ("_direct_rows", "_complement_rows"):
            monkeypatch.setattr(complexes, name, taking(name))
        monkeypatch.setattr(complexes, "_realizable_levels", counting(complexes._realizable_levels))
        monkeypatch.setattr(complexes, "_genus_levels", counting(complexes._genus_levels))
        monkeypatch.setattr(complexes, "snf", counting_snf)
        rows = exactness_report(g, side, max_degree)
        assert taken == ["_" + route + "_rows"]
        assert (len(reduced), len({id(m) for m in reduced})) == (snf_calls, matrices)
        if route == "complement":
            # P/Q is zero through degree 8: no word is drawn and every row is 0
            assert drawn == []
            assert all(r["trivial"] for r in rows)

    @pytest.mark.parametrize("max_degree", [1, 2, 9])
    def test_a_degree_out_of_range_raises(self, max_degree):
        with pytest.raises(ValueError):
            complement_report(7, 2, max_degree)

    @pytest.mark.parametrize("g, side", [(1, 1), (7, 3), (7, True)])
    def test_a_bad_genus_or_side_raises(self, g, side):
        with pytest.raises(ValueError):
            complement_report(g, side, 8)
        with pytest.raises(ValueError):
            exactness_report(g, side, 8)


class TestHomotopy:
    def test_full_exhaustive(self):
        rep = verify_homotopy(6)
        assert rep.ok
        assert rep.checked == sum(len(list(all_perms(k))) for k in range(2, 7))

    def test_sampled(self):
        rep = verify_homotopy_sampled(7, 500, seed=3)
        assert rep.ok and rep.checked == 500

    def test_sampled_rejects_degree_1(self):
        with pytest.raises(ValueError):
            verify_homotopy_sampled(1, 10)

    def test_quotient_lift_all_small_genera(self):
        for g in (2, 3, 4, 5):
            for side in (1, 2):
                rep = verify_quotient_homotopy(g, side)
                assert rep.ok, (g, side, rep.failures[:3])

    def test_quotient_lift_fills_no_cache(self):
        # realizability of each lift is read from an uncached boundary count
        before = _neighborhood_boundary.cache_info().currsize
        assert verify_quotient_homotopy(4, 2).ok
        assert _neighborhood_boundary.cache_info().currsize == before

    def test_quotient_lift_counts_only_at_the_top_degree(self, monkeypatch):
        # below the top degree T = g + side - 1 every lift is realizable, so
        # only the lifts of the T! words of degree T are counted
        counted = []

        def recording(perm, side):
            counted.append(len(perm))
            return boundary_count(perm, side)

        monkeypatch.setattr(surfaces, "boundary_count", recording)
        for g in range(2, 6):
            for side in (1, 2):
                counted.clear()
                top = g + side - 1
                assert verify_quotient_homotopy(g, side).ok
                assert set(counted) == {top + 1}, (g, side)
                assert len(counted) == factorial(top), (g, side)

    def test_quotient_lift_counts_guaranteed_range(self):
        g, side = 3, 2
        rep = verify_quotient_homotopy(g, side)
        expected = sum(
            len(realizable_perms(d, side, g)) for d in range(2, g + side)
        )
        assert rep.checked == expected

    @staticmethod
    def _drop_twist_correction(monkeypatch, g, side):
        # lift the identity at the top degree T = g + side - 1 to zero,
        # which is the right lift only when T is odd
        top = g + side - 1
        lift = complexes.quotient_contraction

        def uncorrected(g_, side_, word):
            if word == identity(top):
                return None
            return lift(g_, side_, word)

        monkeypatch.setattr(complexes, "quotient_contraction", uncorrected)
        return top

    @pytest.mark.parametrize("g, side", [(2, 1), (3, 2), (4, 1), (5, 2)])
    def test_quotient_lift_without_twist_fails_at_even_top(self, monkeypatch, g, side):
        top = self._drop_twist_correction(monkeypatch, g, side)
        assert top % 2 == 0
        assert verify_quotient_homotopy(g, side).failures == (identity(top),)

    @pytest.mark.parametrize("g, side", [(2, 2), (3, 1), (4, 2), (5, 1)])
    def test_quotient_lift_without_twist_passes_at_odd_top(self, monkeypatch, g, side):
        top = self._drop_twist_correction(monkeypatch, g, side)
        assert top % 2 == 1
        assert verify_quotient_homotopy(g, side).ok

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    @pytest.mark.parametrize("side", [1, 2])
    def test_quotient_lift_values(self, g, side):
        # hat(w) on every word of degree 2..T, except the identity at the top
        # degree T: zero when T is odd, the twist word when T is even
        top = g + side - 1
        twist = None if top % 2 else (2, 0, 1, *range(3, top + 1))
        for d in range(2, top + 1):
            for w in all_perms(d):
                expected = twist if w == identity(top) else hat(w)
                assert quotient_contraction(g, side, w) == expected, w

    @staticmethod
    def _append_fixed_point(t):
        # a broken lift: the fixed point goes last instead of first; the
        # result is of its argument's kind, so a byte word gets a byte word
        return type(t)((*t, len(t)))

    def _fails_by_formal_sums(self, word, lift=None):
        # the FormalSum route, independent of the dict sum in _contracts
        lift = lift or self._append_fixed_point
        lifted_faces = FormalSum.from_terms(
            (c, lift(f)) for f, c in boundary(word).coeffs.items()
        )
        return boundary(lift(word)) + lifted_faces != FormalSum({word: 1})

    def test_broken_lift_fails_exhaustive(self, monkeypatch):
        monkeypatch.setattr(complexes, "hat", self._append_fixed_point)
        rep = verify_homotopy(4)
        assert not rep.ok and rep.checked == 2 + 6 + 24
        expected = [w for d in range(2, 5) for w in all_perms(d) if self._fails_by_formal_sums(w)]
        assert expected and list(rep.failures) == expected

    def test_broken_lift_fails_sampled(self, monkeypatch):
        monkeypatch.setattr(complexes, "hat", self._append_fixed_point)
        rep = verify_homotopy_sampled(5, 50)
        assert not rep.ok and rep.checked == 50 and rep.failures
        assert all(self._fails_by_formal_sums(w) for w in rep.failures)

    def test_report_json(self):
        rep = verify_homotopy(3)
        assert (rep.checked, rep.failures, rep.ok) == (8, (), True)

    def test_byte_check_agrees_with_formal_sums(self):
        # every word to degree 6, under the true lift and the broken one, so
        # both verdicts occur
        verdicts = set()
        for lift in (hat, self._append_fixed_point):
            for d in range(2, 7):
                for w in all_perms(d):
                    b = bytes(w)
                    verdict = complexes._contracts(b, lift(b), map(lift, faces(b)))
                    assert verdict is not self._fails_by_formal_sums(w, lift), (w, lift)
                    verdicts.add(verdict)
        assert verdicts == {True, False}


class TestBlockPass:
    """The contraction check proves a block of one degree termwise, and
    decides a block that fails word by word by the signed dict sum."""

    def test_broken_words_on_both_sides_of_a_block_boundary(self, monkeypatch):
        # two words of degree 7 break on each side of its first block
        # boundary, and one degree-6 word breaks the degree-7 words that
        # have it as a face, in several blocks
        sevens = list(all_perms(7))
        size = complexes._BLOCK
        assert 3 * size <= len(sevens)
        near = {sevens[i] for i in (size - 3, size - 1, size, size + 2)}
        broken = set(map(bytes, near)) | {bytes((5, 0, 4, 1, 3, 2))}

        def lift(t):
            # bytes in, bytes out; a tuple, from the FormalSum route, gives a tuple
            return TestHomotopy._append_fixed_point(t) if bytes(t) in broken else hat(t)

        monkeypatch.setattr(complexes, "hat", lift)
        rep = verify_homotopy(7)
        expected = [
            w for d in range(2, 8) for w in all_perms(d)
            if TestHomotopy()._fails_by_formal_sums(w, lift)
        ]
        assert {w for w in expected if len(w) == 7} >= near
        assert len({sevens.index(w) // size for w in expected if len(w) == 7}) >= 3
        assert rep.checked == sum(factorial(d) for d in range(2, 8))
        assert list(rep.failures) == expected

    def test_the_prepend_lift_is_proven_termwise(self, monkeypatch):
        # no block of the true lift reaches the signed dict sum
        def unreachable(*args):
            raise AssertionError("a block of the prepend lift was decided word by word")

        monkeypatch.setattr(complexes, "_contracts", unreachable)
        assert verify_homotopy(6).ok
        assert verify_homotopy_sampled(7, 300).ok

    @pytest.mark.parametrize("broken", [False, True])
    def test_each_word_and_face_is_lifted_once(self, monkeypatch, broken):
        # a word of degree d and its d faces are lifted once each, whether
        # its block is proven termwise or decided by the dict sum
        calls = []

        def counting(t):
            calls.append(t)
            return TestHomotopy._append_fixed_point(t) if broken else hat(t)

        monkeypatch.setattr(complexes, "hat", counting)
        assert verify_homotopy(6).ok is not broken
        assert len(calls) == sum(factorial(d) * (d + 1) for d in range(2, 7))

    def test_a_lift_that_breaks_one_pair_of_terms_fails(self):
        # each pair the termwise pass compares, broken alone: w lifts to
        # hat(v) and its faces to the lifts of the faces of v, so only face 0
        # of the lift, v, misses w; or one face j of w lifts to hat of face j
        # of v, so only face j + 1 of the lift misses it
        w, v = bytes((1, 3, 0, 2)), bytes((2, 0, 3, 1))
        fw, fv = faces(w), faces(v)
        assert len(set(fw)) == len(w) and all(f != g for f, g in zip(fw, fv))
        tables = [{w: hat(v), **{f: hat(g) for f, g in zip(fw, fv)}}]
        tables += [{f: hat(g)} for f, g in zip(fw, fv)]
        for table in tables:

            def lift(t):
                return table.get(t) or hat(t)

            assert complexes._contraction_report([tuple(w)], lift).failures == (tuple(w),), table

    def test_uneven_lifts_whose_joins_match_fail(self):
        # face 0 of the two words occurs once among their faces, so a lift
        # that moves one byte from the second lifted face to the first keeps
        # every joined column of the block equal, and only the word-by-word
        # degree check tells; so does one that moves a byte between the
        # lifts of the words
        a, b = bytes((0, 2, 1, 3)), bytes((0, 2, 3, 1))
        f1, f2 = faces(a)[0], faces(b)[0]
        assert [f for w in (a, b) for f in faces(w)].count(f1) == 1
        assert [f for w in (a, b) for f in faces(w)].count(f2) == 1
        for x, y in ((f1, f2), (a, b)):
            uneven = {x: hat(x) + hat(y)[:1], y: hat(y)[1:]}

            def lift(t):
                return uneven.get(t) or hat(t)

            assert lift(x) + lift(y) == hat(x) + hat(y)
            for w in (a, b):
                assert not complexes._contracts(w, lift(w), map(lift, faces(w)))
            assert complexes._contraction_report([tuple(a), tuple(b)], lift).failures == (tuple(a), tuple(b))


class TestQuotientLiftCap:
    class Reached(Exception):
        pass

    def test_top_degree_over_the_cap_raises_before_enumerating(self, monkeypatch):
        def never(*args):
            raise AssertionError("a word was enumerated")

        monkeypatch.setattr(complexes, "all_perms", never)
        for g, side in ((100, 2), (8, 2), (9, 1)):
            with pytest.raises(ValueError):
                verify_quotient_homotopy(g, side)

    @pytest.mark.parametrize("side", [0, 3, True])
    def test_a_bad_side_raises_before_enumerating(self, monkeypatch, side):
        def never(*args):
            raise AssertionError("a word was enumerated")

        monkeypatch.setattr(complexes, "all_perms", never)
        with pytest.raises(ValueError, match="side must be 1 or 2"):
            verify_quotient_homotopy(3, side)

    @pytest.mark.parametrize("g, side", [(7, 2), (8, 1)])
    def test_top_degree_at_the_cap_is_checked(self, monkeypatch, g, side):
        # the cap lets the top degree 8 through: the first lift is reached
        def reached(*args):
            raise self.Reached

        monkeypatch.setattr(complexes, "quotient_contraction", reached)
        with pytest.raises(self.Reached):
            verify_quotient_homotopy(g, side)


class TestInvariantsSurviveOptimize:
    def test_unexpected_escape_raises(self):
        # genus 2, side 1 has top degree 2, so a degree-3 escape is not the
        # identity at the top and must not be replaced by the twist word
        with pytest.raises(ValueError):
            quotient_contraction(2, 1, (0, 1, 2))

    def test_unexpected_escape_raises_under_python_O(self):
        src = os.path.dirname(os.path.dirname(arccalc.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "from arccalc.complexes import quotient_contraction\n"
            "try:\n"
            "    print(quotient_contraction(2, 1, (0, 1, 2)))\n"
            "except ValueError:\n"
            "    print('raised')\n"
        )
        res = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "raised"
