import copy
import os
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import arccalc
from arccalc.complexes import face_matrix
from arccalc.intmat import SparseIntMatrix, _unit_echelon, snf
from arccalc.perms import all_perms

from dense_snf import dense_invariant_factors


def from_dense(rows):
    n = len(rows)
    m = len(rows[0]) if rows else 0
    return SparseIntMatrix.from_entries(
        n, m, ((i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v)
    )


def diagonal(factors, n, m):
    """The n x m matrix with the invariant factors down its diagonal."""
    return SparseIntMatrix.from_entries(n, m, ((t, t, v) for t, v in enumerate(factors)))


def random_dense(rng, n, m, density=0.6, bound=9):
    return [
        [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(m)]
        for _ in range(n)
    ]


TORSION_DIAGONAL = (0, 1, 1, 2, 3, 4, 6, 9, 12)


def dense_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def unimodular(randint, n):
    """An n x n integer matrix of determinant 1: the identity after random row
    additions.  ``randint(lo, hi)`` draws an integer in ``[lo, hi]``."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(randint(0, 3 * n)):
        src = randint(0, n - 1)
        dst = randint(0, n - 1)
        if src != dst:
            c = randint(-30, 30)
            a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
    return a


def torsion_heavy(randint, choice):
    """M = P D Q with unimodular P, Q: the invariant factors are those of the
    torsion-heavy diagonal D, hidden behind large entries.  ``choice(seq)``
    draws an element of ``seq``."""
    n = randint(1, 15)
    m = randint(1, 15)
    diag = [choice(TORSION_DIAGONAL) for _ in range(min(n, m))]
    d = [[diag[i] if i == j else 0 for j in range(m)] for i in range(n)]
    return dense_matmul(dense_matmul(unimodular(randint, n), d), unimodular(randint, m))


@st.composite
def torsion_heavy_products(draw):
    return torsion_heavy(
        lambda lo, hi: draw(st.integers(min_value=lo, max_value=hi)),
        lambda seq: draw(st.sampled_from(seq)),
    )


@st.composite
def dense_matrices(draw, bound):
    """A dense matrix of 1..7 rows and columns with entries in ``[-bound, bound]``."""
    n = draw(st.integers(min_value=1, max_value=7))
    m = draw(st.integers(min_value=1, max_value=7))
    entries = st.lists(st.integers(min_value=-bound, max_value=bound), min_size=m, max_size=m)
    return [draw(entries) for _ in range(n)]


def sparse_sign_matrix(randint, choice):
    """A matrix of 1..8 rows and columns whose entries are mostly 0, else 1
    or -1.  ``randint`` and ``choice`` draw as in ``torsion_heavy``."""
    n = randint(1, 8)
    m = randint(1, 8)
    return [[choice((0, 0, 0, 1, -1)) for _ in range(m)] for _ in range(n)]


def sign_elementary_product(randint, choice):
    """A product of elementary matrices with entries ±1, of size 1..8: the
    identity after random additions and subtractions of one row to another."""
    n = randint(1, 8)
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(randint(0, 3 * n)):
        src = randint(0, n - 1)
        dst = randint(0, n - 1)
        if src != dst:
            c = choice((1, -1))
            a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
    return a


@st.composite
def sign_matrices(draw):
    """``sparse_sign_matrix`` or ``sign_elementary_product``, drawn by Hypothesis."""
    recipe = draw(st.sampled_from((sparse_sign_matrix, sign_elementary_product)))
    return recipe(
        lambda lo, hi: draw(st.integers(min_value=lo, max_value=hi)),
        lambda seq: draw(st.sampled_from(seq)),
    )


def replay_torsion_heavy(seed):
    """The ``torsion_heavy_products`` recipe with its draws taken from ``random.Random(seed)``."""
    rng = random.Random(seed)
    return torsion_heavy(rng.randint, rng.choice)


def check_with_transforms(dense, expected):
    m = from_dense(dense)
    assert snf(m).invariant_factors == expected
    res = snf(m, want_transforms=True)
    assert res.invariant_factors == expected
    assert (res.U @ m @ res.V) == diagonal(res.invariant_factors, m.nrows, m.ncols)
    assert abs(bareiss_det(res.U)) == 1
    assert abs(bareiss_det(res.V)) == 1
    return res


class TestMatrixBasics:
    def test_set_get_drop_zero(self):
        # from_entries sums repeated entries and stores none that cancel
        m = SparseIntMatrix.from_entries(2, 2, [(0, 1, 5), (1, 0, 2), (0, 1, -5), (1, 0, 1)])
        assert m.to_dense() == [[0, 0], [3, 0]] and m.nnz == 1

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            SparseIntMatrix.from_entries(2, 2, [(2, 0, 1)])
        with pytest.raises(IndexError):
            SparseIntMatrix.from_entries(2, 2, [(0, -1, 1)])

    def test_matmul_and_transpose(self):
        a = from_dense([[1, 2], [0, 1]])
        b = from_dense([[1, 0], [3, 1]])
        assert (a @ b).to_dense() == [[7, 2], [3, 1]]
        assert a.transpose().to_dense() == [[1, 0], [2, 1]]

    def test_triples_round_trip(self):
        m = from_dense([[0, -3], [7, 0]])
        assert m.to_triples() == '{"cols": 2, "rows": 2}\n0 1 -3\n1 0 7\n'

    def test_triples_sort_each_row_by_column(self):
        m = SparseIntMatrix.from_entries(2, 3, [(0, 2, 5), (0, 0, -1), (1, 1, 4)])
        assert m.to_triples() == '{"cols": 3, "rows": 2}\n0 0 -1\n0 2 5\n1 1 4\n'
        assert SparseIntMatrix(3, 2).to_triples() == '{"cols": 2, "rows": 3}\n'


class TestSNFExamples:
    def test_already_diagonal(self):
        m = from_dense([[2, 0], [0, 6]])
        assert snf(m).invariant_factors == (2, 6)

    def test_textbook_2x2(self):
        m = from_dense([[2, 4], [6, 8]])
        assert snf(m).invariant_factors == (2, 4)

    def test_zero_and_empty(self):
        assert snf(SparseIntMatrix(3, 4)).invariant_factors == ()
        assert snf(SparseIntMatrix(0, 0)).invariant_factors == ()

    def test_divisibility_needs_mixing(self):
        check_with_transforms([[2, 0], [0, 3]], (1, 6))

    def test_three_nonunit_pivots_need_repeated_passes(self):
        check_with_transforms([[4, 0, 0], [0, 6, 0], [0, 0, 9]], (1, 6, 36))

    @pytest.mark.parametrize(
        "dense, expected",
        [
            pytest.param([[2], [3]], (1,), id="to-another-row"),
            pytest.param([[2, 3]], (1,), id="to-another-column"),
            pytest.param([[2, 3], [3, 2]], (1, 5), id="no-unit-entry"),
            # row 0 has no unit entry; its pivot 2 moves to row 1's 1 and
            # retires row 1 ahead of the walk, which passes over it, and row
            # 0, left [0, 1], pivots again
            pytest.param([[2, 3], [1, 1]], (1, 1), id="retired-ahead-of-the-walk"),
            # the walk retires 6 before 4, and the chain pass moves their gcd
            # to the first pivot and their lcm to the second
            pytest.param([[6, 0], [0, 4]], (2, 12), id="descending-diagonal"),
        ],
    )
    def test_pivot_moves(self, dense, expected):
        check_with_transforms(dense, expected)

    @pytest.mark.parametrize(
        "seed, shape, entry_bits",
        [
            pytest.param(288, (15, 14), 48, id="seed-288"),
            pytest.param(2, (14, 14), 28, id="seed-2"),
        ],
    )
    def test_torsion_heavy_recipe(self, seed, shape, entry_bits):
        # pivot moves to the first remainder, not the least, grow the U and V
        # entries of these to hundreds of thousands of bits in tens of seconds
        dense = replay_torsion_heavy(seed)
        assert (len(dense), len(dense[0])) == shape
        assert max(abs(x).bit_length() for row in dense for x in row) == entry_bits
        res = check_with_transforms(dense, tuple(dense_invariant_factors(dense)))
        for t in (res.U, res.V):
            assert all(abs(x).bit_length() < 1024 for _, _, x in t.entries())

    def test_rank(self):
        m = from_dense([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
        assert snf(m).rank == 2


class TestLazyColumnIndex:
    """A column's list of rows is pruned only when its column pivots, so it
    may name a row twice, or a row whose entry is gone; each case equals the
    dense referee, and U @ m @ V is the diagonal."""

    @pytest.mark.parametrize(
        "dense, expected",
        [
            # pivots at (0, 0), (1, 1) and (1, 1): the first cancels row 1's
            # entry in column 2; the non-unit pick (1, 1) moves to (2, 1),
            # whose row operation brings it back, so column 2 names row 1
            # twice when that pivot moves on to (2, 2)
            pytest.param([[1, 2, 2], [-1, 2, -2], [1, 0, -1]], (1, 1, 12), id="reappears-twice"),
            # the pick (0, 0) moves to (1, 0), clears row 1's entry in column
            # 1 and retires row 1; column 1 still names row 1 when (0, 1)
            # pivots
            pytest.param([[2, 2], [-1, 1]], (1, 4), id="retired-row-listed"),
            # the unit picks (0, 2), (1, 1) and (2, 0): the first cancels row
            # 2's entry in column 0 and the second brings it back; when (2, 0)
            # pivots, column 0 names row 2 twice and the retired rows 0 and 1
            pytest.param([[1, 1, 1], [0, 0, 1], [1, 0, 1]], (1, 1, 1), id="unit-picks"),
        ],
    )
    def test_stale_listings(self, dense, expected):
        assert tuple(dense_invariant_factors(dense)) == expected
        check_with_transforms(dense, expected)


class TestInputUntouched:
    """The eliminator copies the rows it keeps when it starts, and the
    echelon shares a row with the input until it first reduces it, so
    neither stage may write a row it has not copied."""

    @given(
        st.one_of(
            dense_matrices(1).map(lambda d: ("unit", d)),
            dense_matrices(9).map(lambda d: ("non-unit", d)),
            torsion_heavy_products().map(lambda d: ("torsion-heavy", d)),
        )
    )
    @settings(deadline=None, max_examples=60)
    def test_property_snf_never_mutates_its_input(self, case):
        _, dense = case
        m = from_dense(dense)
        before = copy.deepcopy(m._rows)
        # the rows of U past the rank make an A with A @ m == 0, whose unit
        # pivot columns clear m
        u = snf(m, want_transforms=True)
        a = from_dense(u.U.to_dense()[u.rank :] or [[0] * m.nrows])
        a_before = copy.deepcopy(a._rows)
        skip = snf(a).unit_pivot_columns
        assert a._rows == a_before
        for kwargs in ({}, {"want_transforms": True}, {"skip_rows": skip}):
            first = snf(m, **kwargs)
            assert m._rows == before, kwargs
            assert snf(m, **kwargs) == first, kwargs
        assert snf(m, skip_rows=skip).invariant_factors == u.invariant_factors


class TestEliminatorAtBoundarySize:
    """The eliminator on ∂_6 of S_6, 120 x 720 of rank 100, where the other
    tests give it at most 15 x 15."""

    def boundary(self):
        return face_matrix(all_perms(6), list(all_perms(5)))

    def doubled(self):
        m = self.boundary()
        return SparseIntMatrix.from_entries(m.nrows, m.ncols, ((i, j, 2 * v) for i, j, v in m.entries()))

    def test_transforms_diagonalize_it(self):
        m = self.boundary()
        res = snf(m, want_transforms=True)
        assert res.invariant_factors == (1,) * 100
        assert res.U @ m @ res.V == diagonal(res.invariant_factors, m.nrows, m.ncols)

    def test_doubled_it_falls_back_and_is_left_untouched(self):
        doubled = self.doubled()
        before = copy.deepcopy(doubled._rows)
        assert _unit_echelon(doubled, frozenset()) is None
        res = snf(doubled)
        assert (res.invariant_factors, res.unit_pivot_columns) == ((2,) * 100, frozenset())
        assert doubled._rows == before

    def test_doubled_transforms_diagonalize_it(self):
        # every pivot is non-unit, so the chain pass runs over all 100
        m = self.doubled()
        res = snf(m, want_transforms=True)
        assert res.invariant_factors == (2,) * 100
        assert res.U @ m @ res.V == diagonal(res.invariant_factors, m.nrows, m.ncols)


def bareiss_det(matrix):
    a = [row[:] for row in matrix.to_dense()]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for l in range(k + 1, n):
                if a[l][k]:
                    a[k], a[l] = a[l], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


class TestSNFAgainstDenseReferee:
    def test_seeded_referee_200(self):
        rng = random.Random(20240817)
        for _ in range(200):
            n = rng.randint(1, 12)
            m = rng.randint(1, 12)
            dense = random_dense(rng, n, m)
            check_with_transforms(dense, tuple(dense_invariant_factors(dense)))

    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=7),
            min_size=1,
            max_size=7,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(deadline=None, max_examples=60)
    def test_property_referee(self, dense):
        sparse = from_dense(dense)
        assert snf(sparse).invariant_factors == tuple(dense_invariant_factors(dense))

    @given(torsion_heavy_products())
    @settings(deadline=None, max_examples=40)
    def test_property_torsion_heavy_products(self, dense):
        check_with_transforms(dense, tuple(dense_invariant_factors(dense)))

    @given(st.data())
    @settings(deadline=None, max_examples=40)
    def test_property_pivot_order_independent(self, data):
        # the pivot order follows row and column indices, so transposing or
        # permuting the matrix changes which pivots are taken, not the factors
        dense = data.draw(torsion_heavy_products())
        expected = tuple(dense_invariant_factors(dense))
        row_order = data.draw(st.permutations(range(len(dense))))
        col_order = data.draw(st.permutations(range(len(dense[0]))))
        permuted = [[dense[i][j] for j in col_order] for i in row_order]
        for variant in (dense, [list(c) for c in zip(*dense)], permuted):
            assert snf(from_dense(variant)).invariant_factors == expected

    def test_chain_condition(self):
        rng = random.Random(7)
        for _ in range(50):
            dense = random_dense(rng, rng.randint(1, 10), rng.randint(1, 10))
            fs = snf(from_dense(dense)).invariant_factors
            assert all(fs[i + 1] % fs[i] == 0 for i in range(len(fs) - 1))
            assert all(f > 0 for f in fs)


class TestClearing:
    def test_unit_picks_report_their_pivot_columns(self):
        # rows 0 and 1 pivot on their units in the largest column
        res = snf(from_dense([[1, 1, 0], [0, 1, -1], [1, 2, -1]]))
        assert res.invariant_factors == (1, 1)
        assert res.unit_pivot_columns == frozenset({1, 2})

    @pytest.mark.parametrize(
        "dense",
        [
            pytest.param([[2, 3], [3, 2]], id="no-unit-entry"),
            # row 0 pivots on a unit; row 1 then has only the non-unit 2
            pytest.param([[1, 0, 0], [0, 2, 0]], id="unit-then-non-unit"),
        ],
    )
    def test_a_non_unit_pick_reports_no_pivot_column(self, dense):
        assert snf(from_dense(dense)).unit_pivot_columns == frozenset()

    def test_an_elimination_of_unit_picks_offers_no_column(self):
        # the echelon meets the lead 2 and falls back; the eliminator then
        # picks only the unit 1, and still offers no column to clear
        m = from_dense([[1, 2]])
        assert _unit_echelon(m, frozenset()) is None
        res = snf(m)
        assert (res.invariant_factors, res.unit_pivot_columns) == ((1,), frozenset())

    @pytest.mark.parametrize("row", [-1, 2])
    def test_a_skip_row_outside_the_matrix_raises(self, row):
        # the text face_matrix gives for the same set
        with pytest.raises(ValueError, match=rf"^skip rows \[{row}\] are outside range\(2\)$"):
            snf(SparseIntMatrix(2, 2), skip_rows=frozenset({row}))

    def test_skipped_rows_are_absent(self):
        m = from_dense([[2, 0], [0, 3], [0, 0]])
        assert snf(m, skip_rows=frozenset({1})).invariant_factors == (2,)
        assert snf(m, skip_rows=frozenset({0, 1})).invariant_factors == ()
        # the unit echelon passes over them too
        res = snf(from_dense([[1, 0], [0, 1]]), skip_rows=frozenset({1}))
        assert (res.invariant_factors, res.unit_pivot_columns) == ((1,), frozenset({0}))

    def test_skip_rows_with_transforms_raises(self):
        with pytest.raises(ValueError):
            snf(from_dense([[1]]), want_transforms=True, skip_rows=frozenset({0}))

    def test_skip_rows_with_transforms_raises_under_python_O(self):
        src = os.path.dirname(os.path.dirname(arccalc.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "from arccalc.intmat import SparseIntMatrix, snf\n"
            "m = SparseIntMatrix.from_entries(1, 1, [(0, 0, 1)])\n"
            "try:\n"
            "    snf(m, want_transforms=True, skip_rows=frozenset({0}))\n"
            "except ValueError:\n"
            "    print('raised')\n"
        )
        res = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "raised"

    @given(st.data())
    @settings(deadline=None, max_examples=40)
    def test_property_clearing_keeps_the_factors(self, data):
        # the rows of U past the rank span the left kernel of B, so any
        # integer combinations of them make an A with A @ B == 0; their
        # entries need not be units, and then A offers no column to clear
        b = from_dense(data.draw(torsion_heavy_products()))
        res = snf(b, want_transforms=True)
        kernel = res.U.to_dense()[res.rank :] or [[0] * b.nrows]
        coeffs = st.lists(
            st.integers(min_value=-3, max_value=3), min_size=len(kernel), max_size=len(kernel)
        )
        a = from_dense(dense_matmul(data.draw(st.lists(coeffs, min_size=1, max_size=6)), kernel))
        assert (a @ b).is_zero()
        cleared = snf(b, skip_rows=snf(a).unit_pivot_columns)
        assert cleared.invariant_factors == res.invariant_factors


def check_unit_echelon(b, a_rows):
    """
    ``b``, and ``b`` cleared by the unit pivots of ``a`` (a dense matrix
    whose rows are integer combinations of the left kernel of ``b``, so
    ``a @ b == 0``), have the factors of ``b`` with transforms and of the
    dense referee; where the unit echelon reduces, ``snf`` returns its
    result, with one lead column per unit factor.  Returns the outcomes:
    ``"fell back"``, ``"reduced"`` and, with rows cleared, ``"reduced cleared"``.
    """
    m = from_dense(b)
    a = from_dense(a_rows)
    assert (a @ m).is_zero()
    expected = tuple(dense_invariant_factors(b))
    full = snf(m, want_transforms=True)
    assert full.invariant_factors == expected
    skip = snf(a).unit_pivot_columns
    outcomes = set()
    for rows in (frozenset(), skip):
        echelon = _unit_echelon(m, rows)
        res = snf(m, skip_rows=rows)
        assert (res.invariant_factors, res.rank) == (expected, full.rank)
        if echelon is None:
            outcomes.add("fell back")
        else:
            assert res == echelon
            assert len(res.unit_pivot_columns) == res.rank
            outcomes.add("reduced cleared" if rows else "reduced")
    return outcomes


def left_kernel(b):
    """The rows of U past the rank of ``snf(b)``: they span the left kernel of ``b``."""
    res = snf(from_dense(b), want_transforms=True)
    return res.U.to_dense()[res.rank :] or [[0] * len(b)]


class TestUnitEchelon:
    """The first stage of ``snf``: without transforms it reduces the rows to
    an echelon form with unit leads, and falls back to the eliminator at the
    first lead that is not a unit."""

    @given(st.data())
    @settings(deadline=None, max_examples=80)
    def test_property_unit_echelon_equals_the_eliminator_and_the_referee(self, data):
        b = data.draw(sign_matrices())
        kernel = left_kernel(b)
        coeffs = st.lists(
            st.integers(min_value=-2, max_value=2), min_size=len(kernel), max_size=len(kernel)
        )
        a = dense_matmul(data.draw(st.lists(coeffs, min_size=1, max_size=4)), kernel)
        check_unit_echelon(b, a)

    def test_seeded_draws_take_both_stages(self):
        # the property above would hold vacuously if every draw fell back
        rng = random.Random(25)
        seen = Counter()
        for t in range(200):
            recipe = sparse_sign_matrix if t % 2 else sign_elementary_product
            b = recipe(rng.randint, rng.choice)
            kernel = left_kernel(b)
            seen.update(check_unit_echelon(b, dense_matmul([[1] * len(kernel)], kernel)))
        assert min(seen[k] for k in ("fell back", "reduced", "reduced cleared")) >= 10, seen

    def test_a_cancelled_column_comes_back(self):
        # row 2 less row 0 cancels column 1, and less row 1 brings it back,
        # so its heap holds column 1 twice; row 3 reduces to zero, leaving
        # only cancelled columns in its heap
        dense = [[0, 1, 0, 1], [0, -1, 1, 0], [0, 1, 1, 1], [0, 1, 1, 2]]
        m = from_dense(dense)
        before = copy.deepcopy(m._rows)
        res = _unit_echelon(m, frozenset())
        assert res.invariant_factors == tuple(dense_invariant_factors(dense)) == (1, 1, 1)
        assert res.unit_pivot_columns == frozenset({1, 2, 3})
        assert m._rows == before

    def test_a_non_unit_lead_after_a_reduction_falls_back(self):
        # row 1 plus row 0 leaves the lead 2 in column 0
        m = from_dense([[1, 1], [1, -1]])
        assert _unit_echelon(m, frozenset()) is None
        res = snf(m)
        assert res.invariant_factors == (1, 2)
        assert res.unit_pivot_columns == frozenset()
