import random

import pytest
from hypothesis import given, settings, strategies as st

from arccalc.intmat import SparseIntMatrix, snf

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
            # row 0 has no unit entry when the cursor passes it, and becomes
            # [-1, 0] only once row 1's pivot clears column 1
            pytest.param([[2, 3], [1, 1]], (1, 1), id="unit-appears-behind-cursor"),
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
