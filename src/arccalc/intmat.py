"""
Sparse matrices over the integers and their Smith normal form.

Arithmetic is exact (Python integers), so invariant factors are trustworthy
at any coefficient size.  ``snf`` runs in two stages.  Without transforms
it first reduces the rows to a row echelon form whose leads are units
(``_unit_echelon``): the rows in index order, each reduced at its largest
column by the earlier row that leads there, with the row's columns in a
heap, until it is zero or leads in a new column.  On the boundary matrices
of lexicographic bases that this package produces, every lead is a unit,
so this stage gives the rank and the factors, all 1, with no column index
and no column operation.  At the first lead that is not a unit it gives up,
and the second stage, the eliminator, starts over on the untouched input;
the eliminator alone runs when transforms are wanted.  It also walks the
rows in index order, pivoting each on its unit entry in the largest column;
other matrices fall back to any unit entry, or else an entry of least
absolute value.  A non-unit pivot reduces its whole column and row and then
moves to the least remainder (the rule of Havas, Holt and Rees, 1993),
which keeps coefficients small on torsion-heavy input, and it retires only
once it divides every entry left, so the invariant factors form a
divisibility chain as they are found.

Memory, not time, is what bounds sparse elimination on large boundary
matrices (Dumas, Heckenbach, Saunders and Welker, 2003), so both stages
keep little beside the fill-in, and neither writes the input.  The echelon
copies a row at its first reduction and keeps only its pivot rows, and each
row's heap only while the row is reduced.  The eliminator copies the rows
it keeps once, when it starts, and each of its columns keeps a plain list
of the rows that have held an entry there, appended to and never pruned:
it may name a row twice, or a row whose entry is gone, and it is rebuilt
only when its column pivots.  A retired pivot's row is a fresh
one-entry dict, since a Python dict never shrinks as entries are deleted.

Homology clears a boundary matrix by the lead columns of the one below it,
the *clearing* of persistent homology (Chen and Kerber, "Persistent
homology computation with a twist", 2011; Bauer, Kerber and Reininghaus,
"Clear and compress", 2014) carried over to the integers.  Say
``A @ B == 0`` and the echelon of ``A`` has only unit leads.  Each pivot
row is a row of ``A`` less integer multiples of earlier pivot rows, so it
lies in the row lattice of ``A``; it has no entry past its lead, so the
pivot rows restricted to the lead columns, in lead order, are a unit
triangular matrix.  Back substitution then gives, for each lead column
``q``, a vector ``c`` in the row lattice of ``A`` that is ``e_q`` on the
lead columns, and ``c @ B == 0``: row ``q`` of ``B`` is an integer
combination of the rows of ``B`` outside the lead columns.  Dropping those
rows leaves the row lattice of ``B``, so its rank and every invariant
factor, unchanged.  Only the echelon offers columns to clear: a matrix
that reaches the eliminator offers none.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator


class SparseIntMatrix:
    """Dict-of-rows integer matrix; stored entries are always nonzero."""

    __slots__ = ("nrows", "ncols", "_rows")

    def __init__(self, nrows: int, ncols: int):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative dimension")
        self.nrows = nrows
        self.ncols = ncols
        self._rows: list[dict[int, int]] = [{} for _ in range(nrows)]

    @classmethod
    def from_entries(
        cls, nrows: int, ncols: int, entries: Iterable[tuple[int, int, int]]
    ) -> "SparseIntMatrix":
        """Sum ``(row, col, value)`` entries; repeats add up, zeros drop out."""
        m = cls(nrows, ncols)
        for i, j, v in entries:
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise IndexError(f"({i}, {j}) out of range for {nrows}x{ncols}")
            row = m._rows[i]
            new = row.get(j, 0) + v
            if new:
                row[j] = new
            else:
                row.pop(j, None)
        return m

    def entries(self) -> Iterator[tuple[int, int, int]]:
        for i, row in enumerate(self._rows):
            for j, v in row.items():
                yield i, j, v

    @property
    def nnz(self) -> int:
        return sum(len(r) for r in self._rows)

    def is_zero(self) -> bool:
        return all(not r for r in self._rows)

    def transpose(self) -> "SparseIntMatrix":
        m = SparseIntMatrix(self.ncols, self.nrows)
        for i, j, v in self.entries():
            m._rows[j][i] = v
        return m

    def __matmul__(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        out = SparseIntMatrix(self.nrows, other.ncols)
        for i, row in enumerate(self._rows):
            acc: dict[int, int] = {}
            for k, v in row.items():
                for j, w in other._rows[k].items():
                    acc[j] = acc.get(j, 0) + v * w
            out._rows[i] = {j: v for j, v in acc.items() if v}
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SparseIntMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._rows == other._rows
        )

    def __repr__(self) -> str:
        return f"SparseIntMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for i, j, v in self.entries():
            out[i][j] = v
        return out

    def to_triples(self) -> str:
        """
        Header line ``{"rows": R, "cols": C}`` then ``row col value`` lines,
        in row and then column order.  Each nonempty row's lines are joined
        into one string as the row is reached, so the text is assembled from
        one string per row, not from a sorted list of every entry.
        """
        header = json.dumps({"rows": self.nrows, "cols": self.ncols}, sort_keys=True)
        rows = [
            "".join([f"{i} {j} {row[j]}\n" for j in sorted(row)])
            for i, row in enumerate(self._rows)
            if row
        ]
        return "".join([header + "\n", *rows])


@dataclass(frozen=True)
class SNFResult:
    """
    Invariant factors ``d_1 | d_2 | ...`` with optional unimodular U, V.
    ``unit_pivot_columns`` holds the lead columns of a unit echelon, and is
    empty when the eliminator ran.
    """

    invariant_factors: tuple[int, ...]
    rank: int
    U: SparseIntMatrix | None = None
    V: SparseIntMatrix | None = None
    unit_pivot_columns: frozenset[int] = frozenset()


class _Eliminator:
    """
    Row/column elimination state of ``snf``'s second stage, which runs when
    transforms are wanted or the unit echelon meets a lead that is not a
    unit (the module docstring says what it keeps and why).  ``rows[i]`` is
    a copy of the input's row, or an empty dict for a skipped row.
    ``col_rows[j]`` may name a row twice, or a row whose entry in column
    ``j`` is gone; ``clear_pivot`` rebuilds the pivot column's list before
    it reads it, and leaves a retired pivot a one-entry row.
    """

    def __init__(self, m: SparseIntMatrix, want_transforms: bool, skip_rows: frozenset[int]):
        self.nrows = m.nrows
        self.rows: list[dict[int, int]] = [
            {} if i in skip_rows else dict(r) for i, r in enumerate(m._rows)
        ]
        self.col_rows: list[list[int]] = [[] for _ in range(m.ncols)]
        for i, row in enumerate(self.rows):
            for j in row:
                self.col_rows[j].append(i)
        self.done_rows: set[int] = set()
        self.cursor = 0
        self.u_rows: list[dict[int, int]] | None = None
        self.vt_rows: list[dict[int, int]] | None = None
        if want_transforms:
            self.u_rows = [{i: 1} for i in range(m.nrows)]
            self.vt_rows = [{j: 1} for j in range(m.ncols)]

    # -- the elementary row operation; it lists new entries and keeps U in sync --

    def row_op(self, dst: int, src: int, c: int) -> None:
        # row dst += c * row src
        rdst, col_rows = self.rows[dst], self.col_rows
        for j, v in self.rows[src].items():
            # col_rows changes only where an entry appears
            if j not in rdst:
                rdst[j] = c * v
                col_rows[j].append(dst)
            else:
                new = rdst[j] + c * v
                if new:
                    rdst[j] = new
                else:
                    del rdst[j]
        if self.u_rows is not None:
            _add_multiple(self.u_rows[dst], self.u_rows[src], c)

    # -- pivot clearing --

    def clear_pivot(self, pi: int, pj: int) -> tuple[int, int]:
        """
        Zero out the pivot's row and column except the pivot itself, and
        return the position where the pivot ends up.  The pivot is a
        position, not a row.  Every other entry of its column is reduced by
        it; if remainders are left, the pivot moves to the row with the least
        remainder at ``(i, pj)`` and clearing starts over.  The pivot row is
        then reduced the same way, moving to the column with the least
        remainder; the reduced row is built as a fresh dict, so a pivot
        that retires holds a one-entry row.  A non-unit pivot alone in its
        row and column retires only once it divides every entry of the rows
        not yet retired: if one does not, that row is added to the pivot row
        and clearing goes on.  So each pivot divides every later one.
        Terminates because the pivot's absolute value strictly drops at
        every move.
        """
        rows, col_rows, vt_rows = self.rows, self.col_rows, self.vt_rows
        while True:
            v = rows[pi][pj]
            least = None
            # drop the repeats and the rows whose entry is gone
            col = col_rows[pj] = [i for i in dict.fromkeys(col_rows[pj]) if pj in rows[i]]
            for i in col:
                if i == pi:
                    continue
                q = rows[i][pj] // v
                if q:
                    self.row_op(i, pi, -q)
                if pj in rows[i]:
                    if least is None or abs(rows[i][pj]) < abs(rows[least][pj]):
                        least = i
            if least is not None:
                pi = least
                continue
            # column pj now holds only the pivot, so the column operation
            # "col j -= q * col pj" changes row pi alone
            row = {pj: v}
            for j, x in rows[pi].items():
                if j == pj:
                    continue
                q, r = divmod(x, v)
                if vt_rows is not None and q:
                    _add_multiple(vt_rows[j], vt_rows[pj], -q)
                if r:
                    row[j] = r
                    if least is None or abs(r) < abs(row[least]):
                        least = j
            rows[pi] = row
            if least is not None:
                pj = least
                continue
            if v == 1 or v == -1:
                return pi, pj
            # the pivot row holds v alone, so it is never the row picked
            done = self.done_rows
            for i, other in enumerate(rows):
                if i not in done and any(x % v for x in other.values()):
                    self.row_op(pi, i, 1)
                    break
            else:
                return pi, pj

    def find_pivot(self) -> tuple[int, int] | None:
        """
        Rows in index order first: the cursor only moves forward, and each
        row it reaches pivots on its unit entry in the largest column.  On a
        boundary matrix of lexicographic bases this is an echelon order with
        little fill-in.  Once the cursor has passed the last row, a scan of
        the rows not yet retired picks any unit entry, or else an entry of
        least absolute value; it covers non-unit matrices and rows that
        gained a unit entry after the cursor passed them.
        """
        rows, done = self.rows, self.done_rows
        # a unit pivot never moves, so no row ahead of the cursor is retired
        while self.cursor < self.nrows:
            i = self.cursor
            self.cursor += 1
            units = [j for j, v in rows[i].items() if v == 1 or v == -1]
            if units:
                return i, max(units)
        best = None
        for i, row in enumerate(rows):
            if i in done:
                continue
            for j, v in row.items():
                if v == 1 or v == -1:
                    return i, j
                if best is None or abs(v) < abs(rows[best[0]][best[1]]):
                    best = (i, j)
        return best


def _unit_echelon(m: SparseIntMatrix, skip_rows: frozenset[int]) -> SNFResult | None:
    """
    The first stage of ``snf``: a row echelon form with unit leads, or
    ``None`` at the first lead that is not a unit.

    The rows are taken in index order, and the rows in ``skip_rows`` are
    passed over.  Each is reduced at its lead, its largest column, by the
    earlier row that leads there, until its lead is a column no earlier row
    leads in; it then becomes a pivot row, or it has reduced to zero.  A
    row's columns are kept in a max-heap, to which each reduction pushes its
    fill-in: a pivot row has no entry beyond its lead, so the fill-in lies
    below the column just reduced and the leads of one row strictly fall.  A
    column whose entry has cancelled stays in the heap and is dropped when
    it comes to the top.  A row is copied at its first reduction, so the
    input is never written, and only the pivot rows are kept.

    When every lead is a unit, the pivot rows have distinct leads, and their
    lead columns restricted to them form a unit triangular matrix, so each
    invariant factor is 1 and the rank is the number of pivot rows.
    """
    pivot_rows: dict[int, dict[int, int]] = {}
    for i, row in enumerate(m._rows):
        if not row or i in skip_rows:
            continue
        heap = [-j for j in row]
        heapify(heap)
        shared = True
        while heap:
            j = -heap[0]
            v = row.get(j)
            if v is None:
                heappop(heap)  # an entry that cancelled
                continue
            p = pivot_rows.get(j)
            if p is None:
                if v != 1 and v != -1:
                    return None
                pivot_rows[j] = row
                break
            heappop(heap)
            if shared:
                row = dict(row)
                shared = False
            # p leads with a unit, so c * p cancels v: p[j] * p[j] == 1
            c = v * p[j]
            for k, x in p.items():
                y = c * x
                old = row.get(k)
                if old is None:
                    row[k] = -y
                    heappush(heap, -k)
                elif old == y:
                    del row[k]
                else:
                    row[k] = old - y
    rank = len(pivot_rows)
    return SNFResult((1,) * rank, rank, unit_pivot_columns=frozenset(pivot_rows))


def snf(
    m: SparseIntMatrix, want_transforms: bool = False, skip_rows: frozenset[int] = frozenset()
) -> SNFResult:
    """
    Smith normal form of ``m``.

    Returns the invariant factors (positive, each dividing the next) and the
    rank; with ``want_transforms`` also unimodular ``U`` (nrows x nrows) and
    ``V`` (ncols x ncols) such that ``U @ m @ V`` is the diagonal matrix of
    the invariant factors.

    The rows in ``skip_rows`` are treated as absent.  Passing
    ``snf(a).unit_pivot_columns`` for an ``a`` with ``a @ m == 0`` clears
    ``m``: those rows are integer combinations of the others (see the module
    docstring), so the factors and rank are those of ``m`` itself.  U would
    no longer be unimodular, so ``skip_rows`` with ``want_transforms``
    raises ``ValueError``, as does a skip row outside ``range(m.nrows)``.

    ``m`` is never mutated.  Two stages: without transforms,
    ``_unit_echelon`` runs first and its result is returned if every lead
    is a unit, with the lead columns as ``unit_pivot_columns``.  Otherwise,
    and always with transforms, the eliminator runs on a copy of the input's
    rows, and ``unit_pivot_columns`` is empty.

    In the eliminator no row or column is ever moved.  Each pivot is
    recorded at the position where ``clear_pivot`` leaves it, alone in its
    row and column (a one-entry dict) and dividing every entry left, so the
    pivots retire in divisibility order.  U lists the pivot rows in that order (negated where
    the pivot is negative) before the other rows, and V the pivot columns
    before the other columns.
    """
    if skip_rows and want_transforms:
        raise ValueError("skip_rows and want_transforms exclude each other")
    outside = sorted(i for i in skip_rows if not 0 <= i < m.nrows)
    if outside:
        raise ValueError(f"skip rows {outside} are outside range({m.nrows})")
    if not want_transforms:
        echelon = _unit_echelon(m, skip_rows)
        if echelon is not None:
            return echelon
    e = _Eliminator(m, want_transforms, skip_rows)
    rows = e.rows
    pivots: list[tuple[int, int]] = []

    while True:
        pick = e.find_pivot()
        if pick is None:
            break
        pi, pj = e.clear_pivot(*pick)
        pivots.append((pi, pj))
        e.done_rows.add(pi)

    factors = tuple(abs(rows[r][c]) for r, c in pivots)
    if not want_transforms:
        return SNFResult(factors, len(factors))
    sign = {r: -1 for r, c in pivots if rows[r][c] < 0}
    u = SparseIntMatrix(m.nrows, m.nrows)
    u._rows = [
        {k: sign.get(r, 1) * x for k, x in e.u_rows[r].items()}
        for r in _pivots_first([r for r, _ in pivots], m.nrows)
    ]
    vt = SparseIntMatrix(m.ncols, m.ncols)
    vt._rows = [e.vt_rows[c] for c in _pivots_first([c for _, c in pivots], m.ncols)]
    return SNFResult(factors, len(factors), u, vt.transpose())


def _add_multiple(dst: dict[int, int], src: dict[int, int], c: int) -> None:
    """``dst += c * src`` on sparse rows, dropping entries that cancel."""
    for k, v in src.items():
        new = dst.get(k, 0) + c * v
        if new:
            dst[k] = new
        else:
            dst.pop(k, None)


def _pivots_first(lines: list[int], n: int) -> list[int]:
    """The pivot rows (or columns) in pivot order, then the others in order."""
    taken = set(lines)
    return lines + [k for k in range(n) if k not in taken]
