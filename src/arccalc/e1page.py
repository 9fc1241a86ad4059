"""
First-page bookkeeping for the arc-system spectral sequences.

A page is a table indexed by column ``p >= 1``: the summands in column ``p``
are the realizable degree-``p`` words over the ambient surface, each labeled
by the surface type of its stabilizer (the cut surface).  Entries are labels
only; no homology groups are computed here.  The first differential, with
trivial coefficients, is the signed face-merge matrix; it is built by the
same face-matrix builder as the boundary matrices of the realizability
quotient complex, and is checked column by column against the twist
cancellation rule of :func:`cancellation_report`.  The check makes one pass
over the source words: each face the rule leaves must be a stored entry of
the matrix with the rule's coefficient, and the matches, which land on
distinct entries, must number all of the stored entries.  So it needs no
second copy of the matrix.  Both sides take their faces from
:func:`~arccalc.perms.faces`, so what the check tests on its own is the
cancellation rule.  The faces have checks of their own: a
delete-and-renumber referee in the tests, and the contraction identity of
:mod:`arccalc.complexes`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import MAX_DEGREE_CAP
from .complexes import face_matrix, quotient_complex
from .intmat import SparseIntMatrix
from .perms import _ID, Perm, faces
from .surfaces import SurfaceType, _check_side, _cut_surface, _realizable_levels


@dataclass(frozen=True, slots=True)
class Summand:
    """A summand of a column: its word, held as bytes, with its genus and label."""

    word: bytes
    genus: int
    stabilizer: SurfaceType

    @property
    def perm(self) -> Perm:
        """The word as a tuple."""
        return tuple(self.word)


@dataclass(frozen=True)
class E1Page:
    ambient: SurfaceType
    side: int
    columns: tuple[tuple[Summand, ...], ...]  # columns[p-1] lists column p
    vanishing_bound: int

    @property
    def max_p(self) -> int:
        return len(self.columns)

    def column(self, p: int) -> tuple[Summand, ...]:
        if not 1 <= p <= self.max_p:
            raise ValueError(f"column {p} not on the page (1..{self.max_p})")
        return self.columns[p - 1]


def e1_skeleton(ambient: SurfaceType, side: int, max_p: int) -> E1Page:
    """
    Populate columns 1..``max_p`` with realizable words and their stabilizer
    labels.  The page converges to zero for ``p + q <= 2g - 2 + side``.

    One walk up the degrees, :func:`~arccalc.surfaces._realizable_levels`,
    makes each column from the one before and gives each word's simplex
    genus by the corner rule, with no boundary count per word.  A label
    depends on ``p`` and the genus alone (:func:`cut_surface`), so a column
    works out one label per genus, shared by its summands.

    >>> page = e1_skeleton(SurfaceType(3, 2), 1, 2)
    >>> page.vanishing_bound
    5
    """
    _check_side(side)
    if ambient.r < side:
        raise ValueError(f"{ambient} has too few boundary circles for side {side}")
    if ambient.g < 2:
        raise ValueError("page generation needs ambient genus >= 2")
    if not 1 <= max_p <= MAX_DEGREE_CAP:
        raise ValueError(f"max_p must be in [1, {MAX_DEGREE_CAP}]")
    columns = []
    for level in _realizable_levels(side, ambient.g, max_p):
        col = []
        labels: dict[int, SurfaceType] = {}
        for w, s in level:
            if s not in labels:
                labels[s] = _cut_surface(ambient, w, side, s)
            col.append(Summand(w, s, labels[s]))
        columns.append(tuple(col))
    return E1Page(ambient, side, tuple(columns), 2 * ambient.g - 2 + side)


def d1_matrix(page: E1Page, p: int) -> SparseIntMatrix:
    """
    Matrix of the first differential from column ``p`` to column ``p-1``:
    the ``(target, source)`` entry is the signed count of faces of the
    source word equal to the target word.
    """
    if p < 2:
        raise ValueError("the first differential needs p >= 2")
    # face_matrix reads the columns once, so they come from a generator and
    # are never held as a list; it indexes the targets, so they are a tuple
    return face_matrix((s.word for s in page.column(p)), tuple(s.word for s in page.column(p - 1)))


def quotient_boundary_matrix(page: E1Page, p: int) -> SparseIntMatrix:
    """The boundary matrix of the realizability quotient complex at column ``p``."""
    return quotient_complex(page.ambient.g, page.side, max(p, 2)).boundary_matrix(p)


def d1_follows_cancellation(page: E1Page, p: int, m: SparseIntMatrix) -> bool:
    """
    Whether every column of ``m``, read as the first differential from
    column ``p``, holds exactly the signed faces that
    :func:`cancellation_report` leaves for its source word.  A matrix of
    another shape than columns ``p-1`` by ``p`` does not.

    One pass over the source words: each face of a report must be a target
    whose entry in the source's column is the report's coefficient.  The
    faces in one report are distinct, so the matches are distinct stored
    entries, and there is none besides them exactly when they number
    ``m.nnz``.  Beside the matrix this holds an index of the targets and
    one report at a time.
    """
    targets = page.column(p - 1)
    sources = page.column(p)
    if (m.nrows, m.ncols) != (len(targets), len(sources)):
        return False
    index = {t.word: i for i, t in enumerate(targets)}
    rows = m._rows
    found = 0
    for j, s in enumerate(sources):
        for face, c in cancellation_report(s.word).items():
            i = index.get(face)
            if i is None or rows[i].get(j) != c:
                return False
            found += 1
    return found == m.nnz


def cancellation_report(word: Perm | bytes) -> dict[Perm, int] | dict[bytes, int]:
    """
    Signed faces surviving the twist cancellations, summed per face word
    into a ``{face: coefficient}`` dict with no zero coefficient.  Bytes
    in, bytes out; otherwise tuples, as in :func:`~arccalc.perms.faces`.

    Two successive faces are equal exactly when the word carries adjacent
    values at adjacent positions (in either order); such a pair enters with
    opposite signs and cancels.  The survivors must equal the nonzero entries
    of the word's first-differential column.  A word that is not a
    permutation of ``0..k-1`` for some ``k >= 1`` raises ``ValueError``.

    >>> cancellation_report((0, 2, 1))
    {(1, 0): 1}
    >>> sorted(cancellation_report((0, 3, 1, 2)).items())
    [((0, 1, 2), -1), ((2, 0, 1), 1)]
    >>> cancellation_report(bytes((0, 2, 1)))
    {b'\\x01\\x00': 1}
    """
    try:
        w = word if isinstance(word, bytes) else bytes(word)
    except ValueError:
        w = b""  # an entry outside range(256)
    k = len(w)
    # k letters that leave none of 0..k-1 out are a permutation; one C-level
    # call, since the d1 check calls this for every source word
    if not k or _ID[:k].translate(None, w):
        raise ValueError(f"{tuple(word)} is not a permutation word")
    if k < 2:
        return {}
    alive = [True] * k
    j = 0
    while j < k - 1:
        if alive[j] and alive[j + 1] and abs(w[j] - w[j + 1]) == 1:
            alive[j] = alive[j + 1] = False
            j += 2
        else:
            j += 1
    # summed on byte words; for a word of another kind only the surviving
    # faces become tuples
    acc: dict[bytes, int] = {}
    for j, f in enumerate(faces(w)):
        if alive[j]:
            acc[f] = acc.get(f, 0) + (-1) ** j
    if w is word:
        return {f: c for f, c in acc.items() if c}
    return {tuple(f): c for f, c in acc.items() if c}
