"""
The permutation chain complex, its realizability quotients, and exact
integer homology.

Degree ``d`` of a complex carries a lexicographically ordered basis of
degree-``d`` words; the boundary of a word is its alternating face sum.  The
complexes built here hold each basis as byte-string words (byte ``i`` is
``w(i)``), less than half the memory of the same words as tuples, and
:meth:`ChainComplex.basis` converts them to tuples when it is read.  The
full complex over all of the symmetric groups is contractible via the
prepend-a-fixed-point homotopy; the quotient complex at genus ``g`` keeps
only words realizable by arc systems on a genus-``g`` surface, and stays
exact in a range that grows with ``g``.  Homology is computed from Smith
normal forms, so Betti numbers and torsion are exact.

A :class:`ChainComplex` builds and holds every basis and boundary matrix.
:func:`exactness_report` builds none, and takes one of two routes, picked by
:func:`_route_cells` from :func:`~arccalc.surfaces.genus_counts` before any
word is drawn.  Both routes are one walk up the degrees, :func:`_walk`,
which holds one boundary matrix at a time and clears each reduction by the
lead columns of the ``∂`` below; they differ only in their bases and their
builds.  The direct route walks the realizable words, and makes the same
``snf`` calls on the same matrices as :func:`homology`.

The complement route, :func:`complement_report`, reads the same rows off
the non-realizable words alone, which are few at high genus.  The full
complex is contracted by :func:`~arccalc.perms.hat` in every degree from 2
on, and realizability is closed under faces, since a face keeps its word's
genus or lowers it by one.  So the long exact sequence of the full complex
``P`` and its quotient complex ``Q`` gives ``H_d(Q) ≅ H_{d+1}(P/Q)`` for
``d >= 2``.  The complement's words are drawn a level at a time by the
corner rule of :mod:`arccalc.surfaces`, its boundaries are face matrices
that drop the realizable faces, and its top boundary is read as rows over
the cofaces of the degree below.

Boundary matrices and the contraction checks take their faces from one
routine, :func:`~arccalc.perms.faces`, on byte-string words (byte ``i`` is
``w(i)``); the contraction's lift prepends a fixed point with
:func:`~arccalc.perms.hat`.  That routine is checked on its own: against a
delete-and-renumber referee on S_2..S_7 and on random words of every degree
to 256 in the tests, and through the contraction identity, which holds only
if the faces are right, up to degree 8.

The contraction identity ``∂h + h∂ = id`` is checked a block of words of one
degree at a time, the faces of the whole block taken at once by
:func:`~arccalc.perms.block_faces`.  With ``h`` the lift, the signed terms of
``∂h(w)`` and ``h∂(w)`` cancel in pairs and leave ``w`` whenever face 0 of
``h(w)`` is ``w`` and face ``j + 1`` of ``h(w)`` is ``h`` of face ``j`` of
``w``; a block where every word meets that is proven.  The prepend lift
meets it everywhere.  A block where it fails, as at the quotient's top
degree, is decided word by word by summing the signed terms in a dict, from
the lifts already taken, so each word and face is lifted once either way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from . import MAX_DEGREE_CAP
from .intmat import SNFResult, SparseIntMatrix, snf
from .perms import Perm, all_perms, block_faces, cofaces, faces, hat, identity
from .surfaces import _check_side, _genus_levels, _realizable, _realizable_levels, _word_genus, genus_counts

DEFAULT_DEGREE_CAP = 7


def _check_cap(max_degree: int, low: int = 1) -> None:
    if not low <= max_degree <= MAX_DEGREE_CAP:
        raise ValueError(f"max_degree must be in [{low}, {MAX_DEGREE_CAP}], got {max_degree}")


def _check_genus(g: int) -> None:
    if g < 2:
        raise ValueError("quotient complex needs genus >= 2")


# the sign of face j, for each of the at most 256 faces of a byte word
_SIGNS = (1, -1) * 128


def face_matrix(
    words: Iterable[Perm] | Iterable[bytes],
    targets: Sequence[Perm] | Sequence[bytes],
    skip_rows: frozenset[int] = frozenset(),
    relative_to: Callable[[bytes], bool] | None = None,
) -> SparseIntMatrix:
    """
    Signed face matrix: column ``c`` is the alternating face sum of the
    ``c``-th word of ``words``, and the row of a face is its position in
    ``targets``.  ``words`` may be any iterable, a generator included: it
    is read once, and its columns are counted as they come, so a basis that
    is only ever a matrix's columns need never be held.  A column or target
    that is not a permutation word of the right degree, a repeated target,
    or a face missing from ``targets`` raises ``ValueError``; a message
    names each word as a tuple, whichever kind came in.

    The rows in ``skip_rows`` are left empty, as ``snf`` with the same
    ``skip_rows`` treats them: a matrix reduced once, cleared, need not
    store the rows its reduction never reads.  Every face is still looked
    up in ``targets``, so a skipped row changes no check, and a skip row
    outside ``range(len(targets))`` raises ``ValueError``.

    ``relative_to`` gives the boundary of a relative complex ``P/Q``, whose
    basis is the words of ``P`` outside the subcomplex ``Q``: it is the
    membership test of ``Q``, called with each face missing from
    ``targets`` as a byte word.  A face it accepts is dropped, since it is
    zero in ``P/Q``; a face it rejects is outside both sets and raises
    ``ValueError`` as before.

    >>> face_matrix([(0, 2, 1)], [(0, 1), (1, 0)]).to_dense()
    [[0], [1]]
    >>> face_matrix([(0, 2, 1)], [(0, 1), (1, 0)], skip_rows=frozenset({1})).to_dense()
    [[0], [0]]
    >>> face_matrix([(0, 2, 1)], [(1, 0)], relative_to=lambda f: f == bytes((0, 1))).to_dense()
    [[1]]
    """
    outside = sorted(i for i in skip_rows if not 0 <= i < len(targets))
    if outside:
        raise ValueError(f"skip rows {outside} are outside range({len(targets)})")
    m = SparseIntMatrix(len(targets), 0)
    columns = iter(words)
    first = next(columns, None)
    if first is None:
        return m
    k = len(first)
    if k < 2:
        raise ValueError("no faces below degree 2")
    letters = set(range(k - 1))
    rows: dict[bytes, int] = {}
    for i, f in enumerate(targets):
        if len(f) != k - 1 or set(f) != letters:
            raise ValueError(f"target {tuple(f)} is not a permutation word of degree {k - 1}")
        if rows.setdefault(bytes(f), i) != i:
            raise ValueError(f"target {tuple(f)} is repeated")
    out = m._rows
    for c, word in enumerate(itertools.chain((first,), columns)):
        # a word that is not a permutation has a face outside the targets: a
        # repeated value makes a short face, an entry from k on a high one
        try:
            w = bytes(word)
        except ValueError:
            w = b""  # an entry outside range(256)
        if len(w) != k:
            raise ValueError(f"{tuple(word)} is not a permutation word of degree {k}")
        # sum the column before storing it, so that a cancelling face pair
        # never occupies a slot in a row dict
        col: dict[int, int] = {}
        for f, sign in zip(faces(w), _SIGNS):
            i = rows.get(f)
            if i is None:
                if relative_to is not None and relative_to(f):
                    continue
                raise ValueError(f"face {tuple(f)} of {tuple(w)} is outside the target basis")
            col[i] = col.get(i, 0) + sign
        for i, v in col.items():
            if v and i not in skip_rows:
                out[i][c] = v
    m.ncols = c + 1
    return m


class ChainComplex:
    """
    Graded bases of permutation words with exact boundary matrices.

    Each degree's words are stored as a tuple of the words given, so a
    list the caller changes later changes nothing here:
    :func:`perm_complex` and :func:`quotient_complex` give byte words.
    ``basis(d)`` is the ordered basis at degree ``d``, each word as a
    tuple; ``dimension(d)`` is its length, read without building one.
    ``boundary_matrix(d)`` maps degree ``d`` to degree ``d-1`` for
    ``min_degree < d <= max_degree``; it is the :func:`face_matrix` of the
    basis, so a basis that is not closed under faces raises ``ValueError``,
    as does an empty ``bases``.  Instances are immutable after
    construction.
    """

    def __init__(self, bases: dict[int, Sequence[Perm] | Sequence[bytes]]):
        # the tuple of a tuple is the tuple itself, not a copy
        self._bases = {d: tuple(words) for d, words in bases.items()}
        if not self._bases:
            raise ValueError("a chain complex needs at least one degree")
        self.min_degree = min(self._bases)
        self.max_degree = max(self._bases)
        if set(self._bases) != set(range(self.min_degree, self.max_degree + 1)):
            raise ValueError("degrees must be contiguous")
        self._matrices = {
            d: face_matrix(self._bases[d], self._bases[d - 1])
            for d in range(self.min_degree + 1, self.max_degree + 1)
        }

    def _stored(self, d: int) -> tuple[Perm, ...] | tuple[bytes, ...]:
        if d not in self._bases:
            raise ValueError(f"degree {d} not present (range {self.min_degree}..{self.max_degree})")
        return self._bases[d]

    def basis(self, d: int) -> tuple[Perm, ...]:
        return tuple(map(tuple, self._stored(d)))

    def dimension(self, d: int) -> int:
        return len(self._stored(d))

    def boundary_matrix(self, d: int) -> SparseIntMatrix:
        if d not in self._matrices:
            raise ValueError(f"no boundary matrix at degree {d}")
        return self._matrices[d]


@dataclass(frozen=True)
class HomologyGroup:
    betti: int
    torsion: tuple[int, ...]

    @property
    def trivial(self) -> bool:
        return self.betti == 0 and not self.torsion


def perm_complex(max_degree: int) -> ChainComplex:
    """Full complex: basis at degree ``d`` is the whole symmetric group."""
    _check_cap(max_degree)
    return ChainComplex({d: tuple(map(bytes, all_perms(d))) for d in range(1, max_degree + 1)})


def quotient_complex(g: int, side: int, max_degree: int = DEFAULT_DEGREE_CAP) -> ChainComplex:
    """
    Subcomplex of realizable words at genus ``g``.  Realizability is closed
    under faces, so the boundary restricts; construction checks it.  The
    bases are one walk up the uncached levels of
    :func:`~arccalc.surfaces._realizable_levels`, not drawn through the
    cache of :func:`~arccalc.surfaces.realizable_perms`, which would hold
    them as tuples for the life of the process.
    """
    _check_genus(g)
    _check_cap(max_degree)
    levels = _realizable_levels(side, g, max_degree)
    return ChainComplex({d: tuple(w for w, _ in level) for d, level in enumerate(levels, 1)})


def _homology_at(dimension: int, out: SNFResult | None, into: SparseIntMatrix | None) -> HomologyGroup:
    """
    Homology at a degree of ``dimension`` basis words, from ``out``, the
    Smith normal form of the boundary out of the degree, and ``into``, the
    boundary into it, each ``None`` where that map is zero.  ``into`` is
    reduced here, cleared by the unit pivot columns of ``out``.
    """
    out_rank, cleared = (0, frozenset()) if out is None else (out.rank, out.unit_pivot_columns)
    if into is None:
        return HomologyGroup(dimension - out_rank, ())
    res = snf(into, skip_rows=cleared)
    return HomologyGroup(dimension - out_rank - res.rank, tuple(f for f in res.invariant_factors if f > 1))


def homology(c: ChainComplex, d: int) -> HomologyGroup:
    """
    Homology at degree ``d`` of the truncated complex: boundary maps into or
    out of absent degrees are zero, so the ends report kernels/cokernels of
    the truncation.  The degree itself must be present.

    The boundary into ``d`` is cleared by the one out of it.  ``snf(∂_d)``
    first reduces ``∂_d`` to a row echelon form; when every lead is a unit,
    the rows of ``∂_{d+1}`` at the lead columns are integer combinations of
    the other rows, because ``∂_d @ ∂_{d+1} == 0``, so ``snf(∂_{d+1})``
    skips them and finds the same rank and invariant factors (the clearing
    of Chen and Kerber, 2011, and Bauer, Kerber and Reininghaus, 2014; the
    argument is in :mod:`arccalc.intmat`).  A lead that is not a unit hands
    ``∂_d`` to the eliminator, which offers no columns, so nothing is
    skipped.
    """
    if d < c.min_degree or d > c.max_degree:
        raise ValueError(f"degree {d} not present (range {c.min_degree}..{c.max_degree})")
    out = snf(c.boundary_matrix(d)) if d > c.min_degree else None
    into = c.boundary_matrix(d + 1) if d < c.max_degree else None
    return _homology_at(c.dimension(d), out, into)


def _report_degree(g: int, side: int, max_degree: int | None) -> int:
    """
    The top degree of a report's complex, ``max_degree`` or its default,
    once the arguments are checked: a report checks degrees ``2 ..
    max_degree - 1``, so ``max_degree`` below 3 would check nothing and
    raises ``ValueError``, as do a genus below 2 and a bad side.
    """
    if max_degree is None:
        max_degree = min(MAX_DEGREE_CAP, max(DEFAULT_DEGREE_CAP, g + side))
    _check_cap(max_degree, 3)
    _check_genus(g)
    _check_side(side)
    return max_degree


def _rows(g: int, side: int, walk: Iterator[HomologyGroup]) -> list[dict]:
    """The report rows of a :func:`_walk` whose first row is degree 2."""
    top = g + side - 1
    return [
        {"degree": d, "betti": h.betti, "torsion": list(h.torsion), "trivial": h.trivial, "guaranteed": d <= top}
        for d, h in enumerate(walk, 2)
    ]


def _route_cells(g: int, side: int, max_degree: int) -> tuple[int, int]:
    """
    The cells each route of :func:`exactness_report` would build, from
    :func:`~arccalc.surfaces.genus_counts` alone: the direct route's
    realizable words through ``max_degree``, and the complement route's
    non-realizable words through ``max_degree`` plus half a cell for
    each of the ``(max_degree + 1)²`` coface scans of each of those of
    degree ``max_degree``, a weight timed in ``BENCH_36.json``.
    """
    direct = complement = 0
    for p in range(1, max_degree + 1):
        counts = genus_counts(p, side)
        # a word of genus s is realizable at g exactly when s >= p + 1 - g - side
        outside = sum(counts[: max(0, p + 1 - g - side)])
        direct += sum(counts) - outside
        complement += outside
    return direct, complement + outside * (max_degree + 1) ** 2 // 2


def exactness_report(g: int, side: int, max_degree: int | None = None) -> list[dict]:
    """
    Homology of the quotient complex at every internal degree, flagging the
    degrees where exactness is guaranteed (positions ``2 .. g-1+side``; the
    guarantee covers the range just below the point where realizability
    starts cutting the basis down).  Out-of-range rows are informational.
    The rows cover degrees ``2 .. max_degree - 1``, so ``max_degree`` below
    3 would check nothing and raises ``ValueError``.

    Two routes give the same rows, and the report takes the one that builds
    fewer cells, counted by :func:`_route_cells` before any word is drawn;
    a tie goes to the direct route, :func:`_direct_rows`.  The complement
    route, :func:`complement_report`, is the smaller at high genus: at
    degree 8 it is taken from genus 6 on side 1 and from genus 5 on side 2.
    """
    max_degree = _report_degree(g, side, max_degree)
    direct, complement = _route_cells(g, side, max_degree)
    return (_complement_rows if complement < direct else _direct_rows)(g, side, max_degree)


def _walk(bases: Iterable[Sequence[bytes]], build: Callable, top: Callable) -> Iterator[HomologyGroup]:
    """
    Homology at every degree of ``bases`` but the lowest.  ``bases`` gives
    two bases at least, lowest first, each drawn when the walk reaches it.
    ``build(above, basis)`` is the boundary from ``above`` into ``basis``,
    and ``top(basis, cleared)`` the one into the last basis, from a degree
    never drawn; either gives ``None`` for a zero map, which is not reduced.

    At degree ``d`` the walk holds ``∂_d`` and basis ``d``.  It reduces
    ``∂_d`` and drops it, draws basis ``d + 1``, builds ``∂_{d+1}`` and drops
    basis ``d``, then reduces ``∂_{d+1}`` in :func:`_homology_at`, cleared
    by the unit pivot columns of ``∂_d``.  That matrix is reduced again,
    uncleared, as the boundary out of the next degree, so it keeps every
    row.  The top matrix is reduced only once, cleared, so ``top`` is given
    those columns and need not store the rows they name: its reduction
    never reads them.
    """
    bases = iter(bases)
    below, basis = next(bases), next(bases)
    boundary = build(basis, below)
    del below
    while basis is not None:
        out = None if boundary is None else snf(boundary)
        del boundary
        above = next(bases, None)
        cleared = frozenset() if out is None else out.unit_pivot_columns
        boundary = top(basis, cleared) if above is None else build(above, basis)
        dimension, basis = len(basis), above
        yield _homology_at(dimension, out, boundary)


def _direct_rows(g: int, side: int, max_degree: int) -> list[dict]:
    """
    :func:`exactness_report`'s rows by the direct route, for checked
    arguments: :func:`_walk` over the realizable words, one walk up the
    levels of :func:`~arccalc.surfaces._realizable_levels`, each made from
    the basis below.  They equal :func:`homology` of
    :func:`quotient_complex` at each degree, with the same ``snf`` calls on
    the same matrices in the same order, but no :class:`ChainComplex` is
    built.  The top basis is never held: its words go straight from the
    level walk into the columns of the last matrix.
    """
    levels = _realizable_levels(side, g, max_degree)

    def last(basis: Sequence[bytes], cleared: frozenset[int]) -> SparseIntMatrix:
        return face_matrix((w for w, _ in next(levels)), basis, skip_rows=cleared)

    # islice stops at the level below the top, which it leaves for last
    bases = (tuple(w for w, _ in level) for level in itertools.islice(levels, max_degree - 1))
    # face_matrix never gives None, so the zero ∂_2 on S_2 is reduced, as
    # homology reduces it
    return _rows(g, side, _walk(bases, face_matrix, last))


def complement_report(g: int, side: int, max_degree: int | None = None) -> list[dict]:
    """
    :func:`exactness_report`'s rows, read off the complement of the
    quotient complex: its bases share no word with the direct route's.

    Let ``P`` be the full complex and ``Q`` the quotient complex at genus
    ``g``, its subcomplex of realizable words.  ``P`` is acyclic in every
    degree from 2 on: :func:`~arccalc.perms.hat` contracts it there, and
    :func:`verify_homotopy` checks that contraction on every word through
    degree 8.  The long exact sequence of the pair then gives
    ``H_d(Q) ≅ H_{d+1}(P/Q)`` for ``d >= 2``, torsion included, so row ``d``
    is the homology at degree ``d + 1`` of ``P/Q``.  Its basis is the
    non-realizable words, and its boundary drops the realizable faces,
    which are zero in ``P/Q``.  That is a chain complex because
    realizability is closed under faces: a face keeps its word's genus or
    lowers it by one, so a word's ``δ = degree - genus`` never grows on a
    face, and a word is realizable exactly when ``δ <= g + side - 1``.

    The non-realizable words of degree ``p`` are those of genus at most
    ``p - g - side``, drawn by :func:`~arccalc.surfaces._genus_levels`, each
    level made from the one below at position 0 alone, without enumerating
    ``S_p`` or counting a boundary per word.  They are walked by
    :func:`_walk`: :func:`face_matrix` builds each inner boundary with
    ``relative_to`` the realizability test, so every face it drops is
    checked to be realizable, and a boundary with no entry is the zero map.
    The top boundary, into degree ``max_degree`` from the degree above, is
    read as rows (:func:`_coface_rows`), so that degree is never enumerated.
    """
    return _complement_rows(g, side, _report_degree(g, side, max_degree))


def _complement_rows(g: int, side: int, max_degree: int) -> list[dict]:
    """:func:`complement_report`'s walk, for checked arguments."""

    def realizable(face: bytes) -> bool:
        return _realizable(face, side, g, _word_genus(face, side))

    def nonzero(m: SparseIntMatrix) -> SparseIntMatrix | None:
        return m if m.nnz else None

    def build(above: Sequence[bytes], basis: Sequence[bytes]) -> SparseIntMatrix | None:
        return nonzero(face_matrix(above, basis, relative_to=realizable))

    def last(basis: Sequence[bytes], cleared: frozenset[int]) -> SparseIntMatrix | None:
        return nonzero(_coface_rows(basis, cleared))

    # every level holds the words of genus at most that of the top degree's
    # complement; degree p keeps those of genus at most p - g - side
    levels = _genus_levels(max_degree - g - side, side, max_degree)
    bases = (tuple(w for w, s in level if not _realizable(w, side, g, s)) for level in levels)
    next(bases)  # degree 1, where every word is realizable
    return _rows(g, side, _walk(bases, build, last))


def _coface_rows(words: Sequence[bytes], skip_rows: frozenset[int]) -> SparseIntMatrix:
    """
    The boundary into ``words``, non-realizable words of one degree, from
    the non-realizable words of the degree above, as rows: row ``i`` holds,
    at each coface of ``words[i]``, the sum of ``(-1)**j`` over the
    positions ``j`` at which ``words[i]`` is that coface's face ``j``.  The
    columns are the cofaces, numbered as they are met; the rows in
    ``skip_rows`` are left empty, as :func:`face_matrix` leaves them.

    Every coface of a non-realizable word is non-realizable, since ``δ``
    never grows on a face, so no coface is dropped, and a row lists all
    ``(k + 1)²`` cofaces of its degree-``k`` word.  This is the transpose
    of :func:`face_matrix`'s build, not the same algorithm again: there the
    columns are enumerated and their faces looked up in the rows; here the
    columns are never enumerated, since drawing that degree's complement
    would take its whole level of cofaces, and only the rows a cleared
    reduction reads generate any.
    """
    m = SparseIntMatrix(len(words), 0)
    columns: dict[bytes, int] = {}
    for i, w in enumerate(words):
        if i in skip_rows:
            continue
        row: dict[int, int] = {}
        for sign, made in zip(_SIGNS, cofaces(w)):
            for c in made:
                j = columns.setdefault(c, len(columns))
                row[j] = row.get(j, 0) + sign
        m._rows[i] = {j: v for j, v in row.items() if v}
    m.ncols = len(columns)
    return m


@dataclass(frozen=True)
class HomotopyReport:
    checked: int
    failures: tuple[Perm, ...]

    @property
    def ok(self) -> bool:
        # a check that checked nothing has not passed
        return self.checked > 0 and not self.failures


def _contracts(word: bytes, lifted: bytes | None, lifted_faces: Iterable[bytes | None]) -> bool:
    """
    Whether boundary-of-lift plus lift-of-boundary sends the byte word
    ``word`` to itself, from its lift ``lifted`` and the lifts of its faces
    in face order, each one byte word or ``None`` for zero.  The faces of
    ``lifted`` come from :func:`~arccalc.perms.faces`, and the signed terms
    of both sides are summed in one dict keyed by bytes.
    """
    acc: dict[bytes, int] = {}
    if lifted is not None:
        for f, sign in zip(faces(lifted), _SIGNS):
            acc[f] = acc.get(f, 0) + sign
    for f, sign in zip(lifted_faces, _SIGNS):
        if f is not None:
            acc[f] = acc.get(f, 0) + sign
    return acc.pop(word, 0) == 1 and not any(acc.values())


# words per block of the contraction check: at degree 8 a block holds about
# 1.4 MB of words, lifts and faces at its peak (by tracemalloc); blocks of
# 512 to 2048 words ran the homotopy command equally fast, and 2048 raised
# its own peak RSS by 1.2 MB more
_BLOCK = 1024


def _termwise(
    words: list[bytes], lifts: list[bytes | None], lifted_faces: list[list[bytes | None]], k: int
) -> bool:
    """
    Whether the signed terms of every word of a block of degree ``k`` cancel
    in pairs: each lift has degree ``k + 1``, each lifted face degree ``k``,
    face 0 of each lift is its word, and face ``j + 1`` of each lift is the
    lift of the word's face ``j``.  The degrees are checked word by word, as
    equal totals would not make the joined comparisons exact; given them, a
    face of a lift, which has degree at most ``k``, equals its partner
    exactly when the joined columns do.
    """
    if None in lifts or set(map(len, lifts)) != {k + 1}:
        return False
    if any(None in col or set(map(len, col)) != {k} for col in lifted_faces):
        return False
    up = block_faces(lifts)
    join = b"".join
    return join(next(up)) == join(words) and all(join(f) == join(col) for f, col in zip(up, lifted_faces))


def _contraction_report(words: Iterable[Perm], lift: Callable[[bytes], bytes | None]) -> HomotopyReport:
    """
    Count ``words`` and collect those on which boundary-of-lift plus
    lift-of-boundary is not the identity, in the order given.  Each word is
    checked as ``bytes(word)`` and recorded as given.

    The words go in blocks of one degree ``k``, at most :data:`_BLOCK` at a
    time.  Every word and every face of every word is lifted exactly once,
    by ``lift`` as it is passed (so a patched lift is the one checked), and
    the faces of a block come from :func:`~arccalc.perms.block_faces`.  The
    boundary of a word's lift is ``sum((-1)**j * face(lift, j))`` over
    ``j <= k``, and the lift of its boundary is ``sum((-1)**j * lift(face(w,
    j)))`` over ``j < k``; when face 0 of the lift is the word and face
    ``j + 1`` of the lift is the lift of face ``j`` (:func:`_termwise`), the
    terms cancel in pairs and leave the word, so the whole block is proven.
    A block where any of that fails, a zero lift included, is decided word by
    word by the signed dict sum of :func:`_contracts`, built from the lifts
    already taken.
    """
    checked = 0
    failures = []
    for k, run in itertools.groupby(words, len):
        while block := list(itertools.islice(run, _BLOCK)):
            checked += len(block)
            bwords = list(map(bytes, block))
            lifts = list(map(lift, bwords))
            lifted_faces = [list(map(lift, col)) for col in block_faces(bwords)]
            if _termwise(bwords, lifts, lifted_faces, k):
                continue
            for word, w, lifted, *lifted_row in zip(block, bwords, lifts, *lifted_faces):
                if not _contracts(w, lifted, lifted_row):
                    failures.append(word)
    return HomotopyReport(checked, tuple(failures))


def verify_homotopy(max_degree: int) -> HomotopyReport:
    """
    Exhaustive check that prepend-then-boundary plus boundary-then-prepend
    is the identity on every word of degree 2 through ``max_degree``.

    The words go to :func:`_contraction_report` a block of one degree at a
    time.  A block is proven termwise: face 0 of each word's lift is the
    word, and face ``j + 1`` of the lift is the lift of face ``j``, so the
    signed terms cancel in pairs.  A block that fails that test is decided
    word by word by the signed dict sum, so the failures are exactly the
    words whose terms do not sum to the word, in enumeration order.
    """
    _check_cap(max_degree)
    words = (w for d in range(2, max_degree + 1) for w in all_perms(d))
    return _contraction_report(words, hat)


def verify_homotopy_sampled(degree: int, samples: int, seed: int = 0) -> HomotopyReport:
    """Same identity on ``samples`` random words of the given degree."""
    if degree < 2:
        raise ValueError("homotopy identity needs degree >= 2")
    # imported here: at module level it adds to the start-up time and peak
    # RSS of every command, and only the sampled check draws words
    import random

    rng = random.Random(seed)

    def draw() -> Perm:
        word = list(range(degree))
        rng.shuffle(word)
        return tuple(word)

    return _contraction_report((draw() for _ in range(samples)), hat)


def quotient_contraction(g: int, side: int, word: Perm) -> Perm | None:
    """
    The lifted contraction on the quotient complex at genus ``g``: one word,
    or ``None`` for zero.

    Prepending a fixed point keeps a word realizable except in one spot: the
    identity at the top degree ``T = g + side - 1``.  There the correction is
    degree-parity dependent: zero when ``T`` is odd (the identity's boundary
    already vanishes one degree down), and the word ``(2,0,1,3,4,...,T)``
    when ``T`` is even (its boundary equals the identity's).

    ``word`` must be a permutation word; it is not checked again.  Below the
    top degree the lift has degree at most ``T``, where every word is
    realizable (the shortcut of :func:`~arccalc.surfaces.realizable_perms`),
    so it is returned uncounted.  From the top degree on, the lift's
    realizability is read from its boundary count, computed uncached, so the
    check fills no process-wide cache.
    """
    top = g + side - 1
    lifted = hat(word)
    if len(word) < top or _realizable(lifted, side, g, _word_genus(lifted, side)):
        return lifted
    if word != identity(top):
        raise ValueError(f"unexpected escape at degree {len(word)}: {word}")
    if top % 2 == 1:
        return None
    return (2, 0, 1, *range(3, top + 1))


def _quotient_lift_top(g: int, side: int) -> int:
    """
    The top degree ``g + side - 1`` of the quotient lift's guaranteed range.
    Every word up to it is realizable, so the range holds all of each
    symmetric group: a top degree over ``MAX_DEGREE_CAP`` raises
    ``ValueError``, as does a genus below 2.
    """
    _check_genus(g)
    top = g + side - 1
    if top > MAX_DEGREE_CAP:
        raise ValueError(f"quotient lift top degree g+side-1 = {top} is over {MAX_DEGREE_CAP}")
    return top


def verify_quotient_homotopy(g: int, side: int) -> HomotopyReport:
    """
    Check that the lifted contraction contracts the quotient complex in the
    guaranteed range: for every basis word of degree ``2 <= d <= g-1+side``,
    contraction-of-boundary plus boundary-of-contraction returns the word.
    The range is checked by :func:`_quotient_lift_top` before any word is
    enumerated; every word in it is realizable, so the words are each whole
    symmetric group, drawn uncached.
    """
    top = _quotient_lift_top(g, side)
    _check_side(side)

    def lift(word: bytes) -> bytes | None:
        # the module-level name is read at each call, so a patched
        # quotient_contraction is the one checked
        lifted = quotient_contraction(g, side, tuple(word))
        return None if lifted is None else bytes(lifted)

    words = (w for d in range(2, top + 1) for w in all_perms(d))
    return _contraction_report(words, lift)
