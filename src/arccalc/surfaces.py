"""
Closed-form surface arithmetic for arc systems.

A compact oriented surface is recorded by its type ``(g, r)``: genus and
number of boundary circles.  An arc system of ``p`` disjoint arcs between two
marked boundary points is recorded by an :class:`ArcClass`: the degree-``p``
permutation matching the arc order at the two endpoints, together with
``side`` = 1 when both endpoints sit on one boundary circle and 2 when they
sit on two distinct circles.  Everything about the thickened arc system and
the complementary cut surface (boundary count, genus, realizability on a
given genus) is a function of that pair alone.

An :class:`ArcClass` checks a pair that comes from outside; the word-level
helpers take ``(perm, side)`` unchecked, for words already known to be
permutations, such as those of :func:`~arccalc.perms.all_perms`, and a
genus read off a whole level by :func:`_levels`, the one level enumerator,
which counts no boundary per word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, repeat
from typing import Callable, Iterable, Iterator

from .perms import _DELETE, _ID, _UP, Perm, all_perms, as_perm, cycle_count, hat

SIDES = (1, 2)


def _check_side(side: int) -> None:
    """Reject a ``side`` outside :data:`SIDES`; a ``bool`` is not a side, though it is an int."""
    if isinstance(side, bool) or side not in SIDES:
        raise ValueError(f"side must be 1 or 2, got {side!r}")


@dataclass(frozen=True, slots=True)
class SurfaceType:
    """Genus ``g`` and boundary count ``r`` of a compact oriented surface."""

    g: int
    r: int

    def __post_init__(self) -> None:
        if self.g < 0 or self.r < 0:
            raise ValueError(f"invalid surface type ({self.g}, {self.r})")

    @property
    def euler_char(self) -> int:
        return 2 - 2 * self.g - self.r

    def __str__(self) -> str:
        return f"F({self.g},{self.r})"


@dataclass(frozen=True)
class ArcClass:
    """Orbit label of an arc system: endpoint-matching word plus side."""

    perm: Perm
    side: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "perm", as_perm(self.perm))
        _check_side(self.side)
        # hat takes side 1 one degree up, and a byte word stops at degree 256
        if len(self.perm) > 254 + self.side:
            raise ValueError(f"degree {len(self.perm)} is over {254 + self.side}, the limit on side {self.side}")

    def to_json(self) -> dict:
        return {"perm": list(self.perm), "side": self.side}


def boundary_count(perm: Perm, side: int) -> int:
    """
    Boundary count of the thickening of ``perm`` on ``side``, computed on
    every call: for callers that read each word's count once, so that the
    cache of :func:`boundary_of_neighborhood` keeps only reread entries.
    """
    # side 1 reads the arcs through hat, which prepends a fixed point.  The
    # count is that of rot . w^-1 . rot^-1 . w, or of its conjugate by w,
    # w . rot . w^-1 . rot^-1: the table maketrans(w, w rotated left) of
    # w . rot . w^-1 applied to the word (k-1, 0, ..., k-2) of rot^-1
    w = hat(bytes(perm)) if side == 1 else bytes(perm)
    k = len(w)
    conj = (_ID[k - 1:k] + _ID[:k - 1]).translate(bytes.maketrans(w, w[1:] + w[:1]))
    return cycle_count(conj) + side


_neighborhood_boundary = lru_cache(maxsize=None)(boundary_count)


def boundary_of_neighborhood(a: ArcClass) -> int:
    """
    Number of boundary circles of the thickened arc system.

    >>> boundary_of_neighborhood(ArcClass((1, 2, 0), 1))
    3
    >>> boundary_of_neighborhood(ArcClass((1, 2, 0), 2))
    5
    """
    return _neighborhood_boundary(a.perm, a.side)


def _genus(perm: Perm, side: int, nb: int) -> int:
    """Simplex genus of ``perm`` on ``side`` from its boundary count ``nb``."""
    num = len(perm) + 2 - nb
    if num < 0 or num % 2:
        raise ValueError(f"parity violation for {ArcClass(perm, side)}")
    return num // 2


def _word_genus(perm: Perm, side: int) -> int:
    """Simplex genus of ``perm`` on ``side``, from one uncached boundary count."""
    return _genus(perm, side, boundary_count(perm, side))


def _genera(p: int, side: int) -> Iterator[tuple[bytes, int]]:
    """
    Each degree-``p`` word in lexicographic order, as a byte word, with its
    simplex genus: the top level of :func:`_levels` that keeps every word.
    """
    if p < 1:
        raise ValueError("degree must be >= 1")
    for level in _levels(side, lambda d, s: True, p):
        pass
    return iter(level)


def _realizable(perm: Perm, side: int, g: int, s: int) -> bool:
    """The realizability criterion, from the simplex genus ``s``."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    return s >= len(perm) + 1 - g - side


def _cut_surface(ambient: SurfaceType, perm: Perm, side: int, s: int) -> SurfaceType:
    """The cut-surface type of ``perm`` on ``side``, from its simplex genus ``s``."""
    if ambient.r < side:
        raise ValueError(f"{ambient} has too few boundary circles for side {side}")
    p = len(perm)
    if not _realizable(perm, side, ambient.g, s):
        raise ValueError(
            f"genus deficit: {ArcClass(perm, side)} needs simplex genus >= {p + 1 - ambient.g - side}, has {s}"
        )
    # realizability gives g_cut >= 0, and the thickening has p + 2 - 2s >=
    # side + 1 boundary circles, so r_cut >= ambient.r - side + 1 >= 1
    return SurfaceType(ambient.g + s - (p + 1 - side), p + 2 - 2 * s + ambient.r - 2 * side)


def simplex_genus(a: ArcClass) -> int:
    """
    Genus of the thickened arc system; for ``p`` arcs this is
    ``(p + 2 - boundary_of_neighborhood) / 2``, always an exact division.

    >>> simplex_genus(ArcClass((1, 2, 0), 1))
    1
    >>> simplex_genus(ArcClass((1, 2, 0), 2))
    0
    """
    return _genus(a.perm, a.side, boundary_of_neighborhood(a))


def realizable(a: ArcClass, g: int) -> bool:
    """
    Whether some arc system on a genus-``g`` surface has this label: the
    criterion is ``simplex_genus >= p + 1 - g - side``.

    >>> realizable(ArcClass((0, 1), 2), 1)
    True
    >>> realizable(ArcClass((0, 1, 2), 1), 1)
    False
    """
    return _realizable(a.perm, a.side, g, simplex_genus(a))


# typed, so that a bool side misses the entry of its int and reaches the check
@lru_cache(maxsize=None, typed=True)
def realizable_perms(p: int, side: int, g: int) -> tuple[Perm, ...]:
    """
    All degree-``p`` words realizable at genus ``g``, in lexicographic order.
    The full symmetric group is returned whenever ``p <= g - 1 + side``.
    """
    if p < 1:
        raise ValueError("degree must be >= 1")
    _check_side(side)
    if p <= g - 1 + side:
        return tuple(all_perms(p))
    for level in _realizable_levels(side, g, p):
        pass
    return tuple(tuple(w) for w, _ in level)


def _realizable_levels(side: int, g: int, max_degree: int) -> Iterator[Iterable[tuple[bytes, int]]]:
    """
    The :func:`_levels` of the words realizable at genus ``g``, those of
    simplex genus ``s >= p + 1 - g - side`` at each degree ``p``.  A face
    keeps the genus or lowers it by one, and the bound on ``s`` falls by one
    with the degree, so the test is face-closed.
    """
    if g < 0:
        raise ValueError("genus must be >= 0")
    return _levels(side, lambda p, s: s >= p + 1 - g - side, max_degree)


def _genus_levels(S: int, side: int, max_degree: int) -> Iterator[Iterable[tuple[bytes, int]]]:
    """
    The :func:`_levels` of the words of simplex genus at most ``S`` on
    ``side``, a face-closed test since a face never raises the genus.  A
    negative ``S`` gives empty levels.
    """
    return _levels(side, lambda p, s: s <= S, max_degree)


def _corner(w: bytes, side: int) -> bytes:
    """
    The simplex genus on ``side`` of each word made from the byte word
    ``w`` at position 0: byte ``v``, for ``v`` in ``0 .. len(w)``, is the
    genus of ``v`` followed by ``w`` with every value from ``v`` on raised
    by one, the word whose face 0 is ``w``.

    One labelling of the cycles of ``pi = w . rot . w^-1 . rot^-1``, the
    permutation whose cycles :func:`boundary_count` counts (on side 1 read
    through ``hat``, where values shift up by one), gives them all.  Its
    cycle count is ``w``'s own boundary count less ``side``, which
    :func:`_genus` checks for parity.  A child has genus ``s(w) + 1``
    exactly when two letters lie in different cycles of ``pi``: ``v mod
    (p - 1)`` and ``w[0]`` on side 2, and ``(v + 1) mod p`` and ``w[0] + 1``
    on side 1, for children of degree ``p``; otherwise it keeps genus
    ``s(w)``.  In ribbon terms the new arc joins two boundary cycles, which
    merges them and raises the genus, or one cycle to itself, which splits
    it.  The rule is checked, not proven: against :func:`_word_genus` on
    every word through degree 8 and on random words to degree 253.  It
    reads the same ``pi`` as :func:`boundary_count`, so the ribbon tracer
    stays the independent route to the boundary count.
    """
    # hat's word, unchecked: a permutation word below degree 255 has no 255
    lifted = b"\0" + w.translate(_UP) if side == 1 else w
    k = len(lifted)
    pi = (_ID[k - 1:k] + _ID[:k - 1]).translate(bytes.maketrans(lifted, lifted[1:] + lifted[:1]))
    # the cycle of the letter from w[0] is labelled first, as 1
    o = 2 - side
    label = bytearray(k)
    cycles = 0
    for i in chain(lifted[o:o + 1], range(k)):
        if not label[i]:
            cycles += 1
            while not label[i]:
                label[i] = cycles
                i = pi[i]
    s = _genus(w, side, cycles + side)
    # byte v of the slice labels the letter from v; label 1 keeps the genus
    return bytes(label + label[:1])[o:o + len(w) + 1].translate(bytes((s + 1, s)) + bytes((s + 1,)) * 254)


def _levels(side: int, keep: Callable[[int, int], bool], max_degree: int) -> Iterator[Iterable[tuple[bytes, int]]]:
    """
    For each degree ``p`` from 1 to ``max_degree``, the degree-``p`` words
    whose simplex genus ``s`` on ``side`` passes ``keep(p, s)``, in
    lexicographic order, as byte words each with its genus.  ``keep`` must
    be face-closed: a word it keeps has face 0 kept one degree down.

    Level ``p`` is made from level ``p - 1`` at position 0 alone.  In
    lexicographic order ``S_p`` is, for each first letter ``v`` and each
    word ``w`` of ``S_{p-1}`` in order, ``v`` followed by ``w`` with every
    value from ``v`` on raised by one; face 0 of that word is ``w``, so each
    word is made exactly once and already in order, with no set or sort,
    and :func:`_corner` gives its genus.  A word whose children all fail
    ``keep`` is skipped whole.

    Each level is made when it is drawn.  Every level but the last is a
    list, since the next is made from it; the last is an iterator, made as
    it is read, so a caller that streams it never holds it.
    """
    _check_side(side)
    # the one degree-1 word has genus 0 on both sides
    level: Iterable[tuple[bytes, int]] = [(b"\0", 0)] if keep(1, 0) else []
    for p in range(1, max_degree + 1):
        if p > 1:
            ok = bytes(keep(p, s) for s in range(256))
            words, genera = [], []
            for w, _ in level:
                made = _corner(w, side)
                if any(made.translate(ok)):
                    words.append(w)
                    genera.append(made)
            level = _children(words, b"".join(genera), ok, p)
            if p < max_degree:
                level = list(level)
        yield level


def _children(words: list[bytes], genera: bytes, ok: bytes, p: int) -> Iterator[tuple[bytes, int]]:
    """
    The kept degree-``p`` children of ``words``, in lexicographic order,
    from their joined :func:`_corner` bytes ``genera`` and the table ``ok``
    of the genera kept: for each first letter ``v``, the genera of the
    children made with it are the column ``genera[v::p]``, and only the
    children kept are built.
    """

    def column(v: int) -> Iterator[tuple[bytes, int]]:
        col = genera[v::p]
        kept = col.translate(ok)
        up = repeat(_ID[:v] + _UP[v:])
        return zip(map(_DELETE[v].__add__, map(bytes.translate, compress(words, kept), up)), compress(col, kept))

    return chain.from_iterable(map(column, range(p)))


def genus_counts(p: int, side: int) -> tuple[int, ...]:
    """
    The number of degree-``p`` words of each simplex genus ``s`` on ``side``,
    indexed by ``s``, in closed form: ``2 c(p+1, p-2s) / (p+1)`` on side 2
    and ``2 c(p+2, p+1-2s) / ((p+1)(p+2))`` on side 1, with ``c(n, k)`` the
    unsigned Stirling numbers of the first kind.  The boundary count less
    ``side`` is the cycle count of ``rot . sigma`` with ``sigma =
    w^-1 . rot^-1 . w``, which runs over the long cycles of ``S_p`` (each
    met ``p`` times) on side 2 and of ``S_{p+1}`` (via ``hat``, each met
    once) on side 1; Zagier (1995) counts those cycles by that count.

    >>> genus_counts(3, 1)
    (1, 5)
    >>> genus_counts(4, 2)
    (4, 20)
    """
    if p < 1:
        raise ValueError("degree must be >= 1")
    _check_side(side)
    n = p + 3 - side
    # row n of c, by c(m + 1, k) = m c(m, k) + c(m, k - 1)
    row = [1]
    for m in range(n):
        row = [m * a + b for a, b in zip(row + [0], [0] + row)]
    div = n if side == 2 else n * (n - 1)
    return tuple(2 * row[n - 1 - 2 * s] // div for s in range(n // 2))


def cut_surface(ambient: SurfaceType, a: ArcClass) -> SurfaceType:
    """
    Type of the complement of the thickened arc system inside ``ambient``.

    >>> cut_surface(SurfaceType(5, 3), ArcClass((1, 2, 0), 2))
    SurfaceType(g=3, r=4)
    """
    return _cut_surface(ambient, a.perm, a.side, simplex_genus(a))


_GLUE_DELTAS = {
    "0,1": (0, 1),
    "1,-1": (1, -1),
    "1,0": (1, 0),
    "0,-1": (0, -1),
}


def glue(op: str, s: SurfaceType) -> SurfaceType:
    """
    Apply one of the elementary boundary operations:

    - ``"0,1"``: attach a pair of pants to one boundary circle (needs r >= 1),
    - ``"1,-1"``: attach a pair of pants to two boundary circles (needs r >= 2),
    - ``"1,0"``: the composite of the previous two (needs r >= 1),
    - ``"0,-1"``: cap a boundary circle with a disk (needs r >= 1),
    - ``"circle_cut"``: cut along a nonseparating circle (needs g >= 1).

    >>> glue("circle_cut", SurfaceType(2, 1))
    SurfaceType(g=1, r=3)
    """
    if op == "circle_cut":
        if s.g < 1:
            raise ValueError("circle_cut needs genus >= 1")
        return SurfaceType(s.g - 1, s.r + 2)
    if op not in _GLUE_DELTAS:
        raise ValueError(f"unknown gluing operation {op!r}")
    dg, dr = _GLUE_DELTAS[op]
    if op == "1,-1" and s.r < 2:
        raise ValueError("gluing 1,-1 needs at least two boundary circles")
    if s.r < 1:
        raise ValueError(f"gluing {op} needs at least one boundary circle")
    return SurfaceType(s.g + dg, s.r + dr)
