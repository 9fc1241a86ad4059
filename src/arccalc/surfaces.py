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
functions take ``(perm, side)`` unchecked, for words already known to be
permutations, such as those of :func:`~arccalc.perms.all_perms`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .perms import Perm, all_perms, as_perm, cycle_count, hat, inverse

SIDES = (1, 2)


@dataclass(frozen=True)
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
        if self.side not in SIDES:
            raise ValueError(f"side must be 1 or 2, got {self.side}")

    @property
    def arc_count(self) -> int:
        return len(self.perm)

    def to_json(self) -> dict:
        return {"perm": list(self.perm), "side": self.side}


def boundary_count(perm: Perm, side: int) -> int:
    """
    Boundary count of the thickening of ``perm`` on ``side``, computed on
    every call: for callers that read each word's count once, so that the
    cache of :func:`boundary_of_neighborhood` keeps only reread entries.
    """
    # side 1 reads the arcs through hat, which prepends a fixed point; the
    # count is that of rot . w^-1 . rot^-1 . w, whose entry at x is built
    # from y = w(x) in one pass
    w = hat(perm) if side == 1 else perm
    k = len(w)
    inv = inverse(w)
    return cycle_count([(inv[(y - 1) % k] + 1) % k for y in w]) + side


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


def _realizable(perm: Perm, side: int, g: int, nb: int) -> bool:
    """The realizability criterion, from the boundary count ``nb``."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    return _genus(perm, side, nb) >= len(perm) + 1 - g - side


def _cut_surface(ambient: SurfaceType, perm: Perm, side: int, nb: int) -> SurfaceType:
    """The cut-surface type of ``perm`` on ``side``, from the boundary count ``nb``."""
    if ambient.r < side:
        raise ValueError(f"{ambient} has too few boundary circles for side {side}")
    s = _genus(perm, side, nb)
    p = len(perm)
    if not _realizable(perm, side, ambient.g, nb):
        raise ValueError(
            f"genus deficit: {ArcClass(perm, side)} needs simplex genus >= {p + 1 - ambient.g - side}, has {s}"
        )
    # realizability gives g_cut >= 0, and the thickening has at least
    # side + 1 boundary circles, so r_cut >= ambient.r - side + 1 >= 1
    g_cut = ambient.g + s - (p + 1 - side)
    r_cut = nb + ambient.r - 2 * side
    return SurfaceType(g_cut, r_cut)


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
    return _realizable(a.perm, a.side, g, boundary_of_neighborhood(a))


@lru_cache(maxsize=None)
def realizable_perms(p: int, side: int, g: int) -> tuple[Perm, ...]:
    """
    All degree-``p`` words realizable at genus ``g``, in lexicographic order.
    The full symmetric group is returned whenever ``p <= g - 1 + side``.
    """
    if p < 1:
        raise ValueError("degree must be >= 1")
    if side not in SIDES:
        raise ValueError("side must be 1 or 2")
    if p <= g - 1 + side:
        return tuple(all_perms(p))
    # the filter reads each count once, so it skips the cache
    return tuple(w for w in all_perms(p) if _realizable(w, side, g, boundary_count(w, side)))


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
    if side not in SIDES:
        raise ValueError("side must be 1 or 2")
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
    return _cut_surface(ambient, a.perm, a.side, boundary_of_neighborhood(a))


_GLUE_DELTAS = {
    "0,1": (0, 1),
    "1,-1": (1, -1),
    "1,0": (1, 0),
    "0,-1": (0, -1),
}


def glue(op: str, s: SurfaceType) -> SurfaceType:
    """
    Apply one of the elementary boundary operations:

    - ``"0,1"``: attach a pair of pants to one boundary circle,
    - ``"1,-1"``: attach a pair of pants to two boundary circles (needs r >= 2),
    - ``"1,0"``: the composite of the previous two,
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
    if op == "0,-1" and s.r < 1:
        raise ValueError("gluing 0,-1 needs at least one boundary circle")
    return SurfaceType(s.g + dg, s.r + dr)
