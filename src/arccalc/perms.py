"""
Permutations of ``{0, ..., k-1}`` in word notation, plus the signed face and
boundary calculus of the permutation chain complex.

A permutation ``x`` of degree ``k`` is the tuple ``(x(0), ..., x(k-1))``.
Functions accept any integer sequence and return plain tuples, so every value
is hashable, immutable and safe to share between threads.

A word may also be a byte string whose byte ``i`` is ``x(i)``.  The face
calculus keeps the kind it is given: :func:`faces`, :func:`face` and
:func:`hat` return byte strings for a ``bytes`` argument and tuples for any
other integer sequence, with the same values either way.  Both kinds are
computed on bytes, a face by one ``bytes.translate`` that renumbers through a
table and deletes the face's value, so a word of degree over 256, an entry
outside ``range(256)``, or a :func:`hat` argument of degree over 255 raises
``ValueError`` rather than wrapping.  The supported degrees stop at 8.
:func:`block_faces` is the block form of :func:`faces` on the same tables:
face ``j`` of a whole block of byte words of one degree, taken in one
``map(bytes.translate, ...)`` over the block's letters at position ``j``.
:func:`cofaces` goes the other way, on byte words only: it inserts a value
at a position and renumbers up, so face ``j`` of a coface made at position
``j`` is the word it was made from.

Composition convention: ``compose(a, b)`` applies ``b`` first, so
``compose(a, b)(x) == a(b(x))``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

Perm = tuple[int, ...]


def is_perm(word: Sequence[int]) -> bool:
    """
    Check that ``word`` is a permutation of ``{0, ..., n-1}`` with ``n = len(word)``.
    A bool is not a letter, though it is an int.

    >>> [is_perm(w) for w in [(0,), (1, 2, 0), (0, 0, 2), (3, 1), (True, False)]]
    [True, True, False, False, False]
    """
    n = len(word)
    seen = [False] * n
    for x in word:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < n or seen[x]:
            return False
        seen[x] = True
    return True


def as_perm(word: Sequence[int]) -> Perm:
    """Coerce ``word`` to a tuple, rejecting anything that is not a permutation."""
    p = tuple(word)
    if not p or not is_perm(p):
        raise ValueError(f"not a permutation word: {word!r}")
    return p


def identity(k: int) -> Perm:
    """
    The identity word of degree ``k``.

    >>> identity(3)
    (0, 1, 2)
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    return tuple(range(k))


def compose(a: Sequence[int], b: Sequence[int]) -> Perm:
    """
    Product applying ``b`` first: ``compose(a, b)(x) = a(b(x))``.

    >>> compose((1, 2, 0), (1, 2, 0))
    (2, 0, 1)
    >>> compose((0, 2, 1), (1, 2, 0))
    (2, 1, 0)
    """
    if len(a) != len(b):
        raise ValueError(f"degree mismatch: {len(a)} vs {len(b)}")
    return tuple(a[x] for x in b)


def inverse(a: Sequence[int]) -> Perm:
    """
    >>> inverse((1, 2, 0))
    (2, 0, 1)
    """
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


def cycle_count(a: Sequence[int]) -> int:
    """
    Number of disjoint cycles, fixed points counted as 1-cycles.

    >>> cycle_count((0, 1, 2, 3))
    4
    >>> cycle_count((1, 2, 0))
    1
    >>> cycle_count((3, 1, 0, 2))
    2
    """
    seen = [False] * len(a)
    count = 0
    for i in range(len(a)):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = a[j]
    return count


def rotation(k: int) -> Perm:
    """
    The cycle ``(1, 2, ..., k-1, 0)`` sending ``j`` to ``j+1 mod k``.

    >>> rotation(4)
    (1, 2, 3, 0)
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    return tuple((j + 1) % k for j in range(k))


# translation tables, sliced from one identity table to keep import cheap
_ID = bytes(range(256))
# _RENUMBER[v] maps x to x - [x > v]: the values left when v is deleted
_RENUMBER = [_ID[:v + 1] + _ID[v:255] for v in range(256)]
# the one-byte strings, which CPython caches, so the list makes no new bytes
_DELETE = [_ID[v:v + 1] for v in range(256)]
# x to x + 1; 255 has no image and is rejected before the table is read
_UP = _ID[1:] + b"\0"


def hat(t: Sequence[int]) -> Perm | bytes:
    """
    Prepend the fixed point 0: the result has degree ``k+1``, fixes 0, and
    sends ``j`` to ``t(j-1)+1`` for ``j >= 1``.  Bytes in, bytes out;
    otherwise a tuple.

    >>> hat((1, 2, 0))
    (0, 2, 3, 1)
    >>> hat(bytes((1, 2, 0)))
    b'\\x00\\x02\\x03\\x01'
    >>> cycle_count(hat((1, 0))) == cycle_count((1, 0)) + 1
    True
    """
    if len(t) > 255:
        raise ValueError(f"hat of degree {len(t)} would have degree {len(t) + 1}, over 256")
    w = t if isinstance(t, bytes) else bytes(t)
    if 255 in w:
        raise ValueError("entry 255 has no successor in a byte word")
    lifted = b"\0" + w.translate(_UP)
    return lifted if w is t else tuple(lifted)


def faces(a: Sequence[int]) -> list[Perm] | list[bytes]:
    """
    Every face of ``a``, face ``j`` at index ``j``: delete the entry at
    position ``j`` and renumber, subtracting 1 from every remaining value
    that exceeds the deleted one.  Bytes in, bytes out; otherwise tuples.

    One ``bytes.translate`` renumbers and deletes the value ``a[j]``, which
    in a permutation word sits only at position ``j``; so a word that
    repeats a value gets short faces, which ``face_matrix`` rejects.

    >>> faces((0, 2, 1))
    [(1, 0), (0, 1), (0, 1)]
    >>> faces(bytes((0, 2, 1)))
    [b'\\x01\\x00', b'\\x00\\x01', b'\\x00\\x01']
    """
    if len(a) < 2:
        raise ValueError("no faces below degree 2")
    if len(a) > 256:
        raise ValueError(f"faces of degree {len(a)}: a byte word has degree at most 256")
    w = a if isinstance(a, bytes) else bytes(a)
    out = [w.translate(_RENUMBER[v], _DELETE[v]) for v in w]
    return out if w is a else [tuple(f) for f in out]


def cofaces(w: bytes) -> list[list[bytes]]:
    """
    Every coface of the byte word ``w`` of degree ``k``: the ``j``-th list
    holds, for each value ``v`` in ``0 .. k``, the word of degree ``k + 1``
    made by renumbering up every entry from ``v`` on and inserting ``v`` at
    position ``j``.  Face ``j`` of each word in the ``j``-th list is ``w``,
    and every word of degree ``k + 1`` with ``w`` among its faces is in
    some list; a word with ``w`` as more than one face is in more than one.
    As with :func:`hat`, a degree over 255 or an entry 255 raises
    ``ValueError``, and a word that is not ``bytes`` raises ``TypeError``.

    >>> cofaces(b"\\0")
    [[b'\\x00\\x01', b'\\x01\\x00'], [b'\\x01\\x00', b'\\x00\\x01']]
    """
    if not isinstance(w, bytes):
        raise TypeError(f"cofaces takes a byte word, not {type(w).__name__}")
    if len(w) > 255:
        raise ValueError(f"cofaces of degree {len(w)} would have degree {len(w) + 1}, over 256")
    if 255 in w:
        raise ValueError("entry 255 has no successor in a byte word")
    k = len(w)
    # the tables are sliced per call, so importing the module builds none
    ups = [w.translate(_ID[:v] + _UP[v:]) for v in range(k + 1)]
    return [[u[:j] + _DELETE[v] + u[j:] for v, u in enumerate(ups)] for j in range(k + 1)]


def block_faces(words: Sequence[bytes]) -> Iterator[list[bytes]]:
    """
    Every face of a block of byte words of one degree ``k``, a face index at
    a time: the ``j``-th list yielded holds face ``j`` of each word, in
    order, so that ``list(block_faces(words))[j][i] == faces(words[i])[j]``.
    Each list is made when it is drawn, so a caller that is done with one
    before drawing the next holds one at a time.

    The letters at position ``j`` of the whole block are the slice
    ``b"".join(words)[j::k]``, and face ``j`` of every word is one
    ``map(bytes.translate, ...)`` over them, on the tables of :func:`faces`.
    Words of unequal degree raise ``ValueError``, as do the degrees that
    :func:`faces` rejects, before the first list is drawn.

    >>> list(block_faces([bytes((0, 2, 1)), bytes((1, 0, 2))]))
    [[b'\\x01\\x00', b'\\x00\\x01'], [b'\\x00\\x01', b'\\x00\\x01'], [b'\\x00\\x01', b'\\x01\\x00']]
    """
    if not words:
        return iter(())
    k = len(words[0])
    if k < 2:
        raise ValueError("no faces below degree 2")
    if k > 256:
        raise ValueError(f"faces of degree {k}: a byte word has degree at most 256")
    if set(map(len, words)) != {k}:
        raise ValueError(f"a block of faces needs words of one degree, {k}")
    joined = b"".join(words)
    return (
        list(map(bytes.translate, words, map(_RENUMBER.__getitem__, col), map(_DELETE.__getitem__, col)))
        for col in (joined[j::k] for j in range(k))
    )


def face(a: Sequence[int], j: int) -> Perm | bytes:
    """
    Face ``j`` of ``a``, as in :func:`faces`.

    >>> face((0, 2, 1), 0)
    (1, 0)
    >>> face((0, 2, 1), 2)
    (0, 1)
    >>> face(identity(4), 2)
    (0, 1, 2)
    """
    if not 0 <= j < len(a):
        raise ValueError(f"face index {j} out of range for degree {len(a)}")
    return faces(a)[j]


@dataclass(frozen=True)
class FormalSum:
    """
    Integer combination of equal-degree permutations.  The library sums
    signed faces in plain ``{word: coefficient}`` dicts; this class, with
    :func:`boundary` and :func:`homotopy_d_on_sum`, is a second route to the
    same sums that the tests hold those dicts to.

    ``coeffs`` maps each word to a nonzero coefficient, so two sums are equal
    when their mappings are, whatever the order of the words.  :meth:`from_terms`
    merges repeated words and drops zeros.  ``coeffs`` is a read-only view of
    a copy of the mapping passed in, so no write can bypass those checks; a
    sum is unhashable.
    """

    coeffs: Mapping[Perm, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        coeffs = dict(self.coeffs)
        if 0 in coeffs.values():
            raise ValueError("zero coefficient in formal sum")
        if len(set(map(len, coeffs))) > 1:
            raise ValueError("mixed degrees in formal sum")
        object.__setattr__(self, "coeffs", MappingProxyType(coeffs))

    @classmethod
    def from_terms(cls, pairs: Iterable[tuple[int, Sequence[int]]]) -> "FormalSum":
        acc: dict[Perm, int] = {}
        for c, p in pairs:
            p = tuple(p)
            acc[p] = acc.get(p, 0) + c
        return cls({p: c for p, c in acc.items() if c})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return FormalSum.from_terms((c, p) for s in (self, other) for p, c in s.coeffs.items())


def boundary(a: Sequence[int]) -> FormalSum:
    """
    Alternating sum of faces, as a normalized :class:`FormalSum`.

    >>> dict(boundary((0, 2, 1)).coeffs)
    {(1, 0): 1}
    >>> dict(boundary((1, 2, 0)).coeffs)
    {(0, 1): 1}
    >>> boundary(identity(4)).is_zero()
    True
    """
    return FormalSum.from_terms(((-1) ** j, f) for j, f in enumerate(faces(a)))


def homotopy_d_on_sum(s: FormalSum) -> FormalSum:
    return FormalSum.from_terms((c, hat(p)) for p, c in s.coeffs.items())


def all_perms(k: int) -> Iterator[Perm]:
    """All degree-``k`` words in lexicographic order."""
    if k < 1:
        raise ValueError("degree must be >= 1")
    return itertools.permutations(range(k))
