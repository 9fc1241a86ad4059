"""
Mechanical replay of the stability bookkeeping.

Three kinds of artifacts:

* ``main_theorem_ledger`` instantiates, over a finite parameter grid, every
  inequality the untwisted stability induction rests on, and records whether
  each instance holds.  A clean run is a numeric audit of the induction.
* ``twisted_range`` evaluates the stability thresholds for coefficient
  systems of a given degree under the three gluing moves.
* ``orbit_set_exceptions`` re-derives, by brute force over realizability, the
  finitely many parameter tuples where the orbit sets used by the twisted
  induction are smaller than required; the result must match the known
  exception lists exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .perms import all_perms, identity
from .surfaces import _genus, _realizable, boundary_count

GLUINGS = ((1, 0), (0, 1), (1, -1))


def epsilon(l: int, m: int) -> int:
    """
    Threshold correction for the gluing ``(l, m)``: 1 for the two-circle
    pants attachment ``(1, -1)``, 0 for ``(1, 0)`` and ``(0, 1)``.
    """
    if (l, m) not in GLUINGS:
        raise ValueError(f"unknown gluing ({l}, {m})")
    return 1 if (l, m) == (1, -1) else 0


# mode -> (needs epsilon, threshold rhs as function of (n, k, eps))
_TWISTED_MODES = {
    "abs-iso-s01": (False, lambda n, k, e: 3 * n + k),
    "abs-surj": (True, lambda n, k, e: 3 * n + k - e),
    "abs-iso": (False, lambda n, k, e: 3 * n + k + 2),
    "rel-surj-s01": (True, lambda n, k, e: 3 * n + k - 2 - e),
    "rel-iso-s01": (True, lambda n, k, e: 3 * n + k - 1 - e),
    "rel-surj-s11": (True, lambda n, k, e: 3 * n + k - 3 - e),
    "rel-iso-s11": (True, lambda n, k, e: 3 * n + k - e),
}

TWISTED_MODES = tuple(sorted(_TWISTED_MODES))


def twisted_range(mode: str, n: int, k: int, g: int, lm: tuple[int, int] | None = None) -> bool:
    """
    Whether ``2g`` clears the threshold of the given stability statement for
    homology degree ``n`` and coefficient degree ``k``.

    >>> twisted_range("abs-iso-s01", 2, 0, 3)
    True
    >>> twisted_range("abs-iso", 1, 0, 2, (1, -1))
    False
    """
    if mode not in _TWISTED_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {TWISTED_MODES}")
    if min(n, k, g) < 0:
        raise ValueError("n, k, g must be >= 0")
    needs_eps, rhs = _TWISTED_MODES[mode]
    if needs_eps:
        if lm is None:
            raise ValueError(f"mode {mode!r} needs the gluing (l, m)")
        e = epsilon(*lm)
    else:
        e = epsilon(*lm) if lm is not None else 0
    return 2 * g >= rhs(n, k, e)


@dataclass(frozen=True)
class Obligation:
    claim: str
    params: dict = field(compare=False)
    inequality: str
    holds: bool


def _obligation(claim: str, params: dict, lhs: int, rhs: int) -> Obligation:
    return Obligation(claim, params, f"{lhs} >= {rhs}", lhs >= rhs)


def main_theorem_ledger(g_max: int, k_max: int) -> list[Obligation]:
    """
    Every inequality instance backing the untwisted stability induction, for
    all homology degrees ``1 <= k <= k_max`` and genera ``g <= g_max`` in
    the claimed ranges.  Degree 0 is vacuous and contributes nothing.

    Three branches, by the hypothesis satisfied at ``(g, k)``:
    boundary-add surjectivity (``2g >= 3k``), genus-raise surjectivity
    (``2g >= 3k - 1``), genus-raise injectivity (``2g >= 3k + 2``).  Each
    branch needs its two low-column differentials covered by the named
    stabilizer maps one induction step down, plus, in higher columns, a
    cut-surface genus large enough for the two-row exactness argument.
    """
    if g_max < 1 or k_max < 1:
        raise ValueError("grid bounds must be >= 1")
    out: list[Obligation] = []
    for k in range(1, k_max + 1):
        for g in range(0, g_max + 1):
            if 2 * g >= 3 * k:
                out.extend(_boundary_add_branch(g, k))
            if 2 * g >= 3 * k - 1:
                out.extend(_genus_raise_surj_branch(g, k))
            if 2 * g >= 3 * k + 2:
                out.extend(_genus_raise_inj_branch(g, k))
    return out


def _boundary_add_branch(g: int, k: int) -> list[Obligation]:
    base = {"branch": "boundary-add-surj", "g": g, "k": k}
    obs = [
        _obligation("c1-surj-step-down", base, 2 * (g - 1), 3 * (k - 1)),
        _obligation("c2-surj-step-down", base, 2 * (g - 2), 3 * (k - 1) - 1),
    ]
    if k >= 2:
        obs.append(_obligation("split-exact-range", base, g - 1, k))
    return obs + _row_legs(base, k - 1, k + 1)


def _genus_raise_surj_branch(g: int, k: int) -> list[Obligation]:
    base = {"branch": "genus-raise-surj", "g": g, "k": k}
    obs = [
        _obligation("c1-surj-step-down", base, 2 * (g - 1), 3 * (k - 1) - 1),
        _obligation("c2-surj-step-down", base, 2 * (g - 1), 3 * (k - 1)),
    ]
    if k >= 2:
        obs.extend(_injectivity_step_down(base, k - 2))
    if k >= 3:
        obs.append(_obligation("split-exact-range", base, g - 1, k))
    return obs + _row_legs(base, k - 2, k + 1)


def _genus_raise_inj_branch(g: int, k: int) -> list[Obligation]:
    base = {"branch": "genus-raise-inj", "g": g, "k": k}
    obs = [
        _obligation("c1-surj-same-degree", base, 2 * (g - 1), 3 * k - 1),
        _obligation("c2-surj-same-degree", base, 2 * (g - 1), 3 * k),
        *_injectivity_step_down(base, k - 1),
    ]
    if k >= 2:
        obs.append(_obligation("split-exact-range", base, g - 1, k))
    return obs + _row_legs(base, k - 1, k + 2)


def _injectivity_step_down(base: dict, d: int) -> list[Obligation]:
    """The three-column genus and the maps covering injectivity in degree ``d``."""
    g = base["g"]
    return [
        _obligation("three-column-genus", base, g + 1, 3),
        _obligation("c1-inj-step-down", base, 2 * (g - 1), 3 * d + 2),
        _obligation("c2-inj-step-down", base, 2 * (g - 1), 3 * d),
        _obligation("c3-surj-step-down", base, 2 * (g - 2), 3 * d),
        _obligation("c456-surj-step-down", base, 2 * (g - 2), 3 * d - 1),
    ]


def _row_legs(base: dict, rows: int, p0: int) -> list[Obligation]:
    """Per row ``q < rows``: the iso leg at column ``p0 - q``, the surj leg right of it."""
    g = base["g"]
    obs = []
    for q in range(rows):
        legs = (("row-iso-leg", p0 - q, 3 * q + 2), ("row-surj-leg", p0 + 1 - q, 3 * q))
        for claim, p, rhs in legs:
            obs.append(_obligation(claim, {**base, "p": p, "q": q}, 2 * (g - p + 1), rhs))
    return obs


@dataclass(frozen=True, order=True)
class ExceptionTuple:
    case: str
    lm: tuple[int, int]
    n: int
    g: int
    k: int

    def to_json(self) -> dict:
        return {"case": self.case, "l": self.lm[0], "m": self.lm[1], "n": self.n, "g": self.g, "k": self.k}


# case -> (side, additive hypothesis constant c in 2g >= 3n + k + c)
_CASES = {
    "surj-s01": (2, -2),
    "surj-s11": (1, -3),
    "inj-s11": (1, 0),
}

EXCEPTION_CASES = tuple(sorted(_CASES))

# hand-entered expected exception lists, expanded over the gluings
EXPECTED_EXCEPTIONS: dict[str, frozenset[tuple[tuple[int, int], int, int, int]]] = {
    "surj-s01": frozenset(
        {((1, 0), 1, 1, 0), ((1, 0), 1, 1, 1), ((0, 1), 1, 1, 0), ((0, 1), 1, 1, 1)}
        | {((1, -1), 1, 0, 0)}
        | {((1, -1), 1, 1, 0), ((1, -1), 1, 1, 1), ((1, -1), 1, 1, 2)}
    ),
    "surj-s11": frozenset(
        {((1, 0), 1, 0, 0), ((0, 1), 1, 0, 0)}
        | {((1, -1), 1, 0, 0), ((1, -1), 1, 0, 1)}
        | {((1, -1), 2, 1, 0)}
    ),
    "inj-s11": frozenset({((1, -1), 1, 1, 0)}),
}


def _full_orbit_set(p: int, side: int, g_complex: int) -> bool:
    # the identity word minimizes the thickening genus (value 0), so the
    # orbit set is full exactly when the identity is realizable
    w = identity(p)
    return _realizable(w, side, g_complex, boundary_count(w, side))


def _positive_genus_words_realizable(p: int, side: int, g_complex: int) -> bool:
    # each count is read once, uncached, for both the genus and the criterion
    for w in all_perms(p):
        nb = boundary_count(w, side)
        if _genus(w, side, nb) >= 1 and not _realizable(w, side, g_complex, nb):
            return False
    return True


def _required_orbit_sets_present(case: str, n: int, g: int) -> bool:
    side, _ = _CASES[case]
    g_complex = g if side == 2 else g + 1
    if case == "surj-s01":
        full_range = list(range(2, n + 2)) + ([3] if n == 1 else [])
        partial = []
    elif case == "surj-s11":
        full_range = list(range(2, n + 2))
        partial = [n + 2] if n <= 2 else []
    else:
        full_range = list(range(2, n + 3))
        partial = [4] if n == 1 else []
    if not all(_full_orbit_set(p, side, g_complex) for p in full_range):
        return False
    return all(_positive_genus_words_realizable(p, side, g_complex) for p in partial)


def orbit_set_exceptions(case: str) -> list[ExceptionTuple]:
    """
    Brute-force re-derivation of the exception tuples for the given case:
    parameter tuples satisfying the case's genus hypothesis whose orbit sets
    nonetheless miss a required word.

    Finite enumeration: a missing orbit forces ``g <= n + 1``, and combined
    with the weakest hypothesis ``2g >= 3n + k - 4`` that bounds ``n <= 6``
    and ``k <= 2g - 3n + 4``.
    """
    if case not in _CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {EXCEPTION_CASES}")
    _, c = _CASES[case]
    found = []
    for n in range(1, 7):
        for g in range(0, n + 2):
            # per gluing, the k with 2g >= 3n + k + c - eps; the orbit sets
            # do not depend on the gluing, so they are checked once
            ks = {lm: range(2 * g - 3 * n - c + epsilon(*lm) + 1) for lm in GLUINGS}
            if any(ks.values()) and not _required_orbit_sets_present(case, n, g):
                found += (ExceptionTuple(case, lm, n, g, k) for lm, r in ks.items() for k in r)
    return sorted(found)


def check_orbit_set_exceptions(case: str) -> tuple[bool, list[ExceptionTuple]]:
    """Compare the brute-force list against the stored expected list."""
    computed = orbit_set_exceptions(case)
    got = {(t.lm, t.n, t.g, t.k) for t in computed}
    return got == EXPECTED_EXCEPTIONS[case], computed
