import dataclasses
import hashlib
import json

import pytest

from arccalc import ledger
from arccalc.ledger import (
    EXPECTED_EXCEPTIONS,
    GLUINGS,
    EXCEPTION_CASES,
    TWISTED_MODES,
    check_orbit_set_exceptions,
    epsilon,
    main_theorem_ledger,
    orbit_set_exceptions,
    twisted_range,
)
from arccalc.surfaces import _neighborhood_boundary


class TestEpsilon:
    def test_values(self):
        assert epsilon(1, -1) == 1
        assert epsilon(1, 0) == 0
        assert epsilon(0, 1) == 0

    def test_rejects(self):
        with pytest.raises(ValueError):
            epsilon(2, 0)
        with pytest.raises(ValueError):
            epsilon(0, -1)


class TestTwistedRange:
    def test_examples(self):
        assert twisted_range("abs-iso-s01", 2, 0, 3)
        assert twisted_range("rel-surj-s11", 1, 0, 0, (1, -1))
        assert not twisted_range("abs-iso", 1, 0, 2, (1, -1))

    def test_epsilon_shift(self):
        # the two-circle attachment is one degree more generous
        assert twisted_range("rel-surj-s01", 2, 1, 2, (1, -1))
        assert not twisted_range("rel-surj-s01", 2, 1, 2, (1, 0))
        assert twisted_range("rel-surj-s01", 2, 1, 2, (0, 1)) == twisted_range(
            "rel-surj-s01", 2, 1, 2, (1, 0)
        )

    def test_requires_gluing_when_threshold_uses_it(self):
        with pytest.raises(ValueError):
            twisted_range("abs-surj", 1, 0, 5)
        assert twisted_range("abs-iso-s01", 1, 0, 5)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            twisted_range("nope", 1, 1, 1)

    def test_monotone_in_genus(self):
        for mode in TWISTED_MODES:
            for lm in GLUINGS:
                for n in range(0, 6):
                    for k in range(0, 6):
                        vals = [twisted_range(mode, n, k, g, lm) for g in range(0, 25)]
                        assert all(b or not a for a, b in zip(vals, vals[1:]))

    def test_iso_implies_surj(self):
        for lm in GLUINGS:
            for n in range(0, 8):
                for k in range(0, 8):
                    for g in range(0, 25):
                        if twisted_range("abs-iso", n, k, g, lm):
                            assert twisted_range("abs-surj", n, k, g, lm)


class TestMainTheoremLedger:
    def test_no_violations_on_default_grid(self):
        obligations = main_theorem_ledger(50, 20)
        assert obligations
        assert all(o.holds for o in obligations)

    def test_default_grid_is_pinned(self):
        # the obligations, their order and their serialization, as first recorded
        obligations = main_theorem_ledger(50, 20)
        text = json.dumps([dataclasses.asdict(o) for o in obligations], sort_keys=True)
        assert len(obligations) == 45185
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8e14eb4fcd95cbeccc8973faaac3184ba6dcfcf7efdec3d2039bb16e59167884"
        )

    def test_vacuous_below_degree_1(self):
        # degree 0 contributes nothing; the smallest grid is already clean
        obligations = main_theorem_ledger(1, 1)
        assert all(o.holds for o in obligations)

    def test_row_legs_present_for_higher_degrees(self):
        obligations = main_theorem_ledger(20, 5)
        claims = {o.claim for o in obligations}
        assert "row-iso-leg" in claims and "row-surj-leg" in claims
        assert "split-exact-range" in claims

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            main_theorem_ledger(0, 5)

    @pytest.mark.parametrize(
        "eps, iso_c, branch",
        [
            # boundary-add surjectivity asks 2g >= 3k - 1
            pytest.param({(0, 1): 1, (1, -1): 1}, 2, "boundary-add-surj", id="boundary-add-surj"),
            # genus-raise surjectivity asks 2g >= 3k - 2
            pytest.param({(1, -1): 2}, 2, "genus-raise-surj", id="genus-raise-surj"),
            # genus-raise injectivity asks 2g >= 3k + 1
            pytest.param({(1, -1): 1}, 1, "genus-raise-inj", id="genus-raise-inj"),
        ],
    )
    def test_each_branch_hypothesis_is_read_from_twisted_range(self, monkeypatch, eps, iso_c, branch):
        def rows(obligations):
            return [(o.claim, sorted(o.params.items()), o.inequality, o.holds) for o in obligations]

        before = rows(main_theorem_ledger(10, 5))
        monkeypatch.setattr(ledger, "epsilon", lambda l, m: eps.get((l, m), 0))
        monkeypatch.setitem(ledger._TWISTED_MODES, "abs-iso", (False, iso_c))
        after = rows(main_theorem_ledger(10, 5))
        # one threshold one unit lower adds obligations to its branch alone,
        # and some of them fail: the paper's constant is the least that holds
        added = [r for r in after if r not in before]
        assert added and {dict(params)["branch"] for _, params, _, _ in added} == {branch}
        assert [r for r in after if r in before] == before
        assert not all(holds for *_, holds in added)


class TestExceptionLists:
    def test_all_cases_match_expected(self):
        for case in EXCEPTION_CASES:
            ok, computed = check_orbit_set_exceptions(case)
            assert ok, (case, computed)

    def test_single_injectivity_tuple(self):
        tuples = orbit_set_exceptions("inj-s11")
        assert [(t.lm, t.n, t.g, t.k) for t in tuples] == [((1, -1), 1, 1, 0)]

    def test_boundary_add_includes_low_genus_row(self):
        got = {(t.lm, t.n, t.g, t.k) for t in orbit_set_exceptions("surj-s01")}
        assert ((1, 0), 1, 1, 0) in got and ((1, 0), 1, 1, 1) in got
        assert ((0, 1), 1, 1, 0) in got and ((0, 1), 1, 1, 1) in got

    def test_genus_raise_includes_degree_two_tuple(self):
        got = {(t.lm, t.n, t.g, t.k) for t in orbit_set_exceptions("surj-s11")}
        assert ((1, -1), 2, 1, 0) in got

    def test_expected_lists_are_frozen(self):
        assert set(EXPECTED_EXCEPTIONS) == set(EXCEPTION_CASES)
        assert len(EXPECTED_EXCEPTIONS["surj-s01"]) == 8
        assert len(EXPECTED_EXCEPTIONS["surj-s11"]) == 5
        assert len(EXPECTED_EXCEPTIONS["inj-s11"]) == 1

    def test_brute_force_fills_no_cache(self):
        # each word's boundary count is read once, uncached
        _neighborhood_boundary.cache_clear()
        for case in EXCEPTION_CASES:
            orbit_set_exceptions(case)
        assert _neighborhood_boundary.cache_info().currsize == 0

    def test_hypothesis_is_read_from_twisted_range(self, monkeypatch):
        before = orbit_set_exceptions("surj-s01")

        # rel-surj-s01 demands one more unit of 2g
        def stricter(mode, n, k, g, lm=None):
            return twisted_range(mode, n, k + (mode == "rel-surj-s01"), g, lm)

        monkeypatch.setattr(ledger, "twisted_range", stricter)
        after = orbit_set_exceptions("surj-s01")
        assert set(after) < set(before)

    def test_enumeration_bounds_leave_no_exception_out(self):
        # orbit_set_exceptions loops over n in 1..6, g <= n + 1 and
        # k <= 2g + 1; each threshold rises with k, so a mode that admits no
        # k0 admits no k above it either
        from arccalc.ledger import _CASES, _required_orbit_sets_present

        modes = {mode for _, mode in _CASES.values()}

        def admits(n, k, g):
            return any(twisted_range(mode, n, k, g, lm) for mode in modes for lm in GLUINGS)

        # past n = 6, no genus low enough to miss an orbit admits any k
        for n in range(7, 13):
            for g in range(0, n + 2):
                assert not admits(n, 0, g), (n, g)
        # up to n = 6, no admitted k is above 2g + 1
        for n in range(1, 7):
            for g in range(0, n + 2):
                assert not admits(n, 2 * g + 2, g), (n, g)
        # above g = n + 1, no required orbit set is missed
        for case in EXCEPTION_CASES:
            for n in range(1, 7):
                for g in range(n + 2, n + 8):
                    assert _required_orbit_sets_present(case, n, g), (case, n, g)

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            orbit_set_exceptions("nope")

    def test_tuples_sorted_and_serializable(self):
        tuples = orbit_set_exceptions("surj-s11")
        assert tuples == sorted(tuples)
        assert tuples[0].case == "surj-s11"

    def test_fullness_shortcut_agrees_with_enumeration(self):
        # the brute force decides fullness by the identity word alone; the
        # enumeration here is its only reference
        from math import factorial

        from arccalc.ledger import _full_orbit_set
        from arccalc.surfaces import realizable_perms

        for side in (1, 2):
            for g in range(0, 9):
                for p in range(1, 8):
                    enumerated = len(realizable_perms(p, side, g)) == factorial(p)
                    assert _full_orbit_set(p, side, g) == enumerated, (p, side, g)
