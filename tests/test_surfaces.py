from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from arccalc.perms import all_perms, compose, cycle_count, faces, hat, identity, inverse, rotation
from arccalc.surfaces import (
    _corner,
    _genera,
    _genus_levels,
    _levels,
    _realizable_levels,
    _word_genus,
    _neighborhood_boundary,
    SIDES,
    ArcClass,
    SurfaceType,
    boundary_of_neighborhood,
    boundary_count,
    cut_surface,
    genus_counts,
    glue,
    realizable,
    realizable_perms,
    simplex_genus,
)


def rotation_powers(p):
    out = set()
    cur = identity(p)
    for _ in range(p):
        out.add(cur)
        cur = compose(rotation(p), cur)
    return out


class TestTypes:
    def test_euler_char(self):
        assert SurfaceType(2, 1).euler_char == -3
        assert SurfaceType(0, 1).euler_char == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SurfaceType(-1, 2)
        with pytest.raises(ValueError):
            ArcClass((0, 0), 1)
        with pytest.raises(ValueError):
            ArcClass((0, 1), 3)

    def test_json(self):
        assert ArcClass((1, 0), 2).to_json() == {"perm": [1, 0], "side": 2}

    @pytest.mark.parametrize("side", [1, 2])
    def test_bool_letters_are_rejected(self, side):
        # kept, they would make an arc class equal to ArcClass((1, 0), side)
        # whose to_json writes [true, false]
        with pytest.raises(ValueError, match="not a permutation word"):
            ArcClass((True, False), side)
        with pytest.raises(ValueError, match="not a permutation word"):
            ArcClass((0, True), side)

    def test_bool_side_is_rejected(self):
        # kept, True would pass as side 1 and to_json would write "side": true
        with pytest.raises(ValueError, match="side must be 1 or 2"):
            ArcClass((0, 1), True)
        with pytest.raises(ValueError, match="side must be 1 or 2"):
            ArcClass((1, 0), False)

    @pytest.mark.parametrize("side", [True, False, 0, 3])
    def test_the_word_level_entries_reject_a_side_outside_sides(self, side):
        # True passed as side 1 below ArcClass; the int entry is filled
        # first, since a bool side once hit the cache entry of its int
        realizable_perms(3, 1, 2)
        with pytest.raises(ValueError, match="side must be 1 or 2"):
            realizable_perms(3, side, 2)
        with pytest.raises(ValueError, match="side must be 1 or 2"):
            genus_counts(3, side)


class TestNeighborhoodBoundary:
    def test_anchor_values(self):
        assert boundary_of_neighborhood(ArcClass((1, 2, 0), 1)) == 3
        assert boundary_of_neighborhood(ArcClass((1, 2, 0), 2)) == 5

    def test_identity_side1(self):
        # commuting product: p + 2 cycles, plus one
        assert boundary_of_neighborhood(ArcClass((0, 1, 2), 1)) == 5
        for p in range(1, 7):
            assert boundary_of_neighborhood(ArcClass(identity(p), 1)) == p + 2

    def test_single_arc(self):
        assert boundary_of_neighborhood(ArcClass((0,), 1)) == 3
        assert boundary_of_neighborhood(ArcClass((0,), 2)) == 3

    def test_depends_only_on_class(self):
        a = ArcClass((1, 0), 1)
        assert boundary_of_neighborhood(a) == boundary_of_neighborhood(ArcClass((1, 0), 1))

    def test_one_pass_formula_matches_its_definition(self):
        # the boundary count is that of rot . w^-1 . rot^-1 . w, plus side
        for p in range(1, 8):
            for perm in all_perms(p):
                for side in (1, 2):
                    w = hat(perm) if side == 1 else perm
                    rot = rotation(len(w))
                    word = compose(compose(rot, inverse(w)), compose(inverse(rot), w))
                    assert _neighborhood_boundary(perm, side) == cycle_count(word) + side

    @given(
        st.sampled_from(SIDES).flatmap(
            lambda side: st.integers(1, 254 + side).flatmap(
                lambda k: st.permutations(range(k)).map(lambda w: (tuple(w), side))
            )
        )
    )
    @settings(deadline=None, max_examples=60)
    def test_closed_form_matches_its_definition_at_every_degree(self, case):
        # every degree a byte word takes on each side: hat raises side 1 by one
        perm, side = case
        w = hat(perm) if side == 1 else perm
        rot = rotation(len(w))
        expected = cycle_count(compose(compose(rot, inverse(w)), compose(inverse(rot), w))) + side
        for kind in (tuple, list, bytes):
            assert boundary_count(kind(perm), side) == expected


class TestSimplexGenus:
    def test_examples(self):
        assert simplex_genus(ArcClass((1, 2, 0), 1)) == 1
        assert simplex_genus(ArcClass((1, 2, 0), 2)) == 0
        assert simplex_genus(ArcClass((1, 0), 1)) == 1

    def test_thickening_euler_identity(self):
        # 2 - 2*genus - boundary = -(arc count) for every class
        for p in range(1, 7):
            for w in all_perms(p):
                for side in (1, 2):
                    a = ArcClass(w, side)
                    assert 2 - 2 * simplex_genus(a) - boundary_of_neighborhood(a) == -p

    def test_parity_violation_raises(self, monkeypatch):
        # a boundary count of the wrong parity would make the genus a half
        # integer; the check must raise, also under python -O
        import arccalc.surfaces

        monkeypatch.setattr(arccalc.surfaces, "boundary_of_neighborhood", lambda a: 2)
        with pytest.raises(ValueError):
            simplex_genus(ArcClass((1, 2, 0), 1))

    def test_zero_genus_classification(self):
        for p in range(1, 7):
            side1 = {w for w in all_perms(p) if simplex_genus(ArcClass(w, 1)) == 0}
            assert side1 == {identity(p)}
            side2 = {w for w in all_perms(p) if simplex_genus(ArcClass(w, 2)) == 0}
            assert side2 == rotation_powers(p)

    def test_face_monotonicity(self):
        for p in range(2, 8):
            for w in all_perms(p):
                for side in (1, 2):
                    s = simplex_genus(ArcClass(w, side))
                    for f in faces(w):
                        sf = simplex_genus(ArcClass(f, side))
                        assert sf in (s - 1, s)


class TestRealizability:
    def test_examples(self):
        # on a one-circle system at genus 1 only the crossing pair survives;
        # with two circles the threshold drops by one and all pairs embed
        assert realizable_perms(2, 1, 1) == ((1, 0),)
        assert realizable(ArcClass((0, 1), 2), 1)
        assert realizable_perms(2, 2, 1) == tuple(all_perms(2))
        assert not realizable(ArcClass((0, 1, 2), 1), 1)
        for p in range(1, 6):
            assert realizable(ArcClass(identity(p), 2), p - 1)

    def test_full_group_threshold(self):
        for side in (1, 2):
            for g in range(0, 5):
                for p in range(1, 6):
                    full = len(realizable_perms(p, side, g)) == len(list(all_perms(p)))
                    assert full == (p <= g - 1 + side)

    def test_filter_matches_the_criterion_on_arc_classes(self):
        for g in range(2, 6):
            for side in (1, 2):
                for p in range(1, 8):
                    expected = tuple(w for w in all_perms(p) if realizable(ArcClass(w, side), g))
                    assert realizable_perms(p, side, g) == expected

    def test_filter_leaves_the_boundary_count_cache_alone(self):
        before = _neighborhood_boundary.cache_info()
        for side in (1, 2):
            assert realizable_perms.__wrapped__(5, side, 3)
        after = _neighborhood_boundary.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_face_closed(self):
        for g in range(0, 7):
            for side in (1, 2):
                for p in range(2, 8):
                    for w in realizable_perms(p, side, g):
                        assert all(realizable(ArcClass(f, side), g) for f in faces(w))


class TestGenusCounts:
    @pytest.mark.parametrize("side", [1, 2])
    def test_matches_enumeration(self, side):
        # the closed form against one uncached boundary count per word of S_p
        for p in range(1, 9):
            genera = [_word_genus(w, side) for w in map(bytes, all_perms(p))]
            assert dict(enumerate(genus_counts(p, side))) == Counter(genera), p

    def test_counts_realizable_words(self):
        # realizable at genus g: simplex genus >= p + 1 - g - side
        for p in range(1, 7):
            for side in (1, 2):
                counts = genus_counts(p, side)
                for g in range(2, 8):
                    low = max(0, p + 1 - g - side)
                    assert sum(counts[low:]) == len(realizable_perms(p, side, g)), (p, side, g)

    @pytest.mark.parametrize("side", [1, 2])
    @pytest.mark.parametrize("S", range(5))
    def test_coface_levels_tally_with_the_counts(self, S, side):
        # a word missed or drawn twice changes a level's tally; each level is
        # in lexicographic order, each word with its own genus, none over S
        for p, level in enumerate(_genus_levels(S, side, 8), 1):
            level = list(level)
            assert len(level) == sum(genus_counts(p, side)[: S + 1]), p
            words = [w for w, _ in level]
            assert words == sorted(set(words))
            assert all(s == _word_genus(w, side) <= S for w, s in level), p

    def test_a_negative_genus_bound_gives_empty_levels(self):
        assert [list(level) for level in _genus_levels(-1, 1, 8)] == [[]] * 8

    @pytest.mark.parametrize("side", [1, 2])
    def test_a_face_keeps_the_genus_or_lowers_it_by_one(self, side):
        # what the levels and the complement route rest on: every face of
        # every word through degree 7, each genus from its own boundary count
        for p in range(2, 8):
            genus = {w: _word_genus(w, side) for w in map(bytes, all_perms(p - 1))}
            for w in map(bytes, all_perms(p)):
                assert {_word_genus(w, side) - genus[f] for f in faces(w)} <= {0, 1}, w

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            genus_counts(0, 1)
        with pytest.raises(ValueError):
            genus_counts(3, 3)


# each predicate of the levels: its levels through degree 7, and its test on
# a genus s of degree p
LEVEL_CASES = [
    ("every word", lambda side: _levels(side, lambda p, s: True, 7), lambda side, p, s: True),
    *(
        (
            f"realizable at g{g}",
            lambda side, g=g: _realizable_levels(side, g, 7),
            lambda side, p, s, g=g: s >= p + 1 - g - side,
        )
        for g in range(2, 7)
    ),
    *(
        (f"genus <= {S}", lambda side, S=S: _genus_levels(S, side, 7), lambda side, p, s, S=S: s <= S)
        for S in range(4)
    ),
]


class TestLevels:
    """The levels made at position 0 by the corner rule, against one boundary count per word."""

    @pytest.mark.parametrize("side", [1, 2])
    @pytest.mark.parametrize("levels, keep", [c[1:] for c in LEVEL_CASES], ids=[c[0] for c in LEVEL_CASES])
    def test_every_level_is_the_words_kept_by_their_own_genus(self, levels, keep, side):
        drawn = [list(level) for level in levels(side)]
        assert len(drawn) == 7
        for p, level in enumerate(drawn, 1):
            want = [(w, s) for w in map(bytes, all_perms(p)) for s in [_word_genus(w, side)] if keep(side, p, s)]
            assert level == want, p

    @pytest.mark.parametrize("side", [1, 2])
    def test_the_genus_pass_is_the_top_level(self, side):
        for p in range(1, 8):
            assert list(_genera(p, side)) == [(w, _word_genus(w, side)) for w in map(bytes, all_perms(p))], p

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 253).flatmap(lambda k: st.permutations(range(k))), st.data(), st.sampled_from(SIDES))
    def test_the_corner_rule_on_random_words(self, word, data, side):
        # the genus of the child made with first letter v, against its own
        # boundary count; every child keeps the word's genus or raises it by one
        w = bytes(word)
        made = _corner(w, side)
        assert len(made) == len(w) + 1
        assert set(made) <= {_word_genus(w, side), _word_genus(w, side) + 1}
        v = data.draw(st.integers(0, len(w)), label="v")
        child = bytes([v]) + bytes(x + (x >= v) for x in w)
        assert made[v] == _word_genus(child, side)


class TestCutSurface:
    def test_stabilizer_table_boundary_add(self):
        # ambient (g, r+1), arcs on two distinct circles
        for g in range(2, 9):
            for r in range(1, 7):
                amb = SurfaceType(g, r + 1)
                assert cut_surface(amb, ArcClass((1, 0), 2)) == SurfaceType(g - 1, r + 1)
                assert cut_surface(amb, ArcClass((0, 1), 2)) == SurfaceType(g - 1, r + 1)
                assert cut_surface(amb, ArcClass((0, 2, 1), 2)) == SurfaceType(g - 1, r)
                assert cut_surface(amb, ArcClass((1, 2, 0), 2)) == SurfaceType(g - 2, r + 2)

    def test_stabilizer_table_genus_raise(self):
        # ambient (g+1, r-1), arcs on one circle
        for g in range(2, 9):
            for r in range(2, 7):
                amb = SurfaceType(g + 1, r - 1)
                assert cut_surface(amb, ArcClass((1, 0), 1)) == SurfaceType(g, r - 1)
                assert cut_surface(amb, ArcClass((0, 1), 1)) == SurfaceType(g - 1, r + 1)
                assert cut_surface(amb, ArcClass((0, 2, 1), 1)) == SurfaceType(g - 1, r)
                assert cut_surface(amb, ArcClass((1, 2, 0), 1)) == SurfaceType(g - 1, r)
                assert cut_surface(amb, ArcClass((0, 1, 2), 1)) == SurfaceType(g - 2, r + 2)

    def test_stabilizer_closed_form(self):
        # in both induction setups the label of a degree-p word of
        # thickening genus s is (g - p + s + 1, r + p - 2s - 1)
        g, r = 7, 4
        for p in range(1, 6):
            for w in all_perms(p):
                for amb, side in ((SurfaceType(g, r + 1), 2), (SurfaceType(g + 1, r - 1), 1)):
                    a = ArcClass(w, side)
                    s = simplex_genus(a)
                    assert cut_surface(amb, a) == SurfaceType(g - p + s + 1, r + p - 2 * s - 1)

    def test_euler_additivity(self):
        for g in range(0, 7):
            for r in range(1, 6):
                amb = SurfaceType(g, r)
                for p in range(1, 6):
                    for side in (1, 2):
                        if r < side:
                            continue
                        for w in realizable_perms(p, side, g):
                            out = cut_surface(amb, ArcClass(w, side))
                            assert out.euler_char == amb.euler_char + p

    def test_rejects_genus_deficit(self):
        with pytest.raises(ValueError, match="genus deficit"):
            cut_surface(SurfaceType(1, 2), ArcClass((0, 1, 2), 1))

    def test_rejects_missing_boundary(self):
        with pytest.raises(ValueError):
            cut_surface(SurfaceType(3, 1), ArcClass((0, 1), 2))


class TestGlue:
    def test_deltas(self):
        s = SurfaceType(2, 3)
        assert glue("0,1", s) == SurfaceType(2, 4)
        assert glue("1,-1", s) == SurfaceType(3, 2)
        assert glue("1,0", s) == SurfaceType(3, 3)
        assert glue("0,-1", s) == SurfaceType(2, 2)
        assert glue("circle_cut", s) == SurfaceType(1, 5)

    def test_composite_laws(self):
        # the pants are glued along a boundary circle, so both sides of each
        # law need r >= 1
        for g in range(0, 5):
            for r in range(0, 6):
                s = SurfaceType(g, r)
                if r == 0:
                    for op in ("1,0", "0,1"):
                        with pytest.raises(ValueError):
                            glue(op, s)
                    continue
                assert glue("1,0", s) == glue("1,-1", glue("0,1", s))
                assert glue("0,-1", glue("0,1", s)) == s

    def test_preconditions(self):
        with pytest.raises(ValueError):
            glue("1,-1", SurfaceType(2, 1))
        with pytest.raises(ValueError):
            glue("0,-1", SurfaceType(2, 0))
        with pytest.raises(ValueError):
            glue("0,1", SurfaceType(1, 0))
        with pytest.raises(ValueError):
            glue("1,0", SurfaceType(1, 0))
        with pytest.raises(ValueError):
            glue("circle_cut", SurfaceType(0, 3))
        with pytest.raises(ValueError):
            glue("2,2", SurfaceType(1, 1))
