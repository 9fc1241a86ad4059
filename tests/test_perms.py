import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from arccalc.perms import (
    FormalSum,
    all_perms,
    as_perm,
    block_faces,
    boundary,
    cofaces,
    compose,
    cycle_count,
    face,
    faces,
    hat,
    homotopy_d_on_sum,
    identity,
    inverse,
    is_perm,
    rotation,
)

perms = st.integers(min_value=1, max_value=8).flatmap(
    lambda k: st.permutations(list(range(k))).map(tuple)
)


@st.composite
def signed_word_lists(draw):
    """Two lists of (coeff, word) pairs of one degree, with repeated words and zero sums."""
    k = draw(st.integers(min_value=1, max_value=4))
    pool = draw(st.lists(st.permutations(list(range(k))).map(tuple), min_size=1, max_size=4))
    pairs = st.lists(st.tuples(st.integers(-3, 3), st.sampled_from(pool)), max_size=12)
    a, b = draw(pairs), draw(pairs)
    # a prefix of a entered again with opposite signs sums to zero
    a += [(-c, w) for c, w in a[: draw(st.integers(0, len(a)))]]
    return a, b


def same_degree_pair():
    return st.integers(min_value=1, max_value=8).flatmap(
        lambda k: st.tuples(
            st.permutations(list(range(k))).map(tuple),
            st.permutations(list(range(k))).map(tuple),
        )
    )


class TestBasics:
    def test_is_perm(self):
        assert is_perm((0,)) and is_perm((1, 2, 0))
        assert not is_perm((0, 0, 2)) and not is_perm((3, 1))

    @pytest.mark.parametrize("word", [(True, False), (False,), (0, True), (1, False, 2)])
    def test_a_bool_is_not_a_letter(self, word):
        # a bool is an int equal to 0 or 1, but not a letter of a word
        assert not is_perm(word)
        with pytest.raises(ValueError):
            as_perm(word)

    def test_as_perm_rejects(self):
        with pytest.raises(ValueError):
            as_perm((1, 1))
        with pytest.raises(ValueError):
            as_perm(())

    def test_compose_examples(self):
        assert compose((1, 2, 0), (1, 2, 0)) == (2, 0, 1)
        assert compose((0, 2, 1), (1, 2, 0)) == (2, 1, 0)

    def test_compose_identity_law(self):
        for k in range(1, 6):
            for a in all_perms(k):
                assert compose(a, identity(k)) == a
                assert compose(identity(k), a) == a

    def test_compose_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose((0, 1), (0, 1, 2))

    @given(same_degree_pair())
    def test_compose_applies_right_first(self, pair):
        a, b = pair
        assert all(compose(a, b)[x] == a[b[x]] for x in range(len(a)))

    @given(perms)
    def test_inverse(self, a):
        k = len(a)
        assert compose(a, inverse(a)) == identity(k)
        assert compose(inverse(a), a) == identity(k)


class TestCycleCount:
    def test_examples(self):
        assert cycle_count(identity(4)) == 4
        assert cycle_count((1, 2, 0)) == 1
        assert cycle_count((3, 1, 0, 2)) == 2

    def test_invariant_under_inverse_and_conjugation_exhaustive(self):
        for k in range(1, 7):
            words = list(all_perms(k))
            counts = {a: cycle_count(a) for a in words}
            for a in words:
                assert cycle_count(inverse(a)) == counts[a]
            for b in words:
                b_inv = inverse(b)
                for a in words:
                    assert counts[compose(compose(b, a), b_inv)] == counts[a]

    def test_invariant_sampled_degrees_7_8(self):
        import random

        rng = random.Random(78)
        for k in (7, 8):
            base = list(range(k))
            for _ in range(2000):
                a = tuple(rng.sample(base, k))
                b = tuple(rng.sample(base, k))
                c = cycle_count(a)
                assert cycle_count(inverse(a)) == c
                assert cycle_count(compose(compose(b, a), inverse(b))) == c

    @given(same_degree_pair())
    @settings(deadline=None)
    def test_invariant_property(self, pair):
        a, b = pair
        assert cycle_count(compose(compose(b, a), inverse(b))) == cycle_count(a)
        assert cycle_count(inverse(a)) == cycle_count(a)


class TestHatAndRotation:
    def test_rotation(self):
        assert rotation(4) == (1, 2, 3, 0)
        assert rotation(1) == (0,)

    def test_hat_examples(self):
        assert hat((1, 2, 0)) == (0, 2, 3, 1)
        assert cycle_count(hat((1, 0))) == cycle_count((1, 0)) + 1

    @given(perms)
    def test_hat_of_a_list_is_the_tuple_result(self, a):
        assert hat(list(a)) == hat(a)
        assert type(hat(list(a))) is tuple

    @given(same_degree_pair())
    def test_hat_is_multiplicative(self, pair):
        a, b = pair
        assert hat(compose(a, b)) == compose(hat(a), hat(b))


class TestFaces:
    def test_examples(self):
        assert face((0, 2, 1), 0) == (1, 0)
        assert face((0, 2, 1), 2) == (0, 1)

    def test_identity_faces(self):
        for k in range(2, 7):
            for j in range(k):
                assert face(identity(k), j) == identity(k - 1)

    @given(perms.filter(lambda a: len(a) >= 2))
    def test_face_of_a_list_is_the_tuple_result(self, a):
        for j in range(len(a)):
            assert face(list(a), j) == face(a, j)
            assert type(face(list(a), j)) is tuple

    def test_rejects(self):
        with pytest.raises(ValueError):
            face((0, 1), 2)
        with pytest.raises(ValueError):
            face((0,), 0)


def reference_face(a, j):
    """Delete the entry at position j, then lower each value above it by 1."""
    v = a[j]
    return tuple(x - (x > v) for i, x in enumerate(a) if i != j)


class TestByteWords:
    KINDS = (tuple, list, bytes)

    def test_faces_face_and_hat_match_the_reference(self):
        # every word of S_2..S_7, as a tuple, a list and bytes; bytes in
        # gives bytes out, anything else a tuple.  face(a, j) is faces(a)[j],
        # so it is checked at one index per word, the index cycling with rank
        for k in range(2, 8):
            for r, w in enumerate(all_perms(k)):
                expected = [reference_face(w, j) for j in range(k)]
                for kind in self.KINDS:
                    out = bytes if kind is bytes else tuple
                    a = kind(w)
                    got = faces(a)
                    assert got == [out(f) for f in expected], (w, kind)
                    assert all(type(f) is out for f in got)
                    assert face(a, r % k) == out(expected[r % k])
                    assert type(face(a, r % k)) is out
                    assert hat(a) == out((0, *(x + 1 for x in w)))
                    assert type(hat(a)) is out

    @given(st.integers(2, 256).flatmap(lambda k: st.permutations(range(k)).map(tuple)))
    @settings(deadline=None, max_examples=60)
    def test_faces_match_the_reference_at_every_degree(self, w):
        # every degree a byte word takes, so each renumber and delete table
        # is read
        expected = [reference_face(w, j) for j in range(len(w))]
        assert faces(w) == expected
        assert faces(bytes(w)) == [bytes(f) for f in expected]

    @given(
        st.integers(2, 256).flatmap(
            lambda k: st.lists(st.permutations(range(k)).map(tuple), min_size=1, max_size=4)
        )
    )
    @settings(deadline=None, max_examples=60)
    def test_block_faces_match_the_reference_at_every_degree(self, ws):
        # face j of a block of one degree, word by word, is the reference
        # face j of each word, at every degree a byte word takes
        got = list(block_faces([bytes(w) for w in ws]))
        assert got == [[bytes(reference_face(w, j)) for w in ws] for j in range(len(ws[0]))]
        assert all(type(f) is bytes for col in got for f in col)

    def test_block_faces_limits(self):
        assert list(block_faces([])) == []
        for bad in ([b"\0"], [bytes(257)], [b"\0\1", b"\0\1\2"], [b"\0\1\2", b"\0\1"]):
            with pytest.raises(ValueError):
                block_faces(bad)

    def test_other_sequences_give_tuples(self):
        for a in (bytearray((1, 0, 2)), range(3), memoryview(bytes((1, 0, 2)))):
            assert type(hat(a)) is tuple
            assert all(type(f) is tuple for f in faces(a))

    def test_degree_and_entry_limits(self):
        big = bytes(range(256))
        assert faces(big)[255] == bytes(range(255))
        with pytest.raises(ValueError):
            faces(big + b"\0")  # degree 257
        for word in (big, bytes(256)):  # degree 256, with and without 255
            with pytest.raises(ValueError):
                hat(word)
        with pytest.raises(ValueError):
            hat(tuple(range(256)))
        assert hat(bytes(range(255)))[-1] == 255
        for bad in ((0, 256), (256, 0, 1)):
            with pytest.raises(ValueError):
                faces(bad)
            with pytest.raises(ValueError):
                hat(bad)
        with pytest.raises(ValueError):
            hat(bytes((255, 0)))  # 255 has no successor byte

    @given(st.integers(1, 255).flatmap(lambda k: st.permutations(range(k)).map(bytes)), st.data())
    @settings(deadline=None, max_examples=60)
    def test_face_j_of_a_coface_made_at_j_is_the_word(self, w, data):
        # at every degree whose cofaces are byte words: k + 1 lists of k + 1
        # words of degree k + 1; one drawn position is checked in full, as
        # taking every face of every coface is cubic in the degree
        k = len(w)
        made = cofaces(w)
        assert [len(row) for row in made] == [k + 1] * (k + 1)
        j = data.draw(st.integers(0, k), label="j")
        for v, c in enumerate(made[j]):
            assert type(c) is bytes and sorted(c) == list(range(k + 1))
            assert c[j] == v
            assert faces(c)[j] == w

    def test_cofaces_are_the_words_with_the_word_as_a_face(self):
        # exhaustively on S_1..S_5: a word of degree k + 1 is made from w
        # once for each position at which w is its face
        for k in range(1, 6):
            up = [bytes(c) for c in all_perms(k + 1)]
            for w in map(bytes, all_perms(k)):
                made = sorted(c for row in cofaces(w) for c in row)
                assert made == sorted(c for c in up for f in faces(c) if f == w), w

    def test_coface_limits(self):
        assert cofaces(bytes(range(255)))[255][255] == bytes(range(256))
        for word in (bytes(range(256)), bytes(256)):  # degree 256, with and without 255
            with pytest.raises(ValueError):
                cofaces(word)
        with pytest.raises(ValueError):
            cofaces(bytes((255, 0)))  # 255 has no successor byte
        with pytest.raises(TypeError):
            cofaces((0, 1))

    def test_degree_limits_raise_under_python_O(self):
        code = (
            "from arccalc.perms import cofaces, faces, hat\n"
            "for f, a in ((hat, bytes(range(256))), (faces, bytes(257)), (hat, (256,)), (cofaces, bytes(range(256)))):\n"
            "    try:\n"
            "        f(a)\n"
            "    except ValueError:\n"
            "        print('raised')\n"
        )
        res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["raised"] * 4


class TestBoundary:
    def test_cancellation_examples(self):
        assert boundary((0, 2, 1)).coeffs == {(1, 0): 1}
        assert boundary((1, 2, 0)).coeffs == {(0, 1): 1}

    def test_identity_boundary_parity(self):
        # identity of degree g+1: zero when g is odd, identity when g is even
        for g in range(1, 7):
            b = boundary(identity(g + 1))
            if g % 2 == 1:
                assert b.is_zero()
            else:
                assert b == FormalSum({identity(g): 1})

    def test_boundary_squared_vanishes_exhaustive(self):
        for k in range(3, 8):
            for a in all_perms(k):
                dd = FormalSum.from_terms(
                    (c * e, f)
                    for p, c in boundary(a).coeffs.items()
                    for f, e in boundary(p).coeffs.items()
                )
                assert dd.is_zero(), a

    def test_even_degree_correction(self):
        for g in (2, 4, 6):
            tau = (2, 0, 1) + tuple(range(3, g + 1))
            assert boundary(tau) == boundary(identity(g + 1))


class TestHomotopy:
    def test_identity_exhaustive(self):
        for k in range(2, 7):
            for a in all_perms(k):
                lhs = boundary(hat(a)) + homotopy_d_on_sum(boundary(a))
                assert lhs == FormalSum({a: 1}), a

    def test_degree_one_excluded(self):
        # prepending a fixed point to the sole degree-1 word and taking the
        # boundary gives zero, not the word: the identity starts at degree 2
        assert boundary(hat((0,))).is_zero()


class TestFormalSum:
    def test_normalization_merges_and_drops(self):
        s = FormalSum.from_terms([(1, (0, 1)), (2, (0, 1)), (-3, (0, 1)), (5, (1, 0))])
        assert s.coeffs == {(1, 0): 5}

    def test_mixed_degree_rejected(self):
        with pytest.raises(ValueError):
            FormalSum.from_terms([(1, (0, 1)), (1, (0, 1, 2))])

    def test_coeffs_are_read_only(self):
        # a write into coeffs would bypass the zero and mixed-degree checks
        s = FormalSum({(0, 1): 1})
        with pytest.raises(TypeError):
            s.coeffs[(1, 0)] = 0
        with pytest.raises(TypeError):
            del s.coeffs[(0, 1)]
        given = {(0, 1): 2}
        t = FormalSum(given)
        given[(1, 0)] = 0
        assert t.coeffs == {(0, 1): 2}

    def test_algebra(self):
        a = FormalSum({(0, 1): 1})
        b = FormalSum({(1, 0): 1})
        assert a + b == FormalSum({(0, 1): 1, (1, 0): 1})
        assert a + b + FormalSum({(0, 1): -1}) == b
        assert (a + FormalSum({(0, 1): -1})).is_zero()
        assert a + FormalSum() == a

    @given(signed_word_lists())
    @settings(max_examples=200, deadline=None)
    def test_sums_ignore_word_order(self, ab):
        a, b = ab
        s = FormalSum.from_terms(a)
        assert s == FormalSum.from_terms(reversed(a))
        assert s + FormalSum.from_terms(b) == FormalSum.from_terms(a + b)
        assert (s + FormalSum.from_terms((-c, p) for c, p in a)).is_zero()
