"""Permutation arithmetic: composition convention, cycles, parsing, and the
fixed-width image-bytes representation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from saxl.gf import CapExceeded
from saxl.perm import Perm, conjugates, from_cycles, identity, inverse_images, nontrivial, parse_cycles

from conftest import all_perms


def random_perm(degree):
    return st.permutations(range(degree)).map(Perm)


class TestCompose:
    def test_convention_left_to_right(self):
        # (0 1 2) followed by (0 1): 0 -> 1 -> 0, 1 -> 2 -> 2, 2 -> 0 -> 1.
        p = from_cycles(3, [(0, 1, 2)])
        q = from_cycles(3, [(0, 1)])
        assert p * q == Perm([0, 2, 1])
        # The same product in image-array form, right factor applied second.
        assert Perm([1, 2, 0]) * Perm([1, 0, 2]) == Perm([0, 2, 1])

    def test_identity_is_neutral(self):
        p = Perm([3, 1, 0, 2])
        e = identity(4)
        assert p * e == p
        assert e * p == p

    def test_inverse(self):
        p = Perm([3, 1, 0, 2])
        assert p * p.inverse() == identity(4)
        assert p.inverse() * p == identity(4)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            Perm([1, 0]) * Perm([1, 0, 2])

    @given(random_perm(6), random_perm(6), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_pointwise_meaning(self, p, q, i):
        assert (p * q)(i) == q(p(i))

    @given(random_perm(7))
    @settings(max_examples=40, deadline=None)
    def test_inverse_roundtrip(self, p):
        assert p * p.inverse() == identity(7)
        assert p.inverse().inverse() == p


class TestUncheckedResults:
    """Products, inverses, powers, conjugates, identities and rows wrapped by
    ``nontrivial`` skip the check in ``Perm.__init__``; each must still be a
    permutation it accepts unchanged."""

    @given(
        st.integers(0, 9).flatmap(lambda n: st.tuples(random_perm(n), random_perm(n))),
        st.integers(-7, 7),
    )
    @settings(max_examples=100, deadline=None)
    def test_results_pass_validation(self, pair, k):
        p, g = pair
        quotient = nontrivial(inverse_images(g.images).take(p.images))  # p * g^-1
        assert (quotient is None) == (p == g)
        assert quotient is None or quotient == p * g.inverse()
        for result in (p * g, p.inverse(), p**g, p**k, identity(p.degree), quotient or p):
            assert isinstance(result.images, np.ndarray)
            assert not result.images.flags.writeable
            assert result.images.dtype == np.dtype(">u2")
            assert Perm(result.images.tolist()) == result
        assert p.is_identity() == all(i == j for i, j in enumerate(p.images.tolist()))
        assert (p * p.inverse()).is_identity()


class TestConstruction:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Perm((0, 0))
        with pytest.raises(ValueError):
            Perm([0, 0, 1])
        with pytest.raises(ValueError):
            Perm([0, 3, 1])
        with pytest.raises(ValueError):
            Perm([-1, 0, 1])
        with pytest.raises(ValueError):
            Perm([1, 2**40])

    def test_immutability(self):
        p = Perm([1, 0])
        with pytest.raises(AttributeError):
            p.images = (0, 1)

    def test_call_and_pow(self):
        p = from_cycles(5, [(0, 1, 2, 3, 4)])
        assert p(0) == 1
        assert (p**3)(0) == 3
        assert p**-1 == p.inverse()
        assert p**0 == identity(5)
        # conjugation: x^g = g^-1 x g
        g = from_cycles(5, [(0, 1)])
        assert p**g == g.inverse() * p * g

    def test_order(self):
        assert from_cycles(6, [(0, 1), (2, 3, 4)]).order() == 6
        assert identity(4).order() == 1


class TestCycles:
    def test_cycles_of_identity(self):
        assert identity(3).cycles() == []

    def test_cycle_decomposition(self):
        p = from_cycles(6, [(0, 1), (2, 3, 4)])
        assert p.cycles() == [(0, 1), (2, 3, 4)]

    def test_cycle_string_one_based(self):
        p = from_cycles(4, [(0, 1, 2)])
        assert p.cycle_string(one_based=True) == "(1,2,3)"
        assert p.cycle_string() == "(0,1,2)"

    def test_parse_roundtrip(self):
        for p in all_perms(4):
            assert parse_cycles(p.cycle_string(one_based=True), 4) == p
            assert parse_cycles(p.cycle_string(), 4, one_based=False) == p

    def test_parse_identity_forms(self):
        assert parse_cycles("", 3) == identity(3)
        assert parse_cycles("()", 3) == identity(3)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_cycles("1,2,3", 4)
        with pytest.raises(ValueError):
            parse_cycles("(1,2,x)", 4)
        with pytest.raises(ValueError):
            parse_cycles("(1,2,1)", 4)
        with pytest.raises(ValueError):
            parse_cycles("(1,5)", 4)  # point out of range
        with pytest.raises(ValueError):
            parse_cycles("(1,2)(2,3)", 4)  # point reused across cycles

    def test_from_cycles_rejects_overlap(self):
        with pytest.raises(ValueError):
            from_cycles(4, [(0, 1), (1, 2)])

    @given(random_perm(8))
    @settings(max_examples=40, deadline=None)
    def test_cycle_string_roundtrip_random(self, p):
        assert parse_cycles(p.cycle_string(one_based=True), 8) == p


class TestMiscellany:
    def test_fixed_and_moved(self):
        p = from_cycles(5, [(1, 3)])
        assert p.fixed_point_count() == 3
        assert p.min_moved_point() == 1
        assert identity(5).min_moved_point() is None

    def test_sort_order_is_lexicographic(self):
        perms = sorted(all_perms(3))
        assert perms[0] == identity(3)
        assert [p.images.tolist() for p in perms] == sorted(p.images.tolist() for p in all_perms(3))

    def test_all_perms_count(self):
        assert sum(1 for _ in all_perms(4)) == 24


class TestConjugates:
    S5 = [from_cycles(5, [range(5)]), from_cycles(5, [(0, 1)])]

    def test_class_is_every_conjugate(self):
        x = from_cycles(5, [(0, 1, 2)])
        assert conjugates(x.key, 5, self.S5, 10**6) == {(x**g).key for g in all_perms(5)}
        assert conjugates(identity(5).key, 5, self.S5, 1) == {identity(5).key}

    def test_cap_is_inclusive(self):
        # the ten transpositions of S5: cap 10 holds them, cap 9 refuses them
        transposition = from_cycles(5, [(0, 1)]).key
        assert len(conjugates(transposition, 5, self.S5, 10)) == 10
        with pytest.raises(CapExceeded, match="larger than cap 9"):
            conjugates(transposition, 5, self.S5, 9)


class TestRepresentation:
    """Images are stored big-endian, 2 bytes per point up to degree 65 535 and
    4 bytes above; order, hash and equality follow the image lists."""

    @given(
        st.permutations(range(300)),
        st.permutations(range(300)),
        st.integers(0, 299),
        st.integers(0, 299),
    )
    @settings(max_examples=60, deadline=None)
    def test_order_is_image_list_order(self, a, b, i, j):
        # p and its transposed copy share every image before min(i, j), so
        # the comparison is decided at that point, where a little-endian key
        # and a big-endian one disagree whenever one image is 256 or more
        p, q = Perm(a), Perm(b)
        swapped = list(a)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        near = Perm(swapped)
        perms = [p, q, near]
        assert [x.images.tolist() for x in sorted(perms)] == sorted(x.images.tolist() for x in perms)
        for x in perms:
            for y in perms:
                assert (x < y) == (x.images.tolist() < y.images.tolist())
                assert (x <= y) == (x.images.tolist() <= y.images.tolist())
                assert (x == y) == (x.images.tolist() == y.images.tolist())

    @pytest.mark.parametrize("degree, width", [(65535, 2), (65536, 4)])
    def test_both_sides_of_the_width_switch(self, degree, width):
        shift = Perm([(i + 1) % degree for i in range(degree)])
        swap = from_cycles(degree, [(0, degree - 1), (1, 300)])
        e = identity(degree)
        for p in (shift, swap, e):
            assert p.images.dtype == np.dtype(">u%d" % width)
            assert len(p.key) == width * degree
            assert p.degree == degree
        prod = shift * swap
        for i in (0, 1, 299, 300, degree - 2, degree - 1):
            assert prod(i) == swap(shift(i))
        assert (shift * shift.inverse()).is_identity()
        assert nontrivial(inverse_images(shift.images)) == shift.inverse()
        assert nontrivial(inverse_images(e.images)) is None
        assert shift.inverse()(0) == degree - 1
        assert not shift.is_identity() and e.is_identity()
        assert shift**degree == e and shift.order() == degree
        assert swap.order() == 2 and swap.inverse() == swap
        assert e < shift < swap
        rebuilt = Perm(prod.images.tolist())
        assert rebuilt == prod and hash(rebuilt) == hash(prod)

    def test_images_are_read_only(self):
        p = Perm([1, 2, 0])
        with pytest.raises(ValueError):
            p.images[0] = 0
        q = p * p
        with pytest.raises(ValueError):
            q.images[:] = 0
        assert p.images.tolist() == [1, 2, 0]
