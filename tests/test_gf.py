"""Finite-field tables against a naive polynomial-arithmetic oracle."""

import math

import pytest

from saxl.gf import (
    FieldTooLarge,
    count_nonsquare_nonsubfield,
    embed_into_square_extension,
    euler_bound_holds,
    euler_bound_scan,
    euler_lower_bound,
    euler_phi,
    field_create,
    field_from_order,
    in_proper_subfield,
    is_square,
    phi_sieve,
    split_prime_power,
    subfield_logs,
)


class PolyOracle:
    """Independent GF(p^f) arithmetic on coefficient tuples (ascending degree),
    reducing by the same modulus the table-based field uses."""

    def __init__(self, field):
        self.p = field.p
        self.f = field.f
        self.modulus = field.modulus

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        prod = [0] * (2 * self.f - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce by the monic modulus
        for top in range(len(prod) - 1, self.f - 1, -1):
            coeff = prod[top]
            if coeff:
                prod[top] = 0
                for k in range(self.f + 1):
                    prod[top - self.f + k] = (prod[top - self.f + k] - coeff * self.modulus[k]) % self.p
        return tuple(prod[: self.f])


SMALL_FIELDS = [(2, 3), (3, 2), (5, 2), (3, 3)]


@pytest.mark.parametrize("p,f", SMALL_FIELDS)
def test_arithmetic_matches_polynomial_oracle(p, f):
    F = field_create(p, f)
    oracle = PolyOracle(F)
    elems = list(F.elements())
    assert len(elems) == p**f
    for x in elems:
        for y in elems:
            assert (x + y).coeffs() == oracle.add(x.coeffs(), y.coeffs())
            assert (x * y).coeffs() == oracle.mul(x.coeffs(), y.coeffs())


@pytest.mark.parametrize("p,f", SMALL_FIELDS)
def test_negation_subtraction_inverse(p, f):
    F = field_create(p, f)
    zero, one = F.zero(), F.one()
    for x in F.elements():
        assert x + (-x) == zero
        assert x - x == zero
        if not x.is_zero():
            assert x * x.inverse() == one
            assert x / x == one


def test_generator_is_primitive():
    for p, f in SMALL_FIELDS:
        F = field_create(p, f)
        # the generator's order, by repeated multiplication
        g = F.gen()
        acc, k = g, 1
        while acc != F.one():
            acc = acc * g
            k += 1
        assert k == F.q - 1


def test_powers_and_orders():
    F = field_create(3, 3)
    for x in F.nonzero_elements():
        # brute-force multiplicative order
        acc, k = x, 1
        while acc != F.one():
            acc = acc * x
            k += 1
        assert (F.q - 1) % k == 0
        assert x ** (F.q - 1) == F.one()
        assert x**0 == F.one()
        assert x**-1 == x.inverse()


def test_frobenius():
    F = field_create(3, 3)
    for x in F.elements():
        for y in F.elements():
            assert (x + y).frobenius() == x.frobenius() + y.frobenius()
            assert (x * y).frobenius() == x.frobenius() * y.frobenius()
    for x in F.elements():
        assert x.frobenius(F.f) == x
    for n in range(F.p):
        assert F.from_int(n).frobenius() == F.from_int(n)


class TestEncodings:
    def test_packed_roundtrip(self):
        for p, f in SMALL_FIELDS:
            F = field_create(p, f)
            seen = set()
            for x in F.elements():
                n = x.as_int()
                assert 0 <= n < F.q
                seen.add(n)
                assert F.from_packed_int(n) == x
                assert F.from_coeffs(x.coeffs()) == x
            assert len(seen) == F.q

    def test_packed_out_of_range(self):
        F = field_create(3, 2)
        with pytest.raises(ValueError):
            F.from_packed_int(9)
        with pytest.raises(ValueError):
            F.from_packed_int(-1)

    def test_from_int_is_prime_field(self):
        F = field_create(5, 2)
        assert F.from_int(0) == F.zero()
        assert F.from_int(1) == F.one()
        assert F.from_int(5) == F.zero()
        assert F.from_int(2) + F.from_int(3) == F.zero()

    def test_from_coeffs_length_check(self):
        F = field_create(3, 2)
        with pytest.raises(ValueError):
            F.from_coeffs((1,))

    def test_cross_field_operations_rejected(self):
        a = field_create(3, 2).one()
        b = field_create(3, 3).one()
        with pytest.raises(ValueError):
            a + b

    def test_zero_division(self):
        F = field_create(3, 2)
        with pytest.raises(ZeroDivisionError):
            F.one() / F.zero()
        with pytest.raises(ZeroDivisionError):
            F.zero().inverse()


class TestSquaresAndSubfields:
    @pytest.mark.parametrize("p,f", [(3, 2), (5, 2), (3, 3)])
    def test_is_square_against_brute(self, p, f):
        F = field_create(p, f)
        squares = {(y * y).as_int() for y in F.elements()}
        for x in F.elements():
            assert is_square(x) == (x.as_int() in squares)
        assert len(squares) == (F.q + 1) // 2

    def test_even_characteristic_all_squares(self):
        F = field_create(2, 3)
        assert all(is_square(x) for x in F.elements())

    @pytest.mark.parametrize("p,f", [(2, 4), (3, 4), (5, 2), (3, 3)])
    def test_in_proper_subfield_against_brute(self, p, f):
        F = field_create(p, f)
        for x in F.elements():
            brute = x.is_zero() or any(x.frobenius(k) == x for k in range(1, F.f))
            assert in_proper_subfield(x) == brute

    def test_prime_field_has_no_proper_subfield(self):
        F = field_create(7, 1)
        assert not any(in_proper_subfield(x) for x in F.nonzero_elements())

    @pytest.mark.parametrize("q", [25, 49, 81])
    def test_count_nonsquare_nonsubfield_against_brute(self, q):
        F = field_from_order(q)
        brute = sum(
            1
            for x in F.nonzero_elements()
            if not is_square(x) and not in_proper_subfield(x)
        )
        assert count_nonsquare_nonsubfield(F) == brute

    def test_subfield_logs(self):
        F = field_create(5, 2)
        logs = subfield_logs(F, 1)
        assert len(logs) == 4
        for log in logs:
            x = F.from_log(log)
            assert x.frobenius() == x
        with pytest.raises(ValueError):
            subfield_logs(F, 3)

    def test_embedding_into_square_extension(self):
        F, F2 = field_create(3, 2), field_create(3, 4)
        images = {}
        for x in F.elements():
            z = embed_into_square_extension(x, F2)
            images[x.as_int()] = z
            # lands in the order-q subfield
            assert z ** F.q == z
        assert len({z.as_int() for z in images.values()}) == F.q
        for x in F.elements():
            for y in F.elements():
                assert (
                    embed_into_square_extension(x * y, F2)
                    == images[x.as_int()] * images[y.as_int()]
                )
        assert embed_into_square_extension(F.one(), F2) == F2.one()
        assert embed_into_square_extension(F.zero(), F2) == F2.zero()

    def test_embedding_target_checked(self):
        F = field_create(3, 2)
        with pytest.raises(ValueError):
            embed_into_square_extension(F.one(), field_create(3, 3))


class TestFieldConstruction:
    def test_split_prime_power(self):
        assert split_prime_power(9) == (3, 2)
        assert split_prime_power(32) == (2, 5)
        assert split_prime_power(7) == (7, 1)
        for bad in (0, 1, 12, 100):
            with pytest.raises(ValueError):
                split_prime_power(bad)

    def test_field_create_validation(self):
        with pytest.raises(ValueError):
            field_create(4, 1)
        with pytest.raises(ValueError):
            field_create(3, 0)
        with pytest.raises(FieldTooLarge):
            field_create(2, 21)

    def test_field_from_order(self):
        F = field_from_order(49)
        assert (F.p, F.f, F.q) == (7, 2, 49)

    def test_least_irreducible_moduli(self):
        # hand-checked least monic irreducibles under the (a0, a1, ...) order
        assert field_create(2, 3).modulus == [1, 0, 1, 1]  # x^3 + x^2 + 1
        assert field_create(3, 2).modulus == [1, 0, 1]  # x^2 + 1

    def test_field_identity_map_is_cached(self):
        assert field_create(3, 2) is field_create(3, 2)


class TestEulerTotient:
    def test_phi_against_gcd_count(self):
        for n in range(1, 301):
            assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        with pytest.raises(ValueError):
            euler_phi(0)

    def test_phi_sieve_matches(self):
        phi = phi_sieve(500)
        assert phi[0] == 0
        for n in range(1, 501):
            assert int(phi[n]) == euler_phi(n)

    def test_lower_bound_holds_on_samples(self):
        for n in (3, 4, 10, 30, 210, 2310, 30030, 510510):
            assert euler_bound_holds(n)
        assert euler_bound_holds(510510, euler_phi(510510))
        with pytest.raises(ValueError):
            euler_lower_bound(2)

    def test_bound_value_sanity(self):
        # phi(n) itself must exceed the bound expression
        for n in (10, 100, 1000):
            assert euler_phi(n) > euler_lower_bound(n) * (1 - 1e-9)

    def test_scan_finds_no_violations(self):
        assert euler_bound_scan(10**4) == []
