"""Finite-field tables against a naive polynomial-arithmetic oracle, and
the log arrays against the boxed elements of conftest."""

import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest

import conftest
from conftest import (
    FqElem,
    code,
    elements,
    from_coeffs,
    from_int,
    from_log,
    from_packed_int,
    gen,
    nonzero_elements,
    one,
    zero,
)
from saxl import gf
from saxl.gf import (
    CapExceeded,
    count_nonsquare_nonsubfield,
    embed_into_square_extension,
    euler_bound_scan,
    euler_phi,
    field_create,
    field_from_order,
    in_proper_subfield,
    is_square,
    phi_sieve,
    prime_powers,
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

    def pow(self, a, e):
        out = (1,) + (0,) * (self.f - 1)
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out


SMALL_FIELDS = [(2, 3), (3, 2), (5, 2), (3, 3)]


@pytest.mark.parametrize("p,f", SMALL_FIELDS)
def test_arithmetic_matches_polynomial_oracle(p, f):
    F = field_create(p, f)
    oracle = PolyOracle(F)
    elems = list(elements(F))
    assert len(elems) == p**f
    for x in elems:
        for y in elems:
            assert (x + y).coeffs() == oracle.add(x.coeffs(), y.coeffs())
            assert (x * y).coeffs() == oracle.mul(x.coeffs(), y.coeffs())


@pytest.mark.parametrize("p,f", [(1048573, 1), (1021, 2)])
def test_fields_near_the_cap_match_the_oracle(p, f):
    """The tables come from int64 matrix products; near the cap, every sampled
    log must still be a discrete log of the generator, and sums and products
    must agree with Python-integer arithmetic."""
    F = field_create(p, f)
    oracle = PolyOracle(F)
    g = gen(F).coeffs()
    rng = random.Random(p)
    for _ in range(100):
        c = tuple(rng.randrange(p) for _ in range(f))
        x = from_coeffs(F, c)
        assert x.coeffs() == c
        assert x.is_zero() == (not any(c))
        if any(c):
            assert oracle.pow(g, x.log) == c
        y = from_log(F, rng.randrange(F.q - 1))
        assert (x + y).coeffs() == oracle.add(c, y.coeffs())
        assert (x * y).coeffs() == oracle.mul(c, y.coeffs())


@pytest.mark.parametrize("p,f", SMALL_FIELDS)
def test_negation_subtraction_inverse(p, f):
    F = field_create(p, f)
    for x in elements(F):
        assert x + (-x) == zero(F)
        assert x - x == zero(F)
        if not x.is_zero():
            assert x * x.inverse() == one(F)
            assert x / x == one(F)


def test_generator_is_primitive():
    for p, f in SMALL_FIELDS:
        F = field_create(p, f)
        # the generator's order, by repeated multiplication
        g = gen(F)
        acc, k = g, 1
        while acc != one(F):
            acc = acc * g
            k += 1
        assert k == F.q - 1


def test_powers_and_orders():
    F = field_create(3, 3)
    for x in nonzero_elements(F):
        # brute-force multiplicative order
        acc, k = x, 1
        while acc != one(F):
            acc = acc * x
            k += 1
        assert (F.q - 1) % k == 0
        assert x ** (F.q - 1) == one(F)
        assert x**0 == one(F)
        assert x**-1 == x.inverse()


def test_frobenius():
    F = field_create(3, 3)
    for x in elements(F):
        for y in elements(F):
            assert (x + y).frobenius() == x.frobenius() + y.frobenius()
            assert (x * y).frobenius() == x.frobenius() * y.frobenius()
    for x in elements(F):
        assert x.frobenius(F.f) == x
    for n in range(F.p):
        assert from_int(F, n).frobenius() == from_int(F, n)


class TestEncodings:
    def test_packed_roundtrip(self):
        for p, f in SMALL_FIELDS:
            F = field_create(p, f)
            seen = set()
            for x in elements(F):
                n = x.as_int()
                assert 0 <= n < F.q
                seen.add(n)
                assert from_packed_int(F, n) == x
                assert from_coeffs(F, x.coeffs()) == x
            assert len(seen) == F.q

    def test_packed_out_of_range(self):
        F = field_create(3, 2)
        for n in (9, -1):
            with pytest.raises(ValueError):
                from_packed_int(F, n)
            with pytest.raises(ValueError, match="packed value %d out of range" % n):
                gf.log_of_packed(F, n)
        with pytest.raises(ValueError, match="packed value -1 out of range"):
            gf.log_of_packed(F, [0, 8, -1])

    def test_from_int_is_prime_field(self):
        F = field_create(5, 2)
        assert from_int(F, 0) == zero(F)
        assert from_int(F, 1) == one(F)
        assert from_int(F, 5) == zero(F)
        assert from_int(F, 2) + from_int(F, 3) == zero(F)

    def test_from_coeffs_length_check(self):
        F = field_create(3, 2)
        with pytest.raises(ValueError):
            from_coeffs(F, (1,))

    def test_cross_field_operations_rejected(self):
        a = one(field_create(3, 2))
        b = one(field_create(3, 3))
        with pytest.raises(ValueError):
            a + b

    def test_zero_division(self):
        F = field_create(3, 2)
        with pytest.raises(ZeroDivisionError):
            one(F) / zero(F)
        with pytest.raises(ZeroDivisionError):
            zero(F).inverse()

    def test_element_is_its_field_and_log(self):
        F, G = field_create(3, 2), field_create(3, 3)
        for x in (zero(F), one(F), gen(F)):
            assert hash(x) == hash((x.field, x.log))
            assert x == from_log(F, x.log)
            assert x != (x.field, x.log)
            assert not hasattr(x, "__dict__")
        # equal logs in two fields are two elements
        assert gen(F) != gen(G)
        assert zero(F) != zero(G)
        assert len({one(F), one(G), FqElem(F, 0)}) == 2


def _all_codes(F):
    """The code of every element of F in elements(F) order: zero, then log order."""
    return np.arange(gf.LOG_ZERO, F.q - 1)


class TestSquaresAndSubfields:
    @pytest.mark.parametrize("p,f", [(3, 2), (5, 2), (3, 3)])
    def test_is_square_against_brute(self, p, f):
        F = field_create(p, f)
        squares = {(y * y).as_int() for y in elements(F)}
        got = is_square(F, _all_codes(F))
        assert got.tolist() == [x.as_int() in squares for x in elements(F)]
        assert len(squares) == (F.q + 1) // 2

    def test_even_characteristic_all_squares(self):
        F = field_create(2, 3)
        assert is_square(F, _all_codes(F)).all()

    @pytest.mark.parametrize("p,f", [(2, 4), (3, 4), (5, 2), (3, 3)])
    def test_in_proper_subfield_against_brute(self, p, f):
        F = field_create(p, f)
        brute = [x.is_zero() or any(x.frobenius(k) == x for k in range(1, F.f)) for x in elements(F)]
        assert in_proper_subfield(F, _all_codes(F)).tolist() == brute

    def test_prime_field_has_no_proper_subfield(self):
        F = field_create(7, 1)
        assert not in_proper_subfield(F, _all_codes(F)).any()

    @pytest.mark.parametrize("q", [25, 49, 81])
    def test_count_nonsquare_nonsubfield_against_brute(self, q):
        F = field_from_order(q)
        brute = sum(
            1
            for x in nonzero_elements(F)
            if not conftest.is_square(x) and not conftest.in_proper_subfield(x)
        )
        assert count_nonsquare_nonsubfield(F) == brute

    def test_subfield_logs(self):
        F = field_create(5, 2)
        logs = subfield_logs(F, 1)
        assert len(logs) == 4
        for log in logs:
            x = from_log(F, log)
            assert x.frobenius() == x
        with pytest.raises(ValueError):
            subfield_logs(F, 3)

    def test_embedding_into_square_extension(self):
        F, F2 = field_create(3, 2), field_create(3, 4)
        X = _all_codes(F)
        Z = embed_into_square_extension(F, X, F2)
        # lands in the order-q subfield, onto all of it
        assert all(from_log(F2, z) ** F.q == from_log(F2, z) for z in Z[1:].tolist())
        assert len(set(Z.tolist())) == F.q
        # a homomorphism of multiplication, on every pair
        XX, YY = np.meshgrid(X, X)
        product = embed_into_square_extension(F, gf.log_mul(F, XX, YY), F2)
        assert (product == gf.log_mul(F2, Z[XX + 1], Z[YY + 1])).all()
        assert embed_into_square_extension(F, [0, gf.LOG_ZERO], F2).tolist() == [0, gf.LOG_ZERO]

    def test_embedding_target_checked(self):
        F = field_create(3, 2)
        with pytest.raises(ValueError):
            embed_into_square_extension(F, 0, field_create(3, 3))


class TestFieldConstruction:
    def test_prime_powers_against_split(self):
        want = []
        for q in range(0, 2000):
            try:
                p, f = split_prime_power(q)
            except ValueError:
                continue
            want.append((p, f, q))
        assert list(prime_powers(0, 2000)) == want
        assert list(prime_powers(28, 2000)) == [w for w in want if w[2] >= 28]
        assert list(prime_powers(27, 28)) == [(3, 3, 27)]
        assert list(prime_powers(24, 25)) == list(prime_powers(5, 2)) == []

    def test_split_prime_power(self):
        assert split_prime_power(9) == (3, 2)
        assert split_prime_power(32) == (2, 5)
        assert split_prime_power(7) == (7, 1)
        for bad in (0, 1, 12, 100):
            with pytest.raises(ValueError):
                split_prime_power(bad)

    def test_split_prime_power_against_trial_division(self):
        def by_division(q):
            p = next(d for d in range(2, q + 1) if q % d == 0)
            f = 0
            while q % p == 0:
                q, f = q // p, f + 1
            return (p, f) if q == 1 else None

        for q in range(2, 5000):
            try:
                got = split_prime_power(q)
            except ValueError:
                got = None
            assert got == by_division(q), q

    def test_split_prime_power_of_large_powers(self):
        mersenne = 2**61 - 1
        assert split_prime_power(10**18 + 3) == (10**18 + 3, 1)
        assert split_prime_power(3**200) == (3, 200)
        # above the primality bound, a perfect power's root is still decided
        assert split_prime_power(mersenne**2) == (mersenne, 2)
        with pytest.raises(ValueError):
            split_prime_power(6**40)
        with pytest.raises(ValueError):
            split_prime_power(101 * (10**18 + 3))
        # a number with no root above the bound is refused, not trial-divided
        with pytest.raises(CapExceeded, match="primality of"):
            split_prime_power(10**30 + 57)


    def test_field_create_validation(self):
        with pytest.raises(ValueError):
            field_create(4, 1)
        with pytest.raises(ValueError):
            field_create(3, 0)
        with pytest.raises(CapExceeded):
            field_create(2, 21)

    def test_cap_is_decided_before_the_order_is_computed(self):
        # 3^100000 has 47 713 digits, past Python's limit for printing an int
        with pytest.raises(CapExceeded, match=r"^field order q = 3\^100000 exceeds cap 1048576$"):
            field_create(3, 10**5)
        with pytest.raises(CapExceeded, match=r"q = 2\^21 "):
            field_create(2, 21)

    @pytest.mark.parametrize(
        "orders",
        [[q for _, _, q in prime_powers(2, 4097)], [2**16], [3**10], [5**8], [7**7], [2**20]],
        ids=["q<=4096", "2^16", "3^10", "5^8", "7^7", "2^20"],
    )
    def test_block_search_matches_the_one_key_search(self, orders):
        for q in orders:
            p, f = split_prime_power(q)
            F = gf.FqField(p, f)  # not field_create: the large tables are not kept
            assert (F.modulus, F.gen_coeffs) == conftest.oracle_field_keys(p, f), q

    def test_field_from_order(self):
        F = field_from_order(49)
        assert (F.p, F.f, F.q) == (7, 2, 49)

    def test_least_irreducible_moduli(self):
        # hand-checked least monic irreducibles under the (a0, a1, ...) order
        assert field_create(2, 3).modulus == [1, 0, 1, 1]  # x^3 + x^2 + 1
        assert field_create(3, 2).modulus == [1, 0, 1]  # x^2 + 1

    def test_field_identity_map_is_cached(self):
        assert field_create(3, 2) is field_create(3, 2)


class TestPrimality:
    def test_against_trial_division(self):
        def by_division(n):
            return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))

        assert [n for n in range(-3, 20000) if gf.is_prime(n)] == [n for n in range(-3, 20000) if by_division(n)]

    def test_strong_pseudoprimes(self):
        # strong pseudoprimes to the first 4, the first 9 and the first 12
        # prime bases (Sorenson and Webster 2017): composite, each caught by
        # a later base
        for n in (3215031751, 3825123056546413051, 318665857834031151167461):
            assert not gf.is_prime(n)
        assert gf.is_prime(2**61 - 1) and gf.is_prime(10**24 + 7)

    def test_bound_is_refused(self):
        # the least strong pseudoprime to all 13 bases, 1287836182261 * 2575672364521
        assert gf.MILLER_RABIN_BOUND == 1287836182261 * 2575672364521
        assert not gf.is_prime(gf.MILLER_RABIN_BOUND - 2)
        for n in (gf.MILLER_RABIN_BOUND, 2**89 - 1):
            with pytest.raises(CapExceeded, match="primality of %d is not decided" % n):
                gf.is_prime(n)


class TestPinnedTables:
    """sha256 of the public values of every field that a verify sweep builds:
    GF(q) and GF(q^2) for each q that a sweep or ``_clique5_fields(200)``
    covers.  Pinned from the tables before the field construction was
    rewritten."""

    SWEEP_Q = (4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 49, 81, 121, 125, 169)

    DIGESTS = {
        4: "84680647c47a7247ad17fda858c1e69f73308efc5b2139ec03a4e07ddd20c68f",
        5: "015440c9b1868e418de5c8c8a4e202b5ebe422738c88cd9011ccd7b44aa9fd8d",
        7: "1424607d5c4ddcd4a2645ac2a6f1506d3953042ca91bf805203db1c51db08b62",
        8: "986316eb81a192e29d1c7286a25054cb6c0653fb0c232a120ec5fd52776543a8",
        9: "dcc848aa67009a930ed8dca8adb4779ffe10f60567e4e6b97971083b56c91b3a",
        11: "b76dbe27d225725b6619503c7542853081ec8b4a3106009e52535dbd22fae143",
        13: "958a8d368e6610befab076a79a2fcaa580dfeb43650432c4eeaf127fd59a2113",
        16: "f07e582047292358b721fbcd2358b108f2a5a7aa575bddc1c12f6dd293d7de17",
        17: "eef2f41191edf92de16c82fcd1dfb310982cd7e2c63ee5f11eab27c520272d34",
        19: "a6a386e0fe64a53a84cf86ca0c145b19ea6f4f38f12580810e4c6723fb2f71bc",
        23: "a3e49089d1f2a88e1c2e322db92e0ef22c2ad0f4c31443d902519135a4a7ff2a",
        25: "dfa51b2222734bcac48ceb69190b91ed168feac6730283d1b8cae29d6a3ad844",
        27: "2e7824b67c86020f3951626a74a09cf37adc077d0625620e0b698d7899710d09",
        29: "911eb7f62fd9cc6562bf6d8954588503a9bd9a11da91ee7a5c2f48d2f593c60e",
        49: "39b61b66428a237a0ea452cb7cc0d42b0ba4dc99cc784412103e4688331c0132",
        64: "be7ef7979b46e04042eaa30e9ec628ff10e17f17fd6919e5ac7da4dea97e25a9",
        81: "f720f0de966435a5f8a79f81ce16d9931764ea1a8feef89cf805548221b0b0ba",
        121: "ea6a1c4849f691bfcd46300d687d647ac124bd2cf073c5104b43de6836a05fac",
        125: "7816aed1113da4860a92dfe3cbb7f3c25910f6e6a3dccd56703f425c0606f0cb",
        169: "5ef67adc335a141c709f0b1078002d3a528a853054ccc03d955d5aa9a0e97a66",
        256: "3f15b3595bad6bde397fd4da67ed0c1e128dcb69e246f26df7886e2ee549445f",
        289: "973fcb30d42d9feb848f7c912051378bdb3ddee4c28628854cd7fab35ecf04cf",
        361: "5fb24f1fc0481f555d312a1c87730a2e68e202c19520fb29de57dc665e44a208",
        529: "ef1c3dda72ad57e85bebc59b1e01360a76c584a5d719c63c8eb73d25904424e9",
        625: "ec98c91459a904ecf09bd3988236bf4231a069b3d3b5f2dde96b1db19740c3db",
        729: "8d7226941eca785934383460452fff6e9fa7ea97c282fef72d22eb40d821d3b0",
        841: "1820ad6c0ee564e9688501c90ab1f6f0300290ec2399fbca09024bfdc2a7da41",
        2401: "8842d716501b85ae56f8af45267df11e7d894a799142b9bd314a9a59d18bf02f",
        6561: "fb02444e4711773d354d07b62dea81f4511aa3e80f82d98ca5676b36e58aa0f2",
        14641: "a86641f2e3ee5e9d679ac6b039c91fd4b2608eb0f4217a0704306bfbe7105025",
        15625: "c3f682f447c01e1821611681b9ba7d2b48ff5af1aa61af831b699d411d788c0d",
        28561: "8d607b61fea96b4ddc14fac89518049e80678c96037917d1163eede06b2c0a9e",
    }

    def test_orders_cover_the_sweep_fields(self):
        from saxl.cli import _clique5_fields

        assert set(_clique5_fields(200)) <= set(self.SWEEP_Q)
        assert set(self.DIGESTS) == set(self.SWEEP_Q) | {q * q for q in self.SWEEP_Q}

    @pytest.mark.parametrize("q", sorted(DIGESTS))
    def test_table_digest(self, q):
        F = field_from_order(q)
        h = hashlib.sha256(repr((F.modulus, F.gen_coeffs)).encode())
        unit = one(F)
        for k in range(F.q - 1):
            x = from_log(F, k)
            h.update(repr((x.coeffs(), (unit + x).log)).encode())
        assert h.hexdigest() == self.DIGESTS[q]


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

    def test_scan_finds_no_violations(self):
        assert euler_bound_scan(10**4) == []

    @pytest.mark.parametrize(
        "lo,hi",
        [
            (0, 3000),  # from 0
            (1, 1500),  # from 1
            (65535, 66535),  # across 2^16
            (65537, 66000),  # from the prime 2^16 + 1
            (997, 1010),  # ends at the prime 1009
            (66049 - 100, 66049 + 1),  # ends at 257^2, a square above the block's square root
            (67591 - 100, 67591 + 1),  # ends at 257 * 263, two scattered moduli at one number
            (1018081 - 200, 1018081 + 1),  # ends at 1009^2
            (823543 - 200, 823543 + 1),  # ends at 7^7
            (2**20 - 200, 2**20 + 1),  # ends at 2^20
            (1594323 - 50, 1594323 + 1),  # ends at 3^13
        ],
    )
    def test_phi_block_against_trial_division(self, lo, hi):
        phi = gf._phi_block(lo, hi, gf._phi_moduli(hi - 1))
        assert phi.dtype == np.int64
        assert phi.tolist() == [euler_phi(n) if n else 0 for n in range(lo, hi)]

    @pytest.mark.parametrize(
        "lo,limit",
        [
            (3, 10**6),  # the scan's first block
            (3 + gf.PHI_BLOCK, 10**6),  # its second: 257^2 = 66049 and 257 * 263 = 67591 are scattered
            (2**20 - gf.PHI_BLOCK // 2, 2**21),  # across 2^20
            (10**7 - gf.PHI_BLOCK, 10**7),  # the last full block below 10^7
            (2**31 - gf.PHI_BLOCK // 2, 2**31 + gf.PHI_BLOCK),  # across 2^31, where the sieve leaves int32
        ],
    )
    def test_full_blocks_against_the_division_sieve(self, lo, limit):
        hi = lo + gf.PHI_BLOCK
        want = conftest.oracle_phi_block(lo, hi, gf._primes_upto(math.isqrt(hi - 1)))
        got = gf._phi_block(lo, hi, gf._phi_moduli(limit))
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    def test_phi_block_bounds(self):
        moduli = gf._phi_moduli(100)
        with pytest.raises(ValueError):
            gf._phi_block(-1, 10, moduli)
        # refused before any array is made
        with pytest.raises(ValueError):
            gf._phi_block(2**53, 2**53 + 1, moduli)

    @staticmethod
    def _whole_range_scan(limit):
        """The bound scan over one phi_sieve array of the whole range."""
        phi = phi_sieve(limit)
        n = np.arange(3, limit + 1, dtype=np.float64)
        ll = np.log(np.log(n))
        denom = math.exp(gf.EULER_MASCHERONI) * ll + 3.0 / ll
        lhs = phi[3:].astype(np.float64) * (denom * (1.0 - 2.0**-40))
        return [int(b) + 3 for b in np.nonzero(lhs <= n)[0]]

    # blocks start at 3: 65538 ends one full block, 65539 and 131075 end on a one-number block
    @pytest.mark.parametrize("limit", [65538, 65539, 131075])
    # with e^gamma lowered to 1 or 1/2 the bound fails for many n, so the lists are
    # not empty; the scan's screen starts at n0 = exp(exp(sqrt(3 e^-gamma))):
    # 39, 285, and 10^5, inside the second block, at gamma = log(3 / (log log 10^5)^2)
    @pytest.mark.parametrize("gamma", [gf.EULER_MASCHERONI, 0.0, math.log(3 / math.log(math.log(10**5)) ** 2)])
    def test_blocked_scan_matches_the_whole_range(self, monkeypatch, limit, gamma):
        proved = gamma == gf.EULER_MASCHERONI
        monkeypatch.setattr(gf, "EULER_MASCHERONI", gamma)
        want = self._whole_range_scan(limit)
        assert euler_bound_scan(limit) == want
        assert bool(want) != proved

    def test_scan_memory_does_not_grow_with_the_limit(self):
        tracemalloc.start()
        try:
            assert euler_bound_scan(2 * 10**6) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def test_one_cross_check_exception():
    from saxl import engine, group

    assert engine.CrossCheckFailed is group.CrossCheckFailed is gf.CrossCheckFailed


@pytest.mark.parametrize("q", [q for _, _, q in prime_powers(2, 50)] + [81])
def test_log_arrays_match_boxed_elements(q):
    # every ordered pair of elements, zero included
    F = field_from_order(q)
    elems = list(elements(F))
    xs = [x for x in elems for _ in elems]
    ys = [y for _ in elems for y in elems]
    X, Y = np.array([code(x) for x in xs]), np.array([code(y) for y in ys])
    assert gf.log_add(F, X, Y).tolist() == [code(x + y) for x, y in zip(xs, ys)]
    assert gf.log_sub(F, X, Y).tolist() == [code(x - y) for x, y in zip(xs, ys)]
    assert gf.log_mul(F, X, Y).tolist() == [code(x * y) for x, y in zip(xs, ys)]
    nonzero = Y >= 0
    quotients = [code(x / y) for x, y in zip(xs, ys) if not y.is_zero()]
    assert gf.log_div(F, X[nonzero], Y[nonzero]).tolist() == quotients
    E = np.array([code(x) for x in elems])
    assert gf.log_neg(F, E).tolist() == [code(-x) for x in elems]
    for k in (0, 1, 2, 3, F.p, q - 1, q, q + 1, 7 * q + 5):
        assert gf.log_pow(F, E, k).tolist() == [code(x**k) for x in elems]
    for k in (-1, -2, -q):
        assert gf.log_pow(F, E[1:], k).tolist() == [code(x**k) for x in elems[1:]]
    assert is_square(F, E).tolist() == [conftest.is_square(x) for x in elems]
    assert in_proper_subfield(F, E).tolist() == [conftest.in_proper_subfield(x) for x in elems]
    packed = [x.as_int() for x in elems]
    assert gf.log_of_packed(F, packed).tolist() == [code(from_packed_int(F, n)) for n in packed] == E.tolist()


def test_log_arrays_refuse_zero_divisors():
    F = field_from_order(9)
    with pytest.raises(ZeroDivisionError):
        gf.log_div(F, [1, 2], [3, gf.LOG_ZERO])
    with pytest.raises(ZeroDivisionError):
        gf.log_pow(F, [1, gf.LOG_ZERO], -1)
    assert gf.log_pow(F, [gf.LOG_ZERO], 0).tolist() == [0]  # 0^0 = 1, as FqElem has it

