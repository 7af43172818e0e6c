"""Finite fields GF(p^f) backed by Zech logarithm tables.

Elements are stored as discrete logarithms with respect to a fixed primitive
element, with a separate sentinel for zero, so multiplication is index
arithmetic and addition is one Zech table lookup.  All constructions are
deterministic:

* the modulus is the lexicographically least monic irreducible polynomial of
  degree f over GF(p), comparing coefficient tuples with the constant term
  most significant;
* the primitive element is the least generator of the multiplicative group in
  the same coefficient order.

Fields are capped at q <= 2**20 (table memory); larger requests raise
:class:`FieldTooLarge`.

The module also carries the Euler totient helpers used by the regular
suborbit counts: an exact totient, a sieve, and the certified lower bound
phi(n) > n / (e^gamma * log log n + 3 / log log n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator


FIELD_SIZE_CAP = 2**20

EULER_MASCHERONI = 0.5772156649015329


class FieldTooLarge(Exception):
    """Requested field exceeds the Zech table cap."""


# -- polynomial helpers over GF(p), dense coefficient lists, constant first --


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    a = a[:]
    inv_lead = pow(m[-1], -1, p)
    while len(a) >= len(m):
        coef = a[-1] * inv_lead % p
        if coef:
            shift = len(a) - len(m)
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - coef * mi) % p
        a.pop()
    return _poly_trim(a)


def _poly_powmod(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_mod(a, m, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), m, p)
        base = _poly_mod(_poly_mul(base, base, p), m, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = a[:], b[:]
    while b:
        a, b = b, _poly_mod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _is_irreducible(m: list[int], p: int) -> bool:
    """Rabin test: x^(p^f) == x mod m, and x^(p^(f/r)) - x coprime to m."""
    f = len(m) - 1
    if f <= 0:
        return False
    x = _poly_mod([0, 1], m, p)
    xq = _poly_powmod([0, 1], p**f, m, p)
    diff = _poly_trim([(a - b) % p for a, b in _zip_pad(xq, x)])
    if diff:
        return False
    for r in _prime_factors(f):
        xr = _poly_powmod([0, 1], p ** (f // r), m, p)
        diff = _poly_trim([(a - b) % p for a, b in _zip_pad(xr, x)])
        if _poly_gcd(m, diff, p) != [1]:
            return False
    return True


def _zip_pad(a: list[int], b: list[int]):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def is_prime(n: int) -> bool:
    """Whether n is prime, by trial division."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _least_irreducible(p: int, f: int) -> list[int]:
    """Least monic irreducible of degree f, ordered by (a_0, a_1, ..., a_{f-1})."""
    for key in range(p**f):
        coeffs = []
        k = key
        for _ in range(f):  # a_0 is the most significant digit of the key
            coeffs.append(k // p ** (f - 1 - len(coeffs)) % p)
        # decode: coeffs[i] = digit i of key, base p, most significant first
        m = coeffs + [1]
        if _is_irreducible(m, p):
            return m
    raise RuntimeError("no irreducible polynomial found (impossible)")


# -- the field ----------------------------------------------------------------


class FqField:
    """GF(p^f) with exp/log/Zech tables.  Use :func:`field_create`."""

    def __init__(self, p: int, f: int):
        q = p**f
        if q > FIELD_SIZE_CAP:
            raise FieldTooLarge("q = %d exceeds cap %d" % (q, FIELD_SIZE_CAP))
        if f < 1 or not is_prime(p):
            raise ValueError("need prime p and f >= 1")
        self.p = p
        self.f = f
        self.q = q
        self.modulus = _least_irreducible(p, f)
        self._build_tables()

    def _val(self, coeffs: tuple[int, ...]) -> int:
        """Table index: plain base-p value, constant term least significant."""
        val = 0
        for c in reversed(coeffs):
            val = val * self.p + c
        return val

    def _build_tables(self) -> None:
        p, f, q = self.p, self.f, self.q
        m = self.modulus

        def as_coeffs(poly: list[int]) -> tuple[int, ...]:
            return tuple(poly + [0] * (f - len(poly)))

        # find the least primitive element in coefficient order
        order_factors = _prime_factors(q - 1)
        lam_poly = None
        for key in range(1, q):
            digits = []
            k = key
            for i in range(f):
                digits.append(k // p ** (f - 1 - i) % p)
            cand = _poly_trim(digits[:])  # digits are (c_0, ..., c_{f-1})
            if not cand:
                continue
            if all(
                _poly_powmod(cand, (q - 1) // r, m, p) != [1] for r in order_factors
            ) and _poly_powmod(cand, q - 1, m, p) == [1]:
                lam_poly = cand
                break
        if lam_poly is None:
            raise RuntimeError("no primitive element found for GF(%d)" % q)
        self.gen_coeffs = as_coeffs(lam_poly)

        exp_coeffs: list[tuple[int, ...]] = [as_coeffs([1])]
        cur = [1]
        for _ in range(q - 2):
            cur = _poly_mod(_poly_mul(cur, lam_poly, p), m, p)
            exp_coeffs.append(as_coeffs(cur))
        self._exp = exp_coeffs  # log -> coefficient tuple

        log_table = [-1] * q
        for k, coeffs in enumerate(exp_coeffs):
            log_table[self._val(coeffs)] = k
        self._log = log_table  # value -> log, -1 for zero

        # zech[k] = log(1 + lam^k), or None when 1 + lam^k = 0
        zech: list[int | None] = [None] * (q - 1)
        for k, coeffs in enumerate(exp_coeffs):
            bumped = (coeffs[0] + 1) % p, *coeffs[1:]
            v = self._val(bumped)
            zech[k] = log_table[v] if log_table[v] >= 0 else None
        self._zech = zech
        self._log_minus_one = (q - 1) // 2 if p != 2 else 0

    # -- element constructors --------------------------------------------------

    def zero(self) -> "FqElem":
        return FqElem(self, None)

    def one(self) -> "FqElem":
        return FqElem(self, 0)

    def gen(self) -> "FqElem":
        """The chosen primitive element (generator of the multiplicative group)."""
        return FqElem(self, 1 % (self.q - 1))

    def from_log(self, log: int | None) -> "FqElem":
        if log is None:
            return self.zero()
        return FqElem(self, log % (self.q - 1))

    def from_coeffs(self, coeffs) -> "FqElem":
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) != self.f:
            raise ValueError("need exactly f coefficients")
        log = self._log[self._val(coeffs)]
        return FqElem(self, None if log < 0 else log)

    def from_int(self, n: int) -> "FqElem":
        """Image of an integer under the prime-field embedding."""
        return self.from_coeffs((n % self.p,) + (0,) * (self.f - 1))

    def from_packed_int(self, n: int) -> "FqElem":
        """Inverse of :meth:`FqElem.as_int` (base-p digits, constant term first)."""
        if not 0 <= n < self.q:
            raise ValueError("packed value %d out of range" % n)
        coeffs = []
        for _ in range(self.f):
            n, r = divmod(n, self.p)
            coeffs.append(r)
        return self.from_coeffs(coeffs)

    def elements(self) -> Iterator["FqElem"]:
        """Zero, then nonzero elements in log order."""
        yield self.zero()
        for k in range(self.q - 1):
            yield FqElem(self, k)

    def nonzero_elements(self) -> Iterator["FqElem"]:
        for k in range(self.q - 1):
            yield FqElem(self, k)

    def __repr__(self) -> str:
        return "FqField(p=%d, f=%d)" % (self.p, self.f)

    def __reduce__(self):
        return (field_create, (self.p, self.f))


@dataclass(frozen=True)
class FqElem:
    """A field element as a discrete log (None encodes zero)."""

    field: FqField
    log: int | None

    def is_zero(self) -> bool:
        return self.log is None

    def coeffs(self) -> tuple[int, ...]:
        if self.log is None:
            return (0,) * self.field.f
        return self.field._exp[self.log]

    def as_int(self) -> int:
        """Base-p integer encoding of the coefficient vector (constant term last)."""
        return self.field._val(self.coeffs())

    def _check(self, other: "FqElem") -> None:
        if self.field is not other.field:
            raise ValueError("elements of different fields")

    # arithmetic ---------------------------------------------------------------

    def __mul__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        if self.log is None or other.log is None:
            return self.field.zero()
        return FqElem(self.field, (self.log + other.log) % (self.field.q - 1))

    def __truediv__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        if other.log is None:
            raise ZeroDivisionError("division by field zero")
        if self.log is None:
            return self.field.zero()
        return FqElem(self.field, (self.log - other.log) % (self.field.q - 1))

    def inverse(self) -> "FqElem":
        if self.log is None:
            raise ZeroDivisionError("inverting field zero")
        return FqElem(self.field, (-self.log) % (self.field.q - 1))

    def __add__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        if self.log is None:
            return other
        if other.log is None:
            return self
        a, b = self.log, other.log
        z = self.field._zech[(b - a) % (self.field.q - 1)]
        if z is None:
            return self.field.zero()
        return FqElem(self.field, (a + z) % (self.field.q - 1))

    def __neg__(self) -> "FqElem":
        if self.log is None:
            return self
        return FqElem(self.field, (self.log + self.field._log_minus_one) % (self.field.q - 1))

    def __sub__(self, other: "FqElem") -> "FqElem":
        return self + (-other)

    def __pow__(self, k: int) -> "FqElem":
        if self.log is None:
            if k < 0:
                raise ZeroDivisionError("negative power of field zero")
            return self.field.zero() if k else self.field.one()
        return FqElem(self.field, (self.log * k) % (self.field.q - 1))

    def frobenius(self, j: int = 1) -> "FqElem":
        """x -> x^(p^j)."""
        return self ** (self.field.p**j)

    def __repr__(self) -> str:
        if self.log is None:
            return "Fq(0)"
        return "Fq(lam^%d of %r)" % (self.log, self.field)


@lru_cache(maxsize=None)
def field_create(p: int, f: int) -> FqField:
    """The deterministic GF(p^f) (cached, so field identity is usable)."""
    return FqField(p, f)


def split_prime_power(q: int) -> tuple[int, int]:
    """Write q = p^f with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError("%d is not a prime power" % q)
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise ValueError("%d is not a prime power" % q)
    p = factors[0]
    f = 0
    while q > 1:
        if q % p:
            raise ValueError("%d is not a prime power" % q)
        q //= p
        f += 1
    return p, f


def field_from_order(q: int) -> FqField:
    """GF(q) from a prime power q."""
    p, f = split_prime_power(q)
    return field_create(p, f)


# -- predicates and counts -------------------------------------------------------


def is_square(x: FqElem) -> bool:
    """Squares in GF(q).  Zero counts as a square; for even q everything is."""
    if x.log is None:
        return True
    if x.field.p == 2:
        return True
    return x.log % 2 == 0


def in_proper_subfield(x: FqElem) -> bool:
    """Whether x lies in a proper subfield of its field.

    The defining test is x^(p^k) == x for some 0 < k < f; it suffices to
    check the proper divisors k of f, because the fixed field of
    Frobenius^k is GF(p^gcd(k,f)).
    """
    F = x.field
    if F.f == 1:
        return False
    if x.log is None:
        return True
    for k in range(1, F.f):
        if F.f % k == 0 and x.log * (F.p**k - 1) % (F.q - 1) == 0:
            return True
    return False


def count_nonsquare_nonsubfield(F: FqField) -> int:
    """Number of x in GF(q) that are non-squares lying in no proper subfield.

    Only odd q has non-squares; the count drives the valency of the
    projective-pair graphs.
    """
    if F.p == 2:
        return 0
    count = 0
    moduli = [(F.q - 1) // (F.p**d - 1) for d in range(1, F.f) if F.f % d == 0]
    for s in range(1, F.q - 1, 2):  # odd logs are exactly the non-squares
        if all(s % m for m in moduli):
            count += 1
    return count


def subfield_logs(F: FqField, d: int) -> list[int]:
    """Logs of the nonzero elements of the order-p^d subfield (d must divide f)."""
    if F.f % d != 0:
        raise ValueError("no subfield of degree %d in GF(%d^%d)" % (d, F.p, F.f))
    step = (F.q - 1) // (F.p**d - 1)
    return list(range(0, F.q - 1, step))


def embed_into_square_extension(x: FqElem, F2: FqField) -> FqElem:
    """The multiplicative embedding GF(q) -> GF(q^2) given by log |-> log*(q+1).

    It maps the chosen generator of GF(q) onto a generator of the unique
    order-q subfield of GF(q^2); homomorphy of multiplication is exact, and
    the image is the full subfield.
    """
    F = x.field
    if F2.p != F.p or F2.f != 2 * F.f:
        raise ValueError("target field is not the square extension")
    if x.log is None:
        return F2.zero()
    return FqElem(F2, x.log * (F.q + 1) % (F2.q - 1))


# -- Euler totient ---------------------------------------------------------------


def euler_phi(n: int) -> int:
    """Exact totient by trial division."""
    if n < 1:
        raise ValueError("phi needs n >= 1")
    out = n
    for r in _prime_factors(n):
        out = out // r * (r - 1)
    return out


def phi_sieve(limit: int):
    """numpy array phi[0..limit] (phi[0] = 0), linear-ish sieve."""
    import numpy as np

    phi = np.arange(limit + 1, dtype=np.int64)
    phi[0] = 0
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            phi[p::p] -= phi[p::p] // p
    return phi

def euler_lower_bound(n: int) -> float:
    """The classical explicit bound n / (e^gamma log log n + 3 / log log n)."""
    if n < 3:
        raise ValueError("bound needs n >= 3")
    ll = math.log(math.log(n))
    return n / (math.exp(EULER_MASCHERONI) * ll + 3.0 / ll)


def euler_bound_holds(n: int, phi_value: int | None = None) -> bool:
    """Certified check of phi(n) > euler_lower_bound(n).

    Uses the exact integer totient against a deflated denominator: the float
    denominator D carries at most a few ulp of error, so comparing
    phi * D * (1 - 2^-40) > n can only fail when the true inequality is
    genuinely violated or razor-thin (it never is for n >= 3).
    """
    if phi_value is None:
        phi_value = euler_phi(n)
    ll = math.log(math.log(n))
    denom = math.exp(EULER_MASCHERONI) * ll + 3.0 / ll
    return phi_value * (denom * (1.0 - 2.0**-40)) > n


def euler_bound_scan(limit: int) -> list[int]:
    """All n in [3, limit] violating the certified bound (expected: none)."""
    import numpy as np

    phi = phi_sieve(limit)
    n = np.arange(3, limit + 1, dtype=np.float64)
    ll = np.log(np.log(n))
    denom = math.exp(EULER_MASCHERONI) * ll + 3.0 / ll
    lhs = phi[3:].astype(np.float64) * (denom * (1.0 - 2.0**-40))
    bad = np.nonzero(lhs <= n)[0]
    return [int(b) + 3 for b in bad]
