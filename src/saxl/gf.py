"""Finite fields GF(p^f) backed by Zech logarithm tables.

Elements are stored as discrete logarithms with respect to a fixed primitive
element, with a separate sentinel for zero, so multiplication is index
arithmetic and addition is one Zech table lookup.

An element a_0 + a_1 x + ... + a_{f-1} x^{f-1} of GF(p)[x]/(m) is the row
(a_0, ..., a_{f-1}), packed as the integer sum a_i p^i.  The f x f companion
matrix C of m multiplies a row by x, so x^N is row 0 of C^N, and
multiplication by c is the matrix M_c = sum c_j C^j.  Everything is built
from C, deterministically:

* the modulus m is the least monic irreducible polynomial of degree f,
  comparing coefficient tuples (a_0, ..., a_{f-1}) with the constant term
  most significant; for f >= 2 the candidates with a_0 = 0, which x divides,
  are skipped.  Irreducibility is Ben-Or's test: gcd(x^(p^d) - x, m) = 1 for
  every 1 <= d <= f/2, that is, M_u is nonsingular for u = x^(p^d) - x;
* the primitive element lambda is the least c in the same order for which
  row 0 of M_c^((q-1)/r) is not 1, for every prime r dividing q - 1.
  Both searches test SEARCH_BLOCK candidate keys at once, as stacks of
  f x f matrices, drop a candidate after the first round or exponent it
  fails, and take the first key in key order that passes; so m and lambda
  are those of a search one key at a time;
* the tables come from the walk 1, lambda, lambda^2, ..., which doubles at
  each step: the rows of lambda^n, ..., lambda^(2n-1) are the rows of
  1, ..., lambda^(n-1) times M_lambda^n.  The packed walk is the log -> value
  table; the value -> log and Zech tables follow from it.

Fields are capped at q <= 2**20 (table memory); larger requests raise
:class:`CapExceeded`, decided before p^f is computed.

Elements have one form, the log array: an int64 numpy array of discrete
logs, with LOG_ZERO = -1 for zero, the same sentinel as the value -> log
table.  Equal elements have equal entries.  ``log_mul`` and ``log_div`` add
and subtract logs mod q - 1, ``log_add`` reads the Zech table through a
numpy view of it (no copy): lambda^x + lambda^y = lambda^(x + zech[y - x])
(Lidl and Niederreiter, *Finite Fields*), ``log_neg``, ``log_pow``,
``is_square`` and ``in_proper_subfield`` act on the log alone, and
``log_of_packed`` gives the log of a packed value.  Arguments broadcast.

Primality is the deterministic Miller-Rabin test (see :func:`is_prime`),
and q = p^f is split by integer f-th roots: no field size is trial-divided.
The module also carries the number theory of the regular suborbit counts:
the prime powers in a range, an exact totient by trial division, and a scan
of the lower bound phi(n) > n / (e^gamma * log log n + 3 / log log n) over
3 <= n <= N.  The scan walks [3, N] in blocks of PHI_BLOCK = 2**16 numbers
(a segmented sieve, after Bays and Hudson), and it only multiplies: each
prime power p^k <= N with p <= isqrt(N) multiplies the block's phi by p - 1
(k = 1) or p (k > 1) at its multiples, and a smooth part of n by p.  Moduli
up to the square root of the block size take one strided slice each; the
rest take one scatter pass over all their multiples.  The cofactor
n / smooth, computed in float64, is 1 or the one prime factor of n above
isqrt(N), which multiplies phi by cofactor - 1.  The division is exact
because smooth divides n and n < 2**53, so blocks past 2**53 are refused.
The passes run in int32 while the block's numbers are below 2**31, and in
int64 above.  Memory is O(sqrt(N) + PHI_BLOCK), whatever N is.  Each
block's totients at its first and last number and at its largest prime are
compared with the trial-division totient; a mismatch raises
:class:`CrossCheckFailed`.  The bound is screened a block at a time with one
denominator, D at the block's first number or at n0, past which D increases
(n0 = 39 at the true gamma); the exact check runs only on the numbers the
screen leaves (see :func:`euler_bound_scan`).
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache

import numpy as np


FIELD_SIZE_CAP = 2**20

PHI_BLOCK = 2**16  # numbers per block of the totient scan

SEARCH_BLOCK = 16  # candidate keys per block of the modulus and generator searches

EULER_MASCHERONI = 0.5772156649015329


class CapExceeded(Exception):
    """An operation would exceed a configured size cap."""


class CrossCheckFailed(AssertionError):
    """A run-time invariant failed: two independent computation routes
    disagreed, or a result missed the closed form it was built to meet."""


# the first 13 primes, and the least number that is a strong probable prime to
# all of them (Sorenson and Webster, Math. Comp. 86, 2017): below it, a strong
# probable prime to these bases is a prime
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime, by the deterministic Miller-Rabin test over the
    first 13 prime bases, exact below ``MILLER_RABIN_BOUND`` (about
    3.3 * 10^24); a larger n raises :class:`CapExceeded` at once."""
    if n >= MILLER_RABIN_BOUND:
        raise CapExceeded("primality of %d is not decided above %d" % (n, MILLER_RABIN_BOUND))
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division."""
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


# -- matrices over GF(p) acting on coefficient rows -----------------------------
#
# Each helper acts on a stack of K matrices at once, shape (K, f, f), so that
# one numpy call serves a whole block of candidate keys.


def _digits(keys, p: int, f: int) -> np.ndarray:
    """The rows (c_0, ..., c_{f-1}) whose base-p digits, c_0 most significant,
    spell each key: shape (K, f)."""
    return np.asarray(keys, dtype=np.int64)[:, None] // p ** np.arange(f - 1, -1, -1, dtype=np.int64) % p


def _companion(m: np.ndarray, p: int) -> np.ndarray:
    """The stack of C, one per monic modulus row of m (shape (K, f + 1),
    constant term first), with row i = x^(i+1) mod m, so that a C = x a for
    every row a."""
    K, f = m.shape[0], m.shape[1] - 1
    C = np.zeros((K, f, f), dtype=np.int64)
    C[:, :-1, 1:] = np.eye(f - 1, dtype=np.int64)
    C[:, -1] = -m[:, :-1] % p
    return C


def _times(c: np.ndarray, C: np.ndarray, p: int) -> np.ndarray:
    """The stack of M_c = sum c_j C^j, the matrices of multiplication by each
    row c of shape (K, f), under one C or a stack of K: row i is x^i c."""
    rows = [c[:, None, :] % p]
    for _ in range(C.shape[-1] - 1):
        rows.append(rows[-1] @ C % p)
    return np.concatenate(rows, axis=1)


def _power(M: np.ndarray, e: int, p: int) -> np.ndarray:
    """The stack of M^e for e >= 1, by squaring."""
    out = None
    while True:
        if e & 1:
            out = M if out is None else out @ M % p
        e >>= 1
        if not e:
            return out
        M = M @ M % p


def _nonsingular(M: np.ndarray, p: int) -> np.ndarray:
    """Whether each matrix of the stack is invertible over GF(p), by
    fraction-free elimination: column i pivots on each matrix's first row
    from i with a nonzero entry there, swapped into row i by fancy indexing."""
    M = M.copy()
    at = np.arange(len(M))
    ok = np.ones(len(M), dtype=bool)
    for i in range(M.shape[-1]):
        nonzero = M[:, i:, i] != 0
        ok &= nonzero.any(axis=1)
        j = i + nonzero.argmax(axis=1)
        M[at, i], M[at, j] = M[at, j], M[at, i]
        M[:, i + 1 :] = (M[:, i + 1 :] * M[:, i, i, None, None] - M[:, i + 1 :, i, None] * M[:, None, i]) % p
    return ok


def _irreducible(C: np.ndarray, p: int) -> np.ndarray:
    """The positions in the stack C whose moduli pass Ben-Or's test, M_u
    nonsingular for u = x^(p^d) - x, 1 <= d <= f/2, ascending; a candidate
    that fails a round is dropped before the next."""
    f = C.shape[-1]
    alive, power = np.arange(len(C)), C
    for _ in range(f // 2):
        power = _power(power, p, p)  # C^(p^d), whose row 0 is x^(p^d)
        passed = _nonsingular(_times(power[:, 0] - np.eye(f, dtype=np.int64)[1], C[alive], p), p)
        alive, power = alive[passed], power[passed]
    return alive


def _least_key(lo: int, hi: int, passing) -> int:
    """The least key in [lo, hi) that passes, testing SEARCH_BLOCK keys at a
    time: ``passing(keys)`` gives the positions of the keys that pass,
    ascending."""
    for start in range(lo, hi, SEARCH_BLOCK):
        keys = np.arange(start, min(start + SEARCH_BLOCK, hi), dtype=np.int64)
        hits = passing(keys)
        if len(hits):
            return int(keys[hits[0]])
    raise CrossCheckFailed("no key in [%d, %d) passes" % (lo, hi))


# -- the field ----------------------------------------------------------------


class FqField:
    """GF(p^f) with exp/log/Zech tables.  Use :func:`field_create`."""

    def __init__(self, p: int, f: int):
        if f < 1 or p < 2:
            raise ValueError("need prime p and f >= 1")
        q = 1
        for _ in range(f):  # at most log2(FIELD_SIZE_CAP) + 1 steps, as p >= 2
            q *= p
            if q > FIELD_SIZE_CAP:
                raise CapExceeded("field order q = %d^%d exceeds cap %d" % (p, f, FIELD_SIZE_CAP))
        if not is_prime(p):
            raise ValueError("need prime p and f >= 1")
        self.p = p
        self.f = f
        self.q = q

        def moduli(keys):
            return np.column_stack([_digits(keys, p, f), np.ones(len(keys), dtype=np.int64)])

        def irreducible(keys):
            return _irreducible(_companion(moduli(keys), p), p)

        m = moduli([_least_key(p ** (f - 1) if f > 1 else 0, q, irreducible)])
        self.modulus = m[0].tolist()
        C = _companion(m, p)[0]
        one = np.eye(f, dtype=np.int64)[0]
        exponents = [(q - 1) // r for r in prime_factors(q - 1)]

        def primitive(keys):
            lam, alive = _times(_digits(keys, p, f), C, p), np.arange(len(keys))
            for e in exponents:
                alive = alive[(_power(lam[alive], e, p)[:, 0] != one).any(axis=1)]
            return alive

        c = _digits([_least_key(1, q, primitive)], p, f)
        self.gen_coeffs = tuple(c[0].tolist())
        self._build_tables(_times(c, C, p)[0])

    def _build_tables(self, lam: np.ndarray) -> None:
        p, f, q = self.p, self.f, self.q
        # rows[k] = lambda^k, filled by doubling: step = M_lambda^n
        rows = np.empty((q - 1, f), dtype=np.int64)
        rows[0] = np.eye(f, dtype=np.int64)[0]
        n, step = 1, lam
        while n < q - 1:
            k = min(n, q - 1 - n)
            np.matmul(rows[:k], step, out=rows[n : n + k])
            rows[n : n + k] %= p
            step = step @ step % p
            n += k
        exp = rows @ p ** np.arange(f, dtype=np.int64)
        del rows
        log = np.full(q, -1, dtype=np.intc)
        log[exp] = np.arange(q - 1)
        zech = log[exp - exp % p + (exp + 1) % p]  # log(1 + lambda^k), -1 when it is zero
        self._exp = array("i", exp.astype(np.intc).tobytes())  # log -> packed value
        self._log = array("i", log.tobytes())  # packed value -> log, -1 for zero
        self._zech = array("i", zech.tobytes())
        self._log_minus_one = (q - 1) // 2 if p != 2 else 0

    def __repr__(self) -> str:
        return "FqField(p=%d, f=%d)" % (self.p, self.f)


@lru_cache(maxsize=None)
def field_create(p: int, f: int) -> FqField:
    """The deterministic GF(p^f) (cached, so field identity is usable)."""
    return FqField(p, f)


def _integer_root(q: int, f: int) -> int:
    """The largest r with r^f <= q, for q >= 1, by Newton's method on
    integers from an r above the root."""
    r = 1 << -(-q.bit_length() // f)
    while True:
        s = ((f - 1) * r + q // r ** (f - 1)) // f
        if s >= r:
            return r
        r = s


def split_prime_power(q: int) -> tuple[int, int]:
    """Write q = p^f with p prime, or raise ValueError.

    f is the largest exponent with q a perfect f-th power, found by integer
    roots: q is a prime power exactly when that root is prime.  The root
    meets :func:`is_prime`, so a q that is no perfect power above
    ``MILLER_RABIN_BOUND`` raises :class:`CapExceeded` at once."""
    if q < 2:
        raise ValueError("%d is not a prime power" % q)
    f = next(f for f in range(q.bit_length(), 0, -1) if _integer_root(q, f) ** f == q)
    p = _integer_root(q, f)
    if not is_prime(p):
        raise ValueError("%d is not a prime power" % q)
    return p, f


def field_from_order(q: int) -> FqField:
    """GF(q) from a prime power q."""
    p, f = split_prime_power(q)
    return field_create(p, f)


# -- the log-array form ----------------------------------------------------------

LOG_ZERO = -1


def as_logs(x) -> np.ndarray:
    """x as an int64 array of logs (LOG_ZERO for zero)."""
    return np.asarray(x, dtype=np.int64)


def log_mul(F: FqField, x, y) -> np.ndarray:
    x, y = as_logs(x), as_logs(y)
    return np.where((x < 0) | (y < 0), LOG_ZERO, (x + y) % (F.q - 1))


def log_div(F: FqField, x, y) -> np.ndarray:
    """x / y; raises ZeroDivisionError if any y is zero."""
    x, y = as_logs(x), as_logs(y)
    if (y < 0).any():
        raise ZeroDivisionError("division by field zero")
    return np.where(x < 0, LOG_ZERO, (x - y) % (F.q - 1))


def log_add(F: FqField, x, y) -> np.ndarray:
    x, y = as_logs(x), as_logs(y)
    m = F.q - 1
    z = np.frombuffer(F._zech, dtype=np.intc)[(y - x) % m]  # log(1 + lambda^(y - x)), -1 for zero
    total = np.where(z < 0, LOG_ZERO, (x + z) % m)
    return np.where(x < 0, y, np.where(y < 0, x, total))


def log_neg(F: FqField, x) -> np.ndarray:
    x = as_logs(x)
    return np.where(x < 0, LOG_ZERO, (x + F._log_minus_one) % (F.q - 1))


def log_sub(F: FqField, x, y) -> np.ndarray:
    return log_add(F, x, log_neg(F, y))


def log_pow(F: FqField, x, k: int) -> np.ndarray:
    """x^k for an integer k; raises ZeroDivisionError for zero to a negative power."""
    x = as_logs(x)
    zero = x < 0
    if k < 0 and zero.any():
        raise ZeroDivisionError("negative power of field zero")
    m = F.q - 1
    return np.where(zero, LOG_ZERO if k else 0, x * (k % m) % m)


def log_of_packed(F: FqField, n) -> np.ndarray:
    """The log of each packed value; raises ValueError outside [0, q)."""
    n = as_logs(n)
    bad = (n < 0) | (n >= F.q)
    if bad.any():
        raise ValueError("packed value %d out of range" % n[bad].flat[0])
    return np.frombuffer(F._log, dtype=np.intc)[n].astype(np.int64)


# -- predicates and counts -------------------------------------------------------


def is_square(F: FqField, x) -> np.ndarray:
    """Whether each x is a square: zero, and the even logs for odd q; for
    even q everything is."""
    x = as_logs(x)
    if F.p == 2:
        return np.ones(x.shape, dtype=bool)
    return (x < 0) | (x % 2 == 0)


def in_proper_subfield(F: FqField, x) -> np.ndarray:
    """Whether each x lies in a proper subfield of F.

    The defining test is x^(p^k) = x for some 0 < k < f; it suffices to
    check the proper divisors k of f, because the fixed field of
    Frobenius^k is GF(p^gcd(k,f)).  So lambda^L lies in one exactly when
    L (p^k - 1) = 0 mod q - 1 for such a k, and zero lies in every one.
    """
    x = as_logs(x)
    out = np.zeros(x.shape, dtype=bool)
    if F.f == 1:
        return out
    for k in range(1, F.f):
        if F.f % k == 0:
            out |= x * (F.p**k - 1) % (F.q - 1) == 0
    return out | (x < 0)


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


def embed_into_square_extension(F: FqField, x, F2: FqField) -> np.ndarray:
    """The multiplicative embedding GF(q) -> GF(q^2) given by log |-> log*(q+1).

    It maps the chosen generator of GF(q) onto a generator of the unique
    order-q subfield of GF(q^2); homomorphy of multiplication is exact, and
    the image is the full subfield.
    """
    if F2.p != F.p or F2.f != 2 * F.f:
        raise ValueError("target field is not the square extension")
    x = as_logs(x)
    return np.where(x < 0, LOG_ZERO, x * (F.q + 1) % (F2.q - 1))


# -- Euler totient ---------------------------------------------------------------


def euler_phi(n: int) -> int:
    """Exact totient by trial division."""
    if n < 1:
        raise ValueError("phi needs n >= 1")
    out = n
    for r in prime_factors(n):
        out = out // r * (r - 1)
    return out


def _primes_upto(n: int) -> np.ndarray:
    """The primes p <= n, by one boolean sieve."""
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def prime_powers(lo: int, hi: int) -> list[tuple[int, int, int]]:
    """Every prime power lo <= q < hi, as (p, f, q) with q = p^f, in ascending
    q: the powers p, p^2, ... of each prime p < hi from one sieve."""
    out = []
    for p in map(int, _primes_upto(max(hi - 1, 1))):
        f, q = 1, p
        while q < hi:
            if q >= lo:
                out.append((p, f, q))
            f, q = f + 1, q * p
    return sorted(out, key=lambda pfq: pfq[2])


def _phi_moduli(limit: int) -> np.ndarray:
    """The sieve's moduli for numbers up to limit: a (3, M) int64 table whose
    columns are (p^k, factor, p) for every prime power p^k <= limit with
    p <= isqrt(limit), where the factor is p - 1 at k = 1 and p above."""
    rows = []
    for p in map(int, _primes_upto(math.isqrt(limit))):
        power, factor = p, p - 1
        while power <= limit:
            rows.append((power, factor, p))
            power, factor = power * p, p
    return np.array(sorted(rows), dtype=np.int64).reshape(-1, 3).T


def _phi_passes(lo: int, hi: int, moduli: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (phi, smooth) for 1 <= lo <= n < hi, given the moduli of
    :func:`_phi_moduli` for some limit >= hi - 1: smooth is the part of n
    made of primes up to isqrt(limit), and phi is its totient.  Both are
    int32 when every n is below 2**31, and int64 above.

    Each modulus p^k multiplies its multiples, phi by its factor and smooth
    by p: those up to isqrt(hi - lo) by one strided slice each, the rest in
    one scatter pass over all their multiples.  The scatter uses
    ``np.multiply.at``, which applies every repeat of an index; a fancy
    assignment would keep only one of the moduli dividing n = 257 * 263."""
    if lo < 1:
        raise ValueError("the sieve passes need lo >= 1")
    dtype = np.int32 if hi <= 2**31 else np.int64  # phi(n) and smooth divide n < hi
    phi = np.ones(hi - lo, dtype=dtype)
    smooth = np.ones(hi - lo, dtype=dtype)
    strided = moduli[0] <= math.isqrt(hi - lo)
    for m, f, p in moduli[:, strided].T.tolist():
        phi[-lo % m :: m] *= f
        smooth[-lo % m :: m] *= p
    sparse = moduli[:, ~strided]
    first = -lo % sparse[0]
    count = (hi - lo - 1 - first) // sparse[0] + 1  # never negative, as first < p^k
    keep = count > 0
    (modulus, factor, prime), first, count = sparse[:, keep], first[keep], count[keep]
    factor, prime = factor.astype(dtype), prime.astype(dtype)  # ufunc.at is slow when it casts
    # the offsets first, first + m, ... of each modulus m, as a running sum of
    # steps m whose first step for each modulus jumps from the last offset of
    # the one before
    offset = np.repeat(modulus, count)
    last = first + modulus * (count - 1)
    offset[np.cumsum(count) - count] = first - np.concatenate(([0], last[:-1]))
    np.cumsum(offset, out=offset)
    np.multiply.at(phi, offset, np.repeat(factor, count))
    np.multiply.at(smooth, offset, np.repeat(prime, count))
    return phi, smooth


def _phi_block(lo: int, hi: int, moduli: np.ndarray) -> np.ndarray:
    """int64 array of phi(n) for 0 <= lo <= n < hi <= 2**53 (phi(0) = 0),
    given the moduli of :func:`_phi_moduli` for some limit >= hi - 1.

    After :func:`_phi_passes`, the cofactor n / smooth is 1 or the one prime
    factor of n above isqrt(limit), which multiplies phi by cofactor - 1.
    The cofactor is computed in float64, in place in the array of n: the
    division is exact because smooth divides n and n < 2**53."""
    if hi > 2**53:
        raise ValueError("the float cofactor is exact only below 2**53")
    if lo == 0:
        return np.concatenate(([0], _phi_block(1, hi, moduli)))
    phi, smooth = _phi_passes(lo, hi, moduli)
    cofactor = np.arange(lo, hi, dtype=np.float64)
    cofactor /= smooth
    del smooth
    cofactor -= 1
    np.maximum(cofactor, 1, out=cofactor)
    np.multiply(phi, cofactor, out=phi, casting="unsafe")
    return phi.astype(np.int64, copy=False)


def phi_sieve(limit: int) -> np.ndarray:
    """numpy array phi[0..limit] (phi[0] = 0), as one block."""
    return _phi_block(0, limit + 1, _phi_moduli(limit))


def _check_block(lo: int, hi: int, phi: np.ndarray) -> None:
    """Compare the block's totients at its first and last number and at its
    largest prime, whose totient takes the cofactor step, with trial
    division."""
    largest_prime = next((n for n in range(hi - 1, lo - 1, -1) if is_prime(n)), lo)
    for n in sorted({lo, hi - 1, largest_prime}):
        exact = euler_phi(n)
        if phi[n - lo] != exact:
            raise CrossCheckFailed("sieved phi(%d) = %d, trial division gives %d" % (n, phi[n - lo], exact))


def _denominator(a: float, n):
    """D(n) = a L + 3 / L with L = log log n, in float64."""
    ll = np.log(np.log(n))
    return a * ll + 3.0 / ll


def euler_bound_scan(limit: int) -> list[int]:
    """All n in [3, limit] violating the certified bound (expected: none).

    The exact integer totient is compared against a deflated denominator: the
    float denominator D carries at most a few ulp of error, so
    phi * D * (1 - 2^-40) > n can only fail when the true inequality is
    violated or razor-thin (it never is for n >= 3).  The range is walked in
    blocks of PHI_BLOCK numbers, each checked by :func:`_check_block`.

    D(n) = a L + 3 / L, a = e^gamma, increases with L = log log n once
    L >= sqrt(3 / a), that is from the least integer n0 above
    exp(exp(sqrt(3 / a))) on (n0 = 39).  So D(s) <= D(n) for every n >= s
    in a block from lo, s = max(lo, n0), and phi * D(s) * (1 - 2^-39), with
    twice the deflation, passes only n that the check above passes too.
    That screen takes one scalar D per block; the check runs on what it
    does not pass and on every n < n0.
    """
    a = math.exp(EULER_MASCHERONI)
    n0 = math.floor(math.exp(math.exp(math.sqrt(3.0 / a)))) + 1
    moduli = _phi_moduli(limit)
    bad = []
    for lo in range(3, limit + 1, PHI_BLOCK):
        hi = min(lo + PHI_BLOCK, limit + 1)
        phi = _phi_block(lo, hi, moduli)
        _check_block(lo, hi, phi)
        n = np.arange(lo, hi, dtype=np.float64)
        passed = phi * (_denominator(a, max(lo, n0)) * (1.0 - 2.0**-39)) > n
        passed[: max(n0 - lo, 0)] = False
        rest = np.flatnonzero(~passed)
        lhs = phi[rest] * (_denominator(a, n[rest]) * (1.0 - 2.0**-40))
        bad += (rest[lhs <= n[rest]] + lo).tolist()
        del phi, n, passed, rest, lhs  # before the next block is sieved
    return bad
