"""Closed-form base criteria for the two projective-pair families.

Everything in this module is pure field arithmetic: deciding whether a pair
of points is a base pair, transporting neighbour labels along an edge,
producing common-neighbour witnesses, building explicit cliques, and the
exact counting formulas.  Each predicate is independently checkable against
the brute-force permutation engine at small q, and the witness constructors
fail closed: any scalar that does not satisfy the conditions it certifies
raises instead of being returned.

Conventions.  A projective point of the line carries the code of
:mod:`saxl.actions`: LINE_INF = -2 for <e2>, the point with homogeneous
coordinates (0, 1), and the log of t (LOG_ZERO = -1 for zero) for the point
(1, t); the point's carrier position there is code + 2.  A pair-point is a
2-tuple of codes, with the fixed point alpha = (LINE_INF, LOG_ZERO).
Unitary pair-points are labelled by a nonzero scalar b of GF(q^2) that is
not isotropic (b^(q+1) != -1), under the canonical log of
:func:`saxl.actions.c3_canonical_logs`, and alpha by LOG_ZERO.

Array form.  Each criterion and witness constructor is written once, over
the log arrays of :mod:`saxl.gf`: int64 discrete logs with LOG_ZERO = -1
for zero.  Arguments broadcast, so one call decides a whole row of labels,
and every re-check runs on the whole array: one failing entry raises.  The
explicit cliques come back as the labels of :mod:`saxl.actions`: sorted
code pairs, and LOG_ZERO followed by canonical logs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

from .actions import LINE_INF, c3_canonical_logs, c3_isotropic, c3_label_logs
from .gf import (
    LOG_ZERO,
    FqField,
    as_logs,
    count_nonsquare_nonsubfield,
    euler_phi,
    in_proper_subfield,
    is_prime,
    is_square,
    log_add,
    log_div,
    log_mul,
    log_neg,
    log_of_packed,
    log_pow,
    log_sub,
    prime_powers,
    split_prime_power,
)
from .group import CrossCheckFailed

C3_VARIANTS = ("G0", "PSigmaL")
CLOSED_FORM_KINDS = ("Dq_minus_1", "Dq_plus_1", "PGL_Dq_minus_1")


def _int_log(F: FqField, n: int) -> int:
    """The log of the prime-field element n."""
    return int(log_of_packed(F, n % F.p))


# -- projective-pair (C2) criteria -------------------------------------------------


def _check_c2_field(F: FqField) -> None:
    if F.p == 2:
        raise ValueError("the pair criterion needs odd q")


def c2_condition_iii(F: FqField, b, c) -> np.ndarray:
    """The subfield condition: b^(p^k - 1) != c^(p^k - 1) for all 0 < k < f.

    Checked literally over every k; equivalently the ratio b/c avoids every
    proper subfield, which :func:`saxl.gf.in_proper_subfield` tests.
    """
    ok = np.ones(np.broadcast_shapes(np.shape(b), np.shape(c)), dtype=bool)
    for k in range(1, F.f):
        e = F.p**k - 1
        ok &= log_pow(F, b, e) != log_pow(F, c, e)
    return ok


def c2_base_psigma(F: FqField, b, c) -> np.ndarray:
    """Whether {alpha, {b, c}} is a base pair for the full field-automorphism
    extension acting on projective pairs (q odd).

    True exactly when (i) both scalars are nonzero, (ii) -b/c is a non-square,
    and (iii) the subfield condition holds.
    """
    _check_c2_field(F)
    b, c = np.broadcast_arrays(as_logs(b), as_logs(c))
    if (b == c).any():
        raise ValueError("pair labels must be distinct")
    nonzero = (b >= 0) & (c >= 0)
    b, c = np.where(nonzero, b, 0), np.where(nonzero, c, 0)
    nonsquare = ~is_square(F, log_neg(F, log_div(F, b, c)))
    return nonzero & nonsquare & c2_condition_iii(F, b, c)


def _anchor_image(F: FqField, P, R, t) -> np.ndarray:
    """Images of the points t, none of them P or R, under the
    fractional-linear map over GF(q) sending P to <e2> and R to 0:
    t |-> (t - R)/(t - P), where t - <e2> reads 1, and <e2> |-> 1."""
    inf = t == LINE_INF
    finite = np.where(inf, 0, t)

    def minus(u):
        return np.where(u == LINE_INF, 0, log_sub(F, finite, np.where(u == LINE_INF, 0, u)))

    num, den = minus(R), minus(P)
    # disjointness keeps every image finite and nonzero
    if (~inf & ((num < 0) | (den < 0))).any():
        raise CrossCheckFailed("disjoint pair transported onto the anchor")
    return np.where(inf, 0, log_div(F, num, np.where(inf, 0, den)))


def c2_pair_base(F: FqField, beta, gamma) -> np.ndarray:
    """Whether {beta, gamma} is a base for the full field-automorphism
    extension, for arbitrary distinct pair-points, each a pair of point
    codes.

    Pairs sharing a projective point are bases exactly when f = 1 (any
    stabilising element must fix three points, which kills the fractional
    -linear part but not a field automorphism twisted by a square scale).
    Disjoint pairs are moved by a fractional-linear map taking beta onto
    alpha; the map normalises the extension, so the verdict is the
    alpha-criterion applied to the transported labels of gamma.
    """
    _check_c2_field(F)
    P, R, X, Y = np.broadcast_arrays(*map(as_logs, (*beta, *gamma)))
    if ((P == R) | (X == Y)).any():
        raise ValueError("a pair-point needs two distinct projective labels")
    if (((X == P) & (Y == R)) | ((X == R) & (Y == P))).any():
        raise ValueError("the two pair-points must be distinct")
    apart = ~((X == P) | (X == R) | (Y == P) | (Y == R))
    out = np.full(P.shape, F.f == 1)
    P, R = P[apart], R[apart]
    out[apart] = c2_base_psigma(F, _anchor_image(F, P, R, X[apart]), _anchor_image(F, P, R, Y[apart]))
    return out


def c2_neighbour_transfer(F: FqField, b, c, d, e) -> tuple[np.ndarray, np.ndarray]:
    """Transport of alpha-neighbour labels across the edge {alpha, {b, c}}.

    Applies t |-> (b(c - b) + tc) / (c - b + t) to d and e; this is the label
    action of a group element carrying alpha onto {b, c}, so {{b, c}, gamma}
    is a base exactly when gamma is the image of a valid alpha-neighbour
    pair.  Undefined at t = b - c (the pole); d = e is allowed and yields a
    degenerate output.
    """
    b, c, d, e = map(as_logs, (b, c, d, e))
    if ((b < 0) | (c < 0)).any():
        raise ValueError("pair scalars must be nonzero")
    if (b == c).any():
        raise ValueError("pair scalars must be distinct")
    pole = log_sub(F, b, c)
    if ((d == pole) | (e == pole)).any():
        raise ValueError("transfer undefined at t = b - c")
    c_minus_b = log_sub(F, c, b)

    def T(t):
        return log_div(F, log_add(F, log_mul(F, b, c_minus_b), log_mul(F, t, c)), log_add(F, c_minus_b, t))

    return T(d), T(e)


def _c2_witness_scalars(F: FqField, b, c) -> tuple[np.ndarray, np.ndarray]:
    """The closed form d = 2b(b - c)/(b + c), e = (b^2 - c^2)/(2c)."""
    two = _int_log(F, 2)
    d = log_div(F, log_mul(F, log_mul(F, two, b), log_sub(F, b, c)), log_add(F, b, c))
    e = log_div(F, log_sub(F, log_mul(F, b, b), log_mul(F, c, c)), log_mul(F, two, c))
    return d, e


def c2_common_neighbour_witness(F: FqField, b, c) -> tuple[np.ndarray, np.ndarray]:
    """Scalars (d, e) certifying that gamma = (-b, -c) is a common neighbour
    of alpha and beta = {b, c}.

    d = 2b(b - c)/(b + c) and e = (b^2 - c^2)/(2c) form an alpha-neighbour
    pair whose transfer across {alpha, beta} lands on gamma.  Requires that
    every (b, c) itself is an alpha-neighbour; every claimed property of the
    output is re-checked and a failure raises.
    """
    b, c = np.broadcast_arrays(as_logs(b), as_logs(c))
    if not c2_base_psigma(F, b, c).all():
        raise ValueError("(b, c) is not an alpha-neighbour")
    if (log_add(F, b, c) < 0).any():
        # cannot happen: c = -b makes -b/c = 1 a square
        raise CrossCheckFailed("witness needs b + c != 0")
    d, e = _c2_witness_scalars(F, b, c)
    pole = log_sub(F, b, c)
    if ((d == pole) | (e == pole)).any():
        raise CrossCheckFailed("witness scalars collide with the transfer pole")
    if (d == e).any():
        raise CrossCheckFailed("witness pair is degenerate")
    if not c2_base_psigma(F, d, e).all():
        raise CrossCheckFailed("witness pair fails the alpha-neighbour conditions")
    # the exact identity forcing condition (ii) for (d, e):
    # -d/e = -4 / (b/c + c/b + 2), the same square class as -b/c
    two, four = _int_log(F, 2), _int_log(F, 4)
    sum_of_ratios = log_add(F, log_add(F, log_div(F, b, c), log_div(F, c, b)), two)
    if (log_neg(F, log_div(F, d, e)) != log_neg(F, log_div(F, four, sum_of_ratios))).any():
        raise CrossCheckFailed("witness identity -d/e = -4/(b/c + c/b + 2) fails")
    x, y = c2_neighbour_transfer(F, b, c, d, e)
    nb, nc = log_neg(F, b), log_neg(F, c)
    if not (((x == nb) & (y == nc)) | ((x == nc) & (y == nb))).all():
        raise CrossCheckFailed("witness transfer does not reach (-b, -c)")
    if not c2_base_psigma(F, nb, nc).all():
        raise CrossCheckFailed("gamma fails the alpha-neighbour conditions")
    return d, e


def c2_counts(F: FqField) -> tuple[int, int]:
    """Exact valency and regular-suborbit count of the full field-automorphism
    extension on projective pairs, for q odd and f >= 2.

    valency = m(q - 1)/2 and r = m/(2f), where m counts the non-squares lying
    in no proper subfield.  For f = 1 the pairs meeting alpha contribute
    2(q - 1) extra edges and the formula does not apply; those cases are
    served by the brute-force engine instead.
    """
    _check_c2_field(F)
    if F.f < 2:
        raise ValueError("counts need f >= 2 (at f = 1 meeting pairs add edges)")
    m = count_nonsquare_nonsubfield(F)
    if m % (2 * F.f):
        raise CrossCheckFailed("non-square count %d is not a multiple of 2f" % m)
    return m * (F.q - 1) // 2, m // (2 * F.f)


# -- unitary-pair (C3) criteria ----------------------------------------------------


def _c3_split(F2: FqField) -> int:
    """The base-field order q of the square extension GF(q^2), odd case."""
    if F2.f % 2:
        raise ValueError("need a square extension GF(q^2)")
    if F2.p == 2:
        raise ValueError("the unitary criterion needs odd q")
    return F2.p ** (F2.f // 2)


def _require_c3_scalars(F2: FqField, q: int, b) -> np.ndarray:
    """b as logs, refusing zero and the isotropic b^(q+1) = -1."""
    b = as_logs(b)
    if (b < 0).any():
        raise ValueError("scalar label must be nonzero")
    if c3_isotropic(F2, q, b).any():
        raise ValueError("b^(q+1) = -1: the vector is isotropic, not a point")
    return b


def c3_base(F2: FqField, variant: str, b) -> np.ndarray:
    """Whether {alpha, omega_b} is a base pair in the unitary-pair action.

    variant "G0" (the socle): true exactly when b is a non-square in GF(q^2).
    variant "PSigmaL" (full field-automorphism extension): true exactly when
    b^((q+1)(p^k-1)/2) != 1 for every 0 < k < 2f.  The extension verdict
    implies the socle one (checked): at k = f the exponent is (q^2-1)/2.
    """
    q = _c3_split(F2)
    if variant not in C3_VARIANTS:
        raise ValueError("unknown variant %r" % (variant,))
    b = _require_c3_scalars(F2, q, b)
    socle = ~is_square(F2, b)
    if variant == "G0":
        return socle
    m = F2.q - 1
    L = c3_canonical_logs(F2, q, b)
    extension = np.ones(b.shape, dtype=bool)
    for k in range(1, F2.f):
        extension &= L * ((q + 1) * (F2.p**k - 1) // 2 % m) % m != 0
    if (extension & ~socle).any():
        raise CrossCheckFailed("extension base criterion passed a square scalar")
    return extension


def _c3_a1(F2: FqField, q: int, b) -> np.ndarray:
    """The least-log scalar with a1^(q+1) = 1 + b^(q+1).

    The right side lies in the base subfield (its log is a multiple of q + 1)
    and is nonzero since b is a point label, so the congruence
    (q+1) x = log(1 + b^(q+1)) mod (q^2 - 1) is solvable; the least solution
    is the reduction of log/(q+1) modulo q - 1.
    """
    rhs = log_add(F2, 0, log_pow(F2, b, q + 1))
    if (rhs < 0).any():
        raise CrossCheckFailed("1 + b^(q+1) vanished for a point label")
    if (rhs % (q + 1)).any():
        raise CrossCheckFailed("norm value off the base-subfield grid")
    return rhs // (q + 1) % (q - 1)


def _c3_transfer_scale(F2: FqField, q: int, b) -> tuple[np.ndarray, np.ndarray]:
    """(a1, A) with A = a1^(-2) (b + b^(-q)), the transfer scale at omega_b."""
    a1 = _c3_a1(F2, q, b)
    A = log_mul(F2, log_pow(F2, a1, -2), log_add(F2, b, log_pow(F2, b, -q)))
    if (A < 0).any():
        # b + b^(-q) = 0 would force b^(q+1) = -1
        raise CrossCheckFailed("transfer scale vanished for a point label")
    return a1, A


def _c3_pull_back(F2: FqField, q: int, b, A, c) -> np.ndarray:
    """d = A(c - b)/(c + b^(-q)): a socle element carrying alpha onto
    omega_b pulls omega_c back to omega_d."""
    return log_div(F2, log_mul(F2, A, log_sub(F2, c, b)), log_add(F2, c, log_pow(F2, b, -q)))


def _c3_push_forward(F2: FqField, q: int, b, A, d) -> np.ndarray:
    """(bA + b^(-q) d)/(A - d): the scalar of the image of omega_d under the
    same element, which must be omega_c again."""
    return log_div(F2, log_add(F2, log_mul(F2, b, A), log_mul(F2, log_pow(F2, b, -q), d)), log_sub(F2, A, d))


def c3_pair_base(F2: FqField, variant: str, b, c) -> np.ndarray:
    """Whether {omega_b, omega_c} is a base pair, by pure arithmetic.

    A group element of the socle carries alpha onto omega_b and pulls omega_c
    back to omega_d with d = A(c - b)/(c + b^(-q)), A = a1^(-2)(b + b^(-q)).
    The verdict is the alpha-criterion on d; the transfer image is re-checked
    before trusting d.
    """
    q = _c3_split(F2)
    b, c = _require_c3_scalars(F2, q, b), _require_c3_scalars(F2, q, c)
    if (c3_canonical_logs(F2, q, b) == c3_canonical_logs(F2, q, c)).any():
        raise ValueError("the two points must be distinct")
    _, A = _c3_transfer_scale(F2, q, b)
    d = _c3_pull_back(F2, q, b, A, c)
    excluded = log_mul(F2, log_neg(F2, log_pow(F2, b, q + 1)), A)
    if ((d < 0) | (d == A) | (d == excluded)).any():
        # excluded values would force c = b, c = 0, or b isotropic
        raise CrossCheckFailed("transfer scalar hit an excluded value")
    if c3_isotropic(F2, q, d).any():
        raise CrossCheckFailed("transfer scalar is isotropic")
    img = _c3_push_forward(F2, q, b, A, d)
    if ((img != c) & (img != log_neg(F2, log_pow(F2, c, -q)))).any():
        raise CrossCheckFailed("transfer image misses the target point")
    return c3_base(F2, variant, c3_canonical_logs(F2, q, d))


def _c3_half_norm(F2: FqField, q: int, b) -> np.ndarray:
    """2/(s - 1/s) with s = b^((q+1)/2): up to sign, the half-norm
    d^((q+1)/2) of the witness scalar at omega_b."""
    s = log_pow(F2, b, (q + 1) // 2)
    return log_div(F2, _int_log(F2, 2), log_sub(F2, s, log_pow(F2, s, -1)))


def c3_common_neighbour_witness(F2: FqField, b) -> tuple[np.ndarray, np.ndarray]:
    """Scalars (a1, d) certifying that omega_{-b} is a common neighbour of
    alpha and omega_b: d witnesses the edge {omega_b, omega_{-b}} under the
    transfer at omega_b.

    Requires every {alpha, omega_b} to be a base for the full extension; all
    certified properties are re-checked, including the half-norm identity
    d^((q+1)/2) = +-2/(s - 1/s) with s = b^((q+1)/2).
    """
    q = _c3_split(F2)
    b = _require_c3_scalars(F2, q, b)
    if not c3_base(F2, "PSigmaL", b).all():
        raise ValueError("{alpha, omega_b} is not an extension base")
    c = log_neg(F2, b)
    a1, A = _c3_transfer_scale(F2, q, b)
    denom = log_sub(F2, b, log_pow(F2, b, -q))
    if (denom < 0).any():
        # b^(q+1) = 1 fails the extension criterion, so cannot reach here
        raise CrossCheckFailed("witness denominator vanished")
    d = log_div(F2, log_mul(F2, log_mul(F2, _int_log(F2, 2), b), A), denom)
    if not c3_base(F2, "PSigmaL", c).all():
        raise CrossCheckFailed("negated scalar fails the alpha-criterion")
    if (d != _c3_pull_back(F2, q, b, A, c)).any():
        raise CrossCheckFailed("closed-form d disagrees with the transfer scalar")
    if not c3_pair_base(F2, "PSigmaL", b, c).all():
        raise CrossCheckFailed("witness pair fails the transfer criterion")
    half_norm = log_pow(F2, d, (q + 1) // 2)
    predicted = _c3_half_norm(F2, q, b)
    if ((half_norm != predicted) & (half_norm != log_neg(F2, predicted))).any():
        raise CrossCheckFailed("half-norm identity fails")
    return a1, d


def c3_clique(F2: FqField, b: int) -> list:
    """A verified clique through alpha for the socle action.

    Takes the log b of a non-square with b^(q+1) != -1 and returns LOG_ZERO
    (alpha) followed by the canonical logs of the points omega_{bx}, for x
    in the embedded base-subfield units (the at most two isotropic products
    are skipped, and products pair up in the labelling).  The result has at
    least (q-1)/2 points; every edge is re-verified arithmetically before
    returning.
    """
    q = _c3_split(F2)
    _require_c3_scalars(F2, q, b)
    if is_square(F2, b):
        raise ValueError("clique anchor must be a non-square")
    products = (b + (q + 1) * np.arange(q - 1)) % (F2.q - 1)  # b times the embedded units
    scalars = np.unique(c3_canonical_logs(F2, q, products[~c3_isotropic(F2, q, products)]))
    pts = [LOG_ZERO] + scalars.tolist()
    if len(pts) < (q - 1) // 2:
        raise CrossCheckFailed("clique fell below the guaranteed size")
    if not c3_base(F2, "G0", scalars).all():
        raise CrossCheckFailed("alpha-edge fails inside the clique")
    for i in range(len(scalars)):
        if not c3_pair_base(F2, "G0", scalars[i], scalars[i + 1 :]).all():
            raise CrossCheckFailed("pair edge fails inside the clique")
    return pts


def c3_regular_count_prime(q: int) -> int:
    """Regular-suborbit count of the socle unitary-pair action at odd prime q:
    (q - l)/4 with q = l mod 4.  Exact for q >= 11; cross-check smaller q
    against the engine."""
    if q % 2 == 0 or not is_prime(q) or q < 5:
        raise ValueError("need an odd prime q >= 5")
    return (q - q % 4) // 4


# -- exact closed forms ------------------------------------------------------------


def remark_q_closed_forms(q: int, kind: str) -> Fraction:
    """Exact non-base proportion Q for the three closed-form families.

    "Dq_minus_1":     socle on projective pairs, odd q:
                      1 - (q-1)(q+a) / (2q(q+1)), a = 7 if q = 1 mod 4 else 5.
    "Dq_plus_1":      socle on unitary pairs, odd q:
                      1 - (q+1)(q-b) / (2q(q-1)), b = 1 if q = 1 mod 4 else 3.
    "PGL_Dq_minus_1": full projective group on pairs, q >= 4:
                      1 - 4(q-1) / (q(q+1)).
    """
    split_prime_power(q)
    if kind == "PGL_Dq_minus_1":
        if q < 4:
            raise ValueError("the projective-group form needs q >= 4")
        return 1 - Fraction(4 * (q - 1), q * (q + 1))
    if kind not in CLOSED_FORM_KINDS:
        raise ValueError("unknown closed form %r" % (kind,))
    if q % 2 == 0 or q < 5:
        raise ValueError("the dihedral closed forms need odd q >= 5")
    if kind == "Dq_minus_1":
        a = 7 if q % 4 == 1 else 5
        return 1 - Fraction((q - 1) * (q + a), 2 * q * (q + 1))
    bb = 1 if q % 4 == 1 else 3
    return 1 - Fraction((q + 1) * (q - bb), 2 * q * (q - 1))


# -- explicit 5-cliques ------------------------------------------------------------


def c2_base_candidates(F: FqField, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``limit`` alpha-neighbour pairs (b, c) = (ct, c), as two log
    arrays, in deterministic order: the ratio t runs over the logs with
    t != 1, -t a non-square and t in no proper subfield, then c over all
    logs.  Ratios are scanned ``limit`` logs at a time, so memory follows
    ``limit``, not q."""
    m = F.q - 1
    wanted = -(-limit // m)  # ratios that give ``limit`` pairs
    ratios = np.empty(0, dtype=np.int64)
    for lo in range(1, m, limit):  # log 0 is t = 1
        t = np.arange(lo, min(lo + limit, m), dtype=np.int64)
        t = t[~is_square(F, log_neg(F, t)) & ~in_proper_subfield(F, t)]
        ratios = np.concatenate([ratios, t[: wanted - len(ratios)]])
        if len(ratios) == wanted:
            break
    k = np.arange(min(limit, len(ratios) * m), dtype=np.int64)
    c = k % m
    return (c + ratios[k // m]) % m, c


def _distinct(*labels) -> np.ndarray:
    """Whether the labels, broadcast against each other, are distinct in each entry."""
    ranked = np.sort(np.stack(np.broadcast_arrays(*map(as_logs, labels))), axis=0)
    return (ranked[1:] != ranked[:-1]).all(axis=0)


# scan budgets of the 5-clique searches: anchors tried, and candidate pairs
# drawn from c2_base_candidates
_C2_CLIQUE5_ANCHORS = 64
_C2_CLIQUE5_PARTNERS = 4096
_C3_CLIQUE5_ANCHORS = 32
# partners an anchor checks at a time; the scan stops at the first block with a hit
_CLIQUE5_BLOCK = 64
# the six pairs of a 5-clique's four vertices after alpha, as two index rows
_CLIQUE5_PAIRS = tuple(map(list, zip(*combinations(range(4), 2))))


def _c2_clique5_edges(F: FqField, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Whether alpha and the pair-points (B[i], C[i]), i < 4, are pairwise
    adjacent, for each column of the (4, R) arrays B and C: one criterion
    call decides the four alpha-edges, and one the six pair edges."""
    u, v = _CLIQUE5_PAIRS
    return c2_base_psigma(F, B, C).all(axis=0) & c2_pair_base(F, (B[u], C[u]), (B[v], C[v])).all(axis=0)


def _c3_clique5_edges(F2: FqField, V: np.ndarray) -> np.ndarray:
    """Whether alpha and omega_(V[i]), i < 4, are pairwise adjacent in the
    extension's graph, for each column of the (4, R) array V: one criterion
    call decides the four alpha-edges, and one the six pair edges."""
    u, v = _CLIQUE5_PAIRS
    return c3_base(F2, "PSigmaL", V).all(axis=0) & c3_pair_base(F2, "PSigmaL", V[u], V[v]).all(axis=0)


def c2_clique5(F: FqField) -> list:
    """A verified 5-clique in the projective-pair graph of the full
    field-automorphism extension (q odd, f >= 2).

    Shape: alpha, a neighbour pair beta, its negation, and a second such pair
    with its negation; the deterministic scan tries anchors in log order and,
    for each, its partners in order, a block of _CLIQUE5_BLOCK at a time, and
    returns the first partner whose clique passes all ten edge checks:
    [alpha, beta, -beta, beta', -beta'], each the sorted pair of its point
    codes, alpha = (LINE_INF, LOG_ZERO).
    A scan that finds none within its budget returns [].
    """
    _check_c2_field(F)
    if F.f < 2:
        raise ValueError("the scan targets proper extensions (f >= 2)")
    B, C = c2_base_candidates(F, _C2_CLIQUE5_PARTNERS)
    keep = c2_base_psigma(F, B, C)
    B, C = B[keep], C[keep]
    for b, c in zip(B[:_C2_CLIQUE5_ANCHORS].tolist(), C[:_C2_CLIQUE5_ANCHORS].tolist()):
        nb, nc = int(log_neg(F, b)), int(log_neg(F, c))
        for lo in range(0, len(B), _CLIQUE5_BLOCK):
            B2, C2 = B[lo : lo + _CLIQUE5_BLOCK], C[lo : lo + _CLIQUE5_BLOCK]
            nB2, nC2 = log_neg(F, B2), log_neg(F, C2)
            # eight distinct scalars: the partner pair and its negation avoid beta and -beta
            rows = np.flatnonzero(_distinct(b, c, nb, nc, B2, C2, nB2, nC2))
            if not len(rows):
                continue
            B4 = np.stack(np.broadcast_arrays(b, nb, B2[rows], nB2[rows]))
            C4 = np.stack(np.broadcast_arrays(c, nc, C2[rows], nC2[rows]))
            hits = rows[_c2_clique5_edges(F, B4, C4)]
            if len(hits):
                b2, c2 = int(B2[hits[0]]), int(C2[hits[0]])
                verts = [(b, c), (nb, nc), (b2, c2), (int(nB2[hits[0]]), int(nC2[hits[0]]))]
                return [(LINE_INF, LOG_ZERO)] + [tuple(sorted(v)) for v in verts]
    return []


def c3_clique5(F2: FqField) -> list:
    """A verified 5-clique in the unitary-pair graph of the full
    field-automorphism extension: alpha, omega_b, omega_{-b}, omega_c,
    omega_{-c} with all ten edges re-checked arithmetically, as LOG_ZERO
    (alpha) and four canonical logs.  Anchors b are tried in label order
    and, for each, the partners c in order, a block of _CLIQUE5_BLOCK at a
    time, up to the first hit; a scan that finds none within its budget
    returns []."""
    q = _c3_split(F2)
    labels = np.array(c3_label_logs(F2, q), dtype=np.int64)
    cands = labels[c3_base(F2, "PSigmaL", labels)]
    for b in cands[:_C3_CLIQUE5_ANCHORS].tolist():
        nb = int(log_neg(F2, b))
        anchor = [c3_canonical_logs(F2, q, x) for x in (b, nb)]
        for lo in range(0, len(cands), _CLIQUE5_BLOCK):
            part = cands[lo : lo + _CLIQUE5_BLOCK]
            npart = log_neg(F2, part)
            rows = np.flatnonzero(_distinct(*anchor, c3_canonical_logs(F2, q, part), c3_canonical_logs(F2, q, npart)))
            if not len(rows):
                continue
            hits = rows[_c3_clique5_edges(F2, np.stack(np.broadcast_arrays(b, nb, part[rows], npart[rows])))]
            if len(hits):
                c = part[hits[0]]
                return [LOG_ZERO] + c3_canonical_logs(F2, q, [b, nb, c, log_neg(F2, c)]).tolist()
    return []


# -- totient scans -----------------------------------------------------------------


def euler_phi_4f_scan(limit: int) -> tuple[int, list[int]]:
    """Check phi(q - 1) >= 4f over every odd non-prime prime power
    27 < q < limit.  Returns (count checked, violations)."""
    checked, bad = 0, []
    for p, f, q in prime_powers(28, limit):
        if p == 2 or f == 1:
            continue
        checked += 1
        if euler_phi(q - 1) < 4 * f:
            bad.append(q)
    return checked, bad


def c3_valency_bound_scan(limit: int) -> tuple[int, list[int]]:
    """Check phi(q^2 - 1) >= 4f(q + 1) over every odd prime power
    27 < q < limit (at least two regular suborbits for the unitary-pair
    extension).  Returns (count checked, violations)."""
    checked, bad = 0, []
    for p, f, q in prime_powers(28, limit):
        if p == 2:
            continue
        checked += 1
        if euler_phi(q * q - 1) < 4 * f * (q + 1):
            bad.append(q)
    return checked, bad
