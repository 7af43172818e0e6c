"""Closed-form base criteria for the two projective-pair families.

Everything in this module is pure field arithmetic: deciding whether a pair
of points is a base pair, transporting neighbour labels along an edge,
producing common-neighbour witnesses, building explicit cliques, and the
exact counting formulas.  Each predicate is independently checkable against
the brute-force permutation engine at small q, and the witness constructors
fail closed: any scalar that does not satisfy the conditions it certifies
raises instead of being returned.

Conventions.  Projective points of the line are labelled INF (the point with
homogeneous coordinates (0, 1)) or a field element t (the point (1, t)); a
pair-point is a 2-tuple of such labels, with the fixed point alpha = (INF, 0).
Unitary pair-points are labelled by a nonzero scalar b of GF(q^2) with
b^(q+1) != -1, canonicalized as in :mod:`saxl.actions`, or by ALPHA.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .actions import ALPHA, INF, c3_canonical_log, c3_label_logs
from .gf import (
    FqElem,
    FqField,
    count_nonsquare_nonsubfield,
    euler_phi,
    in_proper_subfield,
    is_prime,
    is_square,
    prime_powers,
    split_prime_power,
)
from .group import CrossCheckFailed

C3_VARIANTS = ("G0", "PSigmaL")
CLOSED_FORM_KINDS = ("Dq_minus_1", "Dq_plus_1", "PGL_Dq_minus_1")


# -- domain types ----------------------------------------------------------------


@dataclass(frozen=True)
class C2Pair:
    """An unordered pair {(1, b), (1, c)} of projective points avoiding INF
    and 0, encoded by its two nonzero, distinct scalars."""

    b: FqElem
    c: FqElem

    def __post_init__(self):
        if self.b.is_zero() or self.c.is_zero():
            raise ValueError("pair scalars must be nonzero")
        if self.b == self.c:
            raise ValueError("pair scalars must be distinct")

    def labels(self) -> tuple[FqElem, FqElem]:
        return self.b, self.c

    def as_label_set(self) -> frozenset:
        return frozenset((self.b, self.c))

    def negated(self) -> "C2Pair":
        return C2Pair(-self.b, -self.c)


@dataclass(frozen=True)
class C3Point:
    """A point of the unitary-pair action: ALPHA (log None) or the canonical
    log of a scalar b with b^(q+1) != -1."""

    field: FqField
    q: int
    log: int | None

    @classmethod
    def alpha(cls, F2: FqField, q: int) -> "C3Point":
        return cls(F2, q, None)

    @classmethod
    def from_scalar(cls, b: FqElem, q: int) -> "C3Point":
        _require_c3_scalar(b, q)
        return cls(b.field, q, c3_canonical_log(b.field, q, b.log))

    def is_alpha(self) -> bool:
        return self.log is None

    def scalar(self) -> FqElem:
        if self.log is None:
            raise ValueError("alpha carries no scalar")
        return self.field.from_log(self.log)


@dataclass(frozen=True)
class WitnessScalars:
    """Scalars certifying an edge: (d, e) for the projective-pair family,
    (a1, d) for the unitary family.  Producers re-verify every condition the
    scalars are claimed to satisfy before returning them."""

    d: FqElem
    e: FqElem | None = None
    a1: FqElem | None = None


# -- projective-pair (C2) criteria -------------------------------------------------


def _check_c2_field(F: FqField) -> None:
    if F.p == 2:
        raise ValueError("the pair criterion needs odd q")


def c2_condition_iii(F: FqField, b: FqElem, c: FqElem) -> bool:
    """The subfield condition: b^(p^k - 1) != c^(p^k - 1) for all 0 < k < f.

    Checked literally over every k; equivalently the ratio b/c avoids every
    proper subfield, which :func:`saxl.gf.in_proper_subfield` tests.
    """
    for k in range(1, F.f):
        e = F.p**k - 1
        if b**e == c**e:
            return False
    return True


def c2_base_psigma(F: FqField, b: FqElem, c: FqElem) -> bool:
    """Whether {alpha, {b, c}} is a base pair for the full field-automorphism
    extension acting on projective pairs (q odd).

    True exactly when (i) both scalars are nonzero, (ii) -b/c is a non-square,
    and (iii) the subfield condition holds.
    """
    _check_c2_field(F)
    if b == c:
        raise ValueError("pair labels must be distinct")
    if b.is_zero() or c.is_zero():
        return False
    if is_square(-(b / c)):
        return False
    return c2_condition_iii(F, b, c)


def _point_set(pair) -> set:
    pts = set(pair)
    if len(pts) != 2:
        raise ValueError("a pair-point needs two distinct projective labels")
    return pts


def _anchor_map(F: FqField, pair):
    """A fractional-linear map over GF(q) sending the given pair onto {INF, 0}."""
    P, R = pair
    if P is INF:

        def send(t):
            return t if t is INF else t - R

    elif R is INF:

        def send(t):
            if t is INF:
                return F.zero()
            if t == P:
                return INF
            return (t - P).inverse()

    else:

        def send(t):
            if t is INF:
                return F.one()
            if t == P:
                return INF
            return (t - R) / (t - P)

    return send


def c2_pair_base(F: FqField, beta, gamma) -> bool:
    """Whether {beta, gamma} is a base for the full field-automorphism
    extension, for arbitrary distinct pair-points (labels INF or scalars).

    Pairs sharing a projective point are bases exactly when f = 1 (any
    stabilising element must fix three points, which kills the fractional
    -linear part but not a field automorphism twisted by a square scale).
    Disjoint pairs are moved by a fractional-linear map taking beta onto
    {INF, 0}; the map normalises the extension, so the verdict is the
    alpha-criterion applied to the transported labels of gamma.
    """
    _check_c2_field(F)
    bset, gset = _point_set(beta), _point_set(gamma)
    if bset == gset:
        raise ValueError("the two pair-points must be distinct")
    if bset & gset:
        return F.f == 1
    send = _anchor_map(F, tuple(beta))
    x, y = send(gamma[0]), send(gamma[1])
    # disjointness keeps both images finite and nonzero
    if x is INF or y is INF or x.is_zero() or y.is_zero():
        raise CrossCheckFailed("disjoint pair transported onto the anchor")
    return c2_base_psigma(F, x, y)


def c2_neighbour_transfer(F: FqField, b: FqElem, c: FqElem, d: FqElem, e: FqElem):
    """Transport of alpha-neighbour labels across the edge {alpha, {b, c}}.

    Applies t |-> (b(c - b) + tc) / (c - b + t) to d and e; this is the label
    action of a group element carrying alpha onto {b, c}, so {{b, c}, gamma}
    is a base exactly when gamma is the image of a valid alpha-neighbour
    pair.  Undefined at t = b - c (the pole); d = e is allowed and yields a
    degenerate output.
    """
    C2Pair(b, c)
    pole = b - c
    if d == pole or e == pole:
        raise ValueError("transfer undefined at t = b - c")

    def T(t):
        return (b * (c - b) + t * c) / (c - b + t)

    return T(d), T(e)


def c2_common_neighbour_witness(F: FqField, b: FqElem, c: FqElem):
    """A common neighbour of alpha and beta = {b, c}, with certificates.

    Returns (gamma, WitnessScalars(d, e)) where gamma = (-b, -c): the scalars
    d = 2b(b - c)/(b + c) and e = (b^2 - c^2)/(2c) form an alpha-neighbour
    pair whose transfer across {alpha, beta} lands on gamma.  Requires that
    (b, c) itself is an alpha-neighbour; every claimed property of the
    output is re-checked and a failure raises.
    """
    if not c2_base_psigma(F, b, c):
        raise ValueError("(b, c) is not an alpha-neighbour")
    two = F.from_int(2)
    if (b + c).is_zero():
        # cannot happen: c = -b makes -b/c = 1 a square
        raise CrossCheckFailed("witness needs b + c != 0")
    d = two * b * (b - c) / (b + c)
    e = (b * b - c * c) / (two * c)
    pole = b - c
    if d == pole or e == pole:
        raise CrossCheckFailed("witness scalars collide with the transfer pole")
    if d == e:
        raise CrossCheckFailed("witness pair is degenerate")
    if not c2_base_psigma(F, d, e):
        raise CrossCheckFailed("witness pair fails the alpha-neighbour conditions")
    # the exact identity forcing condition (ii) for (d, e):
    # -d/e = -4 / (b/c + c/b + 2), the same square class as -b/c
    if -(d / e) != -(F.from_int(4) / (b / c + c / b + two)):
        raise CrossCheckFailed("witness identity -d/e = -4/(b/c + c/b + 2) fails")
    if set(c2_neighbour_transfer(F, b, c, d, e)) != {-b, -c}:
        raise CrossCheckFailed("witness transfer does not reach (-b, -c)")
    if not c2_base_psigma(F, -b, -c):
        raise CrossCheckFailed("gamma fails the alpha-neighbour conditions")
    return (-b, -c), WitnessScalars(d=d, e=e)


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


def _require_c3_scalar(b: FqElem, q: int) -> None:
    if b.is_zero():
        raise ValueError("scalar label must be nonzero")
    m = b.field.q - 1
    if b.log * (q + 1) % m == m // 2:
        raise ValueError("b^(q+1) = -1: the vector is isotropic, not a point")


def c3_base(F2: FqField, variant: str, b: FqElem) -> bool:
    """Whether {alpha, omega_b} is a base pair in the unitary-pair action.

    variant "G0" (the socle): true exactly when b is a non-square in GF(q^2).
    variant "PSigmaL" (full field-automorphism extension): true exactly when
    b^((q+1)(p^k-1)/2) != 1 for every 0 < k < 2f.  The extension verdict
    implies the socle one (checked): at k = f the exponent is (q^2-1)/2.
    """
    q = _c3_split(F2)
    if variant not in C3_VARIANTS:
        raise ValueError("unknown variant %r" % (variant,))
    _require_c3_scalar(b, q)
    socle = not is_square(b)
    if variant == "G0":
        return socle
    m = F2.q - 1
    L = c3_canonical_log(F2, q, b.log)
    for k in range(1, F2.f):
        if L * ((q + 1) * (F2.p**k - 1) // 2) % m == 0:
            return False
    if not socle:
        raise CrossCheckFailed("extension base criterion passed a square scalar")
    return True


def c3_a1(F2: FqField, b: FqElem) -> FqElem:
    """The least-log scalar with a1^(q+1) = 1 + b^(q+1).

    The right side lies in the base subfield (its log is a multiple of q + 1)
    and is nonzero since b is a point label, so the congruence
    (q+1) x = log(1 + b^(q+1)) mod (q^2 - 1) is solvable; the least solution
    is the reduction of log/(q+1) modulo q - 1.
    """
    q = _c3_split(F2)
    _require_c3_scalar(b, q)
    rhs = F2.one() + b ** (q + 1)
    if rhs.is_zero():
        raise CrossCheckFailed("1 + b^(q+1) vanished for a point label")
    quot, rem = divmod(rhs.log, q + 1)
    if rem:
        raise CrossCheckFailed("norm value off the base-subfield grid")
    return F2.from_log(quot % (q - 1))


def _c3_transfer_scale(F2: FqField, q: int, b: FqElem) -> tuple[FqElem, FqElem]:
    """(a1, A) with A = a1^(-2) (b + b^(-q)), the transfer scale at omega_b."""
    a1 = c3_a1(F2, b)
    A = a1 ** (-2) * (b + b ** (-q))
    if A.is_zero():
        # b + b^(-q) = 0 would force b^(q+1) = -1
        raise CrossCheckFailed("transfer scale vanished for a point label")
    return a1, A


def c3_pair_base(F2: FqField, variant: str, b: FqElem, c: FqElem) -> bool:
    """Whether {omega_b, omega_c} is a base pair, by pure arithmetic.

    A group element of the socle carries alpha onto omega_b and pulls omega_c
    back to omega_d with d = A(c - b)/(c + b^(-q)), A = a1^(-2)(b + b^(-q)).
    The verdict is the alpha-criterion on d; the transfer image is re-checked
    before trusting d.
    """
    q = _c3_split(F2)
    _require_c3_scalar(b, q)
    _require_c3_scalar(c, q)
    if c3_canonical_log(F2, q, b.log) == c3_canonical_log(F2, q, c.log):
        raise ValueError("the two points must be distinct")
    a1, A = _c3_transfer_scale(F2, q, b)
    d = A * (c - b) / (c + b ** (-q))
    if d.is_zero() or d == A or d == -(b ** (q + 1)) * A:
        # excluded values would force c = b, c = 0, or b isotropic
        raise CrossCheckFailed("transfer scalar hit an excluded value")
    m = F2.q - 1
    if d.log * (q + 1) % m == m // 2:
        raise CrossCheckFailed("transfer scalar is isotropic")
    img = (b * A + b ** (-q) * d) / (A - d)
    if img != c and img != -(c ** (-q)):
        raise CrossCheckFailed("transfer image misses the target point")
    return c3_base(F2, variant, F2.from_log(c3_canonical_log(F2, q, d.log)))


def c3_common_neighbour_witness(F2: FqField, b: FqElem):
    """A common neighbour of alpha and omega_b, with certificates.

    Returns (c, WitnessScalars(a1=a1, d=d)) where c = -b and d is the scalar
    witnessing the edge {omega_b, omega_{-b}} under the transfer at omega_b.
    Requires {alpha, omega_b} to be a base for the full extension; all
    certified properties are re-checked, including the half-norm identity
    d^((q+1)/2) = +-2/(s - 1/s) with s = b^((q+1)/2).
    """
    q = _c3_split(F2)
    _require_c3_scalar(b, q)
    if not c3_base(F2, "PSigmaL", b):
        raise ValueError("{alpha, omega_b} is not an extension base")
    c = -b
    a1, A = _c3_transfer_scale(F2, q, b)
    denom = b - b ** (-q)
    if denom.is_zero():
        # b^(q+1) = 1 fails the extension criterion, so cannot reach here
        raise CrossCheckFailed("witness denominator vanished")
    d = F2.from_int(2) * b * A / denom
    if not c3_base(F2, "PSigmaL", c):
        raise CrossCheckFailed("negated scalar fails the alpha-criterion")
    if d != A * (c - b) / (c + b ** (-q)):
        raise CrossCheckFailed("closed-form d disagrees with the transfer scalar")
    if not c3_pair_base(F2, "PSigmaL", b, c):
        raise CrossCheckFailed("witness pair fails the transfer criterion")
    s = b ** ((q + 1) // 2)
    rhs = F2.from_int(2) / (s - s.inverse())
    lhs = d ** ((q + 1) // 2)
    if lhs != rhs and lhs != -rhs:
        raise CrossCheckFailed("half-norm identity fails")
    return c, WitnessScalars(d=d, a1=a1)


def c3_clique(F2: FqField, b: FqElem) -> list[C3Point]:
    """A verified clique through alpha for the socle action.

    Takes a non-square b with b^(q+1) != -1 and returns alpha together with
    the points omega_{bx} for x in the embedded base-subfield units (the at
    most two isotropic products are skipped, and products pair up in the
    labelling).  The result has at least (q-1)/2 points; every edge is
    re-verified arithmetically before returning.
    """
    q = _c3_split(F2)
    _require_c3_scalar(b, q)
    if is_square(b):
        raise ValueError("clique anchor must be a non-square")
    m = F2.q - 1
    half = m // 2
    logs = set()
    for t in range(q - 1):
        bl = (b.log + (q + 1) * t) % m  # b times the embedded unit lambda_q^t
        if bl * (q + 1) % m == half:
            continue
        logs.add(c3_canonical_log(F2, q, bl))
    pts = [C3Point.alpha(F2, q)] + [C3Point(F2, q, L) for L in sorted(logs)]
    if len(pts) < (q - 1) // 2:
        raise CrossCheckFailed("clique fell below the guaranteed size")
    scalars = [pt.scalar() for pt in pts[1:]]
    for x in scalars:
        if not c3_base(F2, "G0", x):
            raise CrossCheckFailed("alpha-edge fails inside the clique")
    for i in range(len(scalars)):
        for j in range(i + 1, len(scalars)):
            if not c3_pair_base(F2, "G0", scalars[i], scalars[j]):
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


def c2_base_candidates(F: FqField):
    """Alpha-neighbour pairs (b, c) = (ct, c) in deterministic order: the
    ratio t runs over valid logs, then c over all logs."""
    for lt in range(F.q - 1):
        t = F.from_log(lt)
        if t == F.one():
            continue
        if is_square(-t) or in_proper_subfield(t):
            continue
        for lc in range(F.q - 1):
            c = F.from_log(lc)
            yield c * t, c


def _c2_vertex_ok(F: FqField, pair: C2Pair) -> bool:
    return c2_base_psigma(F, pair.b, pair.c)


def _c2_clique5_edges_ok(F: FqField, verts: list) -> bool:
    """All ten edges of the alpha + four-pairs candidate clique."""
    pairs = verts[1:]
    if any(not _c2_vertex_ok(F, pr) for pr in pairs):
        return False
    seen = set()
    for pr in pairs:
        seen |= pr.as_label_set()
    if len(seen) != 8:
        return False
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if not c2_pair_base(F, pairs[i].labels(), pairs[j].labels()):
                return False
    return True


# scan budgets of the 5-clique searches: anchors tried, and candidate pairs
# drawn from c2_base_candidates
_C2_CLIQUE5_ANCHORS = 64
_C2_CLIQUE5_PARTNERS = 4096
_C3_CLIQUE5_ANCHORS = 32


def c2_clique5(F: FqField) -> list:
    """A verified 5-clique in the projective-pair graph of the full
    field-automorphism extension (q odd, f >= 2).

    Shape: alpha, a neighbour pair beta, its negation, and a second such pair
    with its negation; the deterministic scan tries anchors and partners in
    log order and re-checks all ten edges before returning
    [ALPHA, beta, -beta, beta', -beta'].
    """
    _check_c2_field(F)
    if F.f < 2:
        raise ValueError("the scan targets proper extensions (f >= 2)")
    cands = []
    for b, c in islice(c2_base_candidates(F), _C2_CLIQUE5_PARTNERS):
        if c2_base_psigma(F, b, c):
            cands.append(C2Pair(b, c))
    for beta in cands[:_C2_CLIQUE5_ANCHORS]:
        gamma = beta.negated()
        taken = beta.as_label_set() | gamma.as_label_set()
        for beta2 in cands:
            if beta2.as_label_set() & taken:
                continue
            verts = [ALPHA, beta, gamma, beta2, beta2.negated()]
            if _c2_clique5_edges_ok(F, verts):
                return verts
    raise RuntimeError("no 5-clique found within the scan budget")


def c3_clique5(F2: FqField) -> list[C3Point]:
    """A verified 5-clique in the unitary-pair graph of the full
    field-automorphism extension: alpha, omega_b, omega_{-b}, omega_c,
    omega_{-c} with all ten edges re-checked arithmetically."""
    q = _c3_split(F2)
    cands = [
        L for L in c3_label_logs(F2, q) if c3_base(F2, "PSigmaL", F2.from_log(L))
    ]
    for bL in cands[:_C3_CLIQUE5_ANCHORS]:
        b = F2.from_log(bL)
        nbL = c3_canonical_log(F2, q, (-b).log)
        for cL in cands:
            c = F2.from_log(cL)
            ncL = c3_canonical_log(F2, q, (-c).log)
            if len({bL, nbL, cL, ncL}) != 4:
                continue
            verts = [b, -b, c, -c]
            if all(c3_base(F2, "PSigmaL", v) for v in verts) and all(
                c3_pair_base(F2, "PSigmaL", verts[i], verts[j])
                for i in range(4)
                for j in range(i + 1, 4)
            ):
                return [C3Point.alpha(F2, q)] + [
                    C3Point.from_scalar(v, q) for v in verts
                ]
    raise RuntimeError("no 5-clique found within the scan budget")


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
