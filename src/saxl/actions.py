"""Constructions of the permutation actions under study.

Three families of transitive actions are built here, each as a
:class:`LabelledAction` that ties every point index to a meaningful label:

* symmetric and alternating groups acting on k-element subsets,
* the action of an arbitrary group on the right cosets of a subgroup
  (with canonical coset representatives, so point labels are reproducible),
* the two families of labelled actions of the groups lying between
  PSL(2,q) and PGammaL(2,q): the action on unordered pairs of points of
  the projective line PG(1,q), and the action on orthogonal pairs of
  nondegenerate 1-spaces of a unitary plane over GF(q^2), whose points
  are labelled by field scalars.

Every action is induced from a small carrier action: S_n on n points for
k-subsets, Moebius and Frobenius maps on PG(1,q) for pairs and on the q + 1
isotropic points of PG(1,q^2) for the unitary points, and a catalogue
group's own points for its coset and natural actions.  A label of the first
three families is a block of carrier points, and :func:`_induced` turns
each carrier generator into a permutation of the labels; a generator that
maps some block outside the labelling raises :class:`CrossCheckFailed`.
Every constructor returns through :func:`_certified`, which proves |G| and
G_0 with no chain of G on its n points.  A catalogue loader ingests fixture
groups from a small text format and checks their declared orders on load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from pathlib import Path

import numpy as np

from .gf import FqField, field_create, split_prime_power
from .group import CapExceeded, Caps, CrossCheckFailed, DEFAULT_CAPS, PermGroup, StabChain
from .perm import Perm, from_cycles, parse_cycles

ALPHA = "alpha"

FAMILIES = ("PSL2", "PGL2", "PSigmaL2", "PGammaL2", "DeltaPhi")


@dataclass(frozen=True)
class OmegaPoint:
    """A labelled point of an action domain.

    kind is one of "k_subset", "proj_pair", "c3_point", "coset_index"; the
    payload is a sorted tuple of integers, a pair of normalized homogeneous
    coordinates, a canonical scalar log (or the string "alpha"), or a coset
    index, respectively.
    """

    kind: str
    payload: object


@dataclass(frozen=True)
class GroupVariant:
    """One of the groups between PSL(2,q) and PGammaL(2,q).

    family "DeltaPhi" is the extension of PSL(2,q) by delta*phi^j, which is
    a valid group-defining coset exactly when 0 < j < f and f/gcd(f,j) is
    even; the other families ignore j.
    """

    family: str
    q: int
    j: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError("unknown family %r" % (self.family,))
        p, f = split_prime_power(self.q)
        if self.family == "DeltaPhi":
            if p == 2:
                raise ValueError("DeltaPhi variants need odd q")
            if not (0 < self.j < f) or (f // math.gcd(f, self.j)) % 2:
                raise ValueError(
                    "DeltaPhi(j=%d) is not a valid variant for q=%d" % (self.j, self.q)
                )
        elif self.j:
            raise ValueError("j is only meaningful for the DeltaPhi family")

    @property
    def p(self) -> int:
        return split_prime_power(self.q)[0]

    @property
    def f(self) -> int:
        return split_prime_power(self.q)[1]

    @property
    def index(self) -> int:
        """[G : PSL(2,q)], which scales both |G| and |G_0|."""
        h, f = math.gcd(2, self.q - 1), self.f
        if self.family == "DeltaPhi":
            return f // math.gcd(f, self.j)
        return {"PSL2": 1, "PGL2": h, "PSigmaL2": f, "PGammaL2": h * f}[self.family]

    def describe(self) -> str:
        if self.family == "DeltaPhi":
            return "DeltaPhi(j=%d,q=%d)" % (self.j, self.q)
        return "%s(%d)" % (self.family, self.q)


@dataclass(eq=False)
class LabelledAction:
    """A transitive permutation group together with its point labels.

    ``carrier`` holds the (carrier, label) generator pairs of G and of G_0
    on a faithful carrier, as :func:`_certified` certified them."""

    group: PermGroup
    labels: tuple
    name: str
    warnings: tuple = ()
    carrier: tuple = ((), ())
    label_index: dict = field(init=False, repr=False)
    _cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if len(self.labels) != self.group.degree:
            raise ValueError("label count does not match degree")
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.label_index) != len(self.labels):
            raise ValueError("labels are not distinct")
        if not self.group.is_transitive():
            raise ValueError("action is not transitive")

    @property
    def degree(self) -> int:
        return len(self.labels)

    def stabiliser0(self) -> PermGroup:
        """The stabiliser of point 0 (the certified one for a constructed action)."""
        return self.group.point_stabiliser(0)


def diagonal(carrier: Perm, label: Perm) -> Perm:
    """The permutation of carrier and labels together, carrier points first."""
    return Perm(np.concatenate([carrier.images, label.images.astype(np.intp) + carrier.degree]).tolist())


def _certified(name, labels, gens, stab_gens, order, caps, warnings=(), stab_order=None) -> LabelledAction:
    """The action on ``labels`` of a carrier group of order ``order``, certified.

    ``gens`` and ``stab_gens`` are (carrier, label) pairs of permutations that
    generate the group and the stabiliser of label 0.  D is the group they
    generate on the m carrier points and the n labels together, and H the
    group of the label parts of ``stab_gens``.  Four checks raise
    :class:`CrossCheckFailed`: (a) |D| = ``order``, from D's deterministic
    chain, whose base lies in the carrier while carrier -> labels is well
    defined; (b) label 0 has an orbit of length n; (c) every stabiliser pair
    fixes label 0 and lies in D; (d) |H|, from H's own chain, is |G|/n.  The
    label group G is a quotient of D, so |G| <= |D|, and by (b), (c) and (d)
    |G| >= n|H|: the two agree, and H = G_0.  A random chain would prove only
    a lower bound on |D| (Seress, *Permutation Group Algorithms*, 2003,
    ch. 4).  G is faithful, unless the carrier's stabiliser order
    ``stab_order`` is given, as for a coset action: the kernel lies in the
    stabiliser, so its order is ``stab_order`` / |H|.

    The action keeps the certified pairs as its ``carrier``.  When the
    kernel is 1 and every base point of D's chain is a carrier point, D maps
    one to one onto both its carrier and its label parts, so the carrier
    parts are G in degree m; otherwise the labels are their own carrier.
    """
    n, m = len(labels), gens[0][0].degree
    chain = StabChain(m + n, [diagonal(c, g) for c, g in gens])
    group = PermGroup(n, [g for _, g in gens], caps=caps)
    H = PermGroup(n, [g for _, g in stab_gens], caps=caps)
    if chain.order() != order:
        raise CrossCheckFailed("%s: diagonal order %d, expected %d" % (name, chain.order(), order))
    if len(group.schreier_vector.orbit) != n:
        raise CrossCheckFailed("%s: label 0 has an orbit of length %d, not %d" % (name, len(group.schreier_vector.orbit), n))
    for c, g in stab_gens:
        if g(0) != 0:
            raise CrossCheckFailed("%s: a point stabiliser generator moves label 0" % name)
        if not chain.contains(diagonal(c, g)):
            raise CrossCheckFailed("%s: a point stabiliser generator is not in the group" % name)
    kernel = 1 if stab_order is None else stab_order // H.order()
    if H.order() * n * kernel != order:
        raise CrossCheckFailed("%s: point stabiliser order %d, expected %d" % (name, H.order(), order // max(kernel, 1) // n))
    group.adopt_certificate(order // kernel, H)
    if kernel > 1:
        warnings += ("action has kernel of order %d" % kernel,)
    faithful = kernel == 1 and all(level.point < m for level in chain.levels)
    carrier = tuple(tuple((c if faithful else g, g) for c, g in pairs) for pairs in (gens, stab_gens))
    return LabelledAction(group, labels, name, warnings=warnings, carrier=carrier)


def _induced(blocks: list[tuple], carrier_gens: list[Perm]) -> list[Perm]:
    """The permutations of ``blocks`` induced by permutations of the points
    the blocks hold.

    ``blocks`` are sorted point tuples, one per label, in label order.  A
    generator that maps some block to a tuple outside the list raises
    :class:`CrossCheckFailed`.
    """
    where = {b: i for i, b in enumerate(blocks)}
    induced = []
    for g in carrier_gens:
        images = g.images.tolist()
        try:
            induced.append(Perm(where[tuple(sorted(images[x] for x in b))] for b in blocks))
        except KeyError:
            raise CrossCheckFailed("generator does not permute the blocks") from None
    return induced


# -- k-subset actions --------------------------------------------------------------


def ksubset_action(
    n: int, k: int, even_only: bool = False, caps: Caps = DEFAULT_CAPS
) -> LabelledAction:
    """S_n (or A_n) acting on the k-element subsets of {0, ..., n-1}.

    k = 1 gives the natural action.  Labels are sorted tuples in
    lexicographic order, so the action is reproducible.
    """
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    degree = math.comb(n, k)
    if degree > caps.point_cap:
        raise CapExceeded("degree %d exceeds point cap %d" % (degree, caps.point_cap))
    order = math.factorial(n) // (2 if even_only else 1)
    if order > caps.group_cap:
        raise CapExceeded("group order %d exceeds cap %d" % (order, caps.group_cap))

    subsets = list(combinations(range(n), k))
    parts = (range(k), range(k, n))  # label 0 is the first part
    if even_only:
        if n < 3:
            raise ValueError("alternating groups need n >= 3")
        long_cycle = (
            from_cycles(n, [tuple(range(n))])
            if n % 2
            else from_cycles(n, [tuple(range(1, n))])
        )
        base_gens = [from_cycles(n, [(0, 1, 2)]), long_cycle]
        # (S_k x S_{n-k}) & A_n: 3-cycles generate A_k and A_{n-k}, and one
        # product of two transpositions swaps within both parts
        stab_gens = [from_cycles(n, [(p[0], p[1], x)]) for p in parts for x in p[2:]]
        if k >= 2 and n - k >= 2:
            stab_gens.append(from_cycles(n, [(0, 1), (k, k + 1)]))
        name = "A%d/%d-subsets" % (n, k)
    else:
        base_gens = [from_cycles(n, [(0, 1)]), from_cycles(n, [tuple(range(n))])]
        stab_gens = [from_cycles(n, [(p[0], x)]) for p in parts for x in p[1:]]  # S_k x S_{n-k}
        name = "S%d/%d-subsets" % (n, k)

    labels = tuple(OmegaPoint("k_subset", s) for s in subsets)
    gens, stab_gens = (list(zip(g, _induced(subsets, g))) for g in (base_gens, stab_gens))
    return _certified(name, labels, gens, stab_gens, order, caps)


# -- coset actions ------------------------------------------------------------------


def _coset_canonical(chain, g: Perm) -> Perm:
    """The canonical representative of the right coset H*g.

    Greedily minimises the base images over the coset using H's stabiliser
    chain; the result is independent of the representative, so it is usable
    as a dictionary key for the coset.
    """
    for level in chain.levels:
        images = g.images.tolist()
        best_pt = min(level.transversal, key=images.__getitem__)
        u = level.transversal[best_pt]
        if not u.is_identity():
            g = u * g
    return g


def coset_action(
    G: PermGroup,
    H: PermGroup,
    name: str = "coset",
    caps: Caps = DEFAULT_CAPS,
) -> LabelledAction:
    """The action of G on the right cosets of H, with point 0 = H itself.

    The kernel is the core of H in G, which lies in H, so its order is |H|
    over the order of H's image.  The returned action is the image group,
    certified by :func:`_certified` with the image of H as G_0.
    """
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    order_g, order_h = G.order(), H.order()
    index = order_g // order_h
    if index > caps.point_cap:
        raise CapExceeded("index %d exceeds point cap %d" % (index, caps.point_cap))

    chain_h = H.chain
    start = _coset_canonical(chain_h, G.identity())
    reps = [start]
    seen = {start: 0}
    images_per_gen = [[] for _ in G.gens]
    for rep in reps:  # grows as cosets are found
        for images, gen in zip(images_per_gen, G.gens):
            nxt = _coset_canonical(chain_h, rep * gen)
            at = seen.setdefault(nxt, len(reps))
            if at == len(reps):
                reps.append(nxt)
            images.append(at)
    if len(reps) != index:
        raise CrossCheckFailed("coset enumeration found %d cosets, expected %d" % (len(reps), index))

    gens = [(g, Perm(imgs)) for g, imgs in zip(G.gens, images_per_gen)]
    stab_gens = [(h, Perm(seen[_coset_canonical(chain_h, rep * h)] for rep in reps)) for h in H.gens]
    labels = tuple(OmegaPoint("coset_index", i) for i in range(index))
    return _certified(name, labels, gens, stab_gens, order_g, caps, stab_order=order_h)


def natural_action(G: PermGroup, name: str, caps: Caps = DEFAULT_CAPS) -> LabelledAction:
    """G on its own points, labelled by index, with G as its own carrier."""
    if G.degree > caps.point_cap:
        raise CapExceeded("degree %d exceeds point cap %d" % (G.degree, caps.point_cap))
    labels = tuple(OmegaPoint("coset_index", i) for i in range(G.degree))
    stab_gens = G.point_stabiliser(0).gens
    return _certified(name, labels, [(g, g) for g in G.gens], [(h, h) for h in stab_gens], G.order(), caps)


# -- the projective-pair (C2) family -------------------------------------------------

INF = "inf"  # the 1-space <e2>, i.e. homogeneous coordinates (0, 1)


def _line_pos(t) -> int:
    """Position of a projective point in the labelling's order: <e2>, then
    <e1>, then the other points by log."""
    if t is INF:
        return 0
    return 1 if t.is_zero() else 2 + t.log


def _proj_payload(t) -> tuple:
    if t is INF:
        return (0, 1)
    return (1, t.as_int())


def proj_pair_payload(labels) -> tuple:
    """The "proj_pair" payload of two projective labels (INF or FqElem),
    the points in the labelling's order: INF, then 0, then by log."""
    return tuple(_proj_payload(t) for t in sorted(labels, key=_line_pos))


def proj_pair_labels(F: FqField, payload) -> tuple:
    """The two projective labels (INF or FqElem) of a "proj_pair" payload;
    the inverse of :func:`proj_pair_payload`."""
    return tuple(INF if kind == 0 else F.from_packed_int(value) for kind, value in payload)


def _line(F: FqField):
    """The points of PG(1,F) in the labelling's order (INF, 0, then by log),
    and ``line_perm``, which turns a point map into a permutation of them."""
    points = [INF, *F.elements()]
    return points, lambda point_map: Perm(_line_pos(point_map(t)) for t in points)


def _mobius_apply(M, t):
    """Image of the projective point (1, t) or <e2> under a matrix row action."""
    (a, b), (c, d) = M
    if t is INF:
        x, y = c, d
    else:
        x, y = a + t * c, b + t * d
    if x.is_zero():
        return INF
    return y / x


def _mat_mul(A, B):
    (a, b), (c, d) = A
    (e, f_), (g, h) = B
    return ((a * e + b * g, a * f_ + b * h), (c * e + d * g, c * f_ + d * h))


def _mat_inv(A):
    (a, b), (c, d) = A
    det = a * d - b * c
    inv = det.inverse()
    return ((d * inv, -b * inv), (-c * inv, a * inv))


def _mat_conj_transpose(A, f: int):
    (a, b), (c, d) = A
    return ((a.frobenius(f), c.frobenius(f)), (b.frobenius(f), d.frobenius(f)))


def _extension(variant: GroupVariant, delta: Perm, line_perm) -> list[Perm]:
    """The generators the variant adds to PSL(2,q) as permutations of a line,
    given the diagonal automorphism delta there and the line's ``line_perm``."""
    if variant.family == "PSL2":
        return []
    if variant.family == "PGL2":
        return [delta]
    phi = line_perm(lambda t: t if t is INF else t.frobenius(1))
    if variant.family == "PSigmaL2":
        return [phi]
    if variant.family == "PGammaL2":
        return [delta, phi]
    return [delta * phi**variant.j]


def _capped_order(variant: GroupVariant, psl_order: int, caps: Caps) -> int:
    """|G| = [G : PSL(2,q)] * |PSL(2,q)|, refused over the group cap."""
    order = variant.index * psl_order
    if order > caps.group_cap:
        raise CapExceeded("group order %d exceeds cap %d" % (order, caps.group_cap))
    return order


def psl2_c2_action(variant: GroupVariant, caps: Caps = DEFAULT_CAPS) -> LabelledAction:
    """The chosen group acting on unordered pairs of points of PG(1,q).

    Point 0 is the pair {<e1>, <e2>}.  Labels hold normalized homogeneous
    coordinates (first nonzero coordinate 1).  Degree q(q+1)/2.
    """
    q = variant.q
    if q < 4:
        raise ValueError("need q >= 4")
    degree = q * (q + 1) // 2
    if degree > caps.point_cap:
        raise CapExceeded("degree %d exceeds point cap %d" % (degree, caps.point_cap))
    h = math.gcd(2, q - 1)
    order = _capped_order(variant, q * (q * q - 1) // h, caps)

    F = field_create(variant.p, variant.f)
    points, line_perm = _line(F)
    lam, one, zero = F.gen(), F.one(), F.zero()
    mat_u = ((one, one), (zero, one))
    mat_d = ((lam, zero), (zero, lam.inverse()))
    mat_s = ((zero, one), (-one, zero))
    mat_delta = ((lam, zero), (zero, one))
    u, d, s, delta = (line_perm(partial(_mobius_apply, M)) for M in (mat_u, mat_d, mat_s, mat_delta))
    pairs = list(combinations(range(q + 1), 2))
    carrier = [u, d, s] + _extension(variant, delta, line_perm)
    gens = list(zip(carrier, _induced(pairs, carrier)))

    labels = tuple(
        OmegaPoint("proj_pair", (_proj_payload(points[i]), _proj_payload(points[j])))
        for i, j in pairs
    )
    warnings = ()
    if q == 5:
        warnings = ("point stabiliser is not maximal for q = 5; action is imprimitive",)
    # PSL(2,q)'s torus and swap generators fix alpha = {<e1>, <e2>}
    return _certified("%s/proj-pairs" % variant.describe(), labels, gens, gens[1:], order, caps, warnings)


# -- the unitary-model (C3) family ---------------------------------------------------


def c3_canonical_log(F2: FqField, q: int, log: int) -> int:
    """Canonical scalar label: min(b, -b^(-q)) in log order, for b = lambda^log."""
    m = F2.q - 1
    partner = (m // 2 - q * log) % m
    return min(log, partner)


def c3_label_logs(F2: FqField, q: int) -> list[int]:
    """Ascending canonical logs of the scalar points (b with b^{q+1} != -1)."""
    m = F2.q - 1
    log = np.arange(m, dtype=np.int64)
    point = log * (q + 1) % m != m // 2  # b^{q+1} = -1: not a point
    canonical = log <= (m // 2 - q * log) % m  # c3_canonical_log(F2, q, log) == log
    return np.flatnonzero(point & canonical).tolist()


def su2_conjugator(F2: FqField, q: int):
    """A matrix C with C * conj(C)^T antisymmetric, so C^-1 SL2(q) C = SU2(q).

    Entries are chosen deterministically: b0 is the least-log solution of
    b0^{q+1} = -1 and eps = lambda^{(q+1)/2} (so eps^q = -eps).
    """
    b0 = F2.from_log((q - 1) // 2)
    eps = F2.from_log((q + 1) // 2)
    return ((b0, F2.one()), (-eps, eps * b0 ** (-q)))


def psl2_c3_action(variant: GroupVariant, caps: Caps = DEFAULT_CAPS) -> LabelledAction:
    """The chosen group acting on orthogonal pairs of nondegenerate 1-spaces.

    The model is unitary: the socle is realised as the image of SU(2,q)
    (conjugate of SL(2,q) preserving the identity hermitian form on a plane
    over GF(q^2)).  Point 0 is alpha = {<u>, <v>}; every other point is
    omega_b = {<u+bv>, <u-b^{-q}v>} for a scalar b with b^{q+1} != -1,
    stored under the canonical log min(b, -b^{-q}).  Degree q(q-1)/2.
    """
    q = variant.q
    p, f = variant.p, variant.f
    if p == 2 or q < 5:
        raise ValueError("the unitary-model action needs odd q >= 5")
    degree = q * (q - 1) // 2
    if degree > caps.point_cap:
        raise CapExceeded("degree %d exceeds point cap %d" % (degree, caps.point_cap))
    order = _capped_order(variant, q * (q * q - 1) // 2, caps)

    F2 = field_create(p, 2 * f)
    lam = F2.gen()
    one, zero = F2.one(), F2.zero()
    scalar_logs = c3_label_logs(F2, q)
    if len(scalar_logs) + 1 != degree:
        raise CrossCheckFailed("scalar label count %d != degree - 1" % len(scalar_logs))
    labels = (OmegaPoint("c3_point", ALPHA),) + tuple(
        OmegaPoint("c3_point", log) for log in scalar_logs
    )
    _, line_perm = _line(F2)
    blocks = [(_line_pos(INF), _line_pos(zero))]
    for log in scalar_logs:
        b = F2.from_log(log)
        blocks.append(tuple(sorted((_line_pos(b), _line_pos(-(b ** -q))))))

    C = su2_conjugator(F2, q)
    C_inv = _mat_inv(C)
    mu = lam ** (q + 1)  # a primitive element of the GF(q) subfield
    sl2_gens = (
        ((one, one), (zero, one)),
        ((mu, zero), (zero, mu.inverse())),
        ((zero, one), (-one, zero)),
    )
    su_mats = [_mat_mul(_mat_mul(C_inv, M), C) for M in sl2_gens]
    for M in su_mats:
        (a, b_), (c, d) = M
        if not (a * d - b_ * c == one):
            raise CrossCheckFailed("conjugated generator does not have determinant 1")
        (w, x), (y, z) = _mat_mul(M, _mat_conj_transpose(M, f))
        if not (w == one and z == one and x.is_zero() and y.is_zero()):
            raise CrossCheckFailed("conjugated generator is not unitary")

    mat_t = ((lam ** (q - 1), zero), (zero, lam ** (1 - q)))  # SU2 torus
    mat_w = ((zero, one), (-one, zero))  # SU2 swap of <u>, <v>
    mat_b = ((lam ** (q - 1), zero), (zero, one))  # diagonal coset rep in GU2
    *line, delta = (line_perm(partial(_mobius_apply, M)) for M in (*su_mats, mat_t, mat_w, mat_b))
    # SU2's three generators, then torus and swap (both fix alpha), then the extension
    line += _extension(variant, delta, line_perm)
    # the carrier: the isotropic points b^(q+1) = -1, at line positions 2 + log b
    m = F2.q - 1
    isotropic = [(2 + log,) for log in np.flatnonzero(np.arange(m) * (q + 1) % m == m // 2).tolist()]
    gens = list(zip(_induced(isotropic, line), _induced(blocks, line)))
    name = "%s/unitary-pairs" % variant.describe()
    return _certified(name, labels, gens[:3] + gens[5:], gens[3:], order, caps)


# -- catalogue ingestion --------------------------------------------------------------


class CatalogueError(ValueError):
    pass


@dataclass
class CatalogueEntry:
    name: str
    group: PermGroup
    subgroup: PermGroup | None
    expected_order: int
    expected_suborder: int | None


def load_catalogue(path: str | Path, caps: Caps = DEFAULT_CAPS) -> dict[str, CatalogueEntry]:
    """Parse a catalogue file and verify every entry's declared orders.

    Format, one record per group: ``name <id>``, ``degree <n>``, one or more
    ``gen <cycles>`` lines, optional ``sub gen <cycles>`` lines, and a
    terminating ``expect order <N>[ suborder <M>]`` line.  Cycle notation is
    1-based, e.g. ``(1,2,3)(4,5)``.  Blank lines and ``#`` comments are
    ignored.  Parse problems and order mismatches raise
    :class:`CatalogueError` with the offending line number.
    """
    text = Path(path).read_text(encoding="utf-8")
    entries: dict[str, CatalogueEntry] = {}
    name = None
    degree = None
    gens: list[Perm] = []
    sub_gens: list[Perm] = []

    def fail(lineno: int, msg: str):
        raise CatalogueError("line %d: %s" % (lineno, msg))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("name "):
            if name is not None:
                fail(lineno, "record %r has no 'expect' line" % name)
            name = line[5:].strip()
            degree, gens, sub_gens = None, [], []
            if not name:
                fail(lineno, "empty name")
            if name in entries:
                fail(lineno, "duplicate name %r" % name)
        elif line.startswith("degree "):
            if name is None:
                fail(lineno, "'degree' outside a record")
            try:
                degree = int(line[7:])
            except ValueError:
                fail(lineno, "bad degree %r" % line[7:])
        elif line.startswith("sub gen "):
            if degree is None:
                fail(lineno, "'sub gen' before 'degree'")
            try:
                sub_gens.append(parse_cycles(line[8:], degree, one_based=True))
            except ValueError as exc:
                fail(lineno, "bad cycle notation: %s" % exc)
        elif line.startswith("gen "):
            if degree is None:
                fail(lineno, "'gen' before 'degree'")
            try:
                gens.append(parse_cycles(line[4:], degree, one_based=True))
            except ValueError as exc:
                fail(lineno, "bad cycle notation: %s" % exc)
        elif line.startswith("expect order "):
            if name is None or degree is None or not gens:
                fail(lineno, "'expect' before a complete record")
            rest = line[13:].split()
            suborder = None
            try:
                if len(rest) == 1:
                    expected = int(rest[0])
                elif len(rest) == 3 and rest[1] == "suborder":
                    expected, suborder = int(rest[0]), int(rest[2])
                else:
                    raise ValueError
            except ValueError:
                fail(lineno, "malformed expect line")
            if (suborder is None) != (not sub_gens):
                fail(lineno, "suborder and 'sub gen' lines must come together")
            group = PermGroup(degree, gens, caps=caps)
            got = group.order()
            if got != expected:
                fail(lineno, "entry %r: order %d, declared %d" % (name, got, expected))
            subgroup = None
            if sub_gens:
                for g in sub_gens:
                    if not group.contains(g):
                        fail(lineno, "entry %r: 'sub gen' not inside the group" % name)
                subgroup = PermGroup(degree, sub_gens, caps=caps)
                got_sub = subgroup.order()
                if got_sub != suborder:
                    fail(
                        lineno,
                        "entry %r: subgroup order %d, declared %d"
                        % (name, got_sub, suborder),
                    )
            entries[name] = CatalogueEntry(name, group, subgroup, expected, suborder)
            name = None
        else:
            fail(lineno, "unrecognised directive %r" % line.split()[0])
    if name is not None:
        raise CatalogueError("record %r has no 'expect' line" % name)
    return entries


def bundled_catalogue_path() -> Path:
    """Path of the catalogue file shipped with the package."""
    return Path(__file__).resolve().parent / "data" / "catalogue.txt"
