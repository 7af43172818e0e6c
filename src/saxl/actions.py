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
Every constructor first checks its arguments, then meets the caps through
:func:`_within_caps`, the one cap check, before it builds any field, block,
chain or coset, and returns through :func:`_certified`, which proves |G| and
G_0 with no chain of G on its n points and builds the one chain of G_0 that
:meth:`LabelledAction.stabiliser_blocks` streams.  The pairs of PG(1,q),
the k-subsets and the natural points (1-subsets) are the k-subsets of their
carrier in lex order, a :class:`SubsetLabels`, certified on the m carrier
points alone: each label generator must be its carrier generator's block
action by the closed rank form, which is faithful, and G_0's chain on the
carrier reaches the labels by that rank form.  The unitary points and
cosets have no rank form: G is certified by a chain on carrier and labels
together, and G_0's chain is on labels and carrier, labels first.  The
degree of each PSL(2,q) family is :func:`psl2_degree`.  A catalogue loader
ingests fixture groups from a small text format; it refuses a degree over
the point cap at its line, and checks an entry's declared orders on the
entry's first use.

The projective maps run on the log arrays of :mod:`saxl.gf`.  A point of
PG(1,q) or PG(1,q^2) has one code, LINE_INF = -2 for <e2>, LOG_ZERO = -1
for <e1> and log t for (1, t), and its carrier position is code + 2.  A
Moebius map, a 2 x 2 matrix of logs, is one gather over every point, and
Frobenius sends log to p * log mod (q - 1).

A label is the plain value that :mod:`saxl.criteria` and :mod:`saxl.cli`
read: a k-subset is its sorted tuple, a coset or a natural point its index,
a pair of points of PG(1,q) the sorted pair of their codes, so that alpha
is (LINE_INF, LOG_ZERO), and a unitary point omega_b the canonical log of
:func:`c3_canonical_logs`, with alpha coded LOG_ZERO.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from pathlib import Path
from typing import Iterator

import numpy as np

from .gf import (
    LOG_ZERO,
    FqField,
    as_logs,
    field_create,
    log_add,
    log_div,
    log_mul,
    log_neg,
    log_pow,
    log_sub,
    split_prime_power,
)
from .group import CapExceeded, CrossCheckFailed, PermGroup, StabChain
from .perm import Perm, from_cycles, identity, parse_cycles

FAMILIES = ("PSL2", "PGL2", "PSigmaL2", "PGammaL2", "DeltaPhi")


@dataclass(frozen=True)
class Caps:
    """The inclusive limits that ``--point-cap``, ``--group-cap`` and
    ``--exact-cap`` set, met by every constructor here through
    :func:`_within_caps` before it builds.  ``exact_cap`` None asks for no
    exact search; a number refuses a degree above it."""

    point_cap: int = 10**5
    group_cap: int = 10**7
    exact_cap: int | None = None


DEFAULT_CAPS = Caps()


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


def psl2_degree(kind: str, q: int) -> int:
    """The degree of the "c2" action on pairs of points of PG(1,q), q(q+1)/2,
    or of the "c3" action on unitary points, q(q-1)/2."""
    return q * (q + 1 if kind == "c2" else q - 1) // 2


@dataclass(eq=False)
class LabelledAction:
    """A transitive permutation group together with its point labels.

    Labels are hashable plain values, one per point in point order, as the
    module docstring describes; ``label_index`` maps each back to its point.
    ``carrier`` holds the degree m of a faithful carrier and the (carrier,
    label) generator pairs of G and of G_0 on it, as :func:`_certified`
    certified them; it is empty for an action built without it.  ``subsets``
    is the :class:`SubsetLabels` of an action whose points are the k-subsets
    of its carrier, and None for any other.  ``stabiliser`` is G_0, whose
    chain :meth:`stabiliser_blocks` streams: on the carrier when ``subsets``
    is set, and otherwise on labels and carrier, in degree n + m."""

    group: PermGroup
    labels: tuple
    name: str
    warnings: tuple = ()
    carrier: tuple = ()
    subsets: "SubsetLabels | None" = None
    stabiliser: PermGroup | None = None
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

    def stabiliser_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Every element of G_0, once, as (carrier rows in the carrier's key
        dtype, label rows) blocks from the chain of ``stabiliser``: mapped by
        :meth:`SubsetLabels.label_rows`, a block of label rows within the
        block size, or else split into its label and carrier columns."""
        n = self.degree
        if self.subsets is not None:
            for rows in self.stabiliser.iter_blocks(width=n):
                yield rows, self.subsets.label_rows(rows)
            return
        key_dtype = identity(self.carrier[0]).images.dtype
        for block in self.stabiliser.iter_blocks():
            yield (block[:, n:] - n).astype(key_dtype), block[:, :n]


def diagonal(first: Perm, second: Perm) -> Perm:
    """The permutation of two point sets together, ``first``'s points first."""
    return Perm(np.concatenate([first.images, second.images.astype(np.intp) + first.degree]).tolist())


class SubsetLabels:
    """The points of a block action: the k-subsets of m carrier points, point
    i the i-th in lexicographic order, for 0 < k < m or k = 1.

    A subset's point is its lex rank.  For sorted points a_1 < ... < a_k
    that is C(m, k) - 1 - sum_i C(m - 1 - a_i, k - i + 1), the combinatorial
    number system (Knuth, *TAOCP* 4A, section 7.2.1.3); for a pair a < b it
    is a*m - a(a+1)/2 + b - a - 1.  :meth:`label_rows` gives the block
    action of carrier permutations from this closed form: it maps every
    subset's points by one gather over a block of image rows, then ranks
    them.  For pairs the rank is one more gather, from an m x m table of the
    closed form at both orders of every two points, in the labels' key
    dtype; larger subsets are sorted and ranked by the sum.
    """

    def __init__(self, m: int, k: int):
        self.m, self.k, self.n = m, k, math.comb(m, k)
        self.dtype = identity(self.n).images.dtype
        # points[j] holds the (j+1)-th point of every subset
        self.points = np.fromiter(combinations(range(m), k), np.dtype((np.intp, k)), self.n).T.copy()
        # C(t, j) for t < m and j <= k; a rank's terms never exceed n
        self._binomials = np.array([[min(math.comb(t, j), self.n) for t in range(m)] for j in range(k + 1)])
        self._pair_table = None
        if k == 2:
            a, b = np.indices((m, m))
            ranks = self._ranks([np.minimum(a, b), np.maximum(a, b)])
            self._pair_table = np.where(a == b, 0, ranks).astype(self.dtype)

    def _ranks(self, ascending) -> np.ndarray:
        """The lex ranks of subsets given by their points in ascending order,
        ``ascending[i]`` the (i+1)-th point of each: the closed form."""
        rank = self.n - 1
        for i, points in enumerate(ascending):
            rank = rank - self._binomials[self.k - i, self.m - 1 - points]
        return rank

    def label_rows(self, rows: np.ndarray) -> np.ndarray:
        """The image rows, on the n labels, of the carrier permutations whose
        image rows on the m carrier points ``rows`` holds, in the labels'
        key dtype."""
        images = rows[:, self.points]  # every subset's image points, unsorted
        if self._pair_table is not None:
            return self._pair_table[images[:, 0], images[:, 1]]
        return self._ranks(np.sort(images, axis=1).swapaxes(0, 1)).astype(self.dtype)


def _certified(name, labels, m, gens, stab_gens, order, warnings=(), stab_order=None, k=None) -> LabelledAction:
    """The action on ``labels`` of a carrier group of order ``order``, certified.

    ``gens`` and ``stab_gens`` are (carrier, label) pairs of permutations, of
    the m carrier points and of the n labels, that generate the label group
    G and a group D of stabiliser pairs.  Each route below proves |G| and
    G_0 with no chain of G on the labels, builds G_0's one chain, the
    action's ``stabiliser``, and raises :class:`CrossCheckFailed` unless (a)
    a deterministic chain has order ``order``, (b) label 0 has an orbit of
    length n, (c) every stabiliser pair fixes label 0 and lies in that
    chain's group, and (d) |D| is ``order``/n.  A random chain would prove
    only a lower bound on an order (Seress, *Permutation Group Algorithms*,
    2003, ch. 4).

    The carrier route, for labels that are the k-subsets of the carrier in
    lex order (pairs of points, k-subsets, natural points as 1-subsets),
    builds no chain in degree n or m + n.  Each label part must equal the
    block action of its carrier part by the rank form of
    :class:`SubsetLabels`, a second route beside :func:`_induced`'s binary
    search.  The block action is a homomorphism of the carrier group C onto
    G, so |G| <= |C|, and (a) is C's chain on the carrier.  It is faithful,
    since k < m or k = 1: a permutation that moves a point a to b moves
    every k-subset that holds a but not b.  So D, of the carrier parts of
    ``stab_gens``, acts on the labels as on the carrier, and by (b), (c) and
    (d) |G| >= n|D| = ``order``: the two agree, and D is G_0.  The engine's
    streams of G_0 through the rank form check faithfulness again: exactly
    one row is the identity on the labels.

    The diagonal route, for the unitary points and cosets, is (a) on G_D,
    the group of the pairs on carrier and labels, carrier first; D acts on
    labels and carrier, labels first.  By (a) and (b) the stabiliser of
    label 0 in G_D has order ``order``/n, and by (c) and (d) D is all of it,
    so D holds the kernel K of G_D on the labels, and G_0 = D/K.  K = 1
    exactly when every base point of D's chain is a label; otherwise |K|
    counts D's elements that fix every label, and only an action that
    declares its carrier's stabiliser order ``stab_order``, as a coset
    action does, may have one.  An action with a kernel, or whose chain of
    G_D has a base point among the labels, so that its carrier parts do not
    determine G, is certified again through the carrier route with k = 1,
    its labels as their own carrier, as a group of order ``order``/|K|.
    Otherwise G_D maps one to one onto both parts: the carrier parts are G.
    """
    n = len(labels)
    group = PermGroup(n, [g for _, g in gens])
    H = PermGroup(n, [g for _, g in stab_gens])
    if k is None:
        subsets, route = None, "diagonal"
        chain = StabChain(m + n, [diagonal(c, g) for c, g in gens])
        members = [diagonal(c, g) for c, g in stab_gens]
        stab = PermGroup(n + m, [diagonal(g, c) for c, g in stab_gens])
    else:
        subsets, route, pairs = SubsetLabels(m, k), "carrier", gens + stab_gens
        carriers = np.array([c.images for c, _ in pairs], identity(m).images.dtype).reshape(len(pairs), m)
        images = np.array([g.images for _, g in pairs]).reshape(len(pairs), n)
        if not np.array_equal(subsets.label_rows(carriers), images):
            raise CrossCheckFailed("%s: a label generator is not the rank form of its carrier generator" % name)
        chain = StabChain(m, [c for c, _ in gens])
        members = [c for c, _ in stab_gens]
        stab = PermGroup(m, members)
    if chain.order() != order:
        raise CrossCheckFailed("%s: %s order %d, expected %d" % (name, route, chain.order(), order))
    orbit = group.schreier_vector.orbits[0]
    if len(orbit) != n:
        raise CrossCheckFailed("%s: label 0 has an orbit of length %d, not %d" % (name, len(orbit), n))
    for (_, g), member in zip(stab_gens, members):
        if g(0) != 0:
            raise CrossCheckFailed("%s: a point stabiliser generator moves label 0" % name)
        if not chain.contains(member):
            raise CrossCheckFailed("%s: a point stabiliser generator is not in the group" % name)
    if stab.order() * n != order:
        raise CrossCheckFailed("%s: point stabiliser order %d, expected %d" % (name, stab.order(), order // n))
    if k is None:
        kernel = 1
        if any(level.point >= n for level in stab.chain.levels):
            if stab_order is None:
                raise CrossCheckFailed("%s: the action has a kernel, and declares no stabiliser order" % name)
            kernel = sum(int(np.count_nonzero((block[:, :n] == np.arange(n)).all(axis=1))) for block in stab.iter_blocks())
            warnings += ("action has kernel of order %d" % kernel,)
        if kernel > 1 or any(level.point >= m for level in chain.levels):
            on_labels = ([(g, g) for _, g in part] for part in (gens, stab_gens))
            return _certified(name, labels, n, *on_labels, order // kernel, warnings, k=1)
    H.adopt_certificate(stab.order())
    group.adopt_certificate(order, H)
    return LabelledAction(group, labels, name, warnings, (m, gens, stab_gens), subsets, stab)


def _induced(blocks: list[tuple], carrier_gens: list[Perm]) -> list[Perm]:
    """The permutations of ``blocks`` induced by permutations of the points
    the blocks hold.

    ``blocks`` are sorted point tuples of one size, one per label, in label
    order, which must also be ascending.  Each generator maps every block in
    one gather; each image row is sorted, and found among the blocks by a
    binary search over their rows' big-endian bytes, whose order is that of
    the tuples.  A generator that maps some block to a tuple outside the
    list raises :class:`CrossCheckFailed`.
    """
    if not carrier_gens:
        return []
    dtype = carrier_gens[0].images.dtype
    points = np.array(blocks, dtype=np.intp).reshape(len(blocks), -1)
    row = np.dtype((np.void, dtype.itemsize * points.shape[1]))
    where = np.ascontiguousarray(points, dtype=dtype).view(row).ravel()
    induced = []
    for g in carrier_gens:
        images = np.sort(g.images[points], axis=1).view(row).ravel()
        at = np.searchsorted(where, images).clip(max=len(where) - 1)
        if not (where[at] == images).all():
            raise CrossCheckFailed("generator does not permute the blocks")
        induced.append(Perm(at.tolist()))
    return induced


def _within_caps(degree: int, order: int | None, caps: Caps) -> None:
    """Refuse an action of ``degree`` points and order ``order`` over the
    point cap, then the group cap, then, when an exact search is asked, the
    exact-search cap: every cap refusal of an action is this one.  An order
    of None meets the point cap alone, for a caller that knows the degree
    before it can afford the order."""
    if degree > caps.point_cap:
        raise CapExceeded("degree %d exceeds point cap %d" % (degree, caps.point_cap))
    if order is None:
        return
    if order > caps.group_cap:
        raise CapExceeded("group order %d exceeds cap %d" % (order, caps.group_cap))
    if caps.exact_cap is not None and degree > caps.exact_cap:
        raise CapExceeded("degree %d exceeds exact-search cap %d" % (degree, caps.exact_cap))


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
    if even_only and n < 3:
        raise ValueError("alternating groups need n >= 3")
    order = math.factorial(n) // (2 if even_only else 1)
    _within_caps(math.comb(n, k), order, caps)
    subsets = list(combinations(range(n), k))
    parts = (range(k), range(k, n))  # label 0 is the first part
    if even_only:
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

    gens, stab_gens = (list(zip(g, _induced(subsets, g))) for g in (base_gens, stab_gens))
    return _certified(name, tuple(subsets), n, gens, stab_gens, order, k=k)


# -- coset actions ------------------------------------------------------------------


def coset_action(
    G: PermGroup,
    H: PermGroup,
    name: str = "coset",
    caps: Caps = DEFAULT_CAPS,
) -> LabelledAction:
    """The action of G on the right cosets of H, with point 0 = H itself.

    Each coset is keyed by :meth:`StabChain.coset_representative` of H's
    chain.  The returned action is the image group, certified by
    :func:`_certified` with the image of H as G_0; a kernel, the core of H
    in G, is counted there.
    """
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    order_g, order_h = G.order(), H.order()
    index = order_g // order_h
    _within_caps(index, order_g, caps)

    canonical = H.chain.coset_representative
    start = canonical(identity(G.degree))
    reps = [start]
    seen = {start: 0}
    images_per_gen = [[] for _ in G.gens]
    for rep in reps:  # grows as cosets are found
        for images, gen in zip(images_per_gen, G.gens):
            nxt = canonical(rep * gen)
            at = seen.setdefault(nxt, len(reps))
            if at == len(reps):
                reps.append(nxt)
            images.append(at)
    if len(reps) != index:
        raise CrossCheckFailed("coset enumeration found %d cosets, expected %d" % (len(reps), index))

    gens = [(g, Perm(imgs)) for g, imgs in zip(G.gens, images_per_gen)]
    stab_gens = [(h, Perm(seen[canonical(rep * h)] for rep in reps)) for h in H.gens]
    return _certified(name, tuple(range(index)), G.degree, gens, stab_gens, order_g, stab_order=order_h)


def natural_action(G: PermGroup, name: str, caps: Caps = DEFAULT_CAPS) -> LabelledAction:
    """G on its own points, labelled by index, as the 1-subsets of its
    points; an intransitive G is refused with ValueError.  Only its degree
    meets the caps, before any chain: |G| needs one."""
    _within_caps(G.degree, 1, caps)
    if not G.is_transitive():
        raise ValueError("%s is not transitive on its %d points" % (name, G.degree))
    gens, stab_gens = ([(g, g) for g in K.gens] for K in (G, G.point_stabiliser(0)))
    return _certified(name, tuple(range(G.degree)), G.degree, gens, stab_gens, G.order(), k=1)


# -- the projective line, in codes ---------------------------------------------------

LINE_INF = -2  # the code of <e2>; <e1> is LOG_ZERO, and (1, t) is log t


def _line_codes(F: FqField) -> np.ndarray:
    """The codes of the points of PG(1,F) in position order: position = code + 2."""
    return np.arange(LINE_INF, F.q - 1)


def _line_perm(codes) -> Perm:
    """The permutation of the line's positions whose images have ``codes``."""
    return Perm((as_logs(codes) + 2).tolist())


def _mat_mul(F: FqField, A, B) -> np.ndarray:
    """The product of a k x 2 and a 2 x 2 matrix of logs."""
    A, B = as_logs(A), as_logs(B)
    return log_add(F, log_mul(F, A[:, :1], B[:1]), log_mul(F, A[:, 1:], B[1:]))


def _det(F: FqField, M) -> np.ndarray:
    (a, b), (c, d) = as_logs(M)
    return log_sub(F, log_mul(F, a, d), log_mul(F, b, c))


def _mat_inv(F: FqField, M) -> np.ndarray:
    (a, b), (c, d) = as_logs(M)
    return log_div(F, [[d, log_neg(F, b)], [log_neg(F, c), a]], _det(F, M))


def _mobius(F: FqField, M) -> Perm:
    """The map (x, y) -> (x, y) M of the line, for a matrix M of logs, on
    every point at once: <e2> is the row (0, 1), and t the row (1, t)."""
    codes = _line_codes(F)
    inf = codes == LINE_INF
    x, y = _mat_mul(F, np.stack([np.where(inf, LOG_ZERO, 0), np.where(inf, 0, codes)], 1), M).T
    return _line_perm(np.where(x < 0, LINE_INF, log_div(F, y, np.where(x < 0, 0, x))))


def _extension(variant: GroupVariant, F: FqField, delta: Perm) -> list[Perm]:
    """The generators the variant adds to PSL(2,q) as permutations of the
    line over F, given the diagonal automorphism delta there."""
    if variant.family == "PSL2":
        return []
    if variant.family == "PGL2":
        return [delta]
    codes = _line_codes(F)
    phi = _line_perm(np.where(codes < 0, codes, codes * F.p % (F.q - 1)))  # t -> t^p
    if variant.family == "PSigmaL2":
        return [phi]
    if variant.family == "PGammaL2":
        return [delta, phi]
    return [delta * phi**variant.j]


# -- the projective-pair (C2) family -------------------------------------------------


def psl2_c2_action(variant: GroupVariant, caps: Caps = DEFAULT_CAPS) -> LabelledAction:
    """The chosen group acting on unordered pairs of points of PG(1,q).

    Point 0 is the pair {<e1>, <e2>}.  A label is the sorted pair of the
    two points' codes, so point 0 is (LINE_INF, LOG_ZERO).  Degree
    :func:`psl2_degree`, and |G| = [G : PSL(2,q)] * |PSL(2,q)|.
    """
    q = variant.q
    if q < 4:
        raise ValueError("need q >= 4")
    order = variant.index * q * (q * q - 1) // math.gcd(2, q - 1)
    _within_caps(psl2_degree("c2", q), order, caps)
    F = field_create(variant.p, variant.f)
    Z = LOG_ZERO
    # u, the torus diag(lambda, 1/lambda), the swap, and delta = diag(lambda, 1)
    mats = ([[0, 0], [Z, 0]], [[1, Z], [Z, q - 2]], [[Z, 0], [log_neg(F, 0), Z]], [[1, Z], [Z, 0]])
    u, d, s, delta = (_mobius(F, M) for M in mats)
    pairs = list(combinations(range(q + 1), 2))
    carrier = [u, d, s] + _extension(variant, F, delta)
    gens = list(zip(carrier, _induced(pairs, carrier)))

    labels = tuple(combinations(_line_codes(F).tolist(), 2))  # position order is code order
    warnings = ()
    if q == 5:
        warnings = ("point stabiliser is not maximal for q = 5; action is imprimitive",)
    # PSL(2,q)'s torus and swap generators fix alpha = {<e1>, <e2>}
    return _certified("%s/proj-pairs" % variant.describe(), labels, q + 1, gens, gens[1:], order, warnings, k=2)


# -- the unitary-model (C3) family ---------------------------------------------------


def c3_isotropic(F2: FqField, q: int, b) -> np.ndarray:
    """Whether b^(q+1) = -1, for each scalar log b: then u + bv is isotropic,
    and b labels no point."""
    b = as_logs(b)
    m = F2.q - 1
    return (b >= 0) & (b * (q + 1) % m == m // 2)


def c3_canonical_logs(F2: FqField, q: int, b) -> np.ndarray:
    """The canonical log min(b, -b^(-q)) of each nonzero scalar log b:
    omega_b and omega_{-b^(-q)} are one point, and -b^(-q) has log
    m/2 - qb mod m, m = q^2 - 1."""
    b = as_logs(b)
    m = F2.q - 1
    return np.minimum(b, (m // 2 - q * b) % m)


def c3_label_logs(F2: FqField, q: int) -> list[int]:
    """Ascending canonical logs of the scalar points (b with b^{q+1} != -1)."""
    log = np.arange(F2.q - 1)
    return np.flatnonzero(~c3_isotropic(F2, q, log) & (c3_canonical_logs(F2, q, log) == log)).tolist()


def su2_conjugator(F2: FqField, q: int) -> np.ndarray:
    """A matrix C of logs with C * conj(C)^T antisymmetric, so C^-1 SL2(q) C = SU2(q).

    Entries are chosen deterministically: b0 = lambda^((q-1)/2) is the
    least-log solution of b0^{q+1} = -1 and eps = lambda^{(q+1)/2} (so
    eps^q = -eps).
    """
    b0, eps = (q - 1) // 2, (q + 1) // 2
    return as_logs([[b0, 0], [log_neg(F2, eps), log_mul(F2, eps, log_pow(F2, b0, -q))]])


def psl2_c3_action(variant: GroupVariant, caps: Caps = DEFAULT_CAPS) -> LabelledAction:
    """The chosen group acting on orthogonal pairs of nondegenerate 1-spaces.

    The model is unitary: the socle is realised as the image of SU(2,q)
    (conjugate of SL(2,q) preserving the identity hermitian form on a plane
    over GF(q^2)).  Point 0 is alpha = {<u>, <v>}; every other point is
    omega_b = {<u+bv>, <u-b^{-q}v>} for a scalar b with b^{q+1} != -1,
    labelled by the canonical log min(b, -b^{-q}); alpha is labelled
    LOG_ZERO, which b = 0 would be.  Degree :func:`psl2_degree`.
    """
    q, p, f = variant.q, variant.p, variant.f
    if p == 2 or q < 5:
        raise ValueError("the unitary-model action needs odd q >= 5")
    degree, order = psl2_degree("c3", q), variant.index * q * (q * q - 1) // 2
    _within_caps(degree, order, caps)
    F2 = field_create(p, 2 * f)
    m, Z = F2.q - 1, LOG_ZERO
    scalar_logs = c3_label_logs(F2, q)
    if len(scalar_logs) + 1 != degree:
        raise CrossCheckFailed("scalar label count %d != degree - 1" % len(scalar_logs))
    labels = (LOG_ZERO, *scalar_logs)
    # alpha is {<e2>, <e1>}, at positions 0 and 1, and omega_b the codes b and -b^(-q)
    ends = np.stack([scalar_logs, log_neg(F2, log_pow(F2, scalar_logs, -q))], 1)
    blocks = [(0, 1), *map(tuple, (np.sort(ends, axis=1) + 2).tolist())]

    C = su2_conjugator(F2, q)
    C_inv = _mat_inv(F2, C)
    mu, minus_one = q + 1, log_neg(F2, 0)  # mu: a primitive element of the GF(q) subfield
    sl2_gens = ([[0, 0], [Z, 0]], [[mu, Z], [Z, m - mu]], [[Z, 0], [minus_one, Z]])
    su_mats = [_mat_mul(F2, _mat_mul(F2, C_inv, M), C) for M in sl2_gens]
    identity = np.where(np.eye(2, dtype=bool), 0, Z)
    for M in su_mats:
        if _det(F2, M) != 0:
            raise CrossCheckFailed("conjugated generator does not have determinant 1")
        if (_mat_mul(F2, M, log_pow(F2, M.T, q)) != identity).any():
            raise CrossCheckFailed("conjugated generator is not unitary")

    mat_t = [[q - 1, Z], [Z, m - (q - 1)]]  # SU2 torus
    mat_w = [[Z, 0], [minus_one, Z]]  # SU2 swap of <u>, <v>
    mat_b = [[q - 1, Z], [Z, 0]]  # diagonal coset rep in GU2
    *line, delta = (_mobius(F2, M) for M in (*su_mats, mat_t, mat_w, mat_b))
    # SU2's three generators, then torus and swap (both fix alpha), then the extension
    line += _extension(variant, F2, delta)
    # the carrier: the isotropic points, at positions 2 + log b
    isotropic = [(2 + log,) for log in np.flatnonzero(c3_isotropic(F2, q, np.arange(m))).tolist()]
    gens = list(zip(_induced(isotropic, line), _induced(blocks, line)))
    name = "%s/unitary-pairs" % variant.describe()
    return _certified(name, labels, len(isotropic), gens[:3] + gens[5:], gens[3:], order)


# -- catalogue ingestion --------------------------------------------------------------


class CatalogueError(ValueError):
    pass


@dataclass
class CatalogueEntry:
    """One catalogue record.  Reading ``group`` or ``subgroup`` first checks
    the declared orders and that every ``sub gen`` lies in the group, and
    raises :class:`CatalogueError` at the record's ``expect`` line, where the
    group's chain stops as soon as its order passes the declared one."""

    name: str
    expected_order: int
    expected_suborder: int | None
    degree: int
    line: int
    _groups: tuple = field(repr=False)  # (group, subgroup or None), unchecked

    @cached_property
    def _checked(self) -> tuple:
        group, subgroup = self._groups
        try:
            order = group.order(self.expected_order)
        except CapExceeded:
            order = "above %d" % self.expected_order
        if order != self.expected_order:
            error = "order %s, declared %d" % (order, self.expected_order)
        elif subgroup is not None and not subgroup.is_subgroup_of(group):
            error = "'sub gen' not inside the group"
        elif subgroup is not None and subgroup.order() != self.expected_suborder:
            error = "subgroup order %d, declared %d" % (subgroup.order(), self.expected_suborder)
        else:
            return group, subgroup
        raise CatalogueError("line %d: entry %r: %s" % (self.line, self.name, error))

    group = property(lambda self: self._checked[0])
    subgroup = property(lambda self: self._checked[1])

    def action(self, caps: Caps = DEFAULT_CAPS) -> LabelledAction:
        """The action on the cosets of the subgroup, or the natural action
        when the record declares none.  Its declared degree, the index
        order // suborder or the record's ``degree``, and its declared order
        meet the caps before ``group`` is read, so before any chain."""
        suborder = self.expected_suborder
        degree = self.degree if suborder is None else self.expected_order // suborder
        _within_caps(degree, self.expected_order, caps)
        if suborder is None:
            return natural_action(self.group, self.name, caps)
        return coset_action(self.group, self.subgroup, self.name, caps)


def load_catalogue(path: str | Path, caps: Caps = DEFAULT_CAPS) -> dict[str, CatalogueEntry]:
    """Parse a catalogue file; each entry's declared orders are checked on
    its first use (see :class:`CatalogueEntry`).

    Format, one record per group: ``name <id>``, ``degree <n>``, one or more
    ``gen <cycles>`` lines, optional ``sub gen <cycles>`` lines, and a
    terminating ``expect order <N>[ suborder <M>]`` line.  Cycle notation is
    1-based, e.g. ``(1,2,3)(4,5)``.  Blank lines and ``#`` comments are
    ignored.  Parse problems raise :class:`CatalogueError` with the
    offending line number, and a degree over ``caps.point_cap`` raises
    :class:`CapExceeded` before the record's generators are read.  Entries
    with the same degree and generator lines share one group, and so one
    chain; each entry's declared orders are still compared.
    """
    text = Path(path).read_text(encoding="utf-8")
    entries: dict[str, CatalogueEntry] = {}
    name = None
    degree = None
    gens: list[Perm] = []
    sub_gens: list[Perm] = []
    groups: dict[tuple[int, tuple[bytes, ...]], PermGroup] = {}  # by degree and generator keys

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
            if degree is not None:
                fail(lineno, "second 'degree' in record %r" % name)
            try:
                degree = int(line[7:])
            except ValueError:
                fail(lineno, "bad degree %r" % line[7:])
            if degree < 1:
                fail(lineno, "degree %d is below 1" % degree)
            if degree > caps.point_cap:
                raise CapExceeded("line %d: degree %d exceeds point cap %d" % (lineno, degree, caps.point_cap))
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
            for what, value in (("order", expected), ("suborder", suborder)):
                if value is not None and value < 1:
                    fail(lineno, "%s %d is below 1" % (what, value))
            if (suborder is None) != (not sub_gens):
                fail(lineno, "suborder and 'sub gen' lines must come together")
            shape = (degree, tuple(g.key for g in gens))
            group = groups.setdefault(shape, PermGroup(degree, gens))
            subgroup = PermGroup(degree, sub_gens) if sub_gens else None
            entries[name] = CatalogueEntry(name, expected, suborder, degree, lineno, (group, subgroup))
            name = None
        else:
            fail(lineno, "unrecognised directive %r" % line.split()[0])
    if name is not None:
        raise CatalogueError("record %r has no 'expect' line" % name)
    return entries


def bundled_catalogue_path() -> Path:
    """Path of the catalogue file shipped with the package."""
    return Path(__file__).resolve().parent / "data" / "catalogue.txt"
