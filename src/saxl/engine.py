"""Domain-level analysis of a labelled transitive action.

Everything here is phrased in terms of base pairs: a pair of points whose
pointwise stabiliser is trivial.  The central quantities are

* r, the number of regular suborbits (H-orbits of full length |H|),
* Q, the exact probability that a uniformly random ordered pair of points
  is NOT a base, computed two independent ways and cross-checked,
* the union-bound estimates Q-hat (per conjugacy class of prime-order
  elements) and Q-tilde (classes pooled by order and class size), whose
  classes are searched on the action's small faithful carrier (degree m,
  such as q + 1 for the projective families) while fixed points are
  counted on the labels,
* the base-pair graph on the point set, its star property (every two
  vertices share a common neighbour), and clique/independence numbers.

All verdicts are exact: rationals are `fractions.Fraction`, graph adjacency
is packed bit rows, and every quantity with two available computation routes
is compared across both routes before being returned; a disagreement raises
:class:`CrossCheckFailed`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .actions import LabelledAction
from .gf import prime_factors
from .group import CapExceeded, CrossCheckFailed, PermGroup, conjugacy_class
from .perm import Perm, identity, row_keys

GRAPH_CAP = 2 * 10**4  # the largest degree whose Saxl graph is built, n^2/8 bytes


# -- cached per-action analysis -------------------------------------------------------


class _Analysis:
    """Suborbit table of one action, built once; every query reads it.

    ``orbits`` are the orbits of H = G_0, the trees of H's Schreier forest;
    ``lengths[i]`` is the length of ``orbits[i]`` and ``regular[i]`` whether it
    is regular (of length |H|); ``flags[b]``, whether {0, b} is a base pair, is
    ``regular`` at b's orbit index, and ``tree`` is G's forest, whose path
    product u_a maps 0 to a.  Each suborbit's flag is computed by two
    independent routes that must agree: orbit length (a breadth-first search
    over the generators of H) versus fixed points ({0, b} is a base exactly
    when no non-identity element of H fixes b).  The fixed points come from
    H's elements, streamed in blocks of label rows from the action's one
    chain of H (:meth:`saxl.actions.LabelledAction.stabiliser_blocks`) and
    not kept.  One comparison of a block with the identity's images marks
    every fixed point of every row, and a row that is not all fixed is not
    the identity.  The same pass checks that exactly one row is the
    identity, so that H acts faithfully on the labels, and Burnside's count
    sum_h fix(h) == |H| * (number of H-orbits).
    """

    def __init__(self, action: LabelledAction):
        H = action.stabiliser0()
        n = action.degree
        self.n = n
        self.order_h = H.order()
        self.tree = action.group.schreier_vector
        self.orbits = H.orbits()  # ordered by minimal point
        points = identity(n).images
        fixed_by_nonidentity = np.zeros(n, dtype=bool)
        fix_total = identities = 0
        for _, block in action.stabiliser_blocks():
            fixed = block == points
            fix_total += int(np.count_nonzero(fixed))
            moved = ~fixed.all(axis=1)
            identities += len(block) - int(np.count_nonzero(moved))
            fixed_by_nonidentity |= fixed[moved].any(axis=0)
        _check_faithful(identities)
        if fix_total != self.order_h * len(self.orbits):
            raise CrossCheckFailed(
                "Burnside count: sum of fixed points %d != |H| * %d orbits = %d"
                % (fix_total, len(self.orbits), self.order_h * len(self.orbits))
            )
        self.lengths = np.array([len(orbit) for orbit in self.orbits])
        self.regular = self.lengths == self.order_h
        reps = [orbit[0] for orbit in self.orbits]
        by_fixed_points = ~fixed_by_nonidentity[reps]
        for rep, by_length, by_fixed in zip(reps, self.regular, by_fixed_points):
            if by_length != by_fixed:
                raise CrossCheckFailed(
                    "suborbit at %d: length route says %s, fixed-point route says %s"
                    % (rep, by_length, by_fixed)
                )
        self.flags = self.regular[H.schreier_vector.orbit_index]
        self.regular_count = int(self.regular.sum())


def _check_faithful(identities: int) -> None:
    """Refuse a stream of H's elements in which other than exactly one row
    is the identity on the labels."""
    if identities != 1:
        raise CrossCheckFailed("%d streamed elements of H are the identity on the labels, not 1" % identities)


def _analysis(action: LabelledAction) -> _Analysis:
    cached = action._cache.get("analysis")
    if cached is None:
        cached = _Analysis(action)
        action._cache["analysis"] = cached
    return cached


# -- base pairs, suborbits, Q ----------------------------------------------------------


def _check_points(n: int, *points: int) -> None:
    """Refuse, with a ValueError, a point outside 0..n-1."""
    if not all(0 <= p < n for p in points):
        raise ValueError("points must lie in 0..%d" % (n - 1))


def is_base_pair(action: LabelledAction, a: int, b: int) -> bool:
    """Whether {a, b} has trivial pointwise stabiliser."""
    data = _analysis(action)
    _check_points(data.n, a, b)
    if a == b:
        raise ValueError("a base pair needs two distinct points")
    return bool(data.flags[data.tree.inverse(a)[b]])


def suborbits(action: LabelledAction) -> list[tuple[int, int]]:
    """(representative, length) for each orbit of H = G_0."""
    data = _analysis(action)
    return [(orbit[0], length) for orbit, length in zip(data.orbits, data.lengths.tolist())]


def regular_suborbit_count(action: LabelledAction) -> int:
    """The number of suborbits of full length |H|."""
    return _analysis(action).regular_count


def q_exact(action: LabelledAction) -> Fraction:
    """Exact probability that a random ordered pair of points is not a base.

    Computed as 1 - r|H|/n and, independently, as the exact count of ordered
    non-base pairs over n^2; the two values must agree.
    """
    data = _analysis(action)
    n = data.n
    from_r = 1 - Fraction(data.regular_count * data.order_h, n)
    non_base = int(data.lengths[~data.regular].sum())
    from_count = Fraction(non_base * n, n * n)
    if from_r != from_count:
        raise CrossCheckFailed(
            "Q cross-check failed: %s (regular count) vs %s (pair count)"
            % (from_r, from_count)
        )
    return from_r


# -- class-based estimates -------------------------------------------------------------


def _prime_orders(rows: np.ndarray, primes: list[int]) -> np.ndarray:
    """The order of each row of permutation images, or 0 where it is not a
    prime; ``primes`` must hold every prime that divides an order.

    x has prime order p exactly when x != 1 and x^p = 1, so each p takes
    the p-th powers of all rows at once, squaring and multiplying by
    binary powering with one row-wise gather a step."""
    points = np.arange(rows.shape[1])
    x = rows.astype(np.intp)
    moved = (x != points).any(axis=1)
    orders = np.zeros(len(x), dtype=np.intp)
    for p in primes:
        power = x
        for bit in bin(p)[3:]:
            power = np.take_along_axis(power, power, axis=1)
            if bit == "1":
                power = np.take_along_axis(x, power, axis=1)
        orders[moved & (power == points).all(axis=1)] = p
    return orders


def _prime_class_data(action: LabelledAction):
    """Fuse prime-order elements of H into G-classes, on the action's carrier.

    Returns (g_classes, pools) where g_classes entries are
    (order, class_size, count_in_H) per G-class meeting H, and pools maps
    (order, G-class size) to the number of elements of H in the H-classes
    with that key.  H is enumerated once, in blocks of rows, each with its
    carrier and its label images, from the action's one chain of H
    (:meth:`saxl.actions.LabelledAction.stabiliser_blocks`).  The carrier
    rows give each element's key and, by powers of all rows at once, its
    order, and the label rows give fix(x) by one comparison, and must hold
    exactly one identity row.  The class searches run over keys in the
    carrier's degree m.  Every G-class entry is cross-checked against the
    orbit-counting identity |x^G meet H| * n == fix(x) * |x^G|, count and
    size from the carrier search and fix(x) from the labels, and the pools
    against the G-class counts pooled by the same key.
    """
    cached = action._cache.get("prime_classes")
    if cached is not None:
        return cached
    if not action.carrier:
        raise ValueError("%s has no certified carrier" % action.name)
    m, gens, stab_gens = action.carrier
    n = action.degree
    G = PermGroup(m, [c for c, _ in gens])
    H = PermGroup(m, [c for c, _ in stab_gens])
    points = identity(n).images
    primes = prime_factors(action.stabiliser0().order())
    fixed: dict[bytes, tuple[int, int]] = {}  # carrier key -> (prime order, fixed labels)
    identities = 0
    # H in its chain's order: Q-hat and Q-tilde are sums over classes, so the
    # order in which classes are found does not matter
    for carrier, labels in action.stabiliser_blocks():
        orders = _prime_orders(carrier, primes)
        prime = orders > 0
        fix = np.count_nonzero(labels == points, axis=1)
        identities += int(np.count_nonzero(fix == n))
        fixed.update(zip(row_keys(carrier[prime]), zip(orders[prime].tolist(), fix[prime].tolist())))
    _check_faithful(identities)
    unassigned = set(fixed)

    g_classes = []
    membership: dict[bytes, int] = {}
    for h, (order, fix) in fixed.items():
        if h not in unassigned:
            continue
        cls = conjugacy_class(G, h)
        hits = cls & unassigned
        size, count = len(cls), len(hits)
        del cls  # hold one G-class at a time: the next search must not overlap it
        unassigned -= hits
        membership.update(dict.fromkeys(hits, len(g_classes)))
        if count * n != fix * size:
            rep = Perm(np.frombuffer(h, identity(m).images.dtype).tolist())
            raise CrossCheckFailed("orbit-counting identity failed for class of %s" % (rep.cycle_string(),))
        g_classes.append((order, size, count))

    pools_h: dict[tuple[int, int], int] = {}
    seen: set[bytes] = set()
    for h, (order, _) in fixed.items():
        if h in seen:
            continue
        cls_h = conjugacy_class(H, h)
        seen |= cls_h
        key = (order, g_classes[membership[h]][1])
        pools_h[key] = pools_h.get(key, 0) + len(cls_h)

    # the two partitions must cover the same elements, pool by pool
    pools_g: dict[tuple[int, int], int] = {}
    for order, size, count in g_classes:
        key = (order, size)
        pools_g[key] = pools_g.get(key, 0) + count
    if pools_g != pools_h:
        raise CrossCheckFailed("H-class pooling disagrees with G-class intersection")

    result = (g_classes, pools_h)
    action._cache["prime_classes"] = result
    return result


def q_hat(action: LabelledAction) -> Fraction:
    """Union-bound estimate: sum of |x^G meet H|^2 / |x^G| over prime-order
    G-classes.  Always at least q_exact."""
    g_classes, _ = _prime_class_data(action)
    return sum(
        (Fraction(count * count, size) for _, size, count in g_classes),
        Fraction(0),
    )


def q_tilde(action: LabelledAction) -> Fraction:
    """Coarser estimate: H-classes pooled by (prime order, G-class size);
    each pool of total H-size s against common class size m contributes
    s^2/m.  Always at least q_hat."""
    _, pools = _prime_class_data(action)
    return sum(
        (Fraction(total * total, m) for (_, m), total in pools.items()),
        Fraction(0),
    )


def lemma_calc_bound(a_sum: int, b_min: int, c: int) -> Fraction:
    """The estimate B * (A/B)^c = A^c / B^(c-1)."""
    if a_sum < 0 or b_min < 1 or c < 1:
        raise ValueError("need A >= 0, B >= 1, c >= 1")
    return Fraction(a_sum**c, b_min ** (c - 1))


def t_value(action: LabelledAction) -> int:
    """Largest m with Q < 1/m.  For Q = 0 the value is unbounded and the
    action degree is returned as a sentinel (flagged in reports)."""
    q = q_exact(action)
    if q >= 1:
        raise ValueError("Q >= 1: the action is not base-two")
    if q == 0:
        return action.degree
    return (q.denominator - 1) // q.numerator


# -- the base-pair graph ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SaxlGraph:
    """The base-pair graph on points 0..n-1: bit b of row a of the read-only
    n x ceil(n/8) uint8 matrix ``packed`` (little-endian bits) is set when
    {a, b} is a base pair, and every vertex has ``valency`` neighbours."""

    n: int
    packed: np.ndarray
    valency: int

    def row(self, a: int) -> np.ndarray:
        """The neighbours of ``a``, as a boolean array over 0..n-1."""
        _check_points(self.n, a)
        return np.unpackbits(self.packed[a], count=self.n, bitorder="little").view(bool)

    def has_edge(self, a: int, b: int) -> bool:
        _check_points(self.n, a, b)
        return bool(self.packed[a, b >> 3] >> (b & 7) & 1)

    def bitsets(self) -> list[int]:
        """Each row as a Python int, the form the clique searches branch on."""
        return [int.from_bytes(row.tobytes(), "little") for row in self.packed]

    def _chunks(self, head: str, tail: str):
        """A string per vertex a with neighbours b > a: ``head % a``, b, ``tail`` for each b."""
        for a in range(self.n):
            later = np.flatnonzero(self.row(a)[a + 1 :]) + (a + 1)
            if later.size:
                start = head % a
                yield start + (tail + start).join(map(str, later.tolist())) + tail

    def to_edge_list(self):
        """Lines "a b" for the edges a < b, a vertex at a time; no edges is one empty line."""
        chunks = self._chunks("%d ", "\n")
        yield next(chunks, "\n")
        yield from chunks

    def to_dot(self):
        """DOT with a line "a -- b;" per edge a < b, a vertex at a time."""
        yield "graph {\n"
        yield from self._chunks("  %d -- ", ";\n")
        yield "}\n"


def saxl_graph(action: LabelledAction) -> SaxlGraph:
    """Build the full graph: vertices are points, edges are base pairs."""
    n = action.degree
    if n > GRAPH_CAP:
        raise CapExceeded("degree %d exceeds graph cap %d" % (n, GRAPH_CAP))
    cached = action._cache.get("graph")
    if cached is not None:
        return cached
    data = _analysis(action)

    # packed rows, filled in the Schreier vector's tree order: n^2/8 bytes
    packed = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
    degrees = np.zeros(n, dtype=np.intp)
    for a, w in data.tree.walk():
        row = data.flags[w]
        row[a] = False
        degrees[a] = np.count_nonzero(row)
        packed[a] = np.packbits(row, bitorder="little")
    # symmetry, one block of 128 columns against the same 128 rows at a time
    for lo in range(0, n, 128):
        columns = np.unpackbits(packed[:, lo // 8 : lo // 8 + 16], axis=1, count=min(128, n - lo), bitorder="little")
        block = np.unpackbits(packed[lo : lo + 128], axis=1, count=n, bitorder="little")
        if not np.array_equal(columns, block.T):
            raise CrossCheckFailed("base-pair adjacency is not symmetric")
    expected = data.regular_count * data.order_h - (1 if data.order_h == 1 else 0)
    if not (degrees == expected).all():
        raise CrossCheckFailed("valency %s != r*|H| = %d" % (sorted(set(degrees.tolist())), expected))
    packed.flags.writeable = False
    graph = SaxlGraph(n, packed, expected)
    action._cache["graph"] = graph
    return graph


def check_star(action: LabelledAction) -> tuple[bool, dict]:
    """Whether every two vertices have a common neighbour.

    By vertex-transitivity it suffices to check the pairs (0, rep) over
    suborbit representatives; the returned map holds the first common
    neighbour (in point order) per representative, or None on failure.
    """
    data = _analysis(action)
    if data.regular_count == 0:
        raise ValueError("the action is not base-two")
    flags = data.flags
    witnesses: dict[int, int | None] = {}
    for orbit in data.orbits[1:]:
        common = np.flatnonzero(flags & flags[data.tree.inverse(orbit[0])])
        witnesses[orbit[0]] = int(common[0]) if common.size else None
    return None not in witnesses.values(), witnesses


# -- cliques and independent sets --------------------------------------------------------


def _greedy_clique(rows, n: int, target: int) -> list[int]:
    """The largest greedy clique over start vertices in point order, stopping
    at the first of size ``target``.  From each start the clique repeatedly
    takes the least vertex adjacent to all of it."""
    best: list[int] = []
    for start in range(n):
        clique = [start]
        cand = rows[start]
        while cand:
            v = (cand & -cand).bit_length() - 1
            clique.append(v)
            cand &= rows[v]
        if len(clique) > len(best):
            best = clique
            if len(best) >= target:
                break
    return best


def clique_lower(action: LabelledAction, target: int) -> tuple[bool, list[int]]:
    """Greedy search for a clique of the requested size, scanning start
    vertices in point order.  A successful result is re-verified pairwise."""
    if target < 2:
        raise ValueError("target must be at least 2")
    graph = saxl_graph(action)
    best = _greedy_clique(graph.bitsets(), graph.n, target)
    if len(best) < target:
        return False, best
    found = best[:target]
    for i, a in enumerate(found):
        for b in found[i + 1 :]:
            if not graph.has_edge(a, b):
                raise CrossCheckFailed("greedy clique is not a clique")
    return True, found


def max_clique_exact(rows, n: int) -> list[int]:
    """Exact maximum clique: branch and bound with greedy colouring bounds,
    seeded by the greedy search, deterministic (least-vertex-first
    colouring, fixed expansion order)."""
    best = _greedy_clique(rows, n, n)

    def expand(current: list[int], cand: int):
        nonlocal best
        order: list[int] = []
        bounds: list[int] = []
        remaining = cand
        colour = 0
        while remaining:
            colour += 1
            avail = remaining
            while avail:
                v = (avail & -avail).bit_length() - 1
                bit = 1 << v
                avail &= ~(rows[v] | bit)
                remaining ^= bit
                order.append(v)
                bounds.append(colour)
        for i in range(len(order) - 1, -1, -1):
            if len(current) + bounds[i] <= len(best):
                return
            v = order[i]
            current.append(v)
            nxt = cand & rows[v]
            if nxt:
                expand(current, nxt)
            elif len(current) > len(best):
                best = current[:]
            current.pop()
            cand &= ~(1 << v)

    expand([], (1 << n) - 1)
    return best


def clique_and_independence_exact(action: LabelledAction) -> tuple[list[int], list[int]]:
    """A maximum clique and a maximum independent set, each sorted, by
    branch and bound, checking no cap: build the action with
    ``Caps(exact_cap=N)`` to refuse a degree above N first."""
    n = action.degree
    graph = saxl_graph(action)
    rows = graph.bitsets()
    clique = max_clique_exact(rows, n)
    full = (1 << n) - 1
    comp = tuple(full & ~rows[v] & ~(1 << v) for v in range(n))
    independent = max_clique_exact(comp, n)
    return sorted(clique), sorted(independent)


def size_inequality(order_g: int, order_h: int) -> bool:
    """Exact integer test of 4|H|^2 <= 3|G|."""
    if order_g <= 0 or order_h <= 0:
        raise ValueError("orders must be positive")
    return 4 * order_h * order_h <= 3 * order_g


# -- reports -----------------------------------------------------------------------------


@dataclass
class SaxlReport:
    """Full analysis record for one action; serializes to a stable JSON form."""

    name: str
    n: int
    stab_order: int
    regular_count: int
    q_exact: Fraction
    q_hat: Fraction | None
    q_tilde: Fraction | None
    t_value: int | None
    t_unbounded: bool
    star_ok: bool | None
    star_witnesses: dict | None
    clique_lb: int | None
    clique_exact: int | None
    independence_exact: int | None
    size_inequality_ok: bool
    witnesses: dict
    warnings: tuple

    def to_json_dict(self) -> dict:
        """``schema`` 1, then each field: a Fraction as {num, den}, a dict by sorted str key."""

        def encode(x):
            if isinstance(x, Fraction):
                return {"num": x.numerator, "den": x.denominator}
            if isinstance(x, dict):
                return {str(k): v for k, v in sorted(x.items())}
            return x

        return {"schema": 1, **{f.name: encode(getattr(self, f.name)) for f in fields(self)}}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def build_report(
    action: LabelledAction,
    with_classes: bool = True,
    with_star: bool = True,
    clique_target: int | None = None,
    exact_search: bool = False,
) -> SaxlReport:
    """Assemble a report; heavier sections are opt-in or opt-out flags.  The
    exact search meets its cap when the action is built, not here."""
    data = _analysis(action)
    q = q_exact(action)
    qh = q_hat(action) if with_classes else None
    qt = q_tilde(action) if with_classes else None
    if qh is not None and not (q <= qh <= qt):
        raise CrossCheckFailed("estimate chain Q <= Q-hat <= Q-tilde failed")

    t_val = None
    t_unbounded = False
    star_ok = None
    star_witnesses = None
    witnesses = {}
    if q < 1:
        t_val = t_value(action)
        t_unbounded = q == 0
        if with_star:
            star_ok, star_witnesses = check_star(action)

    clique_lb = None
    if clique_target is not None:
        ok, verts = clique_lower(action, clique_target)
        clique_lb = len(verts) if ok else None
        witnesses["clique"] = verts if ok else None
    clique_ex = independence_ex = None
    if exact_search:
        clique, independent = clique_and_independence_exact(action)
        clique_ex, independence_ex = len(clique), len(independent)
        witnesses["clique_exact"] = clique
        witnesses["independent_exact"] = independent

    return SaxlReport(
        name=action.name,
        n=data.n,
        stab_order=data.order_h,
        regular_count=data.regular_count,
        q_exact=q,
        q_hat=qh,
        q_tilde=qt,
        t_value=t_val,
        t_unbounded=t_unbounded,
        star_ok=star_ok,
        star_witnesses=star_witnesses,
        clique_lb=clique_lb,
        clique_exact=clique_ex,
        independence_exact=independence_ex,
        size_inequality_ok=size_inequality(action.group.order(), data.order_h),
        witnesses=witnesses,
        warnings=action.warnings,
    )
