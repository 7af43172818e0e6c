"""Domain-level analysis of a labelled transitive action.

Everything here is phrased in terms of base pairs: a pair of points whose
pointwise stabiliser is trivial.  The central quantities are

* r, the number of regular suborbits (H-orbits of full length |H|),
* Q, the exact probability that a uniformly random ordered pair of points
  is NOT a base, computed two independent ways and cross-checked,
* the union-bound estimates Q-hat (per conjugacy class of prime-order
  elements) and Q-tilde (classes pooled by order and class size),
* the base-pair graph on the point set, its star property (every two
  vertices share a common neighbour), and clique/independence numbers.

All verdicts are exact: rationals are `fractions.Fraction`, graph adjacency
is exact bitsets, and every quantity with two available computation routes
is compared across both routes before being returned; a disagreement raises
:class:`CrossCheckFailed`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .actions import LabelledAction
from .gf import is_prime
from .group import CapExceeded, CrossCheckFailed, conjugacy_class
from .perm import Perm, identity


# -- cached per-action analysis -------------------------------------------------------


class _Analysis:
    """Suborbit table and base-pair flags for one action, built once.

    ``point_flags[b]`` records whether {0, b} is a base pair.  Each suborbit
    representative's flag is computed by two independent routes that must
    agree: orbit length (a regular H-orbit, from a breadth-first search over
    the generators of H = G_0) versus fixed points ({0, b} is a base exactly
    when no non-identity element of H fixes b, from H's chain-enumerated
    elements, streamed and not kept).  The same pass over H checks Burnside's
    count sum_h fix(h) == |H| * (number of H-orbits).
    """

    def __init__(self, action: LabelledAction):
        H = action.stabiliser0()
        n = action.degree
        self.n = n
        self.order_h = H.order()
        # G is transitive, so its chain's base starts at 0 and level 0 holds a
        # transversal of G_0 in G; only a degree-1 chain has no levels
        levels = action.group.chain.levels
        self.transversal = levels[0].transversal if levels else {0: identity(1)}
        self.orbits = H.orbits()  # ordered by minimal point
        points = np.arange(n)
        fixed_by_nonidentity = np.zeros(n, dtype=bool)
        fix_total = 0
        for h in H.iter_elements():
            fixed = (h.images == points).nonzero()[0]
            fix_total += fixed.size
            if fixed.size < n:
                fixed_by_nonidentity[fixed] = True
        if fix_total != self.order_h * len(self.orbits):
            raise CrossCheckFailed(
                "Burnside count: sum of fixed points %d != |H| * %d orbits = %d"
                % (fix_total, len(self.orbits), self.order_h * len(self.orbits))
            )
        self.point_flags = [False] * n
        self.rep_flags: dict[int, bool] = {}
        self.rep_lengths: dict[int, int] = {}
        for orbit in self.orbits:
            rep = orbit[0]
            by_length = len(orbit) == self.order_h
            by_fixed_points = not fixed_by_nonidentity[rep]
            if by_length != by_fixed_points:
                raise CrossCheckFailed(
                    "suborbit at %d: length route says %s, fixed-point route says %s"
                    % (rep, by_length, by_fixed_points)
                )
            self.rep_flags[rep] = by_length
            self.rep_lengths[rep] = len(orbit)
            if by_length:
                for pt in orbit:
                    self.point_flags[pt] = True
        self.regular_count = sum(1 for v in self.rep_flags.values() if v)

    def flags_from(self, a: int) -> np.ndarray:
        """Image array w with point_flags[w[x]] == is_base_pair(a, x)."""
        return self.transversal[a].inverse().images


def _analysis(action: LabelledAction) -> _Analysis:
    cached = action._cache.get("analysis")
    if cached is None:
        cached = _Analysis(action)
        action._cache["analysis"] = cached
    return cached


# -- base pairs, suborbits, Q ----------------------------------------------------------


def is_base_pair(action: LabelledAction, a: int, b: int) -> bool:
    """Whether {a, b} has trivial pointwise stabiliser."""
    if a == b:
        raise ValueError("a base pair needs two distinct points")
    data = _analysis(action)
    if a == 0:
        return data.point_flags[b]
    u_inv = data.transversal[a].inverse()
    return data.point_flags[u_inv(b)]


def suborbits(action: LabelledAction, a: int = 0) -> list[tuple[int, int]]:
    """(representative, length) for each orbit of the stabiliser of a."""
    data = _analysis(action)
    if a == 0:
        return [(orbit[0], len(orbit)) for orbit in data.orbits]
    images = data.transversal[a].images.tolist()
    out = []
    for orbit in data.orbits:
        out.append((min(images[pt] for pt in orbit), len(orbit)))
    out.sort()
    return out


def regular_suborbit_count(action: LabelledAction, a: int = 0) -> int:
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
    non_base = sum(
        data.rep_lengths[rep] for rep, ok in data.rep_flags.items() if not ok
    )
    from_count = Fraction(non_base * n, n * n)
    if from_r != from_count:
        raise CrossCheckFailed(
            "Q cross-check failed: %s (regular count) vs %s (pair count)"
            % (from_r, from_count)
        )
    return from_r


# -- class-based estimates -------------------------------------------------------------


def _prime_class_data(action: LabelledAction):
    """Fuse prime-order elements of H into G-classes.

    Returns (g_classes, h_classes) where g_classes entries are
    (order, class_size, count_in_H) per G-class meeting H, and h_classes
    entries are (order, g_class_size, h_class_size) per H-class.  Every
    G-class entry is cross-checked against the orbit-counting identity
    |x^G meet H| * n == fix(x) * |x^G|.
    """
    cached = action._cache.get("prime_classes")
    if cached is not None:
        return cached
    G = action.group
    H = action.stabiliser0()
    n = action.degree
    # H streamed in chain order: Q-hat and Q-tilde are sums over classes,
    # so the order in which classes are found does not matter
    prime_elems = [h for h in H.iter_elements() if is_prime(h.order())]
    unassigned = set(prime_elems)

    g_classes = []
    membership: dict[Perm, int] = {}
    for h in prime_elems:
        if h not in unassigned:
            continue
        cls = conjugacy_class(G, h)
        size = len(cls)
        count = 0
        for member in cls:
            if member in unassigned:
                unassigned.remove(member)
                count += 1
                membership[member] = len(g_classes)
        del cls  # hold one G-class at a time: the next search must not overlap it
        if count * n != h.fixed_point_count() * size:
            raise CrossCheckFailed(
                "orbit-counting identity failed for class of %s" % (h.cycle_string(),)
            )
        g_classes.append((h.order(), size, count))

    h_classes = []
    seen = set()
    for h in prime_elems:
        if h in seen:
            continue
        cls_h = conjugacy_class(H, h)
        seen.update(cls_h)
        g_size = g_classes[membership[h]][1]
        h_classes.append((h.order(), g_size, len(cls_h)))

    # the two partitions must cover the same elements, pool by pool
    pools_g: dict[tuple[int, int], int] = {}
    for order, size, count in g_classes:
        key = (order, size)
        pools_g[key] = pools_g.get(key, 0) + count
    pools_h: dict[tuple[int, int], int] = {}
    for order, g_size, h_size in h_classes:
        key = (order, g_size)
        pools_h[key] = pools_h.get(key, 0) + h_size
    if pools_g != pools_h:
        raise CrossCheckFailed("H-class pooling disagrees with G-class intersection")

    result = (g_classes, h_classes)
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
    _, h_classes = _prime_class_data(action)
    pools: dict[tuple[int, int], int] = {}
    for order, g_size, h_size in h_classes:
        key = (order, g_size)
        pools[key] = pools.get(key, 0) + h_size
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


@dataclass(frozen=True)
class SaxlGraph:
    """Exact adjacency of the base-pair graph, one bitmask row per vertex."""

    n: int
    rows: tuple
    valency: int
    action: LabelledAction

    def has_edge(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1)

    def edges(self):
        for a in range(self.n):
            row = self.rows[a] >> (a + 1)
            b = a + 1
            while row:
                if row & 1:
                    yield (a, b)
                row >>= 1
                b += 1

    def to_edge_list(self) -> str:
        return "\n".join("%d %d" % e for e in self.edges()) + "\n"

    def to_dot(self) -> str:
        lines = ["graph {"]
        for a, b in self.edges():
            lines.append("  %d -- %d;" % (a, b))
        lines.append("}")
        return "\n".join(lines) + "\n"


def saxl_graph(action: LabelledAction) -> SaxlGraph:
    """Build the full graph: vertices are points, edges are base pairs."""
    cached = action._cache.get("graph")
    if cached is not None:
        return cached
    data = _analysis(action)
    n = data.n
    caps = action.group.caps
    if n > caps.graph_cap:
        raise CapExceeded("degree %d exceeds graph cap %d" % (n, caps.graph_cap))

    flags = np.array(data.point_flags, dtype=bool)
    matrix = np.zeros((n, n), dtype=bool)
    for a in range(n):
        matrix[a] = flags[data.flags_from(a)]
    np.fill_diagonal(matrix, False)
    if not np.array_equal(matrix, matrix.T):
        raise CrossCheckFailed("base-pair adjacency is not symmetric")
    expected = data.regular_count * data.order_h - (1 if data.order_h == 1 else 0)
    degrees = matrix.sum(axis=1)
    if not (degrees == expected).all():
        raise CrossCheckFailed(
            "valency %s != r*|H| = %d" % (sorted(set(degrees.tolist())), expected)
        )
    rows = tuple(
        int.from_bytes(np.packbits(matrix[a], bitorder="little").tobytes(), "little")
        for a in range(n)
    )
    graph = SaxlGraph(n, rows, expected, action)
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
    flags = np.array(data.point_flags, dtype=bool)
    witnesses: dict[int, int | None] = {}
    ok = True
    for rep in data.rep_flags:
        if rep == 0:
            continue
        common = np.flatnonzero(flags & flags[data.flags_from(rep)])
        found = int(common[0]) if common.size else None
        witnesses[rep] = found
        if found is None:
            ok = False
    return ok, witnesses


# -- cliques and independent sets --------------------------------------------------------


def _greedy_clique(rows, start: int) -> list[int]:
    clique = [start]
    cand = rows[start]
    while cand:
        v = (cand & -cand).bit_length() - 1
        clique.append(v)
        cand &= rows[v]
    return clique


def clique_lower(action: LabelledAction, target: int) -> tuple[bool, list[int]]:
    """Greedy search for a clique of the requested size, scanning start
    vertices in point order.  A successful result is re-verified pairwise."""
    if target < 2:
        raise ValueError("target must be at least 2")
    graph = saxl_graph(action)
    best: list[int] = []
    for start in range(graph.n):
        clique = _greedy_clique(graph.rows, start)
        if len(clique) > len(best):
            best = clique
        if len(best) >= target:
            break
    if len(best) < target:
        return False, best
    found = best[:target]
    for i, a in enumerate(found):
        for b in found[i + 1 :]:
            if not graph.has_edge(a, b):
                raise CrossCheckFailed("greedy clique is not a clique")
    return True, found


def _max_clique(rows, n: int, seed: list[int]) -> list[int]:
    """Exact maximum clique: branch and bound with greedy colouring bounds,
    deterministic (least-vertex-first colouring, fixed expansion order)."""
    best = list(seed)

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


def max_clique_exact(rows, n: int) -> list[int]:
    seed: list[int] = []
    for start in range(n):
        c = _greedy_clique(rows, start)
        if len(c) > len(seed):
            seed = c
    return _max_clique(rows, n, seed)


def clique_and_independence_exact(action: LabelledAction) -> tuple[int, int]:
    """Exact clique and independence numbers by branch and bound."""
    graph = saxl_graph(action)
    n = graph.n
    caps = action.group.caps
    if n > caps.exact_cap:
        raise CapExceeded("degree %d exceeds exact-search cap %d" % (n, caps.exact_cap))
    clique = max_clique_exact(graph.rows, n)
    full = (1 << n) - 1
    comp = tuple(full & ~graph.rows[v] & ~(1 << v) for v in range(n))
    independent = max_clique_exact(comp, n)
    action._cache["clique_witness"] = sorted(clique)
    action._cache["independent_witness"] = sorted(independent)
    return len(clique), len(independent)


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
        def rat(x):
            if x is None:
                return None
            return {"num": x.numerator, "den": x.denominator}

        return {
            "schema": 1,
            "name": self.name,
            "n": self.n,
            "stab_order": self.stab_order,
            "regular_count": self.regular_count,
            "q_exact": rat(self.q_exact),
            "q_hat": rat(self.q_hat),
            "q_tilde": rat(self.q_tilde),
            "t_value": self.t_value,
            "t_unbounded": self.t_unbounded,
            "star_ok": self.star_ok,
            "star_witnesses": (
                None
                if self.star_witnesses is None
                else {str(k): v for k, v in sorted(self.star_witnesses.items())}
            ),
            "clique_lb": self.clique_lb,
            "clique_exact": self.clique_exact,
            "independence_exact": self.independence_exact,
            "size_inequality_ok": self.size_inequality_ok,
            "witnesses": {str(k): v for k, v in sorted(self.witnesses.items())},
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def build_report(
    action: LabelledAction,
    with_classes: bool = True,
    with_star: bool = True,
    clique_target: int | None = None,
    exact_search: bool = False,
) -> SaxlReport:
    """Assemble a report; heavier sections are opt-in or opt-out flags."""
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
        clique_ex, independence_ex = clique_and_independence_exact(action)
        witnesses["clique_exact"] = action._cache["clique_witness"]
        witnesses["independent_exact"] = action._cache["independent_witness"]

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
