"""Shared fixtures and test oracles.

The bundled catalogue and its coset actions are built once: the coset actions
are the expensive shared objects (a few seconds each), so they are
session-scoped; tests that need to *time* a cold build construct their own
copies instead of using these.  ``all_perms`` and ``prime_order_class_reps``
enumerate by brute force, as independent references for the package, and
``oracle_prime_class_data`` fuses the prime-order classes of G_0 in the
label degree, the route that the engine's carrier search replaced.

The ``oracle_*`` functions are the per-element closed-form criteria and
witness constructors in boxed ``FqElem`` arithmetic, one pair at a time, as
references for the log-array forms of :mod:`saxl.criteria`.
"""

import json
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path

import pytest

from saxl.actions import bundled_catalogue_path, coset_action, load_catalogue
from saxl.criteria import INF
from saxl.gf import CrossCheckFailed, is_prime, is_square
from saxl.group import CapExceeded, PermGroup, conjugacy_class
from saxl.perm import Perm


@pytest.fixture(scope="session")
def catalogue():
    return load_catalogue(bundled_catalogue_path())


@pytest.fixture(scope="session")
def table_rows():
    path = Path(bundled_catalogue_path()).parent / "table_rows.json"
    return json.loads(path.read_text())


@pytest.fixture(scope="session")
def fixture_actions(catalogue, table_rows):
    """name -> coset action for every expectation row of the catalogue."""
    out = {}
    for name in sorted(table_rows):
        entry = catalogue[name]
        out[name] = coset_action(entry.group, entry.subgroup, name)
    return out


def all_perms(degree: int):
    """All permutations of the given degree in lexicographic order."""
    for images in permutations(range(degree)):
        yield Perm(images)


@dataclass
class ConjClassData:
    """One conjugacy class of prime-order elements.

    ``rep`` is the lexicographically least element of the class, and
    ``elements`` the whole class, materialised within ``class_cap``.
    """

    rep: Perm
    order: int
    class_size: int
    elements: frozenset[Perm] = field(repr=False)


def prime_order_class_reps(G: PermGroup) -> list[ConjClassData]:
    """Conjugacy classes of prime-order elements of G.

    Requires full element enumeration (guarded by ``element_cap``); class
    representatives are the lexicographically least class members, and the
    classes come out sorted by (element order, class size, representative).
    """
    if G.order() > G.caps.element_cap:
        raise CapExceeded(
            "order %d exceeds element enumeration cap %d" % (G.order(), G.caps.element_cap)
        )
    classified: set[Perm] = set()
    out: list[ConjClassData] = []
    for x in G.elements():  # sorted, so reps are lex-least in their class
        if x in classified or x.is_identity():
            continue
        o = x.order()
        if not is_prime(o):
            continue
        cls = conjugacy_class(G, x)
        classified.update(cls)
        out.append(ConjClassData(rep=x, order=o, class_size=len(cls), elements=cls))
    out.sort(key=lambda c: (c.order, c.class_size, c.rep))
    return out


def oracle_prime_class_data(action):
    """(g_classes, pools) as :func:`saxl.engine._prime_class_data` returns
    them, computed on the labels: H streamed from its own chain, every
    class searched in G's and H's label degree, fix(x) from the element
    itself, and nothing cached."""
    G, H, n = action.group, action.stabiliser0(), action.degree
    prime_elems = [h for h in H.iter_elements() if is_prime(h.order())]
    unassigned = set(prime_elems)
    g_classes, membership = [], {}
    for h in prime_elems:
        if h not in unassigned:
            continue
        cls = conjugacy_class(G, h)
        hits = cls & unassigned
        membership.update(dict.fromkeys(hits, len(g_classes)))
        unassigned -= hits
        if len(hits) * n != h.fixed_point_count() * len(cls):
            raise CrossCheckFailed("orbit-counting identity failed")
        g_classes.append((h.order(), len(cls), len(hits)))
    pools, seen = {}, set()
    for h in prime_elems:
        if h not in seen:
            cls_h = conjugacy_class(H, h)
            seen |= cls_h
            key = (h.order(), g_classes[membership[h]][1])
            pools[key] = pools.get(key, 0) + len(cls_h)
    return g_classes, pools


# -- per-element closed-form criteria ---------------------------------------------


def oracle_c2_base_psigma(F, b, c) -> bool:
    """{alpha, {b, c}} is a base pair: b, c nonzero, -b/c a non-square, and
    b^(p^k - 1) != c^(p^k - 1) for all 0 < k < f."""
    if b == c:
        raise ValueError("pair labels must be distinct")
    if b.is_zero() or c.is_zero():
        return False
    if is_square(-(b / c)):
        return False
    return all(b ** (F.p**k - 1) != c ** (F.p**k - 1) for k in range(1, F.f))


def _oracle_anchor_map(F, pair):
    """A fractional-linear map over GF(q) sending the given pair onto {INF, 0}."""
    P, R = pair
    if P is INF:
        return lambda t: t if t is INF else t - R
    if R is INF:
        return lambda t: F.zero() if t is INF else INF if t == P else (t - P).inverse()
    return lambda t: F.one() if t is INF else INF if t == P else (t - R) / (t - P)


def oracle_c2_pair_base(F, beta, gamma) -> bool:
    """{beta, gamma} is a base pair, for pair-points of labels INF or FqElem."""
    bset, gset = set(beta), set(gamma)
    if len(bset) != 2 or len(gset) != 2:
        raise ValueError("a pair-point needs two distinct projective labels")
    if bset == gset:
        raise ValueError("the two pair-points must be distinct")
    if bset & gset:
        return F.f == 1
    send = _oracle_anchor_map(F, tuple(beta))
    x, y = send(gamma[0]), send(gamma[1])
    if x is INF or y is INF or x.is_zero() or y.is_zero():
        raise CrossCheckFailed("disjoint pair transported onto the anchor")
    return oracle_c2_base_psigma(F, x, y)


def oracle_c2_witness(F, b, c):
    """(d, e) = (2b(b - c)/(b + c), (b^2 - c^2)/(2c)), with every property re-checked."""
    if not oracle_c2_base_psigma(F, b, c):
        raise ValueError("(b, c) is not an alpha-neighbour")
    two = F.from_int(2)
    if (b + c).is_zero():
        raise CrossCheckFailed("witness needs b + c != 0")
    d = two * b * (b - c) / (b + c)
    e = (b * b - c * c) / (two * c)
    pole = b - c
    if d == pole or e == pole:
        raise CrossCheckFailed("witness scalars collide with the transfer pole")
    if d == e:
        raise CrossCheckFailed("witness pair is degenerate")
    if not oracle_c2_base_psigma(F, d, e):
        raise CrossCheckFailed("witness pair fails the alpha-neighbour conditions")
    if -(d / e) != -(F.from_int(4) / (b / c + c / b + two)):
        raise CrossCheckFailed("witness identity -d/e = -4/(b/c + c/b + 2) fails")

    def transfer(t):
        return (b * (c - b) + t * c) / (c - b + t)

    if {transfer(d), transfer(e)} != {-b, -c}:
        raise CrossCheckFailed("witness transfer does not reach (-b, -c)")
    if not oracle_c2_base_psigma(F, -b, -c):
        raise CrossCheckFailed("gamma fails the alpha-neighbour conditions")
    return d, e


def _oracle_canonical_log(q, b) -> int:
    """The log of min(b, -b^(-q)) in log order: omega_b's label."""
    return min(b.log, (-(b ** -q)).log)


def _oracle_require_c3(F2, q, b):
    if b.is_zero():
        raise ValueError("scalar label must be nonzero")
    m = F2.q - 1
    if b.log * (q + 1) % m == m // 2:
        raise ValueError("b^(q+1) = -1: the vector is isotropic, not a point")


def oracle_c3_base(F2, q, variant, b) -> bool:
    """{alpha, omega_b}: b a non-square (G0), or b^((q+1)(p^k-1)/2) != 1 for
    every 0 < k < 2f, b canonical (PSigmaL)."""
    _oracle_require_c3(F2, q, b)
    if variant == "G0":
        return not is_square(b)
    m = F2.q - 1
    L = _oracle_canonical_log(q, b)
    if any(L * ((q + 1) * (F2.p**k - 1) // 2) % m == 0 for k in range(1, F2.f)):
        return False
    if is_square(b):
        raise CrossCheckFailed("extension base criterion passed a square scalar")
    return True


def oracle_c3_transfer_scale(F2, q, b):
    """(a1, A): a1 the least-log scalar with a1^(q+1) = 1 + b^(q+1), and
    A = a1^(-2) (b + b^(-q))."""
    _oracle_require_c3(F2, q, b)
    rhs = F2.one() + b ** (q + 1)
    if rhs.is_zero():
        raise CrossCheckFailed("1 + b^(q+1) vanished for a point label")
    quot, rem = divmod(rhs.log, q + 1)
    if rem:
        raise CrossCheckFailed("norm value off the base-subfield grid")
    a1 = F2.from_log(quot % (q - 1))
    A = a1 ** (-2) * (b + b ** (-q))
    if A.is_zero():
        raise CrossCheckFailed("transfer scale vanished for a point label")
    return a1, A


def oracle_c3_pair_base(F2, q, variant, b, c) -> bool:
    """{omega_b, omega_c}: the alpha-criterion on d = A(c - b)/(c + b^(-q))."""
    _oracle_require_c3(F2, q, b)
    _oracle_require_c3(F2, q, c)
    if _oracle_canonical_log(q, b) == _oracle_canonical_log(q, c):
        raise ValueError("the two points must be distinct")
    _, A = oracle_c3_transfer_scale(F2, q, b)
    d = A * (c - b) / (c + b ** (-q))
    if d.is_zero() or d == A or d == -(b ** (q + 1)) * A:
        raise CrossCheckFailed("transfer scalar hit an excluded value")
    m = F2.q - 1
    if d.log * (q + 1) % m == m // 2:
        raise CrossCheckFailed("transfer scalar is isotropic")
    img = (b * A + b ** (-q) * d) / (A - d)
    if img != c and img != -(c ** (-q)):
        raise CrossCheckFailed("transfer image misses the target point")
    return oracle_c3_base(F2, q, variant, F2.from_log(_oracle_canonical_log(q, d)))


def oracle_c3_witness(F2, q, b):
    """(a1, d) with d = 2bA/(b - b^(-q)), witnessing the edge {omega_b, omega_{-b}}."""
    _oracle_require_c3(F2, q, b)
    if not oracle_c3_base(F2, q, "PSigmaL", b):
        raise ValueError("{alpha, omega_b} is not an extension base")
    c = -b
    a1, A = oracle_c3_transfer_scale(F2, q, b)
    denom = b - b ** (-q)
    if denom.is_zero():
        raise CrossCheckFailed("witness denominator vanished")
    d = F2.from_int(2) * b * A / denom
    if not oracle_c3_base(F2, q, "PSigmaL", c):
        raise CrossCheckFailed("negated scalar fails the alpha-criterion")
    if d != A * (c - b) / (c + b ** (-q)):
        raise CrossCheckFailed("closed-form d disagrees with the transfer scalar")
    if not oracle_c3_pair_base(F2, q, "PSigmaL", b, c):
        raise CrossCheckFailed("witness pair fails the transfer criterion")
    s = b ** ((q + 1) // 2)
    rhs = F2.from_int(2) / (s - s.inverse())
    if d ** ((q + 1) // 2) not in (rhs, -rhs):
        raise CrossCheckFailed("half-norm identity fails")
    return a1, d
