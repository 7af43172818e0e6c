"""Shared fixtures and test oracles.

The bundled catalogue and its coset actions are built once: the coset actions
are the expensive shared objects (a few seconds each), so they are
session-scoped; tests that need to *time* a cold build construct their own
copies instead of using these.  ``all_perms`` and ``prime_order_class_reps``
enumerate by brute force, as independent references for the package, and
``oracle_prime_class_data`` fuses the prime-order classes of G_0 in the
label degree, the route that the engine's carrier search replaced, and
``oracle_induced`` induces generators on blocks through a dict of tuples.
``oracle_stab_chain`` builds a stabiliser chain by the classical
Schreier-Sims procedure in ``Perm`` products, one Schreier generator at a
time.  ``oracle_orbit_transversal`` closes one orbit by breadth-first
search over plain Python image lists, the reference for the orbit forest
of :class:`saxl.group.SchreierVector`.

``FqElem`` is a boxed field element, a (field, log) pair with Python
operators, built by ``zero``, ``one``, ``gen``, ``from_log``, ``from_coeffs``,
``from_int``, ``from_packed_int``, ``elements`` and ``nonzero_elements``; its
``is_square`` and ``in_proper_subfield`` are the defining tests, Euler's
criterion and a Frobenius fixed point.  It is the per-element reference for
the log arrays of :mod:`saxl.gf`.  The ``oracle_*`` functions are the
per-element closed-form criteria and witness constructors in this
arithmetic, one pair at a time, as references for the log-array forms of
:mod:`saxl.criteria`; a projective label there is INF for <e2> or an
``FqElem``, and ``code`` turns either into its log-array code.
``omega_point_repr`` renders labels in their earlier boxed form, for digests
pinned in it.  ``oracle_field_keys`` searches the modulus and primitive
element of GF(p^f) one candidate key at a time, on single f x f matrices,
the route that the block search of :class:`saxl.gf.FqField` replaced.
``oracle_phi_block`` is the division-based totient sieve of
one block, the reference for the multiply-only sieve of :mod:`saxl.gf`.
``reference_edges``, ``reference_edge_list`` and ``reference_dot`` read a
``SaxlGraph`` one bit at a time from Python-int rows, the references for its
vertex-at-a-time exports.
"""

import json
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from saxl.actions import bundled_catalogue_path, coset_action, load_catalogue
from saxl.actions import LINE_INF
from saxl.gf import LOG_ZERO, CrossCheckFailed, FqField, is_prime, prime_factors
from saxl.group import ELEMENT_CAP, CapExceeded, PermGroup, conjugacy_class
from saxl.perm import Perm, identity


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
    ``elements`` the keys of the whole class, materialised within
    ``CLASS_CAP``.
    """

    rep: Perm
    order: int
    class_size: int
    elements: set[bytes] = field(repr=False)


def prime_order_class_reps(G: PermGroup) -> list[ConjClassData]:
    """Conjugacy classes of prime-order elements of G.

    Requires full element enumeration (guarded by ``ELEMENT_CAP``); class
    representatives are the lexicographically least class members, and the
    classes come out sorted by (element order, class size, representative).
    """
    if G.order() > ELEMENT_CAP:
        raise CapExceeded("order %d exceeds element enumeration cap %d" % (G.order(), ELEMENT_CAP))
    classified: set[bytes] = set()
    out: list[ConjClassData] = []
    for x in G.elements():  # sorted, so reps are lex-least in their class
        if x.key in classified or x.is_identity():
            continue
        o = x.order()
        if not is_prime(o):
            continue
        cls = conjugacy_class(G, x.key)
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
    unassigned = {h.key for h in prime_elems}
    g_classes, membership = [], {}
    for h in prime_elems:
        if h.key not in unassigned:
            continue
        cls = conjugacy_class(G, h.key)
        hits = cls & unassigned
        membership.update(dict.fromkeys(hits, len(g_classes)))
        unassigned -= hits
        if len(hits) * n != h.fixed_point_count() * len(cls):
            raise CrossCheckFailed("orbit-counting identity failed")
        g_classes.append((h.order(), len(cls), len(hits)))
    pools, seen = {}, set()
    for h in prime_elems:
        if h.key not in seen:
            cls_h = conjugacy_class(H, h.key)
            seen |= cls_h
            key = (h.order(), g_classes[membership[h.key]][1])
            pools[key] = pools.get(key, 0) + len(cls_h)
    return g_classes, pools


def oracle_induced(blocks, carrier_gens):
    """The permutations of ``blocks`` that the carrier generators induce,
    one sorted Python tuple per block per generator, looked up in a dict:
    the route that the one-gather :func:`saxl.actions._induced` replaced."""
    where = {b: i for i, b in enumerate(blocks)}
    induced = []
    for g in carrier_gens:
        images = g.images.tolist()
        try:
            induced.append(Perm(where[tuple(sorted(images[x] for x in b))] for b in blocks))
        except KeyError:
            raise CrossCheckFailed("generator does not permute the blocks") from None
    return induced


class _OracleLevel:
    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list[Perm] = []
        self.transversal: dict[int, Perm] = {point: identity(degree)}
        self.orbit_list: list[int] = [point]
        self.done_pairs: set[tuple[int, int]] = set()


def oracle_stab_chain(degree: int, gens, base_prefix=()) -> list[_OracleLevel]:
    """The levels (``point``, ``gens``, ``transversal``, ``orbit_list``) of
    the chain that the classical Schreier-Sims procedure builds one ``Perm``
    at a time: every Schreier generator is formed as u_beta * s * u_gamma^-1
    and sifted by ``Perm`` products, each level remembers its certified
    (orbit point, generator) pairs in a set, and the levels are completed
    as :class:`saxl.group.StabChain` completes them, the route that its
    image-row sifting replaced."""
    levels = [_OracleLevel(pt, degree) for pt in base_prefix]

    def strip(h: Perm, start: int):
        for idx in range(start, len(levels)):
            level = levels[idx]
            image = h(level.point)
            if image == level.point:
                continue
            u = level.transversal.get(image)
            if u is None:
                return h, idx
            h = h * u.inverse()
        return h, len(levels)

    def insert(h: Perm, lo: int, j: int):
        if j == len(levels):
            levels.append(_OracleLevel(h.min_moved_point(), degree))
        for l in range(lo, j + 1):
            levels[l].gens.append(h)
        for l in range(j, lo - 1, -1):
            complete(l)

    def complete(idx: int):
        level = levels[idx]
        for beta in level.orbit_list:  # grows as the orbit is closed
            for s in level.gens:
                gamma = s(beta)
                if gamma not in level.transversal:
                    level.transversal[gamma] = level.transversal[beta] * s
                    level.orbit_list.append(gamma)
        i = 0
        while i < len(level.orbit_list):
            beta = level.orbit_list[i]
            for gen_idx, s in enumerate(level.gens):
                if (beta, gen_idx) in level.done_pairs:
                    continue
                level.done_pairs.add((beta, gen_idx))
                schreier = level.transversal[beta] * s * level.transversal[s(beta)].inverse()
                if schreier.is_identity():
                    continue
                residue, j = strip(schreier, idx + 1)
                if not residue.is_identity():
                    insert(residue, idx + 1, j)
            i += 1

    for g in gens:
        residue, idx = strip(g, 0)
        if not residue.is_identity():
            insert(residue, 0, idx)
    return levels


def oracle_orbit_transversal(degree: int, gens, point: int) -> dict[int, list[int]]:
    """The orbit of ``point`` in breadth-first discovery order, each orbit
    point a mapped to the image list of the coset representative u_a with
    u_a(point) = a: a new point a = s(b) gets u_b followed by s."""
    images = [g.images.tolist() for g in gens]
    transversal = {point: list(range(degree))}
    queue = [point]
    for b in queue:
        u = transversal[b]
        for s in images:
            a = s[b]
            if a not in transversal:
                transversal[a] = [s[x] for x in u]
                queue.append(a)
    return transversal


# -- boxed field elements ----------------------------------------------------------


class FqElem:
    """A field element as a discrete log (None encodes zero).

    Two elements are equal when they lie in the same field object and have
    the same log; the hash is that of the pair (field, log).  Elements are
    immutable by contract: they are hashed into sets and dict keys, so
    neither attribute may be assigned after construction."""

    __slots__ = ("field", "log")

    def __init__(self, field: FqField, log: int | None):
        self.field = field
        self.log = log

    def __eq__(self, other) -> bool:
        if other.__class__ is not FqElem:
            return NotImplemented
        return self.field is other.field and self.log == other.log

    def __hash__(self) -> int:
        return hash((self.field, self.log))

    def is_zero(self) -> bool:
        return self.log is None

    def coeffs(self) -> tuple[int, ...]:
        n, out = self.as_int(), []
        for _ in range(self.field.f):
            n, r = divmod(n, self.field.p)
            out.append(r)
        return tuple(out)

    def as_int(self) -> int:
        """The packed value: the coefficients as base-p digits, constant term least significant."""
        return 0 if self.log is None else self.field._exp[self.log]

    def _check(self, other: "FqElem") -> None:
        if self.field is not other.field:
            raise ValueError("elements of different fields")

    def __mul__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        if self.log is None or other.log is None:
            return zero(self.field)
        return FqElem(self.field, (self.log + other.log) % (self.field.q - 1))

    def __truediv__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        if other.log is None:
            raise ZeroDivisionError("division by field zero")
        if self.log is None:
            return zero(self.field)
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
        if z < 0:
            return zero(self.field)
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
            return zero(self.field) if k else one(self.field)
        return FqElem(self.field, (self.log * k) % (self.field.q - 1))

    def frobenius(self, j: int = 1) -> "FqElem":
        """x -> x^(p^j)."""
        return self ** (self.field.p**j)

    def __repr__(self) -> str:
        if self.log is None:
            return "Fq(0)"
        return "Fq(lam^%d of %r)" % (self.log, self.field)


def zero(F: FqField) -> FqElem:
    return FqElem(F, None)


def one(F: FqField) -> FqElem:
    return FqElem(F, 0)


def gen(F: FqField) -> FqElem:
    """The chosen primitive element (generator of the multiplicative group)."""
    return FqElem(F, 1 % (F.q - 1))


def from_log(F: FqField, log: int | None) -> FqElem:
    return zero(F) if log is None else FqElem(F, log % (F.q - 1))


def from_coeffs(F: FqField, coeffs) -> FqElem:
    coeffs = tuple(c % F.p for c in coeffs)
    if len(coeffs) != F.f:
        raise ValueError("need exactly f coefficients")
    return from_packed_int(F, sum(c * F.p**i for i, c in enumerate(coeffs)))


def from_int(F: FqField, n: int) -> FqElem:
    """Image of an integer under the prime-field embedding."""
    return from_coeffs(F, (n % F.p,) + (0,) * (F.f - 1))


def from_packed_int(F: FqField, n: int) -> FqElem:
    """Inverse of :meth:`FqElem.as_int`."""
    if not 0 <= n < F.q:
        raise ValueError("packed value %d out of range" % n)
    log = F._log[n]
    return FqElem(F, None if log < 0 else log)


def elements(F: FqField):
    """Zero, then nonzero elements in log order."""
    yield zero(F)
    yield from nonzero_elements(F)


def nonzero_elements(F: FqField):
    for k in range(F.q - 1):
        yield FqElem(F, k)


def is_square(x: FqElem) -> bool:
    """Euler's criterion: zero, and x^((q-1)/2) = 1 for odd q; for even q everything is."""
    F = x.field
    return F.p == 2 or x.is_zero() or x ** ((F.q - 1) // 2) == one(F)


def in_proper_subfield(x: FqElem) -> bool:
    """Whether x^(p^k) = x for some 0 < k < f."""
    return any(x.frobenius(k) == x for k in range(1, x.field.f))


INF = "inf"  # the <e2> label of the oracles


def code(x) -> int:
    """The log-array code of INF or an FqElem: LINE_INF, LOG_ZERO or the log."""
    if x is INF:
        return LINE_INF
    return LOG_ZERO if x.log is None else x.log


def omega_point_repr(kind: str, labels, F: FqField | None = None) -> str:
    """``repr`` of ``labels`` as the tuple of ``OmegaPoint(kind, payload)``
    that the package's labels were when the pinned generator digests were
    taken.  A c2 code becomes the normalised homogeneous coordinates of its
    point over F, (0, 1) for LINE_INF and (1, packed value) otherwise, and
    the unitary alpha, LOG_ZERO, the string "alpha"."""

    def payload(label):
        if kind == "proj_pair":
            return tuple((0, 1) if x == LINE_INF else (1, from_log(F, None if x == LOG_ZERO else x).as_int()) for x in label)
        return "alpha" if kind == "c3_point" and label == LOG_ZERO else label

    return "(%s)" % ", ".join("OmegaPoint(kind=%r, payload=%r)" % (kind, payload(lab)) for lab in labels)


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
        return lambda t: zero(F) if t is INF else INF if t == P else (t - P).inverse()
    return lambda t: one(F) if t is INF else INF if t == P else (t - R) / (t - P)


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
    two = from_int(F, 2)
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
    if -(d / e) != -(from_int(F, 4) / (b / c + c / b + two)):
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
    rhs = one(F2) + b ** (q + 1)
    if rhs.is_zero():
        raise CrossCheckFailed("1 + b^(q+1) vanished for a point label")
    quot, rem = divmod(rhs.log, q + 1)
    if rem:
        raise CrossCheckFailed("norm value off the base-subfield grid")
    a1 = from_log(F2, quot % (q - 1))
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
    return oracle_c3_base(F2, q, variant, from_log(F2, _oracle_canonical_log(q, d)))


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
    d = from_int(F2, 2) * b * A / denom
    if not oracle_c3_base(F2, q, "PSigmaL", c):
        raise CrossCheckFailed("negated scalar fails the alpha-criterion")
    if d != A * (c - b) / (c + b ** (-q)):
        raise CrossCheckFailed("closed-form d disagrees with the transfer scalar")
    if not oracle_c3_pair_base(F2, q, "PSigmaL", b, c):
        raise CrossCheckFailed("witness pair fails the transfer criterion")
    s = b ** ((q + 1) // 2)
    rhs = from_int(F2, 2) / (s - s.inverse())
    if d ** ((q + 1) // 2) not in (rhs, -rhs):
        raise CrossCheckFailed("half-norm identity fails")
    return a1, d


def _oracle_digits(key: int, p: int, f: int) -> tuple[int, ...]:
    return tuple(key // p ** (f - 1 - i) % p for i in range(f))


def _oracle_times(c, C: np.ndarray, p: int) -> np.ndarray:
    rows = [np.asarray(c, dtype=np.int64) % p]
    for _ in range(len(C) - 1):
        rows.append(rows[-1] @ C % p)
    return np.array(rows)


def _oracle_power(M: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.eye(len(M), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ M % p
        M = M @ M % p
        e >>= 1
    return out


def _oracle_nonsingular(M: np.ndarray, p: int) -> bool:
    M = M.copy()
    for i in range(len(M)):
        nonzero = np.flatnonzero(M[i:, i])
        if not len(nonzero):
            return False
        j = i + nonzero[0]
        M[[i, j]] = M[[j, i]]
        M[i + 1 :] = (M[i + 1 :] * M[i, i] - np.outer(M[i + 1 :, i], M[i])) % p
    return True


def oracle_field_keys(p: int, f: int) -> tuple[list[int], tuple[int, ...]]:
    """(modulus, gen_coeffs) of GF(p^f), one candidate key at a time: the
    least monic irreducible by Ben-Or's test, M_u nonsingular for
    u = x^(p^d) - x, 1 <= d <= f/2, on the companion matrix C, and then the
    least c with row 0 of M_c^((q-1)/r) not 1 for every prime r | q - 1."""
    q = p**f
    for key in range(p ** (f - 1) if f > 1 else 0, q):
        m = [*_oracle_digits(key, p, f), 1]
        C = np.eye(f, k=1, dtype=np.int64)
        C[-1] = [-a % p for a in m[:-1]]
        power, irreducible = C, True
        for _ in range(f // 2):
            power = _oracle_power(power, p, p)
            u = power[0] - np.eye(f, dtype=np.int64)[1]
            if not _oracle_nonsingular(_oracle_times(u, C, p), p):
                irreducible = False
                break
        if irreducible:
            break
    one = np.eye(f, dtype=np.int64)[0]
    exponents = [(q - 1) // r for r in prime_factors(q - 1)]
    for key in range(1, q):
        lam = _oracle_times(_oracle_digits(key, p, f), C, p)
        if all((_oracle_power(lam, e, p)[0] != one).any() for e in exponents):
            return m, _oracle_digits(key, p, f)
    raise AssertionError("GF(%d^%d) has no primitive element" % (p, f))


def oracle_phi_block(lo: int, hi: int, primes) -> np.ndarray:
    """int64 array of phi(n) for lo <= n < hi (phi(0) = 0), given every prime
    up to isqrt(hi - 1), by division.

    Each prime p runs phi -= phi // p over its multiples, and divides a
    residual copy of n once per power of p that divides n; a residual above 1
    is then the one prime factor above the square root."""
    phi = np.arange(lo, hi, dtype=np.int64)
    rest = phi.copy()
    for p in map(int, primes):
        phi[-lo % p :: p] -= phi[-lo % p :: p] // p
        power = p
        while power < hi:
            rest[-lo % power :: power] //= p
            power *= p
    big = rest > 1
    phi[big] -= phi[big] // rest[big]
    return phi


def reference_edges(graph):
    """The edges (a, b), a < b, of a ``SaxlGraph`` in order, shifting each row
    as a Python int one bit at a time."""
    for a in range(graph.n):
        row = int.from_bytes(graph.packed[a].tobytes(), "little") >> (a + 1)
        b = a + 1
        while row:
            if row & 1:
                yield (a, b)
            row >>= 1
            b += 1


def reference_edge_list(graph) -> str:
    return "\n".join("%d %d" % e for e in reference_edges(graph)) + "\n"


def reference_dot(graph) -> str:
    lines = ["graph {"]
    for a, b in reference_edges(graph):
        lines.append("  %d -- %d;" % (a, b))
    lines.append("}")
    return "\n".join(lines) + "\n"
