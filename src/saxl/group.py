"""Finite permutation groups with deterministic stabiliser chains.

The stabiliser chain is built by the classical (non-randomised) Schreier-Sims
procedure.  A group's chain starts its base at the least point that any
generator moves, which is 0 for every transitive group of degree >= 2: level 0
then holds a transversal of G_0 in G and the deeper levels are G_0's own chain,
so the point stabiliser of 0 costs no second chain.  Further base points are
always the smallest point moved by the offending residue, so chains, strong
generating sets, orders and memberships are reproducible across runs.  Other
pointwise stabilisers come from a fresh chain whose base starts with the
given points.

Hard limits guard every potentially explosive operation (element enumeration,
class materialisation); exceeding a limit raises :class:`CapExceeded` rather
than silently degrading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

# CapExceeded and CrossCheckFailed are re-exported: one exception of each kind
from .gf import CapExceeded, CrossCheckFailed
from .perm import Perm, identity


@dataclass(frozen=True)
class Caps:
    """Size limits for expensive operations.

    All limits are inclusive.  ``element_cap`` bounds full element
    enumeration, ``class_cap`` bounds materialised conjugacy classes.
    """

    point_cap: int = 10**5
    group_cap: int = 10**7
    element_cap: int = 10**7
    class_cap: int = 2 * 10**6
    graph_cap: int = 2 * 10**4
    exact_cap: int = 2000


DEFAULT_CAPS = Caps()


class _Level:
    """One level of a stabiliser chain: a base point, the strong generators
    fixing all earlier base points, and a transversal of the orbit of the
    base point under those generators (coset representative u maps the base
    point to the orbit point)."""

    __slots__ = ("point", "gens", "transversal", "orbit_list", "_done_pairs")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list[Perm] = []
        self.transversal: dict[int, Perm] = {point: identity(degree)}
        self.orbit_list: list[int] = [point]
        self._done_pairs: set[tuple[int, int]] = set()


def _close_orbit(transversal: dict[int, Perm], orbit_list: list[int], gens: Sequence[Perm]) -> None:
    """Close an orbit under gens by breadth-first search, in place.

    Every listed point is scanned, and each new point gamma = s(beta) is
    appended to ``orbit_list`` with coset representative
    ``transversal[beta] * s``, which maps the first point to gamma."""
    gen_images = [(s, s.images.tolist()) for s in gens]
    qi = 0
    while qi < len(orbit_list):
        beta = orbit_list[qi]
        qi += 1
        u = transversal[beta]
        for s, images in gen_images:
            gamma = images[beta]
            if gamma not in transversal:
                transversal[gamma] = u * s
                orbit_list.append(gamma)


class StabChain:
    """Deterministic stabiliser chain for a permutation group.

    ``base_prefix`` forces the initial base points (a group's least moved
    point, or the points of a pointwise stabiliser); levels whose orbit stays
    trivial are kept, they are harmless and keep indexing predictable.
    """

    def __init__(self, degree: int, gens: Sequence[Perm], base_prefix: Sequence[int] = ()):
        self.degree = degree
        self.levels: list[_Level] = []
        for pt in base_prefix:
            if not 0 <= pt < degree:
                raise ValueError("base point %d out of range" % pt)
            self.levels.append(_Level(pt, degree))
        for g in gens:
            if g.degree != degree:
                raise ValueError("generator degree %d does not match %d" % (g.degree, degree))
            self._add_element(g)

    @classmethod
    def _adopt(cls, degree: int, levels: list[_Level]) -> "StabChain":
        """Wrap existing (complete) levels as a chain without reprocessing."""
        chain = cls.__new__(cls)
        chain.degree = degree
        chain.levels = levels
        return chain

    def suffix_chain(self, idx: int) -> "StabChain":
        """The chain of the pointwise stabiliser of the first ``idx`` base points."""
        return StabChain._adopt(self.degree, self.levels[idx:])

    # -- construction --------------------------------------------------------

    def _strip(self, g: Perm, start: int) -> tuple[Perm, int]:
        """Sift g through levels[start:]; return (residue, stop level)."""
        h = g
        for idx in range(start, len(self.levels)):
            level = self.levels[idx]
            image = h(level.point)
            if image == level.point:
                continue
            u = level.transversal.get(image)
            if u is None:
                return h, idx
            h = h * u.inverse()
        return h, len(self.levels)

    def _add_element(self, g: Perm) -> None:
        residue, idx = self._strip(g, 0)
        if residue.is_identity():
            return
        self._insert(residue, 0, idx)

    def _insert(self, h: Perm, lo: int, j: int) -> None:
        """Install a new strong generator h, known to fix base[0..j-1].

        h joins the generator set of every level from lo to j inclusive (the
        per-level sets represent the nested sets S_lo >= ... >= S_j of the
        classical algorithm), then the affected levels are re-completed from
        the deepest up.
        """
        if j == len(self.levels):
            self.levels.append(_Level(h.min_moved_point(), self.degree))
        for l in range(lo, j + 1):
            self.levels[l].gens.append(h)
        for l in range(j, lo - 1, -1):
            self._complete_level(l)

    def _complete_level(self, idx: int) -> None:
        """Re-establish the Schreier-Sims condition at one level.

        Every Schreier generator of the level must sift to the identity
        through the deeper chain; offenders are inserted deeper (at levels
        idx+1 .. stop) and the deeper levels are completed recursively.
        Processed (orbit point, generator) pairs are remembered: once
        certified they stay certified, because deeper levels only ever grow.
        """
        level = self.levels[idx]
        self._rebuild_orbit(level)
        i = 0
        while i < len(level.orbit_list):
            beta = level.orbit_list[i]
            for gen_idx, s in enumerate(level.gens):
                key = (beta, gen_idx)
                if key in level._done_pairs:
                    continue
                level._done_pairs.add(key)
                u = level.transversal[beta]
                gamma = s(beta)
                schreier = u * s * level.transversal[gamma].inverse()
                if schreier.is_identity():
                    continue
                residue, j = self._strip(schreier, idx + 1)
                if residue.is_identity():
                    continue
                self._insert(residue, idx + 1, j)
            i += 1

    def _rebuild_orbit(self, level: _Level) -> None:
        """Extend the orbit/transversal of a level after adding generators."""
        _close_orbit(level.transversal, level.orbit_list, level.gens)

    # -- queries --------------------------------------------------------------

    def order(self) -> int:
        n = 1
        for level in self.levels:
            n *= len(level.transversal)
        return n

    def base(self) -> list[int]:
        return [level.point for level in self.levels]

    def contains(self, g: Perm) -> bool:
        if g.degree != self.degree:
            return False
        residue, _ = self._strip(g, 0)
        return residue.is_identity()

    def strong_gens_from(self, idx: int) -> list[Perm]:
        """Strong generators fixing the first ``idx`` base points pointwise."""
        seen: set[Perm] = set()
        out: list[Perm] = []
        for level in self.levels[idx:]:
            for g in level.gens:
                if g not in seen:
                    seen.add(g)
                    out.append(g)
        return out

    def iter_elements(self) -> Iterator[Perm]:
        """All elements, each exactly once, as products over the transversals.

        The factorisation mirrors :meth:`_strip`: an element is
        u_(k-1) * ... * u_0 with u_i drawn from level i, deepest level
        multiplied first, so distinct representative choices give distinct
        elements."""

        def rec(idx: int, prefix: Perm) -> Iterator[Perm]:
            if idx < 0:
                yield prefix
                return
            level = self.levels[idx]
            for pt in sorted(level.transversal):
                yield from rec(idx - 1, prefix * level.transversal[pt])

        if not self.levels:
            yield identity(self.degree)
            return
        yield from rec(len(self.levels) - 1, identity(self.degree))


class PermGroup:
    """A permutation group given by generators on {0, ..., degree-1}.

    The stabiliser chain is built lazily and cached.  Equality of groups is
    not structural; use :meth:`same_group` for element-set comparison.
    """

    def __init__(self, degree: int, gens: Iterable[Perm], caps: Caps = DEFAULT_CAPS):
        self.degree = degree
        self.gens = [g for g in gens if not g.is_identity()]
        for g in self.gens:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        self.caps = caps
        self._chain: StabChain | None = None
        self._elements: list[Perm] | None = None

    # -- chain-backed basics ---------------------------------------------------

    @property
    def chain(self) -> StabChain:
        """The stabiliser chain, its base starting at the least moved point."""
        if self._chain is None:
            start = [min(g.min_moved_point() for g in self.gens)] if self.gens else []
            self._chain = StabChain(self.degree, self.gens, base_prefix=start)
        return self._chain

    def order(self) -> int:
        return self.chain.order()

    def contains(self, g: Perm) -> bool:
        return self.chain.contains(g)

    def identity(self) -> Perm:
        return identity(self.degree)

    def same_group(self, other: "PermGroup") -> bool:
        """Same element set (degrees must match)."""
        if self.degree != other.degree:
            return False
        return (
            self.order() == other.order()
            and all(other.contains(g) for g in self.gens)
        )

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and all(other.contains(g) for g in self.gens)

    # -- orbits ------------------------------------------------------------------

    def orbit(self, point: int) -> list[int]:
        """Orbit of a point, in BFS discovery order from the point."""
        seen = {point}
        out = [point]
        gen_images = [g.images.tolist() for g in self.gens]
        qi = 0
        while qi < len(out):
            beta = out[qi]
            qi += 1
            for images in gen_images:
                gamma = images[beta]
                if gamma not in seen:
                    seen.add(gamma)
                    out.append(gamma)
        return out

    def orbit_transversal(self, point: int) -> dict[int, Perm]:
        """Orbit with coset representatives u mapping ``point`` to each orbit point."""
        transversal = {point: identity(self.degree)}
        _close_orbit(transversal, [point], self.gens)
        return transversal

    def orbits(self) -> list[list[int]]:
        """All orbits on points, scanned in point order."""
        assigned = [False] * self.degree
        out = []
        for pt in range(self.degree):
            if assigned[pt]:
                continue
            orb = self.orbit(pt)
            for beta in orb:
                assigned[beta] = True
            out.append(orb)
        return out

    def is_transitive(self) -> bool:
        return self.degree <= 1 or len(self.orbit(0)) == self.degree

    def is_primitive(self) -> bool:
        """Transitive with no nontrivial block system.

        The blocks through 0 correspond to the overgroups of G_0 (Dixon and
        Mortimer, *Permutation Groups*, 1996, section 1.5), so the minimal
        block through {0, beta} is the orbit of 0 under <G_0, u_beta>, where
        u_beta in level 0 of the group's chain maps 0 to beta.  That orbit is
        a union of G_0-orbits: a boolean vector over them, started at those of
        0 and beta, gains the G_0-orbit of every u_beta-image of its points
        until it stops growing.  The group is primitive when every such block
        covers all G_0-orbits.  For h in G_0 the block through {0, beta^h} is
        the h-image of the block through {0, beta}, so one beta per G_0-orbit
        decides.  Groups of degree <= 2 are primitive by convention.
        """
        n = self.degree
        if not self.is_transitive():
            return False
        if n <= 2:
            return True
        suborbits = self.point_stabiliser(0).orbits()  # [0] comes first
        label = np.empty(n, dtype=np.intp)
        for i, orbit in enumerate(suborbits):
            label[orbit] = i
        transversal = self.chain.levels[0].transversal
        for i, orbit in enumerate(suborbits[1:], 1):
            images = transversal[orbit[0]].images
            block = np.zeros(len(suborbits), dtype=bool)
            block[[0, i]] = True
            size = 0
            while np.count_nonzero(block) > size:
                size = np.count_nonzero(block)
                block[label[images[block[label]]]] = True
            if not block.all():
                return False
        return True

    # -- stabilisers ----------------------------------------------------------------

    def point_stabiliser(self, point: int) -> "PermGroup":
        """Stabiliser of one point.

        The group's own chain starts its base at the least moved point (0
        for a transitive group), so that point's stabiliser is the rest of
        the cached chain; any other point goes through
        :meth:`pointwise_stabiliser`."""
        chain = self.chain
        if chain.levels and chain.levels[0].point == point:
            return self._suffix_group(chain, 1)
        return self.pointwise_stabiliser([point])

    def pointwise_stabiliser(self, points: Sequence[int]) -> "PermGroup":
        """Pointwise stabiliser of a point sequence, from a fresh chain whose
        base starts with those points."""
        chain = StabChain(self.degree, self.gens, base_prefix=list(points))
        return self._suffix_group(chain, len(points))

    def _suffix_group(self, chain: StabChain, idx: int) -> "PermGroup":
        """The pointwise stabiliser of the first ``idx`` base points of one of
        this group's chains: the deeper part of the chain already is its chain."""
        sub = PermGroup(self.degree, chain.strong_gens_from(idx), caps=self.caps)
        sub._chain = chain.suffix_chain(idx)
        return sub

    # -- element enumeration ------------------------------------------------------

    def iter_elements(self) -> Iterator[Perm]:
        """All elements one at a time, in stabiliser-chain order, holding none
        of them.  Guarded by ``element_cap``, checked before the first one."""
        n = self.order()
        if n > self.caps.element_cap:
            raise CapExceeded(
                "element enumeration of order %d exceeds cap %d"
                % (n, self.caps.element_cap)
            )
        return self.chain.iter_elements()

    def elements(self) -> list[Perm]:
        """All elements, sorted by image list and kept.  Guarded by
        ``element_cap``."""
        if self._elements is None:
            self._elements = sorted(self.iter_elements())
        return self._elements


# -- conjugacy ---------------------------------------------------------------------


def conjugacy_class(G: PermGroup, x: Perm) -> frozenset[Perm]:
    """The class x^G, materialised by conjugation-orbit BFS over the
    generators, within G's ``class_cap``."""
    cap = G.caps.class_cap
    inv_gens = [(g, g.inverse()) for g in G.gens]
    seen = {x}
    queue = [x]
    qi = 0
    while qi < len(queue):
        y = queue[qi]
        qi += 1
        for g, g_inv in inv_gens:
            z = g_inv * y * g
            if z not in seen:
                if len(seen) >= cap:
                    raise CapExceeded("conjugacy class larger than cap %d" % cap)
                seen.add(z)
                queue.append(z)
    return frozenset(seen)

