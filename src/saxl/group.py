"""Finite permutation groups with deterministic stabiliser chains.

The stabiliser chain is built by the classical (non-randomised) Schreier-Sims
procedure (Seress, *Permutation Group Algorithms*, 2003, section 4.2).  A
group's chain starts its base at the least point that any generator moves;
further base points are always the smallest point moved by the offending
residue, so chains, strong generating sets, orders and memberships are
reproducible across runs.  Schreier generators are tested and sifted as
image rows: the images of u_beta * s come from one gather, and are u_gamma
when gamma = s(beta) is new, so the same loop closes the orbit; otherwise
the generator is the identity exactly when their bytes are the key of
u_gamma, and a non-trivial one is divided by u_gamma and sifted one gather
by u^-1 per level; only a residue that becomes a strong generator is made
a ``Perm``.  The chain is the classical one, level for level, as if each
Schreier generator were a ``Perm`` product.  Pointwise stabilisers come
from a fresh chain whose base starts with the given points.

Every orbit is read from a group's one breadth-first forest rooted at every
point, a :class:`SchreierVector`, and so are coset representatives of G_0; a
certified group answers its order and G_0 with no chain of its own.  Coset
representatives of a subgroup come from the subgroup's chain.

The module constants ``ELEMENT_CAP`` and ``CLASS_CAP`` bound element
enumeration and class materialisation, inclusive; exceeding one raises
:class:`CapExceeded` rather than silently degrading.  :func:`conjugacy_class`
takes a key and returns the class's keys: it is :func:`saxl.perm.conjugates`
over the group's generators within ``CLASS_CAP``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

# CapExceeded and CrossCheckFailed are re-exported: one exception of each kind
from .gf import CapExceeded, CrossCheckFailed
from .perm import BLOCK_ENTRIES, Perm, conjugates, identity, inverse_images, nontrivial


ELEMENT_CAP = 10**7  # the largest group whose elements are enumerated
CLASS_CAP = 2 * 10**6  # the largest conjugacy class materialised


class _Level:
    """One level of a stabiliser chain: a base point, the strong generators
    fixing all earlier base points, and a transversal of the orbit of the
    base point under those generators (coset representative u maps the base
    point to the orbit point).  ``done`` is (a, b) when the Schreier
    generators of ``orbit_list[:a]`` by ``gens[:b]`` are known to sift."""

    __slots__ = ("point", "gens", "transversal", "orbit_list", "done")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list[Perm] = []
        self.transversal: dict[int, Perm] = {point: identity(degree)}
        self.orbit_list: list[int] = [point]
        self.done = (0, 0)


class SchreierVector:
    """The orbits of a list of roots as a forest over a list of generators
    (Seress, *Permutation Group Algorithms*, 2003, section 4.1): one
    breadth-first tree from each root that no earlier tree holds.

    ``orbits`` lists each tree's points in breadth-first order from its
    root, and a's tree is ``orbits[orbit_index[a]]``.  Generator ``via[a]``
    maps ``parent[a]`` to a, so the path product u_a maps the root to a; a
    root is its own parent, and a point outside every tree has parent and
    orbit index -1.  It takes O(n) bytes where a transversal holds n Perms.
    """

    def __init__(self, degree: int, gens: Sequence[Perm], roots: Iterable[int]):
        self._gens = gens
        self.parent, self.via = [-1] * degree, [0] * degree
        self.orbit_index = np.full(degree, -1, dtype=np.intp)
        self.orbits: list[list[int]] = []
        parent, via = self.parent, self.via
        gen_images = list(enumerate(g.images.tolist() for g in gens))
        for root in roots:
            if parent[root] >= 0:
                continue
            parent[root] = root
            orbit = [root]
            for b in orbit:
                for i, images in gen_images:
                    a = images[b]
                    if parent[a] < 0:
                        parent[a] = b
                        via[a] = i
                        orbit.append(a)
            self.orbit_index[orbit] = len(self.orbits)
            self.orbits.append(orbit)

    @cached_property
    def _inverses(self) -> list[np.ndarray]:
        return [g.inverse().images for g in self._gens]

    def inverse(self, a: int) -> np.ndarray:
        """The images of u_a^-1, which maps a to its tree's root: one gather
        per tree edge from a up to the root."""
        if self.parent[a] < 0:
            raise ValueError("point %d is not in the orbit of a root" % a)
        w = np.arange(len(self.parent))
        while self.parent[a] != a:
            w = self._inverses[self.via[a]].take(w)
            a = self.parent[a]
        return w

    def walk(self) -> Iterator[tuple[int, np.ndarray]]:
        """(a, images of u_a^-1) for every point a of the forest, depth
        first, so u_a^-1 = g^-1 * u_b^-1 for b = parent[a] costs one gather."""
        children: list[list[int]] = [[] for _ in self.parent]
        for orbit in self.orbits:
            for a in orbit[1:]:
                children[self.parent[a]].append(a)
        stack = [(orbit[0], np.arange(len(self.parent))) for orbit in reversed(self.orbits)]
        while stack:
            b, w = stack.pop()
            yield b, w
            stack.extend((a, w.take(self._inverses[self.via[a]])) for a in children[b])


class StabChain:
    """Deterministic stabiliser chain for a permutation group, by the
    classical Schreier-Sims procedure.

    ``base_prefix`` forces the initial base points (a group's least moved
    point, or the points of a pointwise stabiliser); levels whose orbit stays
    trivial are kept, they are harmless and keep indexing predictable.
    Elements are sifted as rows of images in the key dtype (see
    :meth:`_complete_level`), so a Schreier generator that is the identity,
    or that sifts to it, never becomes a ``Perm``.  Transversals only gain
    points, so the build raises :class:`CapExceeded` once ``order()``
    passes ``order_bound``, when one is given.
    """

    def __init__(self, degree: int, gens: Sequence[Perm], base_prefix: Sequence[int] = (), order_bound: int | None = None):
        self.degree, self.order_bound = degree, order_bound
        self.levels: list[_Level] = []
        for pt in base_prefix:
            if not 0 <= pt < degree:
                raise ValueError("base point %d out of range" % pt)
            self.levels.append(_Level(pt, degree))
        for g in gens:
            if g.degree != degree:
                raise ValueError("generator degree %d does not match %d" % (g.degree, degree))
            self._add_element(g)

    # -- construction --------------------------------------------------------

    def _strip(self, row: np.ndarray, start: int) -> tuple[np.ndarray, int]:
        """Sift the images of an element through levels[start:], one gather
        by u^-1 per level it moves; return (the residue's images, stop level)."""
        for idx in range(start, len(self.levels)):
            level = self.levels[idx]
            image = row.item(level.point)
            if image == level.point:
                continue
            u = level.transversal.get(image)
            if u is None:
                return row, idx
            row = inverse_images(u.images).take(row)
        return row, len(self.levels)

    def _add_element(self, g: Perm) -> None:
        row, idx = self._strip(g.images, 0)
        residue = nontrivial(row)
        if residue is not None:
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

        Every Schreier generator u_beta * s * u_gamma^-1 of the level must
        sift to the identity through the deeper chain; offenders are
        inserted deeper (at levels idx+1 .. stop) and the deeper levels are
        completed recursively.  One gather gives the images of u_beta * s.
        When gamma = s(beta) is new, that row is u_gamma, and appending
        gamma closes the orbit breadth first in the same loop; otherwise,
        when their bytes are the key of u_gamma the generator is the
        identity, and only a non-trivial one is divided by u_gamma and
        sifted as an image row.  Pairs are taken orbit point by orbit point,
        generators in order, and a pair once certified is skipped when the
        level is completed again: it stays certified, because deeper levels
        only ever grow.  No insertion touches this level while its pairs
        are being taken, so the certified pairs are always ``done``'s
        rectangle.
        """
        level = self.levels[idx]
        transversal, gens, orbit = level.transversal, level.gens, level.orbit_list
        done_orbit, done_gens = level.done
        for i, beta in enumerate(orbit):  # grows as new points are found
            u = transversal[beta]
            for s in gens[done_gens if i < done_orbit else 0 :]:
                row = s.images.take(u.images)
                gamma = row.item(level.point)
                v = transversal.get(gamma)
                if v is None:
                    transversal[gamma] = nontrivial(row)
                    orbit.append(gamma)
                    if self.order_bound is not None and self.order() > self.order_bound:
                        raise CapExceeded("chain order exceeds %d" % self.order_bound)
                    continue
                if row.tobytes() == v.key:
                    continue
                row, j = self._strip(inverse_images(v.images).take(row), idx + 1)
                residue = nontrivial(row)
                if residue is not None:
                    self._insert(residue, idx + 1, j)
        level.done = (len(orbit), len(gens))

    # -- queries --------------------------------------------------------------

    def order(self) -> int:
        n = 1
        for level in self.levels:
            n *= len(level.transversal)
        return n

    def contains(self, g: Perm) -> bool:
        if g.degree != self.degree:
            return False
        return nontrivial(self._strip(g.images, 0)[0]) is None

    def coset_representative(self, g: Perm) -> Perm:
        """The canonical representative of the right coset H*g, H the
        chain's group: base images minimised greedily, level by level."""
        for level in self.levels:
            images = g.images.tolist()
            u = level.transversal[min(level.transversal, key=images.__getitem__)]
            if not u.is_identity():
                g = u * g
        return g

    def iter_elements(self) -> Iterator[Perm]:
        """All elements, each exactly once, as products over the transversals.

        The factorisation mirrors :meth:`_strip`: an element is
        u_(k-1) * ... * u_0 with u_i drawn from level i, deepest level
        multiplied first, so distinct representative choices give distinct
        elements."""
        return _products(self.levels, identity(self.degree))

    def iter_blocks(self) -> Iterator[np.ndarray]:
        """All elements, each exactly once, as 2-D arrays of image rows in
        the key dtype, so that a row's bytes are that element's key.

        The deepest levels, as many as keep a block within ``BLOCK_ENTRIES``
        entries (or one row), are multiplied out level by level, one gather
        each; every product over the levels above them, factorised as in
        :meth:`iter_elements`, then maps that block in one more gather."""
        rows = max(1, BLOCK_ENTRIES // self.degree)
        one = identity(self.degree)
        block = one.images.reshape(1, -1)
        top = len(self.levels)
        while top and len(block) * len(self.levels[top - 1].transversal) <= rows:
            level = np.stack([u.images for u in self.levels[top - 1].transversal.values()])
            block = level[:, block].reshape(-1, self.degree)
            top -= 1
        points = block.astype(np.intp)
        for outer in _products(self.levels[:top], one):
            yield outer.images[points]


def _products(levels: Sequence[_Level], prefix: Perm) -> Iterator[Perm]:
    """prefix * u_(k-1) * ... * u_0 for every choice of u_i from the
    transversal of ``levels[i]``, the deepest level first."""
    if not levels:
        yield prefix
        return
    transversal = levels[-1].transversal
    for pt in sorted(transversal):
        yield from _products(levels[:-1], prefix * transversal[pt])


class PermGroup:
    """A permutation group given by generators on {0, ..., degree-1}.

    The stabiliser chain is built lazily and cached.  Equality of groups is
    not structural; use :meth:`same_group` for element-set comparison.
    """

    def __init__(self, degree: int, gens: Iterable[Perm]):
        self.degree = degree
        self.gens = [g for g in gens if not g.is_identity()]
        for g in self.gens:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        self._chain: StabChain | None = None
        self._order: int | None = None
        self._stabiliser0: PermGroup | None = None

    # -- chain-backed basics ---------------------------------------------------

    @property
    def chain(self) -> StabChain:
        """The stabiliser chain, its base starting at the least moved point."""
        return self._built_chain()

    def _built_chain(self, order_bound: int | None = None) -> StabChain:
        if self._chain is None:
            start = [min(g.min_moved_point() for g in self.gens)] if self.gens else []
            self._chain = StabChain(self.degree, self.gens, start, order_bound)
        return self._chain

    def order(self, bound: int | None = None) -> int:
        """|G|; a chain built here stops at ``bound`` (see :class:`StabChain`)."""
        if self._order is None:
            self._order = self._built_chain(bound).order()
        return self._order

    def adopt_certificate(self, order: int, stabiliser0: "PermGroup") -> None:
        """Answer :meth:`order` and :meth:`point_stabiliser` of 0 from a
        certificate such as :func:`saxl.actions._certified`, with no chain."""
        self._order, self._stabiliser0 = order, stabiliser0

    def contains(self, g: Perm) -> bool:
        return self.chain.contains(g)

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and all(other.contains(g) for g in self.gens)

    def same_group(self, other: "PermGroup") -> bool:
        """Same element set: a subgroup of the same order."""
        return self.is_subgroup_of(other) and self.order() == other.order()

    # -- orbits ------------------------------------------------------------------

    @cached_property
    def schreier_vector(self) -> SchreierVector:
        """The forest rooted at every point over the generators, built
        once; its first tree is 0's."""
        return SchreierVector(self.degree, self.gens, range(self.degree))

    def orbit(self, point: int) -> list[int]:
        """Orbit of a point, in BFS discovery order from the point."""
        return SchreierVector(self.degree, self.gens, [point]).orbits[0]

    def orbit_transversal(self, point: int) -> dict[int, Perm]:
        """Orbit with coset representatives u mapping ``point`` to each orbit
        point: u_a = u_parent * gens[via] down the tree of :meth:`orbit`."""
        tree = SchreierVector(self.degree, self.gens, [point])
        transversal = {point: identity(self.degree)}
        for a in tree.orbits[0][1:]:
            transversal[a] = transversal[tree.parent[a]] * self.gens[tree.via[a]]
        return transversal

    def orbits(self) -> list[list[int]]:
        """All orbits on points, ordered by least point, each in BFS
        discovery order from that point: the trees of :attr:`schreier_vector`."""
        return self.schreier_vector.orbits

    def is_transitive(self) -> bool:
        return self.degree <= 1 or len(self.schreier_vector.orbits[0]) == self.degree

    def is_primitive(self) -> bool:
        """Transitive with no nontrivial block system.

        The blocks through 0 correspond to the overgroups of G_0 (Dixon and
        Mortimer, *Permutation Groups*, 1996, section 1.5), so the minimal
        block through {0, beta} is the orbit of 0 under <G_0, u_beta>, where
        u_beta maps 0 to beta; its inverse comes from the group's
        :attr:`schreier_vector`.  That orbit is a union of G_0-orbits: a
        boolean vector over them, started at those of 0 and beta, gains the
        G_0-orbit of every u_beta^-1-image of its points until it stops
        growing.  The group is primitive when every such block covers all
        G_0-orbits.  For h in G_0 the block through {0, beta^h} is the
        h-image of the block through {0, beta}, so one beta per G_0-orbit
        decides.  Groups of degree <= 2 are primitive by convention.
        """
        if not self.is_transitive():
            return False
        if self.degree <= 2:
            return True
        forest = self.point_stabiliser(0).schreier_vector  # [0] comes first
        suborbits, label = forest.orbits, forest.orbit_index
        for i, orbit in enumerate(suborbits[1:], 1):
            images = self.schreier_vector.inverse(orbit[0])
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
        """Stabiliser of one point: the certified one for point 0, else
        from :meth:`pointwise_stabiliser`."""
        if point == 0 and self._stabiliser0 is not None:
            return self._stabiliser0
        return self.pointwise_stabiliser([point])

    def pointwise_stabiliser(self, points: Sequence[int]) -> "PermGroup":
        """Pointwise stabiliser of a point sequence, from a fresh chain whose
        base starts with those points: the deeper part of that chain already
        is the stabiliser's chain, and its levels' generators, first
        appearances in order, generate the stabiliser."""
        full = StabChain(self.degree, self.gens, base_prefix=list(points))
        chain = StabChain.__new__(StabChain)
        chain.degree, chain.levels = self.degree, full.levels[len(points) :]
        sub = PermGroup(self.degree, dict.fromkeys(g for level in chain.levels for g in level.gens))
        sub._chain = chain
        return sub

    # -- element enumeration ------------------------------------------------------

    def _enumerable_chain(self) -> StabChain:
        """The chain, once ``ELEMENT_CAP`` admits the group's order."""
        n = self.order()
        if n > ELEMENT_CAP:
            raise CapExceeded("element enumeration of order %d exceeds cap %d" % (n, ELEMENT_CAP))
        return self.chain

    def iter_elements(self) -> Iterator[Perm]:
        """All elements one at a time, in stabiliser-chain order, holding none
        of them.  Guarded by ``ELEMENT_CAP``, checked before the first one."""
        return self._enumerable_chain().iter_elements()

    def iter_blocks(self) -> Iterator[np.ndarray]:
        """All elements as blocks of image rows in the key dtype (see
        :meth:`StabChain.iter_blocks`).  Guarded by ``ELEMENT_CAP``, checked
        before the first block."""
        return self._enumerable_chain().iter_blocks()

    def elements(self) -> list[Perm]:
        """All elements, sorted by image list.  Guarded by ``ELEMENT_CAP``."""
        return sorted(self.iter_elements())


# -- conjugacy ---------------------------------------------------------------------


def conjugacy_class(G: PermGroup, key: bytes) -> set[bytes]:
    """The keys of the class of the permutation whose key is ``key``, under
    G: :func:`saxl.perm.conjugates` within ``CLASS_CAP``."""
    return conjugates(key, G.degree, G.gens, CLASS_CAP)
