"""Permutations of {0, ..., n-1} stored as fixed-width image bytes.

Composition is left-to-right throughout the package: ``(p * q)(i) == q(p(i))``,
i.e. ``p`` acts first.  Points are written on the left of the caret in comments
(``i^p``) to match that convention.  Conjugation is ``p ** g == g.inverse() * p * g``,
so that ``(i^g)^(p**g) == (i^p)^g``.

A permutation is one ``bytes`` object, ``Perm.key``: the images 0^p, 1^p, ...
as big-endian unsigned integers, 2 bytes each up to degree 65 535 and 4 bytes
each above.  Hashing, equality and ordering use the key.  Big-endian keys of
one width sort like the image lists, so sorted permutations and lex-least
class representatives follow the lexicographic order of the images.
``Perm.images`` is a read-only numpy view of the key: products and inverses
are numpy gathers and scatters, and a caller that walks points in a Python
loop takes ``images.tolist()`` once.  Code that handles many permutations
at once holds them as rows of ``images.dtype``, whose bytes are their keys,
in blocks of at most ``BLOCK_ENTRIES`` image entries, and compares keys
without building a ``Perm`` for each.  :func:`conjugates` closes a conjugacy
class this way, key in and set of keys out, and raises ``CapExceeded`` for
a class larger than its cap.

Validation happens once, at the boundary.  ``Perm(...)`` and the other public
constructors (``from_cycles``, ``parse_cycles``) check that their input is a
permutation of 0..n-1 and raise ``ValueError`` otherwise.  Products,
inverses, powers, conjugates and identities are built from permutations that
are already valid, so they skip that check and wrap their key with the
private ``_trusted``, which no other module may call.  The same holds for an
image row made from valid permutations' images by gathers and
``inverse_images``: ``nontrivial`` wraps it, so that a stabiliser chain
sifts rows and makes a ``Perm`` only of a residue it keeps.
"""

from __future__ import annotations

from functools import cache
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from .gf import CapExceeded

_NARROW_MAX = 0xFFFF  # the largest degree whose points fit in 2 bytes
_NARROW, _WIDE = np.dtype(">u2"), np.dtype(">u4")
BLOCK_ENTRIES = 1 << 14  # image entries per block of rows that one gather maps


def _dtype(degree: int) -> np.dtype:
    return _NARROW if degree <= _NARROW_MAX else _WIDE


class Perm:
    """An immutable permutation of {0, ..., n-1}.

    ``Perm((1, 2, 0))`` maps 0 -> 1, 1 -> 2, 2 -> 0.  Degree 0 and degree 1
    permutations are allowed.  Instances are hashable and totally ordered by
    their image lists, which is the element order used for deterministic
    searches elsewhere.  ``images`` is a read-only numpy array.
    """

    __slots__ = ("key", "images")

    def __init__(self, images: Iterable[int]):
        images = list(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("not a permutation of 0..n-1: %r" % (images,))
        dtype = _dtype(len(images))
        key = np.array(images, dtype=dtype).tobytes()
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "images", np.frombuffer(key, dtype))

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    # -- basic protocol ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        """Image of a point."""
        return self.images.item(point)

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __lt__(self, other: "Perm") -> bool:
        return self.key < other.key

    def __le__(self, other: "Perm") -> bool:
        return self.key <= other.key

    def __repr__(self) -> str:
        return "Perm(%s)" % (self.cycle_string() or "()")

    # -- group operations ---------------------------------------------------

    def __mul__(self, other: "Perm") -> "Perm":
        """Left-to-right composition: apply self, then other."""
        if len(other.key) != len(self.key):
            raise ValueError(
                "degree mismatch: %d vs %d" % (self.degree, other.degree)
            )
        return _trusted(other.images.take(self.images).tobytes(), other.images.dtype)

    def inverse(self) -> "Perm":
        inv = inverse_images(self.images)
        return _trusted(inv.tobytes(), inv.dtype)

    def __pow__(self, g):
        """Conjugate by a permutation, or integer power.

        ``p ** g`` with ``g`` a Perm is ``g^-1 * p * g``; ``p ** k`` with an
        int exponent is the k-th power (k may be negative).
        """
        if isinstance(g, Perm):
            return g.inverse() * self * g
        k = g
        if k < 0:
            return self.inverse() ** (-k)
        result = identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def is_identity(self) -> bool:
        return self.key == _identity_key(len(self.images))

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles()))

    # -- structure ----------------------------------------------------------

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, least point first, sorted by least point."""
        images = self.images.tolist()
        seen = [False] * len(images)
        out = []
        for start in range(len(images)):
            if seen[start] or images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            pt = images[start]
            while pt != start:
                cyc.append(pt)
                seen[pt] = True
                pt = images[pt]
            out.append(tuple(cyc))
        return out

    def fixed_point_count(self) -> int:
        return int(np.count_nonzero(self.images == _arange(len(self.images))))

    def min_moved_point(self) -> int | None:
        moved = np.flatnonzero(self.images != _arange(len(self.images)))
        return int(moved[0]) if moved.size else None

    def cycle_string(self, one_based: bool = False) -> str:
        """Cycle notation, e.g. ``(0,1,2)(3,4)`` (or 1-based on request)."""
        shift = 1 if one_based else 0
        return "".join(
            "(" + ",".join(str(pt + shift) for pt in cyc) + ")"
            for cyc in self.cycles()
        )


@cache
def _arange(degree: int) -> np.ndarray:
    """The identity's images 0..degree-1 in the key dtype, built once per
    degree and shared read-only."""
    points = np.arange(degree, dtype=_dtype(degree))
    points.flags.writeable = False
    return points


@cache
def _identity_key(degree: int) -> bytes:
    return _arange(degree).tobytes()


def _trusted(key: bytes, dtype: np.dtype) -> Perm:
    """Wrap a key of the given image dtype that is already known to encode a
    permutation.

    Skips the check in ``Perm.__init__``; only results of operations on valid
    permutations may come through here."""
    perm = object.__new__(Perm)
    object.__setattr__(perm, "key", key)
    object.__setattr__(perm, "images", np.frombuffer(key, dtype))
    return perm


def identity(degree: int) -> Perm:
    return _trusted(_identity_key(degree), _dtype(degree))


def inverse_images(images: np.ndarray) -> np.ndarray:
    """The images of the inverse of the permutation whose images are given,
    in their dtype: one scatter."""
    inv = np.empty(len(images), images.dtype)
    inv[images.astype(np.intp)] = _arange(len(images))
    return inv


def nontrivial(row: np.ndarray) -> Perm | None:
    """The permutation whose images ``row`` holds, or None when it is the
    identity.  The row must be in the key dtype and made from the images of
    permutations by gathers and :func:`inverse_images` only, so that it is a
    permutation already: it is not checked again."""
    key = row.tobytes()
    if key == _identity_key(len(row)):
        return None
    return _trusted(key, row.dtype)


def row_keys(rows: np.ndarray) -> list[bytes]:
    """The bytes of each row of a 2-D array: the keys of the permutations
    whose images the rows hold, when the rows are in the key dtype."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel().tolist()


def conjugates(key: bytes, degree: int, gens: Sequence[Perm], cap: int) -> set[bytes]:
    """The class of the permutation whose key is ``key``, under the group
    that ``gens`` generate, as the set of its members' keys, closed
    breadth-first over key bytes.

    A round conjugates the frontier, the keys the last round added, by each
    generator, a block of rows at a time in one gather: row y becomes
    ``g.images[y[g^-1]]``, the images of g^-1 * y * g.  Rows stay in the key
    dtype and C order, so the bytes of a row are its conjugate's key, and no
    Perm is built.  ``cap`` is inclusive and checked after each round: a
    class larger than it raises :class:`CapExceeded`, holding at most the
    cap plus one round of keys."""
    dtype = _dtype(degree)
    rows = max(1, BLOCK_ENTRIES // max(degree, 1))
    steps = [(g.images, g.inverse().images.astype(np.intp)) for g in gens]
    members = {key}
    frontier = [key]
    while frontier:
        if len(members) > cap:
            raise CapExceeded("conjugacy class larger than cap %d" % cap)
        fresh: set[bytes] = set()
        for lo in range(0, len(frontier), rows):
            keys = frontier[lo : lo + rows]
            block = np.frombuffer(b"".join(keys), dtype).reshape(len(keys), degree)
            for g, g_inv in steps:
                found = set(row_keys(g.take(block.take(g_inv, axis=1))))
                found -= members
                fresh |= found
        members |= fresh
        frontier = list(fresh)
    return members


def from_cycles(degree: int, cycles: Iterable[Iterable[int]]) -> Perm:
    """Build a permutation from disjoint 0-based cycles."""
    images = list(range(degree))
    for cyc in cycles:
        cyc = list(cyc)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if not 0 <= a < degree:
                raise ValueError("cycle point %d out of range" % a)
            if images[a] != a:
                raise ValueError("cycles are not disjoint at point %d" % a)
            images[a] = b
    return Perm(images)


def parse_cycles(text: str, degree: int, one_based: bool = True) -> Perm:
    """Parse cycle notation like ``(1,2,3)(4,5)``.

    Whitespace is ignored; the empty string and ``()`` both denote the
    identity.  Points are 1-based by default, matching the catalogue format.
    """
    text = "".join(text.split())
    if text in ("", "()"):
        return identity(degree)
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError("malformed cycle notation: %r" % text)
    shift = 1 if one_based else 0
    cycles = []
    for chunk in text[1:-1].split(")("):
        if not chunk:
            continue
        try:
            pts = [int(tok) - shift for tok in chunk.split(",")]
        except ValueError:
            raise ValueError("malformed cycle %r" % chunk) from None
        if len(pts) != len(set(pts)):
            raise ValueError("repeated point in cycle %r" % chunk)
        cycles.append(pts)
    return from_cycles(degree, cycles)

