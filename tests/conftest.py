"""Shared fixtures and test oracles.

The bundled catalogue and its coset actions are built once: the coset actions
are the expensive shared objects (a few seconds each), so they are
session-scoped; tests that need to *time* a cold build construct their own
copies instead of using these.  ``all_perms`` and ``prime_order_class_reps``
enumerate by brute force, as independent references for the package.
"""

import json
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path

import pytest

from saxl.actions import LabelledAction, OmegaPoint, bundled_catalogue_path, coset_action, load_catalogue
from saxl.gf import is_prime
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


def natural_action(group, name):
    """The defining action of a permutation group, with index labels."""
    labels = tuple(OmegaPoint("coset_index", i) for i in range(group.degree))
    return LabelledAction(group, labels, name)


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
