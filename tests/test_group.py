"""Stabiliser chains, orders, orbits, classes, caps."""

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from saxl.actions import (
    GroupVariant,
    bundled_catalogue_path,
    ksubset_action,
    load_catalogue,
    psl2_c2_action,
    psl2_c3_action,
)
from saxl.cli import _build_parser, build_action, main
from saxl.engine import regular_suborbit_count
from saxl import group
from saxl.group import CapExceeded, PermGroup, SchreierVector, StabChain, conjugacy_class
from saxl.perm import Perm, from_cycles, identity

from conftest import all_perms, oracle_orbit_transversal, oracle_stab_chain, prime_order_class_reps


def symmetric(n):
    return PermGroup(n, [from_cycles(n, [range(n)]), from_cycles(n, [(0, 1)])])


def alternating(n):
    cyc = range(n) if n % 2 else range(1, n)
    return PermGroup(n, [from_cycles(n, [cyc]), from_cycles(n, [(0, 1, 2)])])


def psl2_mobius(q):
    """PSL(2, q) on the q + 1 projective points, point 0 = infinity."""
    shift = [0] + [(z + 1) % q + 1 for z in range(q)]
    inv = [1, 0]
    for z in range(1, q):
        inv.append((-pow(z, -1, q)) % q + 1)
    return PermGroup(q + 1, [Perm(shift), Perm(inv)])


def block_through(g, beta):
    """Size of the minimal block of g containing {0, beta}: the union-find
    closure of the pair under the generators, over all points."""
    parent = list(range(g.degree))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    parent[beta] = 0
    queue = [(0, beta)]
    gen_images = [h.images.tolist() for h in g.gens]
    while queue:
        a, b = queue.pop()
        for images in gen_images:
            ra, rb = find(images[a]), find(images[b])
            if ra != rb:
                parent[rb] = ra
                queue.append((ra, rb))
    root = find(0)
    return sum(1 for pt in range(g.degree) if find(pt) == root)


def sign(p):
    return -1 if sum(len(c) - 1 for c in p.cycles()) % 2 else 1


class TestOrders:
    def test_s7(self):
        assert symmetric(7).order() == 5040

    def test_psl2_13_on_projective_line(self):
        assert psl2_mobius(13).order() == 1092

    def test_asl23_from_catalogue(self, catalogue):
        assert catalogue["A9_ASL23"].subgroup.order() == 216

    def test_trivial_group(self):
        g = PermGroup(4, [])
        assert g.order() == 1

    def test_order_is_product_of_orbit_lengths(self):
        g = symmetric(5)
        chain = g.chain
        prod = 1
        for level in chain.levels:
            prod *= len(level.transversal)
        assert prod == g.order() == 120


class TestMembership:
    def test_generators_sift(self):
        g = psl2_mobius(11)
        for gen in g.gens:
            assert g.contains(gen)

    def test_alternating_membership_is_parity(self):
        a7 = alternating(7)
        assert a7.order() == 2520
        rng = random.Random(7)
        for _ in range(40):
            images = list(range(7))
            rng.shuffle(images)
            p = Perm(images)
            assert a7.contains(p) == (sign(p) == 1)

    @given(st.permutations(range(6)))
    @settings(max_examples=60, deadline=None)
    def test_a6_membership_random(self, images):
        p = Perm(images)
        assert alternating(6).contains(p) == (sign(p) == 1)

    def test_degree_mismatch_is_non_membership(self):
        assert not symmetric(4).contains(identity(5))


ORACLE_GROUPS = pytest.mark.parametrize(
    "build",
    [
        lambda: PermGroup(9, [from_cycles(9, [(0, 1, 2)]), from_cycles(9, [(1, 2)]), from_cycles(9, [(5, 8, 6)]), from_cycles(9, [(3, 7)])]),
        lambda: ksubset_action(5, 2, even_only=True).stabiliser0(),
        lambda: psl2_c2_action(GroupVariant("PSL2", 25)).stabiliser0(),
        lambda: psl2_c2_action(GroupVariant("PSL2", 25)).group,
    ],
    ids=["four-orbits", "A5-pairs-G0", "c2-q25-G0", "c2-q25"],
)


class TestOrbits:
    def test_two_orbits(self):
        g = PermGroup(5, [from_cycles(5, [(0, 1, 2)]), from_cycles(5, [(3, 4)])])
        assert g.orbits() == [[0, 1, 2], [3, 4]]
        assert not g.is_transitive()
        assert g.orbit(3) == [3, 4]

    def test_orbits_are_the_per_point_searches(self):
        # G_0 of A5 on pairs and of PSL(2,13) on PG(1,13), and the two-orbit group above
        groups = [ksubset_action(5, 2, even_only=True).stabiliser0(), psl2_mobius(13).point_stabiliser(0)]
        groups.append(PermGroup(7, [from_cycles(7, [(4, 5, 6)]), from_cycles(7, [(1, 3)]), from_cycles(7, [(6, 4)])]))
        for g in groups:
            expected, seen = [], set()
            for pt in range(g.degree):
                if pt not in seen:
                    expected.append(SchreierVector(g.degree, g.gens, [pt]).orbits[0])
                    seen.update(expected[-1])
            assert g.orbits() == expected

    def test_orbit_transversal_semantics(self):
        g = symmetric(5)
        trans = g.orbit_transversal(2)
        assert sorted(trans) == list(range(5))
        for target, u in trans.items():
            assert u(2) == target
            assert g.contains(u)

    def test_orbit_stabiliser_product(self):
        for g in (symmetric(5), alternating(6), psl2_mobius(7)):
            for point in range(0, g.degree, 2):
                assert len(g.orbit(point)) * g.point_stabiliser(point).order() == g.order()

    def test_schreier_vector(self):
        two_orbits = PermGroup(6, [from_cycles(6, [(0, 1, 2)]), from_cycles(6, [(1, 2)]), from_cycles(6, [(3, 4, 5)])])
        for g in (symmetric(5), alternating(6), psl2_mobius(13), two_orbits):
            tree = SchreierVector(g.degree, g.gens, [0])
            orbit = g.orbit(0)
            assert tree.orbits == [orbit]
            walked = dict((a, w.tolist()) for a, w in tree.walk())
            assert sorted(walked) == sorted(orbit)
            for a in orbit:
                u_inv = Perm(tree.inverse(a).tolist())
                assert u_inv(a) == 0 and g.contains(u_inv)
                assert walked[a] == u_inv.images.tolist()
        with pytest.raises(ValueError, match="not in the orbit"):
            tree.inverse(3)

    @ORACLE_GROUPS
    def test_against_bfs_oracle(self, build):
        g = build()
        n = g.degree
        oracles, seen = [], set()
        for point in range(n):
            if point not in seen:
                oracles.append(oracle_orbit_transversal(n, g.gens, point))
                seen.update(oracles[-1])
        assert g.orbits() == [list(t) for t in oracles]
        forest = SchreierVector(n, g.gens, range(n))
        for t in oracles:
            for point in list(t)[:3]:
                want = oracle_orbit_transversal(n, g.gens, point)
                assert g.orbit(point) == list(want)
                assert [(a, u.images.tolist()) for a, u in g.orbit_transversal(point).items()] == list(want.items())
            # u_a^-1 of the forest undoes the oracle's u_a, for every point of every tree
            for a, u in t.items():
                assert forest.inverse(a)[u].tolist() == list(range(n))
        for a, u in oracles[0].items():
            assert g.schreier_vector.inverse(a)[u].tolist() == list(range(n))

    @ORACLE_GROUPS
    def test_one_forest_per_group(self, build):
        # orbits() are the trees of the group's one Schreier forest, and each
        # point's orbit index names the tree that holds it
        g = build()
        assert g.orbits() is g.schreier_vector.orbits
        index = g.schreier_vector.orbit_index
        assert sorted(a for orbit in g.orbits() for a in orbit) == list(range(g.degree))
        for i, orbit in enumerate(g.orbits()):
            assert index[orbit].tolist() == [i] * len(orbit)

    def test_forest_of_one_root_indexes_only_its_tree(self):
        g = PermGroup(5, [from_cycles(5, [(0, 1, 2)]), from_cycles(5, [(3, 4)])])
        assert SchreierVector(5, g.gens, [3]).orbit_index.tolist() == [-1, -1, -1, 0, 0]

    def test_primitivity(self):
        assert psl2_mobius(13).is_primitive()
        assert symmetric(4).is_primitive()
        c4 = PermGroup(4, [from_cycles(4, [(0, 1, 2, 3)])])
        assert c4.is_transitive() and not c4.is_primitive()
        d4 = PermGroup(4, [from_cycles(4, [(0, 1, 2, 3)]), from_cycles(4, [(1, 3)])])
        assert not d4.is_primitive()

    def test_primitivity_matches_every_beta(self):
        # is_primitive grows one block per suborbit over G_0-orbits; the
        # reference closes the pair {0, beta} over points, for every beta
        def by_every_beta(g):
            n = g.degree
            if not g.is_transitive():
                return False
            return n <= 2 or all(block_through(g, beta) == n for beta in range(1, n))

        groups = [
            symmetric(4), symmetric(5), alternating(6), psl2_mobius(7), psl2_mobius(13),
            PermGroup(4, [from_cycles(4, [(0, 1, 2, 3)])]),
            PermGroup(4, [from_cycles(4, [(0, 1, 2, 3)]), from_cycles(4, [(1, 3)])]),
            PermGroup(5, [from_cycles(5, [(0, 1, 2)]), from_cycles(5, [(3, 4)])]),
            ksubset_action(4, 2).group,
            ksubset_action(6, 3).group,
            psl2_c2_action(GroupVariant("PSL2", 5)).group,
            # regular C8: beta = 2 needs three rounds to reach the block {0, 2, 4, 6}
            PermGroup(8, [from_cycles(8, [range(8)])]),
            # D8 on the octagon: antipodal pairs are blocks
            PermGroup(8, [from_cycles(8, [range(8)]), from_cycles(8, [(1, 7), (2, 6), (3, 5)])]),
        ]
        verdicts = [g.is_primitive() for g in groups]
        assert verdicts == [by_every_beta(g) for g in groups]
        assert verdicts == [True] * 5 + [False] * 8


class TestStabilisers:
    def test_point_stabiliser_s7(self):
        stab = symmetric(7).point_stabiliser(0)
        assert stab.order() == 720
        assert all(g(0) == 0 for g in stab.gens)

    @pytest.mark.parametrize(
        "argv, n, m, diagonal",
        [
            ("--psl2 c2 --q 25 --variant psigma", 325, 26, False),
            ("--psl2 c3 --q 27", 351, 28, True),
            ("--ksubsets 7 3 --alternating", 35, 7, False),
            ("--catalogue PGL2_13_S4", 91, 14, True),
        ],
        ids=["c2", "c3", "ksubsets", "catalogue"],
    )
    def test_analyze_builds_no_chain_of_g_on_its_points(self, monkeypatch, capsys, argv, n, m, diagonal):
        # an action on the k-subsets of m carrier points is certified, and
        # its G_0 streamed, on the carrier alone: every chain that analyze
        # builds has degree m.  The unitary points and cosets are certified
        # by a chain of G on carrier and points together, and G_0's one
        # chain acts on points and carrier together, points first, so that
        # all of its generators fix point 0; no chain has degree n, with
        # classes or without them
        chains = []
        build = StabChain.__init__

        def recorded(self, degree, gens, *args, **kwargs):
            chains.append((degree, [g(0) for g in gens]))
            build(self, degree, gens, *args, **kwargs)

        monkeypatch.setattr(StabChain, "__init__", recorded)
        for classes in ([], ["--no-classes"]):
            chains.clear()
            assert main(["analyze", *argv.split(), *classes]) == 0
            assert json.loads(capsys.readouterr().out)["n"] == n
            degrees = {degree for degree, _ in chains}
            assert chains and degrees <= {m, n + m} and (n + m in degrees) == diagonal
            if diagonal:
                of_g0 = [images_of_0 for degree, images_of_0 in chains if degree == n + m and set(images_of_0) == {0}]
                assert len(of_g0) == 1
        # primitivity reads the certified G_0 and a Schreier vector
        action = build_action(_build_parser().parse_args(["analyze", *argv.split()]))
        chains.clear()
        action.group.is_primitive()
        assert chains == []

    def test_base_starts_at_point_0(self, fixture_actions):
        groups = [act.group for act in fixture_actions.values()]
        groups.append(ksubset_action(10, 2).group)  # its first generator fixes point 0
        for g in groups:
            assert g.chain.levels[0].point == 0

    def test_point_stabiliser_idempotent(self):
        g = psl2_mobius(7)
        s1 = g.point_stabiliser(0)
        assert s1.point_stabiliser(0).same_group(s1)

    def test_pointwise_stabiliser(self):
        s4 = symmetric(4)
        fix01 = s4.pointwise_stabiliser([0, 1])
        assert fix01.order() == 2
        psl13 = psl2_mobius(13)
        torus = psl13.pointwise_stabiliser([0, 1])
        assert torus.order() == 6  # (q - 1) / 2 for the two-point stabiliser
        assert psl13.pointwise_stabiliser(range(14)).order() == 1

    def test_subgroup_relations(self):
        a5, s5 = alternating(5), symmetric(5)
        assert a5.is_subgroup_of(s5)
        assert not s5.is_subgroup_of(a5)
        other_s4 = PermGroup(4, [from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2, 3)])])
        assert other_s4.same_group(symmetric(4))


@pytest.fixture
def built_chains(monkeypatch):
    """(chain, degree, generators, base prefix) of every StabChain built
    while the fixture is live."""
    built = []
    build = StabChain.__init__

    def recorded(self, degree, gens, base_prefix=(), order_bound=None):
        gens, base_prefix = list(gens), list(base_prefix)
        build(self, degree, gens, base_prefix, order_bound)
        built.append((self, degree, gens, base_prefix))

    monkeypatch.setattr(StabChain, "__init__", recorded)
    return built


def assert_oracle_chains(built):
    """Each recorded chain equals the classical Perm-level chain built from
    the same arguments, level by level: base point, strong generators in
    order, transversal items in order and orbit list."""
    assert built
    for chain, degree, gens, base_prefix in built:
        want = oracle_stab_chain(degree, gens, base_prefix)
        assert [level.point for level in chain.levels] == [level.point for level in want]
        for got, level in zip(chain.levels, want):
            assert [g.key for g in got.gens] == [g.key for g in level.gens]
            assert [(pt, u.key) for pt, u in got.transversal.items()] == [
                (pt, u.key) for pt, u in level.transversal.items()
            ]
            assert got.orbit_list == level.orbit_list


class TestChainOracle:
    def test_catalogue_groups_and_subgroups(self, built_chains):
        catalogue = load_catalogue(bundled_catalogue_path())
        assert built_chains == []  # an entry is checked on its first use
        # reading every entry builds one chain per shared group and subgroup
        used = len({id(e.group) for e in catalogue.values()}) + sum(e.subgroup is not None for e in catalogue.values())
        assert len(built_chains) == used
        assert_oracle_chains(built_chains)

    @pytest.mark.parametrize("q", [9, 25, 27, 49])
    @pytest.mark.parametrize("build", [psl2_c2_action, psl2_c3_action], ids=["c2", "c3"])
    def test_certification_chains(self, built_chains, build, q):
        regular_suborbit_count(build(GroupVariant("PSL2", q)))
        assert_oracle_chains(built_chains)

    @pytest.mark.parametrize("even_only", [False, True], ids=["S7", "A7"])
    def test_seven_points_on_3_subsets(self, built_chains, even_only):
        regular_suborbit_count(ksubset_action(7, 3, even_only))
        assert_oracle_chains(built_chains)

    def test_two_point_prefixes(self, built_chains):
        for g in (symmetric(7), psl2_mobius(13), ksubset_action(7, 3).group):
            for pair in ((0, 1), (1, 0), (2, g.degree - 1), (g.degree - 1, 3)):
                g.pointwise_stabiliser(pair)
        assert_oracle_chains(built_chains)

    def test_past_two_key_bytes(self, built_chains):
        # degree above 65 535: 4-byte keys
        n = 1 << 16
        shifted = PermGroup(n + 8, [Perm(list(range(n)) + [n + g(i) for i in range(8)]) for g in psl2_mobius(7).gens])
        assert shifted.order() == 168
        assert shifted.pointwise_stabiliser([n + 1, n]).order() == 3
        assert len(built_chains[0][0].levels[0].gens[0].key) == 4 * (n + 8)
        assert_oracle_chains(built_chains)


class TestElements:
    def test_s5_enumeration_matches_all_perms(self):
        elems = symmetric(5).elements()
        assert elems == sorted(all_perms(5))

    def test_m11_enumeration_against_bfs_closure(self, catalogue):
        # Depth->=3 chain: the element walk must stratify cosets exactly.
        g = catalogue["M11"].group
        gens = [p.images.tolist() for p in g.gens]
        seen = {tuple(range(11))}
        frontier = [tuple(range(11))]
        while frontier:
            nxt = []
            for imgs in frontier:
                for gen in gens:
                    prod = tuple(gen[i] for i in imgs)
                    if prod not in seen:
                        seen.add(prod)
                        nxt.append(prod)
            frontier = nxt
        assert len(seen) == 7920
        elems = g.elements()
        assert len(elems) == 7920
        assert {tuple(p.images.tolist()) for p in elems} == seen
        assert Counter(p.order() for p in elems) == {
            1: 1, 2: 165, 3: 440, 4: 990, 5: 1584, 6: 1320, 8: 1980, 11: 1440,
        }


class TestElementBlocks:
    @pytest.mark.parametrize("rows", [1, 3, 50, 10**6])
    def test_every_element_once_as_key_rows(self, rows, monkeypatch):
        wide = 70000  # above 65 535 points a key takes 4 bytes a point
        s4_wide = PermGroup(wide, [from_cycles(wide, [(69997, 69998, 69999)]), from_cycles(wide, [(0, 69999)])])
        for g in (symmetric(5), psl2_mobius(7), alternating(6), s4_wide, PermGroup(4, [])):
            # a block holds BLOCK_ENTRIES // degree rows
            monkeypatch.setattr(group, "BLOCK_ENTRIES", rows * g.degree)
            blocks = list(g.iter_blocks())
            assert all(b.dtype == identity(g.degree).images.dtype for b in blocks)
            assert all(len(b) <= rows for b in blocks)
            keys = [r.tobytes() for b in blocks for r in b]
            assert len(keys) == g.order()
            assert set(keys) == {h.key for h in g.iter_elements()}

    def test_element_cap(self, monkeypatch):
        monkeypatch.setattr(group, "ELEMENT_CAP", 100)
        monkeypatch.setattr(group, "BLOCK_ENTRIES", 50)
        with pytest.raises(CapExceeded):
            next(symmetric(5).iter_blocks())


class TestConjugacyClasses:
    def test_s4_transpositions(self):
        s4 = symmetric(4)
        cls = conjugacy_class(s4, from_cycles(4, [(0, 1)]).key)
        assert len(cls) == 6
        members = [x for x in s4.elements() if x.key in cls]
        assert len(members) == 6
        assert all(x.order() == 2 for x in members)

    def test_class_is_every_conjugate(self):
        for g, x in ((symmetric(5), from_cycles(5, [(0, 1), (2, 3)])), (alternating(6), from_cycles(6, [(0, 1, 2)])), (psl2_mobius(7), psl2_mobius(7).gens[0])):
            assert conjugacy_class(g, x.key) == {(x**h).key for h in g.elements()}

    def test_class_past_one_key_byte_is_every_conjugate(self):
        # points at and above 256 use both bytes of the 2-byte key
        n = 300
        dihedral = PermGroup(n, [from_cycles(n, [range(n)]), Perm([-i % n for i in range(n)])])
        shifted = PermGroup(308, [Perm(list(range(300)) + [300 + g(i) for i in range(8)]) for g in psl2_mobius(7).gens])
        for g in (dihedral, shifted):
            for x in g.gens + [g.gens[0] * g.gens[1], g.gens[0] ** 2]:
                assert conjugacy_class(g, x.key) == {(x**h).key for h in g.elements()}

    def test_class_cap_is_inclusive(self, monkeypatch):
        transposition = from_cycles(4, [(0, 1)]).key
        monkeypatch.setattr(group, "CLASS_CAP", 6)
        assert len(conjugacy_class(symmetric(4), transposition)) == 6
        monkeypatch.setattr(group, "CLASS_CAP", 5)
        with pytest.raises(CapExceeded):
            conjugacy_class(symmetric(4), transposition)

    def test_s3_prime_order_classes(self):
        data = prime_order_class_reps(symmetric(3))
        assert {(c.order, c.class_size) for c in data} == {(2, 3), (3, 2)}
        for c in data:
            assert c.rep.key == min(c.elements)
            assert len(c.elements) == c.class_size

    def test_psl2_13_class_sizes_vs_exhaustive(self):
        g = psl2_mobius(13)
        data = prime_order_class_reps(g)
        by_order = {}
        for c in data:
            by_order[c.order] = by_order.get(c.order, 0) + c.class_size
        brute = {}
        for x in g.elements():
            o = x.order()
            if o in (2, 3, 7, 13):
                brute[o] = brute.get(o, 0) + 1
        assert by_order == brute
        assert sum(by_order.values()) == 909

    def test_class_size_divides_order(self):
        g = psl2_mobius(11)
        for c in prime_order_class_reps(g):
            assert g.order() % c.class_size == 0


class TestCaps:
    def test_element_cap(self, monkeypatch):
        monkeypatch.setattr(group, "ELEMENT_CAP", 100)
        with pytest.raises(CapExceeded):
            symmetric(5).elements()

    def test_class_cap(self, monkeypatch):
        monkeypatch.setattr(group, "CLASS_CAP", 5)
        with pytest.raises(CapExceeded):
            conjugacy_class(symmetric(7), from_cycles(7, [(0, 1)]).key)
