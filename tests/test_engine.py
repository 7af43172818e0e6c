"""Base pairs, suborbit statistics, the Q-estimates, graphs, cliques, reports."""

import json
import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from saxl.actions import (
    GroupVariant,
    LabelledAction,
    SubsetLabels,
    _certified,
    _induced,
    bundled_catalogue_path,
    coset_action,
    ksubset_action,
    load_catalogue,
    natural_action,
    psl2_c2_action,
    psl2_c3_action,
)
from saxl import engine
from saxl.engine import (
    CrossCheckFailed,
    SaxlReport,
    _Analysis,
    _analysis,
    build_report,
    check_star,
    clique_and_independence_exact,
    clique_lower,
    is_base_pair,
    lemma_calc_bound,
    max_clique_exact,
    q_exact,
    q_hat,
    q_tilde,
    regular_suborbit_count,
    saxl_graph,
    size_inequality,
    suborbits,
    t_value,
)
from saxl.cli import main
from saxl.gf import is_prime, prime_factors
from saxl.actions import Caps
from saxl.group import CapExceeded, PermGroup
from saxl.perm import from_cycles, identity

from conftest import (
    oracle_prime_class_data,
    prime_order_class_reps,
    reference_dot,
    reference_edge_list,
    reference_edges,
)


def a5_pairs():
    return ksubset_action(5, 2, even_only=True)


def c5_regular():
    g = PermGroup(5, [from_cycles(5, [(0, 1, 2, 3, 4)])])
    return natural_action(g, "C5-regular")


def s6_pairs():
    return ksubset_action(6, 2)


def c3_psl2_9():
    return psl2_c3_action(GroupVariant("PSL2", 9))


def fixture_pgl2_11_s4():
    entry = load_catalogue(bundled_catalogue_path())["PGL2_11_S4"]
    return coset_action(entry.group, entry.subgroup, entry.name)


def s3_natural():
    g = PermGroup(3, [from_cycles(3, [(0, 1, 2)]), from_cycles(3, [(0, 1)])])
    return natural_action(g, "S3-natural")


def refuse_element_lists(monkeypatch):
    """Make every call of ``PermGroup.elements`` or ``iter_elements`` fail:
    a pass that streams H's blocks must make none."""

    def refuse(self):
        raise RuntimeError("H's elements were listed")

    monkeypatch.setattr(PermGroup, "elements", refuse)
    monkeypatch.setattr(PermGroup, "iter_elements", refuse)


def brute_q_hat(action):
    """Class-size-weighted intersection sum, counting memberships directly."""
    H = action.stabiliser0()
    h_elems = H.elements()
    total = Fraction(0)
    for c in prime_order_class_reps(action.group):
        cnt = sum(1 for h in h_elems if h.key in c.elements)
        total += Fraction(cnt * cnt, c.class_size)
    return total


class TestBasePairs:
    @pytest.mark.parametrize(
        "build",
        [a5_pairs, lambda: psl2_c2_action(GroupVariant("PSL2", 7)), c3_psl2_9, fixture_pgl2_11_s4, s6_pairs],
    )
    def test_against_pointwise_stabiliser(self, build):
        act = build()
        g = act.group
        n = act.degree
        # every ordered pair up to 36 points; beyond, all pairs from four sources
        sources = range(n) if n <= 36 else (0, 1, n // 2, n - 1)
        for a in sources:
            for b in range(n):
                if a == b:
                    continue
                assert is_base_pair(act, a, b) == (g.pointwise_stabiliser([a, b]).order() == 1)

    def test_burnside_count_catches_a_tampered_orbit_table(self, monkeypatch):
        act = a5_pairs()
        H = act.stabiliser0()
        orbits = H.orbits()
        longest = max(orbits, key=len)
        split = [o for o in orbits if o is not longest] + [longest[:1], longest[1:]]
        monkeypatch.setattr(H, "orbits", lambda: sorted(split))
        refuse_element_lists(monkeypatch)
        with pytest.raises(CrossCheckFailed, match="Burnside"):
            _Analysis(act)

    def test_fixed_point_pass_keeps_no_elements(self, monkeypatch):
        act = a5_pairs()
        act.stabiliser0()
        refuse_element_lists(monkeypatch)
        _Analysis(act)

    def test_route_disagreement_is_caught(self, monkeypatch):
        # same number of orbits, so only the per-representative comparison can see it
        act = a5_pairs()
        H = act.stabiliser0()
        orbits = sorted(H.orbits(), key=len)
        short, regular = orbits[1], orbits[2]
        moved = [orbits[0], short + regular[-1:], regular[:-1]]
        monkeypatch.setattr(H, "orbits", lambda: sorted(moved))
        with pytest.raises(CrossCheckFailed, match="length route"):
            _Analysis(act)

    def test_diagonal_rejected(self):
        with pytest.raises(ValueError):
            is_base_pair(a5_pairs(), 3, 3)

    @pytest.mark.parametrize("a, b", [(0, -1), (-1, 3), (0, 10)])
    def test_points_out_of_range_rejected(self, a, b):
        with pytest.raises(ValueError, match="points must lie in"):
            is_base_pair(a5_pairs(), a, b)

    def test_disjoint_pairs_share_a_double_transposition(self):
        act = a5_pairs()
        i = act.label_index[(0, 1)]
        j = act.label_index[(2, 3)]
        stab = act.group.pointwise_stabiliser([i, j])
        assert stab.order() == 2
        fixer = next(x for x in stab.elements() if not x.is_identity())
        assert fixer.order() == 2
        assert not is_base_pair(act, i, j)


class TestSuborbits:
    def test_a5_pairs(self):
        act = a5_pairs()
        assert sorted(length for _, length in suborbits(act)) == [1, 3, 6]
        assert regular_suborbit_count(act) == 1

    def test_pgl2_8(self):
        act = psl2_c2_action(GroupVariant("PGL2", 8))
        assert sorted(length for _, length in suborbits(act)) == [1, 7, 7, 7, 14]
        assert regular_suborbit_count(act) == 1

    def test_psl2_13(self):
        act = psl2_c2_action(GroupVariant("PSL2", 13))
        assert regular_suborbit_count(act) == 5


class TestQExact:
    def test_a5_pairs(self):
        act = a5_pairs()
        assert q_exact(act) == Fraction(2, 5)
        # cross-check against the ordered-pair count from the graph
        g = saxl_graph(act)
        base_ordered = sum(1 for _ in reference_edges(g)) * 2
        n = act.degree
        assert q_exact(act) == Fraction(n * n - base_ordered, n * n)

    def test_pgl2_8(self):
        assert q_exact(psl2_c2_action(GroupVariant("PGL2", 8))) == Fraction(11, 18)

    def test_psl2_13(self):
        assert q_exact(psl2_c2_action(GroupVariant("PSL2", 13))) == Fraction(31, 91)

    def test_regular_action_has_q_zero(self):
        assert q_exact(c5_regular()) == 0

    def test_route_disagreement_is_caught(self):
        act = a5_pairs()
        _analysis(act).regular_count += 1  # r no longer matches the lengths
        with pytest.raises(CrossCheckFailed, match="Q cross-check"):
            q_exact(act)


class TestQEstimates:
    def test_frobenius_equality(self):
        act = s3_natural()
        assert q_exact(act) == q_hat(act) == q_tilde(act) == Fraction(1, 3)

    def test_trivial_stabiliser_gives_zero(self):
        act = c5_regular()
        assert q_hat(act) == 0
        assert q_tilde(act) == 0

    def test_psl2_13_thresholds(self, monkeypatch):
        act = psl2_c2_action(GroupVariant("PSL2", 13))
        refuse_element_lists(monkeypatch)  # the class step streams H
        qh = q_hat(act)
        assert qh == Fraction(51, 91)
        assert qh > Fraction(1, 2) > q_exact(act) > Fraction(1, 4)
        assert q_tilde(act) == qh

    def test_against_membership_oracle(self, fixture_actions):
        act = fixture_actions["L2_17_S4"]
        assert q_hat(act) == brute_q_hat(act) == Fraction(13, 17)

    def test_pooling_is_strictly_coarser_somewhere(self, fixture_actions):
        act = fixture_actions["L3_3_13_3"]
        assert q_hat(act) == brute_q_hat(act) == Fraction(7, 6)
        assert q_tilde(act) == Fraction(17, 12)
        assert q_hat(act) < q_tilde(act)

    def test_pooling_disagreement_is_caught(self, monkeypatch):
        act = a5_pairs()
        stab_parts = {c for c, _ in act.carrier[2]}
        real = engine.conjugacy_class
        # every H-class gains the identity's key, so the H pools outgrow the G-classes
        monkeypatch.setattr(
            engine,
            "conjugacy_class",
            lambda G, x: real(G, x) | {identity(G.degree).key} if set(G.gens) <= stab_parts else real(G, x),
        )
        with pytest.raises(CrossCheckFailed, match="pooling"):
            q_tilde(act)

    def test_dropped_class_member_is_caught(self, monkeypatch, capsys):
        real = engine.conjugacy_class
        # every class search loses its seed, a key: count and size both fall by one
        monkeypatch.setattr(engine, "conjugacy_class", lambda G, x: real(G, x) - {x})
        with pytest.raises(CrossCheckFailed, match="orbit-counting identity"):
            q_hat(a5_pairs())
        assert main(["analyze", "--psl2", "c2", "--q", "13"]) == 3
        assert "orbit-counting identity" in capsys.readouterr().err

    def test_chain_on_samples(self):
        for act in (a5_pairs(), s3_natural(), psl2_c2_action(GroupVariant("PSL2", 9))):
            assert q_exact(act) <= q_hat(act) <= q_tilde(act)


def _prime_class_variants():
    """Every c2 and c3 action with q <= 27, one per distinct group variant."""
    out = []
    for q in (4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27):
        f = GroupVariant("PSL2", q).f
        families = [("PSL2", 0)] + [("PGL2", 0)] * (q % 2)
        if f >= 2:
            families += [("PSigmaL2", 0)] + [("PGammaL2", 0)] * (q % 2)
            families += [("DeltaPhi", j) for j in range(1, f) if q % 2 and (f // math.gcd(f, j)) % 2 == 0]
        for kind, build in (("c2", psl2_c2_action), ("c3", psl2_c3_action)):
            if kind == "c2" or (q % 2 and q >= 5):
                out += [pytest.param(build, GroupVariant(family, q, j), id="%s-%s-%d-%d" % (kind, family, q, j)) for family, j in families]
    return out


def _sign_carried_s5_pairs():
    """S5 on its 10 pairs, certified through a carrier of 2 points on which
    each generator acts by its sign: D's chain leaves the carrier after its
    first level, so the carrier is not faithful."""
    pairs = list(combinations(range(5), 2))
    gens = [from_cycles(5, [(0, 1)]), from_cycles(5, [range(5)])]
    stab_gens = [from_cycles(5, [(0, 1)]), from_cycles(5, [(2, 3)]), from_cycles(5, [(3, 4)])]

    def by_sign(perms):
        signs = [from_cycles(2, [(0, 1)] * (sum(len(c) - 1 for c in g.cycles()) % 2)) for g in perms]
        return list(zip(signs, _induced(pairs, perms)))

    return _certified("S5/2-subsets by sign", tuple(pairs), 2, by_sign(gens), by_sign(stab_gens), 120)


class TestPrimeClassData:
    """The carrier search against the label-degree oracle."""

    @staticmethod
    def _agree(act):
        g_classes, pools = engine._prime_class_data(act)
        oracle_classes, oracle_pools = oracle_prime_class_data(act)
        assert sorted(g_classes) == sorted(oracle_classes)
        assert pools == oracle_pools

    def test_catalogue_fixtures(self, catalogue, fixture_actions):
        for name, entry in catalogue.items():
            self._agree(fixture_actions[name] if entry.subgroup else natural_action(entry.group, name))

    @pytest.mark.parametrize("n, k, even_only", [(5, 2, True), (6, 2, False), (7, 3, True), (10, 2, False)])
    def test_ksubsets(self, n, k, even_only):
        act = ksubset_action(n, k, even_only=even_only)
        assert act.carrier[0] == n  # S_n's own points carry it
        self._agree(act)

    def test_action_without_carrier_is_refused(self):
        s3 = PermGroup(3, [from_cycles(3, [(0, 1, 2)]), from_cycles(3, [(0, 1)])])
        with pytest.raises(ValueError, match="S3 has no certified carrier"):
            q_hat(LabelledAction(s3, (0, 1, 2), "S3"))

    def test_kernel_action_falls_back_to_labels(self):
        s4 = PermGroup(4, [from_cycles(4, [(0, 1, 2, 3)]), from_cycles(4, [(0, 1)])])
        d8 = PermGroup(4, [from_cycles(4, [(0, 1, 2, 3)]), from_cycles(4, [(1, 3)])])
        act = coset_action(s4, d8, "S4/D8")
        assert act.carrier[0] == act.degree
        assert all(c == g for pairs in act.carrier[1:] for c, g in pairs)
        self._agree(act)

    def test_unfaithful_carrier_falls_back_to_labels(self):
        act = _sign_carried_s5_pairs()
        assert act.carrier[0] == act.degree
        assert all(c == g for pairs in act.carrier[1:] for c, g in pairs)
        self._agree(act)
        assert q_hat(act) == brute_q_hat(act)

    @pytest.mark.parametrize("build, variant", _prime_class_variants())
    def test_psl2_variants(self, build, variant):
        act = build(variant)
        assert act.carrier[0] == act.carrier[1][0][0].degree < act.degree
        self._agree(act)


class TestCarrierStreams:
    """G_0's elements streamed from its carrier chain through the rank form."""

    @pytest.mark.parametrize("stream", [_Analysis, engine._prime_class_data], ids=["suborbits", "classes"])
    @pytest.mark.parametrize(
        "build", [lambda: psl2_c2_action(GroupVariant("PSL2", 7)), lambda: ksubset_action(6, 2)], ids=["c2", "S6-2"]
    )
    def test_label_map_that_is_not_faithful_is_caught(self, monkeypatch, build, stream):
        act = build()
        real = SubsetLabels.label_rows

        def collapsing(self, rows):
            # the first non-identity row of each block becomes the identity on the labels
            labels = real(self, rows).copy()
            moved = np.flatnonzero((rows != np.arange(self.m)).any(axis=1))
            labels[moved[:1]] = np.arange(self.n)
            return labels

        monkeypatch.setattr(SubsetLabels, "label_rows", collapsing)
        with pytest.raises(CrossCheckFailed, match="streamed elements of H are the identity on the labels, not 1"):
            stream(act)


class TestPrimeOrders:
    """The powers of all rows at once against ``Perm.order`` per element."""

    @staticmethod
    def _agree(act):
        m, _, stab_gens = act.carrier
        H = PermGroup(m, [c for c, _ in stab_gens])
        elements = list(H.iter_elements())
        rows = np.array([h.images for h in elements])
        want = [o if is_prime(o) else 0 for o in (h.order() for h in elements)]
        assert engine._prime_orders(rows, prime_factors(H.order())).tolist() == want

    @pytest.mark.parametrize("build, variant", _prime_class_variants())
    def test_psl2_variants(self, build, variant):
        self._agree(build(variant))

    def test_s10_pairs(self):
        self._agree(ksubset_action(10, 2))


class TestTValue:
    def test_fixture_values(self, fixture_actions):
        expected = {
            "S7_AGL17": 1,
            "A9_ASL23": 2,
            "M11_2S4": 1,
            "L2_17_S4": 3,
            "PGL2_13_S4": 2,
            "PGL2_11_S4": 1,
            "L3_3_13_3": 2,
            "L3_3_O3": 2,
        }
        for name, want in expected.items():
            assert t_value(fixture_actions[name]) == want, name

    def test_sentinel_for_q_zero(self):
        assert t_value(c5_regular()) == 5

    def test_rejects_non_base_two(self, catalogue):
        act = natural_action(catalogue["M11"].group, "M11-natural")
        assert q_exact(act) == 1
        with pytest.raises(ValueError):
            t_value(act)


class TestLemmaBound:
    def test_alternating_instance(self):
        value = lemma_calc_bound(156, 135135, 2)
        assert value == Fraction(24336, 135135)
        assert value < Fraction(1, 4)

    def test_c_one_returns_numerator(self):
        assert lemma_calc_bound(7, 4, 1) == 7

    def test_equal_inputs(self):
        assert lemma_calc_bound(9, 9, 2) == 9

    def test_zero_numerator(self):
        assert lemma_calc_bound(0, 5, 3) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            lemma_calc_bound(-1, 5, 2)
        with pytest.raises(ValueError):
            lemma_calc_bound(5, 0, 2)
        with pytest.raises(ValueError):
            lemma_calc_bound(5, 5, 0)


class TestGraph:
    def test_a5_pairs_valency(self):
        g = saxl_graph(a5_pairs())
        assert g.valency == 6
        assert sum(1 for _ in reference_edges(g)) == 30
        for v in range(g.n):
            assert sum(g.has_edge(v, b) for b in range(g.n)) == 6

    def test_pgl2_8_valency(self):
        g = saxl_graph(psl2_c2_action(GroupVariant("PGL2", 8)))
        assert g.valency == 14
        assert sum(1 for _ in reference_edges(g)) == 36 * 14 // 2

    def test_regular_action_gives_complete_graph(self):
        g = saxl_graph(c5_regular())
        assert g.valency == 4
        assert sum(1 for _ in reference_edges(g)) == 10

    def test_edges_are_ordered_and_match_has_edge(self):
        g = saxl_graph(a5_pairs())
        for a, b in reference_edges(g):
            assert a < b
            assert g.has_edge(a, b) and g.has_edge(b, a)

    def test_serialisations(self):
        g = saxl_graph(c5_regular())
        lines = "".join(g.to_edge_list()).strip().split("\n")
        assert len(lines) == 10
        assert lines[0] == "0 1"
        dot = "".join(g.to_dot())
        assert dot.startswith("graph {")
        assert dot.rstrip().endswith("}")
        assert "  0 -- 1;" in dot

    @pytest.mark.parametrize(
        "build",
        [
            a5_pairs,
            c5_regular,
            lambda: ksubset_action(10, 2),  # no regular suborbit: no edges
            lambda: natural_action(load_catalogue(bundled_catalogue_path())["M11"].group, "M11-natural"),
            lambda: psl2_c2_action(GroupVariant("PSigmaL2", 13)),
        ],
        ids=["A5-pairs", "C5-regular", "S10-pairs", "M11-natural", "c2-q13-psigma"],
    )
    def test_exports_match_the_bit_loop_reference(self, build):
        g = saxl_graph(build())
        assert "".join(g.to_edge_list()) == reference_edge_list(g)
        assert "".join(g.to_dot()) == reference_dot(g)

    def test_rows_are_read_only_and_match_has_edge(self):
        g = saxl_graph(a5_pairs())
        assert not g.packed.flags.writeable
        for a in range(g.n):
            assert g.row(a).tolist() == [g.has_edge(a, b) for b in range(g.n)]

    @pytest.mark.parametrize("a, b", [(-1, 3), (0, -1), (0, 10), (0, 500)])
    def test_has_edge_refuses_points_outside(self, a, b):
        with pytest.raises(ValueError, match=r"points must lie in 0\.\.9"):
            saxl_graph(a5_pairs()).has_edge(a, b)

    @pytest.mark.parametrize("a", [-1, 10])
    def test_row_refuses_points_outside(self, a):
        with pytest.raises(ValueError, match=r"points must lie in 0\.\.9"):
            saxl_graph(a5_pairs()).row(a)

    def test_tampered_flags_are_caught(self):
        act = a5_pairs()
        data = _analysis(act)
        short = next(o for o, regular in zip(data.orbits[1:], data.regular[1:]) if not regular)
        data.flags[short] = True  # the disjoint pairs: symmetric, but valency 9
        with pytest.raises(CrossCheckFailed, match="valency"):
            saxl_graph(act)

    def test_asymmetric_rows_are_caught(self, monkeypatch):
        act = a5_pairs()
        data = _analysis(act)
        walk = list(data.tree.walk())
        # every point gets the row of the next point in the walk
        shifted = [(a, w) for (a, _), (_, w) in zip(walk, walk[1:] + walk[:1])]
        monkeypatch.setattr(data.tree, "walk", lambda: iter(shifted))
        with pytest.raises(CrossCheckFailed, match="not symmetric"):
            saxl_graph(act)

    def test_packed_rows_stay_small(self):
        # PSigmaL(2,81) on pairs, n = 3321: the result is 1.5 MB, and a dense
        # n x n boolean matrix alone would be 11 MB
        act = psl2_c2_action(GroupVariant("PSigmaL2", 81))
        _analysis(act)
        tracemalloc.start()
        try:
            graph = saxl_graph(act)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.n == 3321 and graph.valency == 5 * 320
        assert peak < 5 * 2**20

    def test_graph_cap(self, monkeypatch):
        act = ksubset_action(5, 2, even_only=True)
        monkeypatch.setattr(engine, "GRAPH_CAP", 5)
        with pytest.raises(CapExceeded):
            saxl_graph(act)


class TestStar:
    def test_a5_pairs(self):
        act = a5_pairs()
        ok, witnesses = check_star(act)
        assert ok
        g = saxl_graph(act)
        assert witnesses
        for rep, w in witnesses.items():
            assert w is not None
            assert g.has_edge(0, w) and g.has_edge(rep, w)

    def test_rejects_non_base_two(self, catalogue):
        act = natural_action(catalogue["M11"].group, "M11-natural")
        with pytest.raises(ValueError):
            check_star(act)


class TestCliques:
    def test_greedy_reaches_four_on_a5_pairs(self):
        ok, verts = clique_lower(a5_pairs(), 4)
        assert ok and len(verts) == 4
        g = saxl_graph(a5_pairs())
        for i, a in enumerate(verts):
            for b in verts[i + 1 :]:
                assert g.has_edge(a, b)

    def test_greedy_cannot_exceed_maximum(self):
        ok, verts = clique_lower(a5_pairs(), 5)
        assert not ok
        assert len(verts) < 5

    def test_target_validation(self):
        with pytest.raises(ValueError):
            clique_lower(a5_pairs(), 1)

    def test_exact_numbers(self):
        for act, sizes in ((a5_pairs(), (4, 2)), (c5_regular(), (5, 1))):
            clique, independent = clique_and_independence_exact(act)
            assert (len(clique), len(independent)) == sizes
            assert clique == sorted(clique) and independent == sorted(independent)
            g = saxl_graph(act)
            for i, a in enumerate(clique):
                assert all(g.has_edge(a, b) for b in clique[i + 1 :])
            for i, a in enumerate(independent):
                assert not any(g.has_edge(a, b) for b in independent[i + 1 :])

    def test_max_clique_on_path(self):
        # path 0-1-2: rows as bitmasks
        rows = (0b010, 0b101, 0b010)
        assert len(max_clique_exact(rows, 3)) == 2

    def test_exact_cap(self):
        with pytest.raises(CapExceeded, match="degree 10 exceeds exact-search cap 5"):
            ksubset_action(5, 2, even_only=True, caps=Caps(exact_cap=5))


class TestSizeInequality:
    def test_examples(self):
        assert size_inequality(504, 14)
        assert not size_inequality(6, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            size_inequality(0, 3)
        with pytest.raises(ValueError):
            size_inequality(6, -1)


class TestReports:
    def test_full_report_on_a5_pairs(self):
        rep = build_report(a5_pairs(), clique_target=4, exact_search=True)
        d = rep.to_json_dict()
        assert d["schema"] == 1
        assert d["n"] == 10
        assert d["stab_order"] == 6
        assert d["regular_count"] == 1
        assert d["q_exact"] == {"num": 2, "den": 5}
        assert d["q_hat"] == {"num": 4, "den": 5}
        assert d["t_value"] == 2
        assert d["t_unbounded"] is False
        assert d["star_ok"] is True
        assert d["clique_lb"] == 4
        assert d["clique_exact"] == 4
        assert d["independence_exact"] == 2
        assert d["size_inequality_ok"] is (4 * 36 <= 3 * 60)
        json.loads(rep.to_json())

    def test_report_is_deterministic(self):
        a = build_report(a5_pairs(), exact_search=True).to_json()
        b = build_report(a5_pairs(), exact_search=True).to_json()
        assert a == b

    def test_one_point_action(self):
        # a group acting on the cosets of itself: one point, and G's chain has no levels
        g = PermGroup(3, [from_cycles(3, [(0, 1, 2)])])
        rep = build_report(coset_action(g, g, "C3/C3"))
        assert (rep.n, rep.regular_count, rep.q_exact, rep.star_ok) == (1, 1, 0, True)

    def test_sections_can_be_skipped(self):
        rep = build_report(c5_regular(), with_classes=False, with_star=False)
        assert rep.q_hat is None and rep.q_tilde is None
        assert rep.star_ok is None
        assert rep.t_unbounded is True
        assert rep.t_value == 5
