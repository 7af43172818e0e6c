"""Labelled actions: k-subsets, cosets, the projective families, catalogue I/O."""

import hashlib
import math
from itertools import chain, combinations

import numpy as np
import pytest

from conftest import omega_point_repr, oracle_induced
from saxl import actions
from saxl.actions import (
    LINE_INF,
    CatalogueError,
    GroupVariant,
    LabelledAction,
    bundled_catalogue_path,
    c3_canonical_logs,
    c3_isotropic,
    c3_label_logs,
    coset_action,
    ksubset_action,
    load_catalogue,
    psl2_c2_action,
    psl2_c3_action,
    su2_conjugator,
    _certified,
    _induced,
)
from saxl.cli import main
from saxl.gf import LOG_ZERO, field_create, field_from_order, log_add, log_mul, log_neg, log_pow, split_prime_power
from saxl.group import CapExceeded, CrossCheckFailed, PermGroup, StabChain
from saxl.perm import Perm, from_cycles


class TestKSubsetAction:
    def test_a5_on_pairs(self):
        act = ksubset_action(5, 2, even_only=True)
        assert act.degree == 10
        assert act.group.order() == 60
        assert act.stabiliser0().order() == 6
        assert act.labels == tuple(combinations(range(5), 2))

    def test_action_respects_subsets(self):
        act = ksubset_action(4, 2)
        for base in (from_cycles(4, [(0, 1, 2)]), from_cycles(4, [(0, 1, 2, 3)])):
            images = [0] * act.degree
            for i, lab in enumerate(act.labels):
                images[i] = act.label_index[tuple(sorted(base(x) for x in lab))]
            assert act.group.contains(Perm(images))

    def test_k1_is_natural_action(self):
        act = ksubset_action(4, 1)
        assert act.degree == 4
        assert act.group.order() == 24

    def test_validation(self):
        with pytest.raises(ValueError):
            ksubset_action(4, 0)
        with pytest.raises(ValueError):
            ksubset_action(4, 4)

    def test_caps(self):
        with pytest.raises(CapExceeded):
            ksubset_action(50, 4)  # degree 230300 over the point cap
        with pytest.raises(CapExceeded):
            ksubset_action(13, 2)  # 13! over the group cap


class TestCosetAction:
    def test_s7_over_affine_row(self, catalogue):
        entry = catalogue["S7_AGL17"]
        act = coset_action(entry.group, entry.subgroup, "S7_AGL17")
        assert act.degree == 120
        assert act.stabiliser0().order() == 42
        assert act.group.is_transitive()
        assert act.labels == tuple(range(120))

    def test_rejects_non_subgroup(self):
        a5 = PermGroup(5, [from_cycles(5, [range(5)]), from_cycles(5, [(0, 1, 2)])])
        odd = PermGroup(5, [from_cycles(5, [(0, 1)])])
        with pytest.raises(ValueError):
            coset_action(a5, odd)

    def test_kernel_is_the_core_of_the_subgroup(self):
        # S4 on the 3 cosets of D8: the kernel is the Klein four-group
        s4 = PermGroup(4, [from_cycles(4, [(0, 1, 2, 3)]), from_cycles(4, [(0, 1)])])
        d8 = PermGroup(4, [from_cycles(4, [(0, 1, 2, 3)]), from_cycles(4, [(1, 3)])])
        act = coset_action(s4, d8, "S4/D8")
        assert act.degree == 3
        assert act.warnings == ("action has kernel of order 4",)
        assert act.group.order() == 6
        assert act.stabiliser0().order() == 2
        assert act.group.same_group(PermGroup(3, [from_cycles(3, [(0, 1, 2)]), from_cycles(3, [(1, 2)])]))

    def test_point_cap(self):
        s12 = PermGroup(12, [from_cycles(12, [range(12)]), from_cycles(12, [(0, 1)])])
        trivial = PermGroup(12, [])
        with pytest.raises(CapExceeded):
            coset_action(s12, trivial)


class TestGroupVariant:
    def test_field_deduction(self):
        v = GroupVariant("PSL2", 27)
        assert (v.p, v.f) == (3, 3)
        assert v.describe() == "PSL2(27)"

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            GroupVariant("PSL3", 9)

    def test_q_must_be_prime_power(self):
        with pytest.raises(ValueError):
            GroupVariant("PSL2", 6)

    def test_j_only_for_product_coset_family(self):
        with pytest.raises(ValueError):
            GroupVariant("PSL2", 9, j=1)

    def test_product_coset_validity(self):
        assert GroupVariant("DeltaPhi", 9, 1).describe() == "DeltaPhi(j=1,q=9)"
        GroupVariant("DeltaPhi", 25, 1)
        with pytest.raises(ValueError):
            GroupVariant("DeltaPhi", 27, 1)  # f / gcd(f, j) = 3 is odd
        with pytest.raises(ValueError):
            GroupVariant("DeltaPhi", 9, 0)
        with pytest.raises(ValueError):
            GroupVariant("DeltaPhi", 9, 2)
        with pytest.raises(ValueError):
            GroupVariant("DeltaPhi", 8, 1)  # needs odd q

    def test_index_over_psl2(self):
        assert GroupVariant("PGL2", 8).index == 1
        assert GroupVariant("PGammaL2", 27).index == 6
        assert GroupVariant("DeltaPhi", 81, 1).index == 4
        assert [GroupVariant(family, 9).index for family in ("PSL2", "PGL2", "PSigmaL2", "PGammaL2")] == [1, 2, 2, 4]

    @pytest.mark.parametrize("build", [psl2_c2_action, psl2_c3_action])
    def test_over_cap_group_builds_no_field(self, monkeypatch, build):
        def no_field(p, f):
            raise AssertionError("field_create ran for an over-cap group")

        monkeypatch.setattr(actions, "field_create", no_field)
        with pytest.raises(CapExceeded, match="group order"):
            build(GroupVariant("PSigmaL2", 243))


class TestInduced:
    def test_permutes_blocks(self):
        assert _induced([(0, 1), (2, 3)], [from_cycles(4, [(0, 2), (1, 3)])]) == [Perm([1, 0])]

    def test_refuses_a_generator_that_breaks_a_block(self):
        with pytest.raises(CrossCheckFailed, match="does not permute the blocks"):
            _induced([(0, 1), (2, 3)], [from_cycles(4, [(1, 2)])])
        with pytest.raises(CrossCheckFailed, match="does not permute the blocks"):
            oracle_induced([(0, 1), (2, 3)], [from_cycles(4, [(1, 2)])])

    def test_refuses_a_block_past_the_last(self):
        # (2, 3) goes to (3, 4), which sorts after every block
        with pytest.raises(CrossCheckFailed, match="does not permute the blocks"):
            _induced([(0, 1), (2, 3)], [from_cycles(5, [(2, 4)])])

    @pytest.mark.parametrize(
        "build, sizes",
        [
            (lambda: psl2_c3_action(GroupVariant("PGammaL2", 9)), {1, 2}),  # isotropic points, then label pairs
            (lambda: psl2_c2_action(GroupVariant("PGammaL2", 9)), {2}),
            (lambda: ksubset_action(7, 3), {3}),
            (lambda: ksubset_action(7, 3, even_only=True), {3}),
        ],
        ids=["c3", "c2", "S7-3", "A7-3"],
    )
    def test_against_the_dict_route(self, monkeypatch, build, sizes):
        seen = set()

        def checked(blocks, carrier_gens):
            got = _induced(blocks, carrier_gens)
            assert got == oracle_induced(blocks, carrier_gens)
            seen.add(len(blocks[0]))
            return got

        monkeypatch.setattr(actions, "_induced", checked)
        build()
        assert seen == sizes

    def test_against_the_dict_route_past_one_key_byte(self):
        # 300 carrier points: both bytes of a point differ between blocks
        rng = np.random.default_rng(5)
        gens = [Perm(rng.permutation(300).tolist()) for _ in range(3)]
        for k in (1, 2):
            blocks = list(combinations(range(300), k))
            assert _induced(blocks, gens) == oracle_induced(blocks, gens)


class TestProjectivePairAction:
    def test_q9_family_orders(self):
        expected = {
            "PSL2": 360,
            "PGL2": 720,
            "PSigmaL2": 720,
            "PGammaL2": 1440,
        }
        for family, order in expected.items():
            act = psl2_c2_action(GroupVariant(family, 9))
            assert act.degree == 45
            assert act.group.order() == order, family
        dphi = psl2_c2_action(GroupVariant("DeltaPhi", 9, 1))
        assert dphi.group.order() == 720
        # the three index-2 subgroups of PGammaL2(9) over PSL2(9) differ
        pgl = psl2_c2_action(GroupVariant("PGL2", 9))
        psig = psl2_c2_action(GroupVariant("PSigmaL2", 9))
        assert not dphi.group.same_group(pgl.group)
        assert not dphi.group.same_group(psig.group)
        assert not pgl.group.same_group(psig.group)

    def test_even_q(self):
        act = psl2_c2_action(GroupVariant("PSL2", 8))
        assert act.degree == 36
        assert act.group.order() == 504

    def test_labels_are_projective_pairs(self):
        act = psl2_c2_action(GroupVariant("PSL2", 7))
        assert act.degree == 28
        # sorted pairs of the codes LINE_INF, LOG_ZERO and the logs 0, ..., q - 2
        assert act.labels == tuple(combinations(range(LINE_INF, 6), 2))
        assert act.labels[0] == (LINE_INF, LOG_ZERO)

    def test_q5_warns_but_builds(self):
        act = psl2_c2_action(GroupVariant("PSL2", 5))
        assert act.degree == 15
        assert act.warnings and "q = 5" in act.warnings[0]
        assert not act.group.is_primitive()

    def test_q_too_small(self):
        with pytest.raises(ValueError):
            psl2_c2_action(GroupVariant("PSL2", 3))


class TestUnitaryPairAction:
    def test_orders_and_degree(self):
        act = psl2_c3_action(GroupVariant("PSL2", 9))
        assert act.degree == 36
        assert act.group.order() == 360
        act2 = psl2_c3_action(GroupVariant("PSigmaL2", 9))
        assert act2.group.order() == 720

    def test_even_q_rejected(self):
        with pytest.raises(ValueError):
            psl2_c3_action(GroupVariant("PSL2", 8))

    def test_canonical_log_involution(self):
        q = 9
        F2 = field_create(3, 4)
        m = F2.q - 1
        logs = np.arange(m)
        isotropic = c3_isotropic(F2, q, logs)
        assert logs[isotropic].tolist() == [L for L in range(m) if L * (q + 1) % m == m // 2]
        assert isotropic.sum() == q + 1 and not c3_isotropic(F2, q, LOG_ZERO)
        logs = logs[~isotropic]
        c = c3_canonical_logs(F2, q, logs)
        assert (c3_canonical_logs(F2, q, c) == c).all()
        assert (c == np.minimum(logs, (m // 2 - q * logs) % m)).all()

    def test_label_logs(self):
        q = 9
        F2 = field_create(3, 4)
        logs = c3_label_logs(F2, q)
        assert len(logs) == (F2.q - 1 - (q + 1)) // 2  # = degree - 1
        assert logs == sorted(set(logs))
        act = psl2_c3_action(GroupVariant("PSL2", q))
        assert act.degree == len(logs) + 1
        assert act.labels == (LOG_ZERO, *logs)

    def test_su2_conjugator_shape(self):
        q = 9
        F2 = field_create(3, 4)
        C = su2_conjugator(F2, q)
        conj = log_pow(F2, C, q)
        # C * conj(C)^T, entry (i, j) = sum_k C[i, k] conj(C[j, k]), must be
        # antisymmetric with zero diagonal
        M = log_add(F2, *(log_mul(F2, C[:, None, k], conj[None, :, k]) for k in (0, 1)))
        assert (np.diag(M) == LOG_ZERO).all()
        assert M[0, 1] == log_neg(F2, M[1, 0]) and M[0, 1] != LOG_ZERO

    def test_identity_conjugator_is_refused_as_not_unitary(self, monkeypatch, capsys):
        # C = 1 leaves SL(2,q)'s generators as they are: determinant 1, not unitary
        monkeypatch.setattr(actions, "su2_conjugator", lambda F2, q: np.where(np.eye(2, dtype=bool), 0, LOG_ZERO))
        with pytest.raises(CrossCheckFailed, match="not unitary"):
            psl2_c3_action(GroupVariant("PSL2", 9))
        assert main(["analyze", "--psl2", "c3", "--q", "9"]) == 3
        assert "not unitary" in capsys.readouterr().err

    def test_scaled_inverse_is_refused_for_its_determinant(self, monkeypatch, capsys):
        # lambda C^-1 in place of C^-1 scales every determinant by lambda^2
        inverse = actions._mat_inv
        monkeypatch.setattr(actions, "_mat_inv", lambda F, M: log_mul(F, inverse(F, M), 1))
        with pytest.raises(CrossCheckFailed, match="determinant 1"):
            psl2_c3_action(GroupVariant("PSL2", 9))
        assert main(["analyze", "--psl2", "c3", "--q", "9"]) == 3
        assert "determinant 1" in capsys.readouterr().err


def _distinct_variants(fields):
    """Every GroupVariant with q in ``fields`` whose extension of PSL(2,q) is
    not already another family's: PGL2 needs odd q, PSigmaL2 needs f > 1,
    PGammaL2 both."""
    for q in fields:
        try:
            p, f = split_prime_power(q)
        except ValueError:
            continue
        h = math.gcd(2, q - 1)
        yield GroupVariant("PSL2", q)
        if h == 2:
            yield GroupVariant("PGL2", q)
        if f > 1:
            yield GroupVariant("PSigmaL2", q)
        if h == 2 and f > 1:
            yield GroupVariant("PGammaL2", q)
            for j in range(1, f):
                if (f // math.gcd(f, j)) % 2 == 0:
                    yield GroupVariant("DeltaPhi", q, j)


class TestPinnedGenerators:
    """sha256 over the generators, point-0 stabiliser generators and labels
    of every distinct c2/c3 variant with q <= 27, and over the generators and
    labels of six k-subset actions, pinned before the constructors were
    rewritten; and the same over every distinct c2/c3 variant at q = 49 and
    81, pinned before the projective maps moved to log arrays.  A k-subset
    action's stabiliser generators are the explicit ones of S_k x S_{n-k},
    which its certificate checks, so they are left out.  Labels are hashed
    in the boxed form they had then (``conftest.omega_point_repr``), so each
    action comes with its label kind and, for a pair action, its field.  CI
    runs this class under two hash seeds."""

    DIGEST = "e80effaeae13f6d8207434e9f3b17d731e94eeaf7d135f7a131c47c221a0427a"
    DIGEST_49_81 = "2b711fa94fc40db39518c05cb45e085e8635922e883dfd395fd99be57bf80404"

    @staticmethod
    def _projective(fields):
        for variant in _distinct_variants(fields):
            yield "proj_pair", psl2_c2_action(variant), field_from_order(variant.q)
            if variant.q % 2 and variant.q >= 5:
                yield "c3_point", psl2_c3_action(variant), None

    @staticmethod
    def _digest(acts) -> tuple[int, str]:
        """Count and digest of (label kind, action, field) triples."""
        digest = hashlib.sha256()
        count = 0
        for kind, act, F in acts:
            stab_gens = [] if kind == "k_subset" else act.stabiliser0().gens
            for gens in (act.group.gens, stab_gens):
                digest.update(b"".join(g.key for g in gens) + b"|")
            digest.update(omega_point_repr(kind, act.labels, F).encode() + b"\n")
            count += 1
        return count, digest.hexdigest()

    def test_generator_digest(self):
        subsets = ((4, 1, False), (5, 2, True), (6, 2, False), (6, 3, False), (7, 3, True), (8, 2, False))
        acts = [("k_subset", ksubset_action(n, k, even_only=even), None) for n, k, even in subsets]
        assert self._digest(chain(acts, self._projective(range(4, 28)))) == (68, self.DIGEST)

    def test_generator_digest_q49_q81(self):
        assert self._digest(self._projective((49, 81))) == (24, self.DIGEST_49_81)


class TestLabelledActionInvariants:
    def test_duplicate_labels_rejected(self):
        g = PermGroup(3, [from_cycles(3, [(0, 1, 2)])])
        labs = (0,) * 3
        with pytest.raises(ValueError):
            LabelledAction(g, labs, "bad")

    def test_label_count_must_match_degree(self):
        g = PermGroup(3, [from_cycles(3, [(0, 1, 2)])])
        labs = (0, 1)
        with pytest.raises(ValueError):
            LabelledAction(g, labs, "bad")

    def test_intransitive_rejected(self):
        g = PermGroup(4, [from_cycles(4, [(0, 1)])])
        labs = tuple(range(4))
        with pytest.raises(ValueError):
            LabelledAction(g, labs, "bad")

    def test_index_of(self):
        act = ksubset_action(4, 2)
        for i, lab in enumerate(act.labels):
            assert act.label_index[lab] == i

    @pytest.mark.parametrize(
        "group_gens, stab_gens, refusal",
        [
            # S4 with S3 on {0, 1, 2}: the right order, but it moves 0
            ([[(0, 1, 2, 3)], [(0, 1)]], [[(0, 1, 2)], [(0, 1)]], "moves label 0"),
            # D4 with <(1 2)>: the right order, fixes 0, not in D4
            ([[(0, 1, 2, 3)], [(1, 3)]], [[(1, 2)]], "is not in the group"),
        ],
    )
    def test_explicit_stabiliser_is_certified(self, group_gens, stab_gens, refusal):
        gens = [from_cycles(4, c) for c in group_gens]
        stab = [from_cycles(4, c) for c in stab_gens]
        labs = tuple(range(4))
        order = PermGroup(4, gens).order()
        with pytest.raises(CrossCheckFailed, match="point stabiliser generator " + refusal):
            _certified("bad", labs, 4, [(g, g) for g in gens], [(h, h) for h in stab], order)

    def test_certificate_checks_orbit_and_stabiliser_order(self):
        s3 = [from_cycles(3, [(0, 1, 2)]), from_cycles(3, [(0, 1)])]
        # S3 on four labels, the last one fixed: the right order, not transitive
        on_four = [(g, Perm(list(g.images) + [3])) for g in s3]
        labs = tuple(range(4))
        with pytest.raises(CrossCheckFailed, match="label 0 has an orbit of length 3, not 4"):
            _certified("bad", labs, 3, on_four, [], 6)
        # S3 naturally, with a trivial stabiliser in place of <(1 2)>
        with pytest.raises(CrossCheckFailed, match="point stabiliser order 1, expected 2"):
            _certified("bad", labs[:3], 3, [(g, g) for g in s3], [], 6)


class TestCatalogue:
    def test_bundled_contents(self, catalogue):
        assert len(catalogue) == 9
        assert catalogue["M11"].subgroup is None
        assert catalogue["M11"].group.order() == 7920
        for entry in catalogue.values():
            assert entry.group.order() == entry.expected_order
            if entry.subgroup is not None:
                assert entry.subgroup.order() == entry.expected_suborder
                assert entry.subgroup.is_subgroup_of(entry.group)

    def test_roundtrip_minimal(self, tmp_path):
        text = (
            "# comment\n"
            "name Tiny\n"
            "degree 3\n"
            "gen (1,2,3)\n"
            "expect order 3\n"
        )
        path = tmp_path / "cat.txt"
        path.write_text(text)
        cat = load_catalogue(path)
        assert cat["Tiny"].group.order() == 3
        assert cat["Tiny"].subgroup is None

    @pytest.mark.parametrize(
        "body,message",
        [
            ("name A\ndegree 3\ngen (1,2\nexpect order 3\n", "bad cycle"),
            ("name A\ndegree 3\ngen (1,2,3)\nexpect order 6\n", "declared"),
            ("name A\ndegree 3\ngen (1,2,3)\nexpect order 3 suborder 1\n", "together"),
            (
                "name A\ndegree 3\ngen (1,2,3)\nsub gen (1,2)\n"
                "expect order 3 suborder 2\n",
                "not inside",
            ),
            ("name A\ndegree 3\ngen (1,2,3)\nwibble 3\n", "unrecognised"),
            ("name A\ndegree 3\ngen (1,2,3)\n", "no 'expect'"),
            ("name A\ngen (1,2,3)\n", "before 'degree'"),
            ("name A\ndegree 0\ngen ()\nexpect order 1\n", "line 2: degree 0 is below 1"),
            ("name A\ndegree -2\ngen ()\nexpect order 1\n", "line 2: degree -2 is below 1"),
            ("name A\ndegree 5\ngen (1,2)\ndegree 6\ngen (1,2,3)\nexpect order 6\n", "line 4: second 'degree' in record 'A'"),
            ("name A\ndegree 3\ngen (1,2,3)\nexpect order 0\n", "line 4: order 0 is below 1"),
            ("name A\ndegree 3\ngen (1,2,3)\nsub gen ()\nexpect order 3 suborder 0\n", "line 5: suborder 0 is below 1"),
            ("degree 3\n", "outside a record"),
            (
                "name A\ndegree 3\ngen (1,2,3)\nexpect order 3\n"
                "name A\ndegree 3\ngen (1,2,3)\nexpect order 3\n",
                "duplicate",
            ),
        ],
    )
    def test_parse_errors(self, tmp_path, body, message):
        path = tmp_path / "cat.txt"
        path.write_text(body)
        if message not in ("declared", "not inside"):
            with pytest.raises(CatalogueError, match=message):
                load_catalogue(path)
            return
        # a declared order is checked when the entry is first used, at its expect line
        entry = load_catalogue(path)["A"]
        for _ in range(2):
            with pytest.raises(CatalogueError, match="line %d: entry 'A': .*%s" % (body.count("\n"), message)):
                entry.group
        with pytest.raises(CatalogueError, match=message):
            entry.subgroup

    def test_under_declared_order_stops_the_chain(self, tmp_path, monkeypatch, capsys):
        # S_30 declared of order 2: the chain stops once its transversals
        # hold more than 2 cosets, and the error is at the expect line
        path = tmp_path / "cat.txt"
        path.write_text("name S30\ndegree 30\ngen (%s)\ngen (1,2)\nexpect order 2\n" % ",".join(map(str, range(1, 31))))
        chains = []
        build = StabChain.__init__

        def recorded(self, *args):
            chains.append(self)
            build(self, *args)

        monkeypatch.setattr(StabChain, "__init__", recorded)
        message = "line 5: entry 'S30': order above 2, declared 2"
        with pytest.raises(CatalogueError, match="^%s$" % message):
            load_catalogue(path)["S30"].group
        assert len(chains) == 1
        assert sum(len(level.orbit_list) - 1 for level in chains[0].levels) <= 3
        assert main(["analyze", "--catalogue-path", str(path), "--catalogue", "S30"]) == 1
        assert capsys.readouterr().err == "error: %s\n" % message

    def test_entries_with_the_same_generators_share_one_group(self, catalogue):
        for first, second in (("M11", "M11_2S4"), ("L3_3_13_3", "L3_3_O3")):
            assert catalogue[first].group is catalogue[second].group
        assert catalogue["M11"].group is not catalogue["PGL2_11_S4"].group

    @pytest.mark.parametrize(
        "second,message",
        [
            ("expect order 6\n", "line 8: entry 'B': order 3, declared 6"),
            ("sub gen ()\nexpect order 3 suborder 3\n", "line 9: entry 'B': subgroup order 1, declared 3"),
        ],
    )
    def test_shared_group_is_checked_for_each_entry(self, tmp_path, second, message):
        path = tmp_path / "cat.txt"
        path.write_text(
            "name A\ndegree 3\ngen (1,2,3)\nexpect order 3\n"
            "name B\ndegree 3\ngen (1,2,3)\n" + second
        )
        cat = load_catalogue(path)
        assert cat["A"].group is cat["B"]._groups[0]
        assert cat["A"].group.order() == 3
        with pytest.raises(CatalogueError, match=message):
            cat["B"].group

    def test_bundled_path_exists(self):
        assert bundled_catalogue_path().exists()
