"""Closed-form base-pair criteria against the brute-force engine at desk scale."""

import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from conftest import (
    oracle_c2_base_psigma,
    oracle_c2_pair_base,
    oracle_c2_witness,
    oracle_c3_base,
    oracle_c3_pair_base,
    oracle_c3_witness,
)
from saxl import criteria
from saxl.actions import (
    ALPHA,
    GroupVariant,
    OmegaPoint,
    c3_label_logs,
    proj_pair_labels,
    proj_pair_payload,
    psl2_c2_action,
    psl2_c3_action,
)
from saxl.criteria import (
    INF,
    C2Pair,
    C3Point,
    c2_base_psigma,
    c2_clique5,
    c2_common_neighbour_witness,
    c2_condition_iii,
    c2_counts,
    c2_pair_base,
    c3_base,
    c3_clique,
    c3_clique5,
    c3_common_neighbour_witness,
    c3_pair_base,
    c3_regular_count_prime,
    c3_valency_bound_scan,
    euler_phi_4f_scan,
    remark_q_closed_forms,
)
from saxl.engine import is_base_pair, q_exact, regular_suborbit_count, saxl_graph
from saxl.gf import field_create, field_from_order, in_proper_subfield, split_prime_power


def anchor_index(action):
    """Index of the {INF, 0} pair-vertex."""
    return action.label_index[OmegaPoint("proj_pair", ((0, 1), (1, 0)))]


def pair_index(action, x, y):
    codes = (criteria.line_code(x), criteria.line_code(y))
    return action.label_index[OmegaPoint("proj_pair", proj_pair_payload(x.field, codes))]


class TestSubfieldCondition:
    @pytest.mark.parametrize("q", [25, 27])
    def test_three_routes_agree(self, q):
        F = field_from_order(q)
        for b in F.nonzero_elements():
            for c in F.nonzero_elements():
                if b == c:
                    continue
                literal = c2_condition_iii(F, b, c)
                assert literal == (not in_proper_subfield(b / c))


class TestC2AlphaCriterion:
    def test_against_engine_q9(self):
        q = 9
        F = field_from_order(q)
        act = psl2_c2_action(GroupVariant("PSigmaL2", q))
        a0 = anchor_index(act)
        count = 0
        for b in F.nonzero_elements():
            for c in F.nonzero_elements():
                if b == c:
                    continue
                engine = is_base_pair(act, a0, pair_index(act, b, c))
                assert c2_base_psigma(F, b, c) == engine
                count += 1
        assert count == (q - 1) * (q - 2)

    def test_zero_scalar_is_never_base(self):
        F = field_from_order(9)
        assert not c2_base_psigma(F, F.zero(), F.one())

    def test_equal_scalars_rejected(self):
        F = field_from_order(9)
        with pytest.raises(ValueError):
            c2_base_psigma(F, F.one(), F.one())

    def test_even_q_rejected(self):
        F = field_from_order(8)
        with pytest.raises(ValueError):
            c2_base_psigma(F, F.one(), F.gen())


class TestC2PairBase:
    def test_meeting_pairs(self):
        # sharing a projective point: base exactly when f = 1
        F25 = field_from_order(25)
        t1, t2, t3 = F25.from_log(1), F25.from_log(2), F25.from_log(3)
        assert not c2_pair_base(F25, (t1, t2), (t1, t3))
        F13 = field_from_order(13)
        s1, s2, s3 = F13.from_log(1), F13.from_log(2), F13.from_log(3)
        assert c2_pair_base(F13, (s1, s2), (s1, s3))

    def test_identical_pairs_rejected(self):
        F = field_from_order(9)
        b, c = F.from_log(1), F.from_log(2)
        with pytest.raises(ValueError):
            c2_pair_base(F, (b, c), (c, b))

    @pytest.mark.parametrize("q", [9, 25])
    def test_subgraph_containment_under_extension(self, q):
        families = ["PSL2", "PGL2", "PSigmaL2", "PGammaL2"]
        graphs = {}
        labels = {}
        for fam in families:
            act = psl2_c2_action(GroupVariant(fam, q))
            graphs[fam] = saxl_graph(act)
            labels[fam] = act.labels
        # identical vertex labelling across the family tower
        assert len({labels[f] for f in families}) == 1
        n = graphs["PSL2"].n
        for big, small in (("PGammaL2", "PSigmaL2"), ("PSigmaL2", "PSL2"), ("PGL2", "PSL2")):
            for v in range(n):
                assert graphs[big].rows[v] & ~graphs[small].rows[v] == 0


class TestC2Witness:
    def test_scalars_and_target_q25(self):
        F = field_from_order(25)
        two = F.from_int(2)
        seen = 0
        for b in F.nonzero_elements():
            for c in F.nonzero_elements():
                if b == c or not c2_base_psigma(F, b, c):
                    continue
                gamma, w = c2_common_neighbour_witness(F, b, c)
                assert gamma == (-b, -c)
                assert w.d == two * b * (b - c) / (b + c)
                assert w.e == (b * b - c * c) / (two * c)
                assert c2_base_psigma(F, w.d, w.e)
                seen += 1
        assert seen > 0

    def test_requires_alpha_neighbour(self):
        F = field_from_order(9)
        for b in F.nonzero_elements():
            for c in F.nonzero_elements():
                if b != c and not c2_base_psigma(F, b, c):
                    with pytest.raises(ValueError):
                        c2_common_neighbour_witness(F, b, c)
                    return


class TestC2Counts:
    def test_against_engine_q9(self):
        F = field_from_order(9)
        act = psl2_c2_action(GroupVariant("PSigmaL2", 9))
        graph = saxl_graph(act)
        valency, r = c2_counts(F)
        assert valency == graph.valency
        assert r == regular_suborbit_count(act)

    def test_prime_field_rejected(self):
        with pytest.raises(ValueError):
            c2_counts(field_from_order(13))


class TestC3AlphaCriterion:
    @pytest.mark.parametrize("q,family,variant", [(9, "PSL2", "G0"), (9, "PSigmaL2", "PSigmaL")])
    def test_against_engine(self, q, family, variant):
        p, f = split_prime_power(q)
        F2 = field_create(p, 2 * f)
        act = psl2_c3_action(GroupVariant(family, q))
        for L in c3_label_logs(F2, q):
            engine = is_base_pair(act, 0, act.label_index[OmegaPoint("c3_point", L)])
            assert c3_base(F2, variant, F2.from_log(L)) == engine

    def test_variant_names_checked(self):
        F2 = field_create(3, 4)
        with pytest.raises(ValueError):
            c3_base(F2, "socle", F2.from_log(1))

    def test_isotropic_scalar_rejected(self):
        q = 9
        F2 = field_create(3, 4)
        m = F2.q - 1
        bad_log = next(L for L in range(m) if L * (q + 1) % m == m // 2)
        with pytest.raises(ValueError):
            c3_base(F2, "G0", F2.from_log(bad_log))

    def test_needs_square_extension(self):
        with pytest.raises(ValueError):
            c3_base(field_create(3, 3), "G0", field_create(3, 3).one())


class TestC3Scale:
    @pytest.mark.parametrize("q", [9, 13])
    def test_a1_defining_property(self, q):
        p, f = split_prime_power(q)
        F2 = field_create(p, 2 * f)
        logs = c3_label_logs(F2, q)
        for L, a1_log in zip(logs, criteria._c3_a1_logs(F2, q, logs).tolist()):
            b, a1 = F2.from_log(L), F2.from_log(a1_log)
            assert a1 ** (q + 1) == F2.one() + b ** (q + 1)
            assert a1.log < q - 1  # least solution


class TestC3PairBase:
    def test_same_point_rejected(self):
        q = 9
        F2 = field_create(3, 4)
        L = c3_label_logs(F2, q)[1]
        b = F2.from_log(L)
        partner_log = ((F2.q - 1) // 2 - q * L) % (F2.q - 1)
        with pytest.raises(ValueError):
            c3_pair_base(F2, "G0", b, F2.from_log(partner_log))

    def test_against_engine_scalar_rows_q9(self):
        q = 9
        F2 = field_create(3, 4)
        act = psl2_c3_action(GroupVariant("PSL2", q))
        graph = saxl_graph(act)
        logs = c3_label_logs(F2, q)
        for La in logs[:6]:
            ia = act.label_index[OmegaPoint("c3_point", La)]
            for Lb in logs:
                if La == Lb:
                    continue
                ib = act.label_index[OmegaPoint("c3_point", Lb)]
                verdict = c3_pair_base(F2, "G0", F2.from_log(La), F2.from_log(Lb))
                assert verdict == graph.has_edge(ia, ib)


class TestC3Witness:
    @pytest.mark.parametrize("q", [9, 13])
    def test_identities(self, q):
        p, f = split_prime_power(q)
        F2 = field_create(p, 2 * f)
        two = F2.from_int(2)
        seen = 0
        for L in c3_label_logs(F2, q):
            b = F2.from_log(L)
            if not c3_base(F2, "PSigmaL", b):
                continue
            c, w = c3_common_neighbour_witness(F2, b)
            assert c == -b
            assert w.a1.log == criteria._c3_a1_logs(F2, q, L)
            s = b ** ((q + 1) // 2)
            halfnorm = w.d ** ((q + 1) // 2)
            assert halfnorm in (two / (s - s.inverse()), -(two / (s - s.inverse())))
            seen += 1
        assert seen > 0

    def test_requires_extension_base(self):
        q = 9
        F2 = field_create(3, 4)
        square = next(
            F2.from_log(L) for L in c3_label_logs(F2, q) if L % 2 == 0 and L > 0
        )
        with pytest.raises(ValueError):
            c3_common_neighbour_witness(F2, square)


class TestCliques:
    @pytest.mark.parametrize("q", [9, 13])
    def test_c3_clique_verified_by_engine(self, q):
        p, f = split_prime_power(q)
        F2 = field_create(p, 2 * f)
        anchor = next(
            F2.from_log(L) for L in c3_label_logs(F2, q) if not criteria.is_square(F2.from_log(L))
        )
        pts = c3_clique(F2, anchor)
        assert len(pts) >= (q - 1) // 2
        assert pts[0].is_alpha()
        act = psl2_c3_action(GroupVariant("PSL2", q))
        graph = saxl_graph(act)
        idx = [0] + [
            act.label_index[OmegaPoint("c3_point", pt.log)] for pt in pts[1:]
        ]
        for i in range(len(idx)):
            for j in range(i + 1, len(idx)):
                assert graph.has_edge(idx[i], idx[j])

    def test_c3_clique_needs_nonsquare_anchor(self):
        q = 9
        F2 = field_create(3, 4)
        square = next(F2.from_log(L) for L in c3_label_logs(F2, q) if L % 2 == 0 and L > 0)
        with pytest.raises(ValueError):
            c3_clique(F2, square)

    def test_c2_clique5_structure(self):
        F = field_from_order(49)
        verts = c2_clique5(F)
        assert len(verts) == 5
        assert verts[0] is ALPHA
        scalars = set()
        for pr in verts[1:]:
            assert isinstance(pr, C2Pair)
            scalars |= {pr.b, pr.c}
        assert len(scalars) == 8
        assert verts[2] == verts[1].negated()

    def test_c2_clique5_needs_extension_field(self):
        with pytest.raises(ValueError):
            c2_clique5(field_from_order(13))

    def test_c3_clique5_structure(self):
        q = 49
        F2 = field_create(7, 4)
        pts = c3_clique5(F2)
        assert len(pts) == 5
        assert pts[0].is_alpha()
        assert len({pt.log for pt in pts[1:]}) == 4


class TestClosedForms:
    def test_dihedral_minus_matches_engine(self):
        assert remark_q_closed_forms(13, "Dq_minus_1") == Fraction(31, 91)
        assert remark_q_closed_forms(13, "Dq_minus_1") == q_exact(
            psl2_c2_action(GroupVariant("PSL2", 13))
        )

    def test_dihedral_plus_matches_engine(self):
        assert remark_q_closed_forms(13, "Dq_plus_1") == q_exact(
            psl2_c3_action(GroupVariant("PSL2", 13))
        )

    def test_pgl_form_matches_engine(self):
        assert remark_q_closed_forms(8, "PGL_Dq_minus_1") == Fraction(11, 18)
        assert remark_q_closed_forms(8, "PGL_Dq_minus_1") == q_exact(
            psl2_c2_action(GroupVariant("PGL2", 8))
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            remark_q_closed_forms(13, "Dq")


class TestRegularCountFormula:
    @pytest.mark.parametrize("q", [11, 13])
    def test_against_engine(self, q):
        act = psl2_c3_action(GroupVariant("PSL2", q))
        assert c3_regular_count_prime(q) == regular_suborbit_count(act)

    def test_validation(self):
        with pytest.raises(ValueError):
            c3_regular_count_prime(9)
        with pytest.raises(ValueError):
            c3_regular_count_prime(2)


class TestScans:
    def test_totient_scan(self):
        checked, violations = euler_phi_4f_scan(10**4)
        assert checked > 0
        assert violations == []

    def test_valency_scan(self):
        checked, violations = c3_valency_bound_scan(10**3)
        assert checked > 0
        assert violations == []


class TestLabelBridge:
    def test_payload_roundtrip(self):
        q = 9
        F = field_from_order(q)
        act = psl2_c2_action(GroupVariant("PSigmaL2", q))
        for lab in act.labels:
            x, y = proj_pair_labels(F, lab.payload)
            assert x < y
            assert proj_pair_payload(F, (x, y)) == lab.payload
            assert proj_pair_payload(F, (y, x)) == lab.payload

    def test_pair_validation(self):
        F = field_from_order(9)
        with pytest.raises(ValueError):
            C2Pair(F.zero(), F.one())
        with pytest.raises(ValueError):
            C2Pair(F.one(), F.one())

    def test_c3_point_canonicalisation(self):
        q = 9
        F2 = field_create(3, 4)
        L = c3_label_logs(F2, q)[2]
        partner = ((F2.q - 1) // 2 - q * L) % (F2.q - 1)
        a = C3Point.from_scalar(F2.from_log(L), q)
        b = C3Point.from_scalar(F2.from_log(partner), q)
        assert a == b
        assert a.log == L


ODD_Q_UPTO_27 = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27]


def _logs(xs):
    return np.array([criteria.line_code(x) for x in xs], dtype=np.int64)


def _c2_pair_points(F):
    """Every pair-point of PG(1,q), as label pairs."""
    return list(combinations([INF, *F.elements()], 2))


def _c3_fields(q):
    p, f = split_prime_power(q)
    F2 = field_create(p, 2 * f)
    return F2, [F2.from_log(L) for L in c3_label_logs(F2, q)]


def _sample(n, size, seed):
    """A fixed sample of index pairs a < b below n."""
    rng = np.random.default_rng(seed)
    pairs = {tuple(sorted(rng.choice(n, size=2, replace=False).tolist())) for _ in range(size)}
    return sorted(pairs)


class TestArrayFormsAgainstOracles:
    """Each log-array criterion against its per-element oracle from conftest:
    every pair at odd q <= 27, a fixed sample at q = 49 and 81."""

    @pytest.mark.parametrize("q", ODD_Q_UPTO_27 + [49, 81])
    def test_c2_alpha_criterion_and_witness(self, q):
        F = field_from_order(q)
        elems = list(F.elements())
        pairs = [(b, c) for b in elems for c in elems if b != c]
        B, C = _logs(b for b, _ in pairs), _logs(c for _, c in pairs)
        verdicts = criteria.c2_base_psigma_logs(F, B, C)
        assert verdicts.tolist() == [oracle_c2_base_psigma(F, b, c) for b, c in pairs]
        d, e = criteria.c2_common_neighbour_witness_logs(F, B[verdicts], C[verdicts])
        want = [oracle_c2_witness(F, b, c) for (b, c), ok in zip(pairs, verdicts) if ok]
        assert list(zip(d.tolist(), e.tolist())) == [(x.log, y.log) for x, y in want]

    @pytest.mark.parametrize("q", ODD_Q_UPTO_27)
    def test_c2_pair_base_every_pair(self, q):
        F = field_from_order(q)
        points = _c2_pair_points(F)
        P, R = _logs(x for x, _ in points), _logs(y for _, y in points)
        for a, beta in enumerate(points):
            got = criteria.c2_pair_base_logs(F, (P[a], R[a]), (P[a + 1 :], R[a + 1 :]))
            assert got.tolist() == [oracle_c2_pair_base(F, beta, gamma) for gamma in points[a + 1 :]]

    @pytest.mark.parametrize("q", [49, 81])
    def test_c2_pair_base_sample(self, q):
        F = field_from_order(q)
        points = _c2_pair_points(F)
        P, R = _logs(x for x, _ in points), _logs(y for _, y in points)
        index = np.array(_sample(len(points), 3000, q))
        got = criteria.c2_pair_base_logs(F, (P[index[:, 0]], R[index[:, 0]]), (P[index[:, 1]], R[index[:, 1]]))
        assert got.tolist() == [oracle_c2_pair_base(F, points[a], points[b]) for a, b in index.tolist()]
        assert got.any() and not got.all()

    @pytest.mark.parametrize("q", ODD_Q_UPTO_27 + [49, 81])
    def test_c3_alpha_criterion_and_witness(self, q):
        F2, scalars = _c3_fields(q)
        X = _logs(scalars)
        for variant in ("G0", "PSigmaL"):
            got = criteria.c3_base_logs(F2, variant, X)
            assert got.tolist() == [oracle_c3_base(F2, q, variant, b) for b in scalars]
        valid = criteria.c3_base_logs(F2, "PSigmaL", X)
        a1, d = criteria.c3_common_neighbour_witness_logs(F2, X[valid])
        want = [oracle_c3_witness(F2, q, b) for b, ok in zip(scalars, valid) if ok]
        assert list(zip(a1.tolist(), d.tolist())) == [(x.log, y.log) for x, y in want]

    @pytest.mark.parametrize(
        "q,variant",
        [(q, "G0") for q in ODD_Q_UPTO_27] + [(q, "PSigmaL") for q in ODD_Q_UPTO_27 if split_prime_power(q)[1] > 1],
    )
    def test_c3_pair_base_every_pair(self, q, variant):
        F2, scalars = _c3_fields(q)
        X = _logs(scalars)
        for a, b in enumerate(scalars):
            got = criteria.c3_pair_base_logs(F2, variant, X[a], X[a + 1 :])
            assert got.tolist() == [oracle_c3_pair_base(F2, q, variant, b, c) for c in scalars[a + 1 :]]

    @pytest.mark.parametrize("q", [49, 81])
    @pytest.mark.parametrize("variant", ["G0", "PSigmaL"])
    def test_c3_pair_base_sample(self, q, variant):
        F2, scalars = _c3_fields(q)
        X = _logs(scalars)
        index = np.array(_sample(len(scalars), 3000, q))
        got = criteria.c3_pair_base_logs(F2, variant, X[index[:, 0]], X[index[:, 1]])
        assert got.tolist() == [oracle_c3_pair_base(F2, q, variant, scalars[a], scalars[b]) for a, b in index.tolist()]
        assert got.any() and not got.all()


class TestCandidateMemory:
    def test_c2_clique5_candidates_bounded_by_the_budget(self):
        # GF(5^8) has q - 1 = 390624 logs: a scan of every ratio, or a q x q
        # grid, would hold megabytes of int64 logs; the budget holds 4096 pairs
        F = field_create(5, 8)
        tracemalloc.start()
        try:
            B, C = criteria.c2_base_candidates(F, criteria._C2_CLIQUE5_PARTNERS)
            keep = criteria.c2_base_psigma_logs(F, B, C)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(B) == criteria._C2_CLIQUE5_PARTNERS and keep.all()
        assert peak < 8 * 2**20
