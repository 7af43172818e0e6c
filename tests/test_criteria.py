"""Closed-form base-pair criteria against the brute-force engine at desk scale."""

import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import conftest
from conftest import (
    INF,
    code,
    elements,
    from_int,
    from_log,
    oracle_c2_base_psigma,
    oracle_c2_pair_base,
    oracle_c2_witness,
    oracle_c3_base,
    oracle_c3_pair_base,
    oracle_c3_witness,
)
from saxl import criteria
from saxl.actions import (
    LINE_INF,
    GroupVariant,
    c3_canonical_logs,
    c3_label_logs,
    psl2_c2_action,
    psl2_c3_action,
)
from saxl.criteria import (
    c2_base_psigma,
    c2_clique5,
    c2_common_neighbour_witness,
    c2_condition_iii,
    c2_counts,
    c2_neighbour_transfer,
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
from saxl.gf import (
    LOG_ZERO,
    field_create,
    field_from_order,
    in_proper_subfield,
    is_square,
    log_div,
    log_neg,
    split_prime_power,
)


def scalar_pairs(F):
    """Every ordered pair of distinct nonzero logs, as two arrays."""
    B, C = np.divmod(np.arange((F.q - 1) ** 2), F.q - 1)
    return B[B != C], C[B != C]


class TestSubfieldCondition:
    @pytest.mark.parametrize("q", [25, 27])
    def test_three_routes_agree(self, q):
        F = field_from_order(q)
        B, C = scalar_pairs(F)
        literal = c2_condition_iii(F, B, C)
        assert (literal == ~in_proper_subfield(F, log_div(F, B, C))).all()
        ratios = [from_log(F, b) / from_log(F, c) for b, c in zip(B.tolist(), C.tolist())]
        assert literal.tolist() == [not conftest.in_proper_subfield(t) for t in ratios]


class TestC2AlphaCriterion:
    def test_against_engine_q9(self):
        q = 9
        F = field_from_order(q)
        act = psl2_c2_action(GroupVariant("PSigmaL2", q))
        a0 = act.label_index[(LINE_INF, LOG_ZERO)]
        B, C = scalar_pairs(F)
        engine = [is_base_pair(act, a0, act.label_index[tuple(sorted(bc))]) for bc in zip(B.tolist(), C.tolist())]
        assert c2_base_psigma(F, B, C).tolist() == engine
        assert len(engine) == (q - 1) * (q - 2)

    def test_zero_scalar_is_never_base(self):
        F = field_from_order(9)
        assert not c2_base_psigma(F, [LOG_ZERO, 0, 3], [0, LOG_ZERO, LOG_ZERO]).any()

    def test_equal_scalars_rejected(self):
        F = field_from_order(9)
        with pytest.raises(ValueError):
            c2_base_psigma(F, 0, 0)
        with pytest.raises(ValueError):  # one equal entry refuses the whole row
            c2_base_psigma(F, [1, 2], [3, 2])

    def test_even_q_rejected(self):
        F = field_from_order(8)
        with pytest.raises(ValueError):
            c2_base_psigma(F, 0, 1)


class TestC2PairBase:
    def test_meeting_pairs(self):
        # sharing a projective point: base exactly when f = 1
        assert not c2_pair_base(field_from_order(25), (1, 2), (1, 3))
        assert c2_pair_base(field_from_order(13), (1, 2), (1, 3))

    def test_identical_pairs_rejected(self):
        F = field_from_order(9)
        with pytest.raises(ValueError):
            c2_pair_base(F, (1, 2), (2, 1))

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
        for big, small in (("PGammaL2", "PSigmaL2"), ("PSigmaL2", "PSL2"), ("PGL2", "PSL2")):
            assert not (graphs[big].packed & ~graphs[small].packed).any()


class TestC2Witness:
    def test_scalars_and_target_q25(self):
        F = field_from_order(25)
        two = from_int(F, 2)
        B, C = scalar_pairs(F)
        keep = c2_base_psigma(F, B, C)
        B, C = B[keep], C[keep]
        d, e = c2_common_neighbour_witness(F, B, C)
        for lb, lc, ld, le in zip(B.tolist(), C.tolist(), d.tolist(), e.tolist()):
            b, c = from_log(F, lb), from_log(F, lc)
            assert from_log(F, ld) == two * b * (b - c) / (b + c)
            assert from_log(F, le) == (b * b - c * c) / (two * c)
        assert c2_base_psigma(F, d, e).all()
        # the witnessed common neighbour is gamma = (-b, -c)
        x, y = c2_neighbour_transfer(F, B, C, d, e)
        assert (np.sort([x, y], axis=0) == np.sort([log_neg(F, B), log_neg(F, C)], axis=0)).all()
        assert len(B) > 0

    def test_requires_alpha_neighbour(self):
        F = field_from_order(9)
        B, C = scalar_pairs(F)
        keep = c2_base_psigma(F, B, C)
        b, c = B[~keep][0], C[~keep][0]
        with pytest.raises(ValueError):
            c2_common_neighbour_witness(F, b, c)
        with pytest.raises(ValueError):  # one invalid entry refuses the whole row
            c2_common_neighbour_witness(F, [B[keep][0], b], [C[keep][0], c])


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
        logs = c3_label_logs(F2, q)
        engine = [is_base_pair(act, 0, act.label_index[L]) for L in logs]
        assert c3_base(F2, variant, logs).tolist() == engine

    def test_variant_names_checked(self):
        F2 = field_create(3, 4)
        with pytest.raises(ValueError):
            c3_base(F2, "socle", 1)

    def test_isotropic_scalar_rejected(self):
        q = 9
        F2 = field_create(3, 4)
        m = F2.q - 1
        bad_log = next(L for L in range(m) if L * (q + 1) % m == m // 2)
        with pytest.raises(ValueError):
            c3_base(F2, "G0", bad_log)

    def test_needs_square_extension(self):
        with pytest.raises(ValueError):
            c3_base(field_create(3, 3), "G0", 0)


class TestC3Scale:
    @pytest.mark.parametrize("q", [9, 13])
    def test_a1_defining_property(self, q):
        p, f = split_prime_power(q)
        F2 = field_create(p, 2 * f)
        logs = c3_label_logs(F2, q)
        for L, a1_log in zip(logs, criteria._c3_a1(F2, q, logs).tolist()):
            b, a1 = from_log(F2, L), from_log(F2, a1_log)
            assert a1 ** (q + 1) == conftest.one(F2) + b ** (q + 1)
            assert a1.log < q - 1  # least solution


class TestC3PairBase:
    def test_same_point_rejected(self):
        q = 9
        F2 = field_create(3, 4)
        L = c3_label_logs(F2, q)[1]
        partner_log = ((F2.q - 1) // 2 - q * L) % (F2.q - 1)
        with pytest.raises(ValueError):
            c3_pair_base(F2, "G0", L, partner_log)

    def test_against_engine_scalar_rows_q9(self):
        q = 9
        F2 = field_create(3, 4)
        act = psl2_c3_action(GroupVariant("PSL2", q))
        graph = saxl_graph(act)
        logs = c3_label_logs(F2, q)
        for La in logs[:6]:
            ia = act.label_index[La]
            others = [Lb for Lb in logs if Lb != La]
            engine = [graph.has_edge(ia, act.label_index[Lb]) for Lb in others]
            assert c3_pair_base(F2, "G0", La, others).tolist() == engine


class TestC3Witness:
    @pytest.mark.parametrize("q", [9, 13])
    def test_identities(self, q):
        p, f = split_prime_power(q)
        F2 = field_create(p, 2 * f)
        two = from_int(F2, 2)
        X = np.array(c3_label_logs(F2, q))
        X = X[c3_base(F2, "PSigmaL", X)]
        a1, d = c3_common_neighbour_witness(F2, X)
        assert (a1 == criteria._c3_a1(F2, q, X)).all()
        for L, ld in zip(X.tolist(), d.tolist()):
            s = from_log(F2, L) ** ((q + 1) // 2)
            halfnorm = from_log(F2, ld) ** ((q + 1) // 2)
            assert halfnorm in (two / (s - s.inverse()), -(two / (s - s.inverse())))
        assert len(X) > 0

    def test_requires_extension_base(self):
        q = 9
        F2 = field_create(3, 4)
        square = next(L for L in c3_label_logs(F2, q) if L % 2 == 0 and L > 0)
        with pytest.raises(ValueError):
            c3_common_neighbour_witness(F2, square)


class TestCliques:
    @pytest.mark.parametrize("q", [9, 13])
    def test_c3_clique_verified_by_engine(self, q):
        p, f = split_prime_power(q)
        F2 = field_create(p, 2 * f)
        anchor = next(L for L in c3_label_logs(F2, q) if not is_square(F2, L))
        pts = c3_clique(F2, anchor)
        assert len(pts) >= (q - 1) // 2
        assert pts[0] == LOG_ZERO
        act = psl2_c3_action(GroupVariant("PSL2", q))
        graph = saxl_graph(act)
        idx = [act.label_index[pt] for pt in pts]
        assert idx[0] == 0
        for i in range(len(idx)):
            for j in range(i + 1, len(idx)):
                assert graph.has_edge(idx[i], idx[j])

    def test_c3_clique_needs_nonsquare_anchor(self):
        q = 9
        F2 = field_create(3, 4)
        square = next(L for L in c3_label_logs(F2, q) if L % 2 == 0 and L > 0)
        with pytest.raises(ValueError):
            c3_clique(F2, square)

    def test_c2_clique5_structure(self):
        F = field_from_order(49)
        verts = c2_clique5(F)
        assert len(verts) == 5
        assert verts[0] == (LINE_INF, LOG_ZERO)
        scalars = {x for pair in verts[1:] for x in pair}
        assert len(scalars) == 8 and min(scalars) >= 0
        assert all(type(x) is int for x in scalars)
        assert all(x < y for x, y in verts)
        assert verts[2] == tuple(sorted(log_neg(F, verts[1]).tolist()))
        assert verts[4] == tuple(sorted(log_neg(F, verts[3]).tolist()))

    def test_c2_clique5_needs_extension_field(self):
        with pytest.raises(ValueError):
            c2_clique5(field_from_order(13))

    def test_c3_clique5_structure(self):
        q = 49
        F2 = field_create(7, 4)
        pts = c3_clique5(F2)
        assert len(pts) == 5
        assert pts[0] == LOG_ZERO
        assert len(set(pts[1:])) == 4
        assert c3_canonical_logs(F2, q, pts[1:]).tolist() == pts[1:]

    @pytest.mark.parametrize("q", [49, 81])
    @pytest.mark.parametrize("scan", [c2_clique5, c3_clique5])
    def test_blocked_scan_matches_the_whole_array(self, monkeypatch, q, scan):
        F = field_from_order(q if scan is c2_clique5 else q * q)
        real, blocks = criteria._distinct, []

        def counted(*labels):
            blocks.append(1)
            return real(*labels)

        monkeypatch.setattr(criteria, "_distinct", counted)
        found = {}
        # every partner in one block, the default block, one partner per block
        for size in (2**30, 64, 1):
            monkeypatch.setattr(criteria, "_CLIQUE5_BLOCK", size)
            blocks.clear()
            found[size] = scan(F), len(blocks)
        whole = found[2**30][0]
        assert len(whole) == 5
        # the first anchor's first block of 64 holds the first hit, and the scan stops there
        assert found[64] == (whole, 1)
        # one partner per block: the first hit lies past the first block
        assert found[1][0] == whole and found[1][1] > 1

    @pytest.mark.parametrize("q", [49, 81])
    def test_stacked_edges_match_the_per_pair_calls(self, q):
        """The first anchor's first block of 64 partners, as the scans build
        it: the (4, R) vertex stack's one alpha-edge call and one pair-edge
        call give the AND of the four and six calls one vertex or pair at a
        time, on rows that pass and rows that fail."""
        u, v = map(list, zip(*combinations(range(4), 2)))
        F = field_from_order(q)
        B, C = criteria.c2_base_candidates(F, 4096)
        keep = c2_base_psigma(F, B, C)
        B, C = B[keep], C[keep]
        b, c = B[0], C[0]
        B2, C2 = B[:64], C[:64]
        rows = np.flatnonzero(criteria._distinct(b, c, log_neg(F, b), log_neg(F, c), B2, C2, log_neg(F, B2), log_neg(F, C2)))
        B4 = np.stack(np.broadcast_arrays(b, log_neg(F, b), B2[rows], log_neg(F, B2[rows])))
        C4 = np.stack(np.broadcast_arrays(c, log_neg(F, c), C2[rows], log_neg(F, C2[rows])))
        per_pair = np.logical_and.reduce(
            [c2_base_psigma(F, B4[i], C4[i]) for i in range(4)]
            + [c2_pair_base(F, (B4[i], C4[i]), (B4[j], C4[j])) for i, j in zip(u, v)]
        )
        stacked = criteria._c2_clique5_edges(F, B4, C4)
        assert per_pair.any() and not per_pair.all()
        assert np.array_equal(stacked, per_pair)

        F2 = field_from_order(q * q)
        labels = np.array(c3_label_logs(F2, q))
        cands = labels[c3_base(F2, "PSigmaL", labels)]
        b, part = cands[0], cands[:64]
        canon = [c3_canonical_logs(F2, q, x) for x in (b, log_neg(F2, b), part, log_neg(F2, part))]
        rows = np.flatnonzero(criteria._distinct(*canon))
        V = np.stack(np.broadcast_arrays(b, log_neg(F2, b), part[rows], log_neg(F2, part[rows])))
        per_pair = np.logical_and.reduce(
            [c3_base(F2, "PSigmaL", V[i]) for i in range(4)]
            + [c3_pair_base(F2, "PSigmaL", V[i], V[j]) for i, j in zip(u, v)]
        )
        stacked = criteria._c3_clique5_edges(F2, V)
        assert per_pair.any() and not per_pair.all()
        assert np.array_equal(stacked, per_pair)


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
    def test_pair_labels_are_the_codes_the_carrier_moves(self):
        # a pair label is the sorted codes of its points, at carrier positions code + 2
        act = psl2_c2_action(GroupVariant("PSigmaL2", 9))
        m, gens, _ = act.carrier
        assert m == 10 and act.labels[0] == (LINE_INF, LOG_ZERO)
        assert all(LINE_INF <= x < y < m - 2 for x, y in act.labels)
        for c, g in gens:
            moved = [tuple(sorted(c(x + 2) - 2 for x in lab)) for lab in act.labels]
            assert [act.labels[g(i)] for i in range(act.degree)] == moved

    def test_pair_validation(self):
        # a pair away from <e2> needs two nonzero, distinct scalars
        F = field_from_order(9)
        with pytest.raises(ValueError, match="nonzero"):
            c2_neighbour_transfer(F, LOG_ZERO, 0, 1, 2)
        with pytest.raises(ValueError, match="distinct"):
            c2_neighbour_transfer(F, 0, 0, 1, 2)
        with pytest.raises(ValueError):
            c2_common_neighbour_witness(F, LOG_ZERO, 0)
        with pytest.raises(ValueError, match="distinct"):
            c2_common_neighbour_witness(F, 0, 0)

    def test_c3_point_canonicalisation(self):
        q = 9
        F2 = field_create(3, 4)
        L = c3_label_logs(F2, q)[2]
        partner = ((F2.q - 1) // 2 - q * L) % (F2.q - 1)
        assert partner != L
        assert c3_canonical_logs(F2, q, [L, partner]).tolist() == [L, L]


ODD_Q_UPTO_27 = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27]


def _logs(xs):
    return np.array([code(x) for x in xs], dtype=np.int64)


def _c2_pair_points(F):
    """Every pair-point of PG(1,q), as label pairs."""
    return list(combinations([INF, *elements(F)], 2))


def _c3_fields(q):
    p, f = split_prime_power(q)
    F2 = field_create(p, 2 * f)
    return F2, [from_log(F2, L) for L in c3_label_logs(F2, q)]


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
        elems = list(elements(F))
        pairs = [(b, c) for b in elems for c in elems if b != c]
        B, C = _logs(b for b, _ in pairs), _logs(c for _, c in pairs)
        verdicts = criteria.c2_base_psigma(F, B, C)
        assert verdicts.tolist() == [oracle_c2_base_psigma(F, b, c) for b, c in pairs]
        d, e = criteria.c2_common_neighbour_witness(F, B[verdicts], C[verdicts])
        want = [oracle_c2_witness(F, b, c) for (b, c), ok in zip(pairs, verdicts) if ok]
        assert list(zip(d.tolist(), e.tolist())) == [(x.log, y.log) for x, y in want]

    @pytest.mark.parametrize("q", ODD_Q_UPTO_27)
    def test_c2_pair_base_every_pair(self, q):
        F = field_from_order(q)
        points = _c2_pair_points(F)
        P, R = _logs(x for x, _ in points), _logs(y for _, y in points)
        for a, beta in enumerate(points):
            got = criteria.c2_pair_base(F, (P[a], R[a]), (P[a + 1 :], R[a + 1 :]))
            assert got.tolist() == [oracle_c2_pair_base(F, beta, gamma) for gamma in points[a + 1 :]]

    @pytest.mark.parametrize("q", [49, 81])
    def test_c2_pair_base_sample(self, q):
        F = field_from_order(q)
        points = _c2_pair_points(F)
        P, R = _logs(x for x, _ in points), _logs(y for _, y in points)
        index = np.array(_sample(len(points), 3000, q))
        got = criteria.c2_pair_base(F, (P[index[:, 0]], R[index[:, 0]]), (P[index[:, 1]], R[index[:, 1]]))
        assert got.tolist() == [oracle_c2_pair_base(F, points[a], points[b]) for a, b in index.tolist()]
        assert got.any() and not got.all()

    @pytest.mark.parametrize("q", ODD_Q_UPTO_27 + [49, 81])
    def test_c3_alpha_criterion_and_witness(self, q):
        F2, scalars = _c3_fields(q)
        X = _logs(scalars)
        for variant in ("G0", "PSigmaL"):
            got = criteria.c3_base(F2, variant, X)
            assert got.tolist() == [oracle_c3_base(F2, q, variant, b) for b in scalars]
        valid = criteria.c3_base(F2, "PSigmaL", X)
        a1, d = criteria.c3_common_neighbour_witness(F2, X[valid])
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
            got = criteria.c3_pair_base(F2, variant, X[a], X[a + 1 :])
            assert got.tolist() == [oracle_c3_pair_base(F2, q, variant, b, c) for c in scalars[a + 1 :]]

    @pytest.mark.parametrize("q", [49, 81])
    @pytest.mark.parametrize("variant", ["G0", "PSigmaL"])
    def test_c3_pair_base_sample(self, q, variant):
        F2, scalars = _c3_fields(q)
        X = _logs(scalars)
        index = np.array(_sample(len(scalars), 3000, q))
        got = criteria.c3_pair_base(F2, variant, X[index[:, 0]], X[index[:, 1]])
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
            keep = criteria.c2_base_psigma(F, B, C)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(B) == criteria._C2_CLIQUE5_PARTNERS and keep.all()
        assert peak < 8 * 2**20
