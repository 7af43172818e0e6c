"""Release gate: ten end-to-end checks with hard runtime budgets.

Every check recomputes its numbers from scratch inside its own timer (no
cached session fixtures in the timed region unless noted) and compares
against closed forms, bundled expectation tables, or an independent second
route.  All comparisons are exact; budgets are wall-clock upper bounds.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

from saxl import criteria
from saxl.actions import (
    ALPHA,
    GroupVariant,
    OmegaPoint,
    bundled_catalogue_path,
    coset_action,
    ksubset_action,
    load_catalogue,
    psl2_c2_action,
    psl2_c3_action,
)
from saxl.engine import (
    check_star,
    clique_and_independence_exact,
    is_base_pair,
    lemma_calc_bound,
    q_exact,
    q_hat,
    q_tilde,
    regular_suborbit_count,
    saxl_graph,
    t_value,
)
from saxl.gf import (
    count_nonsquare_nonsubfield,
    euler_bound_scan,
    field_create,
    field_from_order,
    split_prime_power,
)


def load_expected_rows():
    path = Path(bundled_catalogue_path()).parent / "table_rows.json"
    return json.loads(path.read_text())


def fixture_action(entries, name):
    entry = entries[name]
    return coset_action(entry.group, entry.subgroup, name)


def c2_pair_payload(x, y):
    lo, hi = sorted((x, y), key=lambda t: t.log)
    return ((1, lo.as_int()), (1, hi.as_int()))


ALPHA_PAIR = OmegaPoint("proj_pair", ((0, 1), (1, 0)))


def test_criterion_1_bundled_rows_reproduce():
    budget = 60.0
    t0 = time.monotonic()
    expected = load_expected_rows()
    entries = load_catalogue(bundled_catalogue_path())
    assert len(expected) == 8
    for name, want in expected.items():
        action = fixture_action(entries, name)
        assert regular_suborbit_count(action) == want["r"], name
        assert q_exact(action) == Fraction(want["q"]["num"], want["q"]["den"]), name
    assert time.monotonic() - t0 <= budget


def test_criterion_2_closed_forms():
    budget = 120.0
    t0 = time.monotonic()
    for q in (8, 9, 11, 13, 16):
        form = 1 - Fraction(4 * (q - 1), q * (q + 1))
        assert criteria.remark_q_closed_forms(q, "PGL_Dq_minus_1") == form
        assert q_exact(psl2_c2_action(GroupVariant("PGL2", q))) == form, q
    for q in (13, 17, 29):
        minus = criteria.remark_q_closed_forms(q, "Dq_minus_1")
        plus = criteria.remark_q_closed_forms(q, "Dq_plus_1")
        assert q_exact(psl2_c2_action(GroupVariant("PSL2", q))) == minus, q
        assert q_exact(psl2_c3_action(GroupVariant("PSL2", q))) == plus, q
    assert time.monotonic() - t0 <= budget


def test_criterion_3_johnson_isomorphism():
    budget = 60.0
    t0 = time.monotonic()
    for q in (4, 8, 9, 13):
        action = psl2_c2_action(GroupVariant("PGL2", q))
        graph = saxl_graph(action)
        sets = [frozenset(lab.payload) for lab in action.labels]
        n = action.degree
        assert n == (q + 1) * q // 2
        for a in range(n):
            for b in range(a + 1, n):
                assert graph.has_edge(a, b) == (len(sets[a] & sets[b]) == 1), (q, a, b)
        assert regular_suborbit_count(action) == 1, q
    assert time.monotonic() - t0 <= budget


def test_criterion_4_oracle_equivalence():
    budget = 600.0
    t0 = time.monotonic()
    # pair family, extension-group criterion, every vertex pair
    for q in (5, 7, 9, 11, 13, 17, 19, 23, 25, 27):
        action = psl2_c2_action(GroupVariant("PSigmaL2", q))
        graph = saxl_graph(action)
        F = field_from_order(q)
        labs = [criteria.c2_labels_from_payload(F, lab.payload) for lab in action.labels]
        n = action.degree
        for a in range(n):
            for b in range(a + 1, n):
                assert graph.has_edge(a, b) == criteria.c2_pair_base(F, labs[a], labs[b]), (q, a, b)
    # unitary family: socle criterion everywhere, extension criterion for f >= 2
    rows = []
    for q in (5, 7, 9, 11, 13, 17, 19, 23, 25):
        rows.append((q, "PSL2", "G0"))
        if split_prime_power(q)[1] >= 2:
            rows.append((q, "PSigmaL2", "PSigmaL"))
    for q, family, variant in rows:
        action = psl2_c3_action(GroupVariant(family, q))
        graph = saxl_graph(action)
        p, f = split_prime_power(q)
        F2 = field_create(p, 2 * f)
        labs = [lab.payload for lab in action.labels]
        n = action.degree
        for a in range(n):
            xa = None if labs[a] == ALPHA else F2.from_log(labs[a])
            for b in range(a + 1, n):
                xb = F2.from_log(labs[b])
                if xa is None:
                    got = criteria.c3_base(F2, variant, xb)
                else:
                    got = criteria.c3_pair_base(F2, variant, xa, xb)
                assert got == graph.has_edge(a, b), (q, family, a, b)
    assert time.monotonic() - t0 <= budget


def test_criterion_5_witness_soundness():
    budget = 300.0
    t0 = time.monotonic()
    # small fields: every valid input, both edges confirmed by the engine
    for q in (9, 13):
        F = field_from_order(q)
        action = psl2_c2_action(GroupVariant("PSigmaL2", q))
        graph = saxl_graph(action)
        index = action.label_index
        assert action.labels[0] == ALPHA_PAIR
        count = 0
        for b in F.nonzero_elements():
            for c in F.nonzero_elements():
                if b == c or not criteria.c2_base_psigma(F, b, c):
                    continue
                gamma, _ = criteria.c2_common_neighbour_witness(F, b, c)
                bi = index[OmegaPoint("proj_pair", c2_pair_payload(b, c))]
                gi = index[OmegaPoint("proj_pair", c2_pair_payload(*gamma))]
                assert graph.has_edge(0, gi) and graph.has_edge(bi, gi), (q, b, c)
                count += 1
        assert count > 0, q
    from saxl.actions import c3_canonical_log, c3_label_logs

    for q in (9, 13):
        p, f = split_prime_power(q)
        F2 = field_create(p, 2 * f)
        family = "PSigmaL2" if f > 1 else "PSL2"
        action = psl2_c3_action(GroupVariant(family, q))
        graph = saxl_graph(action)
        index = action.label_index
        count = 0
        for L in c3_label_logs(F2, q):
            b = F2.from_log(L)
            if not criteria.c3_base(F2, "PSigmaL", b):
                continue
            c, _ = criteria.c3_common_neighbour_witness(F2, b)
            bi = index[OmegaPoint("c3_point", L)]
            ci = index[OmegaPoint("c3_point", c3_canonical_log(F2, q, c.log))]
            assert graph.has_edge(0, ci) and graph.has_edge(bi, ci), (q, L)
            count += 1
        assert count > 0, q
    # large fields: at least 10^3 inputs each; the producers re-verify the
    # arithmetic identities and raise on any failure
    target = 1000
    for q in (49, 81):
        F = field_from_order(q)
        count = 0
        for b, c in criteria.c2_base_candidates(F):
            criteria.c2_common_neighbour_witness(F, b, c)
            count += 1
            if count >= target:
                break
        assert count >= target, q
    for q in (49, 81):
        p, f = split_prime_power(q)
        F2 = field_create(p, 2 * f)
        half = (F2.q - 1) // 2
        count = 0
        for L in range(F2.q - 1):
            if L * (q + 1) % (F2.q - 1) == half:
                continue
            b = F2.from_log(L)
            if not criteria.c3_base(F2, "PSigmaL", b):
                continue
            criteria.c3_common_neighbour_witness(F2, b)
            count += 1
            if count >= target:
                break
        assert count >= target, q
    assert time.monotonic() - t0 <= budget


def test_criterion_6_counting_formulas():
    budget = 300.0
    t0 = time.monotonic()
    for q in (9, 25, 49):
        F = field_from_order(q)
        valency, r = criteria.c2_counts(F)
        action = psl2_c2_action(GroupVariant("PSigmaL2", q))
        graph = saxl_graph(action)
        assert valency == graph.valency, q
        assert r == regular_suborbit_count(action), q
    for q in (11, 13, 17, 19):
        action = psl2_c3_action(GroupVariant("PSL2", q))
        assert criteria.c3_regular_count_prime(q) == regular_suborbit_count(action), q
    # over a prime field the two meeting-pair orbits also consist of base
    # pairs, inflating the socle valency beyond the extension-field count
    F13 = field_from_order(13)
    m = count_nonsquare_nonsubfield(F13)
    action = psl2_c2_action(GroupVariant("PSL2", 13))
    graph = saxl_graph(action)
    assert graph.valency == m * 12 // 2 + 2 * 12
    assert time.monotonic() - t0 <= budget


def base_two_projective_actions(qmax=27):
    """Every primitive base-two pair/unitary action with q <= qmax."""
    out = []
    for q in (4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27):
        if q > qmax:
            continue
        p, f = split_prime_power(q)
        families = [("PSL2", 0), ("PGL2", 0)] if q % 2 else [("PSL2", 0)]
        if f >= 2:
            families.append(("PSigmaL2", 0))
            if q % 2:
                families.append(("PGammaL2", 0))
                families.extend(("DeltaPhi", j) for j in range(1, f))
        for kind, ctor in (("c2", psl2_c2_action), ("c3", psl2_c3_action)):
            if kind == "c3" and q % 2 == 0:
                continue
            for family, j in families:
                try:
                    action = ctor(GroupVariant(family, q, j))
                except ValueError:
                    continue
                if not action.group.is_primitive():
                    continue
                if regular_suborbit_count(action) < 1:
                    continue
                out.append(("%s %s q=%d j=%d" % (kind, family, q, j), action))
    return out


def test_criterion_7_star_property_exhaustive():
    budget = 600.0
    t0 = time.monotonic()
    actions = base_two_projective_actions()
    assert len(actions) == 34
    for name, action in actions:
        ok, witnesses = check_star(action)
        assert ok, name
        assert witnesses and all(w is not None for w in witnesses.values()), name
    entries = load_catalogue(bundled_catalogue_path())
    for name in load_expected_rows():
        ok, witnesses = check_star(fixture_action(entries, name))
        assert ok, name
        assert witnesses and all(w is not None for w in witnesses.values()), name
    assert time.monotonic() - t0 <= budget


def test_criterion_8_clique_bounds():
    budget = 900.0
    t0 = time.monotonic()
    # exact clique and independence numbers for the 2-subset action
    assert clique_and_independence_exact(ksubset_action(5, 2, even_only=True)) == (4, 2)
    # unitary-family cliques of size (q-1)/2, every edge confirmed by the engine
    from saxl.actions import c3_label_logs
    from saxl.gf import is_square

    for q in (9, 13, 25):
        p, f = split_prime_power(q)
        F2 = field_create(p, 2 * f)
        anchor = next(
            F2.from_log(L) for L in c3_label_logs(F2, q) if not is_square(F2.from_log(L))
        )
        pts = criteria.c3_clique(F2, anchor)
        assert len(pts) >= (q - 1) // 2, q
        action = psl2_c3_action(GroupVariant("PSL2", q))
        graph = saxl_graph(action)
        idx = [0] + [action.label_index[OmegaPoint("c3_point", pt.log)] for pt in pts[1:]]
        for i in range(len(idx)):
            for j in range(i + 1, len(idx)):
                assert graph.has_edge(idx[i], idx[j]), (q, i, j)
    # five-cliques for the extension groups over non-prime fields
    for q in (49, 81, 121, 125, 169):
        p, f = split_prime_power(q)
        F = field_create(p, f)
        F2 = field_create(p, 2 * f)
        c2_verts = criteria.c2_clique5(F)
        c3_verts = criteria.c3_clique5(F2)
        assert len(c2_verts) == 5 and c2_verts[0] is ALPHA, q
        assert len(c3_verts) == 5 and c3_verts[0].is_alpha(), q
        # arithmetic re-verification of all ten edges in each clique
        for i in range(5):
            for j in range(i + 1, 5):
                u, v = c2_verts[i], c2_verts[j]
                if u is ALPHA:
                    assert criteria.c2_base_psigma(F, v.b, v.c), (q, j)
                else:
                    assert criteria.c2_pair_base(F, u.labels(), v.labels()), (q, i, j)
                a, b = c3_verts[i], c3_verts[j]
                if a.is_alpha():
                    assert criteria.c3_base(F2, "PSigmaL", b.scalar()), (q, j)
                else:
                    assert criteria.c3_pair_base(F2, "PSigmaL", a.scalar(), b.scalar()), (q, i, j)
        if q == 49:
            # independent confirmation straight from the permutation groups;
            # their suborbit analysis checks every representative twice, by
            # orbit length and by the fixed points of the point stabiliser
            c2_act = psl2_c2_action(GroupVariant("PSigmaL2", q))
            assert c2_act.labels[0] == ALPHA_PAIR
            c2_idx = [0] + [
                c2_act.label_index[OmegaPoint("proj_pair", c2_pair_payload(v.b, v.c))]
                for v in c2_verts[1:]
            ]
            for i in range(5):
                for j in range(i + 1, 5):
                    assert is_base_pair(c2_act, c2_idx[i], c2_idx[j]), (q, i, j)
            c3_act = psl2_c3_action(GroupVariant("PSigmaL2", q))
            c3_idx = [0] + [
                c3_act.label_index[OmegaPoint("c3_point", pt.log)] for pt in c3_verts[1:]
            ]
            for i in range(5):
                for j in range(i + 1, 5):
                    assert is_base_pair(c3_act, c3_idx[i], c3_idx[j]), (q, i, j)
    assert time.monotonic() - t0 <= budget


def test_criterion_9_estimate_chain_and_bound():
    budget = 60.0
    t0 = time.monotonic()
    entries = load_catalogue(bundled_catalogue_path())
    star_needed = []
    for name in load_expected_rows():
        action = fixture_action(entries, name)
        lo = q_exact(action)
        mid = q_hat(action)
        hi = q_tilde(action)
        assert lo <= mid <= hi, name
        if t_value(action) >= 2:
            star_needed.append((name, action))
    assert len(star_needed) == 5
    for name, action in star_needed:
        ok, _ = check_star(action)
        assert ok, name
    value = lemma_calc_bound(156, 135135, 2)
    assert value == Fraction(156 * 156, 135135)
    assert value < Fraction(1, 4)
    assert time.monotonic() - t0 <= budget


def test_criterion_10_totient_scans():
    budget = 60.0
    t0 = time.monotonic()
    assert euler_bound_scan(10**6) == []
    checked, violations = criteria.euler_phi_4f_scan(10**4)
    assert checked > 0
    assert violations == []
    assert time.monotonic() - t0 <= budget
