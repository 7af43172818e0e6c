"""Release gate: ten end-to-end checks with hard runtime budgets.

Every check recomputes its numbers from scratch inside its own timer (no
cached session fixtures in the timed region unless noted) and compares
against closed forms, bundled expectation tables, or an independent second
route.  All comparisons are exact; budgets are wall-clock upper bounds.

Criteria 1 and 3-7 run the ``saxl verify`` sweeps themselves, so the gate and
the command line cannot drift apart.  Each pins the exact list of check names
its sweep must report, which fixes what the sweep covers.
"""

import json
import time
from fractions import Fraction

from saxl import criteria
from saxl.actions import (
    ALPHA,
    GroupVariant,
    OmegaPoint,
    bundled_catalogue_path,
    ksubset_action,
    load_catalogue,
    psl2_c2_action,
    psl2_c3_action,
)
from saxl.cli import _entry_action, _table_rows, main
from saxl.engine import (
    check_star,
    clique_and_independence_exact,
    is_base_pair,
    lemma_calc_bound,
    q_exact,
    q_hat,
    q_tilde,
    saxl_graph,
    t_value,
)
from saxl.gf import euler_bound_scan, field_create, split_prime_power
from saxl.group import DEFAULT_CAPS

ALPHA_PAIR = OmegaPoint("proj_pair", ((0, 1), (1, 0)))

FIXTURES = [
    "S7_AGL17", "A9_ASL23", "M11_2S4", "L2_17_S4",
    "PGL2_13_S4", "PGL2_11_S4", "L3_3_13_3", "L3_3_O3",
]


def verified_check_names(capsys, sweep):
    """Run ``saxl verify SWEEP`` with its defaults; require exit 0 and an
    overall ok, and return the names of the checks it ran, in order."""
    code = main(["verify", sweep])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0, [c for c in payload["checks"] if not c["ok"]]
    assert payload["ok"] is True
    return [c["name"] for c in payload["checks"]]


def test_criterion_1_bundled_rows_reproduce(capsys):
    budget = 60.0
    t0 = time.monotonic()
    assert verified_check_names(capsys, "table-rows") == ["table-row " + n for n in FIXTURES]
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


def test_criterion_3_johnson_isomorphism(capsys):
    budget = 60.0
    t0 = time.monotonic()
    # n = q(q+1)/2, edges are the 2-subsets meeting in one point, r = 1
    names = verified_check_names(capsys, "johnson")
    assert names == ["johnson PGL2 q=%d" % q for q in (4, 8, 9, 13)]
    assert time.monotonic() - t0 <= budget


def test_criterion_4_oracle_equivalence(capsys):
    budget = 600.0
    t0 = time.monotonic()
    # pair family, extension-group criterion, every vertex pair
    names = verified_check_names(capsys, "c2-oracle")
    assert names == ["c2-oracle PSigmaL2 q=%d" % q for q in (5, 7, 9, 11, 13, 17, 19, 23, 25, 27)]
    # unitary family: socle criterion everywhere, extension criterion for f >= 2
    names = verified_check_names(capsys, "c3-oracle")
    assert names == [
        "c3-oracle PSL2 q=5", "c3-oracle PSL2 q=7",
        "c3-oracle PSL2 q=9", "c3-oracle PSigmaL2 q=9",
        "c3-oracle PSL2 q=11", "c3-oracle PSL2 q=13", "c3-oracle PSL2 q=17",
        "c3-oracle PSL2 q=19", "c3-oracle PSL2 q=23",
        "c3-oracle PSL2 q=25", "c3-oracle PSigmaL2 q=25",
    ]
    assert time.monotonic() - t0 <= budget


def test_criterion_5_witness_soundness(capsys):
    budget = 300.0
    t0 = time.monotonic()
    # small fields: point 0 is alpha and every valid input (at least one) has
    # both witness edges confirmed by the engine; large fields: at least 10^3
    # inputs each, and the producers re-verify their arithmetic identities
    assert verified_check_names(capsys, "witnesses") == [
        "c2-witness q=9 (engine-checked)", "c2-witness q=13 (engine-checked)",
        "c3-witness q=9 (engine-checked)", "c3-witness q=13 (engine-checked)",
        "c2-witness q=49 (arithmetic)", "c2-witness q=81 (arithmetic)",
        "c3-witness q=49 (arithmetic)", "c3-witness q=81 (arithmetic)",
    ]
    assert time.monotonic() - t0 <= budget


def test_criterion_6_counting_formulas(capsys):
    budget = 300.0
    t0 = time.monotonic()
    # over a prime field the two meeting-pair orbits also consist of base
    # pairs, inflating the socle valency beyond the extension-field count
    assert verified_check_names(capsys, "counts") == [
        "c2-counts q=9", "c2-counts q=25", "c2-counts q=49",
        "c3-regular-count q=11", "c3-regular-count q=13",
        "c3-regular-count q=17", "c3-regular-count q=19",
        "c2-meeting-edges q=13",
    ]
    assert time.monotonic() - t0 <= budget


def test_criterion_7_star_property_exhaustive(capsys):
    budget = 600.0
    t0 = time.monotonic()
    # every primitive base-two pair/unitary action with q <= 27, then the
    # fixtures; each needs at least one suborbit and a witness for all
    projective = [
        "c2 PSL2 q=4", "c3 PSL2 q=5", "c2 PGL2 q=7", "c2 PSL2 q=8",
        "c2 PGL2 q=9", "c2 DeltaPhi q=9(j=1)", "c3 DeltaPhi q=9(j=1)",
        "c2 PGL2 q=11", "c3 PSL2 q=11",
        "c2 PSL2 q=13", "c2 PGL2 q=13", "c3 PSL2 q=13", "c2 PSL2 q=16",
        "c2 PSL2 q=17", "c2 PGL2 q=17", "c3 PSL2 q=17",
        "c2 PSL2 q=19", "c2 PGL2 q=19", "c3 PSL2 q=19",
        "c2 PSL2 q=23", "c2 PGL2 q=23", "c3 PSL2 q=23",
        "c2 PSL2 q=25", "c2 PGL2 q=25", "c2 PSigmaL2 q=25", "c2 DeltaPhi q=25(j=1)",
        "c3 PSL2 q=25", "c3 PSigmaL2 q=25", "c3 DeltaPhi q=25(j=1)",
        "c2 PSL2 q=27", "c2 PGL2 q=27", "c2 PSigmaL2 q=27",
        "c3 PSL2 q=27", "c3 PSigmaL2 q=27",
    ]
    assert len(projective) == 34
    assert verified_check_names(capsys, "star") == (
        ["star " + n for n in projective] + ["star fixture " + n for n in FIXTURES]
    )
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
                c2_act.label_index[OmegaPoint("proj_pair", criteria.c2_payload_from_labels(v.labels()))]
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
    for name in _table_rows():
        action = _entry_action(entries[name], DEFAULT_CAPS)
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
