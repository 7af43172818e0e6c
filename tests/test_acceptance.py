"""Release gate: ten end-to-end checks with hard runtime budgets.

Every check recomputes its numbers from scratch inside its own timer and
compares against closed forms, bundled expectation tables, or an independent
second route.  All comparisons are exact; budgets are wall-clock upper bounds.

Each criterion runs ``saxl verify`` sweeps, so the gate and the command line
cannot drift apart.  Each pins the exact list of check names its sweeps must
report, which fixes what they cover.
"""

import json
import time

from saxl.cli import main

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


def test_criterion_2_closed_forms(capsys):
    budget = 120.0
    t0 = time.monotonic()
    # exact Q of the projective group on pairs, and of the socle on pairs and
    # on unitary points, against the closed forms
    assert verified_check_names(capsys, "closed-forms") == (
        ["closed-form PGL_Dq_minus_1 q=%d" % q for q in (8, 9, 11, 13, 16)]
        + [
            "closed-form %s q=%d" % (kind, q)
            for q in (13, 17, 29)
            for kind in ("Dq_minus_1", "Dq_plus_1")
        ]
    )
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


def test_criterion_8_clique_bounds(capsys):
    budget = 900.0
    t0 = time.monotonic()
    # five-cliques for the extension groups over non-prime fields: vertex 0 is
    # alpha, and all ten edges of each are re-verified arithmetically
    assert verified_check_names(capsys, "clique5") == [
        "clique5 q=%d" % q for q in (49, 81, 121, 125, 169)
    ]
    # the exact clique and independence numbers of A5 on 2-subsets; socle
    # cliques of size (q-1)/2, every edge confirmed by the engine; and the
    # q = 49 five-cliques confirmed straight from the permutation groups
    assert verified_check_names(capsys, "cliques") == [
        "exact A5/2-subsets",
        "c3-clique q=9 (engine-checked)",
        "c3-clique q=13 (engine-checked)",
        "c3-clique q=25 (engine-checked)",
        "clique5 q=49 (engine-checked)",
    ]
    assert time.monotonic() - t0 <= budget


def test_criterion_9_estimate_chain_and_bound(capsys):
    budget = 60.0
    t0 = time.monotonic()
    # Q <= Q-hat <= Q-tilde for every fixture, and the lemma's bound below 1/4;
    # the star property of the fixtures is criterion 7's
    assert verified_check_names(capsys, "estimates") == (
        ["estimates " + n for n in FIXTURES] + ["lemma-bound A=156 B=135135 c=2"]
    )
    assert time.monotonic() - t0 <= budget


def test_criterion_10_totient_scans(capsys):
    budget = 60.0
    t0 = time.monotonic()
    assert verified_check_names(capsys, "euler") == [
        "euler-lower-bound n<=1000000",
        "phi(q-1)>=4f (odd non-prime q<10^4)",
        "phi(q^2-1)>=4f(q+1) (odd q<10^3)",
    ]
    assert time.monotonic() - t0 <= budget
