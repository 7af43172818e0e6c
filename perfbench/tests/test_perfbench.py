"""Tests of the benchmark itself (not of saxl).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import child  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402

child._load_saxl()

from saxl import engine, group, perm  # noqa: E402

GOLDEN = json.loads(jobs.GOLDEN_PATH.read_text())
SPEC = json.loads((jobs.HERE.parent / "BENCHMARK.json").read_text())
QUICK = ["analyze_PGL2_13_S4", "graph_c2_q13_psigma_edges"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bindings() -> dict:
    """Every attribute of every saxl module and of the classes the tracer
    patches, by identity."""
    holders = {name: mod for name, mod in sys.modules.items() if name == "saxl" or name.startswith("saxl.")}
    for target in [t for _, t, _ in spans.FOLDED + spans.SPANS] + [spans.ELEMENTS[0]]:
        owner, _, _ = spans._resolve(target)
        holders[repr(owner)] = owner
    return {(key, attr): value for key, holder in holders.items() for attr, value in list(vars(holder).items())}


def same(before: dict, after: dict) -> bool:
    return before.keys() == after.keys() and all(before[k] is after[k] for k in before)


@pytest.mark.parametrize(
    "name, argv, golden, error",
    [
        ("analyze_PGL2_13_S4", None, {"sha256": "0" * 64}, "differs from golden"),
        ("usage_error", ["analyze"], {"sha256": "0" * 64}, "exit code 1"),
        ("cap_hit", ["analyze", "--psl2", "c2", "--q", "13", "--point-cap", "1"], {"sha256": "0" * 64}, "exit code 2"),
        ("no_golden", ["analyze", "--catalogue", "PGL2_13_S4"], None, "no golden"),
    ],
)
def test_failed_job_is_recorded_and_the_run_goes_on(monkeypatch, name, argv, golden, error):
    if argv is not None:
        monkeypatch.setitem(jobs.JOBS, name, argv)
    goldens = dict(GOLDEN)
    goldens.pop(name, None)
    if golden is not None:
        goldens[name] = golden
    results = child.run_jobs([name, "graph_c2_q13_psigma_edges"], goldens)
    assert [r["ok"] for r in results] == [False, True]
    assert error in results[0]["error"]


def test_untraced_run_installs_no_wrapper(monkeypatch):
    def refuse(self):
        raise AssertionError("untraced run installed the tracer")

    monkeypatch.setattr(spans.Tracer, "install", refuse)
    before = bindings()
    seen = []
    real_observe = child.observe

    def observe(name, keep):
        seen.append(same(before, bindings()))
        return real_observe(name, keep)

    monkeypatch.setattr(child, "observe", observe)
    result = child.run(QUICK, GOLDEN, trace=False)
    assert seen == [True, True]
    assert result["trace"] is None
    assert all(r["ok"] for r in result["jobs"])


def test_tracer_restores_perm_and_module_bindings():
    before = bindings()
    mul = perm.Perm.__mul__
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert perm.Perm.__mul__ is not mul
        assert engine.conjugacy_class is group.conjugacy_class  # both bindings patched
        assert engine.conjugacy_class is not before[("saxl.group", "conjugacy_class")]
        results = child.run_jobs(QUICK, GOLDEN, tracer)
    finally:
        tracer.uninstall()
    assert same(before, bindings())
    assert perm.Perm.__mul__ is mul
    assert all(r["ok"] for r in results)  # tracing leaves stdout unchanged
    summary = tracer.summary()
    assert summary["group.chain_n"] > 0 and summary["perm.mul_n"] > 0
    assert summary["group.pointwise_stabiliser_s"] > 0


def test_traced_run_reports_every_per_layer_metric():
    result = child.run(QUICK, GOLDEN, trace=True)
    produced = set(result["trace"]) | {"trace.overhead_s", "ref.sympy_order_s"}
    produced |= {"cli.job_s." + name for name in jobs.CLI_JOBS}
    assert {m["name"] for m in SPEC["per_layer"]} <= produced
    assert all(NAME.fullmatch(name) for name in produced)


def test_metric_and_job_names_are_well_formed():
    names = [m["name"] for section in ("end_to_end", "per_layer") for m in SPEC[section]]
    names += [w["name"] for w in SPEC["workloads"]] + list(jobs.JOBS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert {w["name"] for w in SPEC["workloads"]} == set(jobs.WORKLOADS)


def test_seed_fixes_job_order():
    assert jobs.job_order("analyze-ladder", 7) == jobs.job_order("analyze-ladder", 7)
    assert sorted(jobs.job_order("closed-form", 7)) == sorted(jobs.WORKLOADS["closed-form"])
