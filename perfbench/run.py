"""The saxl benchmark: fresh-process runs of a fixed workload, one at a time.

    python3 perfbench/run.py --workload analyze-ladder --seed 1 --seconds 38 --trace 0

Every job of a run is one fresh single-threaded child process (``child.py``);
children never overlap.  With ``--trace 0`` the benchmark first spawns set-up
probes, then runs the workload's job list again and again for about
``--seconds``, and reports the medians of ``wall_s``, ``peak_rss_mb`` and
``setup_s``.  With
``--trace 1`` it makes one untraced and one traced run and reports the
per-layer metrics of the traced run.  ``--seed`` fixes the order
of the jobs within the workload.  Metric names and units come from
``BENCHMARK.json``.  The last line of stdout is the result object; the line
before it gives every sample, the seed and the job order.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

import jobs

CHILD = jobs.HERE / "child.py"
# Children may write bytecode caches, so that set-up measures importing
# compiled modules, as an installed package does, whatever the caller's
# PYTHONDONTWRITEBYTECODE; the uncounted warm-up spawn writes them.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
SPEC_PATH = jobs.HERE.parent / "BENCHMARK.json"
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
SETUP_PROBES = 6


class ChildFailed(Exception):
    """A child process died, hung or printed no result."""


def spawn(deadline: float, job_names: list[str], *flags: str) -> tuple[float, dict | None]:
    """Run one child; return (set-up seconds, its result or None for a probe).

    Set-up runs from just before the spawn to the child's ``ready`` line."""
    cmd = [sys.executable, str(CHILD), "--jobs", ",".join(job_names), *flags]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, env=CHILD_ENV)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        ready = proc.stdout.readline() if readable else ""
        setup = time.perf_counter() - start
        if ready != "ready\n":
            raise ChildFailed("child did not get ready")
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed("child ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise ChildFailed("child exited with %d" % proc.returncode)
    if "--probe" in flags:
        return setup, None
    lines = out.splitlines()
    if not lines:
        raise ChildFailed("child printed no result")
    return setup, json.loads(lines[-1])


def run_once(order: list[str], deadline: float, *flags: str) -> tuple[list[float], dict]:
    """One run of the job list, each job in its own fresh child, as a user
    runs one ``saxl`` command per process.  Returns the children's set-up
    times and the run: ``wall_s`` summed over the jobs, ``peak_rss_mb`` and
    per-layer ``maxrss_gain_mb`` the largest child's, other trace values
    summed."""
    setups, results = [], []
    for name in order:
        setup, result = spawn(deadline, [name], *flags)
        setups.append(setup)
        results.append(result)
    run = {
        "wall_s": sum(r["wall_s"] for r in results),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "jobs": [job for r in results for job in r["jobs"]],
        "sympy_order_s": next((r["sympy_order_s"] for r in results if r["sympy_order_s"] is not None), None),
        "trace": None,
    }
    if "--trace" in flags:
        trace: dict[str, float] = {}
        for r in results:
            for key, value in r["trace"].items():
                merge = max if key.endswith("maxrss_gain_mb") else sum
                trace[key] = merge((trace.get(key, 0), value))
        run["trace"] = trace
    return setups, run


def failures(run: dict, label: str) -> list[dict]:
    return [
        {"run": label, "job": r["job"], "error": r["error"]} for r in run["jobs"] if not r["ok"]
    ]


def measure(order: list[str], seconds: float, deadline: float) -> tuple[dict, dict, int, list]:
    """Untraced runs: (metric samples, detail, jobs attempted, failures)."""
    setups = [spawn(deadline, [], "--probe")[0] for _ in range(SETUP_PROBES)]
    walls, rss, failed, attempted = [], [], [], 0
    start = time.monotonic()
    while True:
        run_setups, run = run_once(order, deadline)
        setups += run_setups
        walls.append(run["wall_s"])
        rss.append(run["peak_rss_mb"])
        attempted += len(run["jobs"])
        failed += failures(run, "run %d" % len(walls))
        elapsed = time.monotonic() - start
        # stop where the runs end closest to --seconds: another run of
        # average length would overshoot by more than half a run
        if elapsed + elapsed / len(walls) / 2 > seconds:
            break
    samples = {"wall_s": walls, "peak_rss_mb": rss, "setup_s": setups}
    counts = {name: len(values) for name, values in samples.items()}
    return samples, {"samples": samples, "sample_counts": counts}, attempted, failed


def traced(order: list[str], deadline: float, sympy_ref: bool) -> tuple[dict, dict, int, list]:
    """One untraced and one traced run: (per-layer values, detail, attempted, failures)."""
    _, plain = run_once(order, deadline, *(["--sympy-ref"] if sympy_ref else []))
    _, run = run_once(order, deadline, "--trace")
    failed = failures(plain, "untraced") + failures(run, "traced")
    # tracing must not change stdout: a traced job that passed its golden
    # check still fails if its output differs from the untraced run's
    plain_out = {r["job"]: r["output"] for r in plain["jobs"]}
    for r in run["jobs"]:
        if r["ok"] and r["output"] != plain_out[r["job"]]:
            failed.append({"run": "traced", "job": r["job"], "error": "output differs from the untraced run"})
    values = dict(run["trace"])
    values["trace.overhead_s"] = run["wall_s"] - plain["wall_s"]
    values["ref.sympy_order_s"] = plain["sympy_order_s"] or 0.0
    detail = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": run["wall_s"], "trace": run["trace"]}
    return values, detail, len(plain["jobs"]) + len(run["jobs"]), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    spec = json.loads(SPEC_PATH.read_text())
    order = jobs.job_order(args.workload, args.seed)
    try:
        spawn(deadline, [], "--probe")  # fills the bytecode and page caches; not counted
        if args.trace:
            values, detail, attempted, failed = traced(
                order, deadline, sympy_ref=jobs.CLASS_ESTIMATES_JOB in order
            )
            wanted = spec["per_layer"]
        else:
            samples, detail, attempted, failed = measure(order, args.seconds, deadline)
            values = {name: statistics.median(v) for name, v in samples.items()}
            wanted = spec["end_to_end"]
    except ChildFailed as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 1
    detail.update(
        workload=args.workload,
        seed=args.seed,
        job_order=order,
        failed_share=len(failed) / attempted,
        failures=failed,
    )
    print(json.dumps(detail, sort_keys=True))
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
