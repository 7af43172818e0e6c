"""One benchmark child: a fresh process that runs one or more jobs.

Imports saxl and numpy, prints ``ready`` on stdout (the parent times set-up
up to that line), runs the named jobs one after another, checks each output
against the golden file and prints one JSON line with the run's results.
A job that raises, exits non-zero or differs from its golden is recorded as
failed and the run goes on with the next job.

    python3 perfbench/child.py --jobs analyze_PGL2_13_S4,verify_euler [--trace] [--sympy-ref]
    python3 perfbench/child.py --probe
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import jobs


class JobFailed(Exception):
    """A job returned, but with a non-zero exit code or a wrong output."""


def _load_saxl() -> None:
    if str(jobs.SRC) not in sys.path:
        sys.path.insert(0, str(jobs.SRC))
    import numpy  # noqa: F401  (every CLI call pays this import)
    import saxl.cli

    if jobs.SRC not in Path(saxl.cli.__file__).resolve().parents:
        raise ImportError("saxl imported from %s, not from %s" % (saxl.cli.__file__, jobs.SRC))


def _cli_job(argv: list[str]) -> tuple[dict, int]:
    from saxl import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        raise JobFailed("exit code %r" % (code,))
    data = out.getvalue().encode()
    return {"sha256": hashlib.sha256(data).hexdigest()}, len(data)


def _class_estimates_job(keep: list) -> tuple[dict, int]:
    from saxl import actions, engine

    action = actions.psl2_c2_action(actions.GroupVariant("PSigmaL2", 49))
    keep.append(action)
    observed = {
        "q_hat": str(engine.q_hat(action)),
        "q_tilde": str(engine.q_tilde(action)),
        "group_order": action.group.order(),
        "stabiliser_order": action.stabiliser0().order(),
    }
    return observed, 0


def observe(name: str, keep: list) -> tuple[dict, int]:
    """Run one job; return (output to compare with the golden, stdout bytes).
    Actions a library job builds are appended to ``keep``."""
    argv = jobs.JOBS[name]
    if argv is None:
        return _class_estimates_job(keep)
    return _cli_job(argv)


def run_jobs(names: list[str], golden: dict, tracer=None, keep: list | None = None) -> list[dict]:
    """Run and check each job; one record per job, failures included."""
    keep = [] if keep is None else keep
    results = []
    for name in names:
        start = time.perf_counter()
        record = {"job": name, "ok": False, "error": None, "output": None, "stdout_bytes": 0}
        try:
            output, nbytes = observe(name, keep)
            record["output"], record["stdout_bytes"] = output, nbytes
            if name not in golden:
                raise JobFailed("no golden output")
            if output != golden[name]:
                raise JobFailed("output %s differs from golden %s" % (output, golden[name]))
            record["ok"] = True
        except Exception as exc:  # a failed job is recorded; the run goes on
            traceback.print_exc(file=sys.stderr)
            record["error"] = "%s: %s" % (type(exc).__name__, exc)
        record["seconds"] = time.perf_counter() - start
        if tracer is not None:
            record["suborbits"] = tracer.take_suborbit_count()
        results.append(record)
    return results


def sympy_order_seconds(action, expected: int) -> float:
    """Time sympy's PermutationGroup(...).order() on the action's generators."""
    from sympy.combinatorics import Permutation, PermutationGroup

    perms = [Permutation(list(g.images)) for g in action.group.gens]
    start = time.perf_counter()
    order = PermutationGroup(perms).order()
    took = time.perf_counter() - start
    if order != expected:
        raise JobFailed("sympy order %d != %d" % (order, expected))
    return took


def run(names: list[str], golden: dict, trace: bool = False, sympy_ref: bool = False) -> dict:
    """The measured part of one run, after set-up."""
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    keep: list = []
    start = time.perf_counter()
    try:
        results = run_jobs(names, golden, tracer, keep)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": results,
        "trace": None,
        "sympy_order_s": None,
    }
    if tracer is not None:
        summary = tracer.summary()
        summary["engine.suborbits_n"] = sum(r["suborbits"] for r in results)
        summary["cli.stdout_bytes"] = sum(r["stdout_bytes"] for r in results)
        for r in results:
            if jobs.JOBS[r["job"]] is not None:
                summary["cli.job_s." + r["job"]] = r["seconds"]
        out["trace"] = summary
    if sympy_ref and keep:
        out["sympy_order_s"] = sympy_order_seconds(keep[0], golden[jobs.CLASS_ESTIMATES_JOB]["group_order"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", default="", help="comma-separated job names")
    parser.add_argument("--probe", action="store_true", help="exit after set-up")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--sympy-ref", action="store_true")
    args = parser.parse_args(argv)
    names = [n for n in args.jobs.split(",") if n]
    unknown = [n for n in names if n not in jobs.JOBS]
    if unknown:
        parser.error("unknown jobs: %s" % ", ".join(unknown))
    golden = json.loads(jobs.GOLDEN_PATH.read_text())
    _load_saxl()
    print("ready", flush=True)
    if args.probe:
        return 0
    result = run(names, golden, trace=args.trace, sympy_ref=args.sympy_ref)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
