"""Workload definitions for the saxl benchmark, as plain data.

A CLI job is an argv list for ``saxl.cli.main``; its output is the sha256 of
what it writes to stdout.  The one library job, ``class_estimates_q49``,
builds PSigmaL(2,49) on pairs and returns Q-hat, Q-tilde and the two certified
orders.  Nothing here imports saxl, so the parent process can read the job
lists without paying the import.
"""

from __future__ import annotations

import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN_PATH = HERE / "golden.json"

CLASS_ESTIMATES_JOB = "class_estimates_q49"

# job name -> argv for saxl.cli.main (None marks the library job)
JOBS = {
    "analyze_c2_q25_psigma": ["analyze", "--psl2", "c2", "--q", "25", "--variant", "psigma"],
    "analyze_c3_q27": ["analyze", "--psl2", "c3", "--q", "27"],
    "analyze_PGL2_13_S4": ["analyze", "--catalogue", "PGL2_13_S4"],
    "graph_c2_q13_psigma_edges": ["graph", "--psl2", "c2", "--q", "13", "--variant", "psigma", "--format", "edges"],
    CLASS_ESTIMATES_JOB: None,
    "verify_clique5": ["verify", "clique5"],
    "verify_witnesses": ["verify", "witnesses"],
    "verify_euler": ["verify", "euler"],
}

WORKLOADS = {
    "analyze-ladder": [
        "analyze_c2_q25_psigma",
        "analyze_c3_q27",
        "analyze_PGL2_13_S4",
        "graph_c2_q13_psigma_edges",
    ],
    "class-estimates": [CLASS_ESTIMATES_JOB],
    "closed-form": ["verify_clique5", "verify_witnesses", "verify_euler"],
}

CLI_JOBS = [name for name, argv in JOBS.items() if argv is not None]


def job_order(workload: str, seed: int) -> list[str]:
    """The workload's jobs in the order fixed by ``seed``."""
    order = list(WORKLOADS[workload])
    random.Random(seed).shuffle(order)
    return order
