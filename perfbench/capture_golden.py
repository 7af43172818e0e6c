"""Write perfbench/golden.json from the current code.

Run once on the code whose outputs are the reference (the benchmark's goldens
were captured from the seed code); every later run is checked against them.

    python3 perfbench/capture_golden.py
"""

from __future__ import annotations

import json
import sys

import child
import jobs


def main() -> int:
    child._load_saxl()
    golden = {}
    for name in jobs.JOBS:
        output, _ = child.observe(name, [])
        golden[name] = output
        print(name, output, file=sys.stderr)
    jobs.GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
