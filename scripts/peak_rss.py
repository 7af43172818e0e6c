"""Run saxl commands, each in a child process, and bound each one's peak RSS.

Run from the repository root, with the limit in MB and one quoted ``saxl``
command line per argument:

    python3 scripts/peak_rss.py 80 "analyze --psl2 c2 --q 121 --no-classes"

Each command runs as ``python -m saxl.cli ...``.  Its stdout is read
through a pipe a block at a time and hashed, not kept, so a caller can check
the output of the same run whose memory it bounds.  Its peak RSS is the
``ru_maxrss`` that ``os.wait4`` reports for that child alone, and its wall
time is read with ``perf_counter`` around the child.  One line per command
gives its exit code, wall time, peak and the sha256 of its stdout; the
script exits 1 when any command exits non-zero or peaks at or above the
limit.
``src`` is byte-compiled once before the first child, so that no peak
includes the compiler, even with a stale cache and
``PYTHONDONTWRITEBYTECODE`` set.
"""

from __future__ import annotations

import compileall
import hashlib
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def peak_rss(argv: list[str]) -> tuple[int, float, float, str]:
    """Exit code, wall time in s, peak RSS in MB and stdout sha256 of
    ``saxl argv`` in a child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "saxl.cli", *argv], stdout=subprocess.PIPE, env=env)
    digest = hashlib.sha256()
    with child.stdout:
        for block in iter(lambda: child.stdout.read(1 << 16), b""):
            digest.update(block)
    _, status, usage = os.wait4(child.pid, 0)
    wall_s = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, wall_s, usage.ru_maxrss / 1024, digest.hexdigest()  # Linux reports KB


def main(args: list[str]) -> int:
    if len(args) < 2:
        sys.stderr.write("usage: peak_rss.py LIMIT_MB COMMAND [COMMAND ...]\n")
        return 2
    limit = float(args[0])
    compileall.compile_dir(SRC, quiet=1)
    ok = True
    for command in args[1:]:
        code, wall_s, peak_mb, sha256 = peak_rss(shlex.split(command))
        print(
            "saxl %s: exit %d, wall %.2f s, peak RSS %.1f MB (limit %g), stdout sha256 %s"
            % (command, code, wall_s, peak_mb, limit, sha256),
            flush=True,
        )
        ok = ok and code == 0 and peak_mb < limit
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
