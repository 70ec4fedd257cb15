"""Wall time of `mfinv --json verify --check` on the heavy sessions.

Each session in `scripts/sessions/heavy/` runs in a fresh
`python -m mfinv.cli` process, as a user runs it, 7 times in a row; the
script prints one line per session with the median and the minimum wall
time, the exit code and a short digest of standard output, so that two
checkouts can be compared for speed and for identical output.  Standard
library only.

    python scripts/time_sessions.py
"""
from __future__ import annotations

import hashlib
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
HEAVY = sorted((ROOT / "scripts" / "sessions" / "heavy").glob("*.json"))
RUNS = 7


def time_session(path: pathlib.Path) -> dict:
    """Times of `RUNS` subprocess runs of verify --check on one session."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "mfinv.cli", "--input", str(path), "--json", "--check", "verify"]
    times, outputs, codes = [], set(), set()
    for _ in range(RUNS):
        t0 = time.perf_counter()
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        times.append(time.perf_counter() - t0)
        outputs.add(done.stdout)
        codes.add(done.returncode)
    if len(outputs) != 1 or len(codes) != 1:
        raise SystemExit("%s: output or exit code differs between runs" % path.name)
    return {
        "median_s": statistics.median(times),
        "min_s": min(times),
        "code": codes.pop(),
        "stdout_sha256": hashlib.sha256(outputs.pop().encode()).hexdigest()[:16],
    }


def main() -> int:
    for path in HEAVY:
        r = time_session(path)
        print("%s: median %.3f s, min %.3f s over %d runs, exit %d, stdout %s"
              % (path.name, r["median_s"], r["min_s"], RUNS, r["code"], r["stdout_sha256"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
