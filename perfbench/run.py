"""Benchmark for mfinv: one workload, one seed, one run.

    python3 perfbench/run.py --workload hom --seed 1 --seconds 20 --trace 0

Run it from anywhere: mfinv is loaded from the ``src`` directory next to
``perfbench`` and from nowhere else, and the run exits 2 if that is missing.

A run starts ``2 * PROBES + 1`` fresh Python processes of `worker.py`, one
after another.  Each imports mfinv and builds the workload's inputs from the
seed; its set-up time runs from its launch, read here on the monotonic
clock, to the start of its first timed operation, and it then reads the
machine's speed with the reference kernel of `speed`.  The middle one goes
on to run whole passes of the workload for ``--seconds`` and check them;
the others stop there.  ``setup_s`` is the median over all the processes,
before and after the passes, of the set-up time at the reference speed.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``run_s``, ``op_p50_s``, ``peak_rss_mb``); with ``--trace 1`` they are the
per-layer ones.  The measuring process writes a summary of the run to
standard error.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic

from speed import REF_S
from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBES = 6  # set-up-only processes before the measuring one, and as many after
TIMEOUT_S = 170  # the whole run, set-ups included


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="mfinv benchmark (one run)")
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mfinv" / "__init__.py").is_file():
        print("error: no mfinv sources at %s" % SRC, file=sys.stderr)
        return 2
    start = monotonic()
    setups = []
    result = None
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for k in range(2 * PROBES + 1):
            work = Path(tmp) / ("setup%d" % k)
            work.mkdir()
            argv = [sys.executable, str(HERE / "worker.py"),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--work", str(work)]
            measuring = k == PROBES
            if not measuring:
                argv.append("--setup-only")
            launched = monotonic()
            proc = subprocess.run(argv + ["--launched", repr(launched)],
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=TIMEOUT_S - (launched - start))
            if proc.returncode != 0:
                print("error: %s exited %d" % (" ".join(argv), proc.returncode),
                      file=sys.stderr)
                return 1
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            setups.append((out.pop("setup_s"), out.pop("ref_call_s")))
            if measuring:
                result = out
    scaled = [t * REF_S / ref for t, ref in setups]
    print(json.dumps({"setups_wall_s": [t for t, _ in setups], "setups_s": scaled}),
          file=sys.stderr)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
