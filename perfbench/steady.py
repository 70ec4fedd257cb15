"""Steadiness check: two sets of runs of the same code, compared.

    python3 perfbench/steady.py

For every workload in ``BENCHMARK.json`` it runs the command there ``RUNS``
times with seeds 1..RUNS (set A) and ``RUNS`` times with seeds
RUNS+1..2*RUNS (set B), one run at a time and alternating A1, B1, A2, B2,
..., so that a slow phase of the machine falls on both sets; then once more
with ``--trace 1``.  Per workload and end-to-end metric it prints each
set's median and quartiles, the spread (q3 - q1) / median, and whether the
sets agree within the metric's bound:

* each set's spread is within the bound;
* the two sets' medians differ by no more than the bound, as a share of
  set A's;
* the share of failed operations is exactly the same in every run.

It also prints the tracing overhead: ``run_s`` of the traced run minus
the median ``run_s`` of the untraced runs.  Everything, with each
operation's median time over all runs, is written to
``.perfbench-out/steady.json`` as well.  Exit code 0 when every check
holds, 1 otherwise.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900
RUNS = 10


def run_once(command, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = list(command) + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit("run failed (%d): %s\n%s" % (proc.returncode, " ".join(argv),
                                                     proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # the measuring process's summary; the set-up times follow it
    lines = [json.loads(line) for line in proc.stderr.splitlines() if line.startswith("{")]
    result["summary"] = next(line for line in lines if "run_s" in line)
    return result


def describe(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    report = {"run_seconds": seconds, "runs": RUNS, "workloads": {}}
    ok = True
    for name in [w["name"] for w in bench["workloads"]]:
        sets = ([], [])
        for k in range(RUNS):
            for runs, seed in zip(sets, (k + 1, RUNS + k + 1)):
                runs.append(run_once(bench["command"], name, seed, seconds, 0))
                print("  %s seed %d: %s" % (name, seed, " ".join(
                    "%s=%.4g" % (key, v["value"])
                    for key, v in runs[-1]["metrics"].items())),
                    file=sys.stderr, flush=True)
        traced = run_once(bench["command"], name, 1, seconds, 1)
        entry = {"metrics": {}}
        shares = [sorted({Fraction(r["failed"], r["attempted"]) for r in runs})
                  for runs in sets]
        entry["failed_share"] = [[str(s) for s in share] for share in shares]
        entry["failed_share_same"] = len(shares[0]) == 1 and shares[0] == shares[1]
        entry["correct"] = all(r["correct"] for runs in sets for r in runs) and traced["correct"]
        ok &= entry["failed_share_same"] and entry["correct"]
        print("\n%s  (failed share %s / %s, correct %s)" % (
            name, entry["failed_share"][0], entry["failed_share"][1], entry["correct"]))
        print("  %-12s %-5s %10s %10s %10s %7s %7s %7s %6s  %s" % (
            "metric", "unit", "A median", "A q1", "A q3", "A sprd", "B sprd",
            "B vs A", "bound", "agree"))
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a = describe([r["metrics"][key]["value"] for r in sets[0]])
            b = describe([r["metrics"][key]["value"] for r in sets[1]])
            shift = (b["median"] - a["median"]) / a["median"]
            agree = a["spread"] <= bound and b["spread"] <= bound and abs(shift) <= bound
            ok &= agree
            entry["metrics"][key] = {"A": a, "B": b, "B_vs_A": shift, "bound": bound,
                                     "agree": agree}
            print("  %-12s %-5s %10.4g %10.4g %10.4g %7.3f %7.3f %+7.3f %6.2f  %s" % (
                key, metric["unit"], a["median"], a["q1"], a["q3"], a["spread"],
                b["spread"], shift, bound, "yes" if agree else "NO"))
        all_runs = sets[0] + sets[1]
        untraced = statistics.median(r["summary"]["run_s"] for r in all_runs)
        per_run = [list(r["summary"]["op_s"].values()) for r in all_runs]
        entry["op_s"] = {
            op: statistics.median(times[k] for times in per_run)
            for k, op in enumerate(all_runs[0]["summary"]["op_s"])
        }
        entry["tracing"] = {
            "traced_run_s": traced["summary"]["run_s"],
            "untraced_run_s": untraced,
            "overhead_s": traced["summary"]["run_s"] - untraced,
        }
        print("  tracing overhead: traced run_s %.3f - untraced %.3f = %+.3f s (%+.0f%%)" % (
            traced["summary"]["run_s"], untraced, traced["summary"]["run_s"] - untraced,
            100 * (traced["summary"]["run_s"] / untraced - 1)))
        report["workloads"][name] = entry
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1))
    print("\nsteady: %s" % ("every check holds" if ok else "NOT steady"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
