"""One measuring process of the mfinv benchmark, started by `run.py`.

    python3 perfbench/worker.py --workload hom --seed 1 --seconds 20 --trace 0 \
        --work DIR --launched T [--setup-only]

It imports mfinv from the ``src`` directory next to ``perfbench`` and builds
the workload's inputs from the seed in ``DIR``.  ``setup_s`` is the time
from ``T``, the launcher's `time.monotonic` just before it started this
process, to the start of the first timed operation: interpreter start,
imports and input building.  Right after it the process times
``SETUP_REFS`` calls of the reference kernel of `speed`, so that `run.py`
can put the set-up time at the reference speed.  With ``--setup-only`` the
process prints ``{"setup_s": ..., "ref_call_s": ...}`` and stops there.

Otherwise it runs whole passes over the workload's operations, one
operation at a time, with one reference kernel call before each, until
``--seconds`` have gone by; every pass is the same operations, so the
failed share is the same in every run.  The checks run after each pass,
outside the timed region.  The last line of standard output is the run's
JSON result with ``setup_s`` and ``ref_call_s`` beside it.  With
``--trace 0`` the metrics are ``run_s`` (the sum over the operations of
each one's mean time), ``op_p50_s`` (the median of those means) and
``peak_rss_mb``; with ``--trace 1`` they are the per-layer ones from
`tracer`, and the spans of the first pass are written to
``.perfbench-out/`` at the checkout root.  Every time is at the reference
speed.  A summary of the run, with the raw wall times, goes to standard
error.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import monotonic, perf_counter

# run as a script, this directory is first on sys.path
from speed import REF_S, timed_reference
from tracer import Tracer, layer_metrics, merge_counts, metric_units
from workloads import NAMES, Crash, Mismatch, load

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REFS = 25  # reference kernel calls that read the speed after set-up


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="mfinv benchmark (one process)")
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--launched", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def run_passes(workload, seconds: float, tracer):
    """Whole passes until ``seconds`` of wall time have gone by."""
    pass_times, op_times, ref_times, layer_passes = [], [], [], []
    attempted = failed = 0
    correct = True
    problems = []
    first_spans = None
    start = perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        outputs = []
        total = 0.0
        for op in workload.ops:
            ref_times.append(timed_reference())
            t0 = perf_counter()
            try:
                if tracer is not None:
                    with tracer.root_span(op.name):
                        out = op.run()
                else:
                    out = op.run()
                err = None
            except Exception as exc:  # the program failed: count it, go on
                out, err = None, exc
            dt = perf_counter() - t0
            total += dt
            op_times.append(dt)
            outputs.append((out, err))
        pass_times.append(total)
        if tracer is not None:
            children = workload.collect_trace()
            raw = merge_counts([tracer.counts()] + [c["counts"] for c in children])
            layer_passes.append(layer_metrics(raw))
            if first_spans is None:
                first_spans = {"main": list(tracer.spans),
                               "children": [c["spans"] for c in children]}
        for op, (out, err) in zip(workload.ops, outputs):
            attempted += 1
            try:
                if err is not None:
                    raise Crash("%s: %s" % (type(err).__name__, err))
                op.check(out)
            except Crash as exc:
                failed += 1
                problems.append("failed %s: %s" % (op.name, exc))
            except Exception as exc:  # Mismatch, or output that will not parse
                failed += 1
                correct = False
                kind = "" if isinstance(exc, Mismatch) else type(exc).__name__ + ": "
                problems.append("wrong %s: %s%s" % (op.name, kind, exc))
        if perf_counter() - start >= seconds:
            break
    return {
        "pass_times": pass_times,
        "op_times": op_times,
        "ref_times": ref_times,
        "layer_passes": layer_passes,
        "first_spans": first_spans,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "problems": problems,
    }


def speed_scale(result: dict) -> float:
    """Seconds at the reference speed per second of this run (see `speed`):
    ``REF_S`` over the mean time of the reference kernel calls made
    between the operations."""
    return REF_S / statistics.fmean(result["ref_times"])


def op_costs(result: dict, ops_per_pass: int) -> list:
    """Each operation's mean time over the passes, at the reference speed."""
    scale = speed_scale(result)
    times = result["op_times"]
    return [scale * statistics.fmean(times[k::ops_per_pass]) for k in range(ops_per_pass)]


def per_layer_values(result: dict) -> dict:
    """Counts from the first pass (every pass repeats them); times as the
    median over passes, at the reference speed."""
    layer_passes = result["layer_passes"]
    scale = speed_scale(result)
    out = {}
    for name, unit in metric_units().items():
        if unit == "s":
            value = scale * statistics.median(p[name] for p in layer_passes)
        else:
            value = layer_passes[0][name]
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    workload = load(args.workload).setup(args.seed, args.work, bool(args.trace))
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    setup_s = monotonic() - args.launched
    ref_call_s = statistics.fmean(timed_reference() for _ in range(SETUP_REFS))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "ref_call_s": ref_call_s}))
        return 0
    result = run_passes(workload, args.seconds, tracer)

    costs = op_costs(result, len(workload.ops))
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(result["pass_times"]),
        "ops_per_pass": len(workload.ops),
        "run_s": sum(costs),
        "op_p50_s": statistics.median(costs),
        # the raw readings the two above are scaled from
        "ref_call_s": statistics.fmean(result["ref_times"]),
        "wall_pass_median_s": statistics.median(result["pass_times"]),
        "op_s": {op.name: round(t, 4) for op, t in zip(workload.ops, costs)},
        "problems": result["problems"][:10],
    }
    if args.trace:
        metrics = per_layer_values(result)
        OUT.mkdir(exist_ok=True)
        path = OUT / ("trace-%s-seed%d.json" % (args.workload, args.seed))
        with open(path, "w") as fh:
            json.dump({"summary": summary, "per_layer": metrics,
                       "spans": result["first_spans"]}, fh)
        summary["trace_file"] = str(path.relative_to(ROOT))
    else:
        metrics = {
            "run_s": {"value": sum(costs), "unit": "s"},
            "op_p50_s": {"value": statistics.median(costs), "unit": "s"},
            "peak_rss_mb": {
                "value": _peak_rss_mb(workload.peak_rss_of_children),
                "unit": "MB",
            },
        }
    print(json.dumps(summary), file=sys.stderr)
    print(json.dumps({
        "setup_s": setup_s,
        "ref_call_s": ref_call_s,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
