"""`python -m mfinv.cli` under the tracer, for traced runs of `sessions`.

    PERFBENCH_TRACE_DIR=dir PERFBENCH_LAUNCH=<perf_counter at launch> \\
        python3 perfbench/trace_child.py --input session.json verify --check

Startup is the time from launch (read on the same monotonic clock by the
parent) until mfinv.cli is imported.  The per-process numbers and spans
are written to a new file in PERFBENCH_TRACE_DIR when the command ends,
also when it ends in an exception, which then propagates as it would
without the tracer.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile
from time import perf_counter


def main() -> None:
    import mfinv.cli  # imports every other mfinv module

    launch = float(os.environ["PERFBENCH_LAUNCH"])
    startup = perf_counter() - launch
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.startup_s = startup
    try:
        code = mfinv.cli.main(sys.argv[1:])
    finally:
        fd, path = tempfile.mkstemp(suffix=".json", dir=os.environ["PERFBENCH_TRACE_DIR"])
        with os.fdopen(fd, "w") as fh:
            json.dump({"launch": launch, "counts": tracer.counts(), "spans": tracer.spans}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
