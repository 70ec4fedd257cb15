"""Wall time of `mfinv --json verify --check` on a directory of sessions.

Each session in the directory given, `scripts/sessions/heavy/` when none
is, runs in a fresh
`python -m mfinv.cli` process, as a user runs it, 7 times in a row; the
script prints one line per session with the median and the minimum wall
time, the exit code and a short digest of standard output, so that two
checkouts can be compared for speed and for identical output.  The
verify output holds only pass or fail per check, so the line also has a
digest of the computed values: the `--json` output of `milnor`, of `chern`
for each factorization, and of `hom` and `cardy` (on the identity
endomorphisms) for each ordered pair of factorizations; on a session with
a group also of `sectors`, `orbifold-hh`, and `equivariant-chi` for each
ordered pair of factorizations with `rho` data.  Standard library and the
mfinv of this checkout only.

    python scripts/time_sessions.py [DIRECTORY]

`scripts/sessions/frontier/` holds the 5- and 6-variable Fermat cubics
with k^st (rank 32 and 64), which no test runs.
"""
from __future__ import annotations

import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
HEAVY = ROOT / "scripts" / "sessions" / "heavy"
RUNS = 7
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "src"))  # the mfinv of this checkout, for `value_digest`


def time_session(path: pathlib.Path) -> dict:
    """Times of `RUNS` subprocess runs of verify --check on one session."""
    argv = [sys.executable, "-m", "mfinv.cli", "--input", str(path), "--json", "--check", "verify"]
    times, outputs, codes = [], set(), set()
    for _ in range(RUNS):
        t0 = time.perf_counter()
        done = subprocess.run(argv, env=ENV, capture_output=True, text=True)
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


def _identity(n: int) -> list:
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


def value_digest(path: pathlib.Path) -> str:
    """Digest of the value commands on the session, with an identity
    endomorphism ``id_<name>`` added for each factorization."""
    from mfinv.cli import load_session

    session = load_session(str(path))
    doc = json.loads(path.read_text())
    names = list(doc["factorizations"])
    morphisms = doc.setdefault("morphisms", {})
    for name in names:
        E = session.factorizations[name]
        morphisms["id_" + name] = {"source": name, "target": name, "parity": 0,
                                   "blocks": [_identity(E.r0), _identity(E.rank - E.r0)]}
    commands = [["milnor"]] + [["chern", a] for a in names]
    for a in names:
        for b in names:
            commands += [["hom", a, b], ["cardy", a, b, "id_" + a, "id_" + b]]
    if "group" in doc:
        commands += [["sectors"], ["orbifold-hh"]]
        equivariant = [a for a in names if "rho" in doc["factorizations"][a]]
        commands += [["equivariant-chi", a, b] for a in equivariant for b in equivariant]
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        session_path = pathlib.Path(tmp) / path.name
        session_path.write_text(json.dumps(doc))
        for command in commands:
            argv = [sys.executable, "-m", "mfinv.cli", "--input", str(session_path), "--json"]
            done = subprocess.run(argv + command, env=ENV, capture_output=True, text=True)
            record = "%s: exit %d\n%s" % (" ".join(command), done.returncode, done.stdout)
            digest.update(record.encode())
    return digest.hexdigest()[:16]


def main() -> int:
    directory = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else HEAVY
    for path in sorted(directory.glob("*.json")):
        r = time_session(path)
        print("%s: median %.3f s, min %.3f s over %d runs, exit %d, stdout %s, values %s"
              % (path.name, r["median_s"], r["min_s"], RUNS, r["code"], r["stdout_sha256"],
                 value_digest(path)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
