"""`sessions`: the `mfinv` command, one process per command, as a user runs it.

Every command pays interpreter start, session parsing and the Milnor build,
and `verify` recomputes Hom cohomology for the same pairs; this is the only
workload where those costs show.  The commands run on the four fixture
sessions in ``scripts/sessions`` and on session documents generated from
the seed: the 3-variable Fermat cubic with E = koszul(x,y,z; x^2,y^2,z^2)
and a sheared rank-4 F, and x^5 under Z/5 with a seeded twist.  A few
malformed documents must exit with code 2.  Every command ends within half
a second or so, so that a run repeats each one several times; commands
that take seconds (`verify`, or Hom of the rank-8 E, on the Fermat cubic)
are left out.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from . import (
    Crash,
    Op,
    Workload,
    brieskorn_pham_gram,
    chi_pinned,
    expect,
    invariant_monomial_dims,
)
from .hom import SHEAR_COEFFS, shear

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
FIXTURES = ROOT / "scripts" / "sessions"
VERIFY_LINES = (
    "hrr", "cardy", "oracle-tau", "chern-diagonal", "inverse-form",
    "permutation-invariance", "hessian-trace",
)
CYCLIC = (5, 2)  # x^5 under Z/5, slope 2
TIMEOUT_S = 120


def _fermat3_doc(rng) -> dict:
    from mfinv.poly import PolyRing

    R = PolyRing(("x", "y", "z"))
    a, b = shear(R, [R.parse("x"), R.parse("y + z")],
                 [R.parse("x^2"), R.parse("y^2 - y*z + z^2")], rng.choice(SHEAR_COEFFS))
    return {
        "variables": ["x", "y", "z"],
        "potential": "x^3 + y^3 + z^3",
        "factorizations": {
            "E": {"koszul": {"a": ["x", "y", "z"], "b": ["x^2", "y^2", "z^2"]}},
            "F": {"koszul": {"a": [str(p) for p in a], "b": [str(p) for p in b]}},
        },
    }


def _cyclic_doc(m: int, i: int, a: int) -> dict:
    def rho(t):
        return {"gen0": [["z^%d" % ((t + i) % m), "0"], ["0", "z^%d" % (t % m)]]}

    pinned = {"koszul": {"a": ["x^%d" % i], "b": ["x^%d" % (m - i)]}}
    return {
        "variables": ["x"],
        "potential": "x^%d" % m,
        "group": {"cyclotomic_order": m, "generators": [["z"]]},
        "factorizations": {"E0": dict(pinned, rho=rho(0)), "EG": dict(pinned, rho=rho(a))},
    }


# --- output checks -----------------------------------------------------------


def _text_values(stdout: str) -> dict:
    return dict(line.split(": ", 1) for line in stdout.strip().splitlines())


def _verify_lines(stdout: str) -> None:
    lines = _text_values(stdout)
    for name in VERIFY_LINES:
        expect(lines.get(name) == "pass", "verify line %s: %s" % (name, lines.get(name)))


def _det(rows) -> Fraction:
    """Determinant over Q by elimination, kept apart from mfinv."""
    M = [[Fraction(c) for c in row] for row in rows]
    n, det = len(M), Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if M[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            det = -det
        det *= M[k][k]
        for r in range(k + 1, n):
            f = M[r][k] / M[k][k]
            for c in range(k, n):
                M[r][c] -= f * M[k][c]
    return det


def _check_d4_milnor(stdout: str) -> None:
    # x^3 + x y^2 has weights (1/3, 1/3): mu = (3 - 1)^2 = 4, and the
    # residue pairing is symmetric and nondegenerate
    out = json.loads(stdout)
    G = out["gram"]
    expect(out["mu"] == 4 and len(out["basis"]) == 4, "d4 milnor: mu %s" % out["mu"])
    expect(all(G[r][c] == G[c][r] for r in range(4) for c in range(4)), "d4 gram not symmetric")
    expect(_det(G) != 0, "d4 gram is singular")


def _check_fermat3_milnor(stdout: str) -> None:
    out = json.loads(stdout)
    form = brieskorn_pham_gram((3, 3, 3))
    expect(out["mu"] == 8, "fermat3 milnor: mu %s" % out["mu"])
    names = ("x", "y", "z")
    basis = []
    for text in out["basis"]:
        exps = [0, 0, 0]
        for factor in text.split("*"):
            if factor == "1":
                continue
            var, _, power = factor.partition("^")
            exps[names.index(var)] = int(power or 1)
        basis.append(tuple(exps))
    for r, ma in enumerate(basis):
        for c, mb in enumerate(basis):
            on = tuple(p + q for p, q in zip(ma, mb)) == form["socle"]
            want = form["value"] if on else 0
            expect(Fraction(out["gram"][r][c]) == want,
                   "fermat3 gram[%d][%d] = %s, want %s" % (r, c, out["gram"][r][c], want))


def _check_hh(exponents, gens, order):
    want = invariant_monomial_dims(exponents, gens, order)

    def check(stdout: str) -> None:
        out = json.loads(stdout)
        got = (sorted((s["parity"], s["dimension"]) for s in out["sectors"]),
               out["even"], out["odd"])
        expect(got == want, "orbifold-hh: %s, want %s" % (got, want))

    return check


def _check_cyclic3_sectors(stdout: str) -> None:
    # Z/3 on x^3: the identity fixes x (mu 2), the other two fix nothing
    got = sorted((len(s["fixed"]), s["mu"]) for s in json.loads(stdout)["sectors"])
    expect(got == [(0, 1), (0, 1), (1, 2)], "cyclic3 sectors: %s" % got)


def _json_equals(want: dict):
    def check(stdout: str) -> None:
        out = json.loads(stdout)
        for key, value in want.items():
            expect(out.get(key) == value, "%s = %r, want %r" % (key, out.get(key), value))

    return check


def _text_equals(want: dict):
    def check(stdout: str) -> None:
        out = _text_values(stdout)
        for key, value in want.items():
            expect(out.get(key) == value, "%s = %r, want %r" % (key, out.get(key), value))

    return check


def _error_only(stdout: str) -> None:
    expect(stdout == "", "a rejected session printed %r" % stdout[:80])


# --- set-up ------------------------------------------------------------------


def setup(seed: int, work: Path, traced: bool) -> Workload:
    rng = random.Random(seed)
    m, i = CYCLIC
    twist = rng.randrange(m)
    docs = {
        "fermat3": _fermat3_doc(rng),
        "cyclic5": _cyclic_doc(m, i, twist),
    }
    d4 = json.loads((FIXTURES / "d4.json").read_text())
    graded = json.loads((FIXTURES / "x4_graded.json").read_text())
    # ValueError from int() escapes load_session for these two (exit 1 and
    # a traceback instead of 2); they stay failed until that is fixed
    docs["bad_order"] = dict(d4, field={"cyclotomic_order": "abc"})
    docs["bad_weights"] = dict(graded, weights=["a"])
    docs["bad_potential"] = dict(
        d4, factorizations={"E": {"koszul": {"a": ["x"], "b": ["x^2"]}}})
    paths = {name: work / ("%s.json" % name) for name in docs}
    for name, doc in docs.items():
        paths[name].write_text(json.dumps(doc))
    # the generated documents must load, so that a failure in a pass is
    # the command's and not the generator's
    from mfinv.cli import load_session

    for name in ("fermat3", "cyclic5"):
        load_session(str(paths[name]))
    paths["bad_json"] = work / "bad_json.json"
    paths["bad_json"].write_text('{"variables": ["x"], "potential": ')
    for name in ("d4", "x6", "cyclic3", "x4_graded"):
        paths[name] = FIXTURES / ("%s.json" % name)

    trace_dir = work / "trace"
    trace_dir.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    if traced:
        head = [sys.executable, str(BENCH / "trace_child.py")]
    else:
        head = [sys.executable, "-m", "mfinv.cli"]

    def command(doc, *args):
        argv = head + ["--input", str(paths[doc])] + list(args)

        def run():
            env["PERFBENCH_LAUNCH"] = repr(perf_counter())
            return subprocess.run(argv, env=env, cwd=str(ROOT), capture_output=True,
                                  text=True, timeout=TIMEOUT_S)

        return run

    def expecting(code, parse=None):
        def check(proc):
            if "Traceback" in proc.stderr:
                raise Crash("exit %d, %s" % (proc.returncode,
                                             proc.stderr.strip().splitlines()[-1]))
            expect(proc.returncode == code, "exit %d, want %d: %s"
                   % (proc.returncode, code, proc.stderr.strip()[:200]))
            if parse is not None:
                parse(proc.stdout)

        return check

    plan = [
        ("d4", ("verify", "--check"), 0, _verify_lines),
        ("d4", ("--json", "milnor"), 0, _check_d4_milnor),
        ("d4", ("chern", "E"), 0, _text_equals({"class": "2*y"})),
        ("d4", ("hom", "E", "E"), 0, _text_equals({"h0": "2", "h1": "0"})),
        # index pairing = h0 - h1 of the Hom above
        ("d4", ("--json", "chi", "E", "E"), 0, _json_equals({"chi": 2})),
        ("x6", ("verify", "--check"), 0, _verify_lines),
        ("x6", ("cardy", "E3", "E3", "odd3", "odd3"), 0, _text_equals({"value": "6"})),
        # Hom(K(x^i; x^(6-i)), K(x^j; x^(6-j))) is (m, m), m = min(i, j, 6-i, 6-j)
        ("x6", ("--json", "hom", "E2", "E3"), 0, _json_equals({"h0": 2, "h1": 2})),
        ("cyclic3", ("verify", "--check"), 0, _verify_lines),
        ("cyclic3", ("--json", "sectors"), 0, _check_cyclic3_sectors),
        ("cyclic3", ("--json", "equivariant-chi", "E1", "E1"), 0,
         _json_equals({"chi": chi_pinned(3, 1, 0)})),
        ("cyclic3", ("--json", "orbifold-hh"), 0, _check_hh((3,), ((1,),), 3)),
        ("x4_graded", ("verify", "--check"), 0, _verify_lines),
        # the self-pairing of a graded factorization of x^n is 1
        ("x4_graded", ("--json", "graded-chi", "E1", "E1"), 0, _json_equals({"chi": 1})),
        ("fermat3", ("--json", "milnor"), 0, _check_fermat3_milnor),
        # E is k^st of the Fermat cubic: its character is 0
        ("fermat3", ("chern", "E"), 0, _text_equals({"class": "0"})),
        # an odd number of variables: the index pairing vanishes
        ("fermat3", ("--json", "chi", "E", "F"), 0, _json_equals({"chi": 0})),
        ("cyclic5", ("verify", "--check"), 0, _verify_lines),
        ("cyclic5", ("--json", "equivariant-chi", "E0", "EG"), 0,
         _json_equals({"chi": chi_pinned(m, i, twist)})),
        ("cyclic5", ("--json", "orbifold-hh"), 0, _check_hh((m,), ((1,),), m)),
        ("bad_order", ("milnor",), 2, _error_only),
        ("bad_weights", ("graded-chi", "E1", "E1"), 2, _error_only),
        ("bad_potential", ("milnor",), 2, _error_only),
        ("bad_json", ("milnor",), 2, _error_only),
        ("d4", ("chern", "G"), 2, _error_only),
    ]
    ops = [
        Op("mfinv %s %s" % (doc, " ".join(args)), command(doc, *args), expecting(code, parse))
        for doc, args, code, parse in plan
    ]

    def collect_trace() -> list:
        parts = []
        for path in trace_dir.iterdir():
            parts.append(json.loads(path.read_text()))
            path.unlink()
        return sorted(parts, key=lambda part: part["launch"])  # command order

    return Workload(ops, peak_rss_of_children=True, collect_trace=collect_trace)
