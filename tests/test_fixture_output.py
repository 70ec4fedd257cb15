"""Every applicable subcommand on the shipped fixture sessions, in text and
in ``--json`` mode, against the recorded stdout, stderr and exit code.

The record is ``fixture_output.json`` next to this file.  After a
deliberate change of output, regenerate it with

    PYTHONPATH=src python tests/test_fixture_output.py

and review the diff of the record.
"""
import contextlib
import io
import json
import pathlib

import pytest

from mfinv.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "scripts" / "sessions"
RECORD = pathlib.Path(__file__).resolve().parent / "fixture_output.json"


def _commands(doc) -> list:
    """The subcommands that apply to a session document."""
    facs = doc.get("factorizations", {})
    endos = {
        a: [m for m, spec in doc.get("morphisms", {}).items() if spec["source"] == spec["target"] == a]
        for a in facs
    }
    cmds = [("milnor",), ("verify",), ("verify", "--check")]
    for a in facs:
        cmds.append(("chern", a))
        cmds += [("tau", a, m) for m in endos[a]]
        for b in facs:
            cmds += [("chi", a, b), ("hom", a, b)]
            cmds += [("cardy", a, b, m, k) for m in endos[a] for k in endos[b]]
    if "group" in doc:
        cmds += [("sectors",), ("orbifold-hh",)]
        rho = [a for a in facs if "rho" in facs[a]]
        cmds += [("equivariant-chi", a, b) for a in rho for b in rho]
    if "weights" in doc:
        graded = [a for a in facs if "degrees" in facs[a]]
        cmds += [("graded-chi", a, b) for a in graded for b in graded]
    return [mode + cmd for cmd in cmds for mode in ((), ("--json",))]


def _outputs(fixture: str) -> dict:
    """{command line: {"code", "stdout", "stderr"}} for one fixture."""
    path = FIXTURES / ("%s.json" % fixture)
    out = {}
    for argv in _commands(json.loads(path.read_text())):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["--input", str(path), *argv])
        out[" ".join(argv)] = {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    return out


FIXTURE_NAMES = sorted(p.stem for p in FIXTURES.glob("*.json"))


def test_every_fixture_is_recorded():
    assert FIXTURE_NAMES == sorted(json.loads(RECORD.read_text()))
    assert len(FIXTURE_NAMES) == 4


@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_fixture_output_matches_the_record(fixture):
    assert _outputs(fixture) == json.loads(RECORD.read_text())[fixture]


if __name__ == "__main__":
    record = {name: _outputs(name) for name in FIXTURE_NAMES}
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
