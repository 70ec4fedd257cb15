"""The survey script end to end.  `scripts/survey.py --oracle --seed 7` is
deterministic, and its output is pinned in ``survey_output.txt`` next to
this file.  After a deliberate change of output, regenerate it with

    PYTHONPATH=src python scripts/survey.py --oracle --seed 7 > tests/survey_output.txt

and review the diff of the record.
"""
import os
import pathlib
import subprocess
import sys

import mfinv

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORD = pathlib.Path(__file__).resolve().parent / "survey_output.txt"


def _run_survey(python_flags=(), args=()):
    src = str(pathlib.Path(mfinv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, *python_flags, str(ROOT / "scripts" / "survey.py"), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "all rows consistent"
    return proc.stdout


def test_survey_runs_without_oracle():
    _run_survey()


def test_survey_oracle_routes_under_optimize():
    # python -O strips asserts: the survey's checks and the oracle's gates
    # must hold without them
    _run_survey(("-O",), ("--oracle",))


def test_survey_output_matches_the_record():
    assert _run_survey(args=("--oracle", "--seed", "7")) == RECORD.read_text()
