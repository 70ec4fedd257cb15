import os
import pathlib
import subprocess
import sys

import mfinv

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run_survey(python_flags=(), args=()):
    src = str(pathlib.Path(mfinv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, *python_flags, str(ROOT / "scripts" / "survey.py"), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "all rows consistent"


def test_survey_runs_without_oracle():
    _run_survey()


def test_survey_oracle_routes_under_optimize():
    # python -O strips asserts: the survey's checks and the oracle's gates
    # must hold without them
    _run_survey(("-O",), ("--oracle",))
