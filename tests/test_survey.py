import os
import pathlib
import subprocess
import sys

import mfinv

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_survey_runs_without_oracle():
    src = str(pathlib.Path(mfinv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "survey.py")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "all rows consistent"
