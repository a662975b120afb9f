"""Every demo script runs to completion against the current package."""
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, str(demo)], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
