"""Every demo script runs to completion against the current package, and
every public name the package exports resolves."""
import os
import pathlib
import subprocess
import sys

import pytest

import qinitopt

REPO = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, str(demo)], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_every_public_name_resolves():
    missing = [name for name in qinitopt.__all__
               if not hasattr(qinitopt, name)]
    assert not missing
    assert len(set(qinitopt.__all__)) == len(qinitopt.__all__)
