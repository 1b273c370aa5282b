"""Every narrative demo runs to the end against the sources in ``src``."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_the_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout
