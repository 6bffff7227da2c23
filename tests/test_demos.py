"""Smoke test of the demos: each script runs to completion in a fresh
interpreter, writes nothing to stderr and leaves no temporary file behind."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout
    assert list(tmp_path.iterdir()) == []
