"""Smoke test: every script in scripts/ runs to completion with its defaults."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_exits_cleanly(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout


@pytest.mark.parametrize(
    "state, ok",
    [('{"0": 1.5}', False), ('{"0": true}', False), ("[1]", False), ('{"0": 1, "1": -1}', True)],
)
def test_gadget_sweep_checks_its_state(state, ok):
    """A state IntegerState rejects is a usage error, not a sweep of |0>."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "gadget_sweep.py"), state],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode == 0) == ok, done.stderr
    assert "Traceback" not in done.stderr
