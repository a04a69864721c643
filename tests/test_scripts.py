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


@pytest.mark.parametrize(
    "argv, message",
    [
        (['{"0": 1}', "--grid", "0.3,0.2,0.1"], "error: sweep needs a grid of at least 4 points"),
        (["--grid", "a,b"], "bad grid 'a,b'"),
        (["--grid", ""], "bad grid ''"),
    ],
    ids=["short-grid", "unparsable-grid", "empty-grid"],
)
def test_gadget_sweep_reports_a_bad_grid_without_a_traceback(argv, message):
    """A grid sweep rejects is a library error and a grid that is not numbers
    a usage error; both exit 2 with one line on stderr and nothing on stdout."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "gadget_sweep.py"), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert message in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""
