"""Smoke test: every script under ``demos/`` runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import skillbench

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    # the child imports the package under test, installed or not
    src = str(Path(skillbench.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
