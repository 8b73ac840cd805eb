"""The demos run as written: each exits 0 and prints its table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dcra

pytestmark = pytest.mark.acceptance

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert [p.name for p in DEMOS] == ["congestion.py", "learning_curves.py",
                                       "multi_device_power.py", "two_device_bound.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    src = str(Path(dcra.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          timeout=600, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
