"""The benchmark harness under benchmarks/ still runs against these sources.

The harness reaches into the package by name (AgentSpec.blind/learner,
TabularLearner.select/update, UniformStream.random, LeadTimeQueue.advance,
mdp.solve_lp, ...), so a rename in src/ shows up here, not only when the
benchmark itself is run.  Both checks run in a child interpreter because the
harness pins the BLAS thread count in its process environment.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)


def test_selftest_passes():
    proc = run_python("benchmarks/selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout


def test_calibrate_builds_its_scenarios():
    # import the script and build its scenarios, without timing them
    proc = run_python("-c", (
        "import sys; sys.path.insert(0, 'benchmarks'); import calibrate\n"
        "from dcra.core import DeviceParams\n"
        "from dcra.env import AgentSpec\n"
        "params = DeviceParams(0.4, 0.6)\n"
        "calibrate.two_device(AgentSpec.blind(0.4), params)\n"
        "calibrate.two_device(AgentSpec.learner('r-tiny'), params)\n"
        "calibrate.congestion()\n"
    ))
    assert proc.returncode == 0, proc.stdout + proc.stderr
