"""Time the re-anchor baseline scenarios of ROADMAP.md with the harness's settings.

    python3 benchmarks/calibrate.py

Each scenario runs untraced, with BLAS pinned as in run.py, three times;
the median is printed next to the ROADMAP figure.  The scenarios use the
`dcra simulate` / `dcra upper-bound` default point (peer arrival 0.5,
agent arrival 0.4, success 0.7 / 0.6, peer transmit 0.4).  The blind
agent transmits with probability 0.4 like the peer; the congestion
learners take the middle of the default arrival and success ranges.
"""

from __future__ import annotations

import statistics
import sys
import time

import run

run.pin_threads()
sys.path.insert(0, str(run.SRC))

from dcra.agents import RewardSpec  # noqa: E402
from dcra.core import DeviceParams  # noqa: E402
from dcra.env import AgentSpec, DeviceSetup, ScenarioConfig, run as simulate  # noqa: E402
from dcra.mdp import build_mdp, upper_bound  # noqa: E402

import workloads  # noqa: E402

REPEATS = 3
SLOTS = 200_000
P = workloads.DEFAULT_POINT


def two_device(agent: AgentSpec, agent_params: DeviceParams) -> ScenarioConfig:
    peer = DeviceSetup(DeviceParams(P.peer_arrival, P.peer_success,
                                    transmit_prob=P.peer_transmit), AgentSpec.blind())
    return ScenarioConfig(lifetime=2, horizon=SLOTS, seed=0,
                          devices=(peer, DeviceSetup(agent_params, agent)))


def congestion() -> ScenarioConfig:
    peer = DeviceSetup(DeviceParams(1.0, 0.5, transmit_prob=0.25), AgentSpec.blind())
    learner = DeviceSetup(DeviceParams(0.55, 0.55),
                          AgentSpec.learner("r-tiny", RewardSpec.multi_level()))
    return ScenarioConfig(lifetime=10, horizon=SLOTS, seed=0, devices=(peer,) + (learner,) * 10)


def median_seconds(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    agent_params = DeviceParams(P.agent_arrival, P.agent_success)
    sims = [
        ("blind vs blind, D=2", "slots/s", 446e3,
         two_device(AgentSpec.blind(P.peer_transmit), agent_params), 1),
        ("r-tiny vs blind, D=2", "slots/s", 270e3,
         two_device(AgentSpec.learner("r-tiny"), agent_params), 1),
        ("11 devices, D=10", "device-slots/s", 467e3, congestion(), 11),
    ]
    print(f"{'scenario':<24} {'unit':<15} {'ROADMAP':>10} {'harness':>10} {'ratio':>6}")
    for label, unit, baseline, cfg, devices in sims:
        rate = SLOTS * devices / median_seconds(lambda: simulate(cfg))
        print(f"{label:<24} {unit:<15} {baseline:>10.4g} {rate:>10.4g} {rate / baseline:>6.2f}")
    for d, baseline in ((2, 0.27), (3, 2.2)):
        seconds = median_seconds(lambda: upper_bound(build_mdp(P, d)))
        print(f"{f'LP bound, D={d}':<24} {'s':<15} {baseline:>10.4g} {seconds:>10.4g} "
              f"{seconds / baseline:>6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
