"""Experiment orchestration: parameter sweeps, convergence series, exports.

Each experiment samples its scenarios from a master seed and builds every
ScenarioConfig first, in the parent process and in a fixed draw order.  The
runs themselves share no state and each seeds itself from its config, so
they go to one worker process per CPU in the affinity mask (in-process when
there is one CPU or one run) and come back in input order; the written
bytes do not depend on the CPU count.  Exact bounds are computed in the
parent as their scenarios are built, so a bound that fails, or that mdp
refuses as too large, fails before any slot runs.  CSV rows have parameter
columns that always appear in the fixed order

    peer_arrival, agent_arrival, peer_success, agent_success,
    peer_transmit, lifetime, peer_count, agent_count

so downstream tooling can concatenate outputs from different experiments.
Floats are serialized with repr, which round-trips exactly; re-running any
spec with the same seed yields byte-identical files.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, fields
from functools import partial
from typing import TypeVar

import numpy as np

from .agents import RewardSpec
from .core import DeviceParams, write_csv
from .env import AgentSpec, DeviceSetup, ScenarioConfig, check_window, run
from .mdp import TwoDeviceParams, build_mdp, upper_bound

T = TypeVar("T")

__all__ = [
    "ParamRanges",
    "SweepResult",
    "default_output_dir",
    "run_congestion",
    "run_convergence",
    "run_sweep",
    "sample_params",
    "simulate_two_device",
    "two_device_config",
]

PARAM_COLUMNS = [
    *(f.name for f in fields(TwoDeviceParams)), "lifetime", "peer_count", "agent_count",
]

OUTPUT_DIR_ENV = "DCRA_OUTPUT_DIR"

# the congestion study's legacy peers: saturated, decoded half the time alone
PEER_ARRIVAL = 1.0
PEER_SUCCESS = 0.5


def default_output_dir() -> str:
    return os.environ.get(OUTPUT_DIR_ENV, ".")


@dataclass(frozen=True)
class ParamRanges:
    """Uniform sampling ranges for scenario probabilities."""

    arrival: tuple[float, float] = (0.1, 1.0)
    success: tuple[float, float] = (0.1, 1.0)
    transmit: tuple[float, float] = (0.05, 0.95)

    def __post_init__(self) -> None:
        for name in ("arrival", "success", "transmit"):
            lo, hi = getattr(self, name)
            if not (0.0 <= lo <= hi <= 1.0):
                raise ValueError(f"{name} range ({lo}, {hi}) invalid")

    def _draw(self, rng: np.random.Generator, which: str) -> float:
        lo, hi = getattr(self, which)
        return float(lo + (hi - lo) * rng.random())


def sample_params(ranges: ParamRanges, rng: np.random.Generator) -> TwoDeviceParams:
    """Draw one two-device tuple; draw order is the canonical column order."""
    return TwoDeviceParams(
        peer_arrival=ranges._draw(rng, "arrival"),
        agent_arrival=ranges._draw(rng, "arrival"),
        peer_success=ranges._draw(rng, "success"),
        agent_success=ranges._draw(rng, "success"),
        peer_transmit=ranges._draw(rng, "transmit"),
    )


@dataclass
class SweepResult:
    header: list[str]
    rows: list[list]
    aggregate: list | None = None

    def column(self, name: str) -> list:
        i = self.header.index(name)
        return [row[i] for row in self.rows]


def _mean_row(label: str, rows: list[list]) -> list:
    out = [label]
    for j in range(1, len(rows[0])):
        vals = [row[j] for row in rows]
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in vals):
            out.append(float(np.mean(vals)))
        else:
            out.append("")
    return out


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _RunFailed(RuntimeError):
    """A run of `_run_all` raised; `index` is its position in the input."""

    def __init__(self, index: int, config: ScenarioConfig, exc: Exception) -> None:
        super().__init__(f"run at seed {config.seed} failed: {exc}")
        self.index = index


def _window_stats(cfg: ScenarioConfig, window: int | None) -> tuple[float, float]:
    """(throughput, power) of one run over its last `window` slots."""
    metrics = run(cfg).metrics
    return metrics.timely_throughput(window), metrics.power(window)


def _throughput_series(cfg: ScenarioConfig, window: int) -> list[float]:
    return run(cfg).metrics.throughput_series(window).tolist()


def _run_all(task: Callable[[ScenarioConfig], T], configs: list[ScenarioConfig]) -> list[T]:
    """task(config) for every config, in input order, on one process per CPU.

    Each run seeds itself from its config, so where a task executes changes
    nothing in its result.  `task` must pickle (a module-level function or a
    partial of one) and reduce the run to what the caller keeps: a run's
    per-slot Metrics are 3 bytes a slot, too much to hold for every run of a
    sweep.  The first failing task, in input order, raises `_RunFailed`
    chained to its exception.
    """
    workers = min(len(configs), _cpu_count())
    if workers <= 1:
        return _collect(configs, map(task, configs))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers) as pool:
        return _collect(configs, pool.map(task, configs))


def _collect(configs: list[ScenarioConfig], results: Iterable[T]) -> list[T]:
    out: list[T] = []
    try:
        for result in results:
            out.append(result)
    except Exception as exc:
        raise _RunFailed(len(out), configs[len(out)], exc) from exc
    return out


def _scenario(
    peer: DeviceSetup,
    peer_count: int,
    newcomers: list[DeviceParams],
    spec: AgentSpec,
    lifetime: int,
    slots: int,
    seed,
) -> ScenarioConfig:
    """`peer_count` copies of `peer`, then one device under `spec` per newcomer."""
    devices = (peer,) * peer_count + tuple(DeviceSetup(p, spec) for p in newcomers)
    return ScenarioConfig(lifetime=lifetime, horizon=slots, seed=seed, devices=devices)


def two_device_config(
    params: TwoDeviceParams,
    lifetime: int,
    agent: str,
    slots: int,
    seed,
    agent_transmit: float | None = None,
    reward: RewardSpec = RewardSpec(),
) -> ScenarioConfig:
    """A blind peer (device 0) and the tracked device (device 1) under `agent`.

    `agent_transmit` applies only to a blind agent and `reward` only to a
    learner; AgentSpec rejects either on the other kind.
    """
    peer = DeviceSetup(DeviceParams(params.peer_arrival, params.peer_success),
                       AgentSpec.blind(params.peer_transmit))
    tracked = DeviceParams(params.agent_arrival, params.agent_success)
    return _scenario(peer, 1, [tracked], AgentSpec(agent, agent_transmit, reward),
                     lifetime, slots, seed)


def simulate_two_device(
    params: TwoDeviceParams,
    lifetime: int,
    agent: str,
    slots: int,
    seed,
    window: int | None = None,
    agent_transmit: float | None = None,
    reward: RewardSpec = RewardSpec(),
) -> tuple[float, float]:
    """Run one two-device scenario; report (throughput, power) over the last
    `window` slots (whole run when None)."""
    cfg = two_device_config(
        params, lifetime, agent, slots, seed, agent_transmit, reward
    )
    return _window_stats(cfg, window)


def _group_failed(seed: int, lifetime: int, g: int, exc: BaseException) -> RuntimeError:
    return RuntimeError(
        f"group {g} at lifetime {lifetime} (seed ({seed}, {lifetime}, {g})) failed: {exc}"
    )


def _reject_repeats(name: str, values: Sequence) -> None:
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ValueError(f"{name} repeats {', '.join(map(str, repeated))}")


def run_sweep(
    groups: int,
    lifetimes: tuple[int, ...],
    agents: tuple[str, ...],
    seed: int,
    slots: int = 200_000,
    window: int = 50_000,
    ranges: ParamRanges = ParamRanges(),
    with_bound: bool = False,
    out_path: str | None = None,
) -> SweepResult:
    """Random-group comparison of agents (and optionally the exact bound).

    One parameter tuple per (lifetime, group); every agent sees the same
    scenario seed within a group so their arrival and channel randomness
    coincide.  Metrics are taken over the final `window` slots, leaving the
    earlier slots as learning burn-in.  Blind agents draw their fixed
    transmit probability as an extra sample after the canonical five-draw
    tuple.
    """
    if groups < 1:
        raise ValueError("need at least one group")
    if not lifetimes:
        raise ValueError("lifetimes must name at least one lifetime")
    if not agents:
        raise ValueError("agents must name at least one agent kind")
    _reject_repeats("lifetimes", lifetimes)
    _reject_repeats("agents", agents)
    check_window(window, slots)
    header = ["group"] + PARAM_COLUMNS
    for agent in agents:
        header += [f"throughput_{agent}", f"power_{agent}"]
    if with_bound:
        header.append("bound")
    drawn = []  # (lifetime, group, params) in row order
    configs = []  # len(agents) per group, in row and agent order
    for lifetime in lifetimes:
        for g in range(groups):
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, lifetime, g))
            )
            params = sample_params(ranges, rng)
            aloha_prob = ranges._draw(rng, "transmit")
            try:
                for agent in agents:
                    configs.append(two_device_config(
                        params,
                        lifetime,
                        agent,
                        slots,
                        seed=(seed, lifetime, g),
                        agent_transmit=aloha_prob if agent == "blind" else None,
                    ))
                bound = [upper_bound(build_mdp(params, lifetime)).value] if with_bound else []
            except Exception as exc:
                raise _group_failed(seed, lifetime, g, exc) from exc
            drawn.append((lifetime, g, params, bound))
    try:
        stats = _run_all(partial(_window_stats, window=window), configs)
    except _RunFailed as err:
        lifetime, g, *_ = drawn[err.index // len(agents)]
        raise _group_failed(seed, lifetime, g, err.__cause__) from err.__cause__
    rows = []
    for k, (lifetime, g, params, bound) in enumerate(drawn):
        row: list = [g] + list(params.as_tuple()) + [lifetime, 1, 1]
        for thr, power in stats[k * len(agents):(k + 1) * len(agents)]:
            row += [thr, power]
        rows.append(row + bound)
    aggregate = _mean_row("mean", rows)
    if out_path:
        write_csv(out_path, header, rows + [aggregate])
    return SweepResult(header, rows, aggregate)


def run_convergence(
    params: TwoDeviceParams,
    lifetimes: tuple[int, ...],
    agent: str,
    seed: int,
    slots: int = 200_000,
    window: int = 2_000,
    out_path: str | None = None,
) -> SweepResult:
    """Windowed-throughput time series per lifetime for one agent kind."""
    check_window(window, slots)
    if not lifetimes:
        raise ValueError("lifetimes must name at least one lifetime")
    _reject_repeats("lifetimes", lifetimes)
    header = PARAM_COLUMNS + ["agent", "slot", "throughput"]
    configs = [
        two_device_config(params, lifetime, agent, slots, seed=(seed, lifetime))
        for lifetime in lifetimes
    ]
    rows = []
    all_series = _run_all(partial(_throughput_series, window=window), configs)
    for lifetime, series in zip(lifetimes, all_series):
        base = list(params.as_tuple()) + [lifetime, 1, 1]
        for k, value in enumerate(series):
            rows.append(base + [agent, (k + 1) * window, value])
    if out_path:
        write_csv(out_path, header, rows)
    return SweepResult(header, rows)


def run_congestion(
    peer_count: int,
    agent_counts: tuple[int, ...],
    seed: int,
    lifetime: int = 10,
    agent: str = "r-tiny",
    slots: int = 200_000,
    window: int = 50_000,
    ranges: ParamRanges = ParamRanges(),
    out_path: str | None = None,
) -> SweepResult:
    """Saturated-peer study: does adding learners help a congested channel?

    The peers model legacy traffic: every slot brings a fresh packet
    (arrival probability one), transmission probability 1/(4*peer_count),
    success probability one half.  Each newcomer draws its arrival and its
    success probability from `ranges.arrival` and `ranges.success`, the
    only ranges this study draws from.  Each agent count is run twice on the
    same scenario seed, once with learning devices and once with blind
    devices at probability 1/count.  The first row is always agent count zero, the
    no-newcomer baseline, where both arms degenerate to the same peers-only
    run; a 0 in `agent_counts` names that row and adds none.
    """
    if peer_count < 1:
        raise ValueError("need at least one congesting peer")
    if min(agent_counts, default=0) < 0:
        raise ValueError(f"agent_counts must not be negative, got {min(agent_counts)}")
    _reject_repeats("agent_counts", agent_counts)
    check_window(window, slots)
    peer_transmit = 1.0 / (4.0 * peer_count)
    header = PARAM_COLUMNS + [
        "agent_arrivals",
        "agent_successes",
        f"throughput_{agent}",
        f"power_{agent}",
        "throughput_blind",
        "power_blind",
    ]
    counts = (0,) + tuple(c for c in agent_counts if c)
    peer = DeviceSetup(DeviceParams(PEER_ARRIVAL, PEER_SUCCESS), AgentSpec.blind(peer_transmit))
    learner = AgentSpec(agent, reward=RewardSpec.multi_level())
    configs = []  # one run for count 0, then learners and blind control
    drawn = []  # per count: the newcomers' parameters
    for count in counts:
        rng = np.random.default_rng(np.random.SeedSequence((seed, count)))
        newcomers = [
            DeviceParams(ranges._draw(rng, "arrival"), ranges._draw(rng, "success"))
            for _ in range(count)
        ]
        drawn.append(newcomers)
        # both arms share the parameter draws and the scenario seed
        arms = (learner, AgentSpec.blind(1.0 / count)) if count else (learner,)
        for spec in arms:
            configs.append(_scenario(
                peer, peer_count, newcomers, spec, lifetime, slots, (seed, count)
            ))
    stats = iter(_run_all(partial(_window_stats, window=window), configs))
    rows = []
    for count, newcomers in zip(counts, drawn):
        base = [PEER_ARRIVAL, "", PEER_SUCCESS, "", peer_transmit, lifetime, peer_count, count]
        learners = next(stats)
        control = next(stats) if count else learners
        rows.append(base + [
            ";".join(repr(d.arrival_rate) for d in newcomers),
            ";".join(repr(d.success_prob) for d in newcomers),
            *learners,
            *control,
        ])
    if out_path:
        write_csv(out_path, header, rows)
    return SweepResult(header, rows)
