"""The benchmark's three workloads: sweep, bound and congestion.

Each workload builds its inputs from a seed (`prepare`), then runs one pass
through dcra's public entry points and checks what it produced
(`run_pass`).  The program only ever sees the generated inputs; the
seed-to-input mapping lives here.  `ops_per_pass` is the number of program
operations (run() or upper_bound() calls) one pass attempts.

Why these three:

- sweep: the shape of `dcra sweep` at its defaults (three arms, lifetimes
  1..3, two devices per slot) at a tenth of its length, so a pass can be
  repeated.  Its cost is the two-device slot loop: the blind arm spends it
  in env and the RNG, the learner arms add agents, r-full adds the
  full-state encoder.  The LP is never touched.
- bound: the exact two-device LP bound at lifetimes 1..3, at the CLI
  default point and at points drawn from the seed.  Its cost is all mdp
  and simplex; no slot is simulated.  D=4 (minutes) is out of the budget.
- congestion: one saturated peer and ten r-tiny learners on the
  multi-level reward at D=10, plus the blind control arm.  The same
  layers as sweep, but eleven devices per slot, ten-bucket queues and a
  channel dominated by collisions, so a change that helps two-device runs
  and hurts many-device runs shows here.
"""

from __future__ import annotations

import csv
import hashlib
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from dcra import experiments, mdp

__all__ = ["Bound", "Check", "Congestion", "DEFAULT_SEED", "Pass", "Sweep", "WORKLOADS"]

# the seed whose simulated outputs are pinned byte for byte below
DEFAULT_SEED = 0

# sha256 of the CSV files written at DEFAULT_SEED with the default sizes
SWEEP_SHA256 = "5c6dda4e179a0b6a8b1629d048ee57769af3c887439e5c2e7b8b2779fa0566db"
CONGESTION_SHA256 = "6b8e2944786467b7acffe95aea3117b5f49135e6483dfbeb2382df90e382441a"

# `dcra upper-bound` defaults, and its bound at D=1..3 as printed to six
# decimals; LP values are compared at that precision only, because their
# last bits depend on the BLAS build
DEFAULT_POINT = mdp.TwoDeviceParams(0.5, 0.4, 0.7, 0.6, 0.4)
DEFAULT_POINT_BOUNDS = {1: 0.276, 2: 0.326537, 3: 0.340142}


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Pass:
    """What one pass produced.

    device_slots is the simulated slots times devices, fingerprint
    is compared across passes of one run and must repeat exactly, and
    bound_s holds the seconds of each bound by lifetime.
    """

    device_slots: int
    fingerprint: object
    checks: list[Check]
    bound_s: dict[int, list[float]]


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def _throughput_le_power(rows: list[dict[str, str]], arms: list[str],
                         devices: list[int]) -> Check:
    """0 <= throughput <= power <= devices: every delivery is a transmission."""
    bad = []
    for row, n_dev in zip(rows, devices):
        for arm in arms:
            thr = float(row[f"throughput_{arm}"])
            power = float(row[f"power_{arm}"])
            if not 0.0 <= thr <= power <= n_dev:
                bad.append(f"{arm}: throughput {thr!r}, power {power!r}")
    return Check("throughput_le_power", not bad,
                 "; ".join(bad) or f"{len(rows)} rows x {len(arms)} arms")


def _digest_check(seed: int, digest: str, pinned: str | None) -> list[Check]:
    if seed != DEFAULT_SEED or pinned is None:
        return []
    return [Check("csv_sha256", digest == pinned, f"{digest} vs pinned {pinned}")]


@dataclass(frozen=True)
class Sweep:
    name: ClassVar[str] = "sweep"

    groups: int = 2
    lifetimes: tuple[int, ...] = (1, 2, 3)
    agents: tuple[str, ...] = ("r-tiny", "r-full", "blind")
    slots: int = 100_000
    window: int = 25_000
    pinned_sha256: str | None = SWEEP_SHA256

    def prepare(self, seed: int) -> dict:
        return dict(groups=self.groups, lifetimes=self.lifetimes, agents=self.agents,
                    seed=seed, slots=self.slots, window=self.window)

    def ops_per_pass(self) -> int:
        return self.groups * len(self.lifetimes) * len(self.agents)

    def run_pass(self, inputs: dict, out_path: str) -> Pass:
        experiments.run_sweep(**inputs, out_path=out_path)
        digest = _sha256(out_path)
        rows = _read_rows(out_path)
        checks = [
            Check("rows", len(rows) == self.groups * len(self.lifetimes) + 1,
                  f"{len(rows)} rows including the mean row"),
            _throughput_le_power(rows, list(self.agents), [2] * len(rows)),
        ]
        checks += _digest_check(inputs["seed"], digest, self.pinned_sha256)
        return Pass(self.ops_per_pass() * self.slots * 2, digest, checks, {})


@dataclass(frozen=True)
class Congestion:
    name: ClassVar[str] = "congestion"

    peer_count: int = 1
    agent_counts: tuple[int, ...] = (10,)
    lifetime: int = 10
    agent: str = "r-tiny"
    slots: int = 200_000
    window: int = 50_000
    pinned_sha256: str | None = CONGESTION_SHA256

    def prepare(self, seed: int) -> dict:
        return dict(peer_count=self.peer_count, agent_counts=self.agent_counts,
                    seed=seed, lifetime=self.lifetime, agent=self.agent,
                    slots=self.slots, window=self.window)

    def ops_per_pass(self) -> int:
        # count 0 runs the peers alone once; every other count runs twice,
        # learners and then the blind control on the same scenario seed
        return 1 + 2 * len(self.agent_counts)

    def run_pass(self, inputs: dict, out_path: str) -> Pass:
        experiments.run_congestion(**inputs, out_path=out_path)
        counts = (0,) + self.agent_counts
        device_slots = self.slots * sum(
            (self.peer_count + c) * (2 if c else 1) for c in counts)
        digest = _sha256(out_path)
        rows = _read_rows(out_path)
        checks = [
            Check("rows", len(rows) == len(counts), f"{len(rows)} rows"),
            _throughput_le_power(rows, [self.agent, "blind"],
                                 [self.peer_count + c for c in counts]),
        ]
        checks += _digest_check(inputs["seed"], digest, self.pinned_sha256)
        return Pass(device_slots, digest, checks, {})


@dataclass(frozen=True)
class Bound:
    name: ClassVar[str] = "bound"

    lifetimes: tuple[int, ...] = (1, 2, 3)
    sampled_points: int = 2

    def prepare(self, seed: int) -> list[mdp.TwoDeviceParams]:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        ranges = experiments.ParamRanges()
        return [DEFAULT_POINT] + [experiments.sample_params(ranges, rng)
                                  for _ in range(self.sampled_points)]

    def ops_per_pass(self) -> int:
        return (1 + self.sampled_points) * len(self.lifetimes)

    def run_pass(self, inputs: list[mdp.TwoDeviceParams], out_path: str) -> Pass:
        values: dict[tuple[int, int], float] = {}
        pivots: dict[tuple[int, int], int] = {}
        bound_s: dict[int, list[float]] = {d: [] for d in self.lifetimes}
        for k, params in enumerate(inputs):
            for d in self.lifetimes:
                t0 = time.perf_counter()
                result = mdp.upper_bound(mdp.build_mdp(params, d))
                bound_s[d].append(time.perf_counter() - t0)
                values[k, d] = result.value
                pivots[k, d] = result.iterations
        # prepare() puts the default point first and every run covers D=1
        checks = [self._check_range(values), self._check_lifetime1(inputs, values),
                  self._check_default_point(values)]
        fingerprint = sorted((k, d, pivots[k, d], repr(v)) for (k, d), v in values.items())
        return Pass(0, fingerprint, checks, bound_s)

    @staticmethod
    def _check_range(values) -> Check:
        bad = [f"point {k} D={d}: {v!r}" for (k, d), v in values.items()
               if not 0.0 <= v <= 1.0]
        return Check("bound_in_unit_interval", not bad, "; ".join(bad) or "all in [0, 1]")

    @staticmethod
    def _check_lifetime1(inputs, values) -> Check:
        bad = []
        for k, params in enumerate(inputs):
            exact = mdp.informed_optimum_lifetime1(params)
            if abs(values[k, 1] - exact) > 1e-9:
                bad.append(f"point {k}: LP {values[k, 1]!r} vs closed form {exact!r}")
        return Check("lifetime1_closed_form", not bad,
                     "; ".join(bad) or f"{len(inputs)} points within 1e-9")

    def _check_default_point(self, values) -> Check:
        bad = [f"D={d}: {values[0, d]:.6f} vs {DEFAULT_POINT_BOUNDS[d]}"
               for d in self.lifetimes if d in DEFAULT_POINT_BOUNDS
               and round(values[0, d], 6) != DEFAULT_POINT_BOUNDS[d]]
        return Check("default_point_values", not bad, "; ".join(bad) or "match to 6 decimals")


WORKLOADS = {w.name: w for w in (Sweep(), Bound(), Congestion())}
