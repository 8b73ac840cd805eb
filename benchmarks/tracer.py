"""Per-layer tracing of dcra from outside, by wrapping its public entry points.

Coarse calls -- the experiments entry points, env.run, and the bound
pipeline mdp.build_mdp / bound_program / upper_bound / simplex.solve_lp --
are kept whole as spans with their parent.  Per-slot calls
(UniformStream.random, TabularLearner.select/update, LeadTimeQueue.advance)
run millions of times per pass, so they are not kept one by one: each only
bumps a count, a total time and a self time under its name, and every
coarse span stores how much those aggregates grew while it was open.  The
per-slot work of a run() thus sits under that run's span and memory stays
bounded by the number of coarse calls.

A span's self time is its duration minus the time its wrapped children
cover.  Wrappers cost time of their own, which lands in the parent's self
time; the harness reports the traced wall time next to an untraced one so
the overhead is visible.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from dcra import agents, core, env, experiments, mdp, simplex

__all__ = ["Span", "Tracer", "layer_metrics"]

FINE = ("env.UniformStream.random", "agents.select", "agents.update", "core.advance")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    self_s: float = 0.0
    attrs: dict = field(default_factory=dict)
    # per-slot name -> [calls, total_s, self_s, tally] accrued while open
    fine: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "self_s": self.self_s,
                "attrs": self.attrs, "fine": self.fine}


def _lifetime_of_build(params, lifetime, *_, **__) -> dict:
    return {"D": lifetime}


def _lifetime_of_model(model, *_, **__) -> dict:
    return {"D": model.lifetime}


def _run_attrs(config, *_, **__) -> dict:
    return {"devices": len(config.devices), "horizon": config.horizon,
            "lifetime": config.lifetime}


def _run_outcome(result) -> dict:
    m = result.metrics
    idle = int(np.count_nonzero(m.senders == 0))
    ack = int(m.delivered.sum())
    return {"slots_idle": idle, "slots_ack": ack, "slots_nack": m.horizon - idle - ack,
            "transmissions": int(m.senders.sum())}


def _model_outcome(model) -> dict:
    return {"n_states": model.n_states, "transitions_bytes": model.transitions.nbytes}


def _program_outcome(program) -> dict:
    return {"A_bytes": program.constraints.nbytes}


def _solution_outcome(solution) -> dict:
    return {"pivots": solution.iterations}


class Tracer:
    """Installs the wrappers on entry and restores every original on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.fine: dict[str, list] = {name: [0, 0.0, 0.0, 0] for name in FINE}
        self._covered = [0.0]  # time covered by wrapped children, per open frame
        self._open: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _patch(self, owners, attr: str, wrapper) -> None:
        for owner in owners:
            self._restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _install(self) -> None:
        fine = (
            (env.UniformStream, "random", "env.UniformStream.random", False),
            (agents.TabularLearner, "select", "agents.select", False),
            (agents.TabularLearner, "update", "agents.update", False),
            (core.LeadTimeQueue, "advance", "core.advance", True),
        )
        for owner, attr, name, tally in fine:
            self._patch([owner], attr, self._fine(name, owner.__dict__[attr], tally))
        coarse = (
            ((env, experiments), "run", "env.run", _run_attrs, _run_outcome),
            ((mdp, experiments), "build_mdp", "mdp.build_mdp",
             _lifetime_of_build, _model_outcome),
            ((mdp,), "bound_program", "mdp.bound_program", _lifetime_of_model,
             _program_outcome),
            ((mdp, experiments), "upper_bound", "mdp.upper_bound", _lifetime_of_model, None),
            ((mdp, simplex), "solve_lp", "simplex.solve_lp", None, _solution_outcome),
        )
        for owners, attr, name, start, end in coarse:
            original = owners[0].__dict__[attr]
            if any(o.__dict__[attr] is not original for o in owners):
                raise RuntimeError(f"{attr} is bound to different objects; cannot trace it")
            self._patch(owners, attr, self._coarse(name, original, start, end))
        for attr in ("run_sweep", "run_congestion", "simulate_two_device", "sample_params"):
            self._patch([experiments], attr, self._coarse(
                f"experiments.{attr}", experiments.__dict__[attr], None, None))

    def _fine(self, name: str, fn, tally: bool):
        stat = self.fine[name]
        covered = self._covered
        clock = time.perf_counter

        # positional only: env.run calls these positionally, and packing
        # keyword arguments would add to an already large per-call cost
        def wrapper(*args):
            covered.append(0.0)
            t0 = clock()
            try:
                result = fn(*args)
            finally:
                dt = clock() - t0
                inner = covered.pop()
                covered[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
            if tally:
                stat[3] += result
            return result

        return wrapper

    def _coarse(self, name: str, fn, start, end):
        covered = self._covered
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(len(self.spans), name, parent.id if parent else None)
            if parent is not None and "D" in parent.attrs:
                span.attrs["D"] = parent.attrs["D"]
            if start is not None:
                span.attrs.update(start(*args, **kwargs))
            self.spans.append(span)
            self._open.append(span)
            before = {k: list(v) for k, v in self.fine.items()}
            covered.append(0.0)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                inner = covered.pop()
                covered[-1] += span.duration
                span.self_s = span.duration - inner
                self._open.pop()
                for k, v in self.fine.items():
                    grown = [a - b for a, b in zip(v, before[k])]
                    if grown[0]:
                        span.fine[k] = grown
            if end is not None:
                span.attrs.update(end(result))
            return result

        return wrapper


# (name, unit, better): the per-layer metrics, in the order they print
LIFETIMES = (1, 2, 3)
PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("experiments.calls", "count", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("env.run.calls", "count", "lower"),
    ("env.run.self_s", "s", "lower"),
    ("env.UniformStream.random.calls", "count", "lower"),
    ("env.UniformStream.random.self_s", "s", "lower"),
    ("env.device_slots", "count", "higher"),
    ("env.slots_idle", "count", "lower"),
    ("env.slots_ack", "count", "higher"),
    ("env.slots_nack", "count", "lower"),
    ("env.deliveries_per_transmission", "ratio", "higher"),
    ("agents.select.calls", "count", "lower"),
    ("agents.select.self_s", "s", "lower"),
    ("agents.update.calls", "count", "lower"),
    ("agents.update.self_s", "s", "lower"),
    ("core.advance.calls", "count", "lower"),
    ("core.advance.self_s", "s", "lower"),
    ("core.expired_packets", "count", "lower"),
]
for _d in LIFETIMES:
    PER_LAYER += [
        (f"mdp.build_mdp.s.D{_d}", "s", "lower"),
        (f"mdp.bound_program.s.D{_d}", "s", "lower"),
        (f"mdp.upper_bound.self_s.D{_d}", "s", "lower"),
        (f"mdp.n_states.D{_d}", "count", "lower"),
        (f"mdp.transitions_bytes.D{_d}", "bytes", "lower"),
        (f"simplex.A_bytes.D{_d}", "bytes", "lower"),
        (f"simplex.solve_lp.s.D{_d}", "s", "lower"),
        (f"simplex.pivots.D{_d}", "count", "lower"),
    ]
del _d


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer numbers of one traced pass, split into exact counts and times.

    Counts (calls, slots, states, bytes, pivots) must repeat exactly across
    passes on the same inputs; times are medians per call where a metric
    is per lifetime and sums otherwise.  A layer the workload never reaches
    reads 0.
    """
    spans = tracer.spans
    fine = tracer.fine
    counts: dict[str, float] = {}
    times: dict[str, float] = {}

    exp = [s for s in spans if s.name.startswith("experiments.")]
    counts["experiments.calls"] = len(exp)
    times["experiments.self_s"] = sum(s.self_s for s in exp)

    runs = [s for s in spans if s.name == "env.run"]
    counts["env.run.calls"] = len(runs)
    times["env.run.self_s"] = sum(s.self_s for s in runs)
    counts["env.device_slots"] = sum(s.attrs["devices"] * s.attrs["horizon"] for s in runs)
    for key in ("slots_idle", "slots_ack", "slots_nack"):
        counts[f"env.{key}"] = sum(s.attrs[key] for s in runs)
    sent = sum(s.attrs["transmissions"] for s in runs)
    counts["env.deliveries_per_transmission"] = counts["env.slots_ack"] / sent if sent else 0.0

    for name in FINE:
        calls, _, self_s, _ = fine[name]
        counts[f"{name}.calls"] = calls
        times[f"{name}.self_s"] = self_s
    counts["core.expired_packets"] = fine["core.advance"][3]

    def at(name: str, d: int) -> list[Span]:
        return [s for s in spans if s.name == name and s.attrs.get("D") == d]

    for d in LIFETIMES:
        builds = at("mdp.build_mdp", d)
        programs = at("mdp.bound_program", d)
        solves = at("simplex.solve_lp", d)
        times[f"mdp.build_mdp.s.D{d}"] = _median([s.duration for s in builds])
        times[f"mdp.bound_program.s.D{d}"] = _median([s.duration for s in programs])
        times[f"mdp.upper_bound.self_s.D{d}"] = _median(
            [s.self_s for s in at("mdp.upper_bound", d)])
        times[f"simplex.solve_lp.s.D{d}"] = _median([s.duration for s in solves])
        counts[f"mdp.n_states.D{d}"] = max((s.attrs["n_states"] for s in builds), default=0)
        counts[f"mdp.transitions_bytes.D{d}"] = max(
            (s.attrs["transitions_bytes"] for s in builds), default=0)
        counts[f"simplex.A_bytes.D{d}"] = max((s.attrs["A_bytes"] for s in programs), default=0)
        counts[f"simplex.pivots.D{d}"] = sum(s.attrs["pivots"] for s in solves)

    times["trace.self_sum_s"] = (sum(s.self_s for s in spans)
                                 + sum(v[2] for v in fine.values()))
    return counts, times
