"""Slotted collision channel shared by blind and learning devices.

One packet at most is delivered per slot: a transmission is decoded only when
its sender was alone on the air, and even then only with that device's success
probability.  The access point answers every slot with nothing, an ACK naming
the decoded device, or a NACK, from which each device reconstructs its own
channel observation for the next slot.

Within a slot the order is fixed: devices act on their current queue and the
previous observation, the channel resolves, then every queue closes out the
slot (delivery, expiry, shift, new arrivals).  A packet arriving in slot t is
therefore transmittable from slot t on and is dropped at the end of slot
t+D-1.

Randomness discipline: the scenario seed feeds one SeedSequence that is split
into named substreams in a fixed, documented order -- one arrival stream per
device, one channel stream, then one policy stream per device.  Every stream
is private to its purpose, so runs are reproducible bit for bit and adding
consumers of one stream never perturbs the others.  The channel stream
consumes exactly one uniform per slot whether or not anyone transmitted.

The channel and arrival streams are drawn BLOCK slots at a time (one
uniform per slot each), which yields the same sequence as drawing them slot
by slot.  Policy streams take 0, 1 or 2 uniforms per slot,
so they stay buffered in a UniformStream whose buffer the slot loop reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dcra.agents import (
    DISCOUNT,
    EPSILON_DECAY,
    EPSILON_FLOOR,
    GAIN_STEP_SIZE,
    LEARNER_KINDS,
    STEP_SIZE,
    RewardSpec,
    StateKind,
    TabularLearner,
    reward_value,
    state_space_size,
)
from dcra.core import Action, ApFeedback, ChannelObservation, DeviceParams

__all__ = [
    "AgentSpec",
    "DeviceSetup",
    "Metrics",
    "RunResult",
    "ScenarioConfig",
    "SlotRecord",
    "UniformStream",
    "run",
    "write_trace_csv",
]

# slots per block of channel and arrival draws
BLOCK = 4096


class UniformStream:
    """Block-buffered scalar uniforms over one PCG64 generator.

    Consuming through .random() yields the same sequence as the underlying
    generator would produce; buffering only amortises the per-call overhead
    in the slot loop.
    """

    __slots__ = ("_gen", "_buf", "_pos", "_block")

    def __init__(self, seed, block: int = 8192) -> None:
        self._gen = np.random.default_rng(seed)
        self._block = block
        self._buf: list[float] = []
        self._pos = 0

    def random(self) -> float:
        pos = self._pos
        if pos >= len(self._buf):
            self._refill()
            pos = 0
        self._pos = pos + 1
        return self._buf[pos]

    def _refill(self) -> list[float]:
        """Replace the exhausted buffer with the next block; returns it."""
        self._buf = self._gen.random(self._block).tolist()
        self._pos = 0
        return self._buf


@dataclass(frozen=True)
class AgentSpec:
    """Declarative description of one device's transmission policy.

    kind "blind" retransmits the head-of-line packet with a fixed probability
    (taken from transmit_prob, else from the device params).  The learner
    kinds of agents.LEARNER_KINDS combine an algorithm with a queue
    abstraction: q-full, r-full, r-hol, r-tiny and the remaining crossings;
    `reward` scores a learner's slots.
    """

    kind: str = "blind"
    transmit_prob: float | None = None
    reward: RewardSpec = RewardSpec()

    def __post_init__(self) -> None:
        if self.kind != "blind" and self.kind not in LEARNER_KINDS:
            raise ValueError(f"unknown agent kind {self.kind!r}")
        if self.transmit_prob is not None:
            if self.kind != "blind":
                raise ValueError("transmit_prob only applies to blind agents")
            if not 0.0 <= self.transmit_prob <= 1.0:
                raise ValueError(f"transmit_prob {self.transmit_prob} outside [0, 1]")

    @property
    def is_learner(self) -> bool:
        return self.kind != "blind"

    @classmethod
    def blind(cls, transmit_prob: float | None = None) -> "AgentSpec":
        return cls("blind", transmit_prob)

    @classmethod
    def learner(cls, kind: str, reward: RewardSpec | None = None) -> "AgentSpec":
        return cls(kind, None, reward if reward is not None else RewardSpec())


@dataclass(frozen=True)
class DeviceSetup:
    params: DeviceParams
    agent: AgentSpec = AgentSpec()

    def blind_transmit_prob(self) -> float:
        if self.agent.transmit_prob is not None:
            return self.agent.transmit_prob
        if self.params.transmit_prob is not None:
            return self.params.transmit_prob
        raise ValueError("blind device needs a transmit probability")


# largest sender count of one slot that Metrics.senders (int16) holds
MAX_DEVICES = int(np.iinfo(np.int16).max)
# most states a learner's Q-table may have: 2^21 action values, 16 MB of list
MAX_LEARNER_STATES = 1 << 20


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that determines a run: devices, deadline, horizon, seed."""

    lifetime: int
    horizon: int
    seed: int | tuple[int, ...]
    devices: tuple[DeviceSetup, ...]

    def __post_init__(self) -> None:
        if self.lifetime < 1:
            raise ValueError(f"packet lifetime must be >= 1, got {self.lifetime}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not self.devices:
            raise ValueError("scenario needs at least one device")
        if len(self.devices) > MAX_DEVICES:
            raise ValueError(f"{len(self.devices)} devices exceed the {MAX_DEVICES} "
                             "senders per slot that Metrics.senders can count")
        for dev in self.devices:
            if not dev.agent.is_learner:
                dev.blind_transmit_prob()  # raises if unset
                continue
            size = state_space_size(LEARNER_KINDS[dev.agent.kind][1], self.lifetime)
            if size > MAX_LEARNER_STATES:
                raise ValueError(f"a {dev.agent.kind} learner at lifetime {self.lifetime} "
                                 f"needs {size} states, over the {MAX_LEARNER_STATES} "
                                 "a Q-table may have")


@dataclass(frozen=True)
class SlotRecord:
    """One traced slot; observations are the ones issued for the next slot."""

    slot: int
    sent: tuple[bool, ...]
    feedback: ApFeedback
    winner: int | None
    observations: tuple[int, ...]
    arrivals: tuple[int, ...]
    expired: tuple[int, ...]
    backlog: tuple[int, ...]
    deliveries_cum: int
    transmissions_cum: int


@dataclass
class Metrics:
    """Per-slot delivery and transmission tallies for a finished run."""

    delivered: np.ndarray
    senders: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.delivered)

    def _window(self, window: int | None) -> int:
        if window is None:
            return self.horizon
        if not 1 <= window <= self.horizon:
            raise ValueError(f"window {window} outside [1, {self.horizon}]")
        return window

    def timely_throughput(self, window: int | None = None) -> float:
        """Delivered packets per slot over the last `window` slots."""
        w = self._window(window)
        return float(self.delivered[self.horizon - w:].sum()) / w

    def power(self, window: int | None = None) -> float:
        """Average number of transmitting devices per slot over the window."""
        w = self._window(window)
        return float(self.senders[self.horizon - w:].sum()) / w

    def throughput_series(self, window: int = 2000) -> np.ndarray:
        """Throughput per consecutive window, one value per complete window."""
        w = self._window(window)
        n = self.horizon // w
        return self.delivered[: n * w].reshape(n, w).mean(axis=1)


@dataclass
class RunResult:
    config: ScenarioConfig
    metrics: Metrics
    learners: tuple[TabularLearner | None, ...]
    trace: list[SlotRecord] | None = None


# the (observation, physical action) pairs a slot produces: a sender sees
# SUCCESSFUL or FAILED, a non-sender IDLE, BUSY or FAILED
_REACHABLE = ((0, 0), (1, 0), (3, 0), (2, 1), (3, 1))


def _reward_table(spec: RewardSpec) -> list[float | None]:
    """reward_value over every (obs, physical action, urgent) cell, indexed
    by obs*4 + action*2 + urgent; None marks a cell that cannot occur.

    Raises ValueError when a cell that run() can reach has no reward, so the
    slot loop never meets a None.
    """
    table: list[float | None] = []
    for obs in range(4):
        for action in (0, 1):
            for urgent in (False, True):
                try:
                    table.append(reward_value(spec, obs, action, urgent))
                except ValueError as exc:
                    if (obs, action) in _REACHABLE:
                        raise ValueError(f"no reward for observation {obs} after action "
                                         f"{action}, which a slot can produce: {exc}") from exc
                    table.append(None)
    return table


def run(config: ScenarioConfig, trace: bool = False) -> RunResult:
    """Simulate the scenario across its full horizon.

    Slot 1 starts with empty queues and an IDLE observation everywhere.
    Learners update once per slot on (s_t, a_t, r, s_{t+1}); the reward sees
    the physical action, so a TRANSMIT chosen on an empty queue scores as the
    WAIT it actually was.  A learner is set by its agent kind and reward
    alone: every kind runs at the step sizes, discount and exploration
    schedule of the dcra.agents constants.

    The slot loop is the inlined form of the single-step API: it reads the
    policy streams' buffers directly, acts and learns on each learner's own
    q list, and keeps every queue as a bitmask of occupied buckets (bit k
    set when a packet expires k+1 slots from now).  The learners returned
    are in the state that select()/update() calls on the same slots would
    leave.
    """
    devices = config.devices
    n = len(devices)
    horizon = config.horizon
    lifetime = config.lifetime
    top = lifetime - 1

    seed_seq = np.random.SeedSequence(config.seed)
    children = seed_seq.spawn(2 * n + 1)
    arrival_gens = [np.random.default_rng(children[i]) for i in range(n)]
    channel_gen = np.random.default_rng(children[n])

    rates = [dev.params.arrival_rate for dev in devices]
    success = [dev.params.success_prob for dev in devices]
    masks = [0] * n

    streams = [UniformStream(children[n + 1 + i]) for i in range(n)]
    pbuf = [s._buf for s in streams]
    ppos = [s._pos for s in streams]

    # per-device constants, unpacked by the loops below
    blind_act: list[tuple] = []
    blind_close: list[int] = []
    learn_act: list[tuple] = []
    learn_close: list[tuple] = []
    learners: list[TabularLearner | None] = []
    eps = [0.0] * n
    rhos = [0.0] * n
    for i, dev in enumerate(devices):
        if not dev.agent.is_learner:
            learners.append(None)
            blind_act.append((i, dev.blind_transmit_prob(), streams[i]))
            blind_close.append(i)
            continue
        learner = TabularLearner(dev.agent.kind, lifetime, streams[i])
        learners.append(learner)
        eps[i] = learner._epsilon
        rhos[i] = learner.rho
        learn_act.append((i, learner.q, streams[i]))
        learn_close.append((
            i, learner.q, learner.state_kind, _reward_table(dev.agent.reward), learner.average,
        ))

    # a state s is kept doubled, as 2*s, the index of its WAIT value in the
    # q list, so that 2*s + a indexes the value of taking action a; every
    # device starts empty with an IDLE observation, i.e. in state 0
    states = [0] * n
    chosen = [0] * n  # q index of the action each learner took this slot
    sent = [False] * n
    tiny, hol = StateKind.TINY, StateKind.HOL
    # the learners' constants, as locals for the loop
    floor, decay = EPSILON_FLOOR, EPSILON_DECAY
    step, gain_step, discount = STEP_SIZE, GAIN_STEP_SIZE, DISCOUNT

    delivered_arr = np.zeros(horizon, dtype=np.uint8)
    senders_arr = np.zeros(horizon, dtype=np.int16)
    records: list[SlotRecord] | None = [] if trace else None
    deliveries_cum = 0
    transmissions_cum = 0
    backlog = [0] * n
    # the feedback of a slot, indexed by what its non-winners observe
    feedbacks = (ApFeedback.NOTHING, ApFeedback.ACK, None, ApFeedback.NACK)

    for t0 in range(0, horizon, BLOCK):
        m_len = min(BLOCK, horizon - t0)
        chan = channel_gen.random(m_len).tolist()
        arrs = [
            (gen.random(m_len) < rate).view(np.uint8).tolist()
            for gen, rate in zip(arrival_gens, rates)
        ]
        blk_delivered = [0] * m_len
        blk_senders = [0] * m_len

        for j in range(m_len):
            n_send = 0
            lone = -1
            for i, prob, stream in blind_act:
                if masks[i]:
                    buf = pbuf[i]
                    pos = ppos[i]
                    if pos >= len(buf):
                        buf = pbuf[i] = stream._refill()
                        pos = 0
                    ppos[i] = pos + 1
                    if buf[pos] < prob:
                        sent[i] = True
                        n_send += 1
                        lone = i
                        continue
                sent[i] = False
            for i, q, stream in learn_act:
                # epsilon-greedy select
                e = eps[i]
                if e < floor:
                    e = floor
                else:
                    eps[i] = e * decay
                buf = pbuf[i]
                pos = ppos[i]
                if pos >= len(buf):
                    buf = pbuf[i] = stream._refill()
                    pos = 0
                s = states[i]
                if buf[pos] < e:
                    pos += 1
                    if pos >= len(buf):
                        buf = pbuf[i] = stream._refill()
                        pos = 0
                    a = 1 if buf[pos] < 0.5 else 0
                else:
                    a = 1 if q[s + 1] > q[s] else 0
                ppos[i] = pos + 1
                chosen[i] = s + a
                if a and masks[i]:
                    sent[i] = True
                    n_send += 1
                    lone = i
                else:
                    sent[i] = False

            # o_all is what every device but the winner observes: IDLE,
            # BUSY after a decoded slot, FAILED after a NACK
            if n_send == 0:
                o_all = 0
                winner = -1
            elif n_send == 1 and chan[j] < success[lone]:
                o_all = 1
                winner = lone
                blk_delivered[j] = 1
            else:
                o_all = 3
                winner = -1
            blk_senders[j] = n_send

            # close out the slot: delivery, expiry, shift, arrivals
            for i in blind_close:
                m = masks[i]
                if i == winner:
                    m &= m - 1
                masks[i] = (m >> 1) | (arrs[i][j] << top)
            for i, q, kind, table, average in learn_close:
                m = masks[i]
                urgent = m & 1
                if i == winner:
                    m &= m - 1
                m = (m >> 1) | (arrs[i][j] << top)
                masks[i] = m
                o2 = 2 if i == winner else o_all
                if kind is tiny:
                    ns = ((m & 1) << 3) | (o2 << 1)
                elif kind is hol:
                    ns = ((m & -m).bit_length() << 3) | (o2 << 1)
                else:
                    ns = (m << 3) | (o2 << 1)
                k = chosen[i]
                reward = table[(o2 << 2) | (sent[i] << 1) | urgent]
                # one-step update on (s, a, r, s')
                best_next = q[ns + 1] if q[ns + 1] > q[ns] else q[ns]
                if average:
                    delta = reward + best_next - q[k] - rhos[i]
                    q[k] += step * delta
                    rhos[i] += gain_step * delta
                else:
                    q[k] += step * (reward + discount * best_next - q[k])
                states[i] = ns

            if records is not None:
                # expiries follow from conservation: backlog before, plus
                # arrivals, minus the delivery, minus backlog after
                slot_arrivals = tuple(a[j] for a in arrs)
                before = backlog
                backlog = [m.bit_count() for m in masks]
                deliveries_cum += blk_delivered[j]
                transmissions_cum += n_send
                records.append(SlotRecord(
                    slot=t0 + j + 1,
                    sent=tuple(sent),
                    feedback=feedbacks[o_all],
                    winner=winner if winner >= 0 else None,
                    observations=tuple(2 if i == winner else o_all for i in range(n)),
                    arrivals=slot_arrivals,
                    expired=tuple(
                        before[i] + slot_arrivals[i] - (i == winner) - backlog[i]
                        for i in range(n)
                    ),
                    backlog=tuple(backlog),
                    deliveries_cum=deliveries_cum,
                    transmissions_cum=transmissions_cum,
                ))

        delivered_arr[t0:t0 + m_len] = blk_delivered
        senders_arr[t0:t0 + m_len] = blk_senders

    for i, learner in enumerate(learners):
        if learner is not None:
            learner.rho = rhos[i]
            learner.steps += horizon
            learner._epsilon = eps[i]
    for i, stream in enumerate(streams):
        stream._buf = pbuf[i]
        stream._pos = ppos[i]

    return RunResult(
        config=config,
        metrics=Metrics(delivered=delivered_arr, senders=senders_arr),
        learners=tuple(learners),
        trace=records,
    )


def write_trace_csv(result: RunResult, path: str) -> None:
    """Dump a traced run, one row per slot, stable formatting for diffing."""
    if result.trace is None:
        raise ValueError("run was not traced; pass trace=True to run()")
    n = len(result.config.devices)
    header = ["slot"]
    header += [f"act_{i}" for i in range(n)]
    header += ["feedback", "winner"]
    header += [f"obs_{i}" for i in range(n)]
    header += ["deliveries_cum", "transmissions_cum"]
    header += [f"arrivals_{i}" for i in range(n)]
    header += [f"expired_{i}" for i in range(n)]
    header += [f"backlog_{i}" for i in range(n)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for rec in result.trace:
            row = [str(rec.slot)]
            row += [Action(int(s)).name for s in rec.sent]
            row += [rec.feedback.name, "" if rec.winner is None else str(rec.winner)]
            row += [ChannelObservation(o).name for o in rec.observations]
            row += [str(rec.deliveries_cum), str(rec.transmissions_cum)]
            row += [str(a) for a in rec.arrivals]
            row += [str(e) for e in rec.expired]
            row += [str(b) for b in rec.backlog]
            fh.write(",".join(row) + "\n")
