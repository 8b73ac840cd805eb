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

Every stream is drawn BLOCK uniforms at a time, which yields the same
sequence as drawing them one by one: BLOCK slots of the channel and arrival
streams, one uniform per slot each.  Policy streams take 0, 1 or 2 uniforms
per slot, so they stay buffered in a UniformStream, whose block is a numpy
array.  A blind device's draws depend on its queue, so the slot loop compares
each refill with its transmit probability in one array operation and reads
the decisions, one per draw, as it goes.  A learner's draws do not depend on
its queue: each block its stream is read ahead into an exploration plan, the
explored action or GREEDY for every slot, with the consumption select() would
have.  The plan reads the array and lists only the draws below the
exploration floor, so a learner's stream is never turned into Python floats.

A traced loop records only three facts of each slot: who sent, the
arrivals and the backlogs.  The SlotRecords (feedback, winner,
observations, expiries, running totals) are derived after the loop from
them and the run's deliveries.
"""

from __future__ import annotations

import functools
import linecache
from dataclasses import dataclass
from itertools import groupby
from operator import add, sub
from typing import NamedTuple

import numpy as np

from dcra.agents import (
    DISCOUNT,
    EPSILON_FLOOR,
    EPSILONS,
    GAIN_STEP_SIZE,
    LEARNER_KINDS,
    STEP_SIZE,
    RewardSpec,
    StateKind,
    TabularLearner,
    reward_table,
    state_space_size,
)
from dcra.core import (
    Action, ApFeedback, ChannelObservation, DeviceParams, check_probability, write_csv,
)

__all__ = [
    "AgentSpec",
    "DeviceSetup",
    "Metrics",
    "RunResult",
    "ScenarioConfig",
    "SlotRecord",
    "UniformStream",
    "check_window",
    "run",
    "write_trace_csv",
]

# uniforms per draw of every stream: BLOCK slots of channel and arrival draws
BLOCK = 4096


class UniformStream:
    """Block-buffered scalar uniforms over one PCG64 generator.

    Consuming through .random() yields the same sequence as the underlying
    generator would produce; buffering only amortises the per-call overhead.
    A block is kept as the array that the generator returns; random()
    reads one float of it per call, and the slot loop and the exploration
    plan take the whole array from _refill().
    """

    __slots__ = ("_gen", "_buf", "_pos", "_block")

    def __init__(self, seed, block: int = BLOCK) -> None:
        self._gen = np.random.default_rng(seed)
        self._block = block
        self._buf = np.empty(0)
        self._pos = 0

    def random(self) -> float:
        pos = self._pos
        if pos >= len(self._buf):
            self._refill()
            pos = 0
        self._pos = pos + 1
        return float(self._buf[pos])

    def _refill(self) -> np.ndarray:
        """Replace the exhausted buffer with the next block; returns it."""
        self._buf = self._gen.random(self._block)
        self._pos = 0
        return self._buf


@dataclass(frozen=True)
class AgentSpec:
    """Declarative description of one device's transmission policy.

    kind "blind" retransmits the head-of-line packet with a fixed probability
    (taken from transmit_prob, else from the device params).  The learner
    kinds of agents.LEARNER_KINDS combine an algorithm with a queue
    abstraction: q-full, r-full, r-hol, r-tiny and the remaining crossings;
    `reward` scores a learner's slots and stays the default for a blind agent.
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
            check_probability("transmit_prob", self.transmit_prob)
        if self.kind == "blind" and self.reward != RewardSpec():
            raise ValueError("reward only applies to learner agents")

    @property
    def is_learner(self) -> bool:
        return self.kind != "blind"

    @classmethod
    def blind(cls, transmit_prob: float | None = None) -> "AgentSpec":
        return cls("blind", transmit_prob)

    @classmethod
    def learner(cls, kind: str, reward: RewardSpec = RewardSpec()) -> "AgentSpec":
        return cls(kind, None, reward)


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


class SlotRecord(NamedTuple):
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


def check_window(window: int, horizon: int) -> int:
    """`window`, if a run of `horizon` slots has that many final slots."""
    if not 1 <= window <= horizon:
        raise ValueError(f"window {window} outside [1, {horizon}]")
    return window


@dataclass
class Metrics:
    """Per-slot delivery and transmission tallies for a finished run."""

    delivered: np.ndarray
    senders: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.delivered)

    def _window(self, window: int | None) -> int:
        return self.horizon if window is None else check_window(window, self.horizon)

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


# the exploration plan's entry for a slot whose select() acts greedily
GREEDY = -1


def _exploration_plan(learner: TabularLearner, n: int) -> list[int]:
    """The learner's next n select() draws, as one entry per slot.

    Entry j is GREEDY where slot j acts greedily, else the action it
    explores.  The learner's UniformStream and step count are left as n
    select() calls would leave them: a slot takes one uniform, and one
    more for the explored action when the first falls below epsilon.  The
    draws are read a window of the stream's array at a time: epsilon never
    rises, so only the uniforms below the epsilon of a window's first slot
    may explore, and while it decays each is checked against its own slot's.
    """
    plan = [GREEDY] * n
    stream, steps = learner.rng, learner.steps
    buf, pos, j = stream._buf, stream._pos, 0
    while j < n:
        if pos == len(buf):
            buf, pos = stream._refill(), 0
        # the slots left take the uniforms from pos to end unless they explore;
        # each exploration pushes the slots after it one uniform further on
        start, end, eps = pos, min(len(buf), pos + n - j), EPSILON_FLOOR
        decay = len(EPSILONS) - steps - j  # the window ends where the decay does
        if decay > 0:
            end, eps = min(end, pos + decay), EPSILONS[steps + j]
        for c in np.flatnonzero(buf[start:end] < eps).tolist():
            c += start
            if c < pos or decay > 0 and buf[c] >= EPSILONS[steps + j + c - pos]:
                continue  # the previous exploration's action, or a greedy slot
            j += c - pos
            pos = c + 1
            if pos == len(buf):
                buf, pos = stream._refill(), 0
                end = 0  # the window's buffer is used up
            plan[j] = 1 if buf[pos] < 0.5 else 0
            pos += 1
            j += 1
        if pos < end:
            j += end - pos
            pos = end
    stream._pos = pos
    learner.steps += n
    return plan


# The slot loop is generated per device layout.  Each device gets the code of
# its kind, with {i} its index; a line ending in "#T" is kept only in a
# traced loop.  Per device the loop keeps in locals the queue mask m{i}; for a
# blind device its probability pr{i}, stream st{i}, cursor p{i} and b{i}, its
# current refill compared with pr{i} in one array operation: a list of bools,
# True where that draw sends; for a learner its doubled state s{i}, the q
# index k{i} of the action it took, the physical action x{i}, the slot's
# reward r{i}, its q list q{i}, gain rho{i}, reward table R{i} and the
# block's exploration plan P{i}.  A device's set-up reads pr{i} or R{i} from
# `devices`.  Streams refill `block` uniforms, so a blind device draws its
# first buffer up front and refills when its cursor reaches block.
#
# Once every device has acted, the slot takes one of three branches, idle,
# decoded or collided, and _close writes every device's close inside each:
# delivery, expiry, shift and arrivals, and for a learner its reward and next
# state, with the branch's observation a constant.  In the decoded branch the
# winner (lone == i for a blind device, x{i} for a learner) closes as
# SUCCESSFUL and every other device as BUSY.  A learner's update reads no
# outcome, so it follows the branches once instead of being written into
# each.

_BLIND_SETUP = """\
m{i} = 0
pr{i} = devices[{i}].blind_transmit_prob()
st{i} = streams[{i}]
b{i} = (st{i}._refill() < pr{i}).tolist()
p{i} = 0
"""

_LEARNER_SETUP = """\
m{i} = s{i} = 0
L{i} = learners[{i}]
q{i} = L{i}.q
rho{i} = L{i}.rho
R{i} = reward_table(devices[{i}].agent.reward)
"""

_BLIND_ACT = """\
x{i} = False  #T
if m{i}:
    if p{i} == block:
        b{i} = (st{i}._refill() < pr{i}).tolist()
        p{i} = 0
    if b{i}[p{i}]:
        x{i} = True  #T
        n_send += 1
        lone = {i}
    p{i} += 1
"""

_LEARNER_ACT = """\
a = P{i}[j]
if a < 0:
    a = q{i}[s{i} + 1] > q{i}[s{i}]
k{i} = s{i} + a
if a and m{i}:
    x{i} = True
    n_send += 1
    lone = {i}
else:
    x{i} = False
"""

# only the lone sender of a decoded slot can be its winner
_RESOLVE = """\
if n_send == 0:
{idle}
elif n_send == 1 and chan[j] < success[lone]:
    blk_delivered[j] = 1
    blk_senders[j] = 1
{decoded}
else:
    blk_senders[j] = n_send
{collided}
"""


def _close(i: int, state: str | None, obs: ChannelObservation) -> str:
    """Device i's close of a slot after which it observes obs.

    The winner (SUCCESSFUL) drops its delivered packet, the mask's lowest
    bit; then every mask shifts and takes in the arrival.  A learner, whose
    state is the queue part of its next state (None for a blind device),
    first scores reward_table's cell 4*obs | 2*sent | urgent, urgent being
    the mask's low bit before the close, and then moves to state | 2*obs.
    sent is 1 after SUCCESSFUL, 0 after IDLE or BUSY and x{i} after FAILED.
    """
    won = obs is ChannelObservation.SUCCESSFUL
    mask = f"(m{i} & (m{i} - 1))" if won else f"m{i}"
    close = f"m{i} = ({mask} >> 1) | (A{i}[j] << top)"
    if state is None:
        return close
    # the constant terms summed, zero ones left out
    cell = [str(4 * obs + 2 * won)] if obs else []
    if obs is ChannelObservation.FAILED:
        cell.append(f"(x{i} << 1)")
    cell.append(f"(m{i} & 1)")
    next_state = f"{state} | {2 * obs}" if obs else state
    return f"r{i} = R{i}[{' | '.join(cell)}]\n{close}\ns{i} = {next_state}"


# after the branches, a learner's one-step update on (s, a, r, s'): the
# greedy value of s', ties to WAIT, then q{i}[k{i}] read once, since
# v + step * delta is what += computed
_BEST = """\
best = q{i}[s{i}]
if q{i}[s{i} + 1] > best:
    best = q{i}[s{i} + 1]
v = q{i}[k{i}]
"""

_UPDATE = {
    True: _BEST + """\
delta = r{i} + best - v - rho{i}
q{i}[k{i}] = v + step * delta
rho{i} += gain_step * delta
""",
    False: _BEST + """\
q{i}[k{i}] = v + step * (r{i} + discount * best - v)
""",
}

# the queue part of a learner's next state, from its new mask
_NEXT_STATE = {
    StateKind.TINY: "((m{i} & 1) << 3)",
    StateKind.HOL: "((m{i} & -m{i}).bit_length() << 3)",
    StateKind.FULL: "(m{i} << 3)",
}

# a traced slot appends its facts, from which _slot_records derives the rest:
# who sent, arrivals and backlog after
_TRACE = """\
records.append((({sent},), ({arr},), ({backlog},)))
"""

_LOOP = """\
def slot_loop(horizon, block, top, devices, channel_gen, arrival_gens, streams, learners,
              step, gain_step, discount, delivered_arr, senders_arr, records):
    rates = [dev.params.arrival_rate for dev in devices]
    success = [dev.params.success_prob for dev in devices]
{setup}
    lone = -1
    for t0 in range(0, horizon, block):
        size = min(block, horizon - t0)
        chan = channel_gen.random(size).tolist()
        {arrivals}, = [(gen.random(size) < rate).view(uint8).tolist()
                       for gen, rate in zip(arrival_gens, rates)]
{plans}
        blk_delivered = [0] * size
        blk_senders = [0] * size
        for j in range(size):
            n_send = 0
{act}
{resolve}
{update}
{trace}
        delivered_arr[t0:t0 + size] = blk_delivered
        senders_arr[t0:t0 + size] = blk_senders
{finish}
"""


def _code(kind: str) -> str:
    """Short name of an agent kind: b for blind, else e.g. rt for r-tiny."""
    return "b" if kind == "blind" else kind[0] + kind[2]


def _loop_name(kinds: tuple[str, ...], traced: bool) -> str:
    """Filename of a generated loop: its layout, runs of a kind as kind*count."""
    runs = [(_code(kind), len(list(group))) for kind, group in groupby(kinds)]
    layout = ",".join(code if count == 1 else f"{code}*{count}" for code, count in runs)
    return f"<dcra slot loop {layout}{' traced' if traced else ''}>"


def _loop_source(kinds: tuple[str, ...], traced: bool) -> str:
    """Source of the slot loop for devices of these kinds, in this order."""
    def block(template: str, depth: int, **fields) -> str:
        lines = []
        for line in template.format(**fields).splitlines():
            if line.endswith("  #T"):
                if not traced:
                    continue
                line = line[:-4]
            lines.append(" " * depth + line if line else line)
        return "\n".join(lines)

    n = len(kinds)
    learners = [i for i, kind in enumerate(kinds) if kind != "blind"]
    IDLE, BUSY, SUCCESSFUL, FAILED = ChannelObservation
    setup, act, update = [], [], []
    idle, decoded, collided = [], [], []
    for i, kind in enumerate(kinds):
        if kind == "blind":
            setup.append(block(_BLIND_SETUP, 4, i=i))
            act.append(block(_BLIND_ACT, 12, i=i))
            state, winner = None, f"lone == {i}"
        else:
            average, state_kind = LEARNER_KINDS[kind]
            setup.append(block(_LEARNER_SETUP, 4, i=i))
            act.append(block(_LEARNER_ACT, 12, i=i))
            update.append(block(_UPDATE[average], 12, i=i))
            state, winner = _NEXT_STATE[state_kind].format(i=i), f"x{i}"
        won, lost = (block(_close(i, state, obs), 4) for obs in (SUCCESSFUL, BUSY))
        idle.append(block(_close(i, state, IDLE), 4))
        decoded.append(block(f"if {winner}:\n{won}\nelse:\n{lost}", 4))
        collided.append(block(_close(i, state, FAILED), 4))
    trace = ""
    if traced:
        trace = block(_TRACE, 12, **{
            "sent": ", ".join(f"x{i}" for i in range(n)),
            "arr": ", ".join(f"A{i}[j]" for i in range(n)),
            "backlog": ", ".join(f"m{i}.bit_count()" for i in range(n)),
        })
    return block(_LOOP, 0, **{
        "setup": "\n".join(setup),
        "arrivals": ", ".join(f"A{i}" for i in range(n)),
        "plans": "\n".join(f"        P{i} = plan(L{i}, size)" for i in learners),
        "act": "\n".join(act),
        "resolve": block(_RESOLVE, 12, idle="\n".join(idle), decoded="\n".join(decoded),
                         collided="\n".join(collided)),
        "update": "\n".join(update),
        "trace": trace,
        "finish": "\n".join(f"    L{i}.rho = rho{i}" for i in learners),
    }) + "\n"


@functools.cache
def _compiled_loop(kinds: tuple[str, ...], traced: bool):
    """The slot loop for this layout, compiled once per process.

    Its source is registered in linecache under the loop's name, so a
    traceback through it shows the generated lines.
    """
    name = _loop_name(kinds, traced)
    source = _loop_source(kinds, traced)
    linecache.cache[name] = (len(source), None, source.splitlines(True), name)
    namespace = {"plan": _exploration_plan, "reward_table": reward_table, "uint8": np.uint8}
    exec(compile(source, name, "exec"), namespace)
    return namespace["slot_loop"]


def _slot_records(rows: list, delivered: list[int], n: int) -> list[SlotRecord]:
    """Replace the traced loop's rows (sent, arrivals, backlog) by their
    SlotRecords, in place, so that a row is freed as its record is made.
    A slot that delivered is an ACK to its one sender; any other is a NACK
    if someone sent, else silence.  Observations are recorded as ints."""
    IDLE, BUSY, SUCCESSFUL, FAILED = (o.value for o in ChannelObservation)
    NOTHING, ACK, NACK = ApFeedback
    before = (0,) * n
    deliveries_cum = transmissions_cum = 0
    for k, ((sent, arrivals, backlog), hit) in enumerate(zip(rows, delivered)):
        senders = sum(sent)
        transmissions_cum += senders
        # expiries follow from conservation: backlog before, plus arrivals,
        # minus the delivery, minus backlog after
        expired = list(map(sub, map(add, before, arrivals), backlog))
        if hit:
            winner, feedback = sent.index(True), ACK
            deliveries_cum += 1
            expired[winner] -= 1
            observations = [BUSY] * n
            observations[winner] = SUCCESSFUL
        else:
            winner = None
            feedback, seen = (NACK, FAILED) if senders else (NOTHING, IDLE)
            observations = [seen] * n
        rows[k] = SlotRecord(k + 1, sent, feedback, winner, tuple(observations), arrivals,
                             tuple(expired), backlog, deliveries_cum, transmissions_cum)
        before = backlog
    return rows


def run(config: ScenarioConfig, trace: bool = False) -> RunResult:
    """Simulate the scenario across its full horizon.

    Slot 1 starts with empty queues and an IDLE observation everywhere.
    Learners update once per slot on (s_t, a_t, r, s_{t+1}); the reward sees
    the physical action, so a TRANSMIT chosen on an empty queue scores as the
    WAIT it actually was.  A learner is set by its agent kind and reward
    alone: every kind runs at the step sizes, discount and exploration
    schedule of the dcra.agents constants.

    The slot loop is the single-step API unrolled over the devices: its
    source is generated from the layout (each device's kind, and whether
    the run is traced) and compiled once per process for each layout.
    The loop reads each device's probabilities and reward table from the
    scenario's devices and takes the lifetime as an argument, so none of them
    is written into the source.  It keeps every queue as a bitmask of
    occupied buckets (bit k set when a packet expires k+1 slots from now)
    and every per-device value in a local.  A learner's epsilon-greedy draws
    are read off its stream one block at a time, as an exploration plan, so
    the loop only makes the greedy comparison.  The learners returned are in
    the state that select()/update() calls on the same slots would leave.
    """
    devices = config.devices
    n = len(devices)
    horizon = config.horizon

    seed_seq = np.random.SeedSequence(config.seed)
    children = seed_seq.spawn(2 * n + 1)
    arrival_gens = [np.random.default_rng(children[i]) for i in range(n)]
    channel_gen = np.random.default_rng(children[n])
    streams = [UniformStream(children[n + 1 + i]) for i in range(n)]

    # a learner's state s is kept doubled, as 2*s, the index of its WAIT
    # value in the q list, so that 2*s + a indexes the value of action a
    learners = [TabularLearner(dev.agent.kind, config.lifetime, stream)
                if dev.agent.is_learner else None
                for dev, stream in zip(devices, streams)]

    delivered_arr = np.zeros(horizon, dtype=np.uint8)
    senders_arr = np.zeros(horizon, dtype=np.int16)
    records: list | None = [] if trace else None
    loop = _compiled_loop(tuple(dev.agent.kind for dev in devices), trace)
    loop(horizon, BLOCK, config.lifetime - 1, devices, channel_gen, arrival_gens, streams,
         learners, STEP_SIZE, GAIN_STEP_SIZE, DISCOUNT, delivered_arr, senders_arr, records)

    return RunResult(
        config=config,
        metrics=Metrics(delivered=delivered_arr, senders=senders_arr),
        learners=tuple(learners),
        trace=None if records is None else _slot_records(records, delivered_arr.tolist(), n),
    )


def write_trace_csv(result: RunResult, path: str) -> None:
    """Dump a traced run, one LF-ended row per slot, stable formatting for diffing."""
    if result.trace is None:
        raise ValueError("run was not traced; pass trace=True to run()")
    n = len(result.config.devices)
    header = ["slot"]
    header += [f"act_{i}" for i in range(n)]
    header += ["feedback", "winner"]
    header += [f"obs_{i}" for i in range(n)]
    header += ["deliveries_cum", "transmissions_cum"]
    header += [f"{column}_{i}" for column in ("arrivals", "expired", "backlog")
               for i in range(n)]
    actions = [a.name for a in Action]
    observations = [o.name for o in ChannelObservation]
    # csv writes a winner of None as an empty field
    rows = ([rec.slot, *(actions[s] for s in rec.sent), rec.feedback.name, rec.winner,
             *(observations[o] for o in rec.observations), rec.deliveries_cum,
             rec.transmissions_cum, *rec.arrivals, *rec.expired, *rec.backlog]
            for rec in result.trace)
    write_csv(path, header, rows, newline="\n")
