"""Transmission policies: blind retransmission and tabular learners.

A learner sees its own queue (through one of three abstractions) plus the last
channel observation, and picks WAIT or TRANSMIT each slot.  Rewards are
derived from access-point feedback only, so the same agent code runs with any
number of competing devices: each RewardSpec is one 16-cell reward_table over
(observation, physical action, urgent), which env.run reads as it stands.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate, repeat, takewhile
from operator import mul

from dcra.core import Action, ChannelObservation, check_probability, write_csv

__all__ = [
    "LEARNER_KINDS",
    "RewardKind",
    "RewardSpec",
    "StateKind",
    "TabularLearner",
    "reward_table",
    "state_space_size",
    "write_policy_csv",
]

N_OBS = 4  # ChannelObservation cardinality


class StateKind(enum.Enum):
    """How much of its own queue a learner gets to see.

    FULL  entire occupancy bitmask, 2^D * 4 states
    HOL   head-of-line lead time only, (D+1) * 4 states
    TINY  a single urgency bit, 2 * 4 states
    """

    FULL = "full"
    HOL = "hol"
    TINY = "tiny"


def state_space_size(kind: StateKind, lifetime: int) -> int:
    if lifetime < 1:
        raise ValueError(f"packet lifetime must be >= 1, got {lifetime}")
    if kind is StateKind.FULL:
        return (1 << lifetime) * N_OBS
    if kind is StateKind.HOL:
        return (lifetime + 1) * N_OBS
    return 2 * N_OBS


# learner kind -> (average reward, queue abstraction): the "r" kinds run
# average-reward R-learning, which tracks a running gain estimate rho instead
# of discounting, the "q" kinds one-step Q-learning on the discounted return
LEARNER_KINDS = {
    "q-full": (False, StateKind.FULL),
    "q-hol": (False, StateKind.HOL),
    "q-tiny": (False, StateKind.TINY),
    "r-full": (True, StateKind.FULL),
    "r-hol": (True, StateKind.HOL),
    "r-tiny": (True, StateKind.TINY),
}

# every learner's hyper-parameters: the step size of its action values, of
# the gain estimate (r kinds) and the discount (q kinds); epsilon decays
# from 1 by EPSILON_DECAY a step down to EPSILON_FLOOR, reached at step 920
STEP_SIZE = 0.01
GAIN_STEP_SIZE = 0.01
DISCOUNT = 0.9
EPSILON_DECAY = 0.995
EPSILON_FLOOR = 0.01
# epsilon after each number of steps while it decays, each value the one
# before times EPSILON_DECAY; from len(EPSILONS) steps on it is EPSILON_FLOOR
EPSILONS = tuple(takewhile(lambda eps: eps >= EPSILON_FLOOR,
                           accumulate(repeat(EPSILON_DECAY), mul, initial=1.0)))


class RewardKind(enum.Enum):
    TWO_LEVEL = "two-level"
    MULTI_LEVEL = "multi-level"


@dataclass(frozen=True)
class RewardSpec:
    """Reward computed from (observation, last physical action, last urgency);
    reward_table(spec) lists it cell by cell.

    TWO_LEVEL pays 1 whenever the slot carried a delivery for anyone (own
    SUCCESSFUL or overheard BUSY) and 0 otherwise, less its `shift` in
    [0, 1]: a shift breaks the optimistic tie between acting and idling for
    discounted learners.  MULTI_LEVEL grades the (observation, action) pairs
    separately and punishes sitting on a packet that is about to expire.
    """

    kind: RewardKind = RewardKind.TWO_LEVEL
    shift: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is RewardKind.TWO_LEVEL:
            check_probability("shift", self.shift)
        elif self.shift:
            raise ValueError(f"shift only applies to {RewardKind.TWO_LEVEL}")

    @classmethod
    def two_level(cls, shift: float = 0.0) -> "RewardSpec":
        return cls(RewardKind.TWO_LEVEL, shift)

    @classmethod
    def multi_level(cls) -> "RewardSpec":
        return cls(RewardKind.MULTI_LEVEL)

    @classmethod
    def parse(cls, text: str) -> "RewardSpec":
        """Parse "two-level", "two-level-shifted:<c>" or "multi-level"."""
        if text == "two-level":
            return cls.two_level()
        if text == "multi-level":
            return cls.multi_level()
        if text.startswith("two-level-shifted:"):
            return cls.two_level(float(text.split(":", 1)[1]))
        raise ValueError(f"unknown reward spec {text!r}")


# MULTI_LEVEL's rewards, indexed obs*4 + action*2 + urgent; None marks the
# cells no slot produces: a sender never sees IDLE or BUSY, and SUCCESSFUL
# never reaches a non-sender
_MULTI_LEVEL = (
    2.0, -3.0, None, None,  # IDLE: wait, wait urgent, transmit, transmit urgent
    10.0, 10.0, None, None,  # BUSY
    None, None, 10.0, 10.0,  # SUCCESSFUL
    2.0, 2.0, -5.0, -5.0,  # FAILED
)


def reward_table(spec: RewardSpec) -> tuple[float | None, ...]:
    """The reward of every (observation, physical action, urgent) cell.

    Cell obs*4 + action*2 + urgent scores the slot whose outcome was `obs`
    for a device whose physical action in it was `action` (a TRANSMIT chosen
    on an empty queue puts nothing on the air and counts as WAIT) and whose
    queue held a packet due that very slot when `urgent`.  A None cell is
    one that no slot produces.
    """
    if spec.kind is RewardKind.MULTI_LEVEL:
        return _MULTI_LEVEL
    # 1 for a delivery to anyone (BUSY, SUCCESSFUL), 0 for none (IDLE, FAILED)
    hit, miss = 1.0 - spec.shift, 0.0 - spec.shift
    return (miss,) * 4 + (hit,) * 8 + (miss,) * 4


class TabularLearner:
    """Flat-table epsilon-greedy learner of one LEARNER_KINDS kind, run at
    the module's constants.  An action is scored with the feedback it
    produced: the update for (s_t, a_t) uses the observation that arrives at
    the start of slot t+1.

    The action-value table starts at zero and lives in a flat list indexed by
    2*state + action with WAIT at offset 0, which also fixes the tie-break:
    equal values resolve to WAIT.  One instance owns one exploration stream;
    step counting never resets, so epsilon, read from EPSILONS by step,
    keeps decaying across the whole life of the learner.

    env.run performs the same steps without calling either method: its
    exploration plan makes select()'s draws a block at a time and advances
    steps, and its generated slot loop makes the greedy comparison and the
    update inline on `q` and writes rho back.  A change to either method
    must be mirrored in env._exploration_plan and in the templates env
    generates the loop from (tests/oracles.py::reference_run checks the two
    agree).
    """

    def __init__(self, kind: str, lifetime: int, rng) -> None:
        if kind not in LEARNER_KINDS:
            raise ValueError(f"unknown learner kind {kind!r}")
        self.average, self.state_kind = LEARNER_KINDS[kind]
        self.lifetime = lifetime
        self.n_states = state_space_size(self.state_kind, lifetime)
        self.q = [0.0] * (2 * self.n_states)
        self.rho = 0.0
        self.steps = 0
        self.rng = rng

    def epsilon(self) -> float:
        """Exploration rate that the next select() call will use."""
        return EPSILONS[self.steps] if self.steps < len(EPSILONS) else EPSILON_FLOOR

    def select(self, state: int) -> int:
        """Epsilon-greedy action; exploration draws uniformly over both."""
        eps = self.epsilon()
        self.steps += 1
        rng = self.rng
        if rng.random() < eps:
            return Action.TRANSMIT if rng.random() < 0.5 else Action.WAIT
        return self.greedy(state)

    def greedy(self, state: int) -> int:
        base = 2 * state
        return Action.TRANSMIT if self.q[base + 1] > self.q[base] else Action.WAIT

    def update(self, state: int, action: int, reward: float, next_state: int) -> None:
        """One-step bootstrap update for the transition (s, a, r, s')."""
        q = self.q
        nb = 2 * next_state
        best_next = q[nb + 1] if q[nb + 1] > q[nb] else q[nb]
        i = 2 * state + action
        if self.average:
            # one error term from pre-update values drives both increments
            delta = reward + best_next - q[i] - self.rho
            q[i] += STEP_SIZE * delta
            self.rho += GAIN_STEP_SIZE * delta
        else:
            q[i] += STEP_SIZE * (reward + DISCOUNT * best_next - q[i])

    def greedy_policy(self) -> list[int]:
        """Greedy action per state, ties resolved to WAIT."""
        return [self.greedy(s) for s in range(self.n_states)]


def write_policy_csv(learner: TabularLearner, path: str) -> None:
    """Dump the greedy policy and action values.

    The first line is a comment carrying the average-reward estimate
    ("# rho=<value>", empty for discounted learners); then one CSV row per
    state in index order: abstraction, queue payload, observation, greedy
    action and both action values.  FULL payloads list bucket occupancy
    most-urgent-first ("10" is a packet due this slot and nothing behind
    it); HOL payloads are the head-of-line lead time; TINY payloads are the
    urgency bit.
    """
    kind, q = learner.state_kind, learner.q
    rows = []
    for s in range(learner.n_states):
        payload = s >> 2
        if kind is StateKind.FULL:
            payload = "".join(str((payload >> k) & 1) for k in range(learner.lifetime))
        rows.append([kind.value, payload, ChannelObservation(s & 3).name,
                     Action(learner.greedy(s)).name, q[2 * s], q[2 * s + 1]])
    write_csv(path, ["abstraction", "payload", "observation", "action", "q_wait", "q_transmit"],
              rows, newline="\n", comment=f"rho={repr(learner.rho) if learner.average else ''}")
