"""Exact two-device model and its average-reward throughput bound.

The tracked device (the one whose policy we optimise) shares a collision
channel with a blind peer that retransmits whenever it holds a packet, with
a fixed probability per slot.  Enumerating both lead-time queues and the
tracked device's channel observation gives a finite MDP whose maximal
average reward upper-bounds every decentralised policy: the genie here sees
the peer queue, which no real agent can.

State index layout: s = (l1 * 2^D + l2) * 4 + o with observation order
IDLE, BUSY, SUCCESSFUL, FAILED.  l1 and l2 are lead-time bitmasks, bit k
set meaning a packet expiring in k+1 slots.

upper_bound solves the MDP by policy iteration on the (l1, l2) pairs.  The
paper's dual LP over the joint states (bound_program) is kept for export to
external solvers and as an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ChannelObservation
# solve_lp stays importable as mdp.solve_lp for tools that wrap it by name
from .simplex import LpProgram, solve_lp  # noqa: F401

__all__ = [
    "ALWAYS_IDLE",
    "ALWAYS_TRANSMIT",
    "BoundResult",
    "TwoDeviceModel",
    "TwoDeviceParams",
    "bound_program",
    "build_mdp",
    "constant_policy_throughput",
    "informed_optimum_lifetime1",
    "majority_policy",
    "optimal_constant_policy",
    "upper_bound",
]

ALWAYS_TRANSMIT = "always-transmit"
ALWAYS_IDLE = "always-idle"
TIE_TOL = 1e-9  # action values closer than this tie, and ties go to WAIT


@dataclass(frozen=True)
class TwoDeviceParams:
    """Probabilities of the canonical two-device scenario.

    Field order follows the conventional tuple
    (peer arrival, agent arrival, peer success, agent success, peer transmit).
    """

    peer_arrival: float
    agent_arrival: float
    peer_success: float
    agent_success: float
    peer_transmit: float

    def __post_init__(self) -> None:
        for name in (
            "peer_arrival",
            "agent_arrival",
            "peer_success",
            "agent_success",
            "peer_transmit",
        ):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} = {v} outside [0, 1]")

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (
            self.peer_arrival,
            self.agent_arrival,
            self.peer_success,
            self.agent_success,
            self.peer_transmit,
        )


def _advance_mask(mask: int, delivered: bool, arrival: int, lifetime: int) -> int:
    if delivered:
        mask &= mask - 1  # clears the most urgent (lowest) set bit
    mask >>= 1
    if arrival:
        mask |= 1 << (lifetime - 1)
    return mask


class TwoDeviceModel:
    """Transition tensor and reward vector of the joint chain."""

    def __init__(self, params: TwoDeviceParams, lifetime: int):
        if lifetime < 1:
            raise ValueError(f"lifetime must be >= 1, got {lifetime}")
        self.params = params
        self.lifetime = lifetime
        self.masks = 1 << lifetime
        self.n_states = self.masks * self.masks * 4
        self.transitions = self._build()
        obs = np.arange(self.n_states) % 4
        self.rewards = (
            (obs == ChannelObservation.BUSY) | (obs == ChannelObservation.SUCCESSFUL)
        ).astype(float)

    def index(self, l1: int, l2: int, o: int) -> int:
        m = self.masks
        if not (0 <= l1 < m and 0 <= l2 < m):
            raise ValueError(f"queue mask outside [0, {m})")
        return (l1 * m + l2) * 4 + int(o)

    def decode(self, s: int) -> tuple[int, int, int]:
        o = s % 4
        pair = s // 4
        return pair // self.masks, pair % self.masks, o

    def _build(self) -> np.ndarray:
        p = self.params
        m = self.masks
        n = self.n_states
        # transitions depend on (l1, l2, a) only; observation of the source
        # state is carried along for the reward and marginalised here
        pair_kernel = np.zeros((2, m * m, n))
        arrivals = [
            (a1, a2, (p.peer_arrival if a1 else 1 - p.peer_arrival)
             * (p.agent_arrival if a2 else 1 - p.agent_arrival))
            for a1 in (0, 1)
            for a2 in (0, 1)
        ]
        for l1 in range(m):
            for l2 in range(m):
                row = l1 * m + l2
                for a in (0, 1):
                    agent_sends = bool(a) and l2 != 0
                    branches = []  # (prob, delivered1, delivered2, obs)
                    if l1 != 0:
                        pt = p.peer_transmit
                        if agent_sends:
                            branches.append((pt, False, False, 3))
                            branches.append(
                                ((1 - pt) * p.agent_success, False, True, 2)
                            )
                            branches.append(
                                ((1 - pt) * (1 - p.agent_success), False, False, 3)
                            )
                        else:
                            branches.append((pt * p.peer_success, True, False, 1))
                            branches.append(
                                (pt * (1 - p.peer_success), False, False, 3)
                            )
                            branches.append((1 - pt, False, False, 0))
                    elif agent_sends:
                        branches.append((p.agent_success, False, True, 2))
                        branches.append((1 - p.agent_success, False, False, 3))
                    else:
                        branches.append((1.0, False, False, 0))
                    for prob, d1, d2, o2 in branches:
                        if prob == 0.0:
                            continue
                        for a1, a2, pa in arrivals:
                            if pa == 0.0:
                                continue
                            n1 = _advance_mask(l1, d1, a1, self.lifetime)
                            n2 = _advance_mask(l2, d2, a2, self.lifetime)
                            sp = (n1 * m + n2) * 4 + o2
                            pair_kernel[a, row, sp] += prob * pa
        full = np.empty((2, n, n))
        for a in (0, 1):
            full[a] = np.repeat(pair_kernel[a], 4, axis=0)
        return full


def build_mdp(params: TwoDeviceParams, lifetime: int) -> TwoDeviceModel:
    return TwoDeviceModel(params, lifetime)


@dataclass(frozen=True)
class BoundResult:
    """Upper-bound value with a deterministic optimal policy that attains it.

    `policy` holds the greedy action of the average-reward optimality
    equations (ties within TIE_TOL to WAIT) as 0/1 rows; it is the same for
    the four observations of each (l1, l2) pair.  `iterations` counts the
    policy-iteration steps.
    """

    value: float
    policy: np.ndarray  # (n_states, 2), rows are one-hot (WAIT, TRANSMIT)
    iterations: int
    model: TwoDeviceModel


def bound_program(model: TwoDeviceModel) -> LpProgram:
    """Average-reward dual LP whose optimum is the best timely throughput.

    Variables are the state-action occupancies x plus the auxiliary block y
    that pins down transient states; both are nonnegative.  For every state
    s' two equalities hold:

        sum_a x(s',a) = sum_{s,a} P(s'|s,a) x(s,a)
        sum_a x(s',a) + sum_a y(s',a) - sum_{s,a} P(s'|s,a) y(s,a) = 1/|S|

    The objective maximises sum r(s) x(s,a).  upper_bound does not solve
    it; it is the formulation exported for external LP solvers and the
    independent check on upper_bound.
    """
    n = model.n_states
    P = model.transitions
    # column 2s+a of the flow matrix carries P(s'|s,a) in row s'
    flow = np.transpose(P, (2, 1, 0)).reshape(n, 2 * n)
    sums = np.zeros((n, 2 * n))
    rows = np.repeat(np.arange(n), 2)
    sums[rows, np.arange(2 * n)] = 1.0
    zero = np.zeros((n, 2 * n))
    A = np.block([[sums - flow, zero], [sums, sums - flow]])
    b = np.concatenate([np.zeros(n), np.full(n, 1.0 / n)])
    c = np.concatenate([np.repeat(model.rewards, 2), np.zeros(2 * n)])
    return LpProgram(c, A, b)


def _pair_chain(model: TwoDeviceModel) -> tuple[np.ndarray, np.ndarray]:
    """Kernel (2, pairs, pairs) and expected rewards (2, pairs) on (l1, l2).

    A transition never depends on the source observation, so the first row
    of each pair stands for all four; summing the destination observations
    out leaves the pair chain, and r(pair, a) = P_a(pair) . rewards is the
    reward the joint chain collects one slot later.
    """
    pairs = model.masks * model.masks
    rows = model.transitions[:, ::4, :]
    return rows.reshape(2, pairs, pairs, 4).sum(axis=3), rows @ model.rewards


def _evaluate_policy(P: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gain and bias vectors (g, h) of the Markov reward process (P, r).

    With one recurrent class g is a constant and g + h = r + P h with h
    pinned to 0 at state 0 is one dense solve, column 0 carrying g.  That
    system is singular when the chain splits into several recurrent classes
    (possible only with an arrival probability of exactly 1); then
    g = P g, g + h = r + P h and h + (I - P) w = 0 fix g and the bias h,
    though not w, and a least-squares solve finds them.
    """
    n = r.shape[0]
    lap = np.eye(n) - P
    system = lap.copy()
    system[:, 0] = 1.0
    try:
        z = np.linalg.solve(system, r)
    except np.linalg.LinAlgError:
        eye, zero = np.eye(n), np.zeros((n, n))
        blocks = np.block([[lap, zero, zero], [eye, lap, zero], [zero, eye, lap]])
        rhs = np.concatenate([np.zeros(n), r, np.zeros(n)])
        z = np.linalg.lstsq(blocks, rhs, rcond=None)[0]
        return z[:n], z[n : 2 * n]
    gain = np.full(n, z[0])
    z[0] = 0.0
    return gain, z


def upper_bound(model: TwoDeviceModel) -> BoundResult:
    """Best average reward of the genie MDP, by Howard policy iteration.

    Runs on the (l1, l2) pair chain (see _pair_chain), 4x smaller than the
    joint chain (Puterman 1994, ch. 8-9).  From all-WAIT: evaluate the
    policy for (g, h), switch every pair to the greedy action, gain first
    (P_a g) and then bias (r_a + P_a h), with ties within TIE_TOL to WAIT,
    and stop when the policy no longer changes.  The Q-gaps of a joint
    state equal those of its pair, so repeating each pair's action over its
    four observations is an optimal joint policy.  The value is the gain
    averaged uniformly over the joint states, as bound_program weighs them.

    Where the gain is constant the optimality-equation residual
    max |g + h - max_a (r_a + P_a h)| certifies the result; it must not
    exceed TIE_TOL.
    """
    P, r = _pair_chain(model)
    pairs = r.shape[1]
    transmit = np.zeros(pairs, dtype=bool)
    for iterations in range(1, pairs + 2):
        gain, bias = _evaluate_policy(
            np.where(transmit[:, None], P[1], P[0]), np.where(transmit, r[1], r[0])
        )
        gain_gap = P[1] @ gain - P[0] @ gain
        q = r + P @ bias
        bias_gap = q[1] - q[0]
        improved = (gain_gap > TIE_TOL) | ((gain_gap >= -TIE_TOL) & (bias_gap > TIE_TOL))
        if np.array_equal(improved, transmit):
            break
        transmit = improved
    else:
        raise RuntimeError("bound policy iteration did not settle")
    if np.ptp(gain) <= TIE_TOL:
        residual = np.abs(gain + bias - q.max(axis=0)).max()
        if residual > TIE_TOL:
            raise RuntimeError(
                f"bound policy leaves optimality-equation residual {residual!r}"
            )
    joint = np.repeat(transmit, 4).astype(float)
    return BoundResult(
        value=float(gain.mean()),
        policy=np.stack([1.0 - joint, joint], axis=1),
        iterations=iterations,
        model=model,
    )


def majority_policy(bound: BoundResult) -> dict[tuple[int, int], int]:
    """Vote the bound's policy down to the tracked device's view.

    For each (l2, o) every joint state votes its action (TRANSMIT when its
    transmit probability is strictly above one half) and the majority across
    the 2^D peer masks wins, with ties to WAIT.  upper_bound's policy is the
    greedy action of the optimality equations on every state, so the vote
    depends on no solver path.  Returns 0 for WAIT and 1 for TRANSMIT per
    (l2, o) key.
    """
    model = bound.model
    m = model.masks
    out: dict[tuple[int, int], int] = {}
    for l2 in range(m):
        for o in range(4):
            votes = 0
            for l1 in range(m):
                votes += bound.policy[model.index(l1, l2, o), 1] > 0.5
            out[(l2, o)] = 1 if votes > m // 2 else 0
    return out


def constant_policy_throughput(params: TwoDeviceParams, transmit_prob: float) -> float:
    """Single-lifetime throughput when the agent transmits with a fixed probability.

    Affine in transmit_prob: each slot both queues hold at most one fresh
    packet, the peer sends with its own fixed probability, and a delivery
    needs a lone sender that the channel then decodes.
    """
    if not 0.0 <= transmit_prob <= 1.0:
        raise ValueError(f"transmit_prob {transmit_prob} outside [0, 1]")
    p = params
    peer_sends = p.peer_transmit * p.peer_arrival
    agent_sends = transmit_prob * p.agent_arrival
    return p.peer_success * peer_sends * (1 - agent_sends) + p.agent_success * agent_sends * (
        1 - peer_sends
    )


def optimal_constant_policy(
    params: TwoDeviceParams, lifetime: int = 1
) -> tuple[str, float]:
    """Best constant agent policy at lifetime 1, in closed form.

    The throughput is affine in the agent's transmit probability, so the
    optimum sits at an endpoint: always transmit when the peer is quiet
    enough, never otherwise.
    """
    if lifetime != 1:
        raise ValueError("the constant-policy closed form only covers lifetime 1")
    p = params
    threshold = p.agent_success / (p.peer_success + p.agent_success)
    if p.peer_arrival * p.peer_transmit < threshold:
        return ALWAYS_TRANSMIT, constant_policy_throughput(params, 1.0)
    return ALWAYS_IDLE, constant_policy_throughput(params, 0.0)


def informed_optimum_lifetime1(params: TwoDeviceParams) -> float:
    """Exact genie value at lifetime 1, in closed form.

    With single-slot packets the state is just the two occupancy bits and
    the play decomposes per slot.  When only the agent holds a packet it
    transmits; when both hold one it picks the better of colliding-or-not:
    transmit earns (1-peer_transmit)*agent_success, waiting cedes the slot
    for peer_transmit*peer_success.  This is what upper_bound must equal
    at lifetime 1, including where the best constant policy is strictly
    worse.
    """
    p = params
    solo_agent = p.agent_success
    solo_peer = p.peer_transmit * p.peer_success
    contested = max(p.peer_transmit * p.peer_success, (1 - p.peer_transmit) * p.agent_success)
    return (
        p.peer_arrival * (p.agent_arrival * contested + (1 - p.agent_arrival) * solo_peer)
        + (1 - p.peer_arrival) * p.agent_arrival * solo_agent
    )
