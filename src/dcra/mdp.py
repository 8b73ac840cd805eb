"""Exact two-device model and its average-reward throughput bound.

The tracked device (the one whose policy we optimise) shares a collision
channel with a blind peer that retransmits whenever it holds a packet, with
a fixed probability per slot.  Enumerating both lead-time queues and the
tracked device's channel observation gives a finite MDP whose maximal
average reward upper-bounds every decentralised policy: the genie here sees
the peer queue, which no real agent can.

State index layout: s = (l1 * 2^D + l2) * 4 + o with observation order
IDLE, BUSY, SUCCESSFUL, FAILED.  l1 and l2 are lead-time bitmasks, bit k
set meaning a packet expiring in k+1 slots.  No transition depends on the
source observation, so the model stores one row per pair: its kernel, shape
(2, 4^D, n_states), holds P(s' | l1, l2, a) in row l1 * 2^D + l2, read off
a table of the six outcomes of a slot (see TwoDeviceModel).

upper_bound solves the MDP by policy iteration on the (l1, l2) pairs.  The
paper's dual LP over the joint states (bound_program) is kept for export to
external solvers and as an independent check.

Both grow sixteenfold per lifetime.  No array of a bound may take over
MAX_ARRAY_BYTES (1 GiB), checked before it is allocated: the kernel, 64 * 16^D
bytes, fits up to D=6, bound_program's matrix, 64 * n_states^2, to D=5.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from functools import cached_property

import numpy as np

from .core import ChannelObservation, check_probability
# solve_lp stays importable as mdp.solve_lp for tools that wrap it by name
from .simplex import LpProgram, solve_lp  # noqa: F401

__all__ = [
    "ALWAYS_IDLE",
    "ALWAYS_TRANSMIT",
    "BoundResult",
    "MAX_ARRAY_BYTES",
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
MAX_ARRAY_BYTES = 1 << 30  # the most bytes one array of a bound may take


def _check_array_bytes(lifetime: int, what: str, nbytes: int) -> None:
    if nbytes > MAX_ARRAY_BYTES:
        raise ValueError(f"lifetime {lifetime} needs a {nbytes / 2**30:g} GiB {what}, "
                         f"over the {MAX_ARRAY_BYTES / 2**30:g} GiB one array may take")


@dataclass(frozen=True)
class TwoDeviceParams:
    """Probabilities of the canonical two-device scenario.

    Field order follows the conventional tuple
    (peer arrival, agent arrival, peer success, agent success, peer transmit),
    and so do as_tuple and the CSV parameter columns.
    """

    peer_arrival: float
    agent_arrival: float
    peer_success: float
    agent_success: float
    peer_transmit: float

    def __post_init__(self) -> None:
        for f in fields(self):
            check_probability(f.name, getattr(self, f.name))

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return astuple(self)


class TwoDeviceModel:
    """Pair kernel [a, l1 * masks + l2, s'] and reward vector of the joint chain.

    _build reads the kernel off a table of the six slot outcomes: collision,
    agent decoded or not, peer decoded or not, idle.  A row holds the
    outcome's probability given whether the peer holds a packet and whether
    the agent sends, who delivers, and the agent's next observation.  Each
    row is added over all pairs and arrival combinations at once; a cell
    gathers at most two nonzero terms, in row order, so no sum is reordered.
    """

    def __init__(self, params: TwoDeviceParams, lifetime: int):
        if lifetime < 1:
            raise ValueError(f"lifetime must be >= 1, got {lifetime}")
        self.params = params
        self.lifetime = lifetime
        self.masks = 1 << lifetime
        self.n_states = self.masks * self.masks * 4
        _check_array_bytes(lifetime, "kernel", 8 * 2 * self.masks**2 * self.n_states)
        self.kernel = self._build()
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
        p, m = self.params, self.masks
        pt, ks = p.peer_transmit, p.agent_success
        o = ChannelObservation
        # P given (peer holds, agent sends) = (y, y), (y, n), (n, y), (n, n);
        # whether the peer and the agent deliver; the observation
        outcomes = (
            ((pt, 0.0, 0.0, 0.0), False, False, o.FAILED),  # collision
            (((1 - pt) * ks, 0.0, ks, 0.0), False, True, o.SUCCESSFUL),  # agent decoded
            (((1 - pt) * (1 - ks), 0.0, 1 - ks, 0.0), False, False, o.FAILED),  # not decoded
            ((0.0, pt * p.peer_success, 0.0, 0.0), True, False, o.BUSY),  # peer decoded
            ((0.0, pt * (1 - p.peer_success), 0.0, 0.0), False, False, o.FAILED),  # not decoded
            ((0.0, 1 - pt, 0.0, 1.0), False, False, o.IDLE),  # idle
        )
        l1, l2 = np.divmod(np.arange(m * m), m)
        peer = l1 != 0
        # arrival combinations (peer, agent) = (0, 0), (0, 1), (1, 0), (1, 1):
        # their probabilities and the top bits they set in the next pair
        pa = np.outer([1 - p.peer_arrival, p.peer_arrival],
                      [1 - p.agent_arrival, p.agent_arrival]).ravel()
        arrived = np.array([0, 1, m, m + 1]) << (self.lifetime - 1)
        rows = np.arange(m * m)[:, None]
        kernel = np.zeros((2, m * m, self.n_states))
        for a, sends in enumerate((np.zeros(m * m, dtype=bool), l2 != 0)):
            for (both, peer_only, agent_only, neither), d1, d2, obs in outcomes:
                prob = np.where(peer, np.where(sends, both, peer_only),
                                np.where(sends, agent_only, neither))
                # a delivery clears the most urgent (lowest) set bit, then
                # every packet ages one slot
                pair = ((l1 & (l1 - 1) if d1 else l1) >> 1) * m + (
                    (l2 & (l2 - 1) if d2 else l2) >> 1)
                kernel[a, rows, (pair[:, None] + arrived) * 4 + obs] += prob[:, None] * pa
        return kernel

    @cached_property
    def transitions(self) -> np.ndarray:
        """Dense joint tensor: each pair's kernel row for its 4 source observations."""
        _check_array_bytes(self.lifetime, "joint tensor", 4 * self.kernel.nbytes)
        return np.repeat(self.kernel, 4, axis=1)


def build_mdp(params: TwoDeviceParams, lifetime: int) -> TwoDeviceModel:
    return TwoDeviceModel(params, lifetime)


@dataclass(frozen=True)
class BoundResult:
    """Upper-bound value with a deterministic optimal policy that attains it.

    `transmit[l1 * 2^D + l2]` is the greedy action of the average-reward
    optimality equations on the pair (l1, l2), True for TRANSMIT (ties
    within TIE_TOL to WAIT); a joint state takes the action of its pair,
    whatever its observation.  `iterations` counts the policy-iteration
    steps.
    """

    value: float
    transmit: np.ndarray  # (4^D,) bool, one action per (l1, l2) pair
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
    independent check on upper_bound.  Its (2n, 4n) matrix is dense.
    """
    n = model.n_states
    _check_array_bytes(model.lifetime, "LP matrix", 8 * 2 * n * 4 * n)
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

    The model's kernel holds one row per pair over the joint destinations
    s' = pair' * 4 + o'; summing the destination observations out leaves
    the pair chain, and r(pair, a) = P_a(pair) . rewards is the reward the
    joint chain collects one slot later.
    """
    kernel, pairs = model.kernel, model.masks * model.masks
    return kernel.reshape(2, pairs, pairs, 4).sum(axis=3), kernel @ model.rewards


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
    state equal those of its pair, so each pair's action, taken in all four
    of its observations, is an optimal joint policy.  The value is the gain
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
    return BoundResult(
        value=float(gain.mean()), transmit=transmit, iterations=iterations, model=model
    )


def majority_policy(bound: BoundResult) -> dict[tuple[int, int], int]:
    """Vote the bound's policy down to the tracked device's view.

    For each l2 every pair (l1, l2) votes its action and the majority across
    the 2^D peer masks wins, with ties to WAIT; the vote is the same for all
    four observations o.  upper_bound's policy is the greedy action of the
    optimality equations on every pair, so the vote depends on no solver
    path.  Returns 0 for WAIT and 1 for TRANSMIT per (l2, o) key.
    """
    m = bound.model.masks
    wins = bound.transmit.reshape(m, m).sum(axis=0) > m // 2
    return {(l2, o): int(wins[l2]) for l2 in range(m) for o in range(4)}


def constant_policy_throughput(params: TwoDeviceParams, transmit_prob: float) -> float:
    """Single-lifetime throughput when the agent transmits with a fixed probability.

    Affine in transmit_prob: each slot both queues hold at most one fresh
    packet, the peer sends with its own fixed probability, and a delivery
    needs a lone sender that the channel then decodes.
    """
    check_probability("transmit_prob", transmit_prob)
    p = params
    peer_sends = p.peer_transmit * p.peer_arrival
    agent_sends = transmit_prob * p.agent_arrival
    return p.peer_success * peer_sends * (1 - agent_sends) + p.agent_success * agent_sends * (
        1 - peer_sends
    )


def optimal_constant_policy(params: TwoDeviceParams) -> tuple[str, float]:
    """Best constant agent policy at lifetime 1, in closed form.

    The throughput is affine in the agent's transmit probability, so the
    optimum sits at an endpoint: always transmit when the peer is quiet
    enough, never otherwise.
    """
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
