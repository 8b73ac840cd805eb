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
source observation, so the model stores, for each action and pair
l1 * 2^D + l2, the 24 successors of a slot's six outcomes under four
arrival combinations (see TwoDeviceModel).

upper_bound solves the MDP by policy iteration on the (l1, l2) pairs and
certifies its value by the gain interval of its last step.  lp_columns
reads the paper's dual LP over the joint states off the table, which
write_mps exports and bound_program fills in densely for the tests.  The
dense joint tensor `transitions` is kept for the tests and the benchmark
harness only.

The table takes 768 * 4^D bytes.  No array of a bound may take over
MAX_ARRAY_BYTES (1 GiB), checked before it is allocated: upper_bound's
policy system, 8 * 16^D bytes, fits up to D=6, bound_program's matrix,
64 * n_states^2, to D=5.
"""

from __future__ import annotations

from collections.abc import Iterator
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
    "lp_columns",
    "majority_policy",
    "optimal_constant_policy",
    "upper_bound",
    "write_mps",
]

ALWAYS_TRANSMIT = "always-transmit"
ALWAYS_IDLE = "always-idle"
TIE_TOL = 1e-9  # action values closer than this tie, and ties go to WAIT
GAIN_TOL = 1e-12  # upper_bound stops once its gain interval is this wide
MAX_STEPS = 1_000  # upper_bound's step cap; no point tried took more than 5
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
    """Successor table [a, l1 * masks + l2, 4k + c] and rewards of the joint chain.

    _build reads outcome k of a slot off six rows: collision, agent decoded
    or not, peer decoded or not, idle.  A row holds the outcome's probability
    given whether the peer holds a packet and whether the agent sends, who
    delivers, and the agent's next observation; with arrival combination c it
    gives `successors`, the joint destination pair' * 4 + o', and `probs`.
    Zeros stay, so a destination can repeat; its entries add in table order.
    """

    def __init__(self, params: TwoDeviceParams, lifetime: int):
        if lifetime < 1:
            raise ValueError(f"lifetime must be >= 1, got {lifetime}")
        self.params = params
        self.lifetime = lifetime
        self.masks = 1 << lifetime
        self.n_states = self.masks * self.masks * 4
        _check_array_bytes(lifetime, "policy system", 8 * self.masks**4)
        self.successors, self.probs = self._build()
        earns = (ChannelObservation.BUSY, ChannelObservation.SUCCESSFUL)
        self.rewards = np.isin(np.arange(self.n_states) % 4, earns).astype(float)

    def _build(self) -> tuple[np.ndarray, np.ndarray]:
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
        successors = np.empty((2, m * m, len(outcomes), 4), dtype=np.intp)
        probs = np.empty((2, m * m, len(outcomes), 4))
        for a, sends in enumerate((np.zeros(m * m, dtype=bool), l2 != 0)):
            for k, ((both, peer_only, agent_only, neither), d1, d2, obs) in enumerate(outcomes):
                prob = np.where(peer, np.where(sends, both, peer_only),
                                np.where(sends, agent_only, neither))
                # a delivery clears the most urgent (lowest) set bit, then
                # every packet ages one slot
                pair = ((l1 & (l1 - 1) if d1 else l1) >> 1) * m + (
                    (l2 & (l2 - 1) if d2 else l2) >> 1)
                successors[a, :, k] = (pair[:, None] + arrived) * 4 + obs
                probs[a, :, k] = prob[:, None] * pa
        return successors.reshape(2, m * m, -1), probs.reshape(2, m * m, -1)

    @cached_property
    def transitions(self) -> np.ndarray:
        """Dense joint tensor, the table added up per source observation.

        Only the tests and the benchmark harness read it; no bound or export does.
        """
        pairs = self.masks * self.masks
        _check_array_bytes(self.lifetime, "joint tensor", 8 * 2 * 4 * pairs * self.n_states)
        rows = np.zeros((2, pairs, self.n_states))
        np.add.at(rows, (np.arange(2)[:, None, None], np.arange(pairs)[:, None],
                         self.successors), self.probs)
        return np.repeat(rows, 4, axis=1)


def build_mdp(params: TwoDeviceParams, lifetime: int) -> TwoDeviceModel:
    return TwoDeviceModel(params, lifetime)


@dataclass(frozen=True)
class BoundResult:
    """Upper-bound value with a deterministic optimal policy that attains it.

    `transmit[l1 * 2^D + l2]` is the greedy action of the average-reward
    optimality equations on the pair (l1, l2), True for TRANSMIT (ties
    within TIE_TOL to WAIT); a joint state takes the action of its pair,
    whatever its observation.  `gain_interval` (low, high) holds the
    optimal gain, at most GAIN_TOL wide, and `value` is its midpoint;
    `iterations` counts upper_bound's steps.
    """

    value: float
    gain_interval: tuple[float, float]
    transmit: np.ndarray  # (4^D,) bool, one action per (l1, l2) pair
    iterations: int
    model: TwoDeviceModel


def lp_columns(model: TwoDeviceModel) -> Iterator[list[tuple[int, float]]]:
    """The paper's average-reward dual LP, one column at a time from the table.

    x(s,a), column 2s+a, are the state-action occupancies and y(s,a),
    column 2n+2s+a, an auxiliary block that pins down transient states;
    both are nonnegative.  Rows s' and n+s' hold, for every state s':

        sum_a x(s',a) = sum_{s,a} P(s'|s,a) x(s,a)
        sum_a x(s',a) + sum_a y(s',a) - sum_{s,a} P(s'|s,a) y(s,a) = 1/|S|

    Yields each column's nonzero (row, value) entries in row order.  A flow
    entry is 1 or 0, on or off the diagonal, less P(s'|s,a), the table's
    entries of s' added in table order: I - P^T to the bit.
    """
    n = model.n_states
    successors = {}  # (action, pair): P(s'|pair, a) by s', added in table order
    for a, pair in np.ndindex(2, model.masks**2):
        merged = successors[a, pair] = {}
        for d, p in zip(model.successors[a, pair].tolist(), model.probs[a, pair].tolist()):
            merged[d] = merged.get(d, 0.0) + p

    def flow(s: int, a: int, row: int) -> list[tuple[int, float]]:
        entries = {s: 1.0}
        for d, p in successors[a, s // 4].items():
            entries[d] = (1.0 if d == s else 0.0) - p
        return sorted((row + d, v) for d, v in entries.items() if v != 0.0)

    for s, a in np.ndindex(n, 2):
        yield flow(s, a, 0) + [(n + s, 1.0)]
    for s, a in np.ndindex(n, 2):
        yield flow(s, a, n)


def bound_program(model: TwoDeviceModel) -> LpProgram:
    """lp_columns' LP, maximising sum r(s) x(s,a), with its (2n, 4n) matrix dense.

    upper_bound does not solve it; the tests' LP oracle does, and the
    benchmark harness times it by name.
    """
    n = model.n_states
    _check_array_bytes(model.lifetime, "LP matrix", 8 * 2 * n * 4 * n)
    A = np.zeros((2 * n, 4 * n))
    for col, entries in enumerate(lp_columns(model)):
        for row, value in entries:
            A[row, col] = value
    b = np.concatenate([np.zeros(n), np.full(n, 1.0 / n)])
    c = np.concatenate([np.repeat(model.rewards, 2), np.zeros(2 * n)])
    return LpProgram(c, A, b)


def write_mps(model: TwoDeviceModel, path: str) -> None:
    """Write lp_columns' LP in fixed-field MPS; zeros are not written.

    Column j is X<j+1> and row i R<i+1>.  MPS readers minimise, so the
    objective row carries the negated rewards.  An OSError surfaces as
    RuntimeError("cannot write <path>: ..."), as in write_csv.
    """
    n, rewards = model.n_states, model.rewards.tolist()
    row = [f"R{i + 1:07d}" for i in range(2 * n)]

    def columns():
        for j, entries in enumerate(lp_columns(model)):
            name = f"X{j + 1:07d}"
            cost = rewards[j // 2] if j < 2 * n else 0.0
            yield (f"    {name}  COST      {-cost:.12E}\n" if cost else "") + "".join(
                f"    {name}  {row[i]}  {v:.12E}\n" for i, v in entries)

    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("* Maximisation program exported in minimise convention:\n"
                     "* objective coefficients are negated.\n"
                     f"NAME          DCRA-D{model.lifetime}\nROWS\n N  COST\n")
            fh.writelines(f" E  {name}\n" for name in row)
            fh.write("COLUMNS\n")
            fh.writelines(columns())
            fh.write("RHS\n")
            rhs = f"{1.0 / n:.12E}"
            fh.writelines(f"    RHS       {name}  {rhs}\n" for name in row[n:])
            fh.write("ENDATA\n")
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc


def _policy_bias(model: TwoDeviceModel, r: np.ndarray, transmit: np.ndarray) -> np.ndarray:
    """Bias h of the pair chain under the policy `transmit`, with h[0] = 0.

    g + h = r_pi + P_pi h with h pinned to 0 at pair 0 is one dense solve,
    column 0 carrying g.  I - P_pi is added up from the policy's rows of the
    successor table, so no (2, 4^D, 4^D) pair chain is held.  The system is
    singular, and np.linalg.solve raises LinAlgError, when the policy's
    chain splits into several recurrent classes (possible only with an
    arrival probability of exactly 1).
    """
    pairs = model.masks * model.masks
    act, rows = transmit.astype(np.intp), np.arange(pairs)
    system = np.zeros((pairs, pairs))
    np.add.at(system, (rows[:, None], model.successors[act, rows] >> 2),
              -model.probs[act, rows])
    system.flat[:: pairs + 1] += 1.0
    system[:, 0] = 1.0
    bias = np.linalg.solve(system, r[act, rows])
    bias[0] = 0.0
    return bias


def upper_bound(model: TwoDeviceModel) -> BoundResult:
    """Best average reward of the genie MDP, by policy iteration.

    Runs on the (l1, l2) pairs, 4x fewer than the joint states (Puterman
    1994, ch. 8-9): with r(pair, a) = P_a(pair) . rewards, the reward the
    joint chain collects one slot later, a bias h on the pairs has action
    values q_a = r_a + P_a h, each a sum over the pair's 24 table entries.
    Each step takes q_a and Th = max_a q_a.  For any h the optimal gain lies
    in min(Th - h) <= g* <= max(Th - h) (Odoni 1969), so the steps stop once
    that interval is GAIN_TOL wide; it is clipped into [0, 1], where the
    rewards lie, and the value is its midpoint.  Until then h becomes the
    bias of the greedy policy (see _policy_bias), from h = 0; the policy of
    the step before, or one whose chain has several recurrent classes and so
    no bias solve, takes the relative value-iteration step h = Th - Th[0]
    instead.  The Q-gaps of a joint state equal those of its pair, so each
    pair's greedy action of the last step, taken in all four of its
    observations, is an optimal joint policy.
    """
    probs, to_pair = model.probs, model.successors >> 2
    r = (probs * model.rewards[model.successors]).sum(2)
    h, policy = np.zeros(model.masks * model.masks), None
    for steps in range(1, MAX_STEPS + 1):
        q = r + (probs * h[to_pair]).sum(2)
        th = q.max(axis=0)
        low, high = float((th - h).min()), float((th - h).max())
        if high - low <= GAIN_TOL:
            break
        greedy, h = q[1] > q[0], th - th[0]
        if not np.array_equal(greedy, policy):
            policy = greedy
            try:
                h = _policy_bias(model, r, policy)
            except np.linalg.LinAlgError:
                pass
    else:
        raise RuntimeError(f"bound policy iteration did not settle: gain in "
                           f"[{low!r}, {high!r}] after {MAX_STEPS} steps")
    low, high = min(max(low, 0.0), 1.0), min(max(high, 0.0), 1.0)
    return BoundResult(value=(low + high) / 2, gain_interval=(low, high),
                       transmit=q[1] - q[0] > TIE_TOL, iterations=steps, model=model)


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
