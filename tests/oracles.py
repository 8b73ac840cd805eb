"""Independent reference computations used by the test suite.

Everything in this module is deliberately written with a different method
than the library code it checks: brute force, enumeration, or direct
Monte-Carlo counting.  Slow is fine here; these run on tiny instances.
"""

from itertools import combinations

import numpy as np

from dcra.agents import (
    EPSILON_DECAY,
    EPSILON_FLOOR,
    N_OBS,
    StateKind,
    RewardSpec,
    TabularLearner,
    reward_table,
)
from dcra.core import Action, ApFeedback, ChannelObservation, DeviceParams, LeadTimeQueue
from dcra.env import Metrics, RunResult, SlotRecord, UniformStream


def encode_state(kind: StateKind, queue: LeadTimeQueue, obs: int) -> int:
    """Flat state index of a learner that sees `queue` through `kind`; the
    observation is the minor axis throughout."""
    if kind is StateKind.FULL:
        return queue.occupancy_mask() * N_OBS + obs
    if kind is StateKind.HOL:
        return queue.hol_lead_time() * N_OBS + obs
    return (1 if queue.counts[0] else 0) * N_OBS + obs


def epsilon_at(step: int) -> float:
    """Exploration rate at 1-based step t, in closed form: max(decay^(t-1), floor)."""
    if step < 1:
        raise ValueError(f"step is 1-based, got {step}")
    return max(EPSILON_DECAY ** (step - 1), EPSILON_FLOOR)


def reward_value(spec: RewardSpec, obs: int, action: int, urgent: bool) -> float:
    """The reward_table cell of (obs, action, urgent); ValueError if no slot
    produces it."""
    reward = reward_table(spec)[obs * 4 + action * 2 + urgent]
    if reward is None:
        raise ValueError(f"no slot produces {ChannelObservation(obs).name} "
                         f"after {Action(action).name}")
    return reward


def joint_index(model, l1: int, l2: int, o: int) -> int:
    """Joint state index (l1 * 2^D + l2) * 4 + o of a two-device model."""
    m = model.masks
    if not (0 <= l1 < m and 0 <= l2 < m):
        raise ValueError(f"queue mask outside [0, {m})")
    return (l1 * m + l2) * 4 + int(o)


def joint_decode(model, s: int) -> tuple[int, int, int]:
    """(l1, l2, o) of joint state s; the inverse of joint_index."""
    pair, o = divmod(s, 4)
    return pair // model.masks, pair % model.masks, o


def q_table(learner: TabularLearner) -> np.ndarray:
    """Copy of a learner's action values as an (n_states, 2) array."""
    return np.asarray(learner.q, dtype=float).reshape(learner.n_states, 2)


def draw_arrivals(params: DeviceParams, rng: np.random.Generator) -> int:
    """Number of packets arriving in one slot: 1 with the arrival rate, else 0."""
    return 1 if rng.random() < params.arrival_rate else 0


def blind_transmit(queue_empty: bool, transmit_prob: float, u: float) -> int:
    """Blind retransmission rule: send the head-of-line packet with fixed
    probability whenever the queue is non-empty.  `u` is a uniform draw."""
    if queue_empty:
        return Action.WAIT
    return Action.TRANSMIT if u < transmit_prob else Action.WAIT


def resolve_slot(sent: list[bool], success_probs: list[float],
                 channel_u: float) -> tuple[ApFeedback, int | None, list[ChannelObservation]]:
    """Reference resolution of one slot.

    A lone sender is decoded when channel_u falls under its success
    probability; two or more senders always collide.  Observations follow the
    feedback: silence reads IDLE everywhere, an ACK reads SUCCESSFUL at the
    decoded device and BUSY elsewhere, a NACK reads FAILED everywhere.
    channel_u is examined only in the lone-sender case.
    """
    senders = [i for i, s in enumerate(sent) if s]
    n = len(sent)
    if not senders:
        return ApFeedback.NOTHING, None, [ChannelObservation.IDLE] * n
    if len(senders) == 1 and channel_u < success_probs[senders[0]]:
        winner = senders[0]
        obs = [ChannelObservation.BUSY] * n
        obs[winner] = ChannelObservation.SUCCESSFUL
        return ApFeedback.ACK, winner, obs
    return ApFeedback.NACK, None, [ChannelObservation.FAILED] * n


def one_slot_transition_mc(params, lifetime, l1, l2, action, n_samples, seed):
    """Empirical one-slot transition counts for the two-device chain.

    params is the tuple (peer arrival, agent arrival, peer success,
    agent success, peer transmit).  Simulates n_samples independent slots
    starting from queue masks (l1, l2) with the agent playing `action`,
    and returns a histogram over destination state indices
    (l1' * 2^D + l2') * 4 + o'.  Written as a direct transcription of the
    slot rules, vectorised, sharing no code with the library builder.
    """
    pb1, pb2, ps1, ps2, pt = params
    rng = np.random.default_rng(seed)
    m = 1 << lifetime
    agent_sends = bool(action) and l2 != 0
    x1 = (rng.random(n_samples) < pt) if l1 != 0 else np.zeros(n_samples, bool)
    x2 = np.full(n_samples, agent_sends)
    u = rng.random(n_samples)  # one channel draw per slot
    lone1 = x1 & ~x2
    lone2 = x2 & ~x1
    d1 = lone1 & (u < ps1)
    d2 = lone2 & (u < ps2)
    o = np.zeros(n_samples, np.int64)
    o[d1] = 1
    o[d2] = 2
    o[(lone1 & ~d1) | (lone2 & ~d2) | (x1 & x2)] = 3
    a1 = rng.random(n_samples) < pb1
    a2 = rng.random(n_samples) < pb2
    m1 = np.where(d1, l1 & (l1 - 1), l1) >> 1 | (a1.astype(np.int64) << (lifetime - 1))
    m2 = np.where(d2, l2 & (l2 - 1), l2) >> 1 | (a2.astype(np.int64) << (lifetime - 1))
    dest = (m1 * m + m2) * 4 + o
    return np.bincount(dest, minlength=m * m * 4)


def relative_value_iteration(P, rewards, tol=1e-13, max_iter=200000):
    """Average-reward optimum by relative value iteration.

    P has shape (2, S, S), rewards (S,).  Returns (gain, action_values)
    where action_values is the converged (S, 2) relative Q.  Independent
    dynamic-programming check on the LP bound.
    """
    n = rewards.shape[0]
    h = np.zeros(n)
    for _ in range(max_iter):
        q = np.stack([rewards + P[a] @ h for a in (0, 1)], axis=1)
        hn = q.max(axis=1)
        gain = hn[0]
        hn = hn - gain
        if np.abs(hn - h).max() < tol:
            h = hn
            break
        h = hn
    q = np.stack([rewards + P[a] @ h for a in (0, 1)], axis=1)
    return gain, q


def _evaluate_policy(P, r):
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


def policy_iteration_bound(model, tie_tol=1e-9):
    """(value, transmit) of the genie MDP by Howard policy iteration.

    Works on the (l1, l2) pair chain, summed out of the model's kernel
    here.  From all-WAIT: evaluate the policy for (g, h) with dense solves,
    switch every pair to the greedy action, gain first (P_a g) and then
    bias (r_a + P_a h), with ties within tie_tol to WAIT, and stop when the
    policy no longer changes.  The value is the gain averaged over the
    pairs, which weighs the joint states uniformly.  A second method for
    lifetimes beyond the LP oracle's reach (about 0.3 s a point at D=5).
    """
    pairs = model.masks * model.masks
    P = model.kernel.reshape(2, pairs, pairs, 4).sum(axis=3)
    r = model.kernel @ model.rewards
    transmit = np.zeros(pairs, dtype=bool)
    for _ in range(pairs + 1):
        gain, bias = _evaluate_policy(
            np.where(transmit[:, None], P[1], P[0]), np.where(transmit, r[1], r[0])
        )
        gain_gap = P[1] @ gain - P[0] @ gain
        bias_gap = (r[1] + P[1] @ bias) - (r[0] + P[0] @ bias)
        improved = (gain_gap > tie_tol) | ((gain_gap >= -tie_tol) & (bias_gap > tie_tol))
        if np.array_equal(improved, transmit):
            return float(gain.mean()), transmit
        transmit = improved
    raise AssertionError("policy iteration did not settle")


def vi_majority(model, action_values, tie_tol=1e-9):
    """Majority vote of the VI-optimal action per (l2, o), ties to WAIT."""
    m = model.masks
    out = {}
    for l2 in range(m):
        for o in range(4):
            votes = 0
            for l1 in range(m):
                s = joint_index(model, l1, l2, o)
                votes += action_values[s, 1] > action_values[s, 0] + tie_tol
            out[(l2, o)] = 1 if votes > m // 2 else 0
    return out


def enumerate_lp_max(c, A, b):
    """Maximise c.x over {A x = b, x >= 0} by enumerating basic solutions.

    Only usable when the feasible set is bounded and A has full row rank;
    the tests construct instances that satisfy both.  Returns (value, x) of
    the best feasible vertex, or None when no basis is feasible.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    best = None
    for cols in combinations(range(n), m):
        B = A[:, cols]
        try:
            xb = np.linalg.solve(B, b)
        except np.linalg.LinAlgError:
            continue
        if not np.isfinite(xb).all():
            continue
        if (xb < -1e-9).any():
            continue
        x = np.zeros(n)
        x[list(cols)] = np.clip(xb, 0.0, None)
        if np.abs(A @ x - b).max(initial=0.0) > 1e-7:
            continue
        value = float(c @ x)
        if best is None or value > best[0]:
            best = (value, x)
    return best


def read_mps(path):
    """(name, c, A, b) of a fixed-field MPS file, read back field by field.

    Knows only what an equality-form maximisation written in minimise
    convention holds: E rows, a COST row carrying -c, COLUMNS and RHS
    entries.  Rows and columns are numbered in order of first appearance.
    """
    name, rows, cols, entries, costs, rhs = None, {}, {}, [], {}, {}
    section = None
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("*"):
                continue
            if not line.startswith(" "):
                section, *rest = line.split()
                name = rest[0] if section == "NAME" else name
                continue
            fields = line.split()
            if section == "ROWS" and fields[0] == "E":
                rows[fields[1]] = len(rows)
            elif section == "COLUMNS":
                col, row, value = fields
                j = cols.setdefault(col, len(cols))
                if row == "COST":
                    costs[j] = -float(value)
                else:
                    entries.append((rows[row], j, float(value)))
            elif section == "RHS":
                rhs[rows[fields[1]]] = float(fields[2])
    c, A, b = np.zeros(len(cols)), np.zeros((len(rows), len(cols))), np.zeros(len(rows))
    for j, value in costs.items():
        c[j] = value
    for i, j, value in entries:
        A[i, j] = value
    for i, value in rhs.items():
        b[i] = value
    return name, c, A, b


def reference_run(config, trace=False):
    """Slot-by-slot twin of dcra.env.run through the single-step API.

    Every draw goes through UniformStream.random one slot at a time, slots
    resolve through resolve_slot, queues are LeadTimeQueue objects advanced
    by their own method, learners act through select/update on states from
    encode_state, and rewards come from reward_value.  Same streams, same
    draw order, so run() must reproduce its metrics, trace and learners
    exactly.
    """
    devices = config.devices
    n = len(devices)
    horizon = config.horizon

    seed_seq = np.random.SeedSequence(config.seed)
    children = seed_seq.spawn(2 * n + 1)
    channel = UniformStream(children[n])

    arrival_streams = [UniformStream(children[i]) for i in range(n)]
    success_probs = [dev.params.success_prob for dev in devices]
    queues = [LeadTimeQueue.empty(config.lifetime) for _ in range(n)]

    learners = []
    blind_prob = []
    states = []
    policy = []
    for i, dev in enumerate(devices):
        stream = UniformStream(children[n + 1 + i])
        policy.append(stream)
        if dev.agent.is_learner:
            learner = TabularLearner(dev.agent.kind, config.lifetime, stream)
            learners.append(learner)
            blind_prob.append(0.0)
            states.append(encode_state(learner.state_kind, queues[i], 0))
        else:
            learners.append(None)
            blind_prob.append(dev.blind_transmit_prob())
            states.append(0)

    delivered_arr = np.zeros(horizon, dtype=np.uint8)
    senders_arr = np.zeros(horizon, dtype=np.int16)
    records = [] if trace else None
    deliveries_cum = 0
    transmissions_cum = 0
    sent = [False] * n
    actions = [0] * n

    for t in range(horizon):
        for i in range(n):
            learner = learners[i]
            nonempty = not queues[i].is_empty
            if learner is None:
                sent[i] = nonempty and policy[i].random() < blind_prob[i]
            else:
                actions[i] = learner.select(states[i])
                sent[i] = bool(actions[i]) and nonempty
        n_send = sum(sent)
        feedback, winner, obs = resolve_slot(sent, success_probs, channel.random())
        obs = [int(o) for o in obs]  # run() records plain ints, and traces compare by repr

        slot_arrivals = [0] * n
        slot_expired = [0] * n
        for i in range(n):
            arrivals = 1 if arrival_streams[i].random() < devices[i].params.arrival_rate else 0
            urgent = queues[i].urgent()
            expired = queues[i].advance(i == winner, arrivals)
            learner = learners[i]
            if learner is not None:
                next_state = encode_state(learner.state_kind, queues[i], obs[i])
                reward = reward_value(devices[i].agent.reward, obs[i], int(sent[i]), urgent)
                learner.update(states[i], actions[i], reward, next_state)
                states[i] = next_state
            slot_arrivals[i] = arrivals
            slot_expired[i] = expired

        if winner is not None:
            delivered_arr[t] = 1
            deliveries_cum += 1
        senders_arr[t] = n_send
        transmissions_cum += n_send

        if records is not None:
            records.append(SlotRecord(
                slot=t + 1,
                sent=tuple(sent),
                feedback=feedback,
                winner=winner,
                observations=tuple(obs),
                arrivals=tuple(slot_arrivals),
                expired=tuple(slot_expired),
                backlog=tuple(q.total() for q in queues),
                deliveries_cum=deliveries_cum,
                transmissions_cum=transmissions_cum,
            ))

    return RunResult(
        config=config,
        metrics=Metrics(delivered=delivered_arr, senders=senders_arr),
        learners=tuple(learners),
        trace=records,
    )
