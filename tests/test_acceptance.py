"""End-to-end acceptance checks at the reference operating points.

Every test here prints one summary line tagged [acceptance] with the
measured numbers, so a verbose run (-v -s) doubles as a results table.
The suite is seeded and deterministic but slow, about six minutes on one
core; deselect it during development with  pytest -m "not acceptance".

The full-state learner's checks compare against the exact bound at the
reference point: its gain estimate against the bound's value, and its
greedy table against the bound's majority policy, counting a TRANSMIT on
an empty queue as the WAIT it physically is.
"""

import csv
from functools import partial

import numpy as np
import pytest

from oracles import epsilon_at, joint_index, one_slot_transition_mc, relative_value_iteration

from dcra import experiments
from dcra.agents import RewardSpec
from dcra.core import DeviceParams
from dcra.env import AgentSpec, DeviceSetup, ScenarioConfig, run, write_trace_csv
from dcra.mdp import (
    ALWAYS_TRANSMIT,
    TwoDeviceParams,
    bound_program,
    build_mdp,
    constant_policy_throughput,
    informed_optimum_lifetime1,
    majority_policy,
    optimal_constant_policy,
    upper_bound,
)
from dcra.simplex import solve_lp

pytestmark = pytest.mark.acceptance

MASTER = 20260816
REF = TwoDeviceParams(0.5, 0.4, 0.7, 0.6, 0.4)
OBS_NAMES = "IBSF"


def report(label: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    if not ok:
        pytest.fail(line, pytrace=False)


def two_device(params, lifetime, horizon, seed, agent_spec):
    peer = DeviceSetup(
        DeviceParams(
            params.peer_arrival, params.peer_success, transmit_prob=params.peer_transmit
        ),
        AgentSpec("blind"),
    )
    agent = DeviceSetup(
        DeviceParams(params.agent_arrival, params.agent_success), agent_spec
    )
    return ScenarioConfig(
        lifetime=lifetime, horizon=horizon, seed=seed, devices=(peer, agent)
    )


def final_throughput(cfg, window):
    """Throughput of one run over its last `window` slots, as a _run_all task."""
    return run(cfg).metrics.timely_throughput(window)


def shared_channel(n_devices, lifetime, horizon, seed, spec_factory):
    """N symmetric-role devices, per-device params from one seeded stream."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 77)))
    devices = []
    for _ in range(n_devices):
        arrival = 0.1 + 0.9 * rng.random()
        success = 0.1 + 0.9 * rng.random()
        devices.append(DeviceSetup(DeviceParams(arrival, success), spec_factory()))
    return ScenarioConfig(
        lifetime=lifetime, horizon=horizon, seed=(seed, 0), devices=tuple(devices)
    )


# -- single-slot lifetime: bound == closed form == simulation ----------------


def test_single_lifetime_closed_forms():
    # Restrict to tuples where transmitting is also the better move in
    # contested slots (peer_transmit strictly below the success-ratio
    # threshold).  There the genie value is reachable by always-transmit,
    # so the LP, both closed forms, and a long blind simulation must agree.
    rng = np.random.default_rng(np.random.SeedSequence((MASTER, 1)))
    tuples = [REF]
    while len(tuples) < 51:
        pb1, pb2, ps1, ps2, pt = rng.random(5)
        if pt < ps2 / (ps1 + ps2):
            tuples.append(TwoDeviceParams(pb1, pb2, ps1, ps2, pt))

    worst_lp = 0.0
    informed, configs = [], []
    for i, params in enumerate(tuples):
        informed.append(informed_optimum_lifetime1(params))
        kind, constant = optimal_constant_policy(params)
        assert kind == ALWAYS_TRANSMIT
        bound = upper_bound(build_mdp(params, 1)).value
        worst_lp = max(worst_lp, abs(bound - informed[-1]), abs(constant - informed[-1]))
        configs.append(two_device(
            params, 1, 1_000_000, (MASTER, 1, i), AgentSpec("blind", transmit_prob=1.0)
        ))
    # the blind runs are independent: fan them out like a sweep
    stats = experiments._run_all(partial(experiments._window_stats, window=None), configs)
    worst_sim = max(abs(sim - value) for (sim, _), value in zip(stats, informed))

    ref_bound = upper_bound(build_mdp(REF, 1)).value
    ok = worst_lp <= 1e-6 and worst_sim <= 0.005 and abs(ref_bound - 0.276) <= 1e-9
    report(
        "single-slot closed forms",
        ok,
        f"51 tuples, max |bound-closed| {worst_lp:.2e}, max sim error "
        f"{worst_sim:.4f}, reference point {ref_bound:.6f}",
    )


# -- transition tensor vs direct Monte-Carlo ---------------------------------


def test_transition_model_matches_monte_carlo():
    # Frequencies from a vectorised transcription of the slot rules must sit
    # within 3 sigma of every model row, zero-probability cells must never
    # be hit, and the source observation must not matter.
    cases = [(REF, MASTER), (TwoDeviceParams(0.9, 0.2, 0.35, 0.85, 0.6), 4)]
    n = 1_000_000
    worst_z = 0.0
    structure_ok = True
    rows = 0
    for params, base in cases:
        for lifetime in (1, 2):
            model = build_mdp(params, lifetime)
            m = model.masks
            if np.abs(model.transitions.sum(axis=2) - 1.0).max() > 1e-12:
                structure_ok = False
            for l1 in range(m):
                for l2 in range(m):
                    for o in range(1, 4):
                        for a in (0, 1):
                            if not np.array_equal(
                                model.transitions[a, joint_index(model, l1, l2, o)],
                                model.transitions[a, joint_index(model, l1, l2, 0)],
                            ):
                                structure_ok = False
                    for a in (0, 1):
                        counts = one_slot_transition_mc(
                            params.as_tuple(),
                            lifetime,
                            l1,
                            l2,
                            a,
                            n,
                            (base, lifetime, l1, l2, a),
                        )
                        p = model.transitions[a, joint_index(model, l1, l2, 0)]
                        if counts[p == 0.0].any():
                            structure_ok = False
                        live = p > 0.0
                        sigma = np.sqrt(p[live] * (1 - p[live]) / n)
                        z = np.abs(counts[live] / n - p[live]) / sigma
                        worst_z = max(worst_z, float(z.max()))
                        rows += 1
    ok = structure_ok and worst_z <= 3.0
    report(
        "transition model vs Monte-Carlo",
        ok,
        f"{rows} rows x 1e6 samples, worst |z| {worst_z:.3f}, row sums and "
        f"zero cells {'clean' if structure_ok else 'BROKEN'}",
    )


# -- bound dominance and learner gap over a parameter sweep ------------------


@pytest.fixture(scope="module")
def bound_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "sweep.csv"
    return experiments.run_sweep(
        groups=20,
        lifetimes=(1, 2, 3),
        agents=("r-tiny", "blind"),
        seed=MASTER,
        slots=200_000,
        window=50_000,
        with_bound=True,
        out_path=str(out),
    )


def test_bound_dominates_simulated_policies(bound_sweep):
    bound = np.array(bound_sweep.column("bound"))
    learner = np.array(bound_sweep.column("throughput_r-tiny"))
    aloha = np.array(bound_sweep.column("throughput_blind"))
    excess = np.maximum(learner, aloha) - (bound + 0.01)
    violations = int((excess > 0).sum())
    report(
        "bound dominates simulated policies",
        violations == 0,
        f"60 tuples x 2 policies, {violations} violations, "
        f"worst margin {float(excess.max()):+.4f}",
    )


def test_mean_learner_gap_to_bound(bound_sweep):
    bound = np.array(bound_sweep.column("bound"))
    learner = np.array(bound_sweep.column("throughput_r-tiny"))
    lifetimes = np.array(bound_sweep.column("lifetime"))
    gaps = (bound - learner) / bound
    per = {d: float(gaps[lifetimes == d].mean()) for d in (1, 2, 3)}
    mean_gap = float(gaps.mean())
    report(
        "mean learner gap to bound",
        mean_gap <= 0.08,
        "mean relative gap "
        + ", ".join(f"D={d}: {v * 100:.2f}%" for d, v in per.items())
        + f", overall {mean_gap * 100:.2f}% (limit 8%)",
    )


# -- average-reward vs discounted learning at a long deadline ----------------


def test_average_reward_beats_discounted_at_long_deadline():
    # With deadline 5 the discounted learner keeps drifting while the
    # average-reward variant settles; demand a 3-point margin per seed.
    configs = [two_device(REF, 5, 1_000_000, seed, AgentSpec(kind))
               for seed in (0, 1, 2) for kind in ("r-full", "q-full")]
    thr = experiments._run_all(partial(final_throughput, window=100_000), configs)
    margins = [r - q for r, q in zip(thr[::2], thr[1::2])]
    ok = all(m >= 0.03 for m in margins)
    report(
        "average-reward vs discounted at long deadline",
        ok,
        "margins " + ", ".join(f"{m:+.4f}" for m in margins) + " (need >= +0.03)",
    )


def test_tiny_state_learner_converges_early():
    # The two-bit state space learns its rule within a few thousand slots
    # even for long deadlines: the early window must already sit within
    # 10% relative of the final value.
    rels = {}
    for lifetime in (10, 20, 30):
        cfg = two_device(REF, lifetime, 100_000, (MASTER, lifetime), AgentSpec("r-tiny"))
        m = run(cfg).metrics
        mid = float(m.delivered[6_000:12_000].mean())
        final = m.timely_throughput(50_000)
        rels[lifetime] = abs(mid - final) / final
    ok = all(r <= 0.10 for r in rels.values())
    report(
        "tiny-state learner early convergence",
        ok,
        ", ".join(f"D={d}: {r * 100:.1f}%" for d, r in rels.items()) + " (limit 10%)",
    )


# -- many devices on one channel ----------------------------------------------


def test_ten_learners_share_the_channel():
    # Ten graded-reward learners should drive about one transmission per
    # slot in aggregate and beat blind devices at rate 1/10 on identical
    # arrival/channel draws.
    configs = []
    for seed in (0, 1, 2):
        configs.append(shared_channel(
            10, 10, 200_000, seed,
            lambda: AgentSpec("r-tiny", reward=RewardSpec.multi_level()),
        ))
        configs.append(shared_channel(
            10, 10, 200_000, seed, lambda: AgentSpec("blind", transmit_prob=0.1)
        ))
    stats = experiments._run_all(partial(experiments._window_stats, window=50_000), configs)
    details = []
    ok = True
    for seed, (thr, power), (base, _) in zip((0, 1, 2), stats[::2], stats[1::2]):
        ok = ok and 0.8 <= power <= 1.2 and thr > base
        details.append(f"seed {seed}: thr {thr:.3f} power {power:.3f} vs blind {base:.3f}")
    report("ten learners share the channel", ok, "; ".join(details))


def test_reward_shaping_decides_thirty_devices():
    # At thirty devices the flat reward collapses into permanent collision
    # while the graded one still organises the channel; the blind 1/30
    # baseline must land strictly between them.
    arms = {
        "graded": lambda: AgentSpec("r-tiny", reward=RewardSpec.multi_level()),
        "flat": lambda: AgentSpec("r-tiny", reward=RewardSpec.two_level()),
        "blind": lambda: AgentSpec("blind", transmit_prob=1.0 / 30),
    }
    configs = [shared_channel(30, 10, 200_000, 0, factory) for factory in arms.values()]
    stats = experiments._run_all(partial(experiments._window_stats, window=50_000), configs)
    thr = {name: t for name, (t, _) in zip(arms, stats)}
    power = {name: p for name, (_, p) in zip(arms, stats)}
    ok = thr["graded"] > thr["flat"] and thr["flat"] < thr["blind"]
    report(
        "reward shaping decides thirty devices",
        ok,
        f"graded {thr['graded']:.3f} (power {power['graded']:.2f}), "
        f"flat {thr['flat']:.3f} (power {power['flat']:.2f}), "
        f"blind {thr['blind']:.3f}",
    )


# -- full-state learner at the reference point --------------------------------


def learner_and_throughput(cfg):
    """The run's learner and its throughput over the last 100k slots, as a
    _run_all task."""
    result = run(cfg)
    learner = next(l for l in result.learners if l is not None)
    return learner, result.metrics.timely_throughput(100_000)


@pytest.fixture(scope="module")
def full_state_runs():
    configs = [two_device(REF, 2, 1_000_000, seed, AgentSpec("r-full")) for seed in range(5)]
    return experiments._run_all(learner_and_throughput, configs)


def physical_majority(runs):
    """Majority greedy action per full state (l2 * 4 + o) over the runs.

    A TRANSMIT on an empty queue (l2 = 0) puts nothing on the air, so it is
    counted as the WAIT that env.run scores it as.
    """
    policies = [
        [a if s // 4 else 0 for s, a in enumerate(learner.greedy_policy())]
        for learner, _ in runs
    ]
    return [1 if sum(p[s] for p in policies) > len(runs) // 2 else 0 for s in range(16)]


def test_full_state_gain_estimate(full_state_runs):
    # The gain estimate must settle at the exact optimum, which no average
    # reward can exceed (0.326537; the LP and relative value iteration agree
    # to 1e-11).  The final rho is one noisy snapshot of a fixed-step
    # estimate (beta = 0.01): over seeds 0-34 its s.d. is 0.026 while the
    # throughput of the last 100k slots sits at 0.3254 +- 0.0018.  Over seed
    # quintuples from 0-34 the median lands within 0.02 of the bound 88% of
    # the time, and within 0.02 of the formerly pinned 0.379 0.6% of it.
    rhos = [learner.rho for learner, _ in full_state_runs]
    median = float(np.median(rhos))
    bound = upper_bound(build_mdp(REF, 2)).value
    report(
        "full-state gain estimate",
        abs(median - bound) <= 0.02,
        f"median rho {median:.4f} over 5 seeds vs exact bound {bound:.4f}+-0.02",
    )


def test_full_state_learned_policy_table(full_state_runs):
    # Majority physical action over 5 long runs: wait on an empty queue
    # (where the greedy pick between two identical acts is noise), transmit
    # otherwise, for every observation.
    majority = physical_majority(full_state_runs)
    wrong = [
        f"({s // 4},{OBS_NAMES[s % 4]})"
        for s in range(16)
        if majority[s] != (0 if s // 4 == 0 else 1)
    ]
    report(
        "full-state learned policy table",
        not wrong,
        "16/16 rows match wait-if-empty / transmit-otherwise"
        if not wrong
        else "mismatched rows " + " ".join(wrong),
    )


def test_shifted_reward_discounted_learner_parity(full_state_runs):
    # Subtracting a constant near the long-run gain from the success reward
    # lets the discounted learner match the average-reward one here.
    r_mean = float(np.mean([thr for _, thr in full_state_runs[:3]]))
    configs = [
        two_device(
            REF, 2, 1_000_000, seed,
            AgentSpec("q-full", reward=RewardSpec.two_level(0.3)),
        )
        for seed in (0, 1, 2)
    ]
    q_thr = experiments._run_all(partial(final_throughput, window=100_000), configs)
    q_mean = float(np.mean(q_thr))
    rel = abs(q_mean - r_mean) / r_mean
    report(
        "shifted-reward discounted learner parity",
        rel <= 0.02,
        f"shifted {q_mean:.4f} vs average-reward {r_mean:.4f}, "
        f"relative difference {rel * 100:.2f}% (limit 2%)",
    )


def test_learned_policy_matches_bound_policy(full_state_runs):
    # All sixteen rows.  On rows whose joint states carry no stationary mass
    # under optimal play the bound's action comes from the optimality
    # equations, so the comparison does not depend on the LP's pivot path.
    majority = physical_majority(full_state_runs)
    lp = majority_policy(upper_bound(build_mdp(REF, 2)))
    wrong = [
        f"({l2},{OBS_NAMES[o]})"
        for l2 in range(4)
        for o in range(4)
        if lp[(l2, o)] != majority[l2 * 4 + o]
    ]
    report(
        "learned policy matches bound policy",
        not wrong,
        "16/16 rows agree" if not wrong else f"{len(wrong)} rows differ: " + " ".join(wrong),
    )


# -- fast property battery -----------------------------------------------------


def test_property_battery(tmp_path):
    checks = []

    # identical seeds give byte-identical runs
    cfg = two_device(REF, 2, 20_000, (MASTER, 9), AgentSpec("r-full"))
    first, second = run(cfg, trace=True), run(cfg, trace=True)
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    write_trace_csv(first, str(paths[0]))
    write_trace_csv(second, str(paths[1]))
    checks.append(
        (
            "determinism",
            np.array_equal(first.metrics.delivered, second.metrics.delivered)
            and np.array_equal(first.metrics.senders, second.metrics.senders)
            and paths[0].read_bytes() == paths[1].read_bytes(),
        )
    )

    # observation consistency and queue conservation, straight off the trace
    with open(paths[0], encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    obs_ok = cons_ok = True
    backlog = [0, 0]
    for rec in rows:
        for i in range(2):
            act, obs = rec[f"act_{i}"], rec[f"obs_{i}"]
            delivered = rec["winner"] == str(i)
            if act == "TRANSMIT" and obs not in ("SUCCESSFUL", "FAILED"):
                obs_ok = False
            if act == "WAIT" and obs == "SUCCESSFUL":
                obs_ok = False
            if (obs == "SUCCESSFUL") != delivered:
                obs_ok = False
            expected = (
                backlog[i]
                + int(rec[f"arrivals_{i}"])
                - int(delivered)
                - int(rec[f"expired_{i}"])
            )
            if int(rec[f"backlog_{i}"]) != expected:
                cons_ok = False
            backlog[i] = int(rec[f"backlog_{i}"])
    checks.append(("observation consistency", obs_ok))
    checks.append(("queue conservation", cons_ok))

    # a graded-reward crowd runs without hitting an impossible reward row
    crowd = run(
        shared_channel(
            10, 5, 5_000, 3, lambda: AgentSpec("r-tiny", reward=RewardSpec.multi_level())
        )
    ).metrics
    checks.append(("graded crowd completes", np.isfinite(crowd.timely_throughput())))

    # exploration schedule: 1.0 at the first step, floor from step 920 on
    eps = [epsilon_at(t) for t in range(1, 2001)]
    checks.append(
        (
            "exploration schedule",
            eps[0] == 1.0
            and eps[918] > 0.01
            and eps[919] == 0.01
            and all(a >= b for a, b in zip(eps, eps[1:])),
        )
    )

    # LP solutions are feasible and match relative value iteration
    lp_ok = True
    for lifetime in (1, 2):
        model = build_mdp(REF, lifetime)
        program = bound_program(model)
        solution = solve_lp(program)
        x = solution.require_optimal()
        residual = np.abs(program.constraints @ x - program.rhs).max()
        gain, _ = relative_value_iteration(model.transitions, model.rewards)
        if (
            residual > 1e-9 * (1 + np.abs(program.rhs).max())
            or x.min() < -1e-12
            or abs(solution.objective - gain) > 1e-8
        ):
            lp_ok = False
    checks.append(("LP feasibility and value", lp_ok))

    # fixed-probability throughput is affine in the transmit probability
    def f(q):
        return constant_policy_throughput(REF, q)

    checks.append(
        (
            "affine throughput",
            abs(f(0.5) - 0.5 * (f(0.2) + f(0.8))) <= 1e-12
            and abs(optimal_constant_policy(REF)[1] - max(f(0.0), f(1.0))) <= 1e-12,
        )
    )

    failed = [name for name, ok in checks if not ok]
    report(
        "property battery",
        not failed,
        f"{len(checks) - len(failed)}/{len(checks)} subchecks"
        + ("" if not failed else ", failed: " + ", ".join(failed)),
    )
