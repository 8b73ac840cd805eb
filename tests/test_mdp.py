import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from dcra import mdp, simplex
from dcra.experiments import ParamRanges, sample_params
from dcra.mdp import (
    ALWAYS_IDLE,
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
from oracles import (
    dense_bound_program,
    joint_decode,
    joint_index,
    one_slot_transition_mc,
    policy_iteration_bound,
    read_mps,
    relative_value_iteration,
    vi_majority,
)

REF = TwoDeviceParams(0.5, 0.4, 0.7, 0.6, 0.4)

I, B, S, F = 0, 1, 2, 3


def random_params(rng):
    return TwoDeviceParams(*rng.random(5))


# --- transition construction ---------------------------------------------


def test_transition_example_lone_agent_success():
    model = build_mdp(REF, 1)
    src = joint_index(model, 0, 1, I)
    dst = joint_index(model, 1, 1, S)
    # agent alone, decoded, then both queues refill
    assert model.transitions[1, src, dst] == pytest.approx(
        0.4 * 0.5 * 0.6, abs=1e-15
    )


def test_both_empty_is_idle():
    model = build_mdp(REF, 2)
    for o in range(4):
        row = model.transitions[0, joint_index(model, 0, 0, o)]
        idle_mass = row[np.arange(model.n_states) % 4 == I].sum()
        assert idle_mass == pytest.approx(1.0, abs=1e-15)


def test_collision_mass_at_least_peer_transmit():
    model = build_mdp(REF, 1)
    for o in range(4):
        row = model.transitions[1, joint_index(model, 1, 1, o)]
        failed_mass = row[np.arange(model.n_states) % 4 == F].sum()
        assert failed_mass >= REF.peer_transmit - 1e-15


def test_rows_sum_to_one_across_lifetimes():
    rng = np.random.default_rng(42)
    for lifetime in (1, 2, 3, 4):
        for _ in range(25):
            model = build_mdp(random_params(rng), lifetime)
            errs = np.abs(model.transitions.sum(axis=2) - 1.0)
            assert errs.max() <= 1e-12
            pairs = model.masks * model.masks
            assert model.successors.shape == model.probs.shape == (2, pairs, 24)
            assert np.abs(model.probs.sum(axis=2) - 1.0).max() <= 1e-12
            assert model.probs.min() >= 0.0
            assert 0 <= model.successors.min() <= model.successors.max() < model.n_states


# sha256 over the pair rows of the dense tensor (its kernel) of every model
# below, in order.  They are summed from Python floats by elementwise
# products and sums, so no BLAS build moves a byte.
KERNEL_GOLDEN = "641cf649b650845af329694de4a02c6620316039430ff56a61fe0087390382ee"


def test_kernel_bits_are_pinned():
    rng = np.random.default_rng(2024)
    drawn = [sample_params(ParamRanges(), rng) for _ in range(20)]
    grid = [TwoDeviceParams(*v) for v in itertools.product((0.0, 0.5, 1.0), repeat=5)]
    digest = hashlib.sha256()
    for lifetime in (1, 2, 3):
        for params in [REF] + drawn + grid:
            digest.update(build_mdp(params, lifetime).transitions[:, ::4, :].tobytes())
    digest.update(build_mdp(REF, 4).transitions[:, ::4, :].tobytes())
    assert digest.hexdigest() == KERNEL_GOLDEN


def test_reward_depends_only_on_observation():
    model = build_mdp(REF, 2)
    expected = np.array([0.0, 1.0, 1.0, 0.0] * (model.n_states // 4))
    assert np.array_equal(model.rewards, expected)


def test_transitions_match_one_slot_monte_carlo():
    # light version of the full acceptance sweep: lifetime 1, every queue
    # pair and action, 2e5 samples within 3-sigma binomial bounds
    model = build_mdp(REF, 1)
    n = 200_000
    for l1 in range(2):
        for l2 in range(2):
            for a in range(2):
                counts = one_slot_transition_mc(
                    REF.as_tuple(), 1, l1, l2, a, n, seed=97 + 4 * l1 + 2 * l2 + a
                )
                probs = model.transitions[a, joint_index(model, l1, l2, I)]
                for sp, p in enumerate(probs):
                    if p == 0.0:
                        assert counts[sp] == 0
                        continue
                    sigma = np.sqrt(n * p * (1 - p))
                    assert abs(counts[sp] - n * p) <= 3 * sigma + 1


def test_index_decode_roundtrip():
    model = build_mdp(REF, 3)
    for s in range(model.n_states):
        assert joint_index(model, *joint_decode(model, s)) == s
    with pytest.raises(ValueError):
        joint_index(model, 8, 0, 0)


# --- LP bound -------------------------------------------------------------


def test_bound_reference_point_lifetime1():
    res = upper_bound(build_mdp(REF, 1))
    assert res.value == pytest.approx(0.276, abs=1e-6)


def test_bound_peer_saturated_always_idle():
    params = TwoDeviceParams(1.0, 0.4, 0.7, 0.6, 1.0)
    res = upper_bound(build_mdp(params, 1))
    assert res.value == pytest.approx(0.7, abs=1e-6)


def test_bound_equals_informed_closed_form_lifetime1():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        params = random_params(rng)
        res = upper_bound(build_mdp(params, 1))
        assert res.value == pytest.approx(
            informed_optimum_lifetime1(params), abs=1e-7
        ), params


def test_bound_equals_constant_policy_when_peer_is_quiet():
    # where the contested-slot preference agrees with the constant optimum
    # the genie gains nothing; sampled from that regime
    rng = np.random.default_rng(7)
    done = 0
    while done < 20:
        params = random_params(rng)
        thr = params.agent_success / (params.peer_success + params.agent_success)
        if params.peer_transmit >= thr:
            continue
        res = upper_bound(build_mdp(params, 1))
        _, value = optimal_constant_policy(params)
        assert res.value == pytest.approx(value, abs=1e-7)
        done += 1


def test_bound_exceeds_constant_policy_in_contested_regime():
    # counterexample kept from the derivation: heavy peer, saturated agent
    params = TwoDeviceParams(0.5, 1.0, 0.6, 0.6, 0.9)
    res = upper_bound(build_mdp(params, 1))
    _, const_value = optimal_constant_policy(params)
    assert res.value == pytest.approx(informed_optimum_lifetime1(params), abs=1e-7)
    assert res.value > const_value + 0.1


def test_bound_matches_value_iteration_lifetime2():
    model = build_mdp(REF, 2)
    res = upper_bound(model)
    gain, action_values = relative_value_iteration(
        model.transitions, model.rewards
    )
    assert res.value == pytest.approx(gain, abs=1e-8)


def test_occupancy_support_is_value_iteration_optimal():
    # complementary slackness: any state-action pair carrying stationary
    # mass must be an optimal action of the dynamic-programming solution;
    # states without mass take their action from the optimality equations
    # instead (see the all-rows test below)
    model = build_mdp(REF, 2)
    x = solve_lp(bound_program(model)).x[: 2 * model.n_states].reshape(-1, 2)
    gain, action_values = relative_value_iteration(
        model.transitions, model.rewards
    )
    for s in range(model.n_states):
        for a in (0, 1):
            if x[s, a] > 1e-10:
                assert action_values[s, a] >= action_values[s, 1 - a] - 1e-8, (
                    joint_decode(model, s),
                    a,
                )


def test_majority_policy_agrees_with_value_iteration_on_recurrent_rows():
    model = build_mdp(REF, 2)
    res = upper_bound(model)
    voted = majority_policy(res)
    gain, action_values = relative_value_iteration(
        model.transitions, model.rewards
    )
    expected = vi_majority(model, action_values)
    x = solve_lp(bound_program(model)).x[: 2 * model.n_states].reshape(-1, 2)
    x_mass = x.sum(axis=1)
    for l2 in range(model.masks):
        for o in range(4):
            if all(
                x_mass[joint_index(model, l1, l2, o)] > 1e-10
                for l1 in range(model.masks)
            ):
                assert voted[(l2, o)] == expected[(l2, o)], (l2, o)


@pytest.mark.parametrize("lifetime, n_random", [(1, 10), (2, 10), (3, 2)])
def test_majority_policy_matches_value_iteration_on_every_row(lifetime, n_random):
    # rows whose joint states carry no occupancy mass included: their action
    # comes from the optimality equations, not from the LP's pivot path.
    # Points come from the sweep's ranges (probabilities >= 0.05), where the
    # bound is used; see CHANGES.md on the simplex near probabilities ~1e-3.
    rng = np.random.default_rng(1000 + lifetime)
    points = [sample_params(ParamRanges(), rng) for _ in range(n_random)]
    for params in [REF] + points:
        model = build_mdp(params, lifetime)
        _, action_values = relative_value_iteration(model.transitions, model.rewards)
        assert majority_policy(upper_bound(model)) == vi_majority(
            model, action_values
        ), params


@pytest.mark.parametrize(
    "params, value",
    [
        # the dense simplex met a singular basis on both at D=2
        ((0.9816872983219613, 0.0022859789189788593, 0.9626518987619347,
          0.8930607519742237, 0.8995648359608155), 0.8640394),
        ((0.03207083178596193, 0.0028255507531961266, 0.8171100875574389,
          0.14411522325918635, 0.15440066569393596), 0.0081950),
    ],
)
def test_bound_at_points_the_dense_simplex_failed(params, value):
    model = build_mdp(TwoDeviceParams(*params), 2)
    gain, _ = relative_value_iteration(model.transitions, model.rewards)
    res = upper_bound(model)
    assert res.value == pytest.approx(gain, abs=1e-9)
    assert res.value == pytest.approx(value, abs=1e-7)


@pytest.mark.parametrize("lifetime", [1, 2])
def test_bound_matches_value_iteration_on_uniform_points(lifetime):
    # uniform on [0, 1]^5 including probabilities near 0 and every 0/1
    # corner, where the chain can split into several recurrent classes
    rng = np.random.default_rng(500 + lifetime)
    corners = [TwoDeviceParams(*c) for c in itertools.product((0.0, 1.0), repeat=5)]
    for params in corners + [random_params(rng) for _ in range(60)]:
        model = build_mdp(params, lifetime)
        gain, action_values = relative_value_iteration(model.transitions, model.rewards)
        res = upper_bound(model)
        assert res.value == pytest.approx(gain, abs=1e-9), params
        assert majority_policy(res) == vi_majority(model, action_values), params


@pytest.mark.parametrize("lifetime, n_random", [(1, 5), (2, 5), (3, 2)])
def test_bound_equals_lp_optimum(lifetime, n_random):
    # two independent methods: policy iteration on the pairs and the dual
    # LP over the joint states
    rng = np.random.default_rng(2000 + lifetime)
    points = [sample_params(ParamRanges(), rng) for _ in range(n_random)]
    for params in [REF] + points:
        model = build_mdp(params, lifetime)
        res = upper_bound(model)
        lp_value = solve_lp(bound_program(model)).objective
        assert res.value == pytest.approx(lp_value, abs=1e-9), params
        assert res.transmit.dtype == bool, params
        assert res.transmit.shape == (model.masks * model.masks,), params


def test_bound_does_not_solve_the_lp(monkeypatch):
    def refuse(program):
        raise AssertionError("upper_bound called the simplex")

    monkeypatch.setattr(mdp, "solve_lp", refuse)
    monkeypatch.setattr(simplex, "solve_lp", refuse)
    res = upper_bound(build_mdp(REF, 3))
    assert res.value == pytest.approx(0.340142, abs=1e-6)
    assert 1 <= res.iterations <= 5


def test_bound_never_builds_the_joint_tensor(monkeypatch):
    def refuse(model):
        raise AssertionError("the bound path read the dense joint tensor")

    monkeypatch.setattr(mdp.TwoDeviceModel, "transitions", property(refuse))
    for lifetime in (1, 2, 3, 4):
        model = build_mdp(REF, lifetime)
        voted = majority_policy(upper_bound(model))
        assert len(voted) == 4 * model.masks


def test_bound_refuses_a_gain_interval_left_open_at_the_step_cap(monkeypatch):
    # REF needs 3 steps at D=2 before its interval closes to 1e-12
    monkeypatch.setattr(mdp, "MAX_STEPS", 2)
    with pytest.raises(RuntimeError, match=r"^bound policy iteration did not settle: gain in "
                                           r"\[0\.3\d+, 0\.3\d+\] after 2 steps$"):
        upper_bound(build_mdp(REF, 2))


@pytest.mark.parametrize("lifetime", (1, 2, 3, 4))
def test_bound_value_is_certified_by_its_gain_interval(lifetime):
    res = upper_bound(build_mdp(REF, lifetime))
    low, high = res.gain_interval
    assert low <= res.value <= high
    assert high - low <= 1e-12


def test_bound_gain_interval_lies_in_the_unit_interval():
    # rewards lie in [0, 1], so the certified gain does too; unclipped, ten
    # points of the grid, such as (1, 0, 0, 1, 0) and (0, 1, 1, 0, 1), gave
    # values down to -2.2e-16
    for values in itertools.product((0.0, 0.5, 1.0), repeat=5):
        res = upper_bound(build_mdp(TwoDeviceParams(*values), 3))
        low, high = res.gain_interval
        assert 0.0 <= low <= res.value <= high <= 1.0, values


def test_bound_at_lifetime_5_holds_no_dense_kernel():
    # the policy system, 8 MiB at D=5, and LAPACK's copy of it are the
    # largest arrays; a dense (2, 1024, 4096) kernel alone took 64 MiB
    tracemalloc.start()
    try:
        upper_bound(build_mdp(REF, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20


@pytest.mark.parametrize("lifetime", (1, 2, 3))
@pytest.mark.parametrize("peer_transmit", (0.0, 1.0))
def test_bound_of_a_lone_agent_that_always_delivers_is_one(lifetime, peer_transmit):
    # an agent that holds a fresh packet every slot and always gets it
    # through delivers exactly one packet per slot, and nothing delivers more
    value = upper_bound(build_mdp(TwoDeviceParams(0.0, 1.0, 0.0, 1.0, peer_transmit),
                                  lifetime)).value
    assert 0.0 <= value <= 1.0
    assert value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("lifetime", (2, 3))
@pytest.mark.parametrize("params", [TwoDeviceParams(0.0, 0.999, 0.0, 1.0, 0.0),
                                    TwoDeviceParams(0.0, 0.9999, 0.0, 1.0, 1.0)])
def test_bound_settles_where_its_chain_mixes_slowly(params, lifetime):
    # a lone agent with a fresh packet in all but 1 slot in 1000 (or
    # 10000) delivers exactly that share; the pair holding a packet of
    # every lead time returns to itself with that probability, which value
    # iteration alone would take some 1/(1 - p) sweeps to price
    model = build_mdp(params, lifetime)
    res = upper_bound(model)
    value, transmit = policy_iteration_bound(model)
    assert res.value == pytest.approx(params.agent_arrival, abs=1e-12)
    assert res.value == pytest.approx(value, abs=1e-12)
    assert np.array_equal(res.transmit, transmit)
    assert res.iterations <= 5


@pytest.mark.parametrize("lifetime", (2, 3))
def test_bound_finds_a_gain_below_the_tie_tolerance(lifetime):
    # a lone agent that always holds a packet and gets one through in 1e9
    # tries: transmitting beats waiting by 1e-9 a slot, within TIE_TOL
    res = upper_bound(build_mdp(TwoDeviceParams(0.0, 1.0, 1.0, 1e-9, 1.0), lifetime))
    assert res.value == pytest.approx(1e-9, abs=1e-12)


@pytest.mark.parametrize("lifetime", (4, 5))
def test_bound_equals_policy_iteration_beyond_the_lp_oracle(lifetime):
    # the LP oracle stops at D=3; the tests' own policy iteration, with its
    # gain-first step and least-squares multichain solve, reaches D=5 in
    # about 0.3 s a point
    rng = np.random.default_rng(4000 + lifetime)
    for params in [REF] + [sample_params(ParamRanges(), rng) for _ in range(2)]:
        model = build_mdp(params, lifetime)
        res = upper_bound(model)
        value, transmit = policy_iteration_bound(model)
        assert res.value == pytest.approx(value, abs=1e-9), params
        assert np.array_equal(res.transmit, transmit), params


def test_bound_policy_with_several_recurrent_classes():
    # a lone agent that always gets a packet and always gets it through:
    # under always-transmit the queue masks 2 and 3 each loop on themselves,
    # so the policy has several recurrent classes and no bias solve; waiting only delays a
    # delivery, which the bias, not the gain, prices
    model = build_mdp(TwoDeviceParams(0.0, 1.0, 0.0, 1.0, 0.0), 2)
    res = upper_bound(model)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    for pair, transmit in enumerate(res.transmit):
        l1, l2 = divmod(pair, model.masks)
        assert transmit == (l2 != 0), (l1, l2)


def test_majority_policy_reference_rows():
    res = upper_bound(build_mdp(REF, 2))
    voted = majority_policy(res)
    # Rows (1, I/B) and (3, I/B) hold joint states without occupancy mass;
    # there the greedy action of the optimality equations transmits.
    for o in range(4):
        assert voted[(0, o)] == 0  # empty queue always waits
        assert voted[(1, o)] == 1
        assert voted[(2, o)] == 1  # fresh packet always transmits
        assert voted[(3, o)] == 1


# --- LP export ----------------------------------------------------------------


def _as_printed(values):
    """Each value rounded as the MPS file prints it, to 13 significant digits."""
    return np.array([float(f"{v:.12E}") for v in values])


@pytest.mark.parametrize("lifetime", (1, 2, 3))
def test_write_mps_reads_back_as_bound_program(tmp_path, lifetime):
    """The MPS file reads back as the dense reference's (c, A, b), rounded as
    the file prints them, with the same nonzeros. The reference is built
    without `lp_columns`, so the check does not share write_mps's source."""
    rng = np.random.default_rng(11)
    path = tmp_path / "bound.mps"
    for params in [REF] + [sample_params(ParamRanges(), rng) for _ in range(2)]:
        model = build_mdp(params, lifetime)
        mdp.write_mps(model, str(path))
        name, *arrays = read_mps(path)
        assert name == f"DCRA-D{lifetime}"
        for got, want in zip(arrays, dense_bound_program(model)):
            assert got.shape == want.shape
            assert np.array_equal(got != 0, want != 0)
            assert np.array_equal(got[got != 0], _as_printed(want[want != 0]))


@pytest.mark.parametrize("lifetime", (1, 2, 3))
def test_bound_program_equals_the_dense_reference_to_the_bit(monkeypatch, lifetime):
    def refuse(*_):
        raise AssertionError("bound_program read the dense joint tensor")

    rng = np.random.default_rng(11)
    points = [REF] + [sample_params(ParamRanges(), rng) for _ in range(2)]
    references = [dense_bound_program(build_mdp(params, lifetime)) for params in points]
    monkeypatch.setattr(mdp.TwoDeviceModel, "transitions", property(refuse))
    for params, reference in zip(points, references):
        program = bound_program(build_mdp(params, lifetime))
        got = (program.objective, program.constraints, program.rhs)
        for have, want in zip(got, reference):
            assert have.shape == want.shape
            assert have.tobytes() == want.tobytes()


def test_bound_program_peaks_near_its_matrix():
    # the D=3 matrix takes 4 MiB; building it from the dense transitions
    # held 2.5 times that at once
    model = build_mdp(REF, 3)
    tracemalloc.start()
    try:
        matrix = bound_program(model).constraints
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * matrix.nbytes


def test_write_mps_builds_nothing_the_size_of_the_matrix(tmp_path):
    # bound_program's D=4 matrix alone takes 64 MiB
    model = build_mdp(REF, 4)
    tracemalloc.start()
    try:
        mdp.write_mps(model, str(tmp_path / "bound.mps"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


# --- closed forms ----------------------------------------------------------


def test_constant_policy_throughput_is_affine():
    rng = np.random.default_rng(5)
    for _ in range(20):
        params = random_params(rng)
        lo = constant_policy_throughput(params, 0.0)
        hi = constant_policy_throughput(params, 1.0)
        mid = constant_policy_throughput(params, 0.5)
        assert mid == pytest.approx((lo + hi) / 2, abs=1e-12)


def test_constant_policy_throughput_endpoints():
    assert constant_policy_throughput(REF, 0.0) == pytest.approx(
        0.7 * 0.4 * 0.5, abs=1e-15
    )
    assert constant_policy_throughput(REF, 1.0) == pytest.approx(0.276, abs=1e-12)
    with pytest.raises(ValueError):
        constant_policy_throughput(REF, 1.5)


def test_optimal_constant_policy_reference():
    kind, value = optimal_constant_policy(REF)
    assert kind == ALWAYS_TRANSMIT
    assert value == pytest.approx(0.276, abs=1e-12)


def test_optimal_constant_policy_saturated_peer():
    kind, value = optimal_constant_policy(TwoDeviceParams(1.0, 0.4, 0.7, 0.6, 1.0))
    assert kind == ALWAYS_IDLE
    assert value == pytest.approx(0.7, abs=1e-15)


def test_optimal_constant_policy_threshold_symmetric():
    # equal success probabilities put the threshold at one half
    below = TwoDeviceParams(0.7, 0.5, 0.6, 0.6, 0.7)  # 0.49 < 0.5
    above = TwoDeviceParams(0.8, 0.5, 0.6, 0.6, 0.7)  # 0.56 > 0.5
    assert optimal_constant_policy(below)[0] == ALWAYS_TRANSMIT
    assert optimal_constant_policy(above)[0] == ALWAYS_IDLE


def test_params_validation():
    with pytest.raises(ValueError):
        TwoDeviceParams(1.2, 0.4, 0.7, 0.6, 0.4)
    with pytest.raises(ValueError):
        TwoDeviceParams(0.5, 0.4, 0.7, 0.6, -0.1)


def test_build_rejects_bad_lifetime():
    with pytest.raises(ValueError):
        build_mdp(REF, 0)


def test_build_refuses_a_policy_system_over_the_array_budget():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^lifetime 7 needs a 2 GiB policy system, "
                                             r"over the 1 GiB one array may take$"):
            build_mdp(REF, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_bound_program_refuses_a_matrix_over_the_array_budget():
    class Model:
        lifetime, n_states = 6, 16384

        @property
        def transitions(self):
            raise AssertionError("bound_program read the transitions")

    with pytest.raises(ValueError, match=r"^lifetime 6 needs a 16 GiB LP matrix, "
                                         r"over the 1 GiB one array may take$"):
        bound_program(Model())


def test_array_budget_admits_an_array_of_its_size(monkeypatch):
    # the D=2 policy system takes 8 * 16^2 bytes, the D=1 LP matrix 64 * 16^2
    monkeypatch.setattr(mdp, "MAX_ARRAY_BYTES", 8 * 16**2)
    model = build_mdp(REF, 2)
    assert 8 * model.masks**4 == mdp.MAX_ARRAY_BYTES
    assert upper_bound(model).value == pytest.approx(0.326537, abs=1e-6)
    with pytest.raises(ValueError, match="^lifetime 3 needs a .* policy system"):
        build_mdp(REF, 3)
    monkeypatch.setattr(mdp, "MAX_ARRAY_BYTES", 64 * 16**2)
    assert bound_program(build_mdp(REF, 1)).constraints.nbytes == mdp.MAX_ARRAY_BYTES
    with pytest.raises(ValueError, match="^lifetime 2 needs a .* LP matrix"):
        bound_program(build_mdp(REF, 2))
    with pytest.raises(ValueError, match="^lifetime 2 needs a .* joint tensor"):
        build_mdp(REF, 2).transitions
