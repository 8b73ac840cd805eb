"""Channel resolution, slot-loop semantics, metrics, and reproducibility."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dcra import env
from dcra.agents import RewardSpec, reward_value
from dcra.core import ApFeedback, ChannelObservation, DeviceParams
from dcra.env import (
    BLOCK,
    LEARNER_KINDS,
    MAX_DEVICES,
    MAX_LEARNER_STATES,
    AgentSpec,
    DeviceSetup,
    Metrics,
    ScenarioConfig,
    UniformStream,
    run,
    write_trace_csv,
)
from oracles import reference_run, resolve_slot

IDLE = ChannelObservation.IDLE
BUSY = ChannelObservation.BUSY
SUCC = ChannelObservation.SUCCESSFUL
FAIL = ChannelObservation.FAILED


def blind_device(arrival, success, transmit):
    return DeviceSetup(DeviceParams(arrival, success, transmit), AgentSpec.blind())


class TestResolveSlot:
    def test_nobody_sends(self):
        fb, winner, obs = resolve_slot([False, False], [0.5, 0.5], 0.0)
        assert fb is ApFeedback.NOTHING and winner is None
        assert obs == [IDLE, IDLE]

    def test_lone_sender_decoded(self):
        fb, winner, obs = resolve_slot([False, True, False], [0.5, 0.8, 0.5], 0.79)
        assert fb is ApFeedback.ACK and winner == 1
        assert obs == [BUSY, SUCC, BUSY]

    def test_lone_sender_lost(self):
        fb, winner, obs = resolve_slot([True, False], [0.8, 0.5], 0.80)
        assert fb is ApFeedback.NACK and winner is None
        assert obs == [FAIL, FAIL]

    def test_collision_always_fails(self):
        fb, winner, obs = resolve_slot([True, True, False], [1.0, 1.0, 1.0], 0.0)
        assert fb is ApFeedback.NACK and winner is None
        assert obs == [FAIL, FAIL, FAIL]


class TestUniformStream:
    def test_matches_generator_sequence(self):
        seq = np.random.SeedSequence(77)
        stream = UniformStream(seq, block=7)
        reference = np.random.default_rng(np.random.SeedSequence(77)).random(40)
        got = [stream.random() for _ in range(40)]
        assert np.allclose(got, reference, atol=0)


class TestRunBasics:
    def test_saturated_clean_channel_delivers_every_slot(self):
        # queues start empty, so slot 1 is always silent; from slot 2 on a
        # saturated clean channel delivers every slot
        cfg = ScenarioConfig(
            lifetime=1, horizon=4000, seed=1,
            devices=(blind_device(1.0, 1.0, 1.0),),
        )
        res = run(cfg)
        assert res.metrics.timely_throughput(3999) == 1.0
        assert res.metrics.power(3999) == 1.0
        assert res.metrics.timely_throughput() == 3999 / 4000

    def test_two_saturated_devices_always_collide(self):
        cfg = ScenarioConfig(
            lifetime=2, horizon=4000, seed=2,
            devices=(blind_device(1.0, 1.0, 1.0), blind_device(1.0, 1.0, 1.0)),
        )
        res = run(cfg)
        assert res.metrics.timely_throughput() == 0.0
        assert res.metrics.power(3999) == 2.0

    def test_ten_saturated_devices_power_is_ten(self):
        cfg = ScenarioConfig(
            lifetime=1, horizon=500, seed=3,
            devices=tuple(blind_device(1.0, 1.0, 1.0) for _ in range(10)),
        )
        res = run(cfg)
        assert res.metrics.power(499) == 10.0
        assert res.metrics.timely_throughput() == 0.0

    def test_two_device_reference_point(self):
        # blind(0.5, 0.7, p_t=0.4) against always-transmit(0.4, 0.6) at D=1:
        # closed form gives 0.276, a million slots land within 0.005
        cfg = ScenarioConfig(
            lifetime=1, horizon=1_000_000, seed=42,
            devices=(
                blind_device(0.5, 0.7, 0.4),
                DeviceSetup(DeviceParams(0.4, 0.6), AgentSpec.blind(1.0)),
            ),
        )
        res = run(cfg)
        assert res.metrics.timely_throughput() == pytest.approx(0.276, abs=0.005)

    def test_single_learner_learns_to_use_free_channel(self):
        cfg = ScenarioConfig(
            lifetime=2, horizon=20_000, seed=5,
            devices=(DeviceSetup(DeviceParams(1.0, 1.0), AgentSpec.learner("r-tiny")),),
        )
        res = run(cfg)
        assert res.metrics.timely_throughput(5000) > 0.9
        assert res.learners[0] is not None
        assert res.learners[0].rho > 0.5

    def test_multi_level_reward_runs_clean(self):
        # exploring learners pick TRANSMIT on empty queues; the engine must
        # fold that into WAIT and never hit an impossible reward cell
        cfg = ScenarioConfig(
            lifetime=3, horizon=30_000, seed=6,
            devices=(
                blind_device(0.3, 0.6, 0.35),
                DeviceSetup(DeviceParams(0.25, 0.8), AgentSpec.learner("r-tiny", RewardSpec.multi_level())),
                DeviceSetup(DeviceParams(0.55, 0.7), AgentSpec.learner("q-full", RewardSpec.two_level_shifted(0.3))),
            ),
        )
        run(cfg)  # reaching an impossible reward cell would raise


class TestTraceInvariants:
    @staticmethod
    def traced_result():
        cfg = ScenarioConfig(
            lifetime=2, horizon=3000, seed=11,
            devices=(
                blind_device(0.5, 0.7, 0.4),
                DeviceSetup(DeviceParams(0.4, 0.6), AgentSpec.learner("r-tiny")),
                DeviceSetup(DeviceParams(0.6, 0.5), AgentSpec.learner("r-hol")),
            ),
        )
        return run(cfg, trace=True)

    def test_per_slot_conservation(self):
        res = self.traced_result()
        n = len(res.config.devices)
        backlog = [0] * n
        for rec in res.trace:
            for i in range(n):
                delivered = 1 if rec.winner == i else 0
                expect = backlog[i] + rec.arrivals[i] - delivered - rec.expired[i]
                assert rec.backlog[i] == expect
            backlog = list(rec.backlog)

    def test_cumulative_tallies_match_metrics(self):
        res = self.traced_result()
        last = res.trace[-1]
        assert last.deliveries_cum == int(res.metrics.delivered.sum())
        assert last.transmissions_cum == int(res.metrics.senders.sum())


class TestDeterminism:
    def test_identical_seeds_reproduce_bit_for_bit(self, tmp_path):
        def make():
            cfg = ScenarioConfig(
                lifetime=2, horizon=5000, seed=(1234, 7),
                devices=(
                    blind_device(0.5, 0.7, 0.4),
                    DeviceSetup(DeviceParams(0.4, 0.6), AgentSpec.learner("r-tiny")),
                ),
            )
            return run(cfg, trace=True)

        a, b = make(), make()
        assert np.array_equal(a.metrics.delivered, b.metrics.delivered)
        assert np.array_equal(a.metrics.senders, b.metrics.senders)
        assert a.learners[1].q == b.learners[1].q
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(a, str(pa))
        write_trace_csv(b, str(pb))
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seeds_differ(self):
        def make(seed):
            cfg = ScenarioConfig(
                lifetime=2, horizon=2000, seed=seed,
                devices=(blind_device(0.5, 0.7, 0.4), blind_device(0.4, 0.6, 0.8)),
            )
            return run(cfg, trace=True)

        a, b = make(21), make(22)
        assert a.trace != b.trace


class TestMetrics:
    def test_window_validation(self):
        m = Metrics(delivered=np.ones(100, dtype=np.uint8), senders=np.ones(100, dtype=np.int16))
        assert m.timely_throughput() == 1.0
        assert m.timely_throughput(10) == 1.0
        with pytest.raises(ValueError):
            m.timely_throughput(0)
        with pytest.raises(ValueError):
            m.power(101)

    def test_windowed_values(self):
        delivered = np.zeros(10, dtype=np.uint8)
        delivered[7:] = 1  # three deliveries in the last three slots
        senders = np.arange(10, dtype=np.int16)
        m = Metrics(delivered=delivered, senders=senders)
        assert m.timely_throughput(3) == 1.0
        assert m.timely_throughput() == 0.3
        assert m.power(2) == 8.5
        series = m.throughput_series(5)
        assert np.allclose(series, [0.0, 0.6])

    def test_series_drops_incomplete_tail(self):
        m = Metrics(delivered=np.ones(11, dtype=np.uint8), senders=np.ones(11, dtype=np.int16))
        assert len(m.throughput_series(5)) == 2


class TestValidation:
    def test_scenario_checks(self):
        dev = blind_device(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            ScenarioConfig(lifetime=0, horizon=10, seed=0, devices=(dev,))
        with pytest.raises(ValueError):
            ScenarioConfig(lifetime=1, horizon=0, seed=0, devices=(dev,))
        with pytest.raises(ValueError):
            ScenarioConfig(lifetime=1, horizon=10, seed=0, devices=())
        # blind device with no transmit probability anywhere
        bad = DeviceSetup(DeviceParams(0.5, 0.5), AgentSpec.blind())
        with pytest.raises(ValueError):
            ScenarioConfig(lifetime=1, horizon=10, seed=0, devices=(bad,))

    def test_agent_spec_checks(self):
        with pytest.raises(ValueError):
            AgentSpec("dqn")
        with pytest.raises(ValueError):
            AgentSpec("r-tiny", transmit_prob=0.5)
        with pytest.raises(ValueError):
            AgentSpec.blind(1.5)

    def test_device_count_fits_senders_dtype(self):
        # builds the configs only: nothing is simulated
        dev = blind_device(0.5, 0.5, 0.5)
        ScenarioConfig(lifetime=1, horizon=1, seed=0, devices=(dev,) * MAX_DEVICES)
        with pytest.raises(ValueError, match="senders"):
            ScenarioConfig(lifetime=1, horizon=1, seed=0, devices=(dev,) * (MAX_DEVICES + 1))

    def test_learner_table_fits_state_cap(self):
        # builds the configs only: nothing is simulated.  A full-state table
        # has 2^D * 4 states, so the cap admits lifetimes up to `longest`
        longest = (MAX_LEARNER_STATES // 4).bit_length() - 1
        params = DeviceParams(0.5, 0.5)
        for kind in ("r-full", "q-full"):
            dev = DeviceSetup(params, AgentSpec.learner(kind))
            ScenarioConfig(lifetime=longest, horizon=1, seed=0, devices=(dev,))
            for lifetime in (longest + 1, 64):
                size = 4 << lifetime
                with pytest.raises(ValueError, match=rf"{kind} learner at lifetime "
                                                     rf"{lifetime} needs {size} states"):
                    ScenarioConfig(lifetime=lifetime, horizon=1, seed=0, devices=(dev,))
        tiny = DeviceSetup(params, AgentSpec.learner("r-tiny"))
        ScenarioConfig(lifetime=64, horizon=1, seed=0, devices=(tiny,))

    def test_trace_required_for_csv(self, tmp_path):
        cfg = ScenarioConfig(lifetime=1, horizon=10, seed=0,
                             devices=(blind_device(0.5, 0.5, 0.5),))
        res = run(cfg)
        with pytest.raises(ValueError):
            write_trace_csv(res, str(tmp_path / "x.csv"))


class TestRewardTable:
    CELLS = [(o, a, u) for o in range(4) for a in (0, 1) for u in (False, True)]

    def test_cells_match_reward_value(self):
        specs = [RewardSpec.two_level(), RewardSpec.two_level_shifted(0.45),
                 RewardSpec.multi_level()]
        for spec in specs:
            table = env._reward_table(spec)
            assert len(table) == 16
            for obs, action, urgent in self.CELLS:
                cell = table[obs * 4 + action * 2 + urgent]
                try:
                    expected = reward_value(spec, obs, action, urgent)
                except ValueError:
                    assert cell is None
                else:
                    assert cell == expected
        impossible = [c for c, r in zip(self.CELLS, env._reward_table(RewardSpec.multi_level()))
                      if r is None]
        assert [(o, a) for o, a, _ in impossible] == [(0, 1), (0, 1), (1, 1), (1, 1),
                                                      (2, 0), (2, 0)]

    @pytest.mark.parametrize("missing", [(0, 0), (1, 0), (3, 0), (2, 1), (3, 1)])
    def test_reachable_cell_without_reward_raises_when_built(self, monkeypatch, missing):
        def partial_reward(spec, obs, action, urgent):
            if (obs, action) == missing:
                raise ValueError("no such cell")
            return reward_value(spec, obs, action, urgent)

        monkeypatch.setattr(env, "reward_value", partial_reward)
        match = f"no reward for observation {missing[0]} after action {missing[1]}"
        with pytest.raises(ValueError, match=match):
            env._reward_table(RewardSpec.two_level())
        cfg = ScenarioConfig(
            lifetime=1, horizon=10, seed=0,
            devices=(DeviceSetup(DeviceParams(0.5, 0.5), AgentSpec.learner("r-tiny")),),
        )
        with pytest.raises(ValueError, match=match):
            run(cfg)


# horizons around the block of channel and arrival draws; two blocks of
# slots also run a learner's policy stream past its first 8192-draw buffer
HORIZONS = (1, 2, 3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK)
REWARDS = (RewardSpec.two_level(), RewardSpec.two_level_shifted(0.3), RewardSpec.multi_level())
# probabilities on a grid including 0 and 1: raw floats would mostly be edge
# values such as 5e-324, which leave the channel silent
unit = st.integers(0, 10).map(lambda k: k / 10)


@st.composite
def devices(draw):
    params = DeviceParams(draw(unit), draw(unit))
    kind = draw(st.sampled_from(["blind", *LEARNER_KINDS]))
    if kind == "blind":
        return DeviceSetup(params, AgentSpec.blind(draw(unit)))
    return DeviceSetup(params, AgentSpec.learner(kind, draw(st.sampled_from(REWARDS))))


@st.composite
def scenarios(draw):
    return ScenarioConfig(
        lifetime=draw(st.integers(1, 6)),
        horizon=draw(st.sampled_from(HORIZONS)),
        seed=draw(st.integers(0, 2**32 - 1)),
        devices=tuple(draw(st.lists(devices(), min_size=1, max_size=4))),
    )


class TestRunMatchesReference:
    """run() is the slot-by-slot reference loop, bit for bit.

    The reference hands each learner encode_state of its LeadTimeQueue, so
    equal q tables also check the bitmask state encoding of run().  Every
    scenario runs both untraced and traced.
    """

    @staticmethod
    def assert_same_run(got, want):
        for name in ("delivered", "senders"):
            a, b = getattr(got.metrics, name), getattr(want.metrics, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert len(got.learners) == len(want.learners)
        for a, b in zip(got.learners, want.learners):
            assert (a is None) == (b is None)
            if a is None:
                continue
            assert a.q == b.q
            assert a.rho == b.rho
            assert a.steps == b.steps
            assert a.epsilon() == b.epsilon()
            # the exploration streams stand at the same position
            assert [a.rng.random() for _ in range(3)] == [b.rng.random() for _ in range(3)]

    @settings(max_examples=30, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(config=scenarios())
    # at seed 105 the learner explores on the last uniform of its first
    # policy buffer (slot 7915), so its second draw comes from a refill
    @example(config=ScenarioConfig(
        lifetime=2, horizon=2 * BLOCK, seed=105,
        devices=(DeviceSetup(DeviceParams(0.5, 0.5), AgentSpec.learner("r-tiny")),),
    ))
    def test_run_matches_reference_run(self, config):
        want = reference_run(config, trace=True)
        traced = run(config, trace=True)
        assert traced.trace == want.trace
        assert [repr(r) for r in traced.trace] == [repr(r) for r in want.trace]
        self.assert_same_run(traced, want)
        untraced = run(config)
        assert untraced.trace is None
        self.assert_same_run(untraced, reference_run(config))


class TestRunProperties:
    """Packet conservation, feedback structure and seed determinism on
    random traced scenarios."""

    @settings(max_examples=25, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(config=scenarios())
    def test_conservation_and_determinism(self, config):
        res = run(config, trace=True)
        n, lifetime, trace = len(config.devices), config.lifetime, res.trace
        arrivals, delivered, expired, backlog = [0] * n, [0] * n, [0] * n, [0] * n
        deliveries_cum = transmissions_cum = 0
        for t, rec in enumerate(trace):
            if rec.winner is not None:
                assert rec.sent[rec.winner]
                delivered[rec.winner] += 1
                deliveries_cum += 1
            transmissions_cum += sum(rec.sent)
            assert rec.deliveries_cum == deliveries_cum
            assert rec.transmissions_cum == transmissions_cum
            # a packet queued at the end of slot t expires at the end of
            # slot t + D, so only the last D slots' arrivals can be queued
            recent = trace[max(0, t - lifetime + 1):t + 1]
            for i in range(n):
                arrivals[i] += rec.arrivals[i]
                expired[i] += rec.expired[i]
                due = trace[t - lifetime].arrivals[i] if t >= lifetime else 0
                assert 0 <= rec.expired[i] <= due
                assert 0 <= rec.backlog[i] <= sum(r.arrivals[i] for r in recent)
                won = 1 if rec.winner == i else 0
                assert rec.backlog[i] == backlog[i] + rec.arrivals[i] - won - rec.expired[i]
            backlog = rec.backlog
        for i in range(n):
            assert arrivals[i] == delivered[i] + expired[i] + backlog[i], i
        assert deliveries_cum == int(res.metrics.delivered.sum())
        assert transmissions_cum == int(res.metrics.senders.sum())
        # the same seed gives the same metrics, traced or not
        for again in (run(config), run(config, trace=True)):
            for name in ("delivered", "senders"):
                a, b = getattr(again.metrics, name), getattr(res.metrics, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name

    @settings(max_examples=25, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(config=scenarios())
    def test_observations_follow_feedback(self, config):
        for rec in run(config, trace=True).trace:
            n_send = sum(rec.sent)
            if rec.feedback is ApFeedback.NOTHING:
                assert n_send == 0 and rec.winner is None
                assert all(o == IDLE for o in rec.observations)
            elif rec.feedback is ApFeedback.ACK:
                assert n_send == 1 and rec.winner is not None and rec.sent[rec.winner]
                for i, o in enumerate(rec.observations):
                    assert o == (SUCC if i == rec.winner else BUSY)
            else:
                assert rec.feedback is ApFeedback.NACK
                assert n_send >= 1 and rec.winner is None
                assert all(o == FAIL for o in rec.observations)
