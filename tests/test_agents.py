"""Reward tables, exploration schedule, and the two tabular update rules."""

import math

import numpy as np
import pytest

from dcra.agents import (
    RewardKind,
    RewardSpec,
    StateKind,
    TabularLearner,
    state_space_size,
)
from dcra.core import Action, ChannelObservation, LeadTimeQueue
from oracles import blind_transmit, encode_state, epsilon_at, q_table, reward_value

IDLE = ChannelObservation.IDLE
BUSY = ChannelObservation.BUSY
SUCC = ChannelObservation.SUCCESSFUL
FAIL = ChannelObservation.FAILED
W, T = Action.WAIT, Action.TRANSMIT


class TestRewards:
    def test_two_level(self):
        spec = RewardSpec.two_level()
        for action in (W, T):
            for urgent in (False, True):
                assert reward_value(spec, BUSY, action, urgent) == 1.0
                assert reward_value(spec, SUCC, action, urgent) == 1.0
                assert reward_value(spec, IDLE, action, urgent) == 0.0
                assert reward_value(spec, FAIL, action, urgent) == 0.0

    def test_shift_is_uniform(self):
        base = RewardSpec.two_level()
        shifted = RewardSpec.two_level(0.3)
        for obs in (IDLE, BUSY, SUCC, FAIL):
            for action in (W, T):
                for urgent in (False, True):
                    got = reward_value(shifted, obs, action, urgent)
                    ref = reward_value(base, obs, action, urgent)
                    assert got == pytest.approx(ref - 0.3, abs=0)

    def test_multi_level_cells(self):
        spec = RewardSpec.multi_level()
        assert reward_value(spec, IDLE, W, True) == -3.0
        assert reward_value(spec, IDLE, W, False) == 2.0
        assert reward_value(spec, BUSY, W, True) == 10.0
        assert reward_value(spec, BUSY, W, False) == 10.0
        assert reward_value(spec, SUCC, T, True) == 10.0
        assert reward_value(spec, SUCC, T, False) == 10.0
        assert reward_value(spec, FAIL, T, True) == -5.0
        assert reward_value(spec, FAIL, T, False) == -5.0
        assert reward_value(spec, FAIL, W, True) == 2.0
        assert reward_value(spec, FAIL, W, False) == 2.0

    def test_multi_level_impossible_cells(self):
        spec = RewardSpec.multi_level()
        for obs, action in ((IDLE, T), (BUSY, T), (SUCC, W)):
            with pytest.raises(ValueError):
                reward_value(spec, obs, action, False)

    def test_parse(self):
        assert RewardSpec.parse("two-level").kind is RewardKind.TWO_LEVEL
        assert RewardSpec.parse("multi-level").kind is RewardKind.MULTI_LEVEL
        spec = RewardSpec.parse("two-level-shifted:0.3")
        assert spec.kind is RewardKind.TWO_LEVEL and spec.shift == 0.3
        with pytest.raises(ValueError):
            RewardSpec.parse("bogus")
        with pytest.raises(ValueError):
            RewardSpec.two_level(1.5)

    def test_unshifted_two_level_has_one_spelling(self):
        assert RewardSpec.parse("two-level-shifted:0") == RewardSpec()
        with pytest.raises(ValueError, match="shift only applies"):
            RewardSpec(RewardKind.MULTI_LEVEL, 0.3)


class TestStateEncoding:
    def test_sizes(self):
        assert state_space_size(StateKind.FULL, 5) == 128
        assert state_space_size(StateKind.FULL, 1) == 8
        assert state_space_size(StateKind.HOL, 3) == 16
        assert state_space_size(StateKind.TINY, 30) == 8

    def test_full_uses_occupancy_mask(self):
        q = LeadTimeQueue([1, 0])
        assert encode_state(StateKind.FULL, q, int(FAIL)) == 1 * 4 + 3
        q = LeadTimeQueue([0, 1])
        assert encode_state(StateKind.FULL, q, int(IDLE)) == 2 * 4 + 0

    def test_hol_and_tiny(self):
        q = LeadTimeQueue([0, 1, 1])
        assert encode_state(StateKind.HOL, q, int(BUSY)) == 2 * 4 + 1
        assert encode_state(StateKind.TINY, q, int(BUSY)) == 0 * 4 + 1
        q = LeadTimeQueue([1, 0, 0])
        assert encode_state(StateKind.TINY, q, int(SUCC)) == 1 * 4 + 2
        empty = LeadTimeQueue.empty(4)
        assert encode_state(StateKind.HOL, empty, int(IDLE)) == 0
        assert encode_state(StateKind.TINY, empty, int(IDLE)) == 0

    def test_indices_cover_space_exactly(self):
        for kind in StateKind:
            lifetime = 3
            seen = set()
            for mask in range(1 << lifetime):
                counts = [(mask >> k) & 1 for k in range(lifetime)]
                q = LeadTimeQueue(counts)
                for obs in range(4):
                    idx = encode_state(kind, q, obs)
                    assert 0 <= idx < state_space_size(kind, lifetime)
                    seen.add(idx)
            assert len(seen) == state_space_size(kind, lifetime)


class TestEpsilonSchedule:
    def test_shape(self):
        assert epsilon_at(1) == 1.0
        values = [epsilon_at(t) for t in range(1, 2001)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        floor_step = math.ceil(1 + math.log(0.01) / math.log(0.995))
        assert floor_step == 920
        assert epsilon_at(floor_step - 1) > 0.01
        for t in (floor_step, floor_step + 1, 10_000):
            assert epsilon_at(t) == 0.01

    def test_learner_tracks_schedule(self):
        learner = TabularLearner("r-tiny", lifetime=2, rng=np.random.default_rng(0))
        for t in range(1, 1500):
            assert learner.epsilon() == pytest.approx(epsilon_at(t), abs=1e-12)
            learner.select(0)
        assert learner.epsilon() == 0.01


class TestUpdates:
    @staticmethod
    def fresh(algorithm):
        return TabularLearner(f"{algorithm}-tiny", lifetime=2, rng=np.random.default_rng(0))

    def test_q_first_step(self):
        ln = self.fresh("q")
        ln.update(0, W, 1.0, 1)
        assert ln.q[0] == pytest.approx(0.01, abs=0)
        assert sum(v != 0 for v in ln.q) == 1

    def test_q_bootstrap_value(self):
        ln = self.fresh("q")
        ln.q[2 * 3 + 0] = 0.2
        ln.q[2 * 3 + 1] = 0.6  # best next
        ln.q[2 * 1 + 1] = 0.5
        ln.update(1, T, 0.0, 3)
        # 0.5 + 0.01 * (0 + 0.9 * 0.6 - 0.5) = 0.5004
        assert ln.q[2 * 1 + 1] == pytest.approx(0.5004, abs=1e-15)

    def test_q_noop_when_converged(self):
        ln = self.fresh("q")
        ln.update(0, W, 0.0, 0)
        assert all(v == 0.0 for v in ln.q)

    def test_r_first_step(self):
        ln = self.fresh("r")
        ln.update(0, W, 1.0, 1)
        assert ln.q[0] == pytest.approx(0.01, abs=0)
        assert ln.rho == pytest.approx(0.01, abs=0)

    def test_r_single_error_term_drives_both_updates(self):
        ln = self.fresh("r")
        ln.q[2 * 1 + 0] = 0.2
        ln.q[2 * 5 + 1] = 0.3  # best next
        ln.rho = 0.05
        ln.update(1, W, 1.0, 5)
        # delta = 1 + 0.3 - 0.2 - 0.05 = 1.05, both increments use it
        assert ln.q[2 * 1 + 0] == pytest.approx(0.2105, abs=1e-15)
        assert ln.rho == pytest.approx(0.0605, abs=1e-15)

    def test_r_gain_tracks_constant_reward(self):
        # self-loop with constant reward: the gain estimate converges to it
        ln = self.fresh("r")
        for _ in range(100_000):
            ln.update(0, W, 0.7, 0)
        assert abs(ln.rho - 0.7) < 0.01

    def test_q_envelope_under_bounded_rewards(self):
        rng = np.random.default_rng(5)
        ln = self.fresh("q")
        steps = 20_000
        for t in range(1, steps + 1):
            s, a, s2 = int(rng.integers(8)), int(rng.integers(2)), int(rng.integers(8))
            ln.update(s, a, float(rng.random()), s2)
            assert max(abs(v) for v in ln.q) <= 0.01 * t + 1e-9
        assert all(np.isfinite(ln.q))

    def test_r_stays_finite_and_bounded(self):
        rng = np.random.default_rng(6)
        ln = self.fresh("r")
        for _ in range(20_000):
            s, a, s2 = int(rng.integers(8)), int(rng.integers(2)), int(rng.integers(8))
            ln.update(s, a, float(rng.random()), s2)
        assert all(np.isfinite(ln.q))
        assert abs(ln.rho) < 10.0
        assert max(abs(v) for v in ln.q) < 100.0


class TestSelection:
    def test_greedy_tie_break_is_wait(self):
        ln = TabularLearner("r-tiny", lifetime=2, rng=np.random.default_rng(0))
        assert ln.greedy(0) == W
        ln.q[2 * 4 + 0] = 0.37
        ln.q[2 * 4 + 1] = 0.37
        assert ln.greedy(4) == W
        ln.q[2 * 4 + 1] = 0.38
        assert ln.greedy(4) == T
        assert ln.greedy_policy()[4] == T
        assert ln.greedy_policy()[0] == W

    def test_exploration_is_uniform(self):
        # epsilon is 1 at a learner's first step: 3 sigma for 1e5 fair draws
        # is 0.0047
        rng = np.random.default_rng(123)
        n = 100_000
        transmits = 0
        for _ in range(n):
            ln = TabularLearner("r-tiny", lifetime=2, rng=rng)
            ln.q[1] = 50.0  # greedy would always transmit
            transmits += ln.select(0) == T
        assert abs(transmits / n - 0.5) < 0.01

    def test_select_sequences_are_reproducible(self):
        a = TabularLearner("r-tiny", lifetime=2, rng=np.random.default_rng(9))
        b = TabularLearner("r-tiny", lifetime=2, rng=np.random.default_rng(9))
        seq_a = [a.select(s % 8) for s in range(500)]
        seq_b = [b.select(s % 8) for s in range(500)]
        assert seq_a == seq_b

    def test_q_table_shape(self):
        ln = TabularLearner("r-full", lifetime=3, rng=np.random.default_rng(0))
        table = q_table(ln)
        assert table.shape == (32, 2)
        ln.q[5] = 1.25
        assert q_table(ln)[2, 1] == 1.25


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            TabularLearner("sarsa-tiny", lifetime=2, rng=np.random.default_rng(0))


class TestBlindTransmit:
    def test_rule(self):
        assert blind_transmit(True, 1.0, 0.0) == W
        assert blind_transmit(False, 1.0, 0.999999) == T
        assert blind_transmit(False, 0.4, 0.39) == T
        assert blind_transmit(False, 0.4, 0.40) == W
        assert blind_transmit(False, 0.0, 0.0) == W
