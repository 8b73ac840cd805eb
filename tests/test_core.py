"""Queue bookkeeping: hand-traced slot advances plus conservation properties."""

import numpy as np
import pytest

from dcra.core import DeviceParams, LeadTimeQueue
from oracles import draw_arrivals


class TestAdvance:
    def test_expiry_without_delivery(self):
        # (1,0): the lone packet is due now, nobody delivered it, one arrival lands
        q = LeadTimeQueue([1, 0])
        expired = q.advance(delivered=False, arrivals=1)
        assert expired == 1
        assert q.counts == [0, 1]

    def test_delivery_of_due_packet(self):
        q = LeadTimeQueue([1, 0])
        expired = q.advance(delivered=True, arrivals=0)
        assert expired == 0
        assert q.counts == [0, 0]

    def test_delivery_takes_head_of_line_then_shift(self):
        # (0,1,1): delivery removes the smallest non-empty bucket (lead time 2),
        # nothing was due so nothing expires, two arrivals land in the last slot
        q = LeadTimeQueue([0, 1, 1])
        expired = q.advance(delivered=True, arrivals=2)
        assert expired == 0
        assert q.counts == [0, 1, 2]

    def test_delivery_on_empty_queue_rejected(self):
        q = LeadTimeQueue.empty(3)
        with pytest.raises(ValueError):
            q.advance(delivered=True, arrivals=0)

    def test_negative_arrivals_rejected(self):
        q = LeadTimeQueue.empty(2)
        with pytest.raises(ValueError):
            q.advance(delivered=False, arrivals=-1)

    def test_conservation_under_random_traffic(self):
        # total after = total - delivered - expired + arrivals, every slot
        rng = np.random.default_rng(7)
        for _ in range(200):
            lifetime = int(rng.integers(1, 6))
            q = LeadTimeQueue(list(rng.integers(0, 3, size=lifetime)))
            for _ in range(50):
                before = q.total()
                delivered = bool(rng.random() < 0.5) and not q.is_empty
                arrivals = int(rng.integers(0, 3))
                expired = q.advance(delivered, arrivals)
                assert q.total() == before - int(delivered) - expired + arrivals
                assert all(c >= 0 for c in q.counts)

    def test_drains_in_exactly_max_lead_time_slots(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            lifetime = int(rng.integers(1, 8))
            counts = list(rng.integers(0, 2, size=lifetime))
            if not any(counts):
                counts[int(rng.integers(0, lifetime))] = 1
            q = LeadTimeQueue(list(counts))
            deadline = max(k + 1 for k, c in enumerate(counts) if c)
            for step in range(deadline):
                assert not q.is_empty, f"drained early at step {step}"
                q.advance(delivered=False, arrivals=0)
            assert q.is_empty

    def test_bernoulli_traffic_keeps_buckets_binary(self):
        rng = np.random.default_rng(3)
        q = LeadTimeQueue.empty(4)
        for _ in range(2000):
            delivered = bool(rng.random() < 0.4) and not q.is_empty
            q.advance(delivered, arrivals=int(rng.random() < 0.6))
            assert all(c in (0, 1) for c in q.counts)
            q.occupancy_mask()  # must stay encodable


class TestQueueViews:
    def test_urgent_flag(self):
        assert LeadTimeQueue([1, 0]).urgent()
        assert not LeadTimeQueue([0, 1]).urgent()
        assert not LeadTimeQueue.empty(3).urgent()

    def test_hol_lead_time(self):
        assert LeadTimeQueue([0, 1, 1]).hol_lead_time() == 2
        assert LeadTimeQueue([1, 1, 0]).hol_lead_time() == 1
        assert LeadTimeQueue.empty(2).hol_lead_time() == 0

    def test_occupancy_mask(self):
        assert LeadTimeQueue([1, 0]).occupancy_mask() == 0b01
        assert LeadTimeQueue([0, 1]).occupancy_mask() == 0b10
        assert LeadTimeQueue([1, 1, 1]).occupancy_mask() == 0b111
        assert LeadTimeQueue.empty(5).occupancy_mask() == 0
        with pytest.raises(ValueError):
            LeadTimeQueue([2, 0]).occupancy_mask()

    def test_validation(self):
        with pytest.raises(ValueError):
            LeadTimeQueue([])
        with pytest.raises(ValueError):
            LeadTimeQueue([1, -1])
        with pytest.raises(ValueError):
            LeadTimeQueue.empty(0)


class TestArrivals:
    def test_bernoulli_certain(self):
        rng = np.random.default_rng(0)
        p = DeviceParams(arrival_rate=1.0, success_prob=0.5)
        assert all(draw_arrivals(p, rng) == 1 for _ in range(100))
        p0 = DeviceParams(arrival_rate=0.0, success_prob=0.5)
        assert all(draw_arrivals(p0, rng) == 0 for _ in range(100))

    def test_bernoulli_mean(self):
        # 3 sigma for 1e6 fair coin draws is 0.0015
        rng = np.random.default_rng(42)
        p = DeviceParams(arrival_rate=0.5, success_prob=0.5)
        n = 1_000_000
        mean = sum(draw_arrivals(p, rng) for _ in range(n)) / n
        assert abs(mean - 0.5) < 0.002

    def test_param_validation(self):
        with pytest.raises(ValueError):
            DeviceParams(arrival_rate=1.2, success_prob=0.5)
        with pytest.raises(ValueError):
            DeviceParams(arrival_rate=0.5, success_prob=-0.1)
        with pytest.raises(ValueError):
            DeviceParams(arrival_rate=0.5, success_prob=0.5, transmit_prob=1.5)
