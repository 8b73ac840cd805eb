"""Shared vocabulary for slotted random access with per-packet deadlines.

Every packet arrives with a fixed lifetime of D slots: a packet that enters
the queue during slot t can be transmitted in slots t .. t+D-1 and is dropped
at the end of slot t+D-1 if it was never delivered.  Queues therefore track
packets by remaining lead time instead of arrival order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    "Action",
    "ApFeedback",
    "ChannelObservation",
    "DeviceParams",
    "LeadTimeQueue",
]


class Action(enum.IntEnum):
    """What a device decides to do in a slot.  WAIT sorts first on ties."""

    WAIT = 0
    TRANSMIT = 1


class ChannelObservation(enum.IntEnum):
    """Per-device view of a slot, reconstructed from access-point feedback.

    IDLE       nobody transmitted
    BUSY       some other device transmitted and was decoded
    SUCCESSFUL this device transmitted and was decoded
    FAILED     at least one transmission, nothing decoded
    """

    IDLE = 0
    BUSY = 1
    SUCCESSFUL = 2
    FAILED = 3


class ApFeedback(enum.IntEnum):
    """Broadcast feedback at the end of a slot: silence, an ACK naming the
    decoded device, or a NACK after an undecodable slot."""

    NOTHING = 0
    ACK = 1
    NACK = 2


@dataclass(frozen=True)
class DeviceParams:
    """Traffic and channel parameters of one device.

    arrival_rate is the probability that a packet arrives in a slot; at most
    one arrives per slot (Bernoulli traffic).  success_prob is the
    probability that a transmission is decoded when this device is the only
    sender in the slot; two or more simultaneous senders are never decoded.
    transmit_prob is only meaningful for devices running the blind
    retransmission policy (transmit the head-of-line packet with fixed
    probability whenever the queue is non-empty).
    """

    arrival_rate: float
    success_prob: float
    transmit_prob: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.arrival_rate <= 1.0:
            raise ValueError(f"arrival rate {self.arrival_rate} outside [0, 1]")
        if not 0.0 <= self.success_prob <= 1.0:
            raise ValueError(f"success_prob {self.success_prob} outside [0, 1]")
        if self.transmit_prob is not None and not 0.0 <= self.transmit_prob <= 1.0:
            raise ValueError(f"transmit_prob {self.transmit_prob} outside [0, 1]")


@dataclass
class LeadTimeQueue:
    """Pending packets of one device, bucketed by remaining lead time.

    counts[k] is the number of queued packets that expire k+1 slots from now,
    so counts[0] holds the packets that must be delivered in the current slot.
    The head-of-line packet is always taken from the smallest non-empty
    bucket.  With at most one arrival per slot every bucket holds 0 or 1
    packets; the counts are general so that the queue rules stand on their
    own as the reference model that the simulator's bitmasks reproduce.
    """

    counts: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.counts:
            raise ValueError("queue needs at least one lead-time bucket")
        if any(c < 0 for c in self.counts):
            raise ValueError(f"negative bucket in {self.counts}")

    @classmethod
    def empty(cls, lifetime: int) -> "LeadTimeQueue":
        if lifetime < 1:
            raise ValueError(f"packet lifetime must be >= 1, got {lifetime}")
        return cls([0] * lifetime)

    @property
    def lifetime(self) -> int:
        return len(self.counts)

    @property
    def is_empty(self) -> bool:
        return not any(self.counts)

    def total(self) -> int:
        return sum(self.counts)

    def urgent(self) -> bool:
        """True when a packet expires at the end of the current slot."""
        return self.counts[0] > 0

    def hol_lead_time(self) -> int:
        """Lead time (in slots, >= 1) of the head-of-line packet, 0 if empty."""
        for k, c in enumerate(self.counts):
            if c:
                return k + 1
        return 0

    def occupancy_mask(self) -> int:
        """Bucket occupancy as a bitmask, bit k set iff counts[k] == 1.

        Only defined while every bucket holds 0 or 1 packets, which one
        arrival per slot guarantees; anything else has no faithful encoding.
        """
        mask = 0
        for k, c in enumerate(self.counts):
            if c > 1:
                raise ValueError(f"bucket {k} holds {c} packets, occupancy mask undefined")
            if c:
                mask |= 1 << k
        return mask

    def advance(self, delivered: bool, arrivals: int) -> int:
        """Close out the current slot and roll every deadline one slot closer.

        In order: (1) if delivered, remove the head-of-line packet, i.e.
        decrement the smallest non-empty bucket; (2) whatever is left in
        counts[0] expires and is dropped; (3) every other bucket shifts down
        one position and the new arrivals land in the last bucket.  Returns
        the number of expired packets.
        """
        if arrivals < 0:
            raise ValueError(f"arrivals must be >= 0, got {arrivals}")
        c = self.counts
        if delivered:
            for k in range(len(c)):
                if c[k]:
                    c[k] -= 1
                    break
            else:
                raise ValueError("delivery reported on an empty queue")
        expired = c[0]
        del c[0]
        c.append(arrivals)
        return expired
