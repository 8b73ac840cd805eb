"""Slotted random access with hard per-packet deadlines.

A discrete-time simulator for devices sharing one collision channel, a family
of tabular reinforcement-learning transmission policies, and an exact
two-device upper bound, solved by policy iteration on the genie MDP and
certified by its gain interval, with the dual linear program kept for export
to external solvers.
"""

from dcra.core import (
    Action,
    ApFeedback,
    ChannelObservation,
    DeviceParams,
    LeadTimeQueue,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "ApFeedback",
    "ChannelObservation",
    "DeviceParams",
    "LeadTimeQueue",
    "__version__",
]
