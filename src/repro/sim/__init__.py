"""Discrete-event simulation substrate.

Provides the clock, processes, channels and bandwidth-limited links that
every timed experiment in the reproduction is built on.
"""

from .engine import (
    Continuation,
    Event,
    Process,
    Resource,
    SimulationError,
    Simulator,
    Store,
)
from .resources import DuplexLink, Link, TokenBucket, drain_store_via_link
from .stats import (
    Counter,
    Histogram,
    LatencyCollector,
    ThroughputMeter,
    percentile,
)

__all__ = [
    "Continuation",
    "Counter",
    "DuplexLink",
    "Event",
    "Histogram",
    "LatencyCollector",
    "Link",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "ThroughputMeter",
    "TokenBucket",
    "drain_store_via_link",
    "percentile",
]
