"""Discrete-event simulation kernel.

A small, dependency-free, deterministic discrete-event simulation (DES)
engine in the style of SimPy, purpose-built for simulating the Myrinet/GM
cluster substrate of this reproduction.

Key concepts
------------
:class:`~repro.sim.engine.Simulator`
    Owns the virtual clock and the event heap.  All other objects are bound
    to a simulator instance.
:class:`~repro.sim.process.Process`
    A generator-based coroutine.  Processes ``yield`` *waitables* --
    resource claims and holds (:class:`~repro.sim.primitives.Claim`), store
    gets (:class:`~repro.sim.primitives.StoreGet`),
    :class:`~repro.sim.primitives.Timeout`, :class:`~repro.sim.primitives.SimEvent`,
    other processes, or :class:`~repro.sim.primitives.AnyOf` /
    :class:`~repro.sim.primitives.AllOf` combinators -- and are resumed when
    the waitable fires.
:class:`~repro.sim.primitives.Store` / :class:`~repro.sim.primitives.Resource`
    FIFO queues with blocking ``get`` and capacity-limited resources with
    FIFO grant order, used to model NIC processors, DMA engines, buses and
    hardware queues.

Determinism
-----------
Events scheduled for the same instant fire in ``(time, priority, seq)``
order where ``seq`` is a monotone counter, so a given program always
produces the identical event interleaving.  All randomness flows through
:mod:`repro.sim.rng` which is seeded explicitly.
"""

from repro.sim.engine import EventHandle, Simulator
from repro.sim.metrics import (
    BusyTime,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.sim.primitives import (
    AllOf,
    AnyOf,
    Interrupted,
    Resource,
    SimEvent,
    Store,
    Timeout,
)
from repro.sim.process import Process, ProcessKilled
from repro.sim.rng import SimRng
from repro.sim.tracing import TraceEvent, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "BusyTime",
    "Counter",
    "EventHandle",
    "Gauge",
    "Histogram",
    "Interrupted",
    "MetricsRegistry",
    "Process",
    "ProcessKilled",
    "Resource",
    "SimEvent",
    "SimRng",
    "Simulator",
    "Store",
    "Timeout",
    "TraceEvent",
    "Tracer",
]
