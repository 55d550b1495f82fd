"""Per-layer attribution for the traced run, measured from outside ``src/``.

Two instruments, both installed by the benchmark around the calls it
makes into the program:

* **Self time.**  A :mod:`cProfile` profile of the traced units, rolled
  up by source file into the layers named after ``src/repro`` modules
  (:data:`RULES`).  Code outside ``src/repro`` -- built-ins such as
  ``heapq.heappush`` and the standard library -- has no layer of its
  own: its self time is charged to the layers that called it, in
  proportion to the time each caller spent in it.  The benchmark's own
  files (the harness and the counting wrappers) are ``other``.
* **Call counts.**  :class:`CallCounters` wraps four public methods on
  their classes for the duration of a traced unit and counts calls
  (timers armed and cancelled, resource requests and whether each was
  granted without queueing, packets injected into the fabric).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Dict, Iterable, Optional, Tuple

from repro.network.packet import PacketType
from repro.nic.nic import Nic
from repro.sim.engine import Simulator, TimerHandle
from repro.sim.primitives import Resource

#: Dotted module prefix -> layer; the longest matching prefix wins.
RULES: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim.process", "sim.process"),
    ("repro.sim.primitives", "sim.primitives"),
    ("repro.sim.tracing", "sim.instruments"),
    ("repro.sim.metrics", "sim.instruments"),
    ("repro.telemetry", "sim.instruments"),
    ("repro.network", "network"),
    ("repro.nic", "nic"),
    ("repro.nic.mcp", "nic.mcp"),
    ("repro.nic.detector", "nic.detector"),
    ("repro.gm", "gm"),
    ("repro.host", "host"),
    ("repro.core", "core"),
    ("repro.mpi", "mpi"),
    ("repro.mpi.nbc", "mpi.nbc"),
    ("repro.faults", "faults"),
    ("repro.cluster", "cluster"),
    # Seeded RNG streams, package roots, and the analysis/campaign
    # tooling the workloads do not run on the hot path.
    ("repro", "other"),
    ("repro.sim", "other"),
    ("repro.sim.rng", "other"),
    ("repro.analysis", "other"),
    ("repro.campaign", "other"),
)

#: Every layer, in report order.
LAYERS: Tuple[str, ...] = (
    "sim.engine", "sim.process", "sim.primitives", "sim.instruments",
    "network", "nic", "nic.mcp", "nic.detector", "gm", "host", "core",
    "mpi", "mpi.nbc", "faults", "cluster", "other",
)

_SRC_MARKER = os.sep + "src" + os.sep + "repro" + os.sep


def module_of_file(filename: str) -> Optional[str]:
    """Dotted module name of a file under ``src/repro``, else None."""
    cut = filename.rfind(_SRC_MARKER)
    if cut < 0 or not filename.endswith(".py"):
        return None
    parts = filename[cut + len(os.sep + "src" + os.sep):-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def rule_for(module: str) -> Optional[Tuple[str, str]]:
    """The longest rule whose prefix is ``module`` or a package of it."""
    best = None
    for prefix, layer in RULES:
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    return best


def layer_of_module(module: str) -> str:
    """The layer a ``repro`` module's self time belongs to."""
    rule = rule_for(module)
    return rule[1] if rule is not None else "other"


def self_time_by_layer(stats: dict, own_dir: str) -> Dict[str, float]:
    """Roll a ``pstats.Stats(...).stats`` table up into seconds per layer.

    Functions in ``src/repro`` go to their module's layer, functions in
    ``own_dir`` (the benchmark) to ``other``, and everything else to its
    callers' layers, split by the self time each caller accounts for.
    The returned values sum to the profile's total self time.
    """
    memo: Dict[tuple, Dict[str, float]] = {}

    def shares(func: tuple, visiting: frozenset = frozenset()):
        """Fraction of ``func``'s self time owed to each layer."""
        if func in memo:
            return memo[func]
        module = module_of_file(func[0])
        if module is not None:
            result = {layer_of_module(module): 1.0}
        elif func[0].startswith(own_dir) or func in visiting \
                or func not in stats:
            result = {"other": 1.0}
        else:
            callers = stats[func][4]
            weights = {c: max(v[2], 0.0) for c, v in callers.items()}
            if sum(weights.values()) <= 0:
                weights = {c: float(v[1]) for c, v in callers.items()}
            total = sum(weights.values())
            result = {} if total > 0 else {"other": 1.0}
            for caller, weight in weights.items():
                for layer, part in shares(caller, visiting | {func}).items():
                    result[layer] = result.get(layer, 0.0) + part * weight / total
        memo[func] = result
        return result

    totals = {layer: 0.0 for layer in LAYERS}
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for layer, part in shares(func).items():
            totals[layer] += tt * part
    return totals


@dataclass
class CallCounters:
    """Calls into public methods of the engine, primitives and NIC."""

    timers_armed: int = 0
    timers_cancelled: int = 0
    resource_requests: int = 0
    resource_uncontended: int = 0
    packets: int = 0
    bytes: int = 0
    acks: int = 0

    def __iadd__(self, other: "CallCounters") -> "CallCounters":
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    @contextmanager
    def installed(self):
        """Count calls made while the ``with`` block runs."""
        counters = self
        schedule_timer = Simulator.schedule_timer
        cancel = TimerHandle.cancel
        request = Resource.request
        inject = Nic.inject
        acks = (PacketType.ACK, PacketType.BARRIER_ACK)

        def counted_schedule_timer(sim, *args, **kwargs):
            counters.timers_armed += 1
            return schedule_timer(sim, *args, **kwargs)

        def counted_cancel(handle):
            if not handle.cancelled:
                counters.timers_cancelled += 1
            return cancel(handle)

        def counted_request(resource):
            counters.resource_requests += 1
            if resource.in_use < resource.capacity and resource.queued == 0:
                counters.resource_uncontended += 1
            return request(resource)

        def counted_inject(nic, packet):
            if not nic.crashed:
                counters.packets += 1
                counters.bytes += packet.size_bytes
                if packet.ptype in acks:
                    counters.acks += 1
            return inject(nic, packet)

        Simulator.schedule_timer = counted_schedule_timer
        TimerHandle.cancel = counted_cancel
        Resource.request = counted_request
        Nic.inject = counted_inject
        try:
            yield self
        finally:
            Simulator.schedule_timer = schedule_timer
            TimerHandle.cancel = cancel
            Resource.request = request
            Nic.inject = inject


def iter_repro_modules(src_dir: str) -> Iterable[str]:
    """Every module under ``src_dir/repro`` as a dotted name."""
    root = os.path.join(src_dir, "repro")
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                found = module_of_file(os.path.join(dirpath, name))
                if found is not None:
                    yield found
