"""Deterministic engine workloads for the bit-identical-trace gate.

The event-engine rewrite (two-tier scheduler + timer wheel) must not
change a single observable event: same `(time, priority, seq)` execution
order, same trace records, same measured latencies.  This module defines
a handful of deterministic workloads and reduces each to a canonical
sha256 digest; ``tests/data/engine_golden.json`` holds the digests
recorded on the pre-rewrite single-heap engine, and
``test_engine_trace_regression.py`` asserts the live engine still
produces them.

The two full-stack workloads digest trace *content* (every trace row
and the final clock) and report the raw ``events_executed`` count
beside it.  That count measures how many callbacks the engine
dispatched, which cheaper event machinery lowers without moving any
trace row, so it is pinned exactly in its own ``events_executed`` table
instead of being folded into the digest.

Regenerate the golden file (only when an *intentional* semantic change
is made, never to paper over a diff) with::

    PYTHONPATH=src:. python tests/golden_engine.py

Trace/span ids are allocated from process-global counters, so they are
renumbered by order of first appearance before hashing -- the digests
are then independent of whatever ran earlier in the process.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.calibration import LANAI_4_3_SYSTEM
from repro.analysis.experiments import measure_barrier
from repro.cluster.builder import build_cluster
from repro.cluster.runner import run_on_group
from repro.core.barrier import barrier
from repro.faults.plan import FaultPlan, LinkFlap, LossRule
from repro.sim.engine import PRIORITY_HIGH, PRIORITY_LOW, Simulator
from repro.sim.tracing import TraceContext

GOLDEN_PATH = Path(__file__).parent / "data" / "engine_golden.json"


def _digest(obj: Any) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=str).encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# Workload 1: pure-engine schedule/cancel storm.
# ----------------------------------------------------------------------
def engine_storm() -> Tuple[str, None]:
    """A seeded storm of schedules, cancellations and priorities.

    Exercises exactly what the scheduler rewrite touches: same-instant
    priority ordering, FIFO among equals, lazy cancellation, long-delay
    entries (the overflow tier), short chains (the near buckets) and
    timer-style cancel-before-fire patterns.
    """
    rng = random.Random(0xC0FFEE)
    sim = Simulator()
    log: List[tuple] = []
    handles: List = []

    def fire(tag: int) -> None:
        log.append((sim.now, tag))
        # Every execution schedules a few follow-ons, seeded.
        for _ in range(rng.randrange(0, 3)):
            delay = rng.choice([0.0, 0.01, 0.7, 1.0, 5.0, 93.5, 800.0, 4321.0])
            prio = rng.choice([PRIORITY_HIGH, 0, 0, 0, PRIORITY_LOW])
            h = sim.schedule(delay, fire, rng.randrange(1000), priority=prio)
            handles.append(h)
        # Cancel a random earlier handle now and then (timer churn).
        if handles and rng.random() < 0.4:
            handles.pop(rng.randrange(len(handles))).cancel()

    for i in range(40):
        sim.schedule(rng.random() * 10.0, fire, i)
    sim.run(until=9000.0)
    sim.run()  # drain the tail
    log.append(("final", sim.now, sim.events_executed))
    return _digest(log), None


# ----------------------------------------------------------------------
# Workload 2: traced 16-node NIC-PE barrier (full stack, tracing ON).
# ----------------------------------------------------------------------
def _canonical_payload(payload: Dict[str, Any], ids: Dict, label: str) -> Dict[str, Any]:
    out = {}
    for key, value in payload.items():
        if key == "key":
            # Packet/token keys come from process-global counters too;
            # renumber them like trace/span ids so the digest doesn't
            # depend on what ran earlier in the process.  Namespaced by
            # label because packet ids and multicast token ids are
            # *different* counters whose raw values collide.
            out[key] = ids.setdefault(("k", label, value), len(ids))
        elif isinstance(value, TraceContext):
            out[key] = {
                "trace": ids.setdefault(("t", value.trace_id), len(ids)),
                "span": ids.setdefault(("s", value.span_id), len(ids)),
                "parent": (
                    None
                    if value.parent_span_id is None
                    else ids.setdefault(("s", value.parent_span_id), len(ids))
                ),
                "hop": value.hop,
                "attempt": value.attempt,
            }
        else:
            out[key] = str(value)
    return out


def traced_barrier(num_nodes: int = 16, repetitions: int = 3) -> Tuple[str, int]:
    config = LANAI_4_3_SYSTEM.cluster_config(num_nodes).with_(trace=True)
    cluster = build_cluster(config)

    def program(ctx):
        for _ in range(repetitions):
            yield from barrier(ctx.port, ctx.group, ctx.rank)

    run_on_group(cluster, program, max_events=5_000_000)
    ids: Dict = {}
    rows = [
        (ev.time, ev.category, ev.label, _canonical_payload(ev.payload, ids, ev.label))
        for ev in cluster.tracer.events
    ]
    rows.append(("final", cluster.sim.now))
    return _digest(rows), cluster.sim.events_executed


# ----------------------------------------------------------------------
# Workload 3: untraced measurements (tracing OFF) -- latencies + counts.
# ----------------------------------------------------------------------
def untraced_measurements() -> Tuple[str, None]:
    rows = []
    for nic_based, algorithm in ((True, "pe"), (False, "pe"), (True, "gb")):
        m = measure_barrier(
            LANAI_4_3_SYSTEM.cluster_config(16),
            nic_based=nic_based,
            algorithm=algorithm,
            repetitions=3,
            warmup=1,
        )
        rows.append((algorithm, nic_based, m.mean_latency_us, m.per_barrier_us))
    return _digest(rows), None


# ----------------------------------------------------------------------
# Workload 4: faulted run (retransmit timers + recovery paths).
# ----------------------------------------------------------------------
def faulted_barrier() -> Tuple[str, int]:
    from dataclasses import replace

    from repro.gm.constants import BarrierReliability

    base = LANAI_4_3_SYSTEM.cluster_config(8)
    config = base.with_(
        nic_params=replace(
            base.nic_params,
            barrier_reliability=BarrierReliability.SEPARATE,
            retransmit_timeout_us=300.0,
            barrier_retransmit_timeout_us=200.0,
        ),
        fault_plan=FaultPlan(
            seed=7,
            loss=[LossRule(rate=0.05)],
            flaps=[LinkFlap(node=3, down_at=40.0, up_at=120.0, direction="both")],
        ),
    )
    cluster = build_cluster(config)

    def program(ctx):
        for _ in range(4):
            yield from barrier(ctx.port, ctx.group, ctx.rank)

    run_on_group(cluster, program, max_events=5_000_000)
    return _digest(("final", cluster.sim.now)), cluster.sim.events_executed


WORKLOADS = {
    "engine_storm": engine_storm,
    "traced_barrier_pe16": traced_barrier,
    "untraced_measurements": untraced_measurements,
    "faulted_barrier_gb8": faulted_barrier,
}


@lru_cache(maxsize=None)
def run_workload(name: str) -> Tuple[str, Optional[int]]:
    """``(content digest, events executed or None)`` for one workload."""
    return WORKLOADS[name]()


def compute_golden() -> Dict[str, Any]:
    golden: Dict[str, Any] = {"events_executed": {}}
    for name in WORKLOADS:
        digest, events = run_workload(name)
        golden[name] = digest
        if events is not None:
            golden["events_executed"][name] = events
    return golden


def main() -> None:
    golden = compute_golden()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    for name in WORKLOADS:
        print(f"  {name}: {golden[name][:16]}…")
    for name, events in golden["events_executed"].items():
        print(f"  {name}: {events} events")


if __name__ == "__main__":
    main()
