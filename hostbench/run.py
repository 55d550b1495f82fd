"""Host-cost benchmark of the simulator: one workload per invocation.

Run from the repository root::

    python3 hostbench/run.py --workload nic-barrier --seed 1 --seconds 25 --trace 0

The workload is a closed loop with one client in one thread: units run
one after another, each on a freshly built cluster, until ``--seconds``
have passed (whole passes over the workload's cycle of units, and at
least :data:`MIN_SAMPLES` units so the p90 has ten samples beyond it).
Every unit's simulated output is checked by its oracle; a unit that
raises or fails a check counts in ``failed``.  A unit that failed a check
keeps its timing (its simulation ran to the end); one that raised has
none.  Each unit's wall time is scaled to a reference host speed measured
around it (see reference.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced executions of the same units and reports the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object; the lines before it print every metric by
name and unit.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from reference import REFERENCE_NOMINAL_S, time_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh interpreters timed from launch to "first unit ready"; setup_s is
#: their median.
SETUP_PROBES = 7
#: Timed units a trace-0 run collects at least (p90 + ten beyond it).
MIN_SAMPLES = 100
#: A run stops after this long whatever it has collected.
HARD_STOP_S = 140.0
#: Failures printed in full before the summary.
SHOWN_FAILURES = 3


def load_program():
    """Import the workloads (and with them the simulator) from ``src/``."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    return workloads


def execute(workloads, make_unit, *, profile=None, counters=None,
            reference=False):
    """Prepare, time and check one unit.

    Returns ``(outcome, wall_s, reference_s)``: ``wall_s`` is None when the
    unit raised before its run completed.  With ``reference``, the
    host-speed reference kernel is timed right before and right after the
    run and ``reference_s`` is the slower of the two: a slow spell that
    covers the run shows on at least one side of it.
    """
    gc.collect()
    unit = None
    try:
        unit = make_unit()
        unit.prepare()
        reference_s = time_reference() if reference else None
        if counters is None:
            t0 = time.perf_counter()
            unit.run()
            wall = time.perf_counter() - t0
        else:
            with counters.installed():
                profile.enable()
                t0 = time.perf_counter()
                unit.run()
                wall = time.perf_counter() - t0
                profile.disable()
        if reference:
            reference_s = max(reference_s, time_reference())
        return unit.outcome(), wall, reference_s
    except Exception:
        if profile is not None:
            profile.disable()
        return workloads.Outcome(
            ops=getattr(unit, "ops", 0), events=0, digest="",
            failure=traceback.format_exc(),
        ), None, None


class Tally:
    """Attempted/failed bookkeeping plus the first pass's outcomes."""

    def __init__(self, cycle_len: int) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.first: list = [None] * cycle_len

    def record(self, position: int, outcome, first_pass: bool) -> None:
        """Count one execution, failed when any check rejects it."""
        self.attempted += 1
        if first_pass:
            self.first[position] = outcome
        elif outcome.failure is None \
                and outcome.digest != self.first[position].digest:
            outcome.failure = (
                f"unit {position} is not deterministic: digest "
                f"{outcome.digest} != first pass {self.first[position].digest}"
            )
        if outcome.failure is not None:
            self.failed += 1
            self.failures.append(outcome.failure)

    def first_pass_sum(self, attr: str) -> int:
        return sum(getattr(o, attr) for o in self.first)


def measure(workloads, cycle, seconds: float):
    """Trace-0 loop: per-op wall samples of every unit that ran to the end,
    raw and scaled to the reference host speed."""
    tally = Tally(len(cycle))
    raw, scaled, ops, scaled_total = [], [], 0, 0.0
    start = time.perf_counter()
    first_pass = True
    while True:
        for position, make_unit in enumerate(cycle):
            outcome, wall, ref = execute(workloads, make_unit, reference=True)
            tally.record(position, outcome, first_pass)
            if wall is not None:
                wall_scaled = wall * REFERENCE_NOMINAL_S / ref
                raw.append(wall * 1e6 / outcome.ops)
                scaled.append(wall_scaled * 1e6 / outcome.ops)
                ops += outcome.ops
                scaled_total += wall_scaled
        first_pass = False
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (
            elapsed >= seconds and len(scaled) >= MIN_SAMPLES
        ):
            return tally, raw, scaled, ops, scaled_total


def measure_traced(workloads, layers, cycle, seconds: float):
    """Trace-1 loop: each unit untraced, then traced, until time is up."""
    tally = Tally(len(cycle))
    profile = cProfile.Profile()
    first_counters = layers.CallCounters()
    plain_wall = traced_wall = 0.0
    traced_ops = 0
    start = time.perf_counter()
    first_pass = True
    while True:
        for position, make_unit in enumerate(cycle):
            plain, wall_plain, _ = execute(workloads, make_unit)
            counters = layers.CallCounters()
            traced, wall_traced, _ = execute(
                workloads, make_unit, profile=profile, counters=counters
            )
            tally.record(position, plain, first_pass)
            tally.record(position, traced, False)
            if first_pass:
                first_counters += counters
            if wall_plain is not None and wall_traced is not None:
                plain_wall += wall_plain
                traced_wall += wall_traced
                traced_ops += traced.ops
        first_pass = False
        if time.perf_counter() - start >= min(seconds, HARD_STOP_S):
            break
    stats = pstats.Stats(profile).stats
    self_s = layers.self_time_by_layer(stats, str(HERE))
    total_s = sum(v[2] for v in stats.values())
    return tally, first_counters, self_s, total_s, traced_ops, (
        traced_wall / plain_wall - 1.0 if plain_wall > 0 else 0.0
    )


def setup_seconds(workload: str, seed: int):
    """Launch-to-ready time of fresh interpreters (see --setup-probe).

    Returns the median over :data:`SETUP_PROBES` probes, scaled to the
    reference speed like the unit timings, and the raw median.
    """
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        reference_s = time_reference()
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        ) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - t0
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {probe.returncode})")
        reference_s = max(reference_s, time_reference())
        raw.append(elapsed)
        scaled.append(elapsed * REFERENCE_NOMINAL_S / reference_s)
    return statistics.median(scaled), statistics.median(raw)


def percentile90(samples):
    """The 90th percentile (``statistics.quantiles``' default method)."""
    return statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 \
        else samples[0]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workloads, args):
    cycle = workloads.WORKLOADS[args.workload](args.seed)
    setup_s, setup_raw_s = setup_seconds(args.workload, args.seed)
    tally, raw, scaled, ops, scaled_total = measure(
        workloads, cycle, args.seconds
    )
    first_ops = tally.first_pass_sum("ops")
    metrics = {}
    extra = {}
    if scaled:
        p90 = percentile90(scaled)
        extra["samples"] = (
            f"{len(scaled)} timed units, {sum(s > p90 for s in scaled)} "
            "beyond p90"
        )
        extra["raw wall_us_per_op p50/p90"] = (
            f"{statistics.median(raw):.6f} / {percentile90(raw):.6f} us "
            "(this host as it ran, not scaled)"
        )
        metrics["wall_us_per_op_p50"] = metric(statistics.median(scaled), "us")
        metrics["wall_us_per_op_p90"] = metric(p90, "us")
        metrics["ops_per_s"] = metric(ops / scaled_total, "1/s")
    metrics["events_per_op"] = metric(
        tally.first_pass_sum("events") / first_ops if first_ops else 0.0,
        "events/op",
    )
    metrics["setup_s"] = metric(setup_s, "s")
    extra["raw setup_s"] = f"{setup_raw_s:.6f} s (this host as it ran, not scaled)"
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
    )
    return tally, metrics, extra


def per_layer(workloads, layers, args):
    cycle = workloads.WORKLOADS[args.workload](args.seed)
    tally, calls, self_s, total_s, traced_ops, overhead = measure_traced(
        workloads, layers, cycle, args.seconds
    )
    first = tally.first
    ops = sum(o.ops for o in first) or 1
    counts: dict = {}
    for outcome in first:
        for key, value in outcome.counts.items():
            counts[key] = counts.get(key, 0) + value
    detect = [d for o in first for d in o.detect_us]
    recover = [r for o in first for r in o.recover_us]
    lookups = counts.get("cache_hits", 0) + counts.get("cache_misses", 0)
    per_op = traced_ops or 1
    metrics = {
        f"{layer}.self_us_per_op": metric(self_s[layer] * 1e6 / per_op, "us")
        for layer in layers.LAYERS
    }
    metrics.update({
        "sim.engine.timers_armed_per_op":
            metric(calls.timers_armed / ops, "count/op"),
        "sim.engine.timers_cancelled_per_op":
            metric(calls.timers_cancelled / ops, "count/op"),
        "sim.primitives.resource_requests_per_op":
            metric(calls.resource_requests / ops, "count/op"),
        "sim.primitives.resource_uncontended_ratio": metric(
            calls.resource_uncontended / calls.resource_requests
            if calls.resource_requests else 0.0, "ratio"),
        "network.packets_per_op": metric(calls.packets / ops, "count/op"),
        "network.bytes_per_op": metric(calls.bytes / ops, "B/op"),
        "nic.dma.sdma_transfers_per_op":
            metric(counts["sdma_transfers"] / ops, "count/op"),
        "nic.dma.rdma_transfers_per_op":
            metric(counts["rdma_transfers"] / ops, "count/op"),
        "nic.mcp.acks_per_op": metric(calls.acks / ops, "count/op"),
        "nic.mcp.retransmits_per_op":
            metric(counts["retransmits"] / ops, "count/op"),
        "nic.detector.heartbeats_per_op":
            metric(counts["heartbeats"] / ops, "count/op"),
        "core.nic_barrier.resends_per_op":
            metric(counts["resends"] / ops, "count/op"),
        "mpi.nbc.cache_hit_ratio": metric(
            counts.get("cache_hits", 0) / lookups if lookups else 0.0, "ratio"),
        "mpi.nbc.compiles_per_op":
            metric(counts.get("cache_compiles", 0) / ops, "count/op"),
        "faults.detect_sim_us_p50":
            metric(statistics.median(detect) if detect else 0.0, "sim_us"),
        "faults.recover_sim_us_p50":
            metric(statistics.median(recover) if recover else 0.0, "sim_us"),
        "trace.overhead_pct": metric(overhead * 100.0, "%"),
    })
    extra = {
        "traced_ops": f"{traced_ops} (self time is per traced op)",
        "self_time_total_s": f"{total_s:.6g} (layers sum to "
                             f"{sum(self_s.values()):.6g})",
        "resource_requests": f"{calls.resource_requests} in the first pass "
                             "(base of the uncontended ratio)",
        "nbc_cache_lookups": f"{lookups} (base of the hit ratio)",
        "crash_samples": f"{len(detect)} detect, {len(recover)} recover "
                         "(0 reads as: no crash in this workload)",
    }
    return tally, metrics, extra


def probe(workloads, args) -> int:
    """--setup-probe: get the first unit ready, say so, exit."""
    unit = workloads.WORKLOADS[args.workload](args.seed)[0]()
    unit.prepare()
    print("ready", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        workloads = load_program()
    except ImportError as exc:
        print(f"cannot import the simulator from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        return probe(workloads, args)
    if args.trace:
        import layers

        tally, metrics, extra = per_layer(workloads, layers, args)
    else:
        tally, metrics, extra = end_to_end(workloads, args)
    correct = tally.failed == 0
    if args.workload == "crash-recovery":
        diff = workloads.reliability_diff(ROOT / "BENCH_reliability.json")
        extra["BENCH_reliability.json at seed 42"] = (
            f"differs (committed, measured): {diff}" if diff else "reproduced"
        )
        correct = correct and not diff
    extra["error_rate"] = (
        f"{tally.failed / tally.attempted:.6g} ratio "
        f"({tally.failed} of {tally.attempted} units failed)"
    )
    extra["first_pass_digest"] = workloads.digest(
        *(o.digest for o in tally.first)
    )
    for failure in tally.failures[:SHOWN_FAILURES]:
        print(f"FAILED UNIT: {failure.strip()}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6f} {m['unit']}")
    for name, text in extra.items():
        print(f"  {name:44s} {text}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
