"""The benchmark's four workloads: seeded inputs, units of work, oracles.

A *unit* is one freshly built cluster running a fixed batch of simulated
operations.  Every unit has three steps: :meth:`prepare` (untimed set-up:
build the cluster, open the ports, spawn the rank programs), :meth:`run`
(the timed part: drive the simulation to completion) and :meth:`outcome`
(untimed: check the simulated output against the oracle, read the
component counters and digest the result).

A workload turns ``--seed`` into a *cycle*: a fixed list of unit
factories.  The harness runs the cycle again and again until its time is
up, so every deterministic figure (events, counters, digests) is taken
from the first pass and every later pass must reproduce it exactly.  The
programs see only the inputs drawn here (entry skews, reduction operands,
crash victim and crash instant); every cluster keeps its default seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.calibration import LANAI_4_3_SYSTEM
from repro.cluster.builder import ClusterConfig, build_cluster
from repro.cluster.runner import spawn_group
from repro.core.barrier import barrier as nic_barrier
from repro.core.host_barrier import host_barrier
from repro.faults.inject import CRASH_DETECTOR_SLACK_US, CRASH_SUSPECT_AFTER_US
from repro.faults.plan import FaultPlan, NodeCrash
from repro.gm.events import PeerFailure
from repro.mpi.communicator import Communicator
from repro.nic.nic import NicParams
from repro.sim.primitives import Timeout

#: Runaway guard for one unit's simulation.
MAX_EVENTS = 5_000_000


@dataclass(frozen=True)
class Phase:
    """Consecutive barriers of one algorithm, the paper's Section-6 method:
    ``warmup`` unmeasured barriers, then ``reps`` whose mean latency must
    equal ``expected_us`` to two decimals."""

    nic_based: bool
    algorithm: str
    dimension: Optional[int]
    warmup: int
    reps: int
    expected_us: float


# The expected means are the EXPERIMENTS.md Figure 5(a) values at N=16
# (LANai 4.3).  Dissemination is not in that table; its 115.91 is pinned
# here from the simulator at the commit that introduced this benchmark.
# Host-GB d4 needs EXPERIMENTS.md's exact window (2 warm-ups, 6 reps)
# because its per-barrier latency is not constant; the other algorithms
# repeat one latency per barrier, so shorter phases reproduce them and
# keep units small enough for a p90 with ten samples beyond it.  Host-PE
# runs first: PE right after GB on one cluster does not settle.
NIC_PHASES = (
    Phase(True, "pe", None, 1, 2, 100.83),
    Phase(True, "dissemination", None, 1, 2, 115.91),
    Phase(True, "gb", 3, 1, 2, 167.47),
)
HOST_PHASES = (
    Phase(False, "pe", None, 1, 1, 175.43),
    Phase(False, "gb", 4, 2, 6, 262.75),
)
BARRIER_NODES = 16

NBC_NODES = 8
NBC_OPS_PER_UNIT = 8
NBC_COMPUTE_US = 60.0
NBC_CHUNK_US = 5.0
NBC_SKEW_MAX_US = 50.0
NBC_UNITS_PER_CYCLE = 6

CRASH_NODES = 8
#: (label, algorithm) flavours, cycled: a host-based, a NIC-based and a
#: non-blocking abort path.  BENCH_reliability.json uses host-pe for the
#: host-based one; here it is host-gb, because a PE barrier run right
#: after ``comm.shrink()`` (host-pe and nic-pe alike) can let a survivor
#: leave before another has entered -- a defect of the simulator that
#: the self-test ``test_post_shrink_pe_barrier_is_unsafe`` reproduces.
#: GB exercises the same layers (GM data path, go-back-N retransmits to
#: the dead peer, ``PeerFailure`` from ``GmPort.receive``).
CRASH_FLAVOURS = (
    ("host-gb", "gb"),
    ("nic-dissemination", "dissemination"),
    ("nbc-ibarrier", "nbc"),
)
CRASH_UNITS_PER_CYCLE = 24
#: Crash instants are drawn from this window: after every rank has
#: entered its first barrier and before the third could complete, so the
#: crash always lands mid-barrier.
CRASH_WINDOW_US = (20.0, 150.0)
CRASH_REPS = 3


@dataclass
class Outcome:
    """What one unit produced, as checked by its oracle."""

    ops: int
    events: int
    #: sha256 of the unit's simulated output (latencies, results, clock).
    digest: str
    #: First oracle violation, or None when the unit is correct.
    failure: Optional[str]
    #: Component counters read after the run (see :func:`cluster_counts`).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Simulated detect / recover intervals (crash-recovery only).
    detect_us: List[float] = field(default_factory=list)
    recover_us: List[float] = field(default_factory=list)


def digest(*parts) -> str:
    """Stable digest of simulated values (floats by their exact repr)."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def cluster_counts(cluster) -> Dict[str, float]:
    """Read the per-component counters the traced run reports."""
    counts = {
        "sdma_transfers": 0, "rdma_transfers": 0, "retransmits": 0,
        "heartbeats": 0, "resends": 0,
    }
    for node in cluster.nodes:
        nic = node.nic
        counts["sdma_transfers"] += nic.sdma_engine.transfers
        counts["rdma_transfers"] += nic.rdma_engine.transfers
        counts["retransmits"] += sum(
            conn.packets_retransmitted for conn in nic.connections.values()
        )
        counts["resends"] += nic.barrier_engine.resends
        if nic.detector is not None:
            counts["heartbeats"] += nic.detector.heartbeats_sent
    return counts


def unfinished(procs) -> Optional[str]:
    """Oracle: every rank program ran to completion."""
    stuck = [p.name for p in procs if p.alive]
    return f"programs did not finish: {stuck}" if stuck else None


def safety(enter: Sequence[Sequence[float]], exit_: Sequence[Sequence[float]]):
    """Oracle: in every barrier no rank leaves before the last one enters."""
    for index, (entered, left) in enumerate(zip(enter, exit_)):
        if not entered or len(entered) != len(left):
            return f"op {index}: {len(entered)} entries, {len(left)} exits"
        if max(entered) > min(left):
            return (
                f"op {index}: safety violated (max enter {max(entered)} > "
                f"min exit {min(left)})"
            )
    return None


class BarrierUnit:
    """16 nodes, LANai 4.3, zero skew: consecutive barrier phases on one
    fresh cluster."""

    def __init__(self, phases: Sequence[Phase]) -> None:
        self.phases = tuple(phases)
        self.ops = sum(p.warmup + p.reps for p in self.phases)

    def prepare(self) -> None:
        self.cluster = build_cluster(
            LANAI_4_3_SYSTEM.cluster_config(BARRIER_NODES)
        )
        self.enter: List[List[float]] = [[] for _ in range(self.ops)]
        self.exit: List[List[float]] = [[] for _ in range(self.ops)]
        self.procs = spawn_group(self.cluster, self._program)

    def _program(self, ctx):
        index = 0
        for phase in self.phases:
            op = nic_barrier if phase.nic_based else host_barrier
            for _ in range(phase.warmup + phase.reps):
                self.enter[index].append(ctx.now)
                yield from op(
                    ctx.port, ctx.group, ctx.rank,
                    algorithm=phase.algorithm, dimension=phase.dimension,
                )
                self.exit[index].append(ctx.now)
                index += 1

    def run(self) -> None:
        self.cluster.run(max_events=MAX_EVENTS)

    def outcome(self) -> Outcome:
        failure = unfinished(self.procs) or safety(self.enter, self.exit)
        latencies = [
            max(left) - max(entered) if entered and left else float("nan")
            for entered, left in zip(self.enter, self.exit)
        ]
        start = 0
        for phase in self.phases:
            measured = latencies[start + phase.warmup:
                                 start + phase.warmup + phase.reps]
            start += phase.warmup + phase.reps
            mean = sum(measured) / len(measured)
            if failure is None and round(mean, 2) != phase.expected_us:
                where = "NIC" if phase.nic_based else "host"
                failure = (
                    f"{where}-{phase.algorithm} mean {mean:.4f} us != "
                    f"expected {phase.expected_us}"
                )
        sim = self.cluster.sim
        return Outcome(
            ops=self.ops,
            events=sim.events_executed,
            digest=digest(sim.events_executed, sim.now, latencies),
            failure=failure,
            counts=cluster_counts(self.cluster),
        )


class NbcUnit:
    """8 nodes: Ibarrier alternating with Iallreduce, each overlapped with
    60 us of compute polled in 5 us chunks, after a seeded entry skew."""

    ops = NBC_OPS_PER_UNIT

    def __init__(self, skews_us, values) -> None:
        #: ``skews_us[rank][op]`` and ``values[rank][op]``, drawn from the seed.
        self.skews_us = skews_us
        self.values = values

    def prepare(self) -> None:
        self.cluster = build_cluster(LANAI_4_3_SYSTEM.cluster_config(NBC_NODES))
        self.enter: List[List[float]] = [[] for _ in range(self.ops)]
        self.exit: List[List[float]] = [[] for _ in range(self.ops)]
        self.results: List[List] = [[] for _ in range(self.ops)]
        self.comms: Dict[int, Communicator] = {}
        self.procs = spawn_group(self.cluster, self._program)

    def _program(self, ctx):
        comm = self.comms[ctx.rank] = Communicator(ctx.port, ctx.group, ctx.rank)
        for op in range(self.ops):
            delay = self.skews_us[ctx.rank][op]
            if delay > 0:
                yield Timeout(delay)
            self.enter[op].append(ctx.now)
            if op % 2 == 0:
                request = yield from comm.ibarrier()
            else:
                request = yield from comm.iallreduce(self.values[ctx.rank][op])
            remaining = NBC_COMPUTE_US
            while remaining > 0:
                chunk = min(NBC_CHUNK_US, remaining)
                yield from ctx.node.compute(chunk)
                remaining -= chunk
                yield from request.test()
            result = yield from request.wait()
            self.exit[op].append(ctx.now)
            self.results[op].append(result)

    def run(self) -> None:
        self.cluster.run(max_events=MAX_EVENTS)

    def outcome(self) -> Outcome:
        failure = unfinished(self.procs) or safety(self.enter, self.exit)
        for op in range(1, self.ops, 2):
            expected = sum(row[op] for row in self.values)
            if failure is None and self.results[op] != [expected] * NBC_NODES:
                failure = f"iallreduce op {op}: {self.results[op]} != {expected}"
        counts = cluster_counts(self.cluster)
        stats = [comm.nbc.cache.stats for comm in self.comms.values()]
        counts.update(
            cache_hits=sum(s.hits for s in stats),
            cache_misses=sum(s.misses for s in stats),
            cache_compiles=sum(s.compiles for s in stats),
        )
        sim = self.cluster.sim
        return Outcome(
            ops=self.ops,
            events=sim.events_executed,
            digest=digest(sim.events_executed, sim.now, self.exit, self.results),
            failure=failure,
            counts=counts,
        )


class CrashUnit:
    """8 nodes: one NodeCrash mid-barrier, detection, PeerFailure,
    ``comm.shrink()`` and one post-shrink barrier.  One op; the op builds
    its own cluster (the fault plan is part of the build), so the build is
    inside the timed part."""

    ops = 1

    def __init__(self, label: str, algorithm: str, victim: int,
                 crash_at_us: float) -> None:
        self.label = label
        self.algorithm = algorithm
        self.victim = victim
        self.crash_at_us = crash_at_us

    def prepare(self) -> None:
        self.failures: Dict[int, frozenset] = {}
        self.groups: Dict[int, tuple] = {}
        self.recovered_at: Dict[int, float] = {}
        self.enter: List[float] = []
        self.exit: List[float] = []

    def run(self) -> None:
        # Same protocol parameters as BENCH_reliability.json's scenarios.
        self.cluster = build_cluster(
            ClusterConfig(
                num_nodes=CRASH_NODES,
                nic_params=NicParams(
                    retransmit_timeout_us=300.0,
                    barrier_retransmit_timeout_us=200.0,
                ),
                fault_plan=FaultPlan(
                    crashes=[NodeCrash(node=self.victim, at_us=self.crash_at_us)],
                ),
            )
        )
        self.procs = spawn_group(self.cluster, self._program)
        self.cluster.run(max_events=MAX_EVENTS)

    def _one_barrier(self, ctx, comm):
        if self.algorithm == "nbc":
            request = yield from comm.ibarrier()
            for _ in range(4):
                yield from ctx.node.compute(10.0)
                yield from request.test()
            yield from request.wait()
        else:
            comm.params = comm.params.with_(
                nic_collectives=self.label.startswith("nic-")
            )
            yield from comm.barrier(algorithm=self.algorithm)

    def _program(self, ctx):
        self.start_group = ctx.group
        yield Timeout(float((ctx.rank * 7) % CRASH_NODES))
        comm = Communicator(ctx.port, ctx.group, ctx.rank)
        for _ in range(CRASH_REPS):
            try:
                yield from self._one_barrier(ctx, comm)
            except PeerFailure as failure:
                self.failures[ctx.rank] = failure.suspects
                ctx.port.acknowledge_failures(set(failure.suspects))
                break
        yield from comm.shrink()
        self.enter.append(ctx.now)
        yield from self._one_barrier(ctx, comm)
        self.exit.append(ctx.now)
        self.recovered_at[ctx.rank] = ctx.now
        self.groups[ctx.rank] = tuple(comm.group)

    def outcome(self) -> Outcome:
        survivors = [r for r in range(CRASH_NODES) if r != self.victim]
        detect_us = []
        for node in self.cluster.nodes:
            detector = node.nic.detector
            if node.node_id != self.victim and detector is not None \
                    and self.victim in detector.suspected_at:
                detect_us.append(
                    detector.suspected_at[self.victim] - self.crash_at_us
                )
        recover_us = [
            self.recovered_at[r] - self.crash_at_us
            for r in sorted(self.recovered_at)
        ]
        limit = CRASH_SUSPECT_AFTER_US + CRASH_DETECTOR_SLACK_US
        groups = set(self.groups.values())
        shrunk = {tuple(ep for ep in self.start_group if ep[0] != self.victim)}
        failure = None
        if sorted(self.recovered_at) != survivors:
            failure = f"recovered ranks {sorted(self.recovered_at)} != {survivors}"
        elif groups != shrunk:
            failure = f"shrunken groups {groups} != {shrunk}"
        elif sorted(r for r, s in self.failures.items()
                    if self.victim in s) != survivors:
            failure = f"PeerFailure seen by {sorted(self.failures)} only"
        elif len(detect_us) != len(survivors) \
                or not all(0 < d <= limit for d in detect_us):
            failure = f"detection {detect_us} outside (0, {limit}] us"
        else:
            failure = safety([self.enter], [self.exit])
        sim = self.cluster.sim
        return Outcome(
            ops=self.ops,
            events=sim.events_executed,
            digest=digest(sim.events_executed, sim.now, detect_us, recover_us,
                          sorted(groups)),
            failure=failure,
            counts=cluster_counts(self.cluster),
            detect_us=detect_us,
            recover_us=recover_us,
        )


def _nbc_cycle(seed: int) -> List[Callable]:
    rng = random.Random(seed)
    cycle = []
    for _ in range(NBC_UNITS_PER_CYCLE):
        skews = [[rng.uniform(0.0, NBC_SKEW_MAX_US) for _ in range(NBC_OPS_PER_UNIT)]
                 for _ in range(NBC_NODES)]
        values = [[rng.randrange(1000) for _ in range(NBC_OPS_PER_UNIT)]
                  for _ in range(NBC_NODES)]
        cycle.append(partial(NbcUnit, skews, values))
    return cycle


def _crash_cycle(seed: int) -> List[Callable]:
    rng = random.Random(seed)
    cycle = []
    for index in range(CRASH_UNITS_PER_CYCLE):
        label, algorithm = CRASH_FLAVOURS[index % len(CRASH_FLAVOURS)]
        victim = rng.randrange(CRASH_NODES)
        crash_at = rng.uniform(*CRASH_WINDOW_US)
        cycle.append(partial(CrashUnit, label, algorithm, victim, crash_at))
    return cycle


#: name -> cycle(seed).  The two barrier workloads have zero skew and no
#: random input, so they are seed-independent by design: every seed gives
#: the same cycle of one unit.
WORKLOADS: Dict[str, Callable[[int], List[Callable]]] = {
    "nic-barrier": lambda seed: [partial(BarrierUnit, NIC_PHASES)],
    "host-barrier": lambda seed: [partial(BarrierUnit, HOST_PHASES)],
    "nbc-overlap": _nbc_cycle,
    "crash-recovery": _crash_cycle,
}


def reliability_diff(path) -> dict:
    """Oracle: the reliability scenarios at seed 42 against the committed
    ``BENCH_reliability.json``; returns ``{key: (committed, measured)}``
    for every value that differs (empty when reproduced exactly)."""
    from repro.analysis.reliability_bench import run_reliability_bench

    committed = json.loads(path.read_text())
    measured = run_reliability_bench(committed["seed"])
    return {k: (committed.get(k), measured.get(k))
            for k in sorted(set(committed) | set(measured))
            if committed.get(k) != measured.get(k)}
