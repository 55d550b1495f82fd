"""Exact companions to the wall-clock gates: events per barrier run.

Six consecutive 16-node PE barriers on the LANai 4.3 system, NIC-based
and host-based.  The final clock is the simulated result and must never
move.  The event count is the engine's host cost in deterministic form:
it changes only when the event machinery itself changes (re-pin it
then, with the reason in the change log), never with machine load.
"""

from __future__ import annotations

import pytest

from repro.analysis.calibration import LANAI_4_3_SYSTEM
from repro.cluster.builder import build_cluster
from repro.cluster.runner import run_on_group
from repro.core.barrier import barrier
from repro.core.host_barrier import host_barrier

BARRIERS = 6


def _six_barriers(nic_based: bool):
    cluster = build_cluster(LANAI_4_3_SYSTEM.cluster_config(16))
    op = barrier if nic_based else host_barrier

    def program(ctx):
        for _ in range(BARRIERS):
            yield from op(ctx.port, ctx.group, ctx.rank, algorithm="pe")

    run_on_group(cluster, program, max_events=5_000_000)
    return cluster.sim.now, cluster.sim.events_executed


@pytest.mark.parametrize(
    "nic_based, final_us, events",
    [(True, 604.9690772385511, 5936), (False, 1063.5475757575766, 14320)],
    ids=["nic-pe16", "host-pe16"],
)
def test_six_pe16_barriers_end_and_event_count_are_exact(nic_based, final_us, events):
    now, executed = _six_barriers(nic_based)
    assert now == final_us
    assert executed == events
