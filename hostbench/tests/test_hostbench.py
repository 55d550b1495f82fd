"""Self-tests of the benchmark: layer map, self-time accounting, counters,
seed determinism.  Run with ``python3 -m pytest hostbench/tests -q``."""

import argparse
import cProfile
import pstats
from pathlib import Path

import pytest

import layers
import run
import workloads

SRC = Path(__file__).resolve().parents[2] / "src"


def traced_pass(workload, seed=1):
    """One untraced + traced pass over the workload's cycle."""
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.0)
    tally, metrics, _ = run.per_layer(workloads, layers, args)
    assert tally.failed == 0, tally.failures
    return metrics


def test_every_repro_module_maps_to_exactly_one_named_layer():
    prefixes = [prefix for prefix, _ in layers.RULES]
    assert len(prefixes) == len(set(prefixes)), "a prefix has two layers"
    modules = sorted(layers.iter_repro_modules(str(SRC)))
    assert "repro.sim.engine" in modules and "repro.nic.mcp.send" in modules
    seen = set()
    for module in modules:
        rule = layers.rule_for(module)
        assert rule is not None, f"{module} matches no layer rule"
        assert rule[1] in layers.LAYERS
        seen.add(rule[1])
    assert seen == set(layers.LAYERS)


def test_layer_self_times_sum_to_the_profile_total():
    profile = cProfile.Profile()
    make_unit = workloads.WORKLOADS["host-barrier"](1)[0]
    outcome, wall, _ = run.execute(
        workloads, make_unit, profile=profile, counters=layers.CallCounters()
    )
    assert outcome.failure is None and wall > 0
    stats = pstats.Stats(profile).stats
    by_layer = layers.self_time_by_layer(stats, str(run.HERE))
    total = sum(entry[2] for entry in stats.values())
    assert abs(sum(by_layer.values()) - total) <= 1e-9 * total
    kernel = sum(by_layer[k] for k in ("sim.engine", "sim.process",
                                       "sim.primitives"))
    assert kernel > 0.4 * total


def test_clean_workloads_send_no_heartbeats():
    for workload in ("nic-barrier", "host-barrier", "nbc-overlap"):
        metrics = traced_pass(workload)
        assert metrics["nic.detector.heartbeats_per_op"]["value"] == 0, workload


def test_nic_barrier_uses_no_sdma():
    metrics = traced_pass("nic-barrier")
    assert metrics["nic.dma.sdma_transfers_per_op"]["value"] == 0
    assert metrics["nic.dma.rdma_transfers_per_op"]["value"] > 0


def test_same_seed_same_digests_other_seed_other_inputs():
    def digests(seed):
        result = []
        for make_unit in workloads.WORKLOADS["nbc-overlap"](seed):
            outcome, _, _ = run.execute(workloads, make_unit)
            assert outcome.failure is None, outcome.failure
            result.append((outcome.digest, outcome.events))
        return result

    first = digests(3)
    assert digests(3) == first
    assert digests(4) != first


def test_barrier_workloads_ignore_the_seed():
    for workload in ("nic-barrier", "host-barrier"):
        units = [w() for w in workloads.WORKLOADS[workload](1)]
        others = [w() for w in workloads.WORKLOADS[workload](99)]
        assert [u.phases for u in units] == [u.phases for u in others]


def test_crash_recovery_cycle_passes_its_oracle():
    for make_unit in workloads.WORKLOADS["crash-recovery"](1):
        outcome, _, _ = run.execute(workloads, make_unit)
        assert outcome.failure is None, outcome.failure


@pytest.mark.xfail(strict=True, reason=(
    "known defect: a PE barrier right after Communicator.shrink() can "
    "complete on one survivor before another has entered it; "
    "crash-recovery runs host-gb instead of host-pe until it is fixed"))
@pytest.mark.parametrize("label, victim, crash_at_us", [
    ("host-pe", 6, 70.0),
    ("nic-pe", 5, 70.0),
])
def test_post_shrink_pe_barrier_is_unsafe(label, victim, crash_at_us):
    unit = workloads.CrashUnit(label, "pe", victim, crash_at_us)
    unit.prepare()
    unit.run()
    assert unit.outcome().failure is None
