"""Bit-identical-trace gate for the event engine.

The two-tier scheduler + timer wheel, and every later engine
optimisation, must be invisible: every workload in
``tests/golden_engine.py`` has to produce the same trace content as the
pre-rewrite single-heap engine.  The content digests in
``tests/data/engine_golden.json`` were recorded on that engine; any diff
here means a change altered observable behaviour and must be fixed, not
re-recorded (see golden_engine's docstring for the only legitimate
regeneration case).

The full-stack workloads also pin their ``events_executed`` count
exactly.  That count is how many callbacks the engine dispatched, not
what the simulation did, so it is gated on its own: an engine change
that saves events lowers it on purpose (and re-pins it) while the
content digests stay put.

Covers tracing ON (traced_barrier_pe16), tracing OFF
(untraced_measurements), pure scheduler semantics (engine_storm) and
the retransmit-timer paths (faulted_barrier_gb8).
"""

from __future__ import annotations

import json

import pytest

from tests.golden_engine import GOLDEN_PATH, WORKLOADS, run_workload


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_digest_matches_single_heap_engine(name, golden):
    assert name in golden, (
        f"workload {name!r} has no recorded digest; run "
        "`PYTHONPATH=src:. python tests/golden_engine.py` on a known-good "
        "engine and commit tests/data/engine_golden.json"
    )
    live, _ = run_workload(name)
    assert live == golden[name], (
        f"engine trace digest changed for {name!r}: the change altered "
        "observable trace content or order (expected "
        f"{golden[name][:16]}…, got {live[:16]}…)"
    )


@pytest.mark.parametrize("name", ["faulted_barrier_gb8", "traced_barrier_pe16"])
def test_workload_event_count_is_pinned(name, golden):
    _, events = run_workload(name)
    assert events == golden["events_executed"][name], (
        f"{name!r} dispatched {events} events, pinned "
        f"{golden['events_executed'][name]}"
    )
