"""Unit tests for the DES engine."""

import pytest

from repro.sim.engine import PRIORITY_HIGH, PRIORITY_LOW, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_callback_runs_at_scheduled_time(self, sim):
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]

    def test_args_are_passed(self, sim):
        seen = []
        sim.schedule(1.0, lambda a, b: seen.append((a, b)), 1, "x")
        sim.run()
        assert seen == [(1, "x")]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_zero_delay_runs_at_current_instant(self, sim):
        times = []
        sim.schedule(0.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.0]


class TestOrdering:
    def test_fifo_among_equal_time_and_priority(self, sim):
        order = []
        for i in range(10):
            sim.schedule(1.0, order.append, i)
        sim.run()
        assert order == list(range(10))

    def test_time_order(self, sim):
        order = []
        sim.schedule(2.0, order.append, "late")
        sim.schedule(1.0, order.append, "early")
        sim.run()
        assert order == ["early", "late"]

    def test_priority_order_within_instant(self, sim):
        order = []
        sim.schedule(1.0, order.append, "normal")
        sim.schedule(1.0, order.append, "low", priority=PRIORITY_LOW)
        sim.schedule(1.0, order.append, "high", priority=PRIORITY_HIGH)
        sim.run()
        assert order == ["high", "normal", "low"]

    def test_nested_scheduling_preserves_causality(self, sim):
        order = []

        def outer():
            order.append("outer")
            sim.schedule(0.0, order.append, "inner")

        sim.schedule(1.0, outer)
        sim.schedule(1.0, order.append, "sibling")
        sim.run()
        # The sibling was scheduled first at t=1, the inner event second.
        assert order == ["outer", "sibling", "inner"]


class TestCancellation:
    def test_cancelled_event_does_not_run(self, sim):
        seen = []
        handle = sim.schedule(1.0, seen.append, 1)
        handle.cancel()
        sim.run()
        assert seen == []

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_cancel_releases_references(self, sim):
        big = object()
        handle = sim.schedule(1.0, lambda x: None, big)
        handle.cancel()
        assert handle.args == ()

    def test_pending_events_excludes_cancelled(self, sim):
        h1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h1.cancel()
        assert sim.pending_events == 1


class TestRun:
    def test_run_until_stops_clock_at_until(self, sim):
        sim.schedule(10.0, lambda: None)
        t = sim.run(until=5.0)
        assert t == 5.0
        assert sim.now == 5.0
        assert sim.pending_events == 1

    def test_event_exactly_at_until_runs(self, sim):
        seen = []
        sim.schedule(5.0, seen.append, 1)
        sim.run(until=5.0)
        assert seen == [1]

    def test_run_advances_clock_to_until_when_idle(self, sim):
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_max_events_guards_against_livelock(self, sim):
        def respawn():
            sim.schedule(0.0, respawn)

        sim.schedule(0.0, respawn)
        with pytest.raises(RuntimeError, match="livelock"):
            sim.run(max_events=100)

    def test_stop_request(self, sim):
        seen = []
        sim.schedule(1.0, lambda: (seen.append(1), sim.stop()))
        sim.schedule(2.0, seen.append, 2)
        sim.run()
        assert seen == [1]

    def test_run_not_reentrant(self, sim):
        def inner():
            with pytest.raises(RuntimeError, match="re-entrant"):
                sim.run()

        sim.schedule(1.0, inner)
        sim.run()

    def test_events_executed_counter(self, sim):
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 5

    def test_peek(self, sim):
        assert sim.peek() is None
        h = sim.schedule(3.0, lambda: None)
        sim.schedule(7.0, lambda: None)
        assert sim.peek() == 3.0
        h.cancel()
        assert sim.peek() == 7.0


class TestMaxEventsExactSemantics:
    """Regression: ``executed > max_events`` let ``max_events + 1``
    callbacks run before the livelock guard tripped."""

    def test_exactly_max_events_callbacks_run_before_raise(self, sim):
        ran = []

        def respawn():
            ran.append(sim.now)
            sim.schedule(0.0, respawn)

        sim.schedule(0.0, respawn)
        with pytest.raises(RuntimeError, match="max_events=7"):
            sim.run(max_events=7)
        assert len(ran) == 7

    def test_heap_draining_in_exactly_max_events_completes(self, sim):
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run(max_events=5)  # exact fit is success, not livelock
        assert sim.events_executed == 5

    def test_live_events_beyond_until_do_not_trip_the_guard(self, sim):
        seen = []
        for t in (1.0, 2.0, 10.0):
            sim.schedule(t, seen.append, t)
        sim.run(until=5.0, max_events=2)
        assert seen == [1.0, 2.0]

    @pytest.mark.parametrize(
        "budget, expected",
        [(0, (True, 1)), (1, (True, 1)), (2, (True, 2)), (3, (False, 3)), (4, (False, 3))],
    )
    def test_fast_loop_budget_matches_checked_loop(self, budget, expected):
        """``max_events`` alone runs on the fast loop; with ``until`` it
        takes the checked loop.  Both stop at the same callback, and a
        cancelled entry left behind does not count as live."""

        def outcome(until):
            sim = Simulator()
            for t in (1.0, 1.0, 2.0):
                sim.schedule(t, lambda: None)
            sim.schedule(3.0, lambda: None).cancel()
            try:
                sim.run(until=until, max_events=budget)
            except RuntimeError:
                return True, sim.events_executed
            return False, sim.events_executed

        assert outcome(None) == outcome(1e9) == expected


class TestTinyNegativeDelayClamp:
    """Regression: float error in ``now + dt`` chains produces deltas
    like -1e-12, which used to raise instead of clamping to zero."""

    def test_rounding_noise_delay_runs_at_current_instant(self, sim):
        times = []
        sim.schedule(-1e-12, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.0]

    def test_clamp_boundary_is_inclusive(self, sim):
        sim.schedule(-1e-9, lambda: None)
        sim.run()
        assert sim.events_executed == 1

    def test_genuinely_negative_delay_still_raises(self, sim):
        with pytest.raises(ValueError, match="cannot schedule into the past"):
            sim.schedule(-1e-8, lambda: None)

    def test_float_chain_arithmetic_schedules_cleanly(self, sim):
        # 0.1 + 0.2 - 0.3 style residue: target - now can be ~ -5.6e-17.
        sim.schedule(0.1 + 0.2, lambda: None)
        sim.run()
        target = 0.3
        delta = target - sim.now  # tiny negative on binary floats
        assert delta <= 0
        sim.schedule(delta, lambda: None)
        sim.run()
        assert sim.events_executed == 2


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            s = Simulator()
            log = []

            def tick(i):
                log.append((s.now, i))
                if i < 20:
                    s.schedule(0.7 * (i % 3) + 0.1, tick, i + 1)

            for j in range(4):
                s.schedule(j * 0.3, tick, j)
            s.run()
            return log

        assert build_and_run() == build_and_run()
