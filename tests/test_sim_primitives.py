"""Unit + property tests for Store, Resource and SimEvent."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.primitives import AnyOf, Interrupted, Resource, SimEvent, Store, Timeout
from repro.sim.process import Process


class TestSimEvent:
    def test_succeed_once(self, sim):
        ev = SimEvent(sim)
        ev.succeed(1)
        with pytest.raises(RuntimeError, match="already triggered"):
            ev.succeed(2)

    def test_value_before_fire_raises(self, sim):
        ev = SimEvent(sim)
        with pytest.raises(RuntimeError, match="not fired"):
            _ = ev.value

    def test_value_after_fail_raises_exception(self, sim):
        ev = SimEvent(sim)
        ev.fail(KeyError("k"))
        with pytest.raises(KeyError):
            _ = ev.value

    def test_callback_after_fire_still_delivered(self, sim):
        ev = SimEvent(sim)
        ev.succeed("v")
        seen = []
        ev.add_callback(lambda v, e: seen.append((v, e)))
        sim.run()
        assert seen == [("v", None)]


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("a")
        results = []

        def getter():
            v = yield store.get()
            results.append(v)

        Process(sim, getter())
        sim.run()
        assert results == ["a"]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        results = []

        def getter():
            v = yield store.get()
            results.append((sim.now, v))

        Process(sim, getter())
        sim.schedule(4.0, store.put, "late")
        sim.run()
        assert results == [(4.0, "late")]

    def test_fifo_item_order(self, sim):
        store = Store(sim)
        for i in range(5):
            store.put(i)
        out = []

        def getter():
            for _ in range(5):
                out.append((yield store.get()))

        Process(sim, getter())
        sim.run()
        assert out == [0, 1, 2, 3, 4]

    def test_fifo_getter_order(self, sim):
        store = Store(sim)
        out = []

        def getter(tag):
            v = yield store.get()
            out.append((tag, v))

        Process(sim, getter("first"))
        Process(sim, getter("second"))
        sim.schedule(1.0, store.put, "a")
        sim.schedule(2.0, store.put, "b")
        sim.run()
        assert out == [("first", "a"), ("second", "b")]

    def test_bounded_overflow_raises(self, sim):
        store = Store(sim, capacity=2)
        store.put(1)
        store.put(2)
        with pytest.raises(OverflowError):
            store.put(3)

    def test_try_get(self, sim):
        store = Store(sim)
        assert store.try_get() is None
        store.put("x")
        assert store.try_get() == "x"
        assert store.try_get() is None

    def test_peek_does_not_consume(self, sim):
        store = Store(sim)
        store.put("x")
        assert store.peek() == "x"
        assert len(store) == 1

    def test_invalid_capacity(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)


class TestResource:
    def test_exclusive_use_serializes(self, sim):
        res = Resource(sim, capacity=1)
        spans = []

        def worker(tag):
            yield res.request()
            start = sim.now
            yield Timeout(10.0)
            res.release()
            spans.append((tag, start, sim.now))

        Process(sim, worker("a"))
        Process(sim, worker("b"))
        sim.run()
        assert spans == [("a", 0.0, 10.0), ("b", 10.0, 20.0)]

    def test_capacity_allows_parallelism(self, sim):
        res = Resource(sim, capacity=2)
        done = []

        def worker(tag):
            yield from res.use(10.0)
            done.append((tag, sim.now))

        for tag in "abc":
            Process(sim, worker(tag))
        sim.run()
        assert done == [("a", 10.0), ("b", 10.0), ("c", 20.0)]

    def test_release_idle_raises(self, sim):
        res = Resource(sim)
        with pytest.raises(RuntimeError):
            res.release()

    def test_fifo_grant_order(self, sim):
        res = Resource(sim, capacity=1)
        grants = []

        def worker(tag, arrive):
            yield Timeout(arrive)
            yield res.request()
            grants.append(tag)
            yield Timeout(5.0)
            res.release()

        Process(sim, worker("a", 0.0))
        Process(sim, worker("b", 1.0))
        Process(sim, worker("c", 2.0))
        sim.run()
        assert grants == ["a", "b", "c"]

    def test_utilization(self, sim):
        res = Resource(sim, capacity=1)

        def worker():
            yield from res.use(25.0)

        Process(sim, worker())
        sim.run(until=100.0)
        assert res.utilization() == pytest.approx(0.25)

    def test_invalid_capacity(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_request_in_any_of_loses_no_grant(self, sim):
        res = Resource(sim, capacity=1)
        outcome = []

        def holder():
            yield from res.use(10.0)

        def impatient():
            which, _ = yield AnyOf([res.request(), Timeout(3.0)])
            outcome.append((which, sim.now))
            yield Timeout(10.0)
            which, _ = yield AnyOf([res.request(), Timeout(3.0)])
            outcome.append((which, sim.now, res.in_use))
            res.release()

        Process(sim, holder())
        Process(sim, impatient())
        sim.run()
        # The losing claim was purged, so the holder's release at t=10
        # freed the unit and the second claim wins at once.
        assert outcome == [(1, 3.0), (0, 13.0, 1)]
        assert res.in_use == 0 and res.queued == 0


class TestHold:
    """``Resource.use``: one claim whose end is scheduled at grant time."""

    def test_uncontended_hold_costs_one_event(self, sim):
        res = Resource(sim, capacity=1)

        def worker():
            yield from res.use(7.0)

        Process(sim, worker())
        assert sim.step()  # the process start: granted, hold end scheduled
        assert res.in_use == 1 and sim.pending_events == 1
        sim.run()
        assert sim.events_executed == 2  # start + the hold's end, nothing else
        assert sim.now == 7.0
        assert res.in_use == 0

    def test_contended_holds_are_fifo_with_exact_grant_times(self, sim):
        res = Resource(sim, capacity=1)
        grants = []

        def worker(tag, arrive, hold):
            yield Timeout(arrive)
            yield from res.use(hold, on_grant=lambda: grants.append((tag, sim.now)))
            grants.append((tag + "-done", sim.now))

        Process(sim, worker("a", 0.0, 5.0))
        Process(sim, worker("b", 1.0, 2.5))
        Process(sim, worker("c", 2.0, 1.0))
        sim.run()
        # Each release hands the unit over (and starts the next hold)
        # before the releasing process runs on.
        assert grants == [
            ("a", 0.0), ("b", 5.0), ("a-done", 5.0),
            ("c", 7.5), ("b-done", 7.5), ("c-done", 8.5),
        ]
        assert res.utilization() == pytest.approx(1.0)

    @pytest.mark.parametrize("how", ["interrupt", "kill"])
    def test_abandoned_while_queued_leaks_no_grant(self, sim, how):
        res = Resource(sim, capacity=1)
        log = []

        def holder():
            yield from res.use(10.0)

        def victim():
            try:
                yield from res.use(5.0, on_grant=lambda: log.append("granted"))
            except Interrupted:
                log.append("interrupted")

        def next_in_line():
            yield Timeout(1.0)
            yield from res.use(4.0)
            log.append(("next", sim.now))

        Process(sim, holder())
        v = Process(sim, victim())
        Process(sim, next_in_line())

        def strike():
            yield Timeout(2.0)
            assert res.queued == 2
            getattr(v, how)()
            assert res.queued == 1  # purged at once, not at the grant

        Process(sim, strike())
        sim.run()
        assert "granted" not in log
        assert ("next", 14.0) in log  # the unit went straight to it
        assert res.in_use == 0 and res.queued == 0
        assert sim.pending_events == 0

    @pytest.mark.parametrize("how", ["interrupt", "kill"])
    def test_abandoned_while_holding_releases_exactly_once(self, sim, how):
        res = Resource(sim, capacity=1)
        log = []

        def victim():
            try:
                yield from res.use(10.0)
                log.append("completed")
            except Interrupted:
                log.append(("interrupted", res.in_use))

        def waiter():
            yield Timeout(1.0)
            yield from res.use(2.0)
            log.append(("waiter", sim.now))

        v = Process(sim, victim())
        Process(sim, waiter())

        def strike():
            yield Timeout(3.0)
            getattr(v, how)()

        Process(sim, strike())
        sim.run()
        assert "completed" not in log
        if how == "interrupt":
            # The handler runs after use()'s finally gave the unit back.
            assert ("interrupted", 1) in log  # already handed to the waiter
        assert ("waiter", 5.0) in log  # granted at the strike, held 2 us
        assert res.in_use == 0 and res.queued == 0
        assert sim.now == 5.0  # the victim's hold end (t=10) was cancelled

    def test_negative_hold_fails_the_process(self, sim):
        res = Resource(sim, capacity=1)

        def worker():
            yield from res.use(-1.0)

        proc = Process(sim, worker())
        with pytest.raises(ValueError, match="hold duration"):
            sim.run()
        assert not proc.alive
        assert res.in_use == 0


class TestStoreProperties:
    @given(st.lists(st.integers(), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_store_preserves_order_and_content(self, items):
        sim = Simulator()
        store = Store(sim)
        out = []

        def producer():
            for i, item in enumerate(items):
                yield Timeout(0.5)
                store.put(item)

        def consumer():
            for _ in items:
                out.append((yield store.get()))

        Process(sim, producer())
        Process(sim, consumer())
        sim.run()
        assert out == items

    @given(
        st.lists(st.floats(min_value=0.1, max_value=20.0), min_size=1, max_size=10),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_resource_never_exceeds_capacity(self, durations, capacity):
        sim = Simulator()
        res = Resource(sim, capacity=capacity)
        active = {"count": 0, "max": 0}

        def worker(d):
            yield res.request()
            active["count"] += 1
            active["max"] = max(active["max"], active["count"])
            yield Timeout(d)
            active["count"] -= 1
            res.release()

        for d in durations:
            Process(sim, worker(d))
        sim.run()
        assert active["max"] <= capacity
        assert active["count"] == 0
        # Work conserving: total busy time equals sum of durations.
        assert res.utilization() * sim.now * capacity == pytest.approx(
            sum(durations)
        )
