"""Seeded interrupt/kill storm over Store/Resource/BufferPool/AnyOf waits.

The lost-wakeup bug sweep (the abandonment protocol of the own-handle
waits and of ``_WaitHandle``, plus the Store/Resource/BufferPool
salvage/purge hooks) has three system-level invariants that no
single-path unit test pins down:

* **conservation** -- every token put into a Store is either consumed by
  a live process or still in the store at quiescence; killing a getter
  mid-delivery re-delivers, it never loses the item;
* **no capacity leak** -- Resource units and pool buffers held by
  interrupted/killed processes are released (or reclaimed from an
  in-flight grant), so ``in_use`` returns to zero, every buffer is free,
  and both stay acquirable;
* **quiescence** -- abandoned waits leave nothing live behind: no
  orphan timers (AnyOf losers), no queued waiters, ``run_until_idle``
  terminates with ``pending_events == 0``.

Each seed drives a different interleaving of workers blocking on
``store.get()``, ``resource.use()``, ``pool.acquire()``,
``AnyOf([Timeout, store.get()])`` and plain sleeps, while a chaos process interrupts and kills them at
random instants.
"""

from __future__ import annotations

import random

import pytest

from repro.nic.buffers import BufferPool
from repro.sim.engine import Simulator
from repro.sim.primitives import AnyOf, Interrupted, Resource, Store, Timeout
from repro.sim.process import Process, ProcessKilled

TOKENS = 60
WORKERS = 10
CAPACITY = 3
BUFFERS = 1


def _run_storm(seed: int):
    rng = random.Random(seed)
    sim = Simulator()
    store = Store(sim, name="tokens")
    resource = Resource(sim, capacity=CAPACITY, name="pool")
    pool = BufferPool(sim, count=BUFFERS, buffer_bytes=64, name="buffers")
    consumed = []

    def producer():
        for i in range(TOKENS):
            yield Timeout(rng.random() * 4.0)
            store.put(i)

    def worker(wid):
        try:
            while True:
                mode = rng.random()
                if mode < 0.3:
                    item = yield store.get()
                    consumed.append(item)
                    yield Timeout(rng.random())
                elif mode < 0.5:
                    yield resource.use(rng.random() * 2.0)
                elif mode < 0.65:
                    yield pool.acquire()
                    try:
                        yield Timeout(rng.random() * 4.0)
                    finally:
                        pool.release()
                elif mode < 0.85:
                    which, value = yield AnyOf(
                        [Timeout(rng.random() * 3.0, value="timeout"), store.get()]
                    )
                    if which == 1:
                        consumed.append(value)
                else:
                    yield Timeout(rng.random() * 1.5)
        except Interrupted:
            return "interrupted"

    def chaos(victims):
        # Interrupt/kill workers at random instants; some victims get
        # hit twice (interrupt then kill) to exercise re-abandonment.
        for _ in range(WORKERS * 2):
            yield Timeout(rng.random() * 30.0)
            victim = rng.choice(victims)
            if rng.random() < 0.5:
                victim.interrupt()
            else:
                victim.kill()

    def drainer():
        # After the chaos window, consume whatever survived so the
        # conservation ledger can be checked both ways.
        yield Timeout(250.0)
        while len(store):
            item = yield store.get()
            consumed.append(item)

    Process(sim, producer(), name="producer")
    victims = [Process(sim, worker(w), name=f"worker{w}") for w in range(WORKERS)]
    Process(sim, chaos(victims), name="chaos")
    Process(sim, drainer(), name="drainer")
    sim.run_until_idle(max_events=5_000_000)
    # Workers the chaos process never hit are still legitimately blocked
    # (the store is drained); kill them too so quiescence can assert
    # that *every* wait tears down cleanly.
    for victim in victims:
        if victim.alive:
            victim.kill()
    sim.run_until_idle(max_events=100_000)
    return sim, store, resource, pool, consumed, victims


@pytest.mark.parametrize("seed", range(12))
def test_interrupt_kill_storm(seed):
    sim, store, resource, pool, consumed, victims = _run_storm(seed)

    # Conservation: every produced token was consumed exactly once or is
    # still sitting in the store; nothing lost, nothing duplicated.
    leftover = list(store.items)
    ledger = sorted(consumed + leftover)
    assert ledger == list(range(TOKENS)), (
        f"seed {seed}: token ledger broken -- "
        f"{set(range(TOKENS)) - set(ledger)} lost, "
        f"{[t for t in ledger if ledger.count(t) > 1]} duplicated"
    )

    # No capacity leak: all units back, no ghost waiters queued.
    assert resource.in_use == 0, f"seed {seed}: leaked {resource.in_use} units"
    assert resource.queued == 0
    assert pool.free == BUFFERS, f"seed {seed}: leaked {pool.in_use} buffers"
    assert not pool._waiters
    assert len(store._getters) == 0

    # Quiescence: the engine is empty -- no orphan AnyOf timers, no
    # abandoned waits still holding live heap entries.
    assert sim.pending_events == 0, (
        f"seed {seed}: {sim.pending_events} live entries after idle"
    )

    # The resource is still fully acquirable (capacity intact end-to-end).
    grants = []

    def prober():
        for _ in range(CAPACITY):
            yield resource.request()
            grants.append(sim.now)
        for _ in range(CAPACITY):
            resource.release()

    def buffer_prober():
        for _ in range(BUFFERS):
            yield pool.acquire()
            grants.append(sim.now)
        for _ in range(BUFFERS):
            pool.release()

    Process(sim, prober(), name="prober")
    Process(sim, buffer_prober(), name="buffer-prober")
    sim.run_until_idle(max_events=10_000)
    assert len(grants) == CAPACITY + BUFFERS
    assert resource.in_use == 0
    assert pool.free == BUFFERS


@pytest.mark.parametrize("seed", (0, 7))
def test_storm_is_deterministic(seed):
    """Same seed, same interleaving: the storm itself is reproducible."""
    a = _run_storm(seed)
    b = _run_storm(seed)
    assert a[4] == b[4]  # identical consumption order
    assert a[0].events_executed == b[0].events_executed
    assert a[0].now == b[0].now
