"""Reserved engine slots and the lazy link transmitter.

``Simulator.reserve`` takes the key an eager ``schedule`` would get;
``materialize`` turns it into an event at that key; ``now_key`` says
whether it has passed.  ``Channel`` reserves each transmit end and makes
it an event only when a packet waits.  Every case here compares against
the eager behaviour -- an event per slot, or :class:`EagerChannel`, the
transmitter as it was before slots -- and must observe exactly the same
order, clock, depths and deliveries.
"""

from __future__ import annotations

import pytest

from repro.analysis.calibration import LANAI_4_3_SYSTEM
from repro.cluster.builder import build_cluster
from repro.cluster.runner import run_on_group
from repro.core.barrier import barrier
from repro.network.link import Channel
from repro.network.packet import Packet, PacketType
from repro.network.topology import multi_switch_topology
from repro.sim.engine import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    Simulator,
)

PRIORITIES = (PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW)


def passed(sim: Simulator, slot: list) -> bool:
    """Whether an eager event at ``slot`` would already have run."""
    return slot < sim.now_key


class EagerChannel(Channel):
    """The transmitter before reserved slots: every transmit end is a
    scheduled event that clears a busy flag and starts the next packet."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._busy = False

    @property
    def queue_depth(self) -> int:
        return len(self._queue) + self._busy

    def send(self, packet: Packet) -> None:
        self._queue.append(packet)
        if self.queue_depth > self.max_queue_depth:
            self.max_queue_depth = self.queue_depth
        if not self._busy:
            self._start_next()

    def resume(self) -> None:
        if not self._paused:
            return
        self._paused = False
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if self._paused or not self._queue:
            self._busy = False
            return
        self._busy = True
        ser = self._transmit(self._queue.popleft())
        self.sim.schedule(ser, self._tx_done)

    def _tx_done(self) -> None:
        self._busy = False
        self._start_next()


class Log:
    """A sink recording ``(now, tag)`` for every delivery and probe."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.rows = []

    def receive_packet(self, packet: Packet) -> None:
        self.rows.append((self.sim.now, "deliver", packet.payload["n"]))

    def note(self, *what) -> None:
        self.rows.append((self.sim.now, *what))


def packet(n: int) -> Packet:
    # 16 B header + 144 B payload = 1 us at 160 MB/s.
    return Packet(
        ptype=PacketType.DATA, src_node=0, src_port=2, dst_node=1,
        dst_port=2, payload_bytes=144, payload={"n": n},
    )


def run_both(scenario):
    """Run ``scenario(sim, channel, log)`` on a lazy and an eager channel;
    return both logs plus each run's final clock and channel counters."""
    out = []
    for cls in (Channel, EagerChannel):
        sim = Simulator()
        log = Log(sim)
        ch = cls(sim, bandwidth_mbps=160.0, propagation_us=0.25, name="c")
        ch.connect(log)
        scenario(sim, ch, log)
        out.append((
            log.rows, sim.now, ch.max_queue_depth, ch.queue_depth,
            ch.packets_sent, ch.packets_lost_down, ch.busy_us,
        ))
    return out


class TestReservedSlot:
    @pytest.mark.parametrize("slot_priority", PRIORITIES)
    def test_late_materialize_runs_where_eager_schedule_would(self, slot_priority):
        """Same-time events of every priority, scheduled before and after
        the reservation, and after it is materialized: the slot's event
        runs in the eager event's place.  (A slot materialized with a
        fresh seq would run after the same-priority events scheduled
        between reservation and materialization.)"""
        logs = []
        for lazy in (True, False):
            sim = Simulator()
            log = []

            def mark(tag):
                log.append((sim.now, tag))

            for p in PRIORITIES:
                sim.schedule(5.0, mark, f"before{p}", priority=p)
            if lazy:
                slot = sim.reserve(5.0, priority=slot_priority)
            else:
                sim.schedule(5.0, mark, "slot", priority=slot_priority)
            for p in PRIORITIES:
                sim.schedule(5.0, mark, f"after{p}", priority=p)

            def late():
                mark("late")
                if lazy:
                    sim.materialize(slot, mark, "slot")
                for p in PRIORITIES:
                    sim.schedule(2.0, mark, f"later{p}", priority=p)

            sim.schedule(3.0, late)
            sim.run()
            logs.append(log)
        assert logs[0] == logs[1]
        assert "slot" in [tag for _, tag in logs[0]]

    def test_passed_tracks_the_highest_key_dispatched(self, sim):
        """A zero-delay high-priority event scheduled after the slot went
        by has a smaller key than the slot, yet runs after it: the slot
        must still read as passed there."""
        slot = sim.reserve(1.0)
        seen = []

        def low():
            sim.schedule(0.0, high, priority=PRIORITY_HIGH)

        def high():
            seen.append(passed(sim, slot))

        sim.schedule(1.0, lambda: seen.append(passed(sim, slot)),
                     priority=PRIORITY_HIGH)
        sim.schedule(1.0, low, priority=PRIORITY_LOW)
        sim.run()
        assert seen == [False, True]

    def test_reserve_must_land_after_now_key(self, sim):
        def inside():
            with pytest.raises(ValueError, match="before now_key"):
                sim.reserve(0.0, priority=PRIORITY_HIGH)
            assert not passed(sim, sim.reserve(0.0, priority=PRIORITY_LOW))

        sim.schedule(1.0, inside)
        sim.run(until=1.0)
        with pytest.raises(ValueError, match="before now_key"):
            sim.reserve(0.0)
        assert not passed(sim, sim.reserve(0.5))

    def test_run_until_passes_slots_at_until_only(self, sim):
        at, beyond = sim.reserve(2.0), sim.reserve(2.5)
        sim.run(until=2.0)
        assert passed(sim, at) and not passed(sim, beyond)
        assert sim.now == 2.0

    def test_drained_run_ends_at_the_last_slot(self, sim):
        """An eager event at the last slot would have been the final one,
        so a drained run ends there -- and every slot has passed."""
        sim.schedule(1.0, lambda: None)
        slot = sim.reserve(4.0)
        sim.run()
        assert sim.now == 4.0
        assert passed(sim, slot)

    def test_stopped_run_passes_nothing_it_did_not_dispatch(self, sim):
        slot = sim.reserve(2.0)
        sim.schedule(1.0, sim.stop)
        sim.schedule(3.0, lambda: None)
        sim.run(until=5.0)
        assert not passed(sim, slot)


class TestLazyTransmitter:
    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_backlog_behind_the_wire_all_delivered(self, count):
        """Packets queued behind the one on the wire: each transmit end
        that finds a packet waiting must become an event, including the
        ones reserved by a transmit end rather than by ``send``."""
        def scenario(sim, ch, log):
            for n in range(count):
                ch.send(packet(n))
            sim.run()

        lazy, eager = run_both(scenario)
        assert lazy == eager
        assert [n for _, what, n in lazy[0]] == list(range(count))
        assert lazy[0][-1][0] == pytest.approx(count + 0.25)

    @pytest.mark.parametrize("priority, after_send", [
        (PRIORITY_NORMAL, False),   # same priority, smaller seq: before
        (PRIORITY_NORMAL, True),    # same priority, larger seq: after
        (PRIORITY_HIGH, True),      # larger seq, higher priority: before
        (PRIORITY_LOW, False),      # smaller seq, lower priority: after
    ])
    def test_send_exactly_at_the_transmit_end(self, priority, after_send):
        """A send at t == the transmit end, before or after the slot in
        ``(priority, seq)`` order: the depth it sees and the order of
        everything after it are the eager channel's."""
        def scenario(sim, ch, log):
            def second():
                log.note("depth", ch.queue_depth)
                ch.send(packet(1))
                log.note("depth", ch.queue_depth)

            if not after_send:
                sim.schedule(1.0, second, priority=priority)
            ch.send(packet(0))
            if after_send:
                sim.schedule(1.0, second, priority=priority)
            sim.schedule(2.25, log.note, "probe")
            sim.run()

        lazy, eager = run_both(scenario)
        assert lazy == eager

    def test_zero_delay_send_after_the_slot_by_a_later_event(self):
        """A low-priority event after the slot schedules a zero-delay
        high-priority send: its key is below the slot's, but it runs
        after it, so the wire reads idle."""
        def scenario(sim, ch, log):
            def second():
                log.note("depth", ch.queue_depth)
                ch.send(packet(1))

            def low():
                sim.schedule(0.0, second, priority=PRIORITY_HIGH)

            ch.send(packet(0))
            sim.schedule(1.0, low, priority=PRIORITY_LOW)
            sim.run()

        lazy, eager = run_both(scenario)
        assert lazy == eager
        assert ("depth", 0) in [row[1:] for row in lazy[0]]

    @pytest.mark.parametrize("resume_at", [0.8, 1.0, 1.5])
    def test_pause_and_resume_while_a_slot_is_reserved(self, resume_at):
        def scenario(sim, ch, log):
            ch.send(packet(0))
            sim.schedule(0.5, ch.pause)
            sim.schedule(0.6, ch.send, packet(1))
            sim.schedule(0.7, ch.send, packet(2))
            sim.schedule(resume_at, ch.resume)
            for t in (0.9, 1.0, 1.6, 2.6):
                sim.schedule(t, lambda: log.note("depth", ch.queue_depth))
            sim.run()

        lazy, eager = run_both(scenario)
        assert lazy == eager
        assert len([r for r in lazy[0] if r[1] == "deliver"]) == 3

    def test_pause_across_the_transmit_end_with_an_armed_slot(self):
        """The slot is already an event (a packet waits) when the channel
        pauses: it fires, finds the channel paused, and leaves it idle."""
        def scenario(sim, ch, log):
            ch.send(packet(0))
            ch.send(packet(1))
            sim.schedule(0.5, ch.pause)
            sim.schedule(1.5, lambda: log.note("depth", ch.queue_depth))
            sim.schedule(2.0, ch.resume)
            sim.run()

        lazy, eager = run_both(scenario)
        assert lazy == eager

    def test_set_down_while_a_slot_is_reserved(self):
        def scenario(sim, ch, log):
            ch.send(packet(0))
            sim.schedule(0.5, ch.set_down)
            sim.schedule(0.6, ch.send, packet(1))   # lost: starts while down
            sim.schedule(2.5, ch.set_up)
            sim.schedule(2.6, ch.send, packet(2))
            sim.run()

        lazy, eager = run_both(scenario)
        assert lazy == eager
        assert lazy[5] == 1  # packets_lost_down

    def test_send_after_run_until_the_transmit_end(self):
        """``run(until=t)`` returns with t == the transmit end: the eager
        transmit end ran inside it, so a send now finds the wire idle."""
        def scenario(sim, ch, log):
            ch.send(packet(0))
            sim.run(until=1.0)
            ch.send(packet(1))
            log.note("depth", ch.queue_depth)
            sim.run()

        lazy, eager = run_both(scenario)
        assert lazy == eager
        assert lazy[2] == 1  # max_queue_depth

    def test_drained_run_after_a_lost_packet_ends_at_its_transmit_end(self):
        def scenario(sim, ch, log):
            ch.loss_filter = lambda p: True
            ch.send(packet(0))
            sim.run()

        lazy, eager = run_both(scenario)
        assert lazy == eager
        assert lazy[1] == 1.0


def _gb3_run(monkeypatch, channel_class):
    """Three NIC-based GB(3) barriers on 16 nodes behind radix-4 switches
    (shared trunks, so output ports stall), with telemetry sampled
    densely; returns everything a channel's depth can influence."""
    monkeypatch.setattr("repro.network.fabric.Channel", channel_class)
    config = LANAI_4_3_SYSTEM.cluster_config(16).with_(
        topology=multi_switch_topology(16, switch_radix=4),
        telemetry=True, telemetry_sample_us=0.5,
    )
    cluster = build_cluster(config)

    def program(ctx):
        for _ in range(3):
            yield from barrier(
                ctx.port, ctx.group, ctx.rank, algorithm="gb", dimension=3
            )

    run_on_group(cluster, program, max_events=5_000_000)
    network = cluster.network
    channels = [
        ch for sw in network._switches.values() for ch in sw._outputs.values()
    ] + list(network._nic_tx.values())
    assert all(type(ch) is channel_class for ch in channels)
    queues = {
        name: series.samples()
        for name, series in cluster.sim.telemetry.series.items()
        if name.endswith(".queue")
    }
    return {
        "now": cluster.sim.now,
        "max_queue_depth": {ch.name: ch.max_queue_depth for ch in channels},
        "queue_depth": {ch.name: ch.queue_depth for ch in channels},
        "output_stalls": {
            sw.name: dict(sw.output_stalls)
            for sw in network._switches.values()
        },
        "queues": queues,
    }


def test_contended_gb3_run_matches_an_eager_channel(monkeypatch):
    lazy = _gb3_run(monkeypatch, Channel)
    eager = _gb3_run(monkeypatch, EagerChannel)
    assert lazy == eager
    # The run really is contended, and the samples really see it.
    assert sum(sum(s.values()) for s in lazy["output_stalls"].values()) > 0
    assert max(lazy["max_queue_depth"].values()) >= 3
    assert any(v > 0 for samples in lazy["queues"].values() for _, v in samples)
