"""Links and unidirectional channels.

A :class:`Link` is a full-duplex Myrinet cable: two independent
:class:`Channel` objects, one per direction, matching the paper's
assumption that "NICs have separate receive and transmit channels to the
network, so that one message can be received while another is being
transmitted" (Section 2.2, footnote 1).

A channel transmits one packet at a time.  ``serialization = size /
bandwidth`` occupies the channel; the packet is delivered to the sink
``serialization + propagation`` after transmission starts.  Bandwidth is
in MB/s which, with microsecond time units, conveniently equals bytes/us.

The end of each transmission is a *reserved* engine slot
(:meth:`~repro.sim.engine.Simulator.reserve`), not an event: on an idle
link that event would only mark the transmitter free, which the slot
answers by having passed.  It becomes an event (at its reserved key, so
every other event keeps its ``seq``) only when a packet is waiting for
the transmitter at that instant.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Protocol

from repro.network.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.tracing import Tracer, trace_site


class PacketSink(Protocol):
    """Anything that can accept a fully-arrived packet."""

    def receive_packet(self, packet: Packet) -> None:
        """Accept a fully-arrived packet."""
        ...


class Channel:
    """One direction of a link: FIFO, one packet on the wire at a time.

    Parameters
    ----------
    sim:
        Owning simulator.
    bandwidth_mbps:
        Bandwidth in MB/s (= bytes per microsecond).
    propagation_us:
        Cable propagation delay in microseconds.
    name:
        Label for traces.
    tracer:
        Optional tracer: deliveries of ctx-carrying packets leave a
        ``net``/``link.deliver`` record.

    The ``sink`` (set via :meth:`connect`) receives the packet when its
    tail arrives.  An optional ``loss_filter`` may drop packets (used by
    the reliability tests); dropped packets still occupy the channel for
    their serialization time, as a corrupted packet would.

    Fault-injection hooks (all inert by default -- an unfaulted channel
    schedules exactly the same events as without them):

    * ``fault_filter`` -- richer generalization of ``loss_filter``: a
      callable returning ``None`` (deliver), ``"drop"`` (lose silently)
      or ``"corrupt"`` (the packet is transmitted but fails CRC at the
      receiver, i.e. dropped and counted in ``packets_corrupted``).
    * :meth:`set_down` / :meth:`set_up` -- a *down* channel (cable pulled
      / link flapped) loses every packet transmitted into it.
    * :meth:`pause` / :meth:`resume` -- a *paused* channel (output-port
      arbitration stall) queues packets without loss and drains on
      resume.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_mbps: float,
        propagation_us: float,
        name: str = "",
        tracer: Optional[Tracer] = None,
    ) -> None:
        if bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        if propagation_us < 0:
            raise ValueError("propagation must be >= 0")
        self.sim = sim
        self.bandwidth_mbps = bandwidth_mbps
        self.propagation_us = propagation_us
        self.name = name
        self.sink: Optional[PacketSink] = None
        self.trace = trace_site(tracer, "net", "link.")
        self.loss_filter: Optional[Callable[[Packet], bool]] = None
        #: Fault-injection hook: ``fn(packet) -> None | "drop" | "corrupt"``.
        self.fault_filter: Optional[Callable[[Packet], Optional[str]]] = None
        self._queue: Deque[Packet] = deque()
        #: Reserved transmit-end slot of the latest packet put on the
        #: wire; the wire is busy until it passes (``slot < now_key``).
        self._tx_end: Optional[list] = None
        #: Whether that slot has been made an event (a packet waits).
        self._tx_armed = False
        self._paused = False
        #: Link-flap state: a down channel loses everything sent into it.
        self.is_down = False
        #: Counters for tests and utilization reporting.
        self.packets_sent = 0
        self.packets_dropped = 0
        #: Subsets of ``packets_dropped`` by cause.
        self.packets_corrupted = 0
        self.packets_lost_down = 0
        self.bytes_sent = 0
        #: Simulated wire-occupancy integral (serialization time of every
        #: packet put on the wire, dropped ones included).
        self.busy_us = 0.0
        #: Deepest backlog (queued + on wire) seen.
        self.max_queue_depth = 0

    def connect(self, sink: PacketSink) -> None:
        """Attach the delivery target at the far end."""
        self.sink = sink

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Enqueue ``packet`` for transmission (returns immediately)."""
        if self.sink is None:
            raise RuntimeError(f"channel {self.name!r} has no sink connected")
        queue = self._queue
        queue.append(packet)
        end = self._tx_end
        if end is None or end < self.sim.now_key:  # the wire is idle
            if len(queue) > self.max_queue_depth:
                self.max_queue_depth = len(queue)
            self._start_next()
        else:
            if len(queue) >= self.max_queue_depth:
                self.max_queue_depth = len(queue) + 1
            if not self._tx_armed and not self._paused:
                self._arm()

    @property
    def queue_depth(self) -> int:
        """Packets queued or on the wire."""
        end = self._tx_end
        if end is None or end < self.sim.now_key:
            return len(self._queue)
        return len(self._queue) + 1

    def serialization_time(self, packet: Packet) -> float:
        """Wire occupancy time for one packet."""
        return packet.size_bytes / self.bandwidth_mbps

    def utilization(self, since: float = 0.0) -> float:
        """Busy fraction of the wire over the window from ``since`` to now."""
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        return self.busy_us / elapsed

    # -- fault-injection state changes -----------------------------------
    def set_down(self) -> None:
        """Take the channel down (link flap): packets sent while down are
        lost after their serialization time, like a pulled cable."""
        self.is_down = True

    def set_up(self) -> None:
        """Bring a downed channel back up."""
        self.is_down = False

    def pause(self) -> None:
        """Stall the transmitter: queued packets wait, nothing is lost.
        A packet already on the wire finishes normally."""
        self._paused = True

    def resume(self) -> None:
        """Release a stall and restart transmission if work is queued."""
        if not self._paused:
            return
        self._paused = False
        end = self._tx_end
        if end is None or end < self.sim.now_key:
            self._start_next()
        elif self._queue and not self._tx_armed:
            self._arm()

    # ------------------------------------------------------------------
    def _transmit_verdict(self, packet: Packet) -> Optional[str]:
        """Why this packet will be lost, or None to deliver it."""
        if self.loss_filter is not None and self.loss_filter(packet):
            return "drop"
        if self.is_down:
            return "down"
        if self.fault_filter is not None:
            return self.fault_filter(packet)
        return None

    def _start_next(self) -> None:
        """Put the next queued packet on the idle wire, if any."""
        if self._paused or not self._queue:
            return
        ser = self._transmit(self._queue.popleft())
        # Channel frees up when the tail leaves the transmitter.
        self._tx_end = self.sim.reserve(ser)
        if self._queue:
            self._arm()

    def _transmit(self, packet: Packet) -> float:
        """Account one packet put on the wire and schedule its delivery
        unless it is lost; returns its serialization time."""
        ser = self.serialization_time(packet)
        self.busy_us += ser
        verdict = self._transmit_verdict(packet)
        if verdict is not None:
            self.packets_dropped += 1
            if verdict == "corrupt":
                self.packets_corrupted += 1
            elif verdict == "down":
                self.packets_lost_down += 1
        else:
            self.packets_sent += 1
            self.bytes_sent += packet.size_bytes
            self.sim.schedule(
                ser + self.propagation_us, self._deliver, packet
            )
        return ser

    def _arm(self) -> None:
        """A packet waits: make the transmit end an event."""
        self._tx_armed = True
        self.sim.materialize(self._tx_end, self._tx_done)

    def _deliver(self, packet: Packet) -> None:
        assert self.sink is not None
        if packet.ctx is not None:
            self.trace("deliver", {
                "key": packet.packet_id, "channel": self.name,
                "ctx": packet.ctx,
            })
        self.sink.receive_packet(packet)

    def _tx_done(self) -> None:
        self._tx_end = None
        self._tx_armed = False
        self._start_next()


class Link:
    """A full-duplex cable between two attachment points.

    ``a_to_b`` and ``b_to_a`` are independent channels.  Callers attach
    sinks with :meth:`connect`.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_mbps: float,
        propagation_us: float,
        name: str = "",
    ) -> None:
        self.name = name
        self.a_to_b = Channel(sim, bandwidth_mbps, propagation_us, name=f"{name}:a->b")
        self.b_to_a = Channel(sim, bandwidth_mbps, propagation_us, name=f"{name}:b->a")

    def connect(self, sink_at_a: PacketSink, sink_at_b: PacketSink) -> None:
        """Attach the receive sinks at each end."""
        self.a_to_b.connect(sink_at_b)
        self.b_to_a.connect(sink_at_a)
