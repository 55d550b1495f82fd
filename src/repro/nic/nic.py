"""The NIC: hardware resources, port/connection state, MCP machines.

One :class:`Nic` per node (the paper's system model allows several per
node; the cluster builder wires one by default and tests exercise the
general shape through port multiplexing, which is what the paper's
concurrent-barrier design issue is about).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional

from repro.gm.constants import MAX_PORTS, BarrierReliability
from repro.gm.events import GmEvent, PeerFailureEvent, SentEvent
from repro.gm.port import NicPort
from repro.gm.tokens import BarrierSendToken, SendToken
from repro.network.fabric import Network
from repro.network.packet import Packet, PacketType
from repro.nic.buffers import BufferPool
from repro.nic.dma import DmaEngine
from repro.nic.lanai import LanaiModel
from repro.nic.mcp.connection import Connection
from repro.nic.mcp.rdma import RdmaMachine
from repro.nic.mcp.recv import RecvMachine
from repro.nic.mcp.sdma import SdmaMachine
from repro.nic.mcp.send import SendMachine
from repro.sim.engine import Simulator
from repro.sim.primitives import Claim, Resource, Store
from repro.sim.tracing import TraceContext, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.nic_barrier import NicBarrierEngine


class RetransmitLimitExceeded(RuntimeError):
    """A reliability stream gave up: an unacked packet was retransmitted
    ``NicParams.max_retransmits`` times without progress.

    This is the *alarm* half of the give-up-or-recover contract: an
    injected fault (or a real protocol bug) that makes recovery
    impossible must surface as a loud error, never a silent hang.
    """

    def __init__(self, node_id: int, remote_node: int, stream: str,
                 seqno: int, retransmits: int) -> None:
        super().__init__(
            f"nic{node_id}: {stream} stream to node {remote_node} gave up "
            f"on seqno {seqno} after {retransmits} retransmissions "
            "(peer unreachable or reliability protocol wedged)"
        )
        self.node_id = node_id
        self.remote_node = remote_node
        #: Alias for :attr:`remote_node`: the peer this stream gave up on,
        #: so crash hangs are attributable straight off the exception.
        self.peer = remote_node
        self.stream = stream
        self.seqno = seqno
        self.retransmits = retransmits
        #: Flight-recorder ring at the moment of the alarm.  Always a
        #: list (empty without a tracer), never None.
        self.flight_records: list = []


@dataclass(frozen=True)
class NicParams:
    """NIC configuration knobs (beyond the LANai cost model)."""

    #: PCI bus: 32-bit/33 MHz of the testbed era.
    pci_bandwidth_mbps: float = 133.0
    #: Per-DMA bus-transaction overhead.
    pci_setup_us: float = 0.9
    #: SRAM packet-buffer pools.
    tx_buffers: int = 16
    rx_buffers: int = 32
    buffer_bytes: int = 4096
    #: Regular-stream go-back-N retransmission timeout.
    retransmit_timeout_us: float = 1500.0
    #: Give-up threshold for both reliability streams: when one entry has
    #: been retransmitted this many times without being acknowledged the
    #: NIC raises :class:`RetransmitLimitExceeded` instead of retrying
    #: forever.  None disables the alarm (the pre-hardening behaviour).
    max_retransmits: Optional[int] = 64
    #: Delayed-ACK coalescing window (GM acks lazily / piggybacked rather
    #: than per packet).  0 acks every packet immediately.
    ack_delay_us: float = 12.0
    #: SEPARATE-mode barrier retransmission timeout.
    barrier_retransmit_timeout_us: float = 800.0
    #: How barrier messages are protected (Section 4.4).
    barrier_reliability: BarrierReliability = BarrierReliability.UNRELIABLE
    #: Section 3.4 optimization: barrier "messages" between two ports of
    #: the *same* NIC skip the wire and just set the local flag.
    local_barrier_optimization: bool = False
    #: Failure-detector heartbeat period.  None (the default) builds the
    #: NIC *without* a detector, keeping clean runs bit-identical to
    #: pre-detector traces.  Setting it arms the detector for the whole
    #: run (bound such runs with ``until=``/``max_events=``); fault plans
    #: with crashes arm it automatically over a bounded window instead.
    heartbeat_us: Optional[float] = None
    #: Silence window after which a peer is declared failed (fail-stop).
    #: Defaults to ``8 * heartbeat_us`` when only the heartbeat is set.
    suspect_after: Optional[float] = None

    def with_(self, **changes) -> "NicParams":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


class Nic:
    """A programmable LANai NIC attached to the fabric."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        model: LanaiModel,
        network: Network,
        params: Optional[NicParams] = None,
        tracer: Optional[Tracer] = None,
        num_ports: int = MAX_PORTS,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.model = model
        self.network = network
        self.params = params or NicParams()
        self.tracer = tracer
        self.num_ports = num_ports

        # -- hardware resources ---------------------------------------------
        self.cpu_resource = Resource(sim, 1, name=f"nic{node_id}.cpu")
        self.pci_bus = Resource(sim, 1, name=f"nic{node_id}.pci")
        self.sdma_engine = DmaEngine(
            sim, self.pci_bus, self.params.pci_bandwidth_mbps,
            self.params.pci_setup_us, name=f"nic{node_id}.sdma",
        )
        self.rdma_engine = DmaEngine(
            sim, self.pci_bus, self.params.pci_bandwidth_mbps,
            self.params.pci_setup_us, name=f"nic{node_id}.rdma",
        )
        self.sdma_engine.tracer = tracer
        self.rdma_engine.tracer = tracer
        self.tx_buffers = BufferPool(
            sim, self.params.tx_buffers, self.params.buffer_bytes,
            name=f"nic{node_id}.tx",
        )
        self.rx_buffers = BufferPool(
            sim, self.params.rx_buffers, self.params.buffer_bytes,
            name=f"nic{node_id}.rx",
        )

        # -- protocol state ----------------------------------------------------
        self.ports: Dict[int, NicPort] = {
            pid: NicPort(sim, node_id, pid) for pid in range(num_ports)
        }
        self._connections: Dict[int, Connection] = {}
        #: Give-up alarms raised by the reliability streams (each entry is
        #: the :class:`RetransmitLimitExceeded` that was raised).
        self.alarms: list = []
        #: port_id -> host-event listeners (the MCP progress hook: called
        #: synchronously, after the event lands in the port's event ring).
        self._host_event_listeners: Dict[int, list] = {}

        # -- inter-machine queues ---------------------------------------------
        self.sdma_inbox: Store = Store(sim, name=f"nic{node_id}.sdma_inbox")
        self.send_queue: Store = Store(sim, name=f"nic{node_id}.send_q")
        self.recv_queue: Store = Store(sim, name=f"nic{node_id}.recv_q")
        self.rdma_queue: Store = Store(sim, name=f"nic{node_id}.rdma_q")

        # -- fabric attachment ---------------------------------------------------
        self.tx_channel = network.attach_nic(node_id, self)

        # -- the barrier extension (the paper's contribution) ---------------------
        from repro.core.nic_barrier import NicBarrierEngine
        from repro.core.nic_collectives import NicCollectiveEngine

        self.barrier_engine: "NicBarrierEngine" = NicBarrierEngine(self)
        #: NIC-based reduce/allreduce/bcast (the Section 8 extension).
        self.collective_engine: "NicCollectiveEngine" = NicCollectiveEngine(self)

        # -- the four MCP state machines -------------------------------------------
        self.sdma_machine = SdmaMachine(self)
        self.send_machine = SendMachine(self)
        self.recv_machine = RecvMachine(self)
        self.rdma_machine = RdmaMachine(self)

        # -- fail-stop state ---------------------------------------------------
        #: Set by :meth:`crash`: a crashed NIC neither receives nor injects.
        self.crashed = False
        #: Peers declared failed by the detector (monotone suspect set;
        #: the RECV machine's epoch fence drops their late packets).
        self.suspected_peers: set = set()
        #: Heartbeat failure detector; None unless ``heartbeat_us`` is
        #: configured or a crash-bearing fault plan arms one.
        self.detector = None
        if self.params.heartbeat_us is not None:
            from repro.nic.detector import FailureDetector

            suspect_after = self.params.suspect_after
            if suspect_after is None:
                suspect_after = 8.0 * self.params.heartbeat_us
            self.detector = FailureDetector(
                self, self.params.heartbeat_us, suspect_after
            )
            self.detector.arm()

        self._register_metrics()
        self._register_telemetry()

    def _register_telemetry(self) -> None:
        """Register this NIC's sampled time-series probes.

        Like :meth:`_register_metrics` these read only the plain
        attributes that are always maintained (``Resource.busy_us``,
        ``len(Store)``, DMA transfer totals) -- never metrics
        instruments, which are null objects when the metrics flag is
        off.  A disabled sampler drops every registration.
        """
        tel = self.sim.telemetry
        if not tel.enabled:
            return
        prefix = f"nic{self.node_id}"
        # busy_us is monotone; sampled as a counter the per-interval
        # rate is the LANai processor's utilization over that window.
        tel.register(
            f"{prefix}.cpu.util",
            lambda: self.cpu_resource.busy_us,
            kind="counter",
            component=f"{prefix}.cpu",
            unit="frac",
        )
        for store_name, store in (
            ("sdma_inbox", self.sdma_inbox),
            ("send_q", self.send_queue),
            ("recv_q", self.recv_queue),
            ("rdma_q", self.rdma_queue),
        ):
            tel.register(
                f"{prefix}.{store_name}.depth",
                lambda s=store: float(len(s)),
                component=f"{prefix}.cpu",
                unit="items",
            )
        # DMA backlog: requests waiting on (or holding) the shared PCI
        # bus -- the contention signal behind the pci_wait_us histogram.
        tel.register(
            f"{prefix}.dma.backlog",
            lambda: float(self.pci_bus.queued + self.pci_bus.in_use),
            component=f"{prefix}.dma",
            unit="reqs",
        )
    def _register_metrics(self) -> None:
        """Expose this NIC's counters to the simulation metrics registry.

        All sources are the plain attributes the NIC already keeps;
        nothing here runs until a snapshot is taken (and a disabled
        registry drops the registrations outright).
        """
        metrics = self.sim.metrics
        prefix = f"nic{self.node_id}"
        #: Time from a packet's first transmission to its (eventual) ACK,
        #: observed only for packets that needed retransmission -- the
        #: per-NIC time-to-recover distribution.  A null instrument when
        #: the registry is disabled.
        self.recovery_hist = metrics.histogram(f"{prefix}.recovery_us")
        if not metrics.enabled:
            return
        metrics.observe(
            f"{prefix}.cpu.busy_us", lambda: self.cpu_resource.busy_us
        )
        metrics.observe(
            f"{prefix}.cpu.utilization", lambda: self.cpu_resource.utilization()
        )
        for store_name, store in (
            ("sdma_inbox", self.sdma_inbox),
            ("send_q", self.send_queue),
            ("recv_q", self.recv_queue),
            ("rdma_q", self.rdma_queue),
        ):
            metrics.observe(
                f"{prefix}.{store_name}.depth_hw",
                lambda s=store: s.max_depth,
            )
        metrics.observe(
            f"{prefix}.retransmits",
            lambda: sum(
                c.packets_retransmitted for c in self._connections.values()
            ),
        )
        # Recovery-path counters (drops are counted on the links; these
        # are the receive/acknowledge sides of the same story).
        for counter in (
            "packets_acked",
            "duplicates_dropped",
            "future_dropped",
            "nacks_sent",
        ):
            metrics.observe(
                f"{prefix}.{counter}",
                lambda attr=counter: sum(
                    getattr(c, attr) for c in self._connections.values()
                ),
            )
        metrics.observe(
            f"{prefix}.retransmit_alarms", lambda: len(self.alarms)
        )
        metrics.observe(
            f"{prefix}.peers_suspected", lambda: len(self.suspected_peers)
        )
        metrics.observe(
            f"{prefix}.gbn_window_hw",
            lambda: max(
                (c.sent_list_high_water for c in self._connections.values()),
                default=0,
            ),
        )
        metrics.observe(
            f"{prefix}.barrier_window_hw",
            lambda: max(
                (
                    c.barrier_unacked_high_water
                    for c in self._connections.values()
                ),
                default=0,
            ),
        )

    # ------------------------------------------------------------------
    # Fabric interface
    # ------------------------------------------------------------------
    def receive_packet(self, packet: Packet) -> None:
        """Wire delivery point (the fabric calls this)."""
        if self.crashed:
            return
        if self.detector is not None:
            self.detector.saw(packet.src_node)
        self.recv_queue.put(packet)

    def inject(self, packet: Packet) -> None:
        """Hand a prepared packet to the transmit channel."""
        if self.crashed:
            return
        if self.detector is not None:
            self.detector.sent(packet.dst_node)
        packet.injected_at = self.sim.now
        self.tx_channel.send(packet)

    # ------------------------------------------------------------------
    # Factories and accessors
    # ------------------------------------------------------------------
    def connection(self, remote_node: int) -> Connection:
        """The (lazily created) connection state toward a peer node."""
        conn = self._connections.get(remote_node)
        if conn is None:
            conn = Connection(self.sim, self.node_id, remote_node, self.num_ports)
            self._connections[remote_node] = conn
        return conn

    @property
    def connections(self) -> Dict[int, Connection]:
        """All live connections, keyed by remote node id."""
        return self._connections

    def port(self, port_id: int) -> NicPort:
        """The port structure for ``port_id`` (raises if out of range)."""
        try:
            return self.ports[port_id]
        except KeyError:
            raise ValueError(
                f"NIC {self.node_id} has no port {port_id} "
                f"(0..{self.num_ports - 1})"
            ) from None

    def make_packet(
        self,
        ptype: PacketType,
        dst_node: int,
        dst_port: int,
        src_port: int,
        seqno: int = 0,
        payload_bytes: int = 0,
        payload: Optional[dict] = None,
        ctx: Optional[TraceContext] = None,
    ) -> Packet:
        """Build a packet with its source route stamped."""
        return Packet(
            ptype=ptype,
            src_node=self.node_id,
            src_port=src_port,
            dst_node=dst_node,
            dst_port=dst_port,
            seqno=seqno,
            payload_bytes=payload_bytes,
            payload=payload or {},
            route=self.network.route_for(self.node_id, dst_node),
            ctx=ctx,
        )

    def clone_packet(self, packet: Packet) -> Packet:
        """Fresh copy for retransmission (routes are consumed in flight).

        The clone keeps the original's trace id but bumps the attempt
        counter and resets the hop count, so a retransmitted packet stays
        inside the same span tree while remaining distinguishable.
        """
        return Packet(
            ptype=packet.ptype,
            src_node=packet.src_node,
            src_port=packet.src_port,
            dst_node=packet.dst_node,
            dst_port=packet.dst_port,
            seqno=packet.seqno,
            payload_bytes=packet.payload_bytes,
            payload=dict(packet.payload),
            route=self.network.route_for(self.node_id, packet.dst_node),
            ctx=packet.ctx.retry() if packet.ctx is not None else None,
        )

    # ------------------------------------------------------------------
    # Host-facing entry points (called by the GM API layer)
    # ------------------------------------------------------------------
    def post_token(self, port_id: int, token) -> None:
        """A host process queued a send token.

        The token becomes visible to the SDMA machine after its polling
        detection latency -- the NIC half of the paper's ``Send`` term.
        """
        token.queued_at = self.sim.now
        self.sim.schedule(
            self.model.time("poll_detect"),
            self.sdma_inbox.put,
            ("token", port_id, token),
        )

    def post_host_event(self, port: NicPort, event: GmEvent) -> None:
        """Queue an event into the port's host-visible event ring.

        Registered host-event listeners for the port fire afterwards --
        the progress hook the non-blocking schedule engine uses to track
        liveness without polling the queue itself."""
        event.posted_at = self.sim.now
        port.event_queue.put(event)
        listeners = self._host_event_listeners.get(port.port_id)
        if listeners:
            for listener in tuple(listeners):
                listener(event)

    def add_host_event_listener(self, port_id: int, listener) -> None:
        """Register ``listener(event)`` to run on every host event the
        MCP machines post to ``port_id``'s event ring."""
        self._host_event_listeners.setdefault(port_id, []).append(listener)

    def remove_host_event_listener(self, port_id: int, listener) -> None:
        """Unregister a host-event listener (missing listeners are a
        no-op, so teardown paths can call this unconditionally)."""
        listeners = self._host_event_listeners.get(port_id)
        if listeners is None:
            return
        if listener in listeners:
            listeners.remove(listener)
        if not listeners:
            del self._host_event_listeners[port_id]

    def on_port_open(self, port_id: int) -> None:
        """Hook for the driver: replay closed-port barrier rejections."""
        self.barrier_engine.on_port_open(port_id)

    def on_port_close(self, port_id: int) -> None:
        """Hook for the driver: drop every piece of per-port reliability
        state a dead endpoint leaves behind.

        Beyond abandoning the port's pending barrier retransmits
        (Section 3.2) this clears the unexpected-record bits and
        collective value slots recorded *for* the port -- otherwise a
        reused port could match a stale record from the previous owner --
        and cancels the barrier retransmit timer if the unacked list
        emptied, so no timer keeps firing for an abandoned stream.
        """
        for conn in self._connections.values():
            conn.drop_barrier_unacked_for_port(port_id)
            conn.clear_unexpected_for_port(port_id)
            if not conn.barrier_unacked and conn.barrier_retransmit_timer is not None:
                conn.barrier_retransmit_timer.cancel()
                conn.barrier_retransmit_timer = None

    # ------------------------------------------------------------------
    # Retransmission timers
    # ------------------------------------------------------------------
    def ensure_retransmit_timer(self, conn: Connection) -> None:
        """Start the go-back-N timer if unacked packets exist."""
        if conn.retransmit_timer is None and conn.sent_list:
            conn.retransmit_timer = self.sim.schedule_timer(
                self.params.retransmit_timeout_us, self._on_retransmit_timeout, conn
            )

    def manage_retransmit_timer(self, conn: Connection, restart: bool = False) -> None:
        """Cancel/restart the go-back-N timer after ACK/NACK processing."""
        if conn.retransmit_timer is not None:
            conn.retransmit_timer.cancel()
            conn.retransmit_timer = None
        if conn.sent_list:
            conn.retransmit_timer = self.sim.schedule_timer(
                self.params.retransmit_timeout_us, self._on_retransmit_timeout, conn
            )

    def _raise_alarm(self, conn: Connection, stream: str, entry) -> None:
        """Give up on a wedged reliability stream: record + raise."""
        alarm = RetransmitLimitExceeded(
            self.node_id,
            conn.remote_node,
            stream,
            entry.seqno if stream == "regular" else entry.barrier_seqno,
            entry.retransmits,
        )
        self.alarms.append(alarm)
        if self.tracer is not None:
            self.tracer.record(
                f"nic{self.node_id}", "reliability.alarm",
                stream=stream, peer=conn.remote_node,
                retransmits=entry.retransmits,
                ctx=getattr(entry.packet, "ctx", None),
            )
            # Black box: attach the flight-recorder ring so whoever
            # catches the alarm (soak harness, campaign executor) can
            # ship the last-K-records dump back as data.
            if self.tracer.flight is not None:
                alarm.flight_records = self.tracer.flight.snapshot()
        raise alarm

    def _on_retransmit_timeout(self, conn: Connection) -> None:
        conn.retransmit_timer = None
        if self.crashed or conn.remote_node in self.suspected_peers:
            return
        if not conn.sent_list:
            return
        limit = self.params.max_retransmits
        for entry in list(conn.sent_list):
            if limit is not None and entry.retransmits >= limit:
                self._raise_alarm(conn, "regular", entry)
            self.sdma_inbox.put(("retransmit", conn.remote_node, entry))
        self.ensure_retransmit_timer(conn)

    # ------------------------------------------------------------------
    # Delayed ACKs
    # ------------------------------------------------------------------
    def schedule_ack(self, conn: Connection) -> None:
        """Owe the peer a cumulative ACK; coalesce within the delay window."""
        if self.params.ack_delay_us <= 0:
            self.rdma_queue.put(("ack_gen", conn.remote_node))
            return
        if conn.ack_timer is None:
            conn.ack_timer = self.sim.schedule_timer(
                self.params.ack_delay_us, self._on_ack_timer, conn
            )

    def _on_ack_timer(self, conn: Connection) -> None:
        conn.ack_timer = None
        self.rdma_queue.put(("ack_gen", conn.remote_node))

    def manage_barrier_retransmit_timer(self, conn: Connection) -> None:
        """Restart/cancel the SEPARATE-mode barrier timer."""
        if conn.barrier_retransmit_timer is not None:
            conn.barrier_retransmit_timer.cancel()
            conn.barrier_retransmit_timer = None
        if conn.barrier_unacked:
            conn.barrier_retransmit_timer = self.sim.schedule_timer(
                self.params.barrier_retransmit_timeout_us,
                self._on_barrier_retransmit_timeout,
                conn,
            )

    def _on_barrier_retransmit_timeout(self, conn: Connection) -> None:
        conn.barrier_retransmit_timer = None
        if self.crashed or conn.remote_node in self.suspected_peers:
            return
        if not conn.barrier_unacked:
            return
        limit = self.params.max_retransmits
        for entry in list(conn.barrier_unacked):
            if limit is not None and entry.retransmits >= limit:
                self._raise_alarm(conn, "barrier", entry)
            entry.retransmits += 1
            conn.packets_retransmitted += 1
            self.send_queue.put((self.clone_packet(entry.packet), False))
        self.manage_barrier_retransmit_timer(conn)

    # ------------------------------------------------------------------
    # Fail-stop failure handling
    # ------------------------------------------------------------------
    def on_peer_suspected(self, peer: int) -> None:
        """The failure detector declared ``peer`` failed (fail-stop).

        Runs atomically at the detection instant (no CPU charges -- the
        LANai acts on suspicion within one firmware dispatch): both
        reliability streams toward the suspect are abandoned with their
        send tokens fake-acked back to the host, every in-flight barrier
        involving the suspect is aborted, and every open port receives
        exactly one :class:`~repro.gm.events.PeerFailureEvent` (the
        barrier abort path posts ctx-carrying events; this fans generic
        ones out to the remaining ports so blocked receives wake up).
        """
        if self.crashed or peer in self.suspected_peers:
            return
        self.suspected_peers.add(peer)
        if self.tracer is not None:
            self.tracer.record(
                f"nic{self.node_id}", "peer.failed", peer=peer
            )
        conn = self._connections.get(peer)
        if conn is not None:
            self._abandon_connection(conn)
        suspects = frozenset({peer})
        notified = self.barrier_engine.abort_suspects(suspects)
        for port in self.ports.values():
            if not port.is_open:
                continue
            if port.coll_send_token is not None:
                # The collective engine guards every queued work item
                # with a token-liveness check, so clearing the pointer
                # inerts it; the send token must come home regardless.
                port.coll_send_token = None
                port.return_send_token()
            if port.port_id not in notified:
                self.post_host_event(
                    port,
                    PeerFailureEvent(port_id=port.port_id, suspects=suspects),
                )

    def _abandon_connection(self, conn: Connection) -> None:
        """Tear down the reliability streams toward a dead peer.

        Pending sends are *fake-acked*: their tokens return to the host
        with the usual :class:`SentEvent`, exactly as a cumulative ACK
        would have returned them.  The data is lost with the peer, but no
        port leaks a send token -- the shrink protocol immediately needs
        the full send budget.
        """
        for timer_name in (
            "retransmit_timer", "ack_timer", "barrier_retransmit_timer"
        ):
            timer = getattr(conn, timer_name)
            if timer is not None:
                timer.cancel()
                setattr(conn, timer_name, None)
        entries, conn.sent_list = conn.sent_list, []
        conn.barrier_unacked = []
        conn.nack_outstanding = False
        for entry in entries:
            token = entry.token
            if token is None:
                continue
            if getattr(token, "is_multicast", False):
                token.remaining_acks -= 1
                if token.remaining_acks > 0:
                    continue
                dst_node, dst_port = token.destinations[-1]
            else:
                dst_node, dst_port = token.dst_node, token.dst_port
            port = self.ports.get(token.src_port)
            if port is not None and port.is_open:
                port.return_send_token()
                self.post_host_event(
                    port,
                    SentEvent(
                        port_id=port.port_id,
                        token_id=token.token_id,
                        dst_node=dst_node,
                        dst_port=dst_port,
                    ),
                )

    def crash(self) -> None:
        """Fail-stop death of this NIC (the LANai stops executing).

        Open ports first learn their own node is down -- a ``NicCrash``
        keeps the host alive, and its blocked processes must wake with a
        :class:`PeerFailure` naming the local node -- then every machine
        stops and all pending protocol timers die with the firmware.
        """
        if self.crashed:
            return
        for port in self.ports.values():
            if port.is_open:
                self.post_host_event(
                    port,
                    PeerFailureEvent(
                        port_id=port.port_id,
                        suspects=frozenset({self.node_id}),
                    ),
                )
        self.crashed = True
        if self.tracer is not None:
            self.tracer.record(f"nic{self.node_id}", "nic.crash")
        if self.detector is not None:
            self.detector.stop()
        for machine in (
            self.sdma_machine,
            self.send_machine,
            self.recv_machine,
            self.rdma_machine,
        ):
            machine.stop()
        for conn in self._connections.values():
            for timer_name in (
                "retransmit_timer", "ack_timer", "barrier_retransmit_timer"
            ):
                timer = getattr(conn, timer_name)
                if timer is not None:
                    timer.cancel()
                    setattr(conn, timer_name, None)

    def restart(self) -> None:
        """Bring a crashed NIC back with fresh firmware state.

        The four MCP machines restart from scratch; connection state is
        *not* recovered and peers keep this node suspect -- rejoin (a
        group-membership grow) is out of scope, so a restarted node can
        open ports and talk to nodes that never suspected it, but not
        rejoin a shrunken communicator.
        """
        if not self.crashed:
            return
        self.crashed = False
        self.sdma_machine = SdmaMachine(self)
        self.send_machine = SendMachine(self)
        self.recv_machine = RecvMachine(self)
        self.rdma_machine = RdmaMachine(self)
        if self.tracer is not None:
            self.tracer.record(f"nic{self.node_id}", "nic.restart")

    # ------------------------------------------------------------------
    def cpu_time(self, operation: str) -> Claim:
        """Charge ``operation`` against the NIC processor: one hold of
        the LANai, used as ``yield nic.cpu_time("recv_packet")``."""
        return self.cpu_resource.use(self.model.time(operation))

    def shutdown(self) -> None:
        """Stop the state-machine processes (end-of-test cleanup)."""
        if self.detector is not None:
            self.detector.stop()
        for machine in (
            self.sdma_machine,
            self.send_machine,
            self.recv_machine,
            self.rdma_machine,
        ):
            machine.stop()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Nic node={self.node_id} model={self.model.name}>"
