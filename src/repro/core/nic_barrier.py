"""The NIC-based barrier firmware extension (Sections 4.2--5.2).

This is the paper's contribution: barrier logic executed *on the NIC* by
the SDMA and RDMA state machines, so that "as soon as a NIC receives a
barrier message, the message to the next process can be sent directly"
without a round trip through the host.

The engine's methods are generators executed *inside* the calling state
machine's process, so every action is charged against the shared NIC
processor at the LANai cost model's rates:

* :meth:`initiate`, :meth:`sdma_work` run in the SDMA machine ("When the
  SDMA state machine receives the barrier send token from the host...").
* :meth:`on_barrier_packet`, :meth:`complete` run in the RDMA machine
  ("When a barrier packet is received, the RDMA state machine can access
  the state of the barrier by simply dereferencing the pointer").
* :meth:`on_reject` runs in the RECV machine (closed-port recovery,
  Section 3.2).

Algorithms:

**PE (pairwise exchange)** -- walk ``token.steps``; each step sends to its
peer and/or awaits that peer's message.  The *unexpected-barrier-message
record* (one bit per (connection, source port)) absorbs messages that
arrive before we are ready for them; after preparing each send the engine
checks the record so an already-received reply advances the barrier
without waiting (Section 5.2's numbered 1--5 procedure).

**GB (gather and broadcast)** -- non-roots collect gathers from all
children, send one gather up, and await the broadcast; the root, once all
gathers are in, *completes first* and then broadcasts to each child by
repeatedly re-queueing the send token ("Once the SDMA state machine has
prepared the packet to be transmitted, the send token is updated to be
sent to the next child, and it is re-queued").
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Tuple

from repro.gm.constants import BarrierReliability
from repro.gm.events import BarrierCompletedEvent, PeerFailureEvent
from repro.gm.port import NicPort
from repro.gm.tokens import BarrierSendToken, Endpoint
from repro.network.packet import Packet, PacketType
from repro.nic.mcp.connection import BarrierUnacked, SentEntry

if TYPE_CHECKING:  # pragma: no cover
    from repro.nic.nic import Nic

#: Wire payload of a barrier packet (barrier-instance id + flags).
BARRIER_PAYLOAD_BYTES = 8
#: Size of the completion notification DMAed to the host.
COMPLETION_DMA_BYTES = 16


class NicBarrierEngine:
    """Barrier firmware state shared by the MCP machines of one NIC."""

    def __init__(self, nic: "Nic") -> None:
        self.nic = nic
        #: Recently initiated tokens per port, for REJECT-triggered resends
        #: that arrive after the local barrier already completed (a GB
        #: broadcast to a slow-opening child).
        self._recent_tokens: Dict[int, Deque[BarrierSendToken]] = {}
        #: Statistics.
        self.barriers_initiated = 0
        self.unexpected_recorded = 0
        self.rejects_sent = 0
        self.resends = 0
        metrics = nic.sim.metrics
        prefix = f"nic{nic.node_id}.barrier"
        metrics.observe(f"{prefix}.initiated", lambda: self.barriers_initiated)
        metrics.observe(f"{prefix}.unexpected", lambda: self.unexpected_recorded)
        metrics.observe(f"{prefix}.rejects", lambda: self.rejects_sent)
        metrics.observe(f"{prefix}.resends", lambda: self.resends)
        #: Host-queue-to-NIC-complete latency of each finished barrier.
        self._latency_hist = metrics.histogram(f"{prefix}.latency_us")

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def trace(self, label: str, **payload) -> None:
        """Record a trace event if tracing is enabled."""
        if self.nic.tracer is not None:
            self.nic.tracer.record(
                f"nic{self.nic.node_id}", f"barrier.{label}", **payload
            )

    def _token_live(self, port: NicPort, token: BarrierSendToken) -> bool:
        return port.is_open and port.barrier_send_token is token

    def _remember(self, port_id: int, token: BarrierSendToken) -> None:
        ring = self._recent_tokens.get(port_id)
        if ring is None:
            ring = deque(maxlen=4)
            self._recent_tokens[port_id] = ring
        ring.append(token)

    # ------------------------------------------------------------------
    # SDMA-side entry points
    # ------------------------------------------------------------------
    def initiate(self, port_id: int, token: BarrierSendToken):
        """Process a barrier send token from the host (SDMA context)."""
        nic = self.nic
        yield nic.cpu_time(
            "gb_initiate" if token.algorithm == "gb" else "barrier_initiate"
        )
        port = nic.port(port_id)
        if not port.is_open:
            return  # the process died between queueing and detection
        if port.barrier_send_token is not None:
            raise RuntimeError(
                f"port {port_id} on node {nic.node_id} initiated a barrier "
                "while one is already in flight (one barrier per port)"
            )
        token.owner_generation = port.generation
        port.barrier_send_token = token
        self._remember(port_id, token)
        self.barriers_initiated += 1
        self.trace(
            "initiate", port=port_id, alg=token.algorithm,
            seq=token.barrier_seq, ctx=token.ctx,
        )
        # Phase-span begin records ("<alg>.begin"/"<alg>.end" pairs are
        # auto-discovered by Tracer.to_chrome_trace).
        self.trace(
            f"{token.algorithm}.begin", port=port_id, key=token.barrier_seq,
            ctx=token.ctx,
        )
        if token.algorithm == "gb":
            self.trace(
                "gb.gather.begin", port=port_id, key=token.barrier_seq,
                ctx=token.ctx,
            )

        if token.algorithm == "pe":
            yield from self._pe_loop(port, token)
        else:
            yield from self._gb_initiate(port, token)

    def sdma_work(self, item: tuple):
        """Dispatch barrier work items the engine queued to the SDMA inbox."""
        kind = item[0]
        if kind == "barrier_send_pe":
            _, port_id, token = item
            port = self.nic.port(port_id)
            if self._token_live(port, token):
                yield from self._pe_loop(port, token)
        elif kind == "barrier_send_gather":
            _, port_id, token = item
            port = self.nic.port(port_id)
            if self._token_live(port, token):
                assert token.parent is not None
                yield from self._send_barrier_packet(
                    token, token.parent, PacketType.BARRIER_GATHER
                )
        elif kind == "barrier_bcast":
            yield from self._bcast_step(item[1], item[2])
        elif kind == "barrier_resend":
            yield from self._resend(
                item[1], item[2], item[3], item[4],
                item[5] if len(item) > 5 else None,
            )
        elif kind == "barrier_reject":
            yield from self._send_reject(
                item[1], item[2], item[3] if len(item) > 3 else None
            )
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"barrier engine: unknown SDMA work {item!r}")

    # -- PE ----------------------------------------------------------------
    def _pe_loop(self, port: NicPort, token: BarrierSendToken):
        """Advance the PE token until it parks on a receive or completes."""
        nic = self.nic
        while True:
            if not self._token_live(port, token):
                return
            if token.node_index >= len(token.steps):
                nic.rdma_queue.put(("barrier_complete", port.port_id, token))
                return
            step = token.current_step
            if step.send:
                yield from self._send_barrier_packet(
                    token, step.peer, PacketType.BARRIER_PE
                )
            if not step.recv:
                yield nic.cpu_time("barrier_advance")
                token.node_index += 1
                continue
            # "it checks to see if a barrier packet has been received from
            # that same destination" -- the post-prepare record check.
            # CPU first, then atomic check + mutation (see
            # on_barrier_packet for the atomicity discipline).
            yield nic.cpu_time("barrier_check")
            conn = nic.connection(step.peer[0])
            recorded = conn.unexpected.check_clear(step.peer[1])
            if recorded:
                if recorded is not True:
                    token.cause_ctx = recorded
                token.node_index += 1
                self.trace(
                    "advance", port=port.port_id, src=step.peer,
                    seq=token.barrier_seq, ctx=token.cause_ctx or token.ctx,
                )
                yield nic.cpu_time("barrier_advance")
                continue
            token.awaiting_recv = True
            return

    # -- GB ----------------------------------------------------------------
    def _gb_initiate(self, port: NicPort, token: BarrierSendToken):
        """Consume pre-recorded gathers, then proceed if all are in.

        The RDMA machine may consume gathers concurrently (it claims the
        phase transition atomically), so every post-CPU-wait step
        re-checks that the gather phase is still ours to finish.
        """
        nic = self.nic
        for child in sorted(token.gather_pending):
            yield nic.cpu_time("gb_gather_check")
            if token.phase != "gather" or not self._token_live(port, token):
                return  # the RDMA side finished the gather phase for us
            recorded = nic.connection(child[0]).unexpected.check_clear(child[1])
            if recorded:
                if recorded is not True:
                    token.cause_ctx = recorded
                token.gather_pending.discard(child)
        if token.phase == "gather" and not token.gather_pending:
            token.phase = "gathers_done"
            self.trace(
                "gb.gather.end", port=port.port_id, key=token.barrier_seq,
                ctx=token.cause_ctx or token.ctx,
            )
            yield from self._gb_all_gathers_in(port, token)

    def _gb_all_gathers_in(self, port: NicPort, token: BarrierSendToken):
        """All children reported (phase already claimed as
        "gathers_done"): the root completes + broadcasts, others forward
        the gather upward and wait for the broadcast."""
        if token.is_root:
            token.phase = "bcast"
            self.nic.rdma_queue.put(("barrier_complete", port.port_id, token))
        else:
            token.phase = "await_bcast"
            self.nic.sdma_inbox.put(
                ("barrier_send_gather", port.port_id, token)
            )
        yield from ()

    def _bcast_step(self, port_id: int, token: BarrierSendToken):
        """Send the broadcast to the next child, then re-queue (SDMA)."""
        nic = self.nic
        port = nic.port(port_id)
        if not (
            port.is_open
            and port.generation == token.owner_generation
            and token.phase == "bcast"
        ):
            return
        child = token.children[token.bcast_index]
        yield from self._send_barrier_packet(token, child, PacketType.BARRIER_BCAST)
        yield nic.cpu_time("gb_token_requeue")
        token.bcast_index += 1
        if token.bcast_index < len(token.children):
            nic.sdma_inbox.put(("barrier_bcast", port_id, token))
        else:
            token.phase = "done"
            self.trace(
                "gb.bcast.end", port=port_id, key=token.barrier_seq,
                ctx=token.cause_ctx or token.ctx,
            )

    # ------------------------------------------------------------------
    # RDMA-side entry points
    # ------------------------------------------------------------------
    def on_barrier_packet(self, packet: Packet):
        """Record/advance on a received barrier message (RDMA context).

        Atomicity discipline: the CPU time for inspecting the port's
        barrier state is charged *first*; the decision and every state
        mutation then happen at one simulated instant, with any further
        CPU cost charged afterwards.  This mirrors the real MCP, whose
        dispatch loop makes each firmware action atomic -- splitting a
        decision from its mutation across a CPU wait would let the SDMA
        machine's record check interleave and lose the message (a
        deadlock this project's integration tests caught).
        """
        nic = self.nic
        src: Endpoint = (packet.src_node, packet.src_port)

        # The dereference + inspection cost (Section 5.2: "the RDMA state
        # machine can access the state of the barrier by simply
        # dereferencing the pointer").
        yield nic.cpu_time("barrier_check")

        # ---- atomic decision + mutation (no yields in this block) ----
        port = nic.ports.get(packet.dst_port)
        if port is None or not port.is_open:
            # Section 3.2, adopted solution: record arrivals for a closed
            # port; they are rejected (and thus resent) when it opens.
            if port is not None:
                port.closed_barrier_record.add(src)
                port.closed_barrier_ctx[src] = packet.ctx
            self.trace(
                "closed_port_record", src=src, port=packet.dst_port,
                ctx=packet.ctx,
            )
            yield nic.cpu_time("barrier_record")
            return

        token = port.barrier_send_token
        if (
            token is not None
            and token.algorithm == "pe"
            and packet.ptype is PacketType.BARRIER_PE
            and token.awaiting_recv
            and src == token.current_peer
        ):
            token.awaiting_recv = False
            token.node_index += 1
            token.cause_ctx = packet.ctx or token.cause_ctx
            completed = token.node_index >= len(token.steps)
            self.trace(
                "advance", port=port.port_id, src=src,
                seq=token.barrier_seq, ctx=token.cause_ctx or token.ctx,
            )
            # ---- end of atomic block ----
            yield nic.cpu_time("barrier_advance")
            if completed:
                yield from self.complete(port.port_id, token)
            else:
                nic.sdma_inbox.put(("barrier_send_pe", port.port_id, token))
            return

        if token is not None and token.algorithm == "gb":
            if (
                packet.ptype is PacketType.BARRIER_GATHER
                and token.phase == "gather"
                and src in token.gather_pending
            ):
                token.gather_pending.discard(src)
                token.cause_ctx = packet.ctx or token.cause_ctx
                all_in = not token.gather_pending
                self.trace(
                    "advance", port=port.port_id, src=src,
                    seq=token.barrier_seq, ctx=token.cause_ctx or token.ctx,
                )
                if all_in:
                    # Claim the transition atomically (the SDMA-side
                    # initiate scan also checks the phase).
                    token.phase = "gathers_done"
                    self.trace(
                        "gb.gather.end", port=port.port_id,
                        key=token.barrier_seq,
                        ctx=token.cause_ctx or token.ctx,
                    )
                # ---- end of atomic block ----
                yield nic.cpu_time("gb_gather_check")
                if all_in:
                    yield from self._gb_all_gathers_in(port, token)
                return
            if (
                packet.ptype is PacketType.BARRIER_BCAST
                and token.phase == "await_bcast"
                and src == token.parent
            ):
                token.phase = "bcast"
                token.cause_ctx = packet.ctx or token.cause_ctx
                self.trace(
                    "advance", port=port.port_id, src=src,
                    seq=token.barrier_seq, ctx=token.cause_ctx or token.ctx,
                )
                # ---- end of atomic block ----
                yield from self.complete(port.port_id, token)
                return

        # "In all other cases, the reception of the message is simply
        # recorded."  The bit is set atomically at the decision instant.
        nic.connection(packet.src_node).unexpected.set(
            packet.src_port, dst_port=packet.dst_port, ctx=packet.ctx
        )
        self.unexpected_recorded += 1
        self.trace("recorded", src=src, port=packet.dst_port, ctx=packet.ctx)
        yield nic.cpu_time("barrier_record")

    def complete(self, port_id: int, token: BarrierSendToken):
        """Post the completion notification to the host (RDMA context).

        "the RDMA state machine sends a receive token to the host
        indicating that the barrier has completed, and sets the send token
        pointer in the port data structure to zero" -- and for GB, *then*
        starts the broadcast to the children.
        """
        nic = self.nic
        port = nic.port(port_id)
        if not self._token_live(port, token):
            return
        yield nic.cpu_time("barrier_complete")
        buf = port.take_barrier_buffer()
        if buf is None:
            raise RuntimeError(
                f"node {nic.node_id} port {port_id}: barrier completed but no "
                "barrier buffer was provided (call gm_provide_barrier_buffer "
                "before initiating the barrier)"
            )
        yield from nic.rdma_engine.transfer(COMPLETION_DMA_BYTES)
        yield nic.cpu_time("post_event")
        nic_complete_time = nic.sim.now
        port.barrier_send_token = None
        port.barriers_completed += 1
        port.return_send_token()
        ctx = token.cause_ctx or token.ctx
        nic.post_host_event(
            port,
            BarrierCompletedEvent(
                port_id=port_id,
                barrier_seq=token.barrier_seq,
                nic_complete_time=nic_complete_time,
                ctx=ctx,
            ),
        )
        self.trace(
            f"{token.algorithm}.end", port=port_id, key=token.barrier_seq,
            ctx=ctx,
        )
        self.trace("complete", port=port_id, seq=token.barrier_seq, ctx=ctx)
        if token.queued_at is not None:
            self._latency_hist.observe(nic_complete_time - token.queued_at)
        if token.algorithm == "gb":
            if token.phase == "bcast" and token.children:
                token.bcast_index = 0
                self.trace(
                    "gb.bcast.begin", port=port_id, key=token.barrier_seq,
                    ctx=ctx,
                )
                nic.sdma_inbox.put(("barrier_bcast", port_id, token))
            else:
                token.phase = "done"

    # ------------------------------------------------------------------
    # Fail-stop abort (peer suspected mid-barrier)
    # ------------------------------------------------------------------
    def abort_suspects(self, suspects) -> set:
        """Abort every in-flight barrier on this NIC: a peer was declared
        failed, and a barrier live at that instant can no longer be
        assumed completable -- the suspect may sit anywhere in the global
        dependency chain, not just among this token's direct peers.

        Runs synchronously at the suspicion instant (the real MCP reacts
        within one firmware dispatch).  The port's send token and barrier
        buffer are reclaimed and a ctx-carrying
        :class:`~repro.gm.events.PeerFailureEvent` is posted; returns the
        set of port ids notified so the caller can fan generic events out
        to the remaining ports without duplicates (a duplicate event
        would desynchronize the survivors' shrink rounds).
        """
        nic = self.nic
        notified: set = set()
        for port_id in sorted(nic.ports):
            port = nic.ports[port_id]
            token = port.barrier_send_token
            if token is None or not port.is_open:
                continue
            port.barrier_send_token = None
            port.return_send_token()
            port.take_barrier_buffer()
            ctx = token.cause_ctx or token.ctx
            self.trace(
                "abort", port=port_id, seq=token.barrier_seq,
                suspects=sorted(suspects), ctx=ctx,
            )
            nic.post_host_event(
                port,
                PeerFailureEvent(
                    port_id=port_id,
                    suspects=frozenset(suspects),
                    ctx=ctx,
                    barrier_seq=token.barrier_seq,
                ),
            )
            notified.add(port_id)
        return notified

    # ------------------------------------------------------------------
    # Packet transmission with reliability (Section 4.4)
    # ------------------------------------------------------------------
    def _send_barrier_packet(
        self,
        token: BarrierSendToken,
        endpoint: Endpoint,
        ptype: PacketType,
        is_resend: bool = False,
        cause_ctx=None,
    ):
        """Prepare and queue one barrier packet (SDMA context).

        The outgoing packet's trace context is a child span of whatever
        *caused* this send: an explicit ``cause_ctx`` (REJECT recovery),
        else the incoming packet that advanced the token, else the
        host-stamped root -- so the span tree threads through the NIC
        hop-by-hop exactly like the barrier's happens-before chain.
        """
        nic = self.nic
        dst_node, dst_port = endpoint
        yield nic.cpu_time("barrier_packet_prep")

        base = cause_ctx or token.cause_ctx or token.ctx
        pctx = base.child() if base is not None else None

        # Section 3.4 optimization: two ports of the same NIC synchronize
        # by setting the local flag, no wire message.
        if nic.params.local_barrier_optimization and dst_node == nic.node_id:
            packet = nic.make_packet(
                ptype,
                dst_node=dst_node,
                dst_port=dst_port,
                src_port=token.src_port,
                seqno=token.barrier_seq,
                payload_bytes=0,
                payload={"barrier_seq": token.barrier_seq},
                ctx=pctx,
            )
            token.sent_to.append((endpoint, ptype.value))
            nic.rdma_queue.put(("barrier_rx", packet))
            self.trace("local_deliver", dst=endpoint, ctx=pctx)
            return

        conn = nic.connection(dst_node)
        mode = nic.params.barrier_reliability
        if mode is BarrierReliability.SEPARATE:
            seqno = conn.assign_barrier_seqno(token.src_port)
        elif mode is BarrierReliability.TOKEN_PER_DESTINATION:
            seqno = conn.assign_seqno()
        else:
            seqno = token.barrier_seq

        packet = nic.make_packet(
            ptype,
            dst_node=dst_node,
            dst_port=dst_port,
            src_port=token.src_port,
            seqno=seqno,
            payload_bytes=BARRIER_PAYLOAD_BYTES,
            payload={"barrier_seq": token.barrier_seq},
            ctx=pctx,
        )
        token.sent_to.append((endpoint, ptype.value))

        if mode is BarrierReliability.SEPARATE:
            conn.record_barrier_sent(
                BarrierUnacked(
                    src_port=token.src_port, barrier_seqno=seqno, packet=packet
                )
            )
            if conn.barrier_retransmit_timer is None:
                nic.manage_barrier_retransmit_timer(conn)
        elif mode is BarrierReliability.TOKEN_PER_DESTINATION:
            # "have the barrier event use one token for every destination":
            # the packet joins the regular go-back-N sent list.
            conn.record_sent(SentEntry(seqno=seqno, packet=packet, token=None))
            nic.ensure_retransmit_timer(conn)

        if is_resend:
            self.resends += 1
        nic.send_queue.put((packet, False))
        self.trace("send", dst=endpoint, type=ptype.value, seq=seqno, ctx=pctx)

    # ------------------------------------------------------------------
    # Closed-port recovery (Section 3.2)
    # ------------------------------------------------------------------
    def on_port_open(self, port_id: int) -> None:
        """Reject barrier messages recorded while the port was closed."""
        port = self.nic.port(port_id)
        for src in sorted(port.closed_barrier_record):
            self.nic.sdma_inbox.put(
                ("barrier_reject", src, port_id,
                 port.closed_barrier_ctx.get(src))
            )
        port.closed_barrier_record.clear()
        port.closed_barrier_ctx.clear()

    def _send_reject(self, target: Endpoint, local_port: int, cause_ctx=None):
        """Build + queue a BARRIER_REJECT to a recorded sender (SDMA)."""
        yield self.nic.cpu_time("packet_prep")
        pctx = cause_ctx.child() if cause_ctx is not None else None
        packet = self.nic.make_packet(
            PacketType.BARRIER_REJECT,
            dst_node=target[0],
            dst_port=target[1],
            src_port=local_port,
            payload={},
            ctx=pctx,
        )
        self.rejects_sent += 1
        self.nic.send_queue.put((packet, False))
        self.trace("reject", to=target, port=local_port, ctx=pctx)

    def on_reject(self, packet: Packet):
        """A peer rejected our barrier message; resend if still relevant
        ("but only if the endpoint that initiated the barrier has not
        closed since the message was sent").  RECV context."""
        nic = self.nic
        port = nic.ports.get(packet.dst_port)
        if port is None or not port.is_open:
            return
        rejector: Endpoint = (packet.src_node, packet.src_port)
        ring = self._recent_tokens.get(packet.dst_port, ())
        # Every live message type sent to the rejector must go out again:
        # a PE gather and a GB broadcast (or two phases of one algorithm)
        # can both be outstanding to the same slow-opening peer, and the
        # peer's barrier stalls on whichever one we skip.  Walk the ring
        # oldest-first so resends arrive in barrier order.
        resends: list = []
        seen: set = set()
        for token in ring:
            if token.owner_generation != port.generation:
                continue
            for ep, ptype_val in token.sent_to:
                if ep != rejector:
                    continue
                key = (id(token), ptype_val)
                if key not in seen:
                    seen.add(key)
                    resends.append((token, ptype_val))
        if resends:
            # Drop superseded SEPARATE-mode retransmission state for this
            # destination before resending with fresh seqnos.
            conn = nic.connection(rejector[0])
            src_ports = {token.src_port for token, _ in resends}
            conn.barrier_unacked = [
                e
                for e in conn.barrier_unacked
                if not (
                    e.src_port in src_ports
                    and e.packet.dst_port == rejector[1]
                )
            ]
            nic.manage_barrier_retransmit_timer(conn)
            for token, ptype_val in resends:
                nic.sdma_inbox.put(
                    (
                        "barrier_resend",
                        packet.dst_port,
                        token,
                        rejector,
                        PacketType(ptype_val),
                        packet.ctx,
                    )
                )
        yield from ()

    def _resend(
        self,
        port_id: int,
        token: BarrierSendToken,
        endpoint: Endpoint,
        ptype: PacketType,
        cause_ctx=None,
    ):
        """Retransmit one barrier message after a REJECT (SDMA context)."""
        port = self.nic.port(port_id)
        if not port.is_open or port.generation != token.owner_generation:
            return
        yield from self._send_barrier_packet(
            token, endpoint, ptype, is_resend=True, cause_ctx=cause_ctx
        )
