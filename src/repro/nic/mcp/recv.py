"""RECV state machine.

"The RECV state machine receives incoming packets into receive buffers
and handles acknowledgment and negative acknowledgment packets.  When the
RECV state machine receives an acknowledgment it removes the token
associated with that send from the sent list and passes it back to the
host." (Section 4.1.)

Dispatch rules:

* **ACK/NACK** -- regular-stream reliability, handled here; completed send
  tokens are passed back to the host as :class:`~repro.gm.events.SentEvent`.
* **DATA** -- sequence-number checked against the connection (go-back-N
  receiver).  Accepted packets reserve a receive SRAM buffer and a host
  receive token, then go to RDMA for delivery; an ACK-generation work
  item is queued to RDMA ("The RDMA state machine prepares acknowledgment
  and negative acknowledgment packets").
* **Barrier payload packets** -- in ``TOKEN_PER_DESTINATION`` mode they ride
  the regular stream (same seqno check, same ACKs -- this is what makes
  them ordered relative to non-barrier traffic, Section 3.3); in the
  other modes they bypass it.  Either way the barrier logic itself runs
  in the RDMA machine (Section 5.2).
* **BARRIER_ACK / BARRIER_REJECT** -- the separate barrier reliability
  mechanism (Section 4.4) and the closed-port recovery (Section 3.2).
"""

from __future__ import annotations

from repro.gm.constants import BarrierReliability
from repro.gm.events import SentEvent
from repro.network.packet import Packet, PacketType
from repro.nic.mcp.machine import StateMachine


class RecvMachine(StateMachine):
    """The RECV state machine (see module docstring)."""
    machine_name = "recv"

    def _run(self):
        nic = self.nic
        while True:
            packet = yield nic.recv_queue.get()
            ptype = packet.ptype
            if packet.src_node in nic.suspected_peers:
                # Epoch fence: a suspect never recovers (fail-stop), so
                # anything it sent before dying -- or anything delayed in
                # the fabric -- is dropped before touching protocol state.
                yield nic.cpu_time("recv_control")
                continue
            if ptype is PacketType.HEARTBEAT:
                # Liveness was recorded at wire delivery (detector.saw);
                # the payload carries nothing else.
                yield nic.cpu_time("recv_control")
                continue
            if ptype is PacketType.ACK:
                yield from self._handle_ack(packet)
            elif ptype is PacketType.NACK:
                yield from self._handle_nack(packet)
            elif ptype is PacketType.BARRIER_ACK:
                yield nic.cpu_time("recv_control")
                conn = nic.connection(packet.src_node)
                entry = conn.handle_barrier_ack(
                    packet.payload["acked_port"], packet.payload["acked_seqno"]
                )
                if entry is not None and entry.retransmits:
                    nic.recovery_hist.observe(nic.sim.now - entry.first_sent_at)
                nic.manage_barrier_retransmit_timer(conn)
            elif ptype is PacketType.BARRIER_REJECT:
                yield nic.cpu_time("recv_control")
                yield from nic.barrier_engine.on_reject(packet)
                yield from nic.collective_engine.on_reject(packet)
            elif ptype is PacketType.DATA:
                yield from self._handle_data(packet)
            elif ptype.is_onesided:
                yield from self._handle_onesided(packet)
            elif ptype.is_barrier or ptype.is_collective:
                yield from self._handle_barrier_payload(packet)
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"RECV: unknown packet type {ptype}")

    # ------------------------------------------------------------------
    def _handle_ack(self, packet: Packet):
        nic = self.nic
        yield nic.cpu_time("recv_control")
        conn = nic.connection(packet.src_node)
        done = conn.handle_ack(packet.payload["cum_seqno"])
        nic.manage_retransmit_timer(conn)
        for entry in done:
            if entry.retransmits:
                nic.recovery_hist.observe(nic.sim.now - entry.first_sent_at)
            if entry.token is None:
                continue
            token = entry.token
            if getattr(token, "is_multicast", False):
                # The token returns only when every replica is ACKed.
                token.remaining_acks -= 1
                if token.remaining_acks > 0:
                    continue
                dst_node, dst_port = token.destinations[-1]
            else:
                dst_node, dst_port = token.dst_node, token.dst_port
            port = nic.ports.get(token.src_port)
            if port is not None and port.is_open:
                yield nic.cpu_time("post_event")
                port.return_send_token()
                nic.post_host_event(
                    port,
                    SentEvent(
                        port_id=port.port_id,
                        token_id=token.token_id,
                        dst_node=dst_node,
                        dst_port=dst_port,
                    ),
                )

    def _handle_nack(self, packet: Packet):
        """Go-back-N: retransmit everything from the NACKed seqno."""
        nic = self.nic
        yield nic.cpu_time("recv_control")
        conn = nic.connection(packet.src_node)
        for entry in conn.entries_from(packet.payload["expected_seqno"]):
            nic.sdma_inbox.put(("retransmit", conn.remote_node, entry))
        nic.manage_retransmit_timer(conn, restart=True)

    # ------------------------------------------------------------------
    def _handle_data(self, packet: Packet):
        nic = self.nic
        yield nic.cpu_time("recv_packet")
        conn = nic.connection(packet.src_node)
        verdict = conn.classify_incoming(packet.seqno)
        if verdict == "duplicate":
            conn.duplicates_dropped += 1
            nic.rdma_queue.put(("ack_gen", packet.src_node))
            return
        if verdict == "out_of_order":
            self._send_nack_once(conn)
            return

        # In-sequence: the receiver must have resources, or it NACKs and
        # the sender retries (receive-side flow control).
        port = nic.ports.get(packet.dst_port)
        if port is None or not port.is_open:
            # GM drops messages to closed ports; the sender's token is
            # eventually returned when ACKed... here we NACK so the send
            # stays pending, surfacing the error mode the tests exercise.
            self._send_nack_once(conn)
            return
        recv_token = port.take_recv_token(packet.payload_bytes)
        if recv_token is None or not nic.rx_buffers.try_acquire():
            if recv_token is not None:
                port.recv_tokens.appendleft(recv_token)  # undo the take
                recv_token.used = False
            self._send_nack_once(conn)
            return

        conn.accept_incoming()
        port.messages_received += 1
        self.trace("accepted", key=packet.packet_id, seq=packet.seqno,
                   ctx=packet.ctx)
        nic.schedule_ack(conn)
        nic.rdma_queue.put(("deliver", packet, recv_token))

    def _handle_onesided(self, packet: Packet):
        """PUT / GET_REQ / GET_REPLY: regular-stream reliability, but no
        host receive token is consumed -- the defining property of
        one-sided operations (the target process never posts a buffer)."""
        nic = self.nic
        yield nic.cpu_time("recv_packet")
        conn = nic.connection(packet.src_node)
        verdict = conn.classify_incoming(packet.seqno)
        if verdict == "duplicate":
            conn.duplicates_dropped += 1
            nic.rdma_queue.put(("ack_gen", packet.src_node))
            return
        if verdict == "out_of_order":
            self._send_nack_once(conn)
            return
        port = nic.ports.get(packet.dst_port)
        if port is None or not port.is_open or not nic.rx_buffers.try_acquire():
            self._send_nack_once(conn)
            return
        conn.accept_incoming()
        nic.schedule_ack(conn)
        nic.rdma_queue.put(("onesided_rx", packet))

    def _send_nack_once(self, conn) -> None:
        """Queue one NACK for the current gap (suppressing storms)."""
        if not conn.nack_outstanding:
            conn.nack_outstanding = True
            conn.nacks_sent += 1
            self.nic.rdma_queue.put(("nack_gen", conn.remote_node))

    # ------------------------------------------------------------------
    def _handle_barrier_payload(self, packet: Packet):
        nic = self.nic
        yield nic.cpu_time("recv_barrier")
        self.trace("barrier_recv", key=packet.packet_id,
                   src=(packet.src_node, packet.src_port), ctx=packet.ctx)
        mode = nic.params.barrier_reliability
        if mode is BarrierReliability.TOKEN_PER_DESTINATION:
            # Barrier packets share the regular stream: same seqno rules.
            conn = nic.connection(packet.src_node)
            verdict = conn.classify_incoming(packet.seqno)
            if verdict == "duplicate":
                conn.duplicates_dropped += 1
                nic.rdma_queue.put(("ack_gen", packet.src_node))
                return
            if verdict == "out_of_order":
                self._send_nack_once(conn)
                return
            conn.accept_incoming()
            nic.schedule_ack(conn)
            nic.rdma_queue.put(("barrier_rx", packet))
        elif mode is BarrierReliability.SEPARATE:
            # Strict in-order acceptance on the dedicated barrier stream.
            # Accepted and duplicate packets are ACKed (a duplicate means
            # the original ACK was lost); packets beyond a gap are dropped
            # silently so the sender's timer refills the window in order.
            conn = nic.connection(packet.src_node)
            verdict = conn.classify_barrier_incoming(packet.src_port, packet.seqno)
            if verdict == "future":
                return
            nic.rdma_queue.put(("barrier_ack_gen", packet))
            if verdict == "accept":
                nic.rdma_queue.put(("barrier_rx", packet))
        else:  # UNRELIABLE: straight to the barrier logic.
            nic.rdma_queue.put(("barrier_rx", packet))
