"""RDMA state machine.

"The RDMA state machine prepares acknowledgment and negative
acknowledgment packets and DMAs the data to the host buffer corresponding
to an appropriate receive token.  The RDMA state machine also adds
receive tokens in the receive queue to notify the process that the
receive has completed." (Section 4.1.)

It is also where the barrier extension's receive-side logic runs
(Section 5.2): "When a barrier packet is received, the RDMA state machine
can access the state of the barrier by simply dereferencing the pointer
[in the port data structure]".

Work items on ``nic.rdma_queue``:

``("deliver", packet, recv_token)``  -- DMA payload to host, post RecvEvent.
``("ack_gen", remote_node)``         -- prepare a cumulative ACK.
``("nack_gen", remote_node)``        -- prepare a NACK for the current gap.
``("barrier_ack_gen", packet)``      -- SEPARATE-mode barrier ACK.
``("barrier_rx", packet)``           -- barrier packet: record/advance.
``("barrier_complete", port_id, token)`` -- post completion to the host.
"""

from __future__ import annotations

from repro.gm.events import RecvEvent
from repro.network.packet import PacketType
from repro.nic.mcp.machine import StateMachine

#: Size of a receive-queue event DMAed into the host's event ring.
EVENT_DMA_BYTES = 16


class RdmaMachine(StateMachine):
    """The RDMA state machine (see module docstring)."""
    machine_name = "rdma"

    def _run(self):
        nic = self.nic
        while True:
            item = yield nic.rdma_queue.get()
            kind = item[0]
            if kind == "deliver":
                yield from self._deliver(item[1], item[2])
            elif kind == "ack_gen":
                yield from self._send_ack(item[1])
            elif kind == "nack_gen":
                yield from self._send_nack(item[1])
            elif kind == "barrier_ack_gen":
                yield from self._send_barrier_ack(item[1])
            elif kind == "barrier_rx":
                if item[1].is_collective:
                    yield from nic.collective_engine.on_packet(item[1])
                else:
                    yield from nic.barrier_engine.on_barrier_packet(item[1])
            elif kind == "barrier_complete":
                yield from nic.barrier_engine.complete(item[1], item[2])
            elif kind == "coll_complete":
                yield from nic.collective_engine.complete(item[1], item[2])
            elif kind == "onesided_rx":
                yield from self._handle_onesided(item[1])
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"RDMA: unknown work item {item!r}")

    # ------------------------------------------------------------------
    def _deliver(self, packet, recv_token):
        """DMA an accepted message into its host buffer + post the event."""
        nic = self.nic
        yield nic.cpu_time("rdma_process")
        yield from nic.rdma_engine.transfer(packet.payload_bytes, ctx=packet.ctx)
        nic.rx_buffers.release()
        yield nic.cpu_time("post_event")
        yield from nic.rdma_engine.transfer(EVENT_DMA_BYTES, ctx=packet.ctx)
        port = nic.ports.get(packet.dst_port)
        if port is not None and port.is_open:
            nic.post_host_event(
                port,
                RecvEvent(
                    port_id=packet.dst_port,
                    src_node=packet.src_node,
                    src_port=packet.src_port,
                    size_bytes=packet.payload_bytes,
                    payload=packet.payload.get("body"),
                ),
            )
        self.trace("delivered", key=packet.packet_id, ctx=packet.ctx)

    # ------------------------------------------------------------------
    # One-sided Get/Put (the Section 8 layer): the RDMA machine is the
    # natural home -- PUTs are host-memory writes, GET requests are
    # host-memory *reads* answered entirely in firmware.
    # ------------------------------------------------------------------
    def _handle_onesided(self, packet):
        from repro.gm.onesided import GetCompletedEvent, PutNotifyEvent

        nic = self.nic
        port = nic.ports.get(packet.dst_port)
        yield nic.cpu_time("rdma_process")
        if packet.ptype is PacketType.PUT:
            region = None if port is None else port.exposed_regions.get(
                packet.payload["region_id"]
            )
            if region is None:
                nic.rx_buffers.release()
                raise RuntimeError(
                    f"node {nic.node_id}: PUT targets unknown region "
                    f"{packet.payload['region_id']} on port {packet.dst_port}"
                )
            region.check_bounds(packet.payload["offset"], packet.payload_bytes)
            yield from nic.rdma_engine.transfer(packet.payload_bytes)
            nic.rx_buffers.release()
            region.data[packet.payload["offset"]] = packet.payload["value"]
            if packet.payload.get("notify") and port.is_open:
                yield nic.cpu_time("post_event")
                yield from nic.rdma_engine.transfer(EVENT_DMA_BYTES)
                nic.post_host_event(
                    port,
                    PutNotifyEvent(
                        port_id=packet.dst_port,
                        src_node=packet.src_node,
                        src_port=packet.src_port,
                        region_id=packet.payload["region_id"],
                        offset=packet.payload["offset"],
                        size_bytes=packet.payload_bytes,
                    ),
                )
            self.trace("put", key=packet.packet_id)
        elif packet.ptype is PacketType.GET_REQ:
            region = None if port is None else port.exposed_regions.get(
                packet.payload["region_id"]
            )
            if region is None:
                nic.rx_buffers.release()
                raise RuntimeError(
                    f"node {nic.node_id}: GET targets unknown region "
                    f"{packet.payload['region_id']} on port {packet.dst_port}"
                )
            offset = packet.payload["offset"]
            size = packet.payload["size"]
            region.check_bounds(offset, size)
            # Read the host memory (NIC-initiated host->SRAM DMA), then
            # answer on the reliable stream -- the remote host never runs.
            yield from nic.sdma_engine.transfer(size)
            nic.rx_buffers.release()
            yield nic.cpu_time("packet_prep")
            conn = nic.connection(packet.src_node)
            reply = nic.make_packet(
                PacketType.GET_REPLY,
                dst_node=packet.src_node,
                dst_port=packet.payload["reply_port"],
                src_port=packet.dst_port,
                seqno=conn.assign_seqno(),
                payload_bytes=size,
                payload={
                    "get_id": packet.payload["get_id"],
                    "value": region.data.get(offset),
                },
            )
            from repro.nic.mcp.connection import SentEntry

            conn.record_sent(SentEntry(seqno=reply.seqno, packet=reply, token=None))
            nic.ensure_retransmit_timer(conn)
            nic.send_queue.put((reply, False))
            self.trace("get_served", key=packet.packet_id)
        else:  # GET_REPLY
            yield from nic.rdma_engine.transfer(packet.payload_bytes)
            nic.rx_buffers.release()
            if port is not None and port.is_open:
                yield nic.cpu_time("post_event")
                yield from nic.rdma_engine.transfer(EVENT_DMA_BYTES)
                nic.post_host_event(
                    port,
                    GetCompletedEvent(
                        port_id=packet.dst_port,
                        get_id=packet.payload["get_id"],
                        value=packet.payload["value"],
                        size_bytes=packet.payload_bytes,
                    ),
                )
            self.trace("get_completed", key=packet.packet_id)

    # ------------------------------------------------------------------
    def _send_ack(self, remote_node: int):
        nic = self.nic
        conn = nic.connection(remote_node)
        yield nic.cpu_time("ack_gen")
        packet = nic.make_packet(
            PacketType.ACK,
            dst_node=remote_node,
            dst_port=0,
            src_port=0,
            payload={"cum_seqno": conn.expected_seqno - 1},
        )
        nic.send_queue.put((packet, False))

    def _send_nack(self, remote_node: int):
        nic = self.nic
        conn = nic.connection(remote_node)
        yield nic.cpu_time("ack_gen")
        packet = nic.make_packet(
            PacketType.NACK,
            dst_node=remote_node,
            dst_port=0,
            src_port=0,
            payload={"expected_seqno": conn.expected_seqno},
        )
        nic.send_queue.put((packet, False))

    def _send_barrier_ack(self, barrier_packet):
        nic = self.nic
        yield nic.cpu_time("ack_gen")
        packet = nic.make_packet(
            PacketType.BARRIER_ACK,
            dst_node=barrier_packet.src_node,
            dst_port=barrier_packet.src_port,
            src_port=barrier_packet.dst_port,
            payload={
                "acked_port": barrier_packet.src_port,
                "acked_seqno": barrier_packet.seqno,
            },
        )
        nic.send_queue.put((packet, False))
