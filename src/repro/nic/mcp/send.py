"""SEND state machine.

"The SEND state machine is responsible for transmitting packets which
were prepared by the SDMA state machine and any acknowledgment packets
which may be pending." (Section 4.1.)

Items on ``nic.send_queue`` are ``(packet, uses_tx_buffer)`` pairs; the
transmit SRAM buffer is released once the packet is handed to the wire
interface (the network channel then models wire occupancy, so a second
packet can be *prepared* while the first is still serializing -- the
separate-transmit-channel property the paper's timing model relies on).
"""

from __future__ import annotations

from repro.nic.mcp.machine import StateMachine


class SendMachine(StateMachine):
    """The SEND state machine (see module docstring)."""
    machine_name = "send"

    def _run(self):
        nic = self.nic
        while True:
            packet, uses_buffer = yield nic.send_queue.get()
            yield nic.cpu_time("send_dispatch")
            nic.inject(packet)
            if uses_buffer:
                nic.tx_buffers.release()
            self.trace("xmit", key=packet.packet_id, type=packet.ptype.value,
                       ctx=packet.ctx)
