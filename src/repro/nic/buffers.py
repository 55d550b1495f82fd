"""NIC SRAM packet-buffer pools.

The LANai stages every packet through on-card SRAM: outgoing packets are
DMAed into a transmit buffer before hitting the wire, incoming packets
land in a receive buffer before being DMAed to the host.  Pools are
finite; an exhausted transmit pool back-pressures the SDMA machine, an
exhausted receive pool forces the RECV machine to drop (and NACK) the
packet -- which is exactly the loss mode the reliability layer must
recover from.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.sim.engine import Simulator
from repro.sim.primitives import Claim


class BufferPool:
    """A counting pool of fixed-size SRAM buffers.

    ``acquire()`` returns a waitable (blocks when empty); ``try_acquire()``
    is the non-blocking variant used on the receive path where blocking
    would stall the wire.

    The waitable is a :class:`~repro.sim.primitives.Claim` on the pool,
    so an acquirer killed or interrupted while queued is purged, and a
    buffer already granted to it is handed back -- a NIC restarted after
    a crash keeps every transmit buffer.
    """

    def __init__(self, sim: Simulator, count: int, buffer_bytes: int, name: str = "") -> None:
        if count <= 0:
            raise ValueError("pool needs at least one buffer")
        if buffer_bytes <= 0:
            raise ValueError("buffers need positive size")
        self.sim = sim
        self.name = name
        self.buffer_bytes = buffer_bytes
        self.total = count
        self._free = count
        self._waiters: Deque[Claim] = deque()
        #: Statistics for tests / experiments.
        self.acquire_failures = 0
        self.high_watermark = 0

    @property
    def free(self) -> int:
        """Buffers currently available."""
        return self._free

    @property
    def in_use(self) -> int:
        """Buffers currently held."""
        return self.total - self._free

    def fits(self, size_bytes: int) -> bool:
        """Whether a payload fits one buffer."""
        return size_bytes <= self.buffer_bytes

    def acquire(self) -> Claim:
        """Waitable granted when a buffer is available (FIFO)."""
        claim = Claim(self)
        if self._free > 0 and not self._waiters:
            self._take()
            claim.granted = True
        else:
            self._waiters.append(claim)
        return claim

    def try_acquire(self) -> bool:
        """Grab a buffer if one is free; never blocks."""
        if self._free > 0 and not self._waiters:
            self._take()
            return True
        self.acquire_failures += 1
        return False

    def release(self) -> None:
        """Return a buffer; wakes the oldest blocked acquirer."""
        if self._free >= self.total and not self._waiters:
            raise RuntimeError(f"pool {self.name!r}: buffer double free")
        if self._waiters:
            self._waiters.popleft()._grant()
        else:
            self._free += 1

    def _purge_request(self, claim: Claim) -> None:
        """A queued acquirer's process died before being granted."""
        try:
            self._waiters.remove(claim)
        except ValueError:  # pragma: no cover - already granted/purged
            pass

    def _take(self) -> None:
        self._free -= 1
        self.high_watermark = max(self.high_watermark, self.in_use)
