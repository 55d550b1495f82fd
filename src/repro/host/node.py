"""A cluster node: host CPU(s) + one NIC + the GM driver."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.gm.memory import PinnedMemoryRegistry
from repro.host.cpu import HostParams
from repro.sim.engine import Simulator
from repro.sim.primitives import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.gm.driver import GmDriver
    from repro.nic.nic import Nic


class Node:
    """One workstation of the cluster."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        nic: "Nic",
        host_params: Optional[HostParams] = None,
        max_pinned_bytes: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.nic = nic
        self.params = host_params or HostParams()
        self.cpu = Resource(
            sim, capacity=self.params.num_cpus, name=f"node{node_id}.cpu"
        )
        self.memory = PinnedMemoryRegistry(node_id, max_pinned_bytes)
        #: Host processes running on this node (registered by the cluster
        #: runner) so a fail-stop NodeCrash can kill them with the NIC.
        self.programs: list = []
        # Imported lazily to avoid a cycle (driver needs Node for typing).
        from repro.gm.driver import GmDriver

        self.driver: "GmDriver" = GmDriver(self)

    def cpu_use(self, duration_us: float) -> tuple:
        """Charge host CPU time: ``yield from node.cpu_use(us)`` in a
        host-context process.

        Returns the waits to delegate to: one hold of a CPU, or none at
        all for zero time (no event is scheduled).  The hold resumes with
        ``None``, so delegating to the tuple is exact.
        """
        if duration_us < 0:
            raise ValueError("negative host CPU time")
        if duration_us == 0:
            return ()
        return (self.cpu.use(duration_us),)

    def compute(self, duration_us: float) -> tuple:
        """Application compute phase occupying one CPU (for fuzzy-barrier
        and BSP examples): ``yield from node.compute(us)``."""
        return (self.cpu.use(duration_us),)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.node_id}>"
