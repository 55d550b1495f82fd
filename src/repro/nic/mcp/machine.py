"""Common scaffolding for the four MCP state machines.

Each machine is a simulation process in an endless fetch-work/do-work
loop.  Every unit of work charges NIC-processor time through the shared
CPU resource, so the machines interleave on the single LANai processor
exactly as the real MCP's cooperative dispatch loop does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.process import Process
from repro.sim.tracing import trace_site

if TYPE_CHECKING:  # pragma: no cover
    from repro.nic.nic import Nic


class StateMachine:
    """Base class: binds to a NIC, runs :meth:`_run` as a process.

    :meth:`stop` kills the process; ``Process`` turns the
    ``ProcessKilled`` that ``kill()`` throws in into a clean completion,
    so ``_run`` needs no wrapper of its own.
    """

    #: Subclasses set this for traces.
    machine_name = "machine"

    def __init__(self, nic: "Nic") -> None:
        self.nic = nic
        self.sim = nic.sim
        #: Trace site: category ``nic<id>``, labels ``<machine>.<label>``.
        self.trace = trace_site(
            nic.tracer, f"nic{nic.node_id}", f"{self.machine_name}."
        )
        self.process = Process(
            nic.sim,
            self._run(),
            name=f"nic{nic.node_id}.{self.machine_name}",
        )

    def _run(self):  # pragma: no cover - abstract
        raise NotImplementedError
        yield  # make it a generator

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Kill the machine's process (shutdown/cleanup)."""
        self.process.kill()
