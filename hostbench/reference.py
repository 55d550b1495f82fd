"""Host-speed reference: a fixed pure-Python discrete-event kernel.

On a shared machine the interpreter's speed drifts by tens of percent
between minutes (CPU frequency, neighbours competing for cache and
memory bandwidth), and process CPU time drifts with it.  The benchmark
therefore times this kernel right before and right after every unit and
reports each unit's wall time scaled to the reference speed::

    scaled_wall = raw_wall * REFERENCE_NOMINAL_S / max(reference_before,
                                                       reference_after)

The kernel imitates the simulator's hot path -- a heap of timestamped
events, callbacks resuming generator processes, small-object allocation,
dict bookkeeping -- but shares no code with ``src/``, so a change to the
simulator never changes the yardstick it is measured with.
"""

from __future__ import annotations

import heapq
import time

#: Median :func:`time_reference` on the machine the benchmark was defined
#: on (2 vCPUs, Python 3.11), so normalised times read as that
#: machine's wall time in its usual state.
REFERENCE_NOMINAL_S = 0.006


class _Event:
    __slots__ = ("t", "seq", "callback", "args")

    def __init__(self, t, seq, callback, args):
        self.t = t
        self.seq = seq
        self.callback = callback
        self.args = args

    def __lt__(self, other):
        return (self.t, self.seq) < (other.t, other.seq)


class _Loop:
    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.heap = []
        self.executed = 0

    def schedule(self, delay, callback, *args):
        self.seq += 1
        heapq.heappush(self.heap, _Event(self.now + delay, self.seq, callback, args))

    def run(self):
        heap = self.heap
        while heap:
            event = heapq.heappop(heap)
            self.now = event.t
            self.executed += 1
            event.callback(*event.args)


class _Process:
    def __init__(self, loop, generator):
        self.loop = loop
        self.generator = generator
        self.resumes = {}
        loop.schedule(0.0, self.resume, None)

    def resume(self, value):
        try:
            delay = self.generator.send(value)
        except StopIteration:
            return
        kind = type(delay).__name__
        self.resumes[kind] = self.resumes.get(kind, 0) + 1
        self.loop.schedule(delay, self.resume, delay)


def run_reference(processes: int = 24, steps: int = 60) -> int:
    """Run the kernel once; returns the number of events it executed."""
    loop = _Loop()
    board = []

    def body(index):
        total = 0.0
        for step in range(steps):
            got = yield 0.5 + ((index * 7 + step) % 5)
            board.append((index, step, got))
            total += got
            if len(board) > 64:
                del board[:32]
        return total

    for index in range(processes):
        _Process(loop, body(index))
    loop.run()
    return loop.executed


def time_reference() -> float:
    """Wall seconds of one :func:`run_reference`."""
    t0 = time.perf_counter()
    run_reference()
    return time.perf_counter() - t0
