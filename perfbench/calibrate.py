"""A fixed reference computation that measures how fast the host runs now.

The shared machines the benchmark runs on lose throughput to their
neighbours: the same sweep, with identical simulated events, can take twice
as long a minute later, and CPU time moves with wall time, so this is host
throughput, not scheduling.  The slowdown also flickers within a second.
While a sweep runs, a timer signal therefore interrupts it every
``SAMPLE_INTERVAL_S`` to time one short unit of this reference
(:class:`Sampler`), so the units see the same moments of the host as the
sweep does, and the sweep's host times are scaled to a nominal host (see
``HostSpeed.time_scale``).  Import samples, which run in a child
interpreter, are bracketed by :func:`measure` instead.

The reference is the benchmark's own code, never the program's, so no
change to the program can move it.  It is a small discrete-event loop in
pure Python (a binary heap of events, objects with slots, dict lookups and
method calls), close to the interpreter work the simulator does.  It is
deterministic: every unit executes the same operations.  It runs with the
cyclic garbage collector off: it makes no cycles, and a collection would
walk the caller's heap, whose size has nothing to do with the host's speed.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Dict, List, Tuple

#: A fixed constant, about one unit's time when run on its own on the
#: unloaded 2.0 GHz Intel Xeon machine these figures come from (Python
#: 3.11.7).  Scaled host times are measured in it; what matters is that it
#: never changes.
NOMINAL_UNIT_S = 0.0049

#: Units per :func:`measure`: about 0.06 s on the nominal host.
UNITS = 12

#: Host seconds between two :class:`Sampler` units; with the unit's length
#: this keeps sampling to about a tenth of a sweep's time.
SAMPLE_INTERVAL_S = 0.045

_EVENTS = 5000
_NODES = 16
_LINES = 512


class _Node:
    __slots__ = ("lines", "count", "peer")

    def __init__(self, peer: int) -> None:
        self.lines: Dict[int, List[int]] = {}
        self.count = 0
        self.peer = peer

    def handle(self, now: int, addr: int, queue: list, seq) -> None:
        line = self.lines.get(addr)
        if line is None:
            self.lines[addr] = [addr, now]
            if len(self.lines) > _LINES:
                self.lines.pop(next(iter(self.lines)))
        else:
            line[1] = now
        self.count += 1
        if addr & 3:
            heapq.heappush(queue, (now + (addr & 15) + 1, next(seq),
                                   self.peer, (addr * 2654435761) & 0xFFFF))


def unit() -> int:
    """One unit of reference work; returns its (fixed) event count."""
    seq = itertools.count()
    nodes = [_Node((index * 5 + 3) % _NODES) for index in range(_NODES)]
    queue: list = []
    for index in range(_NODES):
        heapq.heappush(queue, (index, next(seq), index, index * 97 + 1))
    done = 0
    while done < _EVENTS:
        if not queue:
            heapq.heappush(queue, (done, next(seq), done % _NODES,
                                   done * 31 + 7))
        now, _, index, addr = heapq.heappop(queue)
        node = nodes[index]
        node.handle(now, addr, queue, seq)
        done += 1
    return sum(node.count for node in nodes)


def _timed_units(units: int, walls: List[float], cpus: List[float]) -> None:
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(units):
            wall = perf_counter()
            cpu = process_time()
            unit()
            walls.append(perf_counter() - wall)
            cpus.append(process_time() - cpu)
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True)
class HostSpeed:
    """Wall and CPU seconds of each reference unit timed over an interval.

    Their means are the host's speed over the interval: a sweep's time is
    the sum of its fast and slow moments, so the slow units count in full.
    """

    walls: Tuple[float, ...]
    cpus: Tuple[float, ...]

    @property
    def wall_s(self) -> float:
        return statistics.fmean(self.walls)

    @property
    def cpu_s(self) -> float:
        return statistics.fmean(self.cpus)

    def time_scale(self) -> float:
        """Factor that turns a wall time measured over the interval into
        nominal-host seconds (below 1 while the host runs slow)."""
        return NOMINAL_UNIT_S / self.wall_s

    def cpu_scale(self) -> float:
        """The same for a CPU time."""
        return NOMINAL_UNIT_S / self.cpu_s

    @staticmethod
    def between(before: "HostSpeed", after: "HostSpeed") -> "HostSpeed":
        """The host's speed over an interval bracketed by two measurements."""
        return HostSpeed(before.walls + after.walls, before.cpus + after.cpus)


def measure(units: int = UNITS) -> HostSpeed:
    """Run and time ``units`` reference units back to back."""
    walls: List[float] = []
    cpus: List[float] = []
    _timed_units(units, walls, cpus)
    return HostSpeed(tuple(walls), tuple(cpus))


class Sampler:
    """Times one reference unit every ``SAMPLE_INTERVAL_S`` of wall time,
    from a ``SIGALRM`` handler, between :meth:`start` and :meth:`stop`.

    The handler runs between two bytecodes of whatever the program is
    doing.  :meth:`clock` is ``perf_counter`` minus the time spent in the
    handler, so intervals read on it leave the sampling out.
    """

    def __init__(self) -> None:
        self.walls: List[float] = []
        self.cpus: List[float] = []
        self.spent_wall_s = 0.0
        self._previous = None

    def clock(self) -> float:
        while True:
            spent = self.spent_wall_s
            now = perf_counter()
            if spent == self.spent_wall_s:  # no unit ran in between
                return now - spent

    def _on_alarm(self, signum, frame) -> None:
        begun = perf_counter()
        _timed_units(1, self.walls, self.cpus)
        self.spent_wall_s += perf_counter() - begun

    def start(self) -> None:
        if signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0):
            raise RuntimeError("the real-time interval timer is in use")
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    @property
    def spent_cpu_s(self) -> float:
        return sum(self.cpus)

    def speed(self) -> HostSpeed:
        """The units timed so far; one more now if there were none."""
        if not self.walls:
            _timed_units(1, self.walls, self.cpus)
        return HostSpeed(tuple(self.walls), tuple(self.cpus))
