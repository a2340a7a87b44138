"""Cross-run multiplexed execution: K design points in one warm process.

A campaign grid is hundreds of *independent* deterministic simulations, and
the per-run prologue — config resolution, system construction, workload
cursor setup — is pure overhead that a one-process-per-point campaign pays
cold every time.  :class:`MultiplexExecutor` runs a whole batch inside one
process as a single scheduled pass:

* **Artifact grouping.**  Specs are grouped by
  :func:`~repro.campaign.precompute.artifact_keys` (generated workload
  streams, topology routing tables) in first-appearance order, exactly like
  :class:`~repro.campaign.executor.BatchExecutor`, so every group executes
  with its precomputed artifacts warm and the memos never thrash.

* **Construction/execution interleave.**  Within a group the pass keeps a
  small window of fully built systems in flight (``width``): it round-robins
  *building* the next design point against *executing* the oldest built one.
  Freshly built systems execute while their successors are constructed, so
  the compiled kernel cores, the memoized artifacts and the allocator's hot
  free lists stay warm instead of cooling between a cold prologue and a hot
  run loop.

* **Amortized prologue.**  The cyclic garbage collector is paused for the
  duration of the pass (and restored afterwards): the simulation kernel
  manages its own pools, so mid-pass collection work is pure overhead.
  Each finished machine goes through the executor's release step
  (:func:`~repro.campaign.executor.run_to_release`: its cache set-lists go
  back to the pool) and is then dropped with a youngest-generation-only
  collect; dead machines the window promoted are left for the automatic
  collector after the pass, which is measurably cheaper than sweeping the
  old generation mid-pass.

Determinism.  Serial execution resets the process-global id counters
(transactions, bus requests, network messages) immediately before *each*
run's system build, and the run then draws ids from those fresh counters.
Interleaving a build of run B between the build and the execution of run A
would let B's prologue consume ids from A's sequence.  The multiplexer
therefore gives every in-flight run its own counter objects: fresh counters
are installed right before a build, captured with the built system, and
re-installed right before the run executes.  Each design point thus observes
exactly the serial sequence ``fresh counters -> build -> run`` no matter how
the pass interleaves, which is what keeps multiplexed results byte-identical
to serial / parallel / cached / batched / sharded execution (the
determinism contract of DESIGN.md §4, extended in §13).
"""

from __future__ import annotations

import gc
import time
from typing import Any, Dict, List, Optional, Tuple

import repro.coherence.common as _coherence_common
import repro.coherence.snooping.bus as _snooping_bus
import repro.interconnect.message as _message
from repro.coherence.cache import disable_set_pool, enable_set_pool
from repro.campaign.executor import (
    Executor,
    ResultCache,
    SpecBatch,
    build_spec_system,
    reset_global_ids,
    run_to_release,
)
from repro.campaign.precompute import artifact_keys
from repro.campaign.spec import RunSpec
from repro.system.results import RunResult

__all__ = ["MultiplexExecutor", "DEFAULT_WIDTH"]

#: Systems kept fully built and awaiting execution at any moment.  Small on
#: purpose: each in-flight system holds a complete simulated machine, so the
#: window bounds peak memory while still overlapping every build with the
#: previous run's execution.
DEFAULT_WIDTH = 4

#: The three module-global id streams a run draws from (see
#: :func:`repro.campaign.executor.reset_global_ids`).
_Counters = Tuple[Any, Any, Any]


def _capture_counters() -> _Counters:
    """The counter objects currently installed in the module globals."""
    return (_coherence_common._TRANSACTION_IDS,
            _snooping_bus._REQUEST_IDS,
            _message._MESSAGE_IDS)


def _install_counters(counters: _Counters) -> None:
    """Re-install a run's captured counter objects (stateful iterators, so
    installation resumes the run's id sequence exactly where its build left
    off)."""
    (_coherence_common._TRANSACTION_IDS,
     _snooping_bus._REQUEST_IDS,
     _message._MESSAGE_IDS) = counters


class _InFlight:
    """One built-but-not-yet-executed design point of the pass."""

    __slots__ = ("index", "spec", "system", "counters", "build_seconds")

    def __init__(self, index: int, spec: RunSpec, system: Any,
                 counters: _Counters, build_seconds: float) -> None:
        self.index = index
        self.spec = spec
        self.system = system
        self.counters = counters
        self.build_seconds = build_seconds


class MultiplexExecutor(Executor):
    """Runs K independent design points in one process as a scheduled pass.

    Results come back in *spec order* and are byte-identical to every other
    executor (see the module docstring for why).  ``width`` is the number of
    built systems kept in flight; ``width=1`` degenerates to the batched
    executor's strictly sequential build-then-run order, still grouped by
    artifacts.
    """

    def __init__(self, cache: Optional[ResultCache] = None, *,
                 width: int = DEFAULT_WIDTH) -> None:
        super().__init__(cache=cache)
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        self.width = width

    # ----------------------------------------------------------------- phases
    def _build(self, index: int, spec: RunSpec) -> _InFlight:
        """The per-run prologue: fresh counters, system build, injector."""
        start = time.perf_counter()
        reset_global_ids()
        system = build_spec_system(spec)
        return _InFlight(index, spec, system, _capture_counters(),
                         time.perf_counter() - start)

    def _execute(self, flight: _InFlight,
                 results: List[Optional[RunResult]]) -> None:
        """Run one built system to completion and store its result."""
        start = time.perf_counter()
        _install_counters(flight.counters)
        result = run_to_release(flight.system, flight.spec.max_cycles)
        seconds = flight.build_seconds + (time.perf_counter() - start)
        self._store(flight.spec, result, wall_seconds=seconds)
        results[flight.index] = result
        # Drop the machine's last reference.  It is a cyclic object graph
        # (components <-> sim), so that frees nothing by itself while the
        # collector is paused; a youngest-generation collect frees it when
        # it is still in generation 0, which with ``width=1`` it always is
        # (nothing collects between its build and this point).  A wider
        # window's later machines are promoted by this collect while still
        # in flight, so they die in an older generation and are left for
        # the automatic collector once the pass re-enables it (their bulky
        # per-set dicts are already back in the pool).  Deeper per-run
        # collects measure strictly slower: they promote every live
        # in-flight machine to the old generation, where freeing the pile
        # costs one large sweep.
        flight.system = None
        gc.collect(0)

    # -------------------------------------------------------------- interface
    def map(self, specs: SpecBatch) -> List[RunResult]:
        cached = self._lookup(specs)
        results: List[Optional[RunResult]] = [None] * len(specs)
        for index, result in cached.items():
            results[index] = result
        groups: Dict[Tuple, List[Tuple[int, RunSpec]]] = {}
        for index, spec in enumerate(specs):
            if index in cached:
                continue
            groups.setdefault(artifact_keys(spec.config), []).append(
                (index, spec))
        if not groups:
            return results  # type: ignore[return-value]

        gc_was_enabled = gc.isenabled()
        gc.disable()
        enable_set_pool()
        try:
            in_flight: List[_InFlight] = []
            for members in groups.values():
                for index, spec in members:
                    if len(in_flight) >= self.width:
                        self._execute(in_flight.pop(0), results)
                    in_flight.append(self._build(index, spec))
            while in_flight:
                self._execute(in_flight.pop(0), results)
        finally:
            disable_set_pool()
            if gc_was_enabled:
                gc.enable()
        return results  # type: ignore[return-value]
