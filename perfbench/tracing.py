"""Spans around the public entry points of each simulator layer.

The benchmark measures the program from outside.  For the duration of one
sweep it replaces a few class attributes with timing wrappers and restores
them afterwards, so the program under test carries no tracing code.

Two sets of entry points are wrapped:

* the *timing* set — ``System.__init__``, ``System.load_workload`` and
  ``System.run`` — is installed on every sweep, traced or not.  Set-up time
  and the simulation-rate denominator come from it, and it assigns every
  design point an id.  Three wrapper calls per design point cost nothing
  measurable against a simulation.
* the *trace* set adds ``SpeculationManager.report``, ``SafetyNet.recover``
  and the per-message handlers of the processor, coherence, interconnect and
  SafetyNet layers.  The per-message handlers only run in Python on the pure
  kernel tier; the compiled tier rebinds them onto C cores after wiring, so
  there they are (correctly) never called.

A span's *self* time is its duration minus the time of the wrapped spans it
called.  Coarse spans (construction, loading, runs, reports, recoveries and
executor batches) are kept as ``(name, start, end, parent, point, sweep)``
records; per-message spans are kept only as per-name sums, because a pure
fig4 point makes tens of thousands of them.

Accounting is strict: every design point must produce exactly one
construction span and one run span, and on traced sweeps every detection and
recovery a result reports must have passed through a wrapped call.  A
refactor that routes around a wrapped entry point therefore fails the
benchmark loudly instead of silently zeroing a layer.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: The layers the benchmark attributes time to: the ``repro`` packages.
LAYERS: Tuple[str, ...] = ("campaign", "system", "workloads", "sim",
                           "processor", "coherence", "interconnect",
                           "safetynet", "speculation")

#: Span of the invariant check the traced run makes after each point; it is
#: benchmark work, so it belongs to no layer.
CHECK_SPAN = "harness.check"


class TraceAccountingError(RuntimeError):
    """A wrapped entry point was bypassed or called the wrong number of
    times; the benchmark cannot attribute time and must not report."""


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``name`` is the span name; the part before the first dot is its layer.
    ``protocol`` says on which design points the pure tier must reach it
    (``any`` or ``directory``).
    """

    name: str
    module: str
    owner: str
    attr: str
    keep: bool
    protocol: str = "any"


#: Wrapped on every sweep (set-up time, run time, point ids).
BUILD = Target("system.build", "repro.system.base", "System", "__init__",
               keep=True)
LOAD = Target("workloads.load", "repro.system.base", "System",
              "load_workload", keep=True)
RUN = Target("sim.run", "repro.system.base", "System", "run", keep=True)

#: Added on traced sweeps.  Detections and recoveries are counted exactly.
REPORT = Target("speculation.report", "repro.speculation.manager",
                "SpeculationManager", "report", keep=True)
RECOVER = Target("safetynet.recover", "repro.safetynet.manager", "SafetyNet",
                 "recover", keep=True)

#: Per-message handlers, the engine's way into each layer on the pure tier.
HANDLERS: Tuple[Target, ...] = (
    Target("processor.issue", "repro.processor.core", "BlockingProcessor",
           "_issue_next", keep=False),
    Target("processor.complete", "repro.processor.core", "BlockingProcessor",
           "_memory_complete", keep=False),
    Target("coherence.l2_access",
           "repro.coherence.directory.cache_controller",
           "DirectoryCacheController", "access", keep=False,
           protocol="directory"),
    Target("coherence.l2_message",
           "repro.coherence.directory.cache_controller",
           "DirectoryCacheController", "handle_message", keep=False,
           protocol="directory"),
    Target("coherence.directory",
           "repro.coherence.directory.directory_controller",
           "DirectoryController", "handle_message", keep=False,
           protocol="directory"),
    # Called from the compiled directory cores too: the Python residue of
    # the directory protocol on the compiled tier.
    Target("coherence.dir_request",
           "repro.coherence.directory.directory_controller",
           "DirectoryController", "_handle_request", keep=False,
           protocol="directory"),
    Target("interconnect.send", "repro.interconnect.network",
           "InterconnectNetwork", "send", keep=False, protocol="directory"),
    Target("interconnect.scan", "repro.interconnect.switch", "Switch",
           "_scan", keep=False, protocol="directory"),
    Target("safetynet.checkpoint", "repro.safetynet.manager", "SafetyNet",
           "_create_checkpoint", keep=False),
)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


@dataclass
class PointInfo:
    """What the wrappers saw of one design point."""

    point: int
    key: Optional[str] = None
    tier: Optional[str] = None
    protocol: Optional[str] = None
    builds: int = 0
    runs: int = 0
    invariant_errors: Optional[List[str]] = None


@dataclass
class SweepTrace:
    """Per-sweep sums of the spans, by span name."""

    traced: bool
    total_s: Dict[str, float] = field(default_factory=dict)
    self_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    points: List[PointInfo] = field(default_factory=list)
    #: ``System.run`` calls on systems no wrapped constructor built.
    unknown_runs: int = 0

    def total(self, name: str) -> float:
        return self.total_s.get(name, 0.0)

    def self_time(self, name: str) -> float:
        return self.self_s.get(name, 0.0)

    def layer_self_s(self, layer: str) -> float:
        return sum(seconds for name, seconds in self.self_s.items()
                   if layer_of(name) == layer)


class Tracer:
    """Installs the wrappers for one sweep at a time and sums their spans."""

    def __init__(self) -> None:
        #: Kept spans: ``(name, start, end, parent, point, sweep)``; parent
        #: is an index into this list or -1.
        self.spans: List[Tuple] = []
        self._stack: List[List] = []
        self._point: Optional[int] = None
        self._next_point = 0
        self._sweep = -1
        self._patched: List[Tuple[Any, str, Any]] = []
        #: Time source of the spans; the harness swaps in a clock that
        #: leaves out its host-speed sampling.
        self.clock: Callable[[], float] = perf_counter
        self._reset()

    # ------------------------------------------------------------ recording
    def _reset(self) -> None:
        self._total: Dict[str, float] = defaultdict(float)
        self._self: Dict[str, float] = defaultdict(float)
        self._calls: Counter = Counter()
        self._points: Dict[int, PointInfo] = {}
        self._by_system: Dict[int, int] = {}
        self._unknown_runs = 0

    def span(self, name: str, keep: bool, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        stack = self._stack
        index = -1
        if keep:
            parent = next((frame[1] for frame in reversed(stack)
                           if frame[1] >= 0), -1)
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self._point,
                               self._sweep))
        frame = [0.0, index]
        stack.append(frame)
        clock = self.clock
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            duration = end - start
            self._total[name] += duration
            self._self[name] += duration - frame[0]
            self._calls[name] += 1
            if stack:
                stack[-1][0] += duration
            if keep:
                span = self.spans[index]
                self.spans[index] = (name, start, end) + span[3:]

    def _wrapper(self, target: Target, original: Callable) -> Callable:
        span = self.span
        name, keep = target.name, target.keep

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return span(name, keep, original, *args, **kwargs)
        return wrapper

    def _build_wrapper(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def __init__(system, *args, **kwargs):
            point = tracer._next_point
            tracer._next_point += 1
            info = tracer._points[point] = PointInfo(point)
            outer, tracer._point = tracer._point, point
            try:
                tracer.span(BUILD.name, True, original, system, *args,
                            **kwargs)
            finally:
                tracer._point = outer
            info.builds += 1
            info.tier = ("compiled"
                         if type(system.sim).__module__.startswith(
                             "repro._ckernel") else "pure")
            info.protocol = system.kind.value
            tracer._by_system[id(system)] = point
        return __init__

    def _run_wrapper(self, original: Callable, check: bool) -> Callable:
        tracer = self

        @functools.wraps(original)
        def run(system, *args, **kwargs):
            point = tracer._by_system.get(id(system))
            if point is None:
                tracer._unknown_runs += 1
            outer, tracer._point = tracer._point, point
            try:
                result = tracer.span(RUN.name, True, original, system, *args,
                                     **kwargs)
                if check and point is not None:
                    errors = tracer.span(CHECK_SPAN, False,
                                         system.invariant_errors)
                    tracer._points[point].invariant_errors = list(errors)
            finally:
                tracer._point = outer
            if point is not None:
                info = tracer._points[point]
                info.runs += 1
                info.key = point_key(system.config, system.label)
            return result
        return run

    # ------------------------------------------------------------- patching
    def _patch(self, target: Target, make: Callable[[Callable], Callable]
               ) -> None:
        owner = getattr(importlib.import_module(target.module), target.owner)
        original = owner.__dict__.get(target.attr)
        if original is None:
            raise TraceAccountingError(
                f"entry point {target.owner}.{target.attr} "
                f"({target.module}) no longer exists; update "
                "perfbench/tracing.py")
        setattr(owner, target.attr, make(original))
        self._patched.append((owner, target.attr, original))

    def install(self, traced: bool) -> None:
        """Wrap the timing set, plus the trace set when ``traced``."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._sweep += 1
        self._reset()
        self._traced = traced
        self._patch(BUILD, self._build_wrapper)
        self._patch(RUN, lambda fn: self._run_wrapper(fn, check=traced))
        self._patch(LOAD, lambda fn: self._wrapper(LOAD, fn))
        if traced:
            for target in (REPORT, RECOVER) + HANDLERS:
                self._patch(target,
                            lambda fn, t=target: self._wrapper(t, fn))

    def uninstall(self) -> SweepTrace:
        """Restore every wrapped attribute and return the sweep's sums."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return SweepTrace(traced=self._traced, total_s=dict(self._total),
                          self_s=dict(self._self), calls=dict(self._calls),
                          points=list(self._points.values()),
                          unknown_runs=self._unknown_runs)


def point_key(config: Any, label: str) -> str:
    """Stable name of a design point: seed, stream length, workload and the
    driver's label.  Independent of spec hashing, so a refactor that changes
    content hashes does not orphan the recorded digests."""
    workload = config.workload
    return (f"{workload.seed}/{workload.references_per_processor}/"
            f"{workload.name}/{label}")


def check_accounting(trace: SweepTrace, expected_points: int,
                     results: Sequence[Any]) -> None:
    """Raise :class:`TraceAccountingError` unless the spans add up.

    ``results`` are the sweep's :class:`~repro.system.results.RunResult`
    objects as the executor returned them.
    """
    problems: List[str] = []
    if trace.unknown_runs:
        problems.append(f"{trace.unknown_runs} System.run call(s) on a system "
                        "built without System.__init__")
    bad = [info for info in trace.points
           if info.builds != 1 or info.runs != 1]
    if bad:
        problems.append(f"{len(bad)} design point(s) without exactly one "
                        "construction and one run span")
    if len(trace.points) != expected_points:
        problems.append(f"{len(trace.points)} constructions for "
                        f"{expected_points} design points")
    if trace.traced:
        for target, field_name in ((REPORT, "detections"),
                                   (RECOVER, "recoveries")):
            expected = sum(getattr(result, field_name) for result in results)
            seen = trace.calls.get(target.name, 0)
            if seen != expected:
                problems.append(f"{seen} {target.name} spans for {expected} "
                                f"{field_name}")
        pure = {info.protocol for info in trace.points
                if info.tier == "pure"}
        for target in HANDLERS:
            wanted = pure if target.protocol == "any" else (
                pure & {target.protocol})
            if wanted and not trace.calls.get(target.name):
                problems.append(f"{target.owner}.{target.attr} never called "
                                f"on the pure tier ({target.name})")
    if problems:
        raise TraceAccountingError("; ".join(problems))
