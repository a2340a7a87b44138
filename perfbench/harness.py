"""Workloads, the closed measurement loop, correctness checks and metrics.

One run of the benchmark is one workload in one fresh process.  A single
closed-loop client submits one sweep of design points through the public
campaign API (an experiment driver's ``run(..., seed=, executor=)`` with the
executor ``repro.campaign.make_executor()`` returns by default), waits for
every result, checks them, and submits the next sweep until the time budget
is spent.  Each sweep is one sample; every timing is the median over the
samples.  Each sweep starts from empty workload and topology memos, as a
fresh campaign does, and every simulated cache starts empty.  Every host
time is scaled by the host's speed over its sample, measured with the
reference computation in :mod:`perfbench.calibrate`.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench import calibrate
from perfbench.build import ensure_extension, import_seconds
from perfbench.calibrate import HostSpeed
from perfbench.tracing import (
    BUILD,
    CHECK_SPAN,
    LAYERS,
    LOAD,
    RECOVER,
    REPORT,
    RUN,
    SweepTrace,
    Tracer,
    check_accounting,
    point_key,
)

ROOT = Path(__file__).resolve().parent.parent
#: Build outputs, traces and full result records (ignored by git).
STATE_DIR = ROOT / ".bench_build" / "perfbench"
BENCHMARK_PATH = ROOT / "BENCHMARK.json"
DIGESTS_PATH = Path(__file__).resolve().with_name("digests.json")

#: The experiment drivers' own default seed; digests are recorded for it.
DEFAULT_SEED = 1

#: Simulated statistics a design point is digested over.  The engine's
#: event count is left out on purpose: it is simulator-internal, a legitimate
#: engine change may fuse events, and it is reported as ``sim.events``.
DIGEST_FIELDS: Tuple[str, ...] = (
    "runtime_cycles", "references_completed", "instructions_retired",
    "finished", "detections_by_kind", "recoveries_by_kind", "l2_hits",
    "l2_misses", "messages_delivered", "checkpoints_taken",
    "peak_log_entries")

DRIVERS = {
    "fig4": "repro.experiments.fig4_misspeculation_rate",
    "workload_matrix": "repro.experiments.workload_matrix",
}


@dataclass(frozen=True)
class Workload:
    """One named set of inputs: a driver, its stream length and its tier.

    ``families`` narrows the driver's workload axis (``None`` keeps the
    driver's default).  Sweep ``i`` of a run with seed ``s`` uses seed
    ``s + i % seeds``.  ``cross_tier`` re-runs each seed's sweep on the
    compiled tier after measuring and requires identical digests.
    """

    name: str
    driver: str
    tier: str
    references: int
    families: Optional[Tuple[str, ...]] = None
    seeds: int = 1
    cross_tier: bool = False


#: Why each workload exists is documented in README.md.
WORKLOADS: Dict[str, Workload] = {
    "fig4": Workload("fig4", "fig4", "compiled", references=100),
    "grid": Workload("grid", "workload_matrix", "compiled", references=15,
                     seeds=8),
    "fig4-pure": Workload("fig4-pure", "fig4", "pure", references=100,
                          families=("jbb",), cross_tier=True),
}


def digest(result: Any) -> str:
    payload = {name: getattr(result, name) for name in DIGEST_FIELDS}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_digests() -> Dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())["digests"]


def metric_units() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end"|"per_layer": {name: unit}}`` from BENCHMARK.json."""
    spec = json.loads(BENCHMARK_PATH.read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


# ---------------------------------------------------------------- executing
class RecordingExecutor:
    """Delegates to a campaign executor and keeps every (spec, result).

    It also times the sweep from the first executor call to the last
    result, inside a ``campaign.map`` span per call.
    """

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.pairs: List[Tuple[Any, Any]] = []
        self.first_start: Optional[float] = None
        self.last_end = 0.0

    def map(self, specs: Any) -> List[Any]:
        start = self.tracer.clock()
        if self.first_start is None:
            self.first_start = start
        results = self.tracer.span("campaign.map", True, self.inner.map,
                                   specs)
        self.last_end = self.tracer.clock()
        self.pairs.extend(zip(specs, results))
        return results

    def close(self) -> None:
        self.inner.close()


@dataclass
class Sweep:
    index: int
    seed: int
    warmup: bool
    traced: bool
    wall_s: float
    cpu_s: float
    pairs: List[Tuple[Any, Any]]
    trace: SweepTrace
    memo: Dict[str, int]
    #: The host's speed, sampled while the sweep ran.
    host: HostSpeed
    #: Point keys and :func:`sweep_values`, kept once ``pairs`` is let go.
    keys: List[str] = field(default_factory=list)
    values: Dict[str, float] = field(default_factory=dict)

    def settle(self) -> None:
        """Keep the sweep's figures and point keys, and let its design
        points go.  Kept results would grow the heap with every sweep, and
        every later garbage collection walks the heap."""
        self.values = sweep_values(self)
        self.keys = [point_key(spec.config, result.config_label)
                     for spec, result in self.pairs]
        self.pairs = []


def _cpu_seconds() -> float:
    """Process plus reaped children CPU seconds (microsecond resolution)."""
    return sum(usage.ru_utime + usage.ru_stime
               for usage in (resource.getrusage(resource.RUSAGE_SELF),
                             resource.getrusage(resource.RUSAGE_CHILDREN)))


def run_sweep(workload: Workload, seed: int, executor: Any) -> Any:
    """Submit one sweep through the driver's public ``run`` entry point."""
    driver = importlib.import_module(DRIVERS[workload.driver])
    return driver.run(workload.families, references=workload.references,
                      seed=seed, executor=executor)


def execute(workload: Workload, seed: int, tracer: Tracer, *, index: int,
            warmup: bool, traced: bool) -> Sweep:
    from repro.campaign import clear_memos, make_executor, memo_stats

    # Start like a fresh campaign: cold memos, and no dead machines of the
    # previous sweep left for a later full collection (runs only collect
    # the young generations, so without this the heap grows by one sweep's
    # machines per sweep and peak memory would track the sweep count).
    clear_memos()
    gc.collect()
    executor = RecordingExecutor(make_executor(), tracer)
    # Every time of the sweep, spans included, leaves out the host-speed
    # sampling that interrupts it.
    sampler = calibrate.Sampler()
    tracer.clock = sampler.clock
    tracer.install(traced)
    cpu_start = _cpu_seconds()
    sampler.start()
    try:
        run_sweep(workload, seed, executor)
    finally:
        sampler.stop()
        cpu = _cpu_seconds() - cpu_start - sampler.spent_cpu_s
        trace = tracer.uninstall()
        tracer.clock = perf_counter
        executor.close()
    check_accounting(trace, len(executor.pairs),
                     [result for _, result in executor.pairs])
    return Sweep(index=index, seed=seed, warmup=warmup, traced=traced,
                 wall_s=executor.last_end - (executor.first_start or 0.0),
                 cpu_s=cpu, pairs=executor.pairs, trace=trace,
                 memo=memo_stats(), host=sampler.speed())


# -------------------------------------------------------------- correctness
class Checker:
    """Per-point correctness: finished, right tier, invariants, digests.

    ``recorded`` maps point keys to recorded digests; when ``require`` is
    set every point must have one.  Whatever the seed, a point's digest
    must not change between sweeps of one run.
    """

    def __init__(self, tier: str, recorded: Dict[str, str],
                 require: bool) -> None:
        self.tier = tier
        self.recorded = recorded
        self.require = require
        self.attempted = 0
        self.digests: Dict[str, str] = {}
        #: ``(sweep index, point key) -> reasons``.
        self.failures: Dict[Tuple[int, str], List[str]] = {}

    def _fail(self, index: int, key: str, reason: str) -> None:
        self.failures.setdefault((index, key), []).append(reason)

    def check(self, sweep: Sweep) -> None:
        seen = {info.key: info for info in sweep.trace.points}
        for spec, result in sweep.pairs:
            self.attempted += 1
            key = point_key(spec.config, result.config_label)
            info = seen.get(key)
            if not result.finished:
                self._fail(sweep.index, key, "did not finish")
            if info is None or info.tier != self.tier:
                self._fail(sweep.index, key,
                           f"ran on the {info and info.tier} tier, "
                           f"expected {self.tier}")
            if info is not None and info.invariant_errors:
                self._fail(sweep.index, key, "invariant errors: "
                           + "; ".join(info.invariant_errors[:3]))
            value = digest(result)
            expected = self.recorded.get(key)
            if expected is not None and expected != value:
                self._fail(sweep.index, key, "digest differs from the "
                           "recorded one")
            elif expected is None and self.require:
                self._fail(sweep.index, key, "no recorded digest")
            if self.digests.setdefault(key, value) != value:
                self._fail(sweep.index, key, "digest changed between sweeps")

    def cross_check(self, sweep: Sweep, sweeps: Sequence[Sweep]) -> None:
        """Every point measured in ``sweeps`` must match ``sweep`` (run on
        the other tier) digest for digest."""
        other = {point_key(spec.config, result.config_label): digest(result)
                 for spec, result in sweep.pairs}
        tiers = {info.tier for info in sweep.trace.points}
        for measured in sweeps:
            for key in measured.keys:
                if tiers != {"compiled"}:
                    self._fail(measured.index, key, "cross-tier check did "
                               f"not run on the compiled tier ({tiers})")
                elif other.get(key) != self.digests.get(key):
                    self._fail(measured.index, key,
                               "pure and compiled digests differ")

    @property
    def failed(self) -> int:
        return len(self.failures)


# ------------------------------------------------------------------ metrics
def _sum_counters(results: Sequence[Any], suffixes: Sequence[str]) -> int:
    """Sum of every per-component counter named ``<component>.<suffix>``."""
    return sum(value for result in results
               for name, value in result.counters.items()
               if name.rsplit(".", 1)[-1] in suffixes)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def sweep_values(sweep: Sweep) -> Dict[str, float]:
    """Every per-sweep figure, end-to-end parts and per-layer metrics.

    The end-to-end times are scaled to the nominal host; ``raw.*`` keep
    them as measured.  Per-layer times stay as measured.
    """
    results = [result for _, result in sweep.pairs]
    directory = [result for spec, result in sweep.pairs
                 if spec.config.protocol.value == "directory"]
    trace = sweep.trace
    build_s, load_s, run_s = (trace.total(t.name) for t in (BUILD, LOAD, RUN))
    simulate_s = run_s - load_s
    refs = sum(r.references_completed for r in results)
    events = sum(r.events_executed for r in results)
    runtime = sum(r.runtime_cycles for r in results)
    records = [record for r in results for record in r.recovery_records]
    lost = sum(record.total_cost_cycles for record in records)
    l2 = sum(r.l2_hits + r.l2_misses for r in results)
    messages = sum(r.messages_delivered for r in directory)
    scale = sweep.host.time_scale()
    values = {
        "wall_s": sweep.wall_s * scale,
        "setup_part_s": (build_s + load_s) * scale,
        "refs_per_s": _ratio(refs, simulate_s * scale),
        "cpu_s": sweep.cpu_s * sweep.host.cpu_scale(),
        "raw.wall_s": sweep.wall_s,
        "raw.cpu_s": sweep.cpu_s,
        "host.unit_s": sweep.host.wall_s,
        "campaign.points": len(results),
        "campaign.overhead_s": (sweep.wall_s - build_s - run_s
                                - trace.total(CHECK_SPAN)),
        "campaign.stream_hits": sweep.memo["stream_hits"],
        "campaign.stream_misses": sweep.memo["stream_misses"],
        "campaign.topology_hits": sweep.memo["topology_hits"],
        "campaign.topology_misses": sweep.memo["topology_misses"],
        "system.build_s": build_s,
        "workloads.load_s": load_s,
        "sim.events": events,
        "sim.run_s": trace.self_time(RUN.name),
        "sim.ns_per_event": _ratio(simulate_s * 1e9, events),
        "sim.runtime_cycles": runtime,
        "processor.refs": refs,
        "processor.l1_hit_ratio": _ratio(
            _sum_counters(results, ("l1_hits",)),
            _sum_counters(results, ("l1_hits", "l1_misses"))),
        "coherence.l2_miss_ratio": _ratio(
            sum(r.l2_misses for r in results), l2),
        "coherence.dir_requests": _sum_counters(results, ("gets", "getx")),
        "coherence.dir_stalled": _sum_counters(results,
                                               ("stalled_requests",)),
        "coherence.txn_complete_ratio": _ratio(
            _sum_counters(results, ("transactions_completed",)),
            _sum_counters(results, ("transactions_issued",))),
        "coherence.bus_requests": _sum_counters(results,
                                                ("requests_issued",)),
        "interconnect.messages": messages,
        "interconnect.latency_cycles": _ratio(
            sum(r.mean_message_latency * r.messages_delivered
                for r in directory), messages),
        "interconnect.link_util": _ratio(
            sum(r.mean_link_utilization for r in directory), len(directory)),
        "interconnect.reorder_rate": _ratio(
            sum(r.reorder_rate_overall for r in directory), len(directory)),
        "safetynet.checkpoints": sum(r.checkpoints_taken for r in results),
        "safetynet.peak_log_entries": max(
            (r.peak_log_entries for r in results), default=0),
        "safetynet.undone_entries": sum(
            record.log_entries_undone for record in records),
        "safetynet.recover_s": trace.total(RECOVER.name),
        "speculation.detections": sum(r.detections for r in results),
        "speculation.recoveries": sum(r.recoveries for r in results),
        "speculation.lost_cycles": lost,
        "speculation.useful_share": 1.0 - _ratio(lost, runtime),
        "speculation.report_s": trace.self_time(REPORT.name),
    }
    for layer in LAYERS:
        values[f"{layer}.self_share"] = _ratio(trace.layer_self_s(layer),
                                               sweep.wall_s)
    return values


def describe(samples: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles and sample count of one metric."""
    samples = list(samples)
    median = statistics.median(samples)
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples),
            "samples": samples}


# -------------------------------------------------------------------- a run
@dataclass
class Outcome:
    """Everything one run of one workload measured."""

    workload: str
    seed: int
    trace: bool
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Dict[str, Any]]
    failures: List[str] = field(default_factory=list)
    provenance: Dict[str, Any] = field(default_factory=dict)

    def result_line(self) -> Dict[str, Any]:
        """The benchmark's final JSON object."""
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": m["median"], "unit": m["unit"]}
                            for name, m in self.metrics.items()}}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 *, recorded: Optional[Dict[str, str]] = None,
                 import_samples: int = 9, build: bool = True,
                 tracer: Optional[Tracer] = None) -> Outcome:
    """Measure ``workload`` for ``seconds`` and check every design point.

    ``recorded`` defaults to the shipped digests, all required on the
    default seed.  ``build=False`` skips building the compiled tier (the
    self-test uses whatever tier the interpreter already has).
    """
    from repro import kernel

    build_meta = ensure_extension(ROOT, STATE_DIR) if build else None
    require = recorded is None and seed == DEFAULT_SEED
    checker = Checker(workload.tier,
                      load_digests() if recorded is None else recorded,
                      require)
    tracer = tracer if tracer is not None else Tracer()
    # Import samples are spread over the run, between sweeps: taken back to
    # back they all see the same momentary host speed.  Their time does not
    # count against the sweeps' budget.  Each is scaled by the host speed
    # measured right before and right after it.
    imports: List[float] = []
    raw_imports: List[float] = []
    wanted_imports = 0 if trace else import_samples
    start = perf_counter()
    sampling_s = 0.0

    def measured_s() -> float:
        return perf_counter() - start - sampling_s

    def sample_import() -> None:
        nonlocal sampling_s
        begun = perf_counter()
        before = calibrate.measure()
        seconds_taken = import_seconds(ROOT, [DRIVERS[workload.driver]], 1)[0]
        host = HostSpeed.between(before, calibrate.measure())
        raw_imports.append(seconds_taken)
        imports.append(seconds_taken * host.time_scale())
        sampling_s += perf_counter() - begun

    kernel.set_kernel_tier("auto" if workload.tier == "compiled" else "pure")
    sweeps: List[Sweep] = []
    try:
        index = 0
        while True:
            if (len(imports) < wanted_imports and measured_s()
                    >= len(imports) * seconds / (wanted_imports + 1)):
                sample_import()
            warmup = index == 0
            traced = trace and not warmup and index % 2 == 1
            sweep = execute(workload, seed + index % workload.seeds, tracer,
                            index=index, warmup=warmup, traced=traced)
            checker.check(sweep)
            sweep.settle()
            sweeps.append(sweep)
            index += 1
            timed = [s for s in sweeps if not s.warmup]
            kinds = {s.traced for s in timed}
            if measured_s() >= seconds and kinds >= {False, trace}:
                break
        while len(imports) < wanted_imports:
            sample_import()
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        kernel_info = kernel.kernel_info()
        if workload.cross_tier:
            kernel.set_kernel_tier("auto")
            for other_seed in sorted({s.seed for s in sweeps}):
                other = execute(workload, other_seed, tracer, index=index,
                                warmup=True, traced=False)
                checker.cross_check(
                    other, [s for s in sweeps if s.seed == other_seed])
        provenance = {
            "workload": workload.name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "tier": workload.tier,
            "references": workload.references,
            "kernel": kernel_info,
            "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "compiler": kernel.compiler_tag(),
            "build": build_meta,
            "samples": len(timed),
            "import_s": imports,
            "raw_import_s": raw_imports,
            "nominal_unit_s": calibrate.NOMINAL_UNIT_S,
        }
    finally:
        kernel.set_kernel_tier(None)

    units = metric_units()
    per_sweep = [(s, s.values) for s in timed]
    metrics: Dict[str, Dict[str, Any]] = {}
    for name in ("raw.wall_s", "raw.cpu_s", "host.unit_s"):
        provenance[name] = describe([v[name] for _, v in per_sweep])
    if trace:
        traced_values = [v for s, v in per_sweep if s.traced]
        for name, unit in units["per_layer"].items():
            if name == "trace.overhead_share":
                traced_wall = statistics.median(
                    v["wall_s"] for s, v in per_sweep if s.traced)
                plain_wall = statistics.median(
                    v["wall_s"] for s, v in per_sweep if not s.traced)
                samples = [traced_wall / plain_wall - 1.0]
            else:
                samples = [v[name] for v in traced_values]
            metrics[name] = dict(describe(samples), unit=unit)
    else:
        for name, unit in units["end_to_end"].items():
            if name == "setup_s":
                setup = describe([v["setup_part_s"] for _, v in per_sweep])
                imported = describe(imports)
                summary = {key: setup[key] + imported[key]
                           for key in ("median", "q1", "q3")}
                summary["n"] = min(setup["n"], imported["n"])
                summary["parts"] = {"import": imported, "sweep": setup}
            elif name == "peak_rss_mb":
                summary = describe([peak_rss_mb])
            elif name == "pass_ratio":
                summary = describe(
                    [1.0 - checker.failed / max(checker.attempted, 1)])
            else:
                summary = describe([v[name] for _, v in per_sweep])
            metrics[name] = dict(summary, unit=unit)

    failures = [f"sweep {index} {key}: {', '.join(reasons)}"
                for (index, key), reasons in sorted(checker.failures.items())]
    outcome = Outcome(workload=workload.name, seed=seed, trace=trace,
                      correct=checker.failed == 0,
                      attempted=checker.attempted, failed=checker.failed,
                      metrics=metrics, failures=failures,
                      provenance=provenance)
    return outcome


def record_digests() -> int:
    """Re-record ``digests.json``: every workload's points on the default
    seed (every seed of a multi-seed cycle), each on its own tier.  A point
    two workloads share must digest identically on both."""
    from repro import kernel

    ensure_extension(ROOT, STATE_DIR)
    tracer = Tracer()
    digests: Dict[str, str] = {}
    try:
        for workload in WORKLOADS.values():
            kernel.set_kernel_tier(
                "auto" if workload.tier == "compiled" else "pure")
            for offset in range(workload.seeds):
                sweep = execute(workload, DEFAULT_SEED + offset, tracer,
                                index=offset, warmup=True, traced=False)
                for spec, result in sweep.pairs:
                    key = point_key(spec.config, result.config_label)
                    value = digest(result)
                    if not result.finished:
                        raise RuntimeError(f"{key} did not finish")
                    if digests.setdefault(key, value) != value:
                        raise RuntimeError(f"{key} digests differently on "
                                           f"{workload.name}")
    finally:
        kernel.set_kernel_tier(None)
    DIGESTS_PATH.write_text(json.dumps({
        "seed": DEFAULT_SEED, "fields": list(DIGEST_FIELDS),
        "digests": dict(sorted(digests.items()))}, indent=1) + "\n")
    print(f"recorded {len(digests)} digests in "
          f"{DIGESTS_PATH.relative_to(ROOT)}")
    return 0


def write_records(outcome: Outcome, tracer: Tracer) -> Path:
    """Write the full result record (and, when traced, the spans)."""
    stem = f"{outcome.workload}-seed{outcome.seed}-trace{int(outcome.trace)}"
    results_dir = STATE_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{stem}.json"
    path.write_text(json.dumps({
        "provenance": outcome.provenance,
        "correct": outcome.correct, "attempted": outcome.attempted,
        "failed": outcome.failed, "failures": outcome.failures,
        "metrics": outcome.metrics}, indent=1))
    if outcome.trace:
        trace_dir = STATE_DIR / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{stem}.json").write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "point", "sweep"],
            "spans": tracer.spans}))
    return path
