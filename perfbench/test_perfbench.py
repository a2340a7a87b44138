"""Self-test of the benchmark at tiny size.

Runs inside the repository's test suite, so every case simulates a handful
of short design points on whichever kernel tier this interpreter has.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import shutil
import signal
import subprocess
import sys

import pytest

from perfbench import calibrate, harness
from perfbench.tracing import RUN, TraceAccountingError, Tracer
from repro import kernel

TIER = "compiled" if kernel.compiled_available() else "pure"


def tiny(name: str) -> harness.Workload:
    """The named workload shrunk to a few short design points."""
    workload = harness.WORKLOADS[name]
    families = (("jbb", "hotspot") if workload.driver == "workload_matrix"
                else ("jbb",))
    return dataclasses.replace(
        workload, references=4, families=families, seeds=2,
        tier=TIER if workload.tier == "compiled" else workload.tier,
        cross_tier=workload.cross_tier and TIER == "compiled")


def run_tiny(name: str, trace: bool = False, **kwargs) -> harness.Outcome:
    kwargs.setdefault("recorded", {})
    return harness.run_workload(tiny(name), harness.DEFAULT_SEED, 0.0, trace,
                                import_samples=1, build=False, **kwargs)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_every_metric_prints_with_its_unit(name, trace):
    outcome = run_tiny(name, trace)
    line = json.loads(json.dumps(outcome.result_line()))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = harness.metric_units()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float))
               for m in line["metrics"].values())


def test_end_to_end_times_are_scaled_by_the_host_speed():
    outcome = run_tiny("fig4")
    provenance = outcome.provenance
    expected = [raw * calibrate.NOMINAL_UNIT_S / unit for raw, unit in zip(
        provenance["raw.wall_s"]["samples"],
        provenance["host.unit_s"]["samples"])]
    assert outcome.metrics["wall_s"]["samples"] == pytest.approx(expected)
    # The sampling leaves the process as it found it.
    assert gc.isenabled()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_flipped_recorded_digest_raises_fail_ratio():
    workload = tiny("fig4")
    kernel.set_kernel_tier("auto" if workload.tier == "compiled" else "pure")
    try:
        sweep = harness.execute(workload, harness.DEFAULT_SEED, Tracer(),
                                index=0, warmup=True, traced=False)
    finally:
        kernel.set_kernel_tier(None)
    recorded = {harness.point_key(spec.config, result.config_label):
                harness.digest(result) for spec, result in sweep.pairs}
    assert run_tiny("fig4", recorded=recorded).failed == 0

    key = sorted(recorded)[0]
    recorded[key] = "0" * len(recorded[key])
    outcome = run_tiny("fig4", recorded=recorded)
    assert outcome.failed >= 1 and not outcome.correct
    assert outcome.metrics["pass_ratio"]["median"] < 1.0
    assert any(key in line and "recorded" in line
               for line in outcome.failures)


class _BypassedRun(Tracer):
    """A tracer whose ``System.run`` wrapper a refactor routed around."""

    def install(self, traced: bool) -> None:
        super().install(traced)
        for owner, attr, original in self._patched:
            if attr == RUN.attr:
                setattr(owner, attr, original)


def test_missing_span_fails_the_traced_run():
    with pytest.raises(TraceAccountingError, match="run span"):
        run_tiny("grid", trace=True, tracer=_BypassedRun())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.BENCHMARK_PATH, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig4", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
