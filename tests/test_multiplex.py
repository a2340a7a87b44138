"""Tests for cross-run multiplexed execution (``MultiplexExecutor``).

The executor interleaves run *construction* with run *execution* inside one
warm process; the load-bearing property is that the interleave is invisible:
results must stay byte-identical to serial execution for every width, with
and without a result cache, and the runner must refuse to combine
``--multiplex`` with the other execution strategies.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    BatchExecutor,
    MultiplexExecutor,
    ResultCache,
    RunSpec,
    SerialExecutor,
    canonical_json,
    clear_memos,
    make_executor,
    memo_stats,
)
from repro.experiments import runner
from repro.sim.config import ProtocolKind, SystemConfig
from repro.system.results import RunResult


def small_spec(references: int = 120, seed: int = 1, **spec_kwargs) -> RunSpec:
    return RunSpec(config=SystemConfig.small(4, references=references, seed=seed),
                   **spec_kwargs)


def mixed_specs() -> list:
    """A small batch spanning both protocols, recovery, and artifact groups."""
    directory = SystemConfig.small(4, references=100, seed=3)
    snooping = directory.with_updates(protocol=ProtocolKind.SNOOPING)
    return [
        small_spec(references=150),
        small_spec(references=150, seed=2),
        RunSpec(config=snooping),
        RunSpec(config=directory),
        small_spec(references=100, recovery_rate_per_second=0.0),
        small_spec(references=100, seed=5, recovery_rate_per_second=2e9),
    ]


def result_bytes(result: RunResult) -> str:
    return canonical_json(result.to_json())


class TestMultiplexDeterminism:
    def test_multiplexed_matches_serial_byte_for_byte(self):
        specs = mixed_specs()
        serial = [result_bytes(r) for r in SerialExecutor().map(specs)]
        multiplexed = [result_bytes(r) for r in MultiplexExecutor().map(specs)]
        assert multiplexed == serial

    def test_every_width_is_identical(self):
        """width=1 degenerates to batched order; wider windows interleave
        more aggressively -- none of it may leak into the results."""
        specs = mixed_specs()
        reference = [result_bytes(r) for r in SerialExecutor().map(specs)]
        for width in (1, 2, 3, 8):
            got = [result_bytes(r)
                   for r in MultiplexExecutor(width=width).map(specs)]
            assert got == reference, f"divergence at width={width}"

    def test_matches_batched_executor(self):
        specs = mixed_specs()
        batched = [result_bytes(r) for r in BatchExecutor().map(specs)]
        multiplexed = [result_bytes(r) for r in MultiplexExecutor().map(specs)]
        assert multiplexed == batched

    def test_results_come_back_in_spec_order(self):
        specs = [small_spec(references=60, seed=s, label=f"point-{s}")
                 for s in range(1, 6)]
        results = MultiplexExecutor(width=3).map(specs)
        assert [r.config_label for r in results] == \
               [s.label for s in specs]

    def test_cache_roundtrip_is_identical(self, tmp_path):
        specs = mixed_specs()[:3]
        cold = MultiplexExecutor(cache=ResultCache(str(tmp_path)))
        warm = MultiplexExecutor(cache=ResultCache(str(tmp_path)))
        first = [result_bytes(r) for r in cold.map(specs)]
        second = [result_bytes(r) for r in warm.map(specs)]
        assert first == second

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError, match="width"):
            MultiplexExecutor(width=0)

    def test_set_pool_disabled_after_map(self):
        from repro.coherence import cache as cache_module

        MultiplexExecutor().map([small_spec(references=60)])
        assert not cache_module._POOL_ENABLED
        assert not cache_module._SET_POOL

    def test_width_one_frees_each_machine_before_returning(self,
                                                           built_machines):
        MultiplexExecutor(width=1).map([small_spec(references=100),
                                        small_spec(references=100, seed=2)])
        assert len(built_machines) == 2
        assert [ref() for ref in built_machines] == [None, None]

    def test_memo_stats_counts_hits(self):
        clear_memos()
        spec_a = small_spec(references=80, seed=7)
        spec_b = small_spec(references=80, seed=7, max_cycles=10_000_000)
        MultiplexExecutor().map([spec_a, spec_b])
        stats = memo_stats()
        assert stats["stream_misses"] >= 1
        assert stats["stream_hits"] >= 1


class TestMakeExecutorMultiplexed:
    def test_selects_multiplexed_kind(self):
        executor = make_executor(multiplexed=True)
        assert isinstance(executor, MultiplexExecutor)

    @pytest.mark.parametrize("kwargs", [
        {"parallel": 2},
        {"batched": True},
        {"workers": 1, "cache_dir": "unused"},
    ])
    def test_conflicting_strategies_rejected(self, kwargs):
        with pytest.raises(ValueError, match="multiplexed"):
            make_executor(multiplexed=True, **kwargs)


class TestRunnerMultiplexFlag:
    """Pin the whole executor-flag mutual-exclusion matrix at the CLI."""

    @pytest.mark.parametrize("argv", [
        ["--multiplex", "--parallel", "2"],
        ["--multiplex", "--batched"],
        ["--multiplex", "--workers", "1"],
        ["--multiplex", "--parallel", "2", "--batched"],
    ])
    def test_multiplex_excludes_other_strategies(self, argv, capsys):
        with pytest.raises(SystemExit):
            runner.main(argv + ["--only", "fig2", "--quick"])
        assert "--multiplex" in capsys.readouterr().err

    def test_multiplex_quick_report_matches_serial(self, tmp_path):
        serial_path = tmp_path / "serial.json"
        mux_path = tmp_path / "mux.json"
        assert runner.main(["--only", "fig2", "--quick",
                            "--json", str(serial_path)]) == 0
        assert runner.main(["--only", "fig2", "--quick", "--multiplex",
                            "--json", str(mux_path)]) == 0
        serial = json.loads(serial_path.read_text())
        mux = json.loads(mux_path.read_text())
        # Execution-side blocks differ (memo traffic, cache stats); the
        # science payload must not.
        for payload in (serial, mux):
            for key in ("cache", "kernel", "memos"):
                payload.pop(key, None)
        assert canonical_json(mux) == canonical_json(serial)

    def test_memos_block_is_execution_side(self, tmp_path):
        """The runner surfaces memo_stats() next to the kernel block, and
        compare_reports strips it: reports stay byte-comparable."""
        import subprocess
        import sys

        path = tmp_path / "report.json"
        assert runner.main(["--only", "fig2", "--quick", "--multiplex",
                            "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert "memos" in payload
        assert {"stream_hits", "stream_misses"} <= set(payload["memos"])

        doctored = tmp_path / "doctored.json"
        edited = dict(payload)
        edited["memos"] = {k: v + 17 for k, v in payload["memos"].items()}
        doctored.write_text(json.dumps(edited))
        proc = subprocess.run(
            [sys.executable, "tools/compare_reports.py",
             str(path), str(doctored)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
