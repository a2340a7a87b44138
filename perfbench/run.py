#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload fig4-pure --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --all --seconds 30        # every workload, untraced
    python3 perfbench/run.py --record-digests          # re-record digests.json

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The first run in a
checkout builds the compiled kernel tier; later runs reuse it.  The full
record of a run (quartiles, sample counts, provenance, failures) goes to
``.bench_build/perfbench/results/``, and traced spans to
``.bench_build/perfbench/traces/``.

Exit status: 0 when a result was printed (check its ``correct``), 2 when the
directory holds no simulator to measure, 3 when the traced spans do not add
up (a wrapped entry point was bypassed).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    choice = parser.add_mutually_exclusive_group(required=True)
    choice.add_argument("--workload")
    choice.add_argument("--all", action="store_true",
                        help="run every workload in turn (untraced unless "
                             "--trace 1)")
    choice.add_argument("--record-digests", action="store_true",
                        help="re-record perfbench/digests.json on the "
                             "default seed")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_outcome(outcome, record_path) -> None:
    provenance = outcome.provenance
    print(f"# {outcome.workload}: seed {outcome.seed}, "
          f"{provenance['samples']} sweeps, "
          f"{outcome.attempted} design points, {outcome.failed} failed; "
          f"tier {provenance['kernel'].get('tier')}, "
          f"{provenance['cpus']} cpus, python {provenance['python']}")
    for line in outcome.failures[:20]:
        print(f"# FAILED {line}")
    for name, m in outcome.metrics.items():
        print(f"{outcome.workload:>10s} {name:30s} {m['median']:14.6g} "
              f"{m['unit']:8s} [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, "
              f"n={m['n']}]")
    print(f"# record: {record_path.relative_to(ROOT)}")


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.build import SetupError, check_checkout

    try:
        check_checkout(ROOT)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from perfbench import harness
    from perfbench.tracing import TraceAccountingError, Tracer

    if args.record_digests:
        return harness.record_digests()
    seed = harness.DEFAULT_SEED if args.seed is None else args.seed
    if args.all:
        # One fresh process per workload, so peak memory is per workload.
        status = 0
        for name in harness.WORKLOADS:
            status |= subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace",
                 str(args.trace)]).returncode
        return status
    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = Tracer()
    try:
        outcome = harness.run_workload(workload, seed, args.seconds,
                                       bool(args.trace), tracer=tracer)
    except TraceAccountingError as exc:
        print(f"error: traced spans do not add up on {workload.name}: "
              f"{exc}", file=sys.stderr)
        return 3
    _print_outcome(outcome, harness.write_records(outcome, tracer))
    print(json.dumps(outcome.result_line()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
