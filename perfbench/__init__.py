"""The repository's end-to-end and per-layer benchmark (see README.md).

Run it with ``python3 perfbench/run.py --workload fig4 --seed 1 --seconds 25
--trace 0`` from the repository root.
"""
