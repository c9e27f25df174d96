"""End-to-end and per-layer benchmark of the reproduction.

Run one workload from the repository root::

    python3 perfbench/run.py --workload matrix --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a second, traced pass.  :mod:`perfbench.spec`
declares every workload and metric, and which end-to-end metric each
per-layer metric should move.
"""
