"""The engine benchmark: five workloads, nominal-second timings, a per-layer budget.

Run from the repository root::

    python3 -m bench --workload tpch_objects --seed 1 --seconds 12 --trace 0
    python3 -m bench                    # every workload, both passes
    python3 -m bench --check-repeat     # the end-to-end pass twice, compared

No product source is touched: every layer is measured from outside, by
timing calls into its public functions, by reading the engine's public
outputs (``cluster.traces()``, ``cluster.metrics()``, the catalog journal
file) and by ``cProfile``.  ``README.md`` next to this file has the
metric tables and the interaction map.
"""

import os

#: Round logs, span dumps and private spill roots; ignored by git.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
