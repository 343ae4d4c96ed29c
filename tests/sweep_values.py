"""Every cell value of the benchmark workloads, as JSON.

    PYTHONPATH=src python3 tests/sweep_values.py [SEED ...] > values.json

For each seed (default 0) and each workload of ``perfbench/grids.py``,
evaluates every grid cell with the benchmark's own ``sweep`` and prints
``{workload: {seed: {cell: [value, log value, overflow tag]}}}``; a cell
that raised holds its message.  ``json`` writes floats with ``repr`` (and
infinities as ``Infinity``), so two files compare equal exactly when
every value is bit-identical: run it on two checkouts and diff the
outputs to see which cells a change moved.  The script only reads
``perfbench``.
"""

from __future__ import annotations

import json
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def sweep_values(seeds) -> dict:
    sys.path.insert(0, PERFBENCH)
    import fpsq.criteria
    import fpsq.kernels
    from grids import WORKLOADS, blocks as make_blocks
    from workload import sweep

    out = {}
    for name in WORKLOADS:
        out[name] = {}
        for seed in seeds:
            blocks = make_blocks(name, seed)
            models = [fpsq.kernels.build_model(b.desc) for b in blocks]
            cells = sweep(fpsq.criteria, blocks, models)
            out[name][str(seed)] = {key: res for key, (_, _, _, _, res) in cells.items()}
    return out


if __name__ == "__main__":
    json.dump(sweep_values([int(s) for s in sys.argv[1:]] or [0]), sys.stdout, indent=1)
    sys.stdout.write("\n")
