"""Every cell value of the benchmark workloads, as JSON, and a comparison of two such files.

    PYTHONPATH=src python3 tests/sweep_values.py [SEED ...] > values.json
    python3 tests/sweep_values.py --compare A.json B.json

For each seed (default 0) and each workload of ``perfbench/grids.py``,
evaluates every grid cell with the benchmark's own ``sweep`` and prints
``{workload: {seed: {cell: [value, log value, overflow tag]}}}``; a cell
that raised holds its message.  ``json`` writes floats with ``repr`` (and
infinities as ``Infinity``), so two files compare equal exactly when
every value is bit-identical.  ``--compare`` reads two such files (from
two checkouts, say), prints one line per cell that moved, is missing
from one file or differs in kind, with the relative change of its value
(or, where only that moved, of its log value), then the count of moved
cells, and exits 1 if any cell moved, else 0.  The script only reads
``perfbench``.
"""

from __future__ import annotations

import json
import math
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


def _flat(values: dict) -> dict:
    """(workload, seed, cell) -> the cell's entry, of a sweep_values output."""
    return {(name, seed, cell): entry for name, seeds in values.items()
            for seed, cells in seeds.items() for cell, entry in cells.items()}


def _relative(old, new) -> str:
    """The relative change of the first number that moved, where both are finite numbers."""
    if not (isinstance(old, list) and isinstance(new, list)):
        return ""
    for a, b in zip(old[:2], new[:2]):
        if json.dumps(a) == json.dumps(b):
            continue
        if all(isinstance(x, float) and math.isfinite(x) for x in (a, b)) and a != 0.0:
            return f"  (relative {(b - a) / abs(a):+.3e})"
        return ""
    return ""


def compare(old: dict, new: dict) -> tuple[list[str], int]:
    """One line per cell whose entry differs between two sweep_values
    outputs (compared as JSON, so bit for bit), missing cells included,
    in key order, and the number of cells in either."""
    old, new = _flat(old), _flat(new)
    keys = sorted(set(old) | set(new))
    lines = []
    for key in keys:
        a, b = (json.dumps(v[key]) if key in v else "missing" for v in (old, new))
        if a != b:
            lines.append(f"{' '.join(key)}: {a} -> {b}{_relative(old.get(key), new.get(key))}")
    return lines, len(keys)


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            sys.exit("usage: sweep_values.py --compare A.json B.json")
        lines, total = compare(*map(_load, argv[1:]))
        sys.stdout.write("".join(line + "\n" for line in lines) + f"{len(lines)} of {total} cells moved\n")
        return 1 if lines else 0
    json.dump(sweep_values([int(s) for s in argv] or [0]), sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
