"""Record the reference values the benchmark checks at the default seed.

    PYTHONPATH=src python3 perfbench/record_reference.py

Evaluates every cell of every workload's default-seed grid and writes
``perfbench/reference.json``.  Rerun it only when a change is meant to
alter criterion values, and say in CHANGES.md which values moved and why.
"""

from __future__ import annotations

import json
import math

import fpsq.criteria
import fpsq.kernels

from grids import DEFAULT_SEED, WORKLOADS, blocks as make_blocks
from workload import REFERENCE_PATH, sweep

REL_TOL = 1e-9


def main() -> None:
    table = {}
    for name in WORKLOADS:
        blocks = make_blocks(name, DEFAULT_SEED)
        models = [fpsq.kernels.build_model(b.desc) for b in blocks]
        cells = {}
        for key, (_, _, _, _, out) in sweep(fpsq.criteria, blocks, models).items():
            if isinstance(out, str):
                raise SystemExit(f"{name} {key} raised at the default seed: {out}")
            value, log_value, tagged = out
            cells[key] = [value if math.isfinite(value) else None, log_value, tagged]
        table[name] = {"seed": DEFAULT_SEED, "rel_tol": REL_TOL, "cells": cells}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
