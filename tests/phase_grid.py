"""CPU time of a phase-diagram sweep: every criterion over a 16 q x 16 m grid.

    PYTHONPATH=src python3 tests/phase_grid.py N > phase.json

Builds gam (lambda = 1) on the ``rademacher_mean`` law of n = N signs, then
evaluates all seven criteria over 16 q (log-spaced from 2 to 1000) x 16 m
(log-spaced whole numbers from 1 to 1024) through the criterion table and
the CLI's row function, criterion by criterion as ``fpsq sweep`` loops them,
on the one model.
Prints one JSON object: the CPU seconds of ``build_model`` plus the atom
table's kernel table (``build_s``; each other part of the table is built
when a criterion first reads it, so it falls into that criterion's time),
of each criterion's 256 cells (``criteria_s``) and of
all of them (``sweep_s``), the cell count, the process's peak RSS in MB,
and the MB the model's memo holds in its GFP entries at the end
(``gfp_memo_mb``, by ``held_bytes``).
"""

from __future__ import annotations

import json
import resource
import sys
import time

import numpy as np

QS = tuple(2.0 * 500.0 ** (i / 15) for i in range(16))
MS = tuple(round(2.0 ** (10 * i / 15)) for i in range(16))


def held_bytes(obj) -> int:
    """The bytes an object holds: the whole buffer under each array (a view
    keeps its base alive), and the Python objects of its lists and tuples
    (named ones too)."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sys.getsizeof(obj) + sum(held_bytes(x) for x in obj)
    return 0 if obj is None else sys.getsizeof(obj)


def phase_grid(n: int) -> dict:
    from fpsq.cli import report_row
    from fpsq.criteria import CRITERIA, Cell
    from fpsq.kernels import build_model

    t0 = time.process_time()
    model = build_model({"model": "gam", "lambda": 1.0, "prior": {"kind": "rademacher_mean", "n": n}})
    model.atom_table
    build_s = time.process_time() - t0
    criteria_s = {}
    for crit in CRITERIA:
        t0 = time.process_time()
        for q in QS:
            for m in MS:
                report_row("phase-grid", CRITERIA[crit].report(model, Cell(q, m)))
        criteria_s[crit] = time.process_time() - t0
    return {
        "n": n,
        "cells": len(CRITERIA) * len(QS) * len(MS),
        "build_s": build_s,
        "criteria_s": criteria_s,
        "sweep_s": sum(criteria_s.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "gfp_memo_mb": sum(held_bytes(v) for k, v in model.memo.items() if k[0] == "gfp") / 2.0**20,
    }


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: phase_grid.py N")
    json.dump(phase_grid(int(sys.argv[1])), sys.stdout, indent=1)
    sys.stdout.write("\n")
