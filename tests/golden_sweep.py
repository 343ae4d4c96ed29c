"""Golden sweep over the discrete built-in presets.

Every discrete preset of ``BUILTIN_MODEL_DESCRIPTORS`` x all seven
criteria x a fixed (q, m) grid, evaluated through the CLI's cell
function, so each entry is what a ``fpsq sweep`` row reports.  The
recorded file ``tests/data/golden_discrete.json`` pins those rows;
``tests/test_golden.py`` compares against it.  Regenerate with

    PYTHONPATH=src python3 tests/golden_sweep.py > tests/data/golden_discrete.json
"""

from __future__ import annotations

import json
import math
import os
import sys

QS = (1.2, 2.0, 3.0, 7.0, 20.0, 100.0, 1000.0, 1e5)
MS = (1, 2, 5, 20, 200)
EVENT_CRITERIA = ("fp", "rho_fp", "gfp", "sq")
MOMENT_CRITERIA = ("usq", "chi2", "ld")
FIELDS = ("threshold", "achieved_mass", "value", "verdict", "method")

DATA_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                         "golden_discrete.json")


def cells():
    for crit in EVENT_CRITERIA:
        for q in QS:
            for m in MS:
                yield crit, q, m
    for crit in MOMENT_CRITERIA:
        for m in MS:
            yield crit, None, m


def cell_key(name: str, crit: str, q, m) -> str:
    return f"{name}|{crit}|q={q!r}|m={m}"


def sweep_rows() -> dict:
    """cell key -> the row's FIELDS, or the name of the exception raised."""
    from fpsq.cli import _eval_cell
    from fpsq.kernels import build_model
    from fpsq.scenarios import BUILTIN_MODEL_DESCRIPTORS

    out = {}
    for name, desc in BUILTIN_MODEL_DESCRIPTORS.items():
        model = build_model(desc)
        if not model.is_discrete:
            continue
        for crit, q, m in cells():
            try:
                row = _eval_cell(name, model, crit, q, m, 0.0, 2, math.inf, 1)
            except Exception as exc:  # the refusal is part of the record
                out[cell_key(name, crit, q, m)] = type(exc).__name__
                continue
            out[cell_key(name, crit, q, m)] = [row[f] for f in FIELDS]
    return out


if __name__ == "__main__":
    rows = sweep_rows()
    sys.stdout.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(rows[k])}"
                                         for k in sorted(rows)) + "\n}\n")
