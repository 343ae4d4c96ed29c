"""Smoke test of the benchmark's own code.

    python3 -m pytest -q perfbench

Runs every workload once at its tiny grid, untraced and traced, and
checks that every metric BENCHMARK.json names is emitted and that no
cell fails.  Also runs the default-seed ``discrete-wide`` grid against
the recorded reference values, and checks the checker and the trace
parsers on hand-made inputs.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import types

import pytest

import run
from grids import DEFAULT_SEED, Block
from spans import Tracer, import_metrics
from workload import check_cells

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def _spec() -> dict:
    with open(BENCHMARK) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_grid_emits_every_metric(workload):
    spec = _spec()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, record = run.run_workload(workload, seed=1, seconds=0, trace=trace, tiny=True)
        assert result["failed"] == 0, record["failures"]
        assert result["correct"] and result["attempted"] > 0
        assert record["cell_error_rate"] == 0.0
        expected = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        assert set(record["samples"]) == set(expected)


def test_default_seed_matches_reference():
    result, record = run.run_workload("discrete-wide", DEFAULT_SEED, seconds=0, trace=0)
    assert result["attempted"] == 945
    assert result["failed"] == 0, record["failures"]


def test_checks_flag_wrong_values():
    gam = Block("gam", {"model": "gam", "lambda": 1.0,
                        "prior": {"kind": "rademacher_mean", "n": 10}}, (), (), ())
    exact = math.expm1(10 * math.log(math.cosh(0.1)))
    results = {
        "gam|chi2|q=4.0|m=1": (gam, "chi2", 4.0, 1, (exact, math.log1p(exact), False)),
        "gam|chi2|q=4.0|m=2": (gam, "chi2", 4.0, 2, (exact, math.log1p(exact), False)),
        "gam|fp|q=4.0|m=1": (gam, "fp", 4.0, 1, (1.0, 0.0, False)),
        "gam|gfp|q=4.0|m=1": (gam, "gfp", 4.0, 1, (2.0, math.log(2.0), False)),
        "gam|sq|q=4.0|m=1": (gam, "sq", 4.0, 1, (math.inf, math.inf, False)),
        "gam|rho_fp|q=4.0|m=1": (gam, "rho_fp", 4.0, 1, (0.0, -math.inf, False)),
        "gam|ld|q=4.0|m=1": (gam, "ld", 4.0, 1, "ValueError: boom"),
    }
    flagged = {f["cell"] for f in check_cells(results, None)}
    assert flagged == {"gam|chi2|q=4.0|m=2", "gam|gfp|q=4.0|m=1", "gam|sq|q=4.0|m=1",
                       "gam|ld|q=4.0|m=1"}
    reference = {"rel_tol": 1e-9, "cells": {"gam|fp|q=4.0|m=1": [1.0 + 1e-6, 0.0, False]}}
    only_fp = {k: v for k, v in results.items() if "|fp|" in k}
    assert [f["cell"] for f in check_cells(only_fp, reference)] == ["gam|fp|q=4.0|m=1"]


def test_self_time_subtracts_child_spans():
    mod = types.SimpleNamespace()
    mod.inner = lambda: sum(range(20000))
    mod.outer = lambda: (mod.inner(), mod.inner())
    tracer = Tracer()
    tracer.wrap(mod, "inner", "inner")
    tracer.wrap(mod, "outer", "outer")
    mod.outer()
    totals = tracer.span_totals()
    assert totals["inner"][0] == 2 and totals["outer"][0] == 1
    outer_calls, outer_total, outer_self = totals["outer"]
    assert math.isclose(outer_total - outer_self, totals["inner"][1], rel_tol=1e-9)


def test_import_metrics_count_outermost_entries_once():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        30 |         30 |     scipy.integrate._quadpack",
        "import time:        20 |         20 |       numpy.linalg",
        "import time:        10 |         30 |     scipy.integrate._ode",
        "import time:         5 |        215 |   fpsq.laws",
        "import time:         7 |        222 | fpsq",
    ])
    got = import_metrics(log)
    assert math.isclose(got["import.numpy_s"], 170e-6)
    assert math.isclose(got["import.scipy_integrate_s"], 60e-6)
    assert math.isclose(got["import.fpsq_self_s"], 12e-6)
    assert got["import.scipy_stats_s"] == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(os.path.dirname(run.__file__), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "discrete-wide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
