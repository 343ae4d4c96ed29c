"""fpsq benchmark: one workload, repeated in fresh processes for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is discrete-wide, discrete-large, sphere-sweep, or ``all`` for the
three in turn.  Run it from the repository root; it imports fpsq from
``src/`` and installs nothing.

Each pass is one fresh single-threaded interpreter running
``workload.py``, started only after the previous one ended.  Passes repeat
until S seconds have gone by (at least one pass).  With ``--trace 0`` the
result holds the end-to-end metrics, each the median over the passes;
times are CPU seconds scaled by the pass's speed probe (workload.py).
With ``--trace 1`` untraced and traced passes alternate, and the result
holds the per-layer metrics (median over the traced passes) and the
tracing overhead.  The last line of standard output is the JSON result;
the line before it records the environment, seed and sample counts.
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_SCRIPT = os.path.join(HERE, "workload.py")
WORKLOADS = ("discrete-wide", "discrete-large", "sphere-sweep")
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END_UNITS = {
    "startup_s": "s",
    "setup_s": "s",
    "sweep_s": "s",
    "cells_per_s": "1/s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def environment(seed: int) -> dict:
    def read(path: str) -> str:
        try:
            with open(path) as fh:
                return fh.read()
        except OSError:
            return ""

    cpu = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())

    def version(pkg: str) -> str | None:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg": read("/proc/loadavg").split()[:3],
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_pass(workload: str, seed: int, traced: bool, tiny: bool, env: dict,
             timeout: float) -> dict:
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [WORKLOAD_SCRIPT, "--workload", workload, "--seed", str(seed),
            "--trace", "1" if traced else "0"]
    if tiny:
        cmd.append("--tiny")
    cpu_before = _children_cpu()
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"pass exceeded {timeout:.0f} s"}
    t_end = time.monotonic()
    if proc.returncode != 0 or not out.strip():
        return {"error": f"exit code {proc.returncode}: {err.strip()[-2000:]}"}
    res = json.loads(out.strip().splitlines()[-1])
    res["startup_wall_s"] = res.pop("t_imported") - t_spawn
    res["total_wall_s"] = t_end - t_spawn
    res["total_cpu_s"] = _children_cpu() - cpu_before
    res["total_s"] = (res["total_cpu_s"] - res["probe_cpu_s"]) * res["speed"]
    res["cells_per_s"] = res["cells"] / res["sweep_s"]
    if traced:
        from spans import import_metrics

        res["layers"].update(import_metrics(err))
    return res


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 tiny: bool = False) -> tuple[dict, dict]:
    """Returns (result, record): the benchmark's JSON result and the
    environment / sample-count record printed beside it."""
    env = child_env()
    machine = environment(seed)
    begin = time.monotonic()
    warm = subprocess.run([sys.executable, "-c", "import fpsq.cli"], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    if warm.returncode != 0:
        raise RuntimeError(f"cannot import fpsq.cli from {ROOT}/src: {warm.stderr.strip()}")

    plain, traced, error = [], [], None
    attempted = failed = 0
    failures: list = []
    while True:
        elapsed = time.monotonic() - begin
        done = plain and (traced or not trace)
        if (done and elapsed >= seconds) or elapsed >= RUN_LIMIT_S:
            break
        want_trace = bool(trace) and len(traced) < len(plain)
        res = run_pass(workload, seed, want_trace, tiny, env, RUN_LIMIT_S - elapsed)
        if "error" in res:
            error = res["error"]
            break
        (traced if want_trace else plain).append(res)
        attempted += res["cells"]
        failed += res["failed"]
        failures.extend(res["failures"])

    if error or not plain or (trace and not traced):
        raise RuntimeError(f"{workload}: pass failed: {error}")

    def median(passes: list, key: str) -> float:
        return statistics.median(p[key] for p in passes)

    if trace:
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = median(traced, "total_s") - median(plain, "total_s")
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in layers.items()}
        samples = {name: len(traced) for name in metrics}
        samples["trace.overhead_s"] = min(len(traced), len(plain))
    else:
        metrics = {name: {"value": median(plain, name), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        samples = {name: len(plain) for name in metrics}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": workload,
        "environment": machine,
        "seconds": seconds,
        "trace": trace,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "samples": samples,
        "per_pass": {key: [round(p[key], 6) for p in plain]
                     for key in (*END_TO_END_UNITS, "speed", "total_cpu_s", "startup_wall_s",
                                 "total_wall_s")},
        "raw_cpu_s": [p["raw_cpu_s"] for p in plain],
        "cell_error_rate": failed / attempted,
        "failures": failures[:20],
    }
    if trace:
        record["spans_per_traced_pass"] = traced[0]["spans"]
    return result, record


def layer_unit(name: str) -> str:
    return "s" if name.endswith(("_s", ".s")) else "count"


def report(result: dict, record: dict) -> str:
    lines = [f"# {record['workload']}  seed={record['environment']['seed']}  "
             f"passes={record['passes']}"]
    for name, m in result["metrics"].items():
        lines.append(f"{record['workload']:<15} {name:<32} {m['value']:>14.6g} {m['unit']:<6} "
                     f"n={record['samples'][name]}")
    lines.append(f"{record['workload']:<15} {'cell_error_rate':<32} "
                 f"{record['cell_error_rate']:>14.6g} {'fraction':<6} "
                 f"n={result['attempted']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fpsq", "cli.py")):
        print(f"run.py: no fpsq source under {ROOT}/src; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result, record = run_workload(name, args.seed, args.seconds, args.trace)
            print(report(result, record))
            print(json.dumps(record))
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            for metric, m in result["metrics"].items():
                combined["metrics"][prefix + metric] = m
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
