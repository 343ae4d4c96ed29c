"""One workload pass in a fresh interpreter: what a ``fpsq sweep`` user waits for.

    python3 perfbench/workload.py --workload NAME --seed N [--trace 1] [--tiny]

Imports ``fpsq.cli`` first, builds each model of the workload, evaluates
every grid cell through the public criterion function ``sweep``
dispatches to, then checks every value.  Prints one JSON line: the CPU
time and monotonic clock reading when the import returned, the CPU time
of set-up and of the sweep, the peak RSS, the failed cells and, with
``--trace 1``, the per-layer metrics.  ``run.py`` starts this script
and measures the whole process around it.

All CPU times are main-thread CPU time with the speed probe's own time
removed, scaled to the probe's reference speed (see ``SpeedProbe``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

PROBE_PERIOD_S = 0.03  # CPU seconds between two speed probes
PROBE_REFERENCE_S = 7.0e-4  # the probe loop's CPU time on an uncontended vCPU
_PROBE_DATA = [i * 1e-4 for i in range(2000)]


def _probe_loop() -> float:
    # Float arithmetic alone slows less than fpsq's code under contention,
    # and closure calls with tuple and dict stores slow more; together
    # they track it (log-log slope near 1 on series and exact-sum cells).
    acc = 0.0
    log1p = math.log1p
    for i in range(3000):
        acc += log1p(i * 1e-4) * 0.5
    square = lambda x: x * x + 1.0  # noqa: E731
    table = {}
    pairs = []
    for i, x in enumerate(_PROBE_DATA):
        y = square(x)
        pairs.append((x, y))
        table[i & 511] = y
    return acc + math.fsum(y for _, y in pairs)


class SpeedProbe:
    """Samples how fast the CPU runs Python code, from inside the pass.

    On a shared VM the same work can take 1.7 times the CPU time when a
    neighbour loads the host core, in bursts of about 100 ms whose share
    changes over minutes.  Every PROBE_PERIOD_S of CPU time a SIGPROF
    handler times a fixed loop (about 2% extra CPU).  ``scaled`` removes
    the probes' own time from an interval and multiplies the rest by the
    mean of PROBE_REFERENCE_S / probe time over the interval, which gives
    the CPU time the interval would have taken at the reference speed.
    The clocks are per-thread because an armed ITIMER_PROF makes the
    process CPU clock tick-granular; fpsq runs on the main thread only.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _sample(self, signum, frame) -> None:
        t0 = time.thread_time()
        _probe_loop()
        self.samples.append((t0, time.thread_time() - t0))

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)

    def probe_cpu(self, a: float = 0.0, b: float = math.inf) -> float:
        return math.fsum(d for t, d in self.samples if a <= t < b)

    def speed(self, a: float = 0.0, b: float = math.inf) -> float:
        """Mean of PROBE_REFERENCE_S / probe time over [a, b), or over the
        whole pass when [a, b) holds fewer than three probes."""
        inside = [d for t, d in self.samples if a <= t < b]
        if len(inside) < 3:
            inside = [d for _, d in self.samples]
        return math.fsum(PROBE_REFERENCE_S / d for d in inside) / len(inside)

    def scaled(self, a: float, b: float) -> float:
        return ((b - a) - self.probe_cpu(a, b)) * self.speed(a, b)


def evaluate(criteria, crit: str, model, q: float, m: int) -> tuple[float, float, bool]:
    """(value, log_value, overflow-tagged) of one cell, with the defaults
    ``fpsq sweep`` passes: epsilon 0, USQ t = 2, samplewise d = inf, k = 1."""
    if crit == "chi2":
        value = criteria.chi_squared(model, m)
        return value, (math.log1p(value) if value > -1.0 else -math.inf), False
    if crit == "ld":
        value = criteria.ld_samplewise(model, m, math.inf, 1)
        return value, (math.log(value) if value > 0.0 else -math.inf), False
    if crit == "fp":
        rep = criteria.fp_value(model, q, m, 0.0)
    elif crit == "rho_fp":
        rep = criteria.rho_fp_value(model, q, m, 0.0)
    elif crit == "gfp":
        rep = criteria.gfp_value(model, q, m, 0.0)
    elif crit == "sq":
        rep = criteria.sq_value(model, q, m)
    else:
        rep = criteria.usq_hard(model, m, 2)
    log_value = -math.inf if rep.log_value is None else rep.log_value
    tagged = rep.overflowed or (math.isinf(rep.value) and rep.log_value is not None)
    return rep.value, log_value, tagged


def closed_form_chi2(desc: dict, m: int) -> float | None:
    """chi^2 of the Gaussian additive model where a closed form exists."""
    if desc["model"] != "gam":
        return None
    lam, prior = float(desc["lambda"]), desc["prior"]
    n = int(prior["n"])
    if prior["kind"] == "rademacher_mean":
        # E[exp(s T)] = cosh(s / n)^n for T the mean of n Rademacher signs;
        # log cosh x = log1p(2 sinh^2(x/2)) keeps precision at small x
        x = m * lam * lam / n
        return math.expm1(n * math.log1p(2.0 * math.sinh(0.5 * x) ** 2))
    if prior["kind"] == "sphere":
        # E[exp(s T)] for the sphere overlap (a symmetric Beta law):
        # Gamma(n/2) (2/s)^nu I_nu(s), nu = n/2 - 1
        from scipy.special import iv

        s, nu = m * lam * lam, n / 2.0 - 1.0
        return math.expm1(math.lgamma(n / 2.0) + nu * math.log(2.0 / s) + math.log(iv(nu, s)))
    return None


CHI2_TOL = {"rademacher_mean": (1e-9, 1e-15), "sphere": (1e-7, 1e-12)}
GFP_FP_TOL = 1e-9


def _close(a: float, b: float, rel: float, absolute: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), absolute)


def check_cells(results: dict, reference: dict | None) -> list[dict]:
    """Every cell that misses a check, with the reason.

    results maps cell key -> (block, crit, q, m, outcome) where outcome is
    (value, log_value, tagged) or an exception message string.
    """
    failures = []

    def fail(key, reason):
        failures.append({"cell": key, "reason": reason})

    for key, (block, crit, q, m, out) in results.items():
        if isinstance(out, str):
            fail(key, f"raised: {out}")
            continue
        value, log_value, tagged = out
        exact_zero = value == 0.0 and log_value == -math.inf
        if tagged:
            if not math.isfinite(log_value):
                fail(key, f"overflow-log tag with log value {log_value!r}")
        elif not (exact_zero or (math.isfinite(value) and math.isfinite(log_value))):
            fail(key, f"non-finite value {value!r} / log value {log_value!r}")
            continue
        if crit == "chi2":
            expected = closed_form_chi2(block.desc, m)
            if expected is not None:
                rel, absolute = CHI2_TOL[block.desc["prior"]["kind"]]
                if not _close(value, expected, rel, absolute):
                    fail(key, f"chi2 {value!r} vs closed form {expected!r}")
        if crit == "gfp":
            fp = results.get(key.replace("|gfp|", "|fp|", 1))
            if fp is not None and not isinstance(fp[4], str):
                fp_log = fp[4][1]
                if log_value > fp_log + GFP_FP_TOL * max(1.0, abs(fp_log)):
                    fail(key, f"GFP log value {log_value!r} exceeds FP log value {fp_log!r}")
        if reference is not None:
            ref = reference["cells"].get(key)
            rel = reference["rel_tol"]
            if ref is None:
                fail(key, "no reference value recorded for this cell")
            elif bool(ref[2]) != tagged:
                fail(key, f"overflow tag {tagged} vs reference {bool(ref[2])}")
            elif tagged and not _close(log_value, ref[1], rel):
                fail(key, f"log value {log_value!r} vs reference {ref[1]!r}")
            elif not tagged and not _close(value, ref[0], rel):
                fail(key, f"value {value!r} vs reference {ref[0]!r}")
    return failures


def sweep(fpsq_criteria, blocks, models) -> dict:
    from grids import cell_key

    results = {}
    for block, model in zip(blocks, models):
        for crit, q, m in block.cells():
            key = cell_key(block, crit, q, m)
            try:
                out = evaluate(fpsq_criteria, crit, model, q, m)
            except Exception as exc:  # a failed cell is counted, not fatal
                out = f"{type(exc).__name__}: {exc}"
            results[key] = (block, crit, q, m, out)
    return results


def main() -> int:
    probe = SpeedProbe()
    probe.start()
    import fpsq.cli  # noqa: F401  (startup ends when this import returns)

    t_import = time.thread_time()
    t_imported = time.monotonic()
    import fpsq.criteria as fpsq_criteria
    import fpsq.kernels as fpsq_kernels

    from grids import DEFAULT_SEED, blocks as make_blocks

    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args()

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    blocks = make_blocks(args.workload, args.seed, args.tiny)
    t_setup = time.thread_time()
    models = [fpsq_kernels.build_model(b.desc) for b in blocks]
    t_sweep = time.thread_time()
    results = sweep(fpsq_criteria, blocks, models)
    t_done = time.thread_time()

    reference = None
    if args.seed == DEFAULT_SEED and not args.tiny:
        with open(REFERENCE_PATH) as fh:
            reference = json.load(fh)[args.workload]
    failures = check_cells(results, reference)

    probe.stop()
    out = {
        "startup_s": probe.scaled(0.0, t_import),
        "t_imported": t_imported,
        "setup_s": probe.scaled(t_setup, t_sweep),
        "sweep_s": probe.scaled(t_sweep, t_done),
        "raw_cpu_s": {"startup": t_import, "setup": t_sweep - t_setup, "sweep": t_done - t_sweep},
        "probe_cpu_s": probe.probe_cpu(),
        "probes": len(probe.samples),
        "speed": probe.speed(),
        "cells": len(results),
        "failed": len({f["cell"] for f in failures}),
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["spans"] = len(tracer.start)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
