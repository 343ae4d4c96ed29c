"""Span recording around public fpsq functions, from outside the package.

``Tracer.install`` replaces each traced function at the module (or class)
attribute its callers look up, so no file under ``src/`` changes.  Every
call records a span: name, start, end and the index of the enclosing
span.  Spans live in flat arrays until the pass ends; ``layer_metrics``
then derives each layer's call count, inclusive time and self time (the
span's time minus the time its child spans cover), plus the counters the
wrappers keep (items, terms, integrand evaluations, atoms).
"""

from __future__ import annotations

import time
from array import array

CRITERIA_FUNCS = {
    "fp": "fp_value",
    "rho_fp": "rho_fp_value",
    "gfp": "gfp_value",
    "sq": "sq_value",
    "usq": "usq_hard",
    "chi2": "chi_squared",
    "ld": "ld_samplewise",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = {"bnb_items": 0, "lse_terms": 0, "integrand_evals": 0, "atoms": 0}

    def wrap(self, owner, attr: str, span: str, before=None, after=None) -> None:
        """Replace owner.attr by a span-recording wrapper.  ``before`` may
        rewrite the positional arguments; ``after`` sees the result."""
        fn = getattr(owner, attr)
        nid = len(self.names)
        self.names.append(span)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)

    def install(self) -> None:
        import scipy.integrate

        import fpsq.criteria as criteria
        import fpsq.kernels as kernels
        import fpsq.laws as laws

        counters = self.counters

        def count_items(args):
            counters["bnb_items"] += len(args[0])
            return args

        def count_terms(args):
            counters["lse_terms"] += len(args[0])
            return args

        def count_integrand(args):
            f = args[0]

            def integrand(*a):
                counters["integrand_evals"] += 1
                return f(*a)

            return (integrand,) + tuple(args[1:])

        def count_atoms(law):
            counters["atoms"] += len(law.values)

        self.wrap(kernels, "build_model", "kernels.build_model")
        self.wrap(kernels, "make_law", "laws.make_law", after=count_atoms)
        self.wrap(kernels, "symmetric_indicator_tail", "numerics.indicator_tail")
        self.wrap(kernels.Kernel, "log_eval", "kernels.log_eval")
        self.wrap(kernels, "rho_g", "kernels.rho_g")
        self.wrap(criteria, "threshold_sup", "laws.threshold_sup")
        self.wrap(laws, "survival", "laws.survival")
        self.wrap(criteria, "expect", "laws.expect")
        self.wrap(criteria, "log_sum_exp", "numerics.log_sum_exp", before=count_terms)
        self.wrap(criteria, "solve_min_inclusion", "criteria.gfp.bnb", before=count_items)
        self.wrap(criteria, "greedy_min_inclusion", "criteria.gfp.greedy")
        self.wrap(scipy.integrate, "quad", "quad", before=count_integrand)
        for crit, func in CRITERIA_FUNCS.items():
            self.wrap(criteria, func, f"criteria.{crit}")

    def span_totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        import numpy as np

        n = len(self.start)
        k = len(self.names)
        name = np.frombuffer(self.name, dtype=np.int32) if n else np.zeros(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32) if n else np.zeros(0, np.int32)
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start)) if n else np.zeros(0)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        return {s: (int(calls[i]), float(total[i]), float(own[i])) for i, s in enumerate(self.names)}

    def layer_metrics(self) -> dict[str, float]:
        t = self.span_totals()
        c = self.counters
        out = {
            "laws.make_law_s": t["laws.make_law"][1],
            "laws.atoms": c["atoms"],
            "kernels.kernel_build_s": t["kernels.build_model"][1] - t["laws.make_law"][1],
            "numerics.indicator_tail_s": t["numerics.indicator_tail"][1],
            "laws.threshold_sup_calls": t["laws.threshold_sup"][0],
            "laws.threshold_sup_s": t["laws.threshold_sup"][1],
            "laws.survival_calls": t["laws.survival"][0],
            "laws.survival_s": t["laws.survival"][1],
            "laws.expect_calls": t["laws.expect"][0],
            "laws.expect_s": t["laws.expect"][1],
            "kernels.log_eval_calls": t["kernels.log_eval"][0],
            "kernels.log_eval_s": t["kernels.log_eval"][1],
            "kernels.rho_g_calls": t["kernels.rho_g"][0],
            "quad.calls": t["quad"][0],
            "quad.integrand_evals": c["integrand_evals"],
            "quad.s": t["quad"][1],
            "numerics.log_sum_exp_calls": t["numerics.log_sum_exp"][0],
            "numerics.log_sum_exp_terms": c["lse_terms"],
        }
        for crit in CRITERIA_FUNCS:
            calls, total, own = t[f"criteria.{crit}"]
            out[f"criteria.{crit}.calls"] = calls
            out[f"criteria.{crit}.s"] = total
            out[f"criteria.{crit}.self_s"] = own
        out["criteria.gfp.bnb_calls"] = t["criteria.gfp.bnb"][0]
        out["criteria.gfp.bnb_items"] = c["bnb_items"]
        out["criteria.gfp.bnb_s"] = t["criteria.gfp.bnb"][1]
        out["criteria.gfp.greedy_calls"] = t["criteria.gfp.greedy"][0]
        out["criteria.gfp.greedy_s"] = t["criteria.gfp.greedy"][1]
        return out


IMPORT_PACKAGES = {
    "import.numpy_s": "numpy",
    "import.scipy_stats_s": "scipy.stats",
    "import.scipy_integrate_s": "scipy.integrate",
    "import.scipy_special_s": "scipy.special",
}


def import_metrics(importtime_log: str) -> dict[str, float]:
    """Per-package import cost from ``python -X importtime`` output.

    A package's cost is the summed cumulative time of its outermost
    entries: entries of the package whose ancestors are all outside it.
    scipy loads subpackages through a module ``__getattr__``, which the
    log does not show as a parent line, so ``scipy.integrate`` appears
    only as its submodules.  ``import.fpsq_self_s`` sums the self time of
    every fpsq module.
    """
    rows = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue  # the header line
        name = parts[2].rstrip()
        depth = len(name) - len(name.lstrip())
        rows.append((depth, name.strip(), int(parts[0]), int(parts[1])))

    def inside(mod: str, pkg: str) -> bool:
        return mod == pkg or mod.startswith(pkg + ".")

    out = {key: 0.0 for key in IMPORT_PACKAGES}
    out["import.fpsq_self_s"] = 0.0
    ancestors: list[tuple[int, str]] = []
    # The log is in post-order (children first); reversed it is pre-order.
    for depth, name, self_us, cum_us in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        for key, pkg in IMPORT_PACKAGES.items():
            if inside(name, pkg) and not any(inside(a, pkg) for _, a in ancestors):
                out[key] += cum_us * 1e-6
        if inside(name, "fpsq"):
            out["import.fpsq_self_s"] += self_us * 1e-6
        ancestors.append((depth, name))
    return out
