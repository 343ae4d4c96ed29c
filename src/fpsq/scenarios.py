"""Named desk-scale reproduction scenarios and the built-in model registry.

Each scenario pins concrete parameters for one of the package's worked
model families, runs the relevant criterion evaluations, and asserts
the documented inequalities.  Constants that the underlying statements
leave as unspecified absolute factors are pinned here and marked
"calibrated, not pinned by theory" in the manifest notes; thresholds
derived from explicit formulas are computed, not tuned.

Scenario registry:

- "mslr":            chi^2 and rho_G-FP bounds for mixed sparse linear
                     regression at n = 10^4, k = 50, SNR = 1.
- "counterexample":  the two-point +-1 product model where the Euclidean
                     FP value explodes while the event-optimized GFP
                     value stays near 1.
- "slab-truncation": rho_G-FP bound for the alpha-slab convex truncation
                     model.
- "ngca-uniform" / "ngca-sparse": non-Gaussian component analysis under
                     the uniform-sphere and signed k-sparse priors.
- "si-uniform" / "si-sparse":     single-index (sign link) analogues.
- "dense-clique":    dense multi-sample planted clique: SQ value >> 1
                     (easy for SQ) while the GFP value stays near 1.
- "dirac":           repeated-signal model: SQ value > 1 at q = 1 while
                     the GFP value is exactly 0 off the diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fpsq.criteria import (
    _CORRELATION_TOL,
    assumption_holds,
    chi_squared,
    fp_value,
    gfp_value,
    rho_fp_value,
    sq_value,
)
from fpsq.kernels import ModelSpec, build_model
from fpsq.oracles import KERNEL_ORACLES


@dataclass(frozen=True)
class ScenarioCheck:
    name: str
    value: float
    bound: float
    comparison: str  # "<=" or ">="
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class ScenarioResult:
    scenario: str
    params: dict
    checks: list[ScenarioCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _le_check(name: str, value: float, bound: float, note: str = "") -> ScenarioCheck:
    return ScenarioCheck(name, value, bound, "<=", value <= bound, note)


def _ge_check(name: str, value: float, bound: float, note: str = "") -> ScenarioCheck:
    return ScenarioCheck(name, value, bound, ">=", value >= bound, note)


# ---------------------------------------------------------------------------
# Built-in desk-scale models (shared by the CLI presets and the test suite)
# ---------------------------------------------------------------------------

BUILTIN_MODEL_DESCRIPTORS: dict[str, dict] = {
    "gam-sphere": {"model": "gam", "lambda": 1.0, "prior": {"kind": "sphere", "n": 50}},
    "gam-rademacher": {
        "model": "gam",
        "lambda": 0.8,
        "prior": {"kind": "rademacher_mean", "n": 64},
    },
    "gam-two-point": {
        "model": "gam",
        "lambda": 1.0,
        "prior": {"kind": "two_point", "rho_p": 0.5, "values": [0.0, 1.0, 0.0]},
        "group": "trivial",
    },
    "mslr-desk": {"model": "mslr", "n": 200, "k": 5, "sigma2": 1.0},
    # high noise floor: the kernel stays within 2% of 1 at every overlap
    "mslr-oracle": {"model": "mslr", "n": 40, "k": 4, "sigma2": 36.0},
    "ngca-gauss-sphere": {
        "model": "ngca",
        "mu": {"kind": "gaussian", "mean": 0.0, "var": 1.5},
        "prior": {"kind": "sphere", "n": 50},
        "max_degree": 80,
    },
    "ngca-rademacher-sparse": {
        "model": "ngca",
        "mu": {"kind": "atoms", "values": [-1.0, 1.0], "probs": [0.5, 0.5]},
        "prior": {"kind": "signed_sparse", "n": 40, "k": 6},
        "max_degree": 40,
    },
    "si-sign-sphere": {
        "model": "si",
        "link": {"kind": "sign"},
        "prior": {"kind": "sphere", "n": 50},
        "max_degree": 80,
    },
    "si-sign-sparse": {
        "model": "si",
        "link": {"kind": "sign"},
        "prior": {"kind": "signed_sparse", "n": 40, "k": 6},
        "max_degree": 40,
    },
    "slab-desk": {"model": "slab", "alpha": 0.1, "d": 128, "max_degree": 100},
    "counterexample-desk": {
        "model": "counterexample",
        "n": 64,
        "r": 0.2,
        "alpha_c": 0.3,
        "rho_p": 0.3,
    },
    "dense-clique-desk": {"model": "dense_clique", "n": 400, "k": 8, "p": 0.8},
    "dirac-desk": {"model": "dirac", "n": 20},
}


# ---------------------------------------------------------------------------
# Kernel-vs-oracle validation tables (cmd_kernel engine)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelRow:
    statistic: object
    kernel_value: float
    oracle_value: float
    diff: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.diff <= self.bound


def kernel_table(desc: dict) -> list[KernelRow]:
    """Closed-form kernel vs its independent oracle on the rows that
    oracles.KERNEL_ORACLES gives the model's kind, one kernel call on all
    their statistics."""
    model = build_model(desc)
    if model.name not in KERNEL_ORACLES:
        raise ValueError(f"no oracle-backed kernel table for model {model.name!r}")
    rows = list(KERNEL_ORACLES[model.name](model.params))
    values = model.kernel.eval(np.array([stat for stat, _, _ in rows], dtype=float))
    return [KernelRow(stat, kv, oracle, abs(kv - oracle), bound)
            for (stat, oracle, bound), kv in zip(rows, values.tolist())]


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def _scenario_mslr() -> ScenarioResult:
    n, k, sigma2 = 10_000, 50, 50.0  # SNR = k / sigma^2 = 1
    snr = k / sigma2
    model = build_model({"model": "mslr", "n": n, "k": k, "sigma2": sigma2})
    params: dict = {"n": n, "k": k, "sigma2": sigma2, "snr": snr}

    m_chi = math.floor(0.1 * k / math.log(snr**2 / (2 * snr + 1) + 1))
    params["m_chi"] = m_chi
    chi = chi_squared(model, m_chi)

    T = 1.5
    log_q = math.log(n) ** T
    C_m = 20.0  # calibrated, not pinned by theory
    m_fp = max(1, math.floor(C_m * (1 + 1 / snr) ** 2 * k * k / math.log(n) ** (2 * T + 2)))
    params.update({"log_q": log_q, "m_fp": m_fp, "C_m": C_m})
    rfp = rho_fp_value(model, math.exp(log_q), m_fp)

    checks = [
        _le_check("chi2_small_sample", chi, 0.1, f"m = {m_chi} from the stated sample-size formula"),
        _le_check("rho_fp_near_one", rfp.value, 2.0,
                  f"m = {m_fp} at log q = (log n)^{T} (C_m calibrated, not pinned by theory)"),
    ]
    return ScenarioResult("mslr", params, checks)


def _scenario_counterexample() -> ScenarioResult:
    n, eps = 1024, 0.2
    ne = n**eps
    r = n**-0.5
    alpha_c = n ** (-1 + 2 * eps)
    m = round(n ** (1 - eps))
    t4 = 4 * round(n ** (eps / 2))
    # Two-point prior weight: the diagonal pair and the mixed pairs must
    # jointly fit inside the GFP exclusion budget q^{-2} = e^{-n^eps};
    # rho_p = e^{-n^eps}/2 gives 1 - (1-rho_p)^2 <= e^{-n^eps}.
    rho_p = math.exp(-ne) / 2.0
    model = build_model(
        {"model": "counterexample", "n": n, "r": r, "alpha_c": alpha_c, "rho_p": rho_p}
    )
    params = {
        "n": n, "eps": eps, "r": r, "alpha_c": alpha_c, "m": m, "rho_p": rho_p,
        "fp_q": math.sqrt(n), "gfp_q": math.exp(ne / 2), "chi2_samples": t4,
    }
    fp = fp_value(model, math.sqrt(n), m)
    gfp = gfp_value(model, math.exp(ne / 2), m)
    chi = chi_squared(model, t4)
    checks = [
        _ge_check("fp_log_value_explodes", fp.log_value, ne / 4,
                  "log of the Euclidean-overlap FP value vs n^eps/4"),
        _le_check("gfp_near_one", gfp.value, 1.0 + 2.0 * n**-eps,
                  "event optimization drops the diagonal and mixed pairs"),
        _le_check("chi2_4t_bounded", chi, 1.0 + 4.0 * n ** (-1 + eps),
                  f"{t4}-sample chi^2"),
    ]
    return ScenarioResult("counterexample", params, checks)


def _scenario_slab() -> ScenarioResult:
    alpha, d, log_q = 0.1, 2000, 20.0
    m = math.floor(0.1 * d / (alpha**2 * math.log(1 / alpha) ** 1.5 * log_q))
    model = build_model({"model": "slab", "alpha": alpha, "d": d, "max_degree": 100})
    params = {"alpha": alpha, "d": d, "log_q": log_q, "m": m}
    rfp = rho_fp_value(model, math.exp(log_q), m)
    asm = assumption_holds(model)
    checks = [
        _le_check("rho_fp_near_one", rfp.value, 1.5,
                  "m = 0.1 n / (alpha^2 log(1/alpha)^{3/2} log q); leading constant "
                  "calibrated, not pinned by theory"),
        ScenarioCheck("correlation_nonneg", asm.min_value, -_CORRELATION_TOL, ">=", asm.passed,
                      "slab kernel >= 1 pointwise (correlation inequality instance)"),
    ]
    return ScenarioResult("slab-truncation", params, checks)


def _exact_tail_q(model: ModelSpec, target_mass: float) -> float:
    """q pinned so that q^{-2} is an exact tail level of rho_G: the
    largest level tail mass <= target_mass.  At such q the strict
    rho_G-FP event has mass exactly 1 - q^{-2}, which keeps it feasible
    for the GFP infimum (the premise behind GFP <= rho_G-FP)."""
    best = next((s for s in model.atom_table.rho.tails if 0.0 < s <= target_mass), None)
    if best is None:
        raise ValueError("no rho_G tail level at or below the target mass")
    return float(best) ** -0.5


def _ngca_si_common(
    name: str, desc: dict, m: int, q: float | None, note: str
) -> ScenarioResult:
    model = build_model(desc)
    if q is None:
        # discrete sparse priors: pin q^{-2} to an exact rho_G tail level
        q = _exact_tail_q(model, math.exp(-4.0))
    params = {"descriptor": desc, "m": m, "q": q}
    rfp = rho_fp_value(model, q, m)
    gfp = gfp_value(model, q, m)
    asm = assumption_holds(model)
    checks = [
        _le_check("rho_fp_near_one", rfp.value, 2.0, note),
        _le_check("gfp_le_rho_fp", gfp.value, rfp.value + 1e-8,
                  "the event optimizer can only improve on the rho_G event"),
        ScenarioCheck("correlation_nonneg", asm.min_value, -_CORRELATION_TOL, ">=", asm.passed,
                      "sign-flip averaging"),
    ]
    return ScenarioResult(name, params, checks)


def _scenario_ngca_uniform() -> ScenarioResult:
    n, eps = 400, 0.25
    desc = {
        "model": "ngca",
        "mu": {"kind": "gaussian", "mean": 0.0, "var": 1.5},
        "prior": {"kind": "sphere", "n": n},
        "max_degree": 80,
    }
    nu2_sq = 0.125  # ((var - 1)/sqrt(2))^2 at var = 1.5; generative exponent 2
    q = math.exp(n**eps)
    m = math.floor((1.0 / nu2_sq) * n ** (1.0 - eps))  # s*/2 - eps exponent at s* = 2
    return _ngca_si_common(
        "ngca-uniform", desc, m, q,
        f"m = nu_2^-2 n^(s*/2 - eps) = {m} on the uniform sphere prior",
    )


def _scenario_ngca_sparse() -> ScenarioResult:
    n, k, eps = 60, 8, 0.25
    desc = {
        "model": "ngca",
        "mu": {"kind": "atoms", "values": [-1.0, 1.0], "probs": [0.5, 0.5]},
        "prior": {"kind": "signed_sparse", "n": n, "k": k},
        "max_degree": 40,
    }
    nu4_sq = 1.0 / 6.0  # Rademacher marginal: generative exponent 4
    C = 0.01  # calibrated, not pinned by theory
    m = max(1, math.floor(C * (1.0 / nu4_sq) * min(n**2.0, float(k**4)) * n**-eps))
    return _ngca_si_common(
        "ngca-sparse", desc, m, None,
        f"m = C nu_4^-2 min(n^2, k^4) n^-eps = {m} (C calibrated, not pinned by theory)",
    )


def _scenario_si_uniform() -> ScenarioResult:
    n, eps = 400, 0.25
    desc = {
        "model": "si",
        "link": {"kind": "sign"},
        "prior": {"kind": "sphere", "n": n},
        "max_degree": 80,
    }
    lam1_sq = 2.0 / math.pi
    q = math.exp(n**eps)
    m = max(1, math.floor((1.0 / lam1_sq) * n ** (0.5 - eps)))
    return _ngca_si_common(
        "si-uniform", desc, m, q,
        f"m = lambda_1^-2 n^(s*/2 - eps) = {m} (sign link, s* = 1)",
    )


def _scenario_si_sparse() -> ScenarioResult:
    n, k, eps = 60, 8, 0.25
    desc = {
        "model": "si",
        "link": {"kind": "sign"},
        "prior": {"kind": "signed_sparse", "n": n, "k": k},
        "max_degree": 40,
    }
    lam1_sq = 2.0 / math.pi
    m = max(1, math.floor((1.0 / lam1_sq) * min(math.sqrt(n), float(k)) * n**-eps))
    return _ngca_si_common(
        "si-sparse", desc, m, None,
        f"m = lambda_1^-2 min(sqrt n, k) n^-eps = {m} (sign link, sparse prior)",
    )


def _scenario_dense_clique() -> ScenarioResult:
    n = 10_000
    p = 1.0 - n**-0.25
    k = round(n ** (1.0 / 3.0))
    model = build_model({"model": "dense_clique", "n": n, "k": k, "p": p})
    diag_mass = float(model.law.probs[-1])
    q_sq = diag_mass**-0.5
    q_gfp = math.exp(n ** (1.0 / 32.0))
    m = max(1, round(n ** (1.0 / 8.0)))
    params = {"n": n, "p": p, "k": k, "q_sq": q_sq, "q_gfp": q_gfp, "m": m}
    sq = sq_value(model, q_sq)
    gfp = gfp_value(model, q_gfp, m)
    checks = [
        _ge_check("sq_value_large", sq.value, 100.0,
                  "conditional mean on the diagonal level; the task is SQ-easy"),
        _le_check("gfp_near_one", gfp.value, math.exp(0.01),
                  "exact hypergeometric exclusion of the high-overlap tail"),
    ]
    return ScenarioResult("dense-clique", params, checks)


def _scenario_dirac() -> ScenarioResult:
    n = 20
    model = build_model({"model": "dirac", "n": n})
    diag_mass = float(model.law.probs[-1] if model.law.values[-1] == 1.0 else model.law.probs[0])
    q = diag_mass**-0.5
    params = {"n": n, "q_gfp": q}
    sq = sq_value(model, 1, m=1)
    gfp = gfp_value(model, q, 1)
    checks = [
        _ge_check("sq_value_exceeds_one", sq.value, 1.0 + 1e-9,
                  "E|K - 1| >= (2^n - 1) / #slice; not SQ-hard even at q = m = 1"),
        _le_check("gfp_exactly_zero", gfp.value, 0.0,
                  "excluding the diagonal zeroes the kernel integral"),
    ]
    return ScenarioResult("dirac", params, checks)


# ---------------------------------------------------------------------------
# Randomized equivalence harness (cmd_check and the acceptance suite)
# ---------------------------------------------------------------------------


def random_assumption_model(seed: int) -> tuple[ModelSpec, float, int]:
    """A random 10-atom discrete model with K - 1 in (0, 0.3] (so the
    correlation condition holds with the trivial group), together with a
    (q, m) pair at which the cross-criterion premises hold:

    - the two largest-deviation atoms carry mass 2^-6 each, so
      q = (2^-5)^{-1/2} sits at an exact rho_G tail level and the strict
      rho_G-FP event has mass exactly 1 - q^{-2};
    - m is the largest even integer with SQ(q) <= 1/m, capped at 40.
    """
    rng = np.random.default_rng(seed)
    values = np.sort(rng.uniform(-1.0, 1.0, 10))
    eta = rng.uniform(0.02, 0.3, 10)
    order = np.argsort(eta)[::-1]
    probs = np.zeros(10)
    probs[order[0]] = probs[order[1]] = 0.015625
    rest = rng.dirichlet(np.ones(8))
    probs[order[2:]] = rest / rest.sum() * 0.96875
    model = build_model({
        "model": "synthetic",
        "values": values.tolist(),
        "probs": probs.tolist(),
        "kernel_values": (1.0 + eta).tolist(),
    })
    q = 0.03125**-0.5
    sq = sq_value(model, q).value
    m = 2 * max(1, min(20, math.floor(1.0 / (2.0 * sq))))
    return model, q, m


def equivalence_suite(num_models: int = 100, base_seed: int = 0) -> dict:
    """Run the cross-criterion inequality battery over randomized
    models; returns counts and the first failure (if any)."""
    from fpsq.criteria import check_equivalence_bounds

    violations = 0
    premise_failed = 0
    first_failure = None
    for i in range(num_models):
        model, q, m = random_assumption_model(base_seed + i)
        rep = check_equivalence_bounds(model, q, m)
        for name, chk in rep.checks.items():
            if isinstance(chk, dict) and chk.get("status") == "premise-failed":
                premise_failed += 1
        if not rep.passed:
            violations += 1
            if first_failure is None:
                first_failure = {"seed": base_seed + i, "checks": rep.checks}
    return {
        "models": num_models,
        "violations": violations,
        "premise_failed_checks": premise_failed,
        "first_failure": first_failure,
    }


SCENARIOS = {
    "mslr": _scenario_mslr,
    "counterexample": _scenario_counterexample,
    "slab-truncation": _scenario_slab,
    "ngca-uniform": _scenario_ngca_uniform,
    "ngca-sparse": _scenario_ngca_sparse,
    "si-uniform": _scenario_si_uniform,
    "si-sparse": _scenario_si_sparse,
    "dense-clique": _scenario_dense_clique,
    "dirac": _scenario_dirac,
}


def run_scenario(name: str) -> ScenarioResult:
    try:
        runner = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        ) from None
    return runner()
