"""Independent validators for the closed-form kernels.

Three oracle families, none of which share code paths with the kernels
they check:

- seeded Monte Carlo simulation of the generative model under the null
  (mSLR: sample (x, y) ~ Q and average the two-branch likelihood-ratio
  product directly);
- exact enumeration (the +-1 product model: sum over all 2^{n+1} sign
  vectors with uniform weights);
- deterministic quadrature (NGCA: tensor Gauss-Hermite integration of
  the density-ratio product on a correlated Gaussian pair; slab: 1D
  adaptive integration of the bivariate-normal rectangle probability).

Every estimate carries an error bound: exactly 0 for enumeration, a
node-doubling difference for quadrature, and three empirical standard
errors for Monte Carlo (acceptance gates on the band, never on a fixed
absolute tolerance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fpsq.kernels import ModelSpec, ngca_density_ratio
from fpsq.laws import sample as law_sample
from fpsq.laws import ResourceLimitError, threshold_sup
from fpsq.numerics import gauss_hermite_rule, normal_cdf

_MC_CHUNK = 250_000  # Monte Carlo draws per vectorized batch


@dataclass(frozen=True)
class OracleEstimate:
    """Estimate plus a certified (or 3-sigma) error bound."""

    value: float
    error_bound: float
    method: str
    seed: int | None = None
    num_samples: int | None = None

    def __post_init__(self) -> None:
        if self.error_bound < 0.0:
            raise ValueError("error_bound must be nonnegative")


def mc_kernel_mslr(
    k: int,
    sigma2: float,
    u: np.ndarray,
    v: np.ndarray,
    num_samples: int = 1_000_000,
    seed: int = 0,
) -> OracleEstimate:
    """Monte Carlo estimate of <L_u, L_v>_Q for mixed sparse linear
    regression: draw (x, y) ~ Q and average L_u(x, y) L_v(x, y) with

        L_u = (lam/2) [ exp(-(lam^2-1) y^2/2 + (lam/s) y <x,u> - <x,u>^2/(2 s^2))
                      + exp(-(lam^2-1) y^2/2 - (lam/s) y <x,u> - <x,u>^2/(2 s^2)) ],

    lam = sqrt(k/s^2 + 1).  Only the coordinates in supp(u) u supp(v)
    enter the two projections, so x is drawn on that union.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim != 1 or v.shape != u.shape:
        raise ValueError("u and v must be 1D arrays of equal length")
    if not (set(np.unique(u)) <= {0.0, 1.0} and set(np.unique(v)) <= {0.0, 1.0}):
        raise ValueError("u and v must be binary vectors")
    if int(u.sum()) != k or int(v.sum()) != k:
        raise ValueError(f"u and v must be k-sparse with k = {k}")
    sigma = math.sqrt(sigma2)
    lam = math.sqrt(k / sigma2 + 1.0)
    support = np.flatnonzero((u > 0) | (v > 0))
    u_s, v_s = u[support], v[support]

    def l_ratio(proj: np.ndarray, y: np.ndarray) -> np.ndarray:
        base = -0.5 * (lam * lam - 1.0) * y * y - proj * proj / (2.0 * sigma2)
        cross = (lam / sigma) * y * proj
        return 0.5 * lam * (np.exp(base + cross) + np.exp(base - cross))

    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < num_samples:
        size = min(_MC_CHUNK, num_samples - done)
        x = rng.standard_normal((size, support.size))
        y = rng.standard_normal(size)
        vals = l_ratio(x @ u_s, y) * l_ratio(x @ v_s, y)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += size
    mean = total / num_samples
    var = max(total_sq / num_samples - mean * mean, 0.0)
    se = math.sqrt(var / num_samples)
    return OracleEstimate(mean, 3.0 * se, "monte-carlo", seed=seed, num_samples=num_samples)


def enum_kernel_counterexample(
    n: int, r: float, alpha_c: float, u: np.ndarray, v: np.ndarray
) -> OracleEstimate:
    """Exact <L_u, L_v>_Q for the +-1 product model by summing

        L_u(x) = prod_i (1 + r x_i [1 - (1 - alpha_c) u_i])

    over all x in {-1, +1}^{n+1} with uniform weights.  Requires
    n + 1 <= 15 coordinates (2^{n+1} terms)."""
    if n + 1 > 15:
        raise ResourceLimitError(f"enumeration limited to n + 1 <= 15 coordinates, got n = {n}")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (n + 1,) or v.shape != (n + 1,):
        raise ValueError(f"u and v must have n + 1 = {n + 1} coordinates")
    dim = n + 1
    codes = np.arange(2**dim, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(dim)) & 1
    x = 1.0 - 2.0 * bits  # {0,1} -> {+1,-1}
    lu = np.prod(1.0 + r * x * (1.0 - (1.0 - alpha_c) * u), axis=1)
    lv = np.prod(1.0 + r * x * (1.0 - (1.0 - alpha_c) * v), axis=1)
    value = float(np.mean(lu * lv))
    return OracleEstimate(value, 0.0, "enumeration")


def quad_kernel_ngca(mu_spec: dict, rho: float, num_nodes: int = 200) -> OracleEstimate:
    """<L_u, L_v>_Q for an NGCA marginal mu, computed directly as
    E[g(S) g(T)] with g = dmu/dphi and (S, T) bivariate standard normal
    with correlation rho, by tensor Gauss-Hermite quadrature on the
    Cholesky pair (S, T) = (Z1, rho Z1 + sqrt(1 - rho^2) Z2).

    The error bound is twice the node-doubling difference.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
    ratio = ngca_density_ratio(mu_spec)
    if ratio is None:
        raise ValueError(f"mu descriptor {mu_spec.get('kind')!r} has no pointwise density ratio")

    def value_at(nn: int) -> float:
        rule = gauss_hermite_rule(nn)
        z = rule.nodes
        w = rule.weights
        if abs(abs(rho) - 1.0) <= 1e-15:
            s = ratio(z)
            t = ratio(math.copysign(1.0, rho) * z)
            return float(np.dot(w, s * t))
        c = math.sqrt(1.0 - rho * rho)
        g1 = ratio(z)
        inner = rho * z[:, None] + c * z[None, :]
        with np.errstate(over="ignore"):
            vals = g1[:, None] * ratio(inner)
            out = float(w @ vals @ w)
        if math.isfinite(out):
            return out
        # extreme tail nodes can overflow the linear product even though
        # the weighted sum is moderate; redo the sum in log space
        from scipy.special import logsumexp

        with np.errstate(divide="ignore"):
            log_terms = (
                np.log(g1)[:, None] + np.log(ratio(inner))
                + np.log(w)[:, None] + np.log(w)[None, :]
            )
        return float(np.exp(logsumexp(log_terms)))

    half = max(num_nodes // 2, 2)
    v_half = value_at(half)
    v_full = value_at(num_nodes)
    bound = 2.0 * abs(v_full - v_half) + 1e-12
    return OracleEstimate(v_full, bound, "quadrature")


def bvn_rectangle(kappa: float, rho: float) -> OracleEstimate:
    """P(|Z1| <= kappa, |Z2| <= kappa) under correlation rho, by the 1D
    reduction

        int_{-kappa}^{kappa} phi(z) [Phi((kappa - rho z)/s) - Phi((-kappa - rho z)/s)] dz,

    s = sqrt(1 - rho^2); at |rho| = 1 it degenerates to 2 Phi(kappa) - 1.
    """
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
    if abs(abs(rho) - 1.0) <= 1e-15:
        return OracleEstimate(2.0 * normal_cdf(kappa) - 1.0, 1e-14, "quadrature")
    s = math.sqrt(1.0 - rho * rho)
    inv_sqrt2pi = 1.0 / math.sqrt(2.0 * math.pi)

    def integrand(z: float) -> float:
        phi = inv_sqrt2pi * math.exp(-0.5 * z * z)
        return phi * (normal_cdf((kappa - rho * z) / s) - normal_cdf((-kappa - rho * z) / s))

    from scipy import integrate

    value, abserr = integrate.quad(integrand, -kappa, kappa, epsabs=1e-13, epsrel=1e-12, limit=300)
    return OracleEstimate(float(value), max(10.0 * abserr, 1e-12), "quadrature")


def mc_criterion(
    model: ModelSpec,
    criterion: str,
    q: float | None,
    m: int,
    num_pairs: int = 1_000_000,
    seed: int = 0,
) -> OracleEstimate:
    """Monte Carlo validation of an exact criterion sum: draw statistic
    values from the overlap law and average the criterion integrand
    (thresholds are still computed exactly).

    criterion: "fp", "rho_fp" (event indicators included) or "chi2"
    (E[K^m] - 1)."""
    if criterion not in ("fp", "rho_fp", "chi2"):
        raise ValueError(f"unsupported Monte Carlo criterion {criterion!r}")
    draws = law_sample(model.law, seed, num_pairs)

    if criterion == "fp":
        if model.euclid_overlap is None:
            raise ValueError("model exposes no Euclidean overlap")
        thr = threshold_sup(model.law, float(q) ** -2, transform=lambda t: abs(model.euclid_overlap(t)))
        keep = lambda t: abs(model.euclid_overlap(t)) <= thr.threshold * (1.0 + 1e-12)
    elif criterion == "rho_fp":
        thr = threshold_sup(model.law, float(q) ** -2, transform=model.rho_g)
        keep = lambda t: model.rho_g(t) < thr.threshold * (1.0 - 1e-12)
    else:
        keep = lambda t: True

    def integrand(t) -> float:
        if not keep(t):
            return -1.0 if criterion == "chi2" else 0.0
        lv = model.kernel.log_eval(t)
        val = 0.0 if lv is None else math.exp(m * lv)
        return val - 1.0 if criterion == "chi2" else val

    # Group the draws by atom before evaluating: identical to averaging
    # the per-draw integrand, but one kernel call per distinct value.
    if model.law.statistic == "pair_counts":
        counts: dict = {}
        for t in draws:
            counts[t] = counts.get(t, 0) + 1
        pairs = [(integrand(t), c) for t, c in counts.items()]
    else:
        uniq, cnt = np.unique(np.asarray(draws, dtype=float), return_counts=True)
        pairs = [(integrand(t), int(c)) for t, c in zip(uniq, cnt)]
    total = math.fsum(v * c for v, c in pairs)
    total_sq = math.fsum(v * v * c for v, c in pairs)
    mean = total / num_pairs
    var = max(total_sq / num_pairs - mean * mean, 0.0)
    se = math.sqrt(var / num_pairs)
    return OracleEstimate(mean, 3.0 * se, "monte-carlo", seed=seed, num_samples=num_pairs)
