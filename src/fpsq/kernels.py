"""Closed-form likelihood-ratio inner-product kernels K(t) = <L_u, L_v>_Q.

Every supported planted-vs-null model admits a kernel that factors
through the overlap statistic of the signal pair:

- Gaussian additive:            K(t) = exp(lambda^2 t)
- mixed sparse linear regression: K(ell) = (1 - (ell/(k+sigma^2))^2)^{-1}
- non-Gaussian component analysis: K(t) = 1 + sum_{i>=s*} nu_i^2 t^i,
  nu_i = E_{z~mu}[h_i(z)]
- single-index:                 K(t) = 1 + sum_{i>=s*} lambda_i^2 t^i,
  lambda_i = || E[h_i(z) | y] ||_{mu_y}
- slab truncation:              K(rho) = 1 + (1-a)^{-2} sum_{i>=1} f_{2i}^2 rho^{2i},
  f_i the Hermite weights of 1(|z| <= kappa), Phi(kappa) = 1 - a/2
- Rademacher-perturbation counterexample (pair counts (a, b, c)):
  K = (1+r^2)^a (1+r^2 c_a)^b (1+r^2 c_a^2)^c with c_a the per-coordinate
  attenuation (named alpha_c to avoid clashing with the truncation alpha)
- dense planted clique:         K(ell) = p^{-C(ell,2)}
- Dirac:                        K = 2^n on the diagonal, exactly 0 off it.

Kernels are exposed in log space.  Exact zeros (the Dirac off-diagonal,
a truncated series summing to 0) are represented by log_eval returning
None rather than -inf so that criteria can short-circuit to exact 0.
Group actions on the statistic (trivial or Z_2 sign flip) provide the
orbits behind rho_G and the correlation-inequality averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from fpsq.laws import (
    Levels,
    OverlapLaw,
    ShapeGrid,
    Statistic,
    check_even_nondecreasing,
    make_law,
    nondecreasing,
)
from fpsq.numerics import (
    gauss_hermite_rule,
    hermite_matrix,
    normal_pdf,
    normal_quantile,
    symmetric_indicator_coeffs,
    symmetric_indicator_tail,  # noqa: F401  (the benchmark traces this attribute)
)

COEFF_TOL = 1e-10  # |nu_i| below this is treated as a vanishing coefficient
_S_STAR_SCAN = 20  # how many leading coefficients must vanish to flag K = 1
_PRESERVE_TOL = 1e-12  # mass mismatch GroupSpec.preserves allows between t and -t


class SingularityError(ValueError):
    """Kernel evaluated at a statistic value outside its finite domain."""


def _series_sum(series: Iterable[tuple[int, float]], x: float) -> float:
    """sum c_i x^i over the (i, c_i) pairs of series, correctly rounded."""
    return math.fsum(c * x**i for i, c in series)


def _minus_one(lv: float | None) -> float:
    """K - 1 from log K: -1 at an exact zero, inf beyond log K = 700."""
    if lv is None:
        return -1.0
    return math.inf if lv > 700.0 else math.expm1(lv)


@dataclass(frozen=True)
class Kernel:
    """log K plus optional power-series data.

    series lists (degree, coefficient) pairs with nonnegative
    coefficients such that K(t) = 1 + sum c_i t^i (+ tail) on the
    kernel's domain; series_total, when known, is the full sum of the
    coefficients (used for truncation-tail bounds at |t| < 1).
    """

    name: str
    domain: str  # "scalar" or "pair_counts"
    log_fn: Callable[[Statistic], float | None]
    series: tuple[tuple[int, float], ...] | None = None
    series_total: float | None = None
    extras: dict = field(default_factory=dict)

    def log_eval(self, t: Statistic) -> float | None:
        """Natural log of K(t); None encodes an exact kernel zero."""
        return self.log_fn(t)

    def eval(self, t: Statistic) -> float:
        lv = self.log_eval(t)
        if lv is None:
            return 0.0
        try:
            return math.exp(lv)
        except OverflowError:
            return math.inf

    def minus_one(self, t: Statistic) -> float:
        """K(t) - 1, computed as expm1 for precision near 1."""
        return _minus_one(self.log_eval(t))

    def truncated_minus_one(self, t: float, d: int) -> float:
        """K_d(t) - 1 = sum_{degree <= d} c_i t^i (series kernels only)."""
        if self.series is None:
            raise ValueError(f"kernel {self.name!r} carries no series; d < inf unsupported")
        return _series_sum(((i, c) for i, c in self.series if i <= d), t)

    def tail_bound(self, t: float) -> float | None:
        """Bound on the series remainder beyond the stored degrees.

        Uses sum_{i > D} c_i <= series_total - partial and the geometric
        envelope |t|^{D+1} / (1 - |t|); None when the total coefficient
        mass is unknown or |t| >= 1.
        """
        if self.series is None or self.series_total is None:
            return None
        at = abs(t)
        if at >= 1.0:
            return None
        partial = math.fsum(c for _, c in self.series)
        remaining = max(self.series_total - partial, 0.0)
        top = max((i for i, _ in self.series), default=0)
        return remaining * at ** (top + 1) / (1.0 - at)


@dataclass(frozen=True)
class GroupSpec:
    """Finite statistic-space action: trivial or Z_2 sign flip."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("trivial", "sign_flip"):
            raise ValueError(f"unknown group kind {self.kind!r}")

    @property
    def order(self) -> int:
        return 1 if self.kind == "trivial" else 2

    def orbit(self, t: Statistic) -> list[Statistic]:
        """Distinct statistic values in the orbit of t."""
        return [t] if self.kind == "trivial" or t == -t else [t, -t]

    def mirror(self, values: Sequence[Statistic]) -> tuple[np.ndarray, np.ndarray]:
        """Per atom of a sorted law, the index of the atom at -t (itself
        under the trivial group or where no atom sits at -t) and that mask."""
        own = np.arange(len(values))
        if self.kind == "trivial":
            return own, np.zeros(len(values), dtype=bool)
        v = np.asarray(values, dtype=float)
        at = np.minimum(np.searchsorted(v, -v), len(v) - 1)
        lone = v[at] != -v
        return np.where(lone, own, at), lone

    def preserves(self, law: OverlapLaw) -> bool:
        """Pushforward-equality check of the law under the action."""
        if self.kind == "trivial":
            return True
        if law.statistic != "scalar":
            return False
        if law.kind == "discrete":
            table = dict(law.atoms)
            return all(abs(table.get(-v, 0.0) - p) <= _PRESERVE_TOL for v, p in law.atoms)
        mid = 0.5 * (law.support[0] + law.support[1])
        return abs(mid) <= _PRESERVE_TOL and abs(law.cdf(-0.3) - (1.0 - law.cdf(0.3))) <= 1e-9


def rho_g(kernel: Kernel, group: GroupSpec, t: Statistic) -> float:
    """Group-maximized kernel deviation max_{g,g'} |K(T(g(u),g'(v))) - 1| over the orbit."""
    return max(abs(kernel.minus_one(s)) for s in group.orbit(t))


# ---------------------------------------------------------------------------
# Kernel constructors
# ---------------------------------------------------------------------------


def gam_kernel(lam: float, max_degree: int = 64) -> Kernel:
    """Gaussian additive model: K(t) = exp(lambda^2 t).

    Series coefficients lambda^{2i} / i!; their total mass is
    exp(lambda^2) - 1.
    """
    if lam < 0.0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    l2 = lam * lam
    series = []
    if l2 > 0.0:
        log_c = 0.0
        for i in range(1, max_degree + 1):
            log_c += math.log(l2) - math.log(i)
            series.append((i, math.exp(log_c)))
    return Kernel(
        name="gam",
        domain="scalar",
        log_fn=lambda t: l2 * float(t),
        series=tuple(series),
        series_total=math.expm1(l2),
        extras={"lambda": lam},
    )


def mslr_kernel(k: int, sigma2: float) -> Kernel:
    """Mixed sparse linear regression: K(ell) = (1 - (ell/(k+s^2))^2)^{-1}."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if sigma2 <= 0.0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    scale = k + sigma2

    def log_fn(t: Statistic) -> float:
        x = float(t) / scale
        if abs(x) >= 1.0:
            raise SingularityError(
                f"mSLR kernel singular at |ell| >= k + sigma2 = {scale}, got ell = {t}"
            )
        return -math.log1p(-x * x)

    return Kernel(
        name="mslr",
        domain="scalar",
        log_fn=log_fn,
        extras={"k": k, "sigma2": sigma2, "snr": k / sigma2},
    )


def _series_kernel(
    name: str,
    coeffs_sq: Sequence[float],
    s_star: int | None,
    total: float | None,
    extras: dict,
) -> Kernel:
    """Kernel 1 + sum_{i >= s*} c_i t^i from squared coefficients c_i."""
    series = tuple(
        (i, c) for i, c in enumerate(coeffs_sq) if i >= 1 and c > 0.0 and (s_star is None or i >= s_star)
    )

    def log_fn(t: Statistic) -> float | None:
        x = float(t)
        acc = _series_sum(series, x)
        if acc < -1.0:
            raise SingularityError(f"{name} kernel series is negative at t = {t}")
        return None if acc == -1.0 else math.log1p(acc)

    return Kernel(
        name=name,
        domain="scalar",
        log_fn=log_fn,
        series=series,
        series_total=total,
        extras=extras,
    )


def _gaussian_he_moments(mean: float, var: float, max_degree: int) -> list[float]:
    """E[He_i(z)] for z ~ N(mean, var) via the Stein recurrence
    m_i = mean m_{i-1} + (i - 1)(var - 1) m_{i-2}."""
    out = [1.0, mean]
    for i in range(2, max_degree + 1):
        out.append(mean * out[i - 1] + (i - 1) * (var - 1.0) * out[i - 2])
    return out[: max_degree + 1]


def _log_factorial_half(i: int) -> float:
    return 0.5 * math.lgamma(i + 1)


def _gaussian_parts(mu_spec: dict) -> list[tuple[float, float, float]] | None:
    """(weight, mean, var) of each component of a Gaussian-mixture mu, a
    "gaussian" being the one-component mixture; None for any other kind."""
    kind = mu_spec.get("kind")
    if kind == "gaussian":
        return [(1.0, float(mu_spec["mean"]), float(mu_spec["var"]))]
    if kind != "gaussian_mixture":
        return None
    weights = [float(w) for w in mu_spec["weights"]]
    if abs(sum(weights) - 1.0) > 1e-12 or any(w < 0 for w in weights):
        raise ValueError("mixture weights must be a probability vector")
    return [(w, float(m), float(v)) for w, m, v in zip(weights, mu_spec["means"], mu_spec["vars"])]


def ngca_nu_coeffs(mu_spec: dict, max_degree: int) -> list[float]:
    """nu_i = E_{z~mu}[h_i(z)] for the supported marginal descriptors."""
    kind = mu_spec.get("kind")
    parts = _gaussian_parts(mu_spec)
    if parts is not None:
        nus = np.zeros(max_degree + 1)
        for w, mean, var in parts:
            moments = _gaussian_he_moments(mean, var, max_degree)
            nus += w * np.array(
                [m * math.exp(-_log_factorial_half(i)) for i, m in enumerate(moments)]
            )
        return [float(v) for v in nus]
    if kind == "atoms":
        values = np.asarray(mu_spec["values"], dtype=float)
        probs = np.asarray(mu_spec["probs"], dtype=float)
        if probs.shape != values.shape or abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("atom probabilities must match values and sum to 1")
        basis = hermite_matrix(max_degree, values)
        return [float(v) for v in basis @ probs]
    if kind == "uniform_symmetric":
        w = float(mu_spec["half_width"])
        if w <= 0.0:
            raise ValueError(f"half_width must be positive, got {w}")
        # exact antiderivative: int_{-w}^{w} h_i dz = 2 h_{i+1}(w) sqrt(i+1) ... / ...
        basis = hermite_matrix(max_degree + 1, np.array([w]))
        out = [1.0]
        for i in range(1, max_degree + 1):
            if i % 2 == 1:
                out.append(0.0)
            else:
                out.append(float(basis[i + 1, 0]) / (w * math.sqrt(i + 1)))
        return out
    if kind == "hermite_moments":
        vals = [float(v) for v in mu_spec["values"]]
        if not vals or vals[0] != 1.0:
            raise ValueError("hermite_moments must start with E[He_0] = 1")
        vals = vals[: max_degree + 1] + [0.0] * max(0, max_degree + 1 - len(vals))
        return [m * math.exp(-_log_factorial_half(i)) for i, m in enumerate(vals)]
    raise ValueError(f"unsupported mu descriptor kind {kind!r}")


def ngca_density_ratio(mu_spec: dict) -> Callable[[np.ndarray], np.ndarray] | None:
    """(dmu/dphi)(z) when mu has a density; None for discrete mu."""
    kind = mu_spec.get("kind")
    parts = _gaussian_parts(mu_spec)
    if parts is not None:
        def ratio(z: np.ndarray) -> np.ndarray:
            z = np.asarray(z, dtype=float)
            out = np.zeros_like(z)
            for w, m, v in parts:
                out += w * np.exp(0.5 * z * z - 0.5 * (z - m) ** 2 / v) / math.sqrt(v)
            return out

        return ratio
    if kind == "uniform_symmetric":
        w = float(mu_spec["half_width"])

        def ratio(z: np.ndarray) -> np.ndarray:
            z = np.asarray(z, dtype=float)
            out = np.zeros_like(z)
            inside = np.abs(z) <= w
            out[inside] = math.sqrt(2.0 * math.pi) / (2.0 * w) * np.exp(0.5 * z[inside] ** 2)
            return out

        return ratio
    return None


def _chi2_of_mu(mu_spec: dict, num_nodes: int = 400) -> float | None:
    """sum_i nu_i^2 = chi^2(mu || N(0,1)), by quadrature of the squared
    density ratio; None when unavailable or divergent."""
    ratio = ngca_density_ratio(mu_spec)
    if ratio is None:
        return None
    try:
        vals = []
        with np.errstate(over="ignore", invalid="ignore"):
            for nn in (num_nodes // 2, num_nodes):
                rule = gauss_hermite_rule(nn)
                vals.append(rule.expect(lambda z: ratio(z) ** 2) - 1.0)
        if not all(math.isfinite(v) for v in vals):
            return None
        if abs(vals[1] - vals[0]) > 1e-6 * max(1.0, abs(vals[1])):
            return None  # not converged: treat the total as unknown
        return max(vals[1], 0.0)
    except OverflowError:
        return None


def _find_s_star(coeffs: Sequence[float]) -> int | None:
    for i, c in enumerate(coeffs):
        if i >= 1 and abs(c) > COEFF_TOL:
            return i
    return None


def ngca_kernel(mu_spec: dict, max_degree: int) -> Kernel:
    """Non-Gaussian component analysis kernel 1 + sum_{i>=s*} nu_i^2 t^i.

    extras carry the nu coefficients, the generative exponent s* (first
    i >= 1 with |nu_i| > COEFF_TOL; None when the leading coefficients all
    vanish, i.e. the planted marginal is Gaussian to this depth).
    """
    if max_degree < 1:
        raise ValueError("max_degree must be positive")
    nu = ngca_nu_coeffs(mu_spec, max_degree)
    s_star = _find_s_star(nu)
    flag = s_star is None and max_degree >= _S_STAR_SCAN
    total = _chi2_of_mu(mu_spec)
    return _series_kernel(
        "ngca",
        [c * c for c in nu],
        s_star,
        total,
        extras={
            "nu": tuple(nu),
            "s_star": s_star,
            "mu": dict(mu_spec),
            "degenerate": bool(flag or (s_star is None)),
        },
    )


def si_lambda_coeffs(joint_spec: dict, max_degree: int) -> tuple[list[float], int | None]:
    """lambda_i = ||E[h_i(z) | y]||_{mu_y} for the supported links, plus
    the generative exponent s*.

    Links: identity (y = z), sign (y = sign z), abs (y = |z|),
    gaussian_noise (y = z + N(0, tau2)).  The first three have exact
    conditional expectations; the noisy link uses the closed posterior
    contraction E[h_i(z) | y] = (1+tau2)^{-i/2} h_i(y / sqrt(1+tau2)).
    """
    kind = joint_spec.get("kind")
    if max_degree < 1:
        raise ValueError("max_degree must be positive")
    lambdas = [1.0]
    if kind == "identity":
        lambdas += [1.0] * max_degree
    elif kind == "abs":
        lambdas += [0.0 if i % 2 else 1.0 for i in range(1, max_degree + 1)]
    elif kind == "sign":
        # zeta_i(+-1) = +-2 He_{i-1}(0) phi(0) / sqrt(i!) for odd i, 0 even
        p0 = normal_pdf(0.0)
        for i in range(1, max_degree + 1):
            if i % 2 == 0:
                lambdas.append(0.0)
            else:
                j = (i - 1) // 2
                log_dfact = math.lgamma(i) - (j * math.log(2.0) + math.lgamma(j + 1))
                lambdas.append(2.0 * p0 * math.exp(log_dfact - 0.5 * math.lgamma(i + 1)))
    elif kind == "gaussian_noise":
        tau2 = float(joint_spec["tau2"])
        if tau2 <= 0.0:
            raise ValueError(f"tau2 must be positive, got {tau2}")
        lambdas += [(1.0 + tau2) ** (-0.5 * i) for i in range(1, max_degree + 1)]
    elif kind == "independent":
        lambdas += [0.0] * max_degree
    else:
        raise ValueError(f"unsupported single-index link {kind!r}")
    s_star = _find_s_star(lambdas)
    return lambdas, s_star


def si_kernel(joint_spec: dict, max_degree: int) -> Kernel:
    """Single-index kernel 1 + sum_{i>=s*} lambda_i^2 t^i."""
    lambdas, s_star = si_lambda_coeffs(joint_spec, max_degree)
    kind = joint_spec.get("kind")
    totals = {
        "sign": 1.0,  # E_Q[(2 1(y = sign z))^2] - 1
        "gaussian_noise": (1.0 / float(joint_spec.get("tau2", 1.0))) if kind == "gaussian_noise" else None,
        "independent": 0.0,
    }
    return _series_kernel(
        "si",
        [c * c for c in lambdas],
        s_star,
        totals.get(kind),
        extras={
            "lambda": tuple(lambdas),
            "s_star": s_star,
            "link": dict(joint_spec),
            "degenerate": s_star is None,
        },
    )


def slab_kernel(alpha: float, max_degree: int) -> Kernel:
    """Convex slab truncation: K(rho) = Q(K_u n K_v) / (1-alpha)^2.

    Expanding the slab indicator 1(|z| <= kappa) with Phi(kappa) =
    1 - alpha/2 gives K(rho) = 1 + (1-alpha)^{-2} sum_{i>=1} f_{2i}^2
    rho^{2i}; odd weights vanish by symmetry, and Parseval pins the
    total sum_{i>0} f_i^2 = alpha (1-alpha).  At |rho| = 1 the slabs
    coincide and K = 1/(1-alpha) exactly.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if max_degree < 2 or max_degree % 2:
        raise ValueError(f"max_degree must be a positive even integer, got {max_degree}")
    kappa = normal_quantile(1.0 - alpha / 2.0)
    f = symmetric_indicator_coeffs(kappa, max_degree)
    scale = (1.0 - alpha) ** -2
    series = tuple(
        (i, scale * c * c) for i, c in enumerate(f.coefficients) if i >= 2 and i % 2 == 0
    )
    edge = -math.log1p(-alpha)

    def log_fn(t: Statistic) -> float:
        x = float(t)
        if abs(x) > 1.0 + 1e-12:
            raise ValueError(f"slab kernel domain is [-1, 1], got {t}")
        if abs(abs(x) - 1.0) <= 1e-15:
            return edge
        return math.log1p(_series_sum(series, x))

    return Kernel(
        name="slab",
        domain="scalar",
        log_fn=log_fn,
        series=series,
        series_total=alpha / (1.0 - alpha),
        extras={
            "alpha": alpha,
            "kappa": kappa,
            "f_coeffs": f.coefficients,
        },
    )


def counterexample_kernel(n: int, r: float, alpha_c: float) -> Kernel:
    """Per-coordinate product kernel over agreement counts (a, b, c):

        log K = a log(1+r^2) + b log(1+r^2 alpha_c) + c log(1+r^2 alpha_c^2)

    with a + b + c = n + 1.  alpha_c is the per-coordinate attenuation
    (distinct from any truncation alpha elsewhere in the package).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 <= r < 1.0 or not 0.0 < alpha_c < 1.0:
        raise ValueError(f"need r in [0,1) and alpha_c in (0,1), got r={r}, alpha_c={alpha_c}")
    r2 = r * r
    la = math.log1p(r2)
    lb = math.log1p(r2 * alpha_c)
    lc = math.log1p(r2 * alpha_c * alpha_c)

    def log_fn(t: Statistic) -> float:
        try:
            a, b, c = (int(v) for v in t)
        except (TypeError, ValueError):
            raise ValueError(f"pair-count statistic must be an (a, b, c) triple, got {t!r}") from None
        if a < 0 or b < 0 or c < 0 or a + b + c != n + 1:
            raise ValueError(f"need nonnegative a + b + c = n + 1 = {n + 1}, got {t!r}")
        return a * la + b * lb + c * lc

    return Kernel(
        name="counterexample",
        domain="pair_counts",
        log_fn=log_fn,
        extras={"n": n, "r": r, "alpha_c": alpha_c},
    )


def dense_clique_kernel(n: int, p: float) -> Kernel:
    """Dense planted clique: K(ell) = p^{-C(ell, 2)} on ell = |u n v|."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    log_inv_p = -math.log(p)

    def log_fn(t: Statistic) -> float:
        ell = int(round(float(t)))
        if abs(ell - float(t)) > 1e-9 or ell < 0:
            raise ValueError(f"intersection count must be a nonnegative integer, got {t}")
        return math.comb(ell, 2) * log_inv_p

    return Kernel(
        name="dense_clique", domain="scalar", log_fn=log_fn, extras={"n": n, "p": p}
    )


def dirac_kernel(n: int) -> Kernel:
    """Repeated-signal model: K = 2^n on the diagonal (T = 1), 0 off it.

    The off-diagonal zero is an exact zero (log_eval returns None).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    diag = n * math.log(2.0)

    def log_fn(t: Statistic) -> float | None:
        return diag if float(t) == 1.0 else None

    return Kernel(name="dirac", domain="scalar", log_fn=log_fn, extras={"n": n})


def synthetic_kernel(values: Sequence[float], kernel_values: Sequence[float]) -> Kernel:
    """Lookup-table kernel on explicit atoms (tests and broken-kernel
    injection); kernel_values of exactly 0 become exact zeros."""
    if len(values) != len(kernel_values):
        raise ValueError("values and kernel_values must have equal length")
    table: dict[float, float | None] = {}
    for v, kv in zip(values, kernel_values):
        if kv < 0.0:
            raise ValueError(f"kernel values must be nonnegative, got {kv}")
        table[float(v)] = None if kv == 0.0 else math.log(kv)

    def log_fn(t: Statistic) -> float | None:
        key = float(t)
        if key not in table:
            raise KeyError(f"synthetic kernel undefined at {t!r}")
        return table[key]

    return Kernel(name="synthetic", domain="scalar", log_fn=log_fn)


# ---------------------------------------------------------------------------
# Model bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomTable:
    """What the discrete criteria read, one entry per atom: p, log p,
    log K (-inf at exact zeros), K - 1 (as Kernel.minus_one), the mirror
    (GroupSpec.mirror), K - 1 at -t and the orbit index; one entry per
    orbit (an atom and its mirror): the representative (lower) atom and
    the mass, whose log GFP reads; and the Levels of |<u,v>| (None
    without a Euclidean overlap), rho_G and |K - 1|."""

    p: np.ndarray
    log_p: np.ndarray
    log_k: np.ndarray
    dev: np.ndarray
    mirror: np.ndarray
    mirror_dev: np.ndarray
    orbit: np.ndarray
    orbit_rep: np.ndarray
    orbit_mass: np.ndarray
    overlap: Levels | None
    rho: Levels
    abs_dev: Levels

    @cached_property
    def log_orbit_mass(self) -> np.ndarray:
        """math.log of each orbit mass (-inf at 0), on first use: GFP's
        density order ties as math.log rounds (np.log's last bit differs
        on some inputs)."""
        return np.array([math.log(w) if w > 0.0 else -math.inf for w in self.orbit_mass.tolist()])


def _atom_table(model: ModelSpec) -> AtomTable:
    law, kernel = model.law, model.kernel
    values = law.values
    p = np.asarray(law.probs, dtype=float)
    log_k, dev, log_p = model.kernel_table
    mirror, lone = model.group.mirror(values)
    mirror_dev = dev[mirror]
    for i in np.flatnonzero(lone):  # no atom at -t (a mass within GroupSpec.preserves' slack)
        mirror_dev[i] = kernel.minus_one(-values[i])
    # orbits in order of first appearance, which GFP's tie order follows
    rep, orbit = np.unique(np.minimum(np.arange(len(values)), mirror), return_inverse=True)
    overlap = (None if model.euclid_overlap is None
               else Levels.of([abs(model.euclid_overlap(v)) for v in values], p))
    return AtomTable(
        p, log_p, log_k, dev, mirror, mirror_dev, orbit, rep, np.bincount(orbit, weights=p), overlap,
        Levels.of(np.maximum(np.abs(dev), np.abs(mirror_dev)), p), Levels.of(np.abs(dev), p),
    )


@dataclass(frozen=True)
class ModelSpec:
    """A named detection task: kernel + overlap law + group action.

    euclid_overlap maps a statistic atom to the Euclidean overlap
    <u, v> when that quantity is recoverable (identity for scalar
    overlap laws, the agreement count c for pair-count models, None
    when the statistic does not determine <u, v>).

    The per-model work that no (q, m) changes is cached on first use:
    the kernel table, the atom table of a discrete law (with GFP's
    per-orbit masses, their logs and representative atoms), the moments
    E[(K_d - 1)^t] per (d, t) that USQ and LD read, and, on the
    continuous law, the checked grids of rho_G and |K - 1|.
    """

    name: str
    params: dict
    kernel: Kernel
    law: OverlapLaw
    group: GroupSpec
    euclid_overlap: Callable[[Statistic], float] | None = None

    def __post_init__(self) -> None:
        if self.kernel.domain != self.law.statistic:
            raise ValueError(
                f"kernel domain {self.kernel.domain!r} does not match law "
                f"statistic {self.law.statistic!r}"
            )
        if self.group.kind != "trivial" and not self.group.preserves(self.law):
            raise ValueError(f"group {self.group.kind!r} does not preserve the law")

    @property
    def is_discrete(self) -> bool:
        return self.law.kind == "discrete"

    def rho_g(self, t: Statistic) -> float:
        return rho_g(self.kernel, self.group, t)

    @cached_property
    def atom_table(self) -> AtomTable:
        return _atom_table(self)

    @cached_property
    def deviation_moments(self) -> dict[tuple[float, int], float]:
        """E[(K_d - 1)^t] keyed by (d, t), filled by the criteria on first use."""
        return {}

    def log_k(self, points) -> np.ndarray:
        """log K at each point (-inf at exact zeros), one Kernel.log_eval call each."""
        logs = [self.kernel.log_eval(t) for t in points]
        return np.array([-math.inf if lv is None else lv for lv in logs], dtype=float)

    @cached_property
    def kernel_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The model's one pass of Kernel.log_eval: log K (-inf at exact
        zeros), K - 1 and log p at each atom of a discrete law, or at each
        point of law.grid with the log density in place of log p."""
        law = self.law
        log_k = self.log_k(law.values if self.is_discrete else law.grid)
        return (log_k, np.array([_minus_one(lv) for lv in log_k.tolist()], dtype=float),
                np.array(law.log_probs) if self.is_discrete else law.grid_log_pdf)

    @cached_property
    def rho_grid(self) -> ShapeGrid:
        dev = np.abs(self.kernel_table[1])  # rho_G is the larger of |K - 1| at t and at -t
        return check_even_nondecreasing(self.law, self.rho_g, np.maximum(
            dev, dev[::-1] if self.group.order == 2 else dev).tolist())

    @cached_property
    def deviation_sides(self) -> tuple[ShapeGrid, ShapeGrid]:
        """|K - 1| on law.grid, read outward from its minimum; ValueError unless quasiconvex."""
        xs, vals = self.law.grid, np.abs(self.kernel_table[1]).tolist()
        g = lambda t: abs(self.kernel.minus_one(t))  # for root-finding between grid points
        i0 = vals.index(min(vals))
        sides = (ShapeGrid(g, xs[i0::-1], vals[i0::-1]), ShapeGrid(g, xs[i0:], vals[i0:]))
        if not all(nondecreasing(side.vals) for side in sides):
            raise ValueError("|K - 1| is not quasiconvex on the support")
        return sides


def _default_group(name: str, law: OverlapLaw, requested: str | None) -> GroupSpec:
    if requested is not None:
        return GroupSpec(requested)
    if name in ("gam", "ngca", "si") and GroupSpec("sign_flip").preserves(law):
        return GroupSpec("sign_flip")
    return GroupSpec("trivial")


def build_model(desc: dict) -> ModelSpec:
    """Assemble a ModelSpec from a flat descriptor (see README / cli).

    Required field "model"; model-specific parameters; optional "prior"
    sub-descriptor where the prior is not implied; optional "group".
    """
    if "model" not in desc:
        raise ValueError("model descriptor requires a 'model' field")
    name = desc["model"]
    max_degree = int(desc.get("max_degree", 64))
    overlap: Callable[[Statistic], float] | None = float  # the statistic is <u, v> itself
    if name == "gam":
        law, kernel = make_law(desc["prior"]), gam_kernel(float(desc["lambda"]), max_degree=max_degree)
    elif name == "mslr":
        law = make_law({"kind": "hypergeometric", "n": int(desc["n"]), "k": int(desc["k"])})
        kernel = mslr_kernel(int(desc["k"]), float(desc["sigma2"]))
    elif name == "ngca":
        law, kernel = make_law(desc["prior"]), ngca_kernel(desc["mu"], max_degree=max_degree)
    elif name == "si":
        law, kernel = make_law(desc["prior"]), si_kernel(desc["link"], max_degree=max_degree)
    elif name == "slab":
        law = make_law({"kind": "rademacher_mean", "n": int(desc["d"])})
        kernel = slab_kernel(float(desc["alpha"]), max_degree=int(desc.get("max_degree", 100)))
    elif name == "counterexample":
        law = make_law({"kind": "pair_counts", "n": int(desc["n"]), "rho_p": float(desc["rho_p"])})
        kernel = counterexample_kernel(int(desc["n"]), float(desc["r"]), float(desc["alpha_c"]))
        overlap = lambda t: float(t[2])  # the agreement count c
    elif name == "dense_clique":
        law = make_law({"kind": "hypergeometric", "n": int(desc["n"]), "k": int(desc["k"])})
        kernel = dense_clique_kernel(int(desc["n"]), float(desc["p"]))
    elif name == "dirac":
        law, kernel = make_law({"kind": "equality", "n": int(desc["n"])}), dirac_kernel(int(desc["n"]))
        overlap = None  # the equality indicator does not determine <u, v>: FP undefined
    elif name == "synthetic":
        law = make_law({"kind": "atoms", "values": desc["values"], "probs": desc["probs"]})
        kernel = synthetic_kernel(desc["values"], desc["kernel_values"])
    else:
        raise ValueError(f"unknown model {name!r}")
    return ModelSpec(name, dict(desc), kernel, law, _default_group(name, law, desc.get("group")),
                     euclid_overlap=overlap)
