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

Kernels map a statistic value, or an array of them in one call, to
log K, with -inf at exact zeros (the Dirac off-diagonal, a series summing
to 0).  Series kernels sum by Horner's rule, within gamma_2n sum |c_i|
|t|^i of the exact sum (n the top degree), and their K - 1 is that sum.
Group actions on the statistic (trivial or Z_2 sign flip) provide the
orbits behind rho_G and the correlation-inequality averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from fpsq.laws import (NAME, OBJECT, REAL, REALS, WHOLE, Levels, OverlapLaw, ResourceLimitError, SphereLaw,
                       Statistic, atoms_law, build_descriptor, equality_law, hypergeometric_law, make_law,
                       pair_counts_law, rademacher_mean_law, read_descriptor)
from fpsq.numerics import (
    exact_sum,
    hermite_matrix,
    normal_pdf,
    normal_quantile,
    symmetric_indicator_coeffs,
    symmetric_indicator_tail,  # noqa: F401  (the benchmark traces this attribute)
)

COEFF_TOL = 1e-10  # |nu_i| below this is treated as a vanishing coefficient
_PRESERVE_TOL = 1e-12  # mass mismatch GroupSpec.preserves allows between t and -t
_LN_2, _PHI_0 = math.log(2.0), normal_pdf(0.0)  # log 2 and phi(0), in every odd lambda_i of the sign link
# _series_sum's array loop makes 2n ufunc calls (n the degree, about 0.4 us
# each) at any size, its float loop 2n N float operations (about 0.03 us
# each) on N points: they break even near N = 16 to 30.
_FEW_POINTS = 16
# The largest degree of a kernel series: a model's max_degree, or the d LD asks
# of gam.  At 10^6 on a 2-core x86 machine the dearest constructor, ngca on
# atoms (hermite_matrix), takes 3.0 s and 0.2 GB, and its first kernel table
# on a sphere law at n = 50 1.1 s (si on the identity link 1.1 s, gam's series
# 0.16 s); every cost is linear in the degree.
MAX_DEGREE = 1_000_000


class SingularityError(ValueError):
    """Kernel evaluated at a statistic value outside its finite domain."""


def _series_sum(coeffs: list[float], x):
    """sum c_i x^i over coeffs = [c_1, ..., c_n] at a float or an array x, by
    Horner's rule in place: within gamma_2n sum |c_i| |x|^i, n the top degree,
    gamma_k = k u / (1 - k u) (Higham, Accuracy and Stability, 2002, 5.1).
    An array of at most _FEW_POINTS points is summed point by point on Python
    floats, whose IEEE rounding is numpy's, so the bits are the same."""
    if isinstance(x, np.ndarray) and x.size <= _FEW_POINTS:
        return np.array([_series_sum(coeffs, xi) for xi in x.ravel().tolist()]).reshape(x.shape)[()]
    acc = 0.0 * x
    for c in reversed(coeffs):
        acc += c
        acc *= x
    return acc


def _plain(x):
    """An array as it is, a scalar as a Python float."""
    return float(x) if getattr(x, "ndim", 0) == 0 else x


def _first(t, bad):
    """The first statistic value of t (one value or an array) where bad holds."""
    return np.asarray(t)[bad][0].tolist()


def _expm1(log_k):
    """K - 1 from log K: -1 at an exact zero, inf beyond log K = 700."""
    with np.errstate(over="ignore"):
        return np.where(log_k > 700.0, math.inf, np.expm1(log_k))


@dataclass(frozen=True)
class Kernel:
    """log K plus optional power-series data.

    log_fn maps a statistic value or an array of them (pair counts as an
    (..., 3) array) to log K, -inf at an exact zero; minus_one_fn, if set,
    to K - 1 (a series kernel's sum, log_fn its log1p), else K - 1 is
    expm1(log K).  The methods give a single value back as a float.

    series maps a degree d to c_1, ..., c_d, where K(t) = 1 + sum c_i t^i
    (+ tail) with c_i >= 0 on the kernel's domain: a series kernel serves
    the degrees it stores, to its max_degree (ValueError beyond), and gam
    computes them, to MAX_DEGREE (ResourceLimitError beyond, before any
    work).  series_total, when known, is the full sum of the coefficients
    (used for truncation-tail bounds at |t| < 1).
    """

    name: str
    domain: str  # "scalar" or "pair_counts"
    log_fn: Callable
    series: Callable[[int], list[float]] | None = None
    series_total: float | None = None
    minus_one_fn: Callable | None = None

    def log_eval(self, t):
        """Natural log of K(t), -inf at an exact zero."""
        with np.errstate(divide="ignore"):  # log1p(-1) for a series summing to -1
            return _plain(self.log_fn(t))

    def eval(self, t):
        with np.errstate(over="ignore"):
            return _plain(np.exp(self.log_eval(t)))

    def minus_one(self, t):
        """K(t) - 1: the series sum of a series kernel, else expm1(log K)."""
        return _plain(_expm1(self.log_eval(t)) if self.minus_one_fn is None else self.minus_one_fn(t))

    def truncated_minus_one(self, t, d: int):
        """K_d(t) - 1 = sum_{degree <= d} c_i t^i (series kernels only)."""
        if self.series is None:
            raise ValueError(f"kernel {self.name!r} carries no series; d < inf unsupported")
        return _plain(_series_sum(self.series(d), t))

    def tail_bound(self, t: float, d: int) -> float | None:
        """Bound on the series remainder beyond degree d.

        Uses sum_{i > d} c_i <= series_total - sum_{i <= d} c_i and the
        geometric envelope |t|^{d+1} / (1 - |t|); None when the total
        coefficient mass is unknown or |t| >= 1.
        """
        if self.series_total is None or abs(t) >= 1.0:
            return None
        remaining = max(self.series_total - math.fsum(self.series(d)), 0.0)
        return remaining * abs(t) ** (d + 1) / (1.0 - abs(t))


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

    def preserves(self, law: OverlapLaw | SphereLaw) -> bool:
        """Pushforward-equality check of the law under the action."""
        if self.kind == "trivial" or isinstance(law, SphereLaw):  # the sphere law is symmetric about 0
            return True
        if law.statistic != "scalar":
            return False
        mirror, lone = law.mirror  # the mass at -t (0 where no atom sits there) against that at t
        return bool(np.all(np.abs(np.where(lone, 0.0, law.probs[mirror]) - law.probs) <= _PRESERVE_TOL))


def rho_g(kernel: Kernel, group: GroupSpec, t: Statistic) -> float:
    """Group-maximized kernel deviation max_{g,g'} |K(T(g(u),g'(v))) - 1| over
    the orbit of t (one or two points), evaluated point by point as floats:
    at two points numpy's per-call cost outweighs its arithmetic."""
    orbit = group.orbit(t)
    dev = abs(kernel.minus_one(orbit[0]))
    return max(dev, abs(kernel.minus_one(orbit[1]))) if len(orbit) == 2 else dev


# ---------------------------------------------------------------------------
# Kernel constructors
# ---------------------------------------------------------------------------


def gam_kernel(lam: float) -> Kernel:
    """Gaussian additive model: K(t) = exp(lambda^2 t).

    Series coefficients lambda^{2i} / i!, computed to the degree asked;
    their total mass is exp(lambda^2) - 1.
    """
    l2 = lam * lam
    if not (lam >= 0.0 and math.isfinite(l2)):
        raise ValueError(f"lambda must be nonnegative with a finite square, got {lam}")

    def series(d: int) -> list[float]:
        if d > MAX_DEGREE:
            raise ResourceLimitError(f"the degree d={d} is above the {MAX_DEGREE} a kernel series may have")
        log_l2 = math.log(l2) if l2 > 0.0 else -math.inf
        return [math.exp(log_c) for log_c in accumulate(log_l2 - math.log(i) for i in range(1, d + 1))]

    return Kernel(
        name="gam",
        domain="scalar",
        log_fn=lambda t: l2 * t,
        series=series,
        series_total=math.expm1(l2),
    )


def mslr_kernel(k: int, sigma2: float) -> Kernel:
    """Mixed sparse linear regression: K(ell) = (1 - (ell/(k+s^2))^2)^{-1}."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if k >= 2**53:
        raise ValueError(f"k must be below 2^53, where the overlaps are exact floats, got {k}")
    if not sigma2 > 0.0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    scale = k + sigma2

    def log_fn(t):
        x = t / scale
        if np.any(np.abs(x) >= 1.0):
            raise SingularityError(f"mSLR kernel singular at |ell| >= k + sigma2 = {scale}, "
                                   f"got ell = {_first(t, np.abs(x) >= 1.0)}")
        # -log(1 - x^2) to a few ulp: log1p(-x^2) where x^2 <= 1/2; nearer
        # |x| = 1 the rounding of x^2 would cost 2^-53 / (1 - x^2) relative, so
        # 1 - x^2 is formed as ((k - |ell|) + s^2)((k + |ell|) + s^2) / (k + s^2)^2
        ell = np.abs(t)
        near_one = ((k - ell) + sigma2) * ((k + ell) + sigma2) / (scale * scale)
        return np.where(x * x <= 0.5, -np.log1p(-x * x), -np.log(near_one))[()]

    return Kernel(
        name="mslr",
        domain="scalar",
        log_fn=log_fn,
    )


def _stored(coeffs: list[float]) -> Callable[[int], list[float]]:
    """The Kernel.series of the stored c_1, ..., c_n, n the max_degree:
    c_1, ..., c_d for d <= n, ValueError beyond."""
    def series(d: int) -> list[float]:
        if d > len(coeffs):
            raise ValueError(f"the per-sample degree d={d} exceeds the model's max_degree {len(coeffs)}, "
                             "the last degree its series stores")
        return coeffs[:d]

    return series


def _series_kernel(name: str, coeffs: Sequence[float], total: float | None) -> Kernel:
    """Kernel 1 + sum_{i >= s*} c_i^2 t^i from the coefficients c_0, ..., c_d
    (nu_i or lambda_i), s* their generative exponent (_find_s_star; without
    one every degree i >= 1).  ValueError at the first degree whose c_i^2 is
    not finite."""
    squares = [c * c for c in coeffs]
    bad = next((i for i, c in enumerate(squares) if not math.isfinite(c)), None)
    if bad is not None:
        raise ValueError(f"{name} series coefficient of degree {bad} squares to {squares[bad]}; "
                         "a lower max_degree keeps the series finite")
    s_star = _find_s_star(coeffs) or 1
    coeffs = [0.0] * (s_star - 1) + squares[s_star:]

    def minus_one_fn(t):
        acc = _series_sum(coeffs, t)
        if np.any(acc < -1.0):
            raise SingularityError(f"{name} kernel series is negative at t = {_first(t, acc < -1.0)}")
        return acc

    return Kernel(name=name, domain="scalar", log_fn=lambda t: np.log1p(minus_one_fn(t)),
                  series=_stored(coeffs), series_total=total, minus_one_fn=minus_one_fn)


def _gaussian_mixture(weights: list[float], means: list[float], variances: list[float]) -> tuple:
    """The mixture of N(mean, var) components of the given weights, a
    "gaussian" being the one-component mixture."""
    if not len(weights) == len(means) == len(variances):
        raise ValueError("mixture weights, means and vars must have equal lengths")
    if abs(sum(weights) - 1.0) > 1e-12 or any(w < 0 for w in weights):
        raise ValueError("mixture weights must be a probability vector")
    if not all(v > 0.0 for v in variances):
        raise ValueError("Gaussian component variances must be positive")
    parts = list(zip(weights, means, variances))

    def nu(max_degree: int) -> list[float]:
        # the Stein recurrence E[He_i] = mean E[He_{i-1}] + (i - 1)(var - 1) E[He_{i-2}]
        # divided through by sqrt(i!), so no term overflows before its nu_i does
        nus = np.zeros(max_degree + 1)
        for w, mean, var in parts:
            part = [1.0, mean]
            for i in range(2, max_degree + 1):
                part.append((mean * part[i - 1] + math.sqrt(i - 1) * (var - 1.0) * part[i - 2]) / math.sqrt(i))
            nus += w * np.array(part[: max_degree + 1])
        return nus.tolist()

    def ratio(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        out = np.zeros_like(z)
        for w, m, v in parts:
            out += w * np.exp(0.5 * z * z - 0.5 * (z - m) ** 2 / v) / math.sqrt(v)
        return out

    return nu, ratio, _mixture_chi2(parts)


def _mixture_chi2(parts: list[tuple[float, float, float]]) -> float | None:
    """chi^2(mu || N(0,1)) for a Gaussian mixture of components (w, m, v),
    in closed form: 1 + chi^2 = E_phi[(dmu/dphi)^2] sums, over pairs of
    components, the Gaussian integral

        w_i w_j exp(b^2 / (2a) - c/2) / sqrt(v_i v_j a),

    a = 1/v_i + 1/v_j - 1, b = m_i/v_i + m_j/v_j, c = m_i^2/v_i + m_j^2/v_j.
    None when a <= 0 for a pair (the integral diverges) and when the sum
    passes the float range."""
    w, m, v = (np.array(col, dtype=float)[:, None] for col in zip(*parts))
    a = 1.0 / v + 1.0 / v.T - 1.0
    if np.any(a <= 0.0):
        return None
    b = m / v + (m / v).T
    c = m * m / v + (m * m / v).T
    with np.errstate(over="ignore", invalid="ignore"):
        total = exact_sum(w * w.T * np.exp(b * b / (2.0 * a) - c / 2.0) / np.sqrt(v * v.T * a))
    return max(total - 1.0, 0.0) if math.isfinite(total) else None


def _atom_marginal(values: list[float], probs: list[float]) -> tuple:
    """mu on explicit atoms: nu_i = sum_j probs_j h_i(values_j)."""
    values, probs = np.asarray(values), np.asarray(probs)
    if probs.shape != values.shape or not (probs >= 0.0).all() or abs(probs.sum() - 1.0) > 1e-12:
        raise ValueError(f"'probs' must be nonnegative, match 'values' and sum to 1, got {probs.tolist()}")
    return (lambda max_degree: (hermite_matrix(max_degree, values) @ probs).tolist()), None, None


def _uniform_marginal(w: float) -> tuple:
    """mu uniform on [-w, w]."""
    if not w > 0.0:
        raise ValueError(f"half_width must be positive, got {w}")

    def nu(max_degree: int) -> list[float]:
        # exact antiderivative: int_{-w}^{w} h_i dz = 2 h_{i+1}(w) sqrt(i+1) ... / ...
        h = hermite_matrix(max_degree + 1, np.array([w]))[:, 0].tolist()  # h_0(w), ..., h_{d+1}(w)
        return [1.0] + [0.0 if i % 2 else h[i + 1] / (w * math.sqrt(i + 1)) for i in range(1, max_degree + 1)]

    def ratio(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        out = np.zeros_like(z)
        inside = np.abs(z) <= w
        out[inside] = math.sqrt(2.0 * math.pi) / (2.0 * w) * np.exp(0.5 * z[inside] ** 2)
        return out

    return nu, ratio, None


def _hermite_marginal(values: list[float]) -> tuple:
    """mu given by its Hermite moments E[He_i(z)], i = 0, 1, ..., the rest 0."""
    if not values or values[0] != 1.0:
        raise ValueError("hermite_moments must start with E[He_0] = 1")

    def nu(max_degree: int) -> list[float]:
        vals = values[: max_degree + 1] + [0.0] * max(0, max_degree + 1 - len(values))
        return [m * math.exp(-0.5 * math.lgamma(i + 1)) for i, m in enumerate(vals)]

    return nu, None, None


MU_KINDS = {  # kind: ({field: (type[, default])}, builder of (d -> [nu_0..nu_d], dmu/dphi, chi^2 or None))
    "gaussian": ({"mean": (REAL,), "var": (REAL,)}, lambda f: _gaussian_mixture([1.0], [f["mean"]], [f["var"]])),
    "gaussian_mixture": ({"weights": (REALS,), "means": (REALS,), "vars": (REALS,)},
                         lambda f: _gaussian_mixture(f["weights"], f["means"], f["vars"])),
    "atoms": ({"values": (REALS,), "probs": (REALS,)}, lambda f: _atom_marginal(f["values"], f["probs"])),
    "uniform_symmetric": ({"half_width": (REAL,)}, lambda f: _uniform_marginal(f["half_width"])),
    "hermite_moments": ({"values": (REALS,)}, lambda f: _hermite_marginal(f["values"])),
}


def ngca_density_ratio(mu_spec: dict) -> Callable[[np.ndarray], np.ndarray] | None:
    """(dmu/dphi)(z) when mu has a density; None for discrete mu."""
    return build_descriptor(mu_spec, MU_KINDS)[1]


def _find_s_star(coeffs: Sequence[float]) -> int | None:
    """The generative exponent: the first i >= 1 with |c_i| > COEFF_TOL, None
    when every coefficient vanishes (a Gaussian marginal to this depth)."""
    for i, c in enumerate(coeffs):
        if i >= 1 and abs(c) > COEFF_TOL:
            return i
    return None


def ngca_kernel(mu_spec: dict, max_degree: int) -> Kernel:
    """Non-Gaussian component analysis kernel 1 + sum_{i>=s*} nu_i^2 t^i."""
    if max_degree < 1:
        raise ValueError("max_degree must be positive")
    nu_of, _, chi2 = build_descriptor(mu_spec, MU_KINDS)
    return _series_kernel("ngca", nu_of(max_degree), chi2)


def _sign_lambda(i: int) -> float:
    """lambda_i of the sign link: zeta_i(+-1) = +-2 He_{i-1}(0) phi(0) / sqrt(i!) for odd i, 0 even."""
    if i % 2 == 0:
        return 0.0
    j = (i - 1) // 2
    log_dfact = math.lgamma(i) - (j * _LN_2 + math.lgamma(j + 1))
    return 2.0 * _PHI_0 * math.exp(log_dfact - 0.5 * math.lgamma(i + 1))


def _noisy_link(tau2: float) -> tuple[Callable[[int], float], float]:
    if tau2 <= 0.0:
        raise ValueError(f"tau2 must be positive, got {tau2}")
    return (lambda i: (1.0 + tau2) ** (-0.5 * i)), 1.0 / tau2


LINK_KINDS = {  # kind: ({field: (type[, default])}, builder of (i -> lambda_i, sum_{i>=1} lambda_i^2 or None))
    "identity": ({}, lambda f: (lambda i: 1.0, None)),
    "abs": ({}, lambda f: (lambda i: 0.0 if i % 2 else 1.0, None)),
    "sign": ({}, lambda f: (_sign_lambda, 1.0)),  # E_Q[(2 1(y = sign z))^2] - 1
    "gaussian_noise": ({"tau2": (REAL,)}, lambda f: _noisy_link(f["tau2"])),
    "independent": ({}, lambda f: (lambda i: 0.0, 0.0)),
}


def _link_lambdas(joint_spec: dict, max_degree: int) -> tuple[list[float], float | None]:
    """lambda_0..lambda_d of a link descriptor (LINK_KINDS) and sum_{i>=1} lambda_i^2 (None if unknown)."""
    if max_degree < 1:
        raise ValueError("max_degree must be positive")
    lam, total = build_descriptor(joint_spec, LINK_KINDS)
    return [1.0, *map(lam, range(1, max_degree + 1))], total


def si_lambda_coeffs(joint_spec: dict, max_degree: int) -> tuple[list[float], int | None]:
    """lambda_0..lambda_d of a link and their generative exponent s*."""
    lambdas = _link_lambdas(joint_spec, max_degree)[0]
    return lambdas, _find_s_star(lambdas)


def si_kernel(joint_spec: dict, max_degree: int) -> Kernel:
    """Single-index kernel 1 + sum_{i>=s*} lambda_i^2 t^i, lambda_i =
    ||E[h_i(z) | y]||_{mu_y}, for a link descriptor (LINK_KINDS).

    Links: identity (y = z), sign (y = sign z), abs (y = |z|),
    gaussian_noise (y = z + N(0, tau2)).  The first three have exact
    conditional expectations; the noisy link uses the closed posterior
    contraction E[h_i(z) | y] = (1+tau2)^{-i/2} h_i(y / sqrt(1+tau2)).
    """
    return _series_kernel("si", *_link_lambdas(joint_spec, max_degree))


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
    coeffs, total = [scale * c * c for c in f.coefficients[1:]], alpha / (1.0 - alpha)  # the odd f_i are 0.0

    def minus_one_fn(t):
        x = np.abs(t)
        if np.any(x > 1.0 + 1e-12):
            raise ValueError(f"slab kernel domain is [-1, 1], got {_first(t, x > 1.0 + 1e-12)}")
        return np.where(np.abs(x - 1.0) <= 1e-15, total, _series_sum(coeffs, t))

    return Kernel(name="slab", domain="scalar", log_fn=lambda t: np.log1p(minus_one_fn(t)),
                  series=_stored(coeffs), series_total=total, minus_one_fn=minus_one_fn)


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

    def log_fn(t):
        counts = np.asarray(t)
        if counts.shape[-1:] != (3,):
            raise ValueError(f"pair-count statistic must be an (a, b, c) triple, got {t!r}")
        a, b, c = np.moveaxis(counts, -1, 0)
        bad = (a < 0) | (b < 0) | (c < 0) | (a + b + c != n + 1)
        if np.any(bad):
            raise ValueError(f"need nonnegative a + b + c = n + 1 = {n + 1}, got {_first(t, bad)}")
        return a * la + b * lb + c * lc

    return Kernel(
        name="counterexample",
        domain="pair_counts",
        log_fn=log_fn,
    )


def dense_clique_kernel(n: int, p: float) -> Kernel:
    """Dense planted clique: K(ell) = p^{-C(ell, 2)} on ell = |u n v|."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    log_inv_p = -math.log(p)

    def log_fn(t):
        ell = np.rint(t)
        bad = (np.abs(ell - t) > 1e-9) | (ell < 0)
        if np.any(bad):
            raise ValueError(f"intersection count must be a nonnegative integer, got {_first(t, bad)}")
        return ell * (ell - 1.0) / 2.0 * log_inv_p  # C(ell, 2), exact

    return Kernel(name="dense_clique", domain="scalar", log_fn=log_fn)


def dirac_kernel(n: int) -> Kernel:
    """Repeated-signal model: K = 2^n on the diagonal (T = 1), 0 off it.

    The off-diagonal zero is an exact zero (log K = -inf).
    """
    if not 1 <= n < 2**53:
        raise ValueError(f"n must be positive and below 2^53, got {n}")
    diag = n * math.log(2.0)
    return Kernel(name="dirac", domain="scalar", log_fn=lambda t: np.where(t == 1.0, diag, -math.inf))


def synthetic_kernel(values: Sequence[float], kernel_values: Sequence[float]) -> Kernel:
    """Lookup-table kernel on explicit atoms (tests and broken-kernel
    injection); kernel_values of exactly 0 become exact zeros."""
    if len(values) != len(kernel_values) or not values:
        raise ValueError("values and kernel_values must be nonempty and of equal length")
    table: dict[float, float] = {}
    for v, kv in zip(values, kernel_values):
        if not (math.isfinite(kv) and kv >= 0.0):
            raise ValueError(f"kernel values must be finite and nonnegative, got {kv}")
        table[float(v)] = -math.inf if kv == 0.0 else math.log(kv)
    keys, logs = (np.array(col) for col in zip(*sorted(table.items())))

    def log_fn(t):
        i = np.minimum(np.searchsorted(keys, t), len(keys) - 1)
        if np.any(keys[i] != t):
            raise KeyError(f"synthetic kernel undefined at {_first(t, keys[i] != t)!r}")
        return logs[i]

    return Kernel(name="synthetic", domain="scalar", log_fn=log_fn)


# ---------------------------------------------------------------------------
# Model bundles
# ---------------------------------------------------------------------------


class AtomTable:
    """What the discrete criteria read besides the law's own arrays, each
    part built on its first read, then a plain attribute.  Per atom: log K
    (-inf at exact zeros) and K - 1 (Kernel.minus_one), from the kernel
    table; the mirror (OverlapLaw.mirror, each atom its own under the
    trivial group) with K - 1 at -t; the orbit index, with per orbit (an
    atom and its mirror) the representative (lower) atom and the mass.  The
    Levels of |<u,v>| (FP's; None where the statistic does not determine
    it), rho_G (rho_G-FP's) and |K - 1| (SQ's), each event a cut in one.
    Under the trivial group K - 1 at -t is dev and rho_G's Levels |K - 1|'s.
    A part whose build raises keeps nothing and raises again when read."""

    def __init__(self, model: ModelSpec) -> None:
        self.law, self.kernel, self.group = model.law, model.kernel, model.group
        self.euclid_overlap, (self.log_k, self.dev) = model.euclid_overlap, model.kernel_table

    def _mirrors(self) -> dict:
        """mirror and mirror_dev, built together into the table."""
        if self.group.order == 1:  # every atom is its own mirror
            mirror, mirror_dev = np.arange(len(self.dev)), self.dev
        else:
            mirror, lone = self.law.mirror
            mirror_dev = self.dev[mirror]
            if lone.any():  # no atom at -t (a mass within GroupSpec.preserves' slack)
                mirror_dev[lone] = self.kernel.minus_one(-self.law.values[lone])
        vars(self).update(parts := {"mirror": mirror, "mirror_dev": mirror_dev})
        return parts

    mirror = cached_property(lambda self: self._mirrors()["mirror"])
    mirror_dev = cached_property(lambda self: self._mirrors()["mirror_dev"])

    def _orbits(self) -> dict:
        """orbit, orbit_rep and orbit_mass, built together into the table, in order of first
        appearance, which GFP's tie order follows: each orbit's first atom represents it."""
        atoms = np.arange(len(self.dev))
        first = np.minimum(atoms, self.mirror)
        is_rep = first == atoms
        orbit = (np.cumsum(is_rep) - 1)[first]
        vars(self).update(parts := {"orbit": orbit, "orbit_rep": np.flatnonzero(is_rep),
                                    "orbit_mass": np.bincount(orbit, weights=self.law.probs)})
        return parts

    orbit = cached_property(lambda self: self._orbits()["orbit"])
    orbit_rep = cached_property(lambda self: self._orbits()["orbit_rep"])
    orbit_mass = cached_property(lambda self: self._orbits()["orbit_mass"])

    @cached_property
    def log_orbit_mass(self) -> np.ndarray:
        """math.log of each orbit mass (-inf at 0), on first use: GFP's
        density order ties as math.log rounds (np.log's last bit differs
        on some inputs), called only where the mass is positive."""
        out, positive = np.full(len(self.orbit_mass), -math.inf), self.orbit_mass > 0.0
        out[positive] = list(map(math.log, self.orbit_mass[positive].tolist()))
        return out

    @cached_property
    def overlap(self) -> Levels | None:
        """|<u,v>|'s Levels: the statistic itself, or the agreement count c of pair counts."""
        overlap = self.law.values[:, 2] if self.law.statistic == "pair_counts" else self.law.values
        return Levels.of(np.abs(overlap), self.law.probs) if self.euclid_overlap else None

    @cached_property
    def rho(self) -> Levels:
        return self.abs_dev if self.group.order == 1 else Levels.of(
            np.maximum(np.abs(self.dev), np.abs(self.mirror_dev)), self.law.probs)

    @cached_property
    def abs_dev(self) -> Levels:
        return Levels.of(np.abs(self.dev), self.law.probs)


@dataclass(frozen=True)
class ModelSpec:
    """A named detection task: kernel + overlap law + group action.

    euclid_overlap says whether the statistic determines the Euclidean
    overlap <u, v>: it is the statistic itself on a scalar law and the
    agreement count c of pair counts, which the atom table reads from the
    law's values (FP needs it; the equality indicator of dirac lacks it).

    The per-model work that no (q, m) changes is cached on first use:
    the kernel table (one kernel call), the sphere law's node table
    gathered from it (log K at the nodes every integral reads) and the
    atom table of a discrete law, each of whose parts (levels, mirror,
    orbits) is built when a criterion first reads it.  What the
    criteria compute from one coordinate of a sweep lives in ``memo``,
    keyed by (what, coordinate): per q the FP and rho_G-FP thresholds and
    SQ's threshold and value, per m chi^2, log E[K^m] and GFP's greedy
    descent, per (d, t) the moments E[(K_d - 1)^t] of USQ and LD, per
    (m, intervals) a continuous law's integral of K^m over them
    (fpsq.criteria says what each entry holds).
    """

    name: str
    params: dict
    kernel: Kernel
    law: OverlapLaw | SphereLaw
    group: GroupSpec
    euclid_overlap: bool = False

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
        return isinstance(self.law, OverlapLaw)

    @cached_property
    def atom_table(self) -> AtomTable:
        return AtomTable(self)

    @cached_property
    def memo(self) -> dict:
        """The criteria's per-coordinate results, filled on first use; scalars
        and per-orbit arrays only, never per-atom arrays."""
        return {}

    def log_k(self, points) -> np.ndarray:
        """log K at each point (-inf at exact zeros), one Kernel.log_eval call."""
        return self.kernel.log_eval(np.asarray(points))

    @cached_property
    def node_table(self) -> np.ndarray:
        """log K (-inf at exact zeros) at each node of the sphere law's stored
        panels (SphereLaw.nodes), gathered from the kernel table on law.grid."""
        return self.kernel_table[0][np.searchsorted(self.law.grid, self.law.nodes[0])]

    @cached_property
    def kernel_table(self) -> tuple[np.ndarray, np.ndarray]:
        """log K (-inf at exact zeros) and K - 1 (Kernel.minus_one) at each
        atom of a discrete law, or at each point of law.grid, from one kernel
        call on all points: log K and its expm1, or a series kernel's sum
        K - 1 and its log1p, which is its log_fn bit for bit."""
        law, kernel = self.law, self.kernel
        points = law.values if self.is_discrete else law.grid
        if kernel.minus_one_fn is None:
            log_k = self.log_k(points)
            return log_k, _expm1(log_k)
        dev = kernel.minus_one(points)
        with np.errstate(divide="ignore"):  # a series kernel's log_fn is log1p(minus_one_fn)
            return np.log1p(dev), dev


_GROUP, _TRIVIAL = (NAME, None), (NAME, "trivial")  # a model's group; build_model picks one left out

MODEL_KINDS = {  # model: ({field: (type[, default])}, builder of the kernel, then the dearer law)
    "gam": ({"lambda": (REAL,), "prior": (OBJECT,), "group": _GROUP},
            lambda f: (gam_kernel(f["lambda"]), make_law(f["prior"]))),
    "mslr": ({"n": (WHOLE,), "k": (WHOLE,), "sigma2": (REAL,), "group": _TRIVIAL},
             lambda f: (mslr_kernel(f["k"], f["sigma2"]), hypergeometric_law(f["n"], f["k"]))),
    "ngca": ({"mu": (OBJECT,), "prior": (OBJECT,), "max_degree": (WHOLE, 64), "group": _GROUP},
             lambda f: (ngca_kernel(f["mu"], f["max_degree"]), make_law(f["prior"]))),
    "si": ({"link": (OBJECT,), "prior": (OBJECT,), "max_degree": (WHOLE, 64), "group": _GROUP},
           lambda f: (si_kernel(f["link"], f["max_degree"]), make_law(f["prior"]))),
    "slab": ({"alpha": (REAL,), "d": (WHOLE,), "max_degree": (WHOLE, 100), "group": _TRIVIAL},
             lambda f: (slab_kernel(f["alpha"], f["max_degree"]), rademacher_mean_law(f["d"]))),
    "counterexample": ({"n": (WHOLE,), "r": (REAL,), "alpha_c": (REAL,), "rho_p": (REAL,), "group": _TRIVIAL},
                       lambda f: (counterexample_kernel(f["n"], f["r"], f["alpha_c"]),
                                  pair_counts_law(f["n"], f["rho_p"]))),
    "dense_clique": ({"n": (WHOLE,), "k": (WHOLE,), "p": (REAL,), "group": _TRIVIAL},
                     lambda f: (dense_clique_kernel(f["n"], f["p"]), hypergeometric_law(f["n"], f["k"]))),
    "dirac": ({"n": (WHOLE,), "group": _TRIVIAL}, lambda f: (dirac_kernel(f["n"]), equality_law(f["n"]))),
    "synthetic": ({"values": (REALS,), "probs": (REALS,), "kernel_values": (REALS,), "group": _TRIVIAL},
                  lambda f: (synthetic_kernel(f["values"], f["kernel_values"]),
                             atoms_law(f["values"], f["probs"]))),
}


def build_model(desc: dict) -> ModelSpec:
    """The ModelSpec of a model descriptor (MODEL_KINDS; params holds its
    fields as read).  A group left out (gam, ngca and si) is the sign flip
    where it preserves the law, else trivial.  ResourceLimitError where
    max_degree is above MAX_DEGREE, before any work."""
    name, params = read_descriptor(desc, MODEL_KINDS, tag="model")
    if params.get("max_degree", 0) > MAX_DEGREE:
        raise ResourceLimitError(f"max_degree {params['max_degree']} is above the {MAX_DEGREE} a model may have")
    kernel, law = MODEL_KINDS[name][1](params)
    group = params["group"]
    if group is None:
        group = "sign_flip" if GroupSpec("sign_flip").preserves(law) else "trivial"
    return ModelSpec(name, params, kernel, law, GroupSpec(group), euclid_overlap=name != "dirac")
