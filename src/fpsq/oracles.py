"""Independent validators for the closed-form kernels, and the rows of
``fpsq kernel`` per model kind.

Two oracle families, none of which share code paths with the kernels
they check:

- exact evaluation (mSLR: the Gaussian integral of the two-branch
  likelihood-ratio product under the null, from two 3x3 determinants;
  the +-1 product model: a sum over all 2^{n+1} sign vectors with
  uniform weights, up to n + 1 = 15 coordinates);
- deterministic quadrature (NGCA: tensor Gauss-Hermite integration of
  the density-ratio product on a correlated Gaussian pair; slab: 1D
  adaptive integration of the bivariate-normal rectangle probability).

Every estimate carries an error bound: exactly 0 for enumeration, 1e-12
relative for the mSLR determinants, and for quadrature twice the gap
between the half-size and the full Gauss-Hermite rule (NGCA) or ten
times scipy's error estimate (slab).  The criterion sums are checked in
the tests, by a Monte Carlo average over atom draws.

KERNEL_ORACLES gives, per model kind, the (statistic, oracle value,
bound) rows that ``fpsq kernel`` checks.  Only mslr, counterexample, ngca
and slab are checked independently: gam, dense_clique and dirac restate
their closed forms, and the ngca and slab rows take a bound of at least
1e-6.  The si and synthetic kinds have no entry, and the NGCA quadrature
refuses a mu without a density ratio (atoms, hermite_moments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fpsq.kernels import ngca_density_ratio
from fpsq.laws import ResourceLimitError
from fpsq.numerics import normal_cdf, normal_quantile

@dataclass(frozen=True)
class OracleEstimate:
    """Estimate plus a certified error bound."""

    value: float
    error_bound: float
    method: str

    def __post_init__(self) -> None:
        if self.error_bound < 0.0:
            raise ValueError("error_bound must be nonnegative")


def gauss_kernel_mslr(k: int, sigma2: float, u: np.ndarray, v: np.ndarray) -> OracleEstimate:
    """Exact <L_u, L_v>_Q for mixed sparse linear regression, from the
    definition E_Q[L_u L_v] with

        L_u = (lam/2) [ exp(-(lam^2-1) y^2/2 + (lam/s) y <x,u> - <x,u>^2/(2 s^2))
                      + exp(-(lam^2-1) y^2/2 - (lam/s) y <x,u> - <x,u>^2/(2 s^2)) ],

    lam = sqrt(k/s^2 + 1).  Under Q, z = (<x,u>, <x,v>, (lam/s) y) ~ N(0, S),
    S the Gram matrix of u and v bordered by lam^2/s^2, and each of the four
    sign terms of L_u L_v is (lam^2/4) exp(-z^T A z / 2), whose mean is
    (lam^2/4) det(I + S A)^(-1/2).  Flipping y maps the signs (+, +) to
    (-, -) and (+, -) to (-, +), so two determinants give the value.
    det(I + S A) needs no inverse of S, which is singular at <u,v> = k.

    Every entry of S and A is rational in sigma2, so the determinants are
    exact; I + S A is ill-conditioned at small sigma2, where a float
    determinant loses digits.  Only the two square roots and their sum
    round, a few ulps that the 1e-12 relative error bound covers.
    """
    from fractions import Fraction

    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim != 1 or v.shape != u.shape:
        raise ValueError("u and v must be 1D arrays of equal length")
    if not (set(np.unique(u)) <= {0.0, 1.0} and set(np.unique(v)) <= {0.0, 1.0}):
        raise ValueError("u and v must be binary vectors")
    if int(u.sum()) != k or int(v.sum()) != k:
        raise ValueError(f"u and v must be k-sparse with k = {k}")
    s2, ell = Fraction(sigma2), int(u @ v)
    lam2 = k / s2 + 1
    gram = np.array([[k, ell, 0], [ell, k, 0], [0, 0, lam2 / s2]], dtype=object)
    value = 0.0
    for sign in (1, -1):  # the sign of v's branch relative to u's
        a = np.array([[1 / s2, 0, -1], [0, 1 / s2, -sign], [-1, -sign, 2 * k / lam2]], dtype=object)
        m = np.eye(3, dtype=object) + gram @ a  # exact: Fraction entries
        det = (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
               - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
               + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))
        value += 0.5 * float(lam2 * lam2 / det) ** 0.5  # (lam^2/2) det^(-1/2)
    return OracleEstimate(value, 1e-12 * value, "gaussian-integral")


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
    Cholesky pair (S, T) = (Z1, rho Z1 + sqrt(1 - rho^2) Z2).  The nodes
    and weights are scipy's roots_hermitenorm, normalized to mass 1, less
    the nodes whose weight underflows to 0.  The tensor sum is taken in
    log space: tail nodes can overflow the linear product although the
    weighted sum is moderate.  At |rho| = 1 the second factor is constant
    in Z2, and the same sum is E[g(Z) g(rho Z)].

    The error bound is twice the difference between the num_nodes // 2
    rule and the full one.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
    ratio = ngca_density_ratio(mu_spec)
    if ratio is None:
        raise ValueError(f"mu descriptor {mu_spec.get('kind')!r} has no pointwise density ratio")
    from scipy.special import logsumexp, roots_hermitenorm

    c = math.sqrt(1.0 - rho * rho)

    def value_at(nn: int) -> float:
        z, w = roots_hermitenorm(nn)
        keep = w > 0.0
        z, w = z[keep], w[keep] / w[keep].sum()
        inner = rho * z[:, None] + c * z[None, :]
        with np.errstate(divide="ignore", over="ignore"):
            log_terms = (
                np.log(ratio(z))[:, None] + np.log(ratio(inner))
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


# ---------------------------------------------------------------------------
# Kernel tables: per model kind, (statistic, oracle value, bound) rows
# ---------------------------------------------------------------------------


def _mslr_rows(f: dict):
    n, k = f["n"], f["k"]
    for ell in range(k + 1):
        u, v = np.zeros(n), np.zeros(n)
        u[:k] = v[k - ell : 2 * k - ell] = 1.0
        est = gauss_kernel_mslr(k, f["sigma2"], u, v)
        yield ell, est.value, est.error_bound


def _ngca_rows(f: dict):
    for rho in np.linspace(-0.9, 0.9, 21).tolist():
        est = quad_kernel_ngca(f["mu"], rho, num_nodes=400)
        yield rho, est.value, max(est.error_bound, 1e-6)


def _slab_rows(f: dict):
    kappa, scale = normal_quantile(1.0 - f["alpha"] / 2.0), (1.0 - f["alpha"]) ** 2
    for rho in np.linspace(-1.0, 1.0, 21).tolist():
        est = bvn_rectangle(kappa, rho)
        yield rho, est.value / scale, max(est.error_bound / scale, 1e-6)


# (both, u only, v only) shares of the n + 1 coordinates in the counterexample
# table's pairs beyond its three corners; each of a, b and c varies
_COUNTEREXAMPLE_SHARES = (
    (0.5, 0.0, 0.0), (0.25, 0.25, 0.25), (0.0, 0.5, 0.5), (0.75, 0.25, 0.0),
    (0.0, 0.25, 0.0), (0.5, 0.0, 0.5), (0.25, 0.5, 0.25),
)


def _counterexample_rows(f: dict):
    n = f["n"]
    corners = [(1, 0, 0), (0, 1, n), (n, 0, 0)]  # u = v of weight 1 or n; weights 1 and n disjoint
    for c, bu, bv in corners + [tuple(int(share * (n + 1)) for share in shares) for shares in _COUNTEREXAMPLE_SHARES]:
        u, v = np.zeros(n + 1), np.zeros(n + 1)
        u[: c + bu] = v[:c] = v[c + bu : c + bu + bv] = 1.0
        est = enum_kernel_counterexample(n, f["r"], f["alpha_c"], u, v)
        yield (n + 1 - c - bu - bv, bu + bv, c), est.value, 1e-12


def _gam_rows(f: dict):  # restates exp(lambda^2 t)
    for t in np.linspace(-1.0, 1.0, 11).tolist():
        yield t, math.exp(f["lambda"] * f["lambda"] * t), 1e-12


def _dense_clique_rows(f: dict):  # restates p^{-C(ell, 2)}
    for ell in range(f["k"] + 1):
        oracle = f["p"] ** -math.comb(ell, 2)
        yield ell, oracle, 1e-12 * max(1.0, oracle)


def _dirac_rows(f: dict):  # restates 2^n on the diagonal, 0 off it
    try:
        diag = 2.0 ** f["n"]
    except OverflowError:
        raise ValueError(f"the dirac kernel 2^{f['n']} is past the float range") from None
    for t, oracle in ((0.0, 0.0), (1.0, diag)):
        yield t, oracle, 1e-12 * max(1.0, oracle)


KERNEL_ORACLES = {  # model kind: the rows of its kernel table from the model's fields
    "gam": _gam_rows,
    "mslr": _mslr_rows,
    "ngca": _ngca_rows,
    "slab": _slab_rows,
    "counterexample": _counterexample_rows,
    "dense_clique": _dense_clique_rows,
    "dirac": _dirac_rows,
}
