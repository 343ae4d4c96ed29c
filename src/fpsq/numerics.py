"""Hermite / Gaussian special functions and log-domain accumulation.

Conventions used throughout the package:

- phi(z) = standard normal density, Phi(z) = its CDF.
- h_i is the NORMALIZED probabilists' Hermite polynomial, i.e.

      E[h_i(Z) h_j(Z)] = delta_ij   for Z ~ N(0, 1),

  with h_0 = 1, h_1(z) = z and the stable three-term recurrence

      h_{i+1}(z) = (z h_i(z) - sqrt(i) h_{i-1}(z)) / sqrt(i + 1).

- Quadrature rules integrate against the standard normal density:

      E[f(Z)] = int f(z) phi(z) dz ~= sum_j w_j f(z_j),   sum_j w_j = 1.

- Coefficients of interval indicators 1(a <= z <= b) admit the exact
  boundary form (integration by parts, He_i phi = -(He_{i-1} phi)'):

      int_a^b h_i(z) phi(z) dz = (h_{i-1}(a) phi(a) - h_{i-1}(b) phi(b)) / sqrt(i)

  for i >= 1, which is preferred over raw quadrature because quadrature
  converges slowly on discontinuous integrands.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

DEFAULT_MAX_DEGREE = 512
DEFAULT_NUM_NODES = 200

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_SQRT_HALF = 0.7071067811865476  # 1/sqrt(2) rounded; _SQRT_HALF_LO is the rest
_SQRT_HALF_LO = -4.833646656726457e-17

# Wichura's AS241 (PPND16) rational approximations of the normal quantile,
# lowest-degree coefficient first: the central stretch |p - 1/2| <= 0.425
# (_AS241_A / _AS241_B in r = 0.180625 - (p - 1/2)^2) and the tail for
# r = sqrt(-log min(p, 1 - p)) <= 5 (C / D, in r - 1.6) and beyond (E / F, in r - 5).
_AS241_A = (3.387132872796366608, 133.14166789178437745, 1971.5909503065514427,
            13731.693765509461125, 45921.953931549871457, 67265.770927008700853,
            33430.575583588128105, 2509.0809287301226727)
_AS241_B = (1.0, 42.313330701600911252, 687.1870074920579083, 5394.1960214247511077,
            21213.794301586595867, 39307.89580009271061, 28729.085735721942674,
            5226.495278852854561)
_AS241_C = (1.42343711074968357734, 4.6303378461565452959, 5.7694972214606914055,
            3.64784832476320460504, 1.27045825245236838258, 0.24178072517745061177,
            0.0227238449892691845833, 7.7454501427834140764e-4)
_AS241_D = (1.0, 2.05319162663775882187, 1.6763848301838038494, 0.68976733498510000455,
            0.14810397642748007459, 0.0151986665636164571966, 5.475938084995344946e-4,
            1.05075007164441684324e-9)
_AS241_E = (6.6579046435011037772, 5.4637849111641143699, 1.7848265399172913358,
            0.29656057182850489123, 0.026532189526576123093, 0.0012426609473880784386,
            2.71155556874348757815e-5, 2.01033439929228813265e-7)
_AS241_F = (1.0, 0.59983220655588793769, 0.13692988092273580531, 0.0148753612908506148525,
            7.868691311456132591e-4, 1.8463183175100546818e-5, 1.4215117583164458887e-7,
            2.04426310338993978564e-15)


def normal_pdf(x: float) -> float:
    """Standard normal density phi(x)."""
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def _rounding_of_half_erf(ax: float, w: float) -> float:
    """erf(ax/sqrt 2)/2 - erf(w)/2 to first order, w = fl(ax _SQRT_HALF):
    the rounding of w, which erfc magnifies 2 w^2 times in the tail, from
    Dekker's exact product and the rest of 1/sqrt(2).  ax must be below 1e300."""
    c = 134217729.0 * ax  # Veltkamp splits into 26-bit halves
    a_hi = c - (c - ax)
    c = 134217729.0 * _SQRT_HALF
    b_hi = c - (c - _SQRT_HALF)
    a_lo, b_lo = ax - a_hi, _SQRT_HALF - b_hi
    lost = ((a_hi * b_hi - w) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo + ax * _SQRT_HALF_LO
    return _INV_SQRT_PI * math.exp(-w * w) * lost


def normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x), within 2 ulp in both tails: the lower
    tail erfc(|x|/sqrt 2)/2 as cephes ndtr takes it, corrected for the
    rounding of |x|/sqrt 2."""
    ax = abs(x)
    w = ax * _SQRT_HALF
    tail = 0.5 * math.erfc(w)
    if tail > 0.0:  # so |x| < 40
        tail -= _rounding_of_half_erf(ax, w)
    return tail if x < 0.0 else 1.0 - tail


def _poly(coeffs: Sequence[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def normal_quantile(p: float) -> float:
    """Inverse of normal_cdf on (0, 1), within 2 ulp: Wichura's AS241
    (Appl. Statist. 37, 1988), then one Newton step, through erfc on the
    lower tail and through erf on the central stretch, where p - 1/2 is
    exact.

    Raises ValueError outside the open unit interval; the endpoints map
    to non-finite values and are rejected rather than returned.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal_quantile requires p in (0, 1), got {p}")
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        x = q * _poly(_AS241_A, r) / _poly(_AS241_B, r)
        ax = abs(x)
        w = ax * _SQRT_HALF
        excess = math.copysign(0.5 * math.erf(w) + _rounding_of_half_erf(ax, w), x) - q
        return x - excess / normal_pdf(x)
    low = min(p, 1.0 - p)  # 1 - p is exact for p >= 1/2
    r = math.sqrt(-math.log(low))
    if r <= 5.0:
        x = -_poly(_AS241_C, r - 1.6) / _poly(_AS241_D, r - 1.6)
    else:
        x = -_poly(_AS241_E, r - 5.0) / _poly(_AS241_F, r - 5.0)
    density = normal_pdf(x)
    if density > 0.0:
        x -= (normal_cdf(x) - low) / density
    return x if q < 0.0 else -x


def hermite_matrix(max_degree: int, x: np.ndarray) -> np.ndarray:
    """Matrix H with H[i, j] = h_i(x_j) for i = 0..max_degree.

    Vectorized form of the three-term recurrence.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((max_degree + 1, x.size), dtype=float)
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = x
    for i in range(1, max_degree):
        out[i + 1] = (x * out[i] - math.sqrt(i) * out[i - 1]) / math.sqrt(i + 1)
    return out


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes/weights for the standard normal weight.

    An N-node rule integrates polynomials of degree <= 2N - 1 exactly
    against phi; weights are strictly positive and sum to 1.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1D arrays of equal length")
        if np.any(weights <= 0.0):
            raise ValueError("quadrature weights must be strictly positive")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 1 within 1e-12")

    @property
    def num_nodes(self) -> int:
        return int(self.nodes.size)

    def expect(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        """E[f(Z)] for Z ~ N(0,1); f must accept an ndarray of nodes."""
        return float(np.dot(self.weights, np.asarray(f(self.nodes), dtype=float)))


def _hermite_sweep(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(h_{n-1}(x) s, h_n(x) s, sum_{i<n} h_i(x)^2 s^2, s) at each node,
    by the normalized recurrence started from s = exp(-x^2/4), which keeps
    every term within a small factor of 1 (|h_i(x)| <= 1.09 e^{x^2/4},
    Cramer's inequality) for |x| up to about 53."""
    s = np.exp(-0.25 * x * x)
    roots = np.sqrt(np.arange(n + 1.0))
    prev, cur, total = np.zeros_like(x), s, np.zeros_like(x)
    for i in range(n):
        total += cur * cur
        prev, cur = cur, (x * cur - roots[i] * prev) / roots[i + 1]
    return prev, cur, total, s


@functools.cache
def gauss_hermite_rule(num_nodes: int = DEFAULT_NUM_NODES) -> QuadratureRule:
    """Gauss-Hermite rule of the given size for the N(0,1) weight, built
    once per size.

    Golub-Welsch: since He_2k(x) and He_2k+1(x)/x are Laguerre polynomials
    in x^2/2 (parameter -1/2 and +1/2), the nodes are +-sqrt(2 y) for y the
    eigenvalues of that Laguerre Jacobi matrix, half the size of Hermite's;
    one Newton step with the normalized recurrence refines them, and the
    weights are the Christoffel numbers 1 / sum_{i<n} h_i(x_j)^2.  Nodes
    whose weight underflows to 0 (from about 350 nodes on) are dropped,
    which changes nothing at double precision.
    """
    if not 1 <= num_nodes <= DEFAULT_MAX_DEGREE:
        raise ValueError(f"num_nodes must be in [1, {DEFAULT_MAX_DEGREE}], got {num_nodes}")
    half, odd = divmod(num_nodes, 2)
    alpha = odd - 0.5
    k = np.arange(half)
    jacobi = np.diag(2.0 * k + alpha + 1.0)
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    jacobi += np.diag(off, 1) + np.diag(off, -1)
    pos = np.sqrt(2.0 * np.linalg.eigvalsh(jacobi)) if half else np.empty(0)
    x = np.r_[-pos[::-1], np.zeros(odd), pos]
    prev, cur, _, _ = _hermite_sweep(num_nodes, x)
    x = x - cur / (math.sqrt(num_nodes) * prev)
    _, _, total, s = _hermite_sweep(num_nodes, x)
    weights = s / total * s
    keep = weights > 0.0
    nodes, weights = x[keep], weights[keep] / weights[keep].sum()
    nodes.flags.writeable = weights.flags.writeable = False  # one cached rule serves every caller
    return QuadratureRule(nodes, weights)


@dataclass(frozen=True)
class HermiteSeries:
    """Truncated expansion f ~= sum_i coefficients[i] h_i in L2(phi).

    `tail` is the declared estimate of the L2(phi) mass beyond the
    truncation (Parseval deficit E[f^2] - sum c_i^2, clipped at 0), or
    None when no such estimate is available.
    """

    coefficients: tuple[float, ...]
    tail: float | None = None


def interval_indicator_coeffs(a: float, b: float, max_degree: int) -> HermiteSeries:
    """Exact Hermite coefficients of the indicator 1(a <= z <= b).

    Uses the boundary-term formula; the declared tail is the exact
    Parseval deficit Phi(b) - Phi(a) - sum_i c_i^2 (the indicator's
    L2(phi) norm equals its mass).
    """
    if not a <= b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    mass = normal_cdf(b) - normal_cdf(a)
    coeffs = [mass]
    pa, pb = normal_pdf(a), normal_pdf(b)
    ha_prev, ha = 1.0, a
    hb_prev, hb = 1.0, b
    for i in range(1, max_degree + 1):
        if i == 1:
            lo, hi = 1.0, 1.0
        else:
            ha_prev, ha = ha, (a * ha - math.sqrt(i - 1) * ha_prev) / math.sqrt(i)
            hb_prev, hb = hb, (b * hb - math.sqrt(i - 1) * hb_prev) / math.sqrt(i)
            lo, hi = ha_prev, hb_prev
        coeffs.append((lo * pa - hi * pb) / math.sqrt(i))
    tail = max(mass - sum(c * c for c in coeffs), 0.0)
    return HermiteSeries(tuple(coeffs), tail=tail)


def symmetric_indicator_coeffs(kappa: float, max_degree: int) -> HermiteSeries:
    """Coefficients f_i of 1(|z| <= kappa); odd ones vanish by symmetry."""
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    series = interval_indicator_coeffs(-kappa, kappa, max_degree)
    coeffs = list(series.coefficients)
    for i in range(1, len(coeffs), 2):
        coeffs[i] = 0.0
    return HermiteSeries(tuple(coeffs), tail=series.tail)


def symmetric_indicator_tail(kappa: float, degree: int, extend_to: int = 200_000) -> float:
    """Upper estimate of sum_{i > degree} f_i^2 for 1(|z| <= kappa).

    Sums the exact coefficients up to `extend_to` by recurrence, then
    bounds the remainder using the envelope f_i^2 = 4 phi(kappa)^2
    h_{i-1}(kappa)^2 / i with h_{i-1}^2 <= M / sqrt(i) calibrated on the
    last computed stretch (1.5x safety factor):

        sum_{i > B} f_i^2 <= 4 phi(kappa)^2 M / sqrt(B).
    """
    if degree < 2:
        raise ValueError("degree must be at least 2")
    if extend_to <= degree:
        raise ValueError("extend_to must exceed degree")
    p = normal_pdf(kappa)
    prev, cur = 1.0, kappa  # h_0, h_1 at kappa
    partial = 0.0
    envelope = 0.0
    watch_from = int(0.9 * extend_to)
    for i in range(2, extend_to + 1, 2):
        # advance recurrence two degrees so that (prev, cur) = (h_{i-2}, h_{i-1})
        prev, cur = cur, (kappa * cur - math.sqrt(i - 1) * prev) / math.sqrt(i)
        fi = -2.0 * prev * p / math.sqrt(i)
        if i > degree:
            partial += fi * fi
        if i >= watch_from:
            envelope = max(envelope, prev * prev * math.sqrt(i))
        prev, cur = cur, (kappa * cur - math.sqrt(i) * prev) / math.sqrt(i + 1)
    remainder = 4.0 * p * p * (1.5 * envelope) / math.sqrt(extend_to)
    return partial + remainder


def log_sum_exp(log_terms: Sequence[float]) -> float:
    """log(sum_i exp(log_terms[i])), stable against overflow.

    Terms of -inf are allowed (exact zeros); an empty input is an error
    rather than -inf since every caller expects a nonempty sum.  The
    shifted exponentials are summed exactly (math.fsum).
    """
    x = np.asarray(log_terms, dtype=float)
    if x.size == 0:
        raise ValueError("log_sum_exp requires at least one term")
    m = float(x.max())
    if math.isinf(m):
        return m
    return m + math.log(math.fsum(np.exp(x - m).tolist()))
