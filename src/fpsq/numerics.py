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

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr, ndtri, roots_hermitenorm

DEFAULT_MAX_DEGREE = 512
DEFAULT_NUM_NODES = 200

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def normal_pdf(x: float) -> float:
    """Standard normal density phi(x)."""
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x), accurate in both tails."""
    return float(ndtr(x))


def normal_quantile(p: float) -> float:
    """Inverse of normal_cdf on (0, 1).

    Raises ValueError outside the open unit interval; the endpoints map
    to non-finite values and are rejected rather than returned.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal_quantile requires p in (0, 1), got {p}")
    return float(ndtri(p))


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


def gauss_hermite_rule(num_nodes: int = DEFAULT_NUM_NODES) -> QuadratureRule:
    """Gauss-Hermite rule of the given size for the N(0,1) weight.

    Nodes/weights come from the Golub-Welsch eigenproblem behind
    scipy's probabilists' roots_hermitenorm (stable through 512 nodes);
    the weights are renormalized from integral sqrt(2 pi) to mass 1.
    """
    if not 1 <= num_nodes <= DEFAULT_MAX_DEGREE:
        raise ValueError(f"num_nodes must be in [1, {DEFAULT_MAX_DEGREE}], got {num_nodes}")
    if num_nodes == 1:
        return QuadratureRule(np.array([0.0]), np.array([1.0]))
    nodes, weights = roots_hermitenorm(num_nodes)
    # beyond ~350 nodes the extreme tail weights underflow to exactly 0;
    # dropping those nodes changes nothing at double precision
    keep = weights > 0.0
    nodes, weights = nodes[keep], weights[keep]
    weights = weights / weights.sum()
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
