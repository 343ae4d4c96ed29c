"""Independent Hermite references for the tests.

Scalar recurrence evaluation and quadrature-based coefficient
extraction on scipy's Gauss-Hermite rule: routes that share nothing with
the package's vectorized hermite_matrix and exact boundary-term
coefficients, so the tests can cross-check one against the other.
"""

import math

import numpy as np

from fpsq.numerics import HermiteSeries, hermite_matrix

MAX_DEGREE = 512


def hermite_eval(degree: int, x: float, max_degree: int = MAX_DEGREE) -> float:
    """Normalized probabilists' Hermite polynomial h_degree(x)."""
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    if degree > max_degree:
        raise ValueError(f"degree {degree} exceeds configured maximum {max_degree}")
    if degree == 0:
        return 1.0
    prev, cur = 1.0, float(x)
    for i in range(1, degree):
        prev, cur = cur, (x * cur - math.sqrt(i) * prev) / math.sqrt(i + 1)
    return cur


def normal_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """scipy's n-node Gauss-Hermite rule for the N(0, 1) weight, normalized
    to mass 1: sum_j w_j f(z_j) ~= E[f(Z)], exact for polynomials of
    degree <= 2n - 1."""
    from scipy.special import roots_hermitenorm

    nodes, weights = roots_hermitenorm(n)
    return nodes, weights / weights.sum()


def hermite_coeffs(f, max_degree: int, nodes: np.ndarray, weights: np.ndarray) -> HermiteSeries:
    """Hermite coefficients c_i = E[f(Z) h_i(Z)] of a smooth function by
    quadrature, with the Parseval deficit as the declared tail.  Needs
    at least max_degree + 1 nodes to resolve the requested degree."""
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    if nodes.size < max_degree + 1:
        raise ValueError(
            f"rule with {nodes.size} nodes cannot resolve degree {max_degree}; "
            f"need at least {max_degree + 1} nodes"
        )
    values = np.asarray(f(nodes), dtype=float)
    coeffs = hermite_matrix(max_degree, nodes) @ (weights * values)
    total = float(np.dot(weights, values * values))
    tail = max(total - float(np.dot(coeffs, coeffs)), 0.0)
    return HermiteSeries(tuple(float(c) for c in coeffs), tail=tail)


def series_eval(series: HermiteSeries, x: float) -> float:
    """sum_i c_i h_i(x) by the scalar recurrence."""
    return math.fsum(c * hermite_eval(i, x) for i, c in enumerate(series.coefficients))


def squared_mass(series: HermiteSeries) -> float:
    return math.fsum(c * c for c in series.coefficients)
