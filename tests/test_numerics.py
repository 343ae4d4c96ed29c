"""Hermite basis, Gauss-Hermite rules, and log-domain accumulators."""

import math

import mpmath as mp
import numpy as np
import pytest

from fpsq.criteria import chi_squared, log_moment
from fpsq.kernels import build_model
from fpsq.numerics import (
    QuadratureRule,
    gauss_hermite_rule,
    hermite_matrix,
    interval_indicator_coeffs,
    log_sum_exp,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    symmetric_indicator_coeffs,
    symmetric_indicator_tail,
)
from hermite_ref import hermite_coeffs, hermite_eval, series_eval, squared_mass


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


class TestHermiteEval:
    def test_degree_zero_is_constant_one(self):
        for x in (-3.0, 0.0, 3.7, 12.0):
            assert hermite_eval(0, x) == 1.0

    def test_degree_two_vanishes_at_unit(self):
        assert hermite_eval(2, 1.0) == 0.0
        assert hermite_eval(2, -1.0) == 0.0

    def test_degree_three_at_two(self):
        # independent route: unnormalized recurrence He_3(x) = x^3 - 3x,
        # then divide by sqrt(3!)
        expected = (2.0**3 - 3 * 2.0) / math.sqrt(6.0)
        assert hermite_eval(3, 2.0) == pytest.approx(expected, abs=1e-14)

    def test_three_term_recurrence(self):
        x = 1.37
        for i in range(1, 60):
            lhs = math.sqrt(i + 1) * hermite_eval(i + 1, x)
            rhs = x * hermite_eval(i, x) - math.sqrt(i) * hermite_eval(i - 1, x)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_degree_bounds(self):
        with pytest.raises(ValueError):
            hermite_eval(513, 0.0)
        with pytest.raises(ValueError):
            hermite_eval(-1, 0.0)
        assert math.isfinite(hermite_eval(512, 0.3))

    def test_matrix_agrees_with_scalar(self):
        xs = np.linspace(-3, 3, 7)
        mat = hermite_matrix(10, xs)
        for i in range(11):
            for j, x in enumerate(xs):
                assert mat[i, j] == pytest.approx(hermite_eval(i, float(x)), rel=1e-13, abs=1e-13)


class TestQuadrature:
    def test_one_point_rule(self):
        rule = gauss_hermite_rule(1)
        assert rule.nodes.tolist() == [0.0]
        assert rule.weights.tolist() == [1.0]

    def test_second_moment_two_nodes(self):
        rule = gauss_hermite_rule(2)
        assert rule.expect(lambda z: z**2) == pytest.approx(1.0, abs=1e-14)

    def test_fourth_moment_three_nodes(self):
        rule = gauss_hermite_rule(3)
        assert rule.expect(lambda z: z**4) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("num_nodes", [2, 5, 20, 64])
    def test_monomial_exactness_up_to_degree(self, num_nodes):
        # E[Z^{2k}] = (2k-1)!!, odd moments vanish; the 1e-10 tolerance
        # is relative to the integrand scale E[|Z|^deg] since high odd
        # moments cancel to roundoff of enormous summands
        rule = gauss_hermite_rule(num_nodes)
        for deg in range(0, 2 * num_nodes - 1):
            got = rule.expect(lambda z, d=deg: z**d)
            want = 0.0 if deg % 2 else float(double_factorial(deg - 1))
            scale = float(double_factorial(deg - 1 if deg % 2 == 0 else deg))
            assert abs(got - want) <= 1e-10 * max(1.0, scale)

    def test_weights_positive_and_normalized(self):
        for n in (2, 33, 200, 512):
            rule = gauss_hermite_rule(n)
            assert np.all(rule.weights > 0)
            assert abs(rule.weights.sum() - 1.0) <= 1e-12

    def test_orthonormality_to_degree_twenty(self):
        rule = gauss_hermite_rule(64)
        mat = hermite_matrix(20, rule.nodes)
        gram = (mat * rule.weights) @ mat.T
        np.testing.assert_allclose(gram, np.eye(21), atol=1e-10)

    def test_every_size_vs_scipy_and_its_moments(self):
        # every size against scipy's roots_hermitenorm (normalized to mass
        # 1), whose rule drops more underflowed tail nodes from 384 nodes
        # on, so the rules are aligned on their middles.  Weights are within
        # 1e-11, not 1e-12: scipy's own tail weights are off by up to 3.9e-12
        # (n = 143, its first node, against mpmath; see the next test).
        from scipy.special import roots_hermitenorm

        sizes = range(1, 513)
        rules = [gauss_hermite_rule(n) for n in sizes]
        for n, rule in zip(sizes, rules):
            nodes, weights = roots_hermitenorm(n)
            weights = weights / weights.sum()
            cut = (n - rule.num_nodes) // 2
            nodes, weights = nodes[cut:n - cut], weights[cut:n - cut]
            assert np.abs(rule.nodes - nodes).max() <= 1e-13, n
            big = weights > 1e-300
            assert (np.abs(rule.weights[big] / weights[big] - 1.0) <= 1e-11).all(), n
        # E[h_k(Z)] = delta_k0 up to degree 2n - 1, all sizes at once: the
        # recurrence runs over every rule's nodes, and each moment is summed per rule
        x = np.concatenate([r.nodes for r in rules])
        w = np.concatenate([r.weights for r in rules])
        starts = np.cumsum([0] + [r.num_nodes for r in rules[:-1]])
        top = 2 * np.array(sizes) - 1
        prev, cur = np.zeros_like(x), np.ones_like(x)
        for k in range(2 * sizes[-1]):
            moment = np.add.reduceat(w * cur, starts) - (k == 0)
            assert np.abs(moment[top >= k]).max() <= 1e-14, k
            prev, cur = cur, (x * cur - math.sqrt(k) * prev) / math.sqrt(k + 1)

    @pytest.mark.parametrize("n", [143, 200, 512])
    def test_tail_weights_vs_mpmath(self, n):
        # Newton on the 40-digit recurrence from each node; weight
        # 1 / (n h_{n-1}(x)^2) by Christoffel-Darboux, not the code's sum
        rule = gauss_hermite_rule(n)
        with mp.workdps(40):
            for j in (0, 1, 5, rule.num_nodes // 2):
                x = mp.mpf(float(rule.nodes[j]))
                for _ in range(3):
                    prev, cur = mp.mpf(0), mp.mpf(1)
                    for i in range(n):
                        prev, cur = cur, (x * cur - mp.sqrt(i) * prev) / mp.sqrt(i + 1)
                    x -= cur / (mp.sqrt(n) * prev)
                assert abs(rule.nodes[j] - x) <= 1e-14 * max(1, abs(x)), (n, j)
                assert rule.weights[j] == pytest.approx(float(1 / (n * prev**2)), rel=1e-13), (n, j)

    def test_node_count_bounds(self):
        with pytest.raises(ValueError):
            gauss_hermite_rule(0)
        with pytest.raises(ValueError):
            gauss_hermite_rule(513)

    def test_invalid_rule_rejected(self):
        with pytest.raises(ValueError):
            QuadratureRule(np.array([0.0, 1.0]), np.array([0.5, -0.5]))
        with pytest.raises(ValueError):
            QuadratureRule(np.array([0.0, 1.0]), np.array([0.6, 0.6]))


class TestNormal:
    def test_cdf_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_quantile_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_quantile_97_5(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)

    def test_mutually_inverse(self):
        for p in np.concatenate([
            np.array([1e-12, 1e-8, 1e-3]),
            np.linspace(0.01, 0.99, 25),
            np.array([1 - 1e-3, 1 - 1e-8, 1 - 1e-12]),
        ]):
            assert normal_cdf(normal_quantile(float(p))) == pytest.approx(float(p), abs=1e-10)

    def test_quantile_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                normal_quantile(bad)

    def test_quantile_and_cdf_within_two_ulp_of_mpmath(self):
        # p from 1e-300 to 1 - 1e-16 over both tails and the centre; the
        # CDF is checked at each 50-digit quantile rounded to a float
        ps = np.r_[np.logspace(-300, -1, 60), np.linspace(0.1, 0.9, 33),
                   1.0 - np.logspace(-1, -16, 30)]
        with mp.workdps(50):
            for p in ps.tolist():
                want = float(mp.findroot(lambda x: mp.ncdf(x) - p, mp.mpf(normal_quantile(p))))
                got = normal_quantile(p)
                assert abs(got - want) <= 2 * math.ulp(want), (p, got, want)
                want_p = float(mp.ncdf(want))
                assert abs(normal_cdf(want) - want_p) <= 2 * math.ulp(want_p), (want, want_p)


class TestHermiteCoeffs:
    def test_constant_function(self):
        rule = gauss_hermite_rule(40)
        series = hermite_coeffs(lambda z: np.ones_like(z), 10, rule)
        assert series.coefficients[0] == pytest.approx(1.0, abs=1e-13)
        assert max(abs(c) for c in series.coefficients[1:]) <= 1e-12

    def test_identity_function(self):
        rule = gauss_hermite_rule(40)
        series = hermite_coeffs(lambda z: z, 10, rule)
        assert series.coefficients[1] == pytest.approx(1.0, abs=1e-13)
        assert abs(series.coefficients[0]) <= 1e-13
        assert max(abs(c) for c in series.coefficients[2:]) <= 1e-12

    def test_indicator_second_coefficient_closed_form(self):
        # int_{-k}^{k} (z^2 - 1) phi(z) dz = -2 k phi(k), so the
        # normalized degree-2 weight is -sqrt(2) k phi(k)
        kappa = 1.3
        series = symmetric_indicator_coeffs(kappa, 12)
        expected = -math.sqrt(2.0) * kappa * normal_pdf(kappa)
        assert series.coefficients[2] == pytest.approx(expected, abs=1e-8)
        assert all(series.coefficients[i] == 0.0 for i in (1, 3, 5, 7))

    def test_indicator_matches_quadrature_route_on_low_degrees(self):
        kappa = 0.9
        exact = interval_indicator_coeffs(-kappa, kappa, 8)
        rule = gauss_hermite_rule(400)
        quad = hermite_coeffs(lambda z: (np.abs(z) <= kappa).astype(float), 8, rule)
        # raw quadrature on an indicator is slowly convergent; only a
        # loose agreement is expected, exactness belongs to the boundary formula
        np.testing.assert_allclose(quad.coefficients, exact.coefficients, atol=3e-2)

    def test_smooth_roundtrip_within_declared_tail(self):
        rule = gauss_hermite_rule(120)
        f = lambda z: np.exp(0.4 * z)
        series = hermite_coeffs(f, 30, rule)
        # L2(phi) error of the truncation vs the declared Parseval deficit
        err2 = rule.expect(lambda z: (f(z) - np.array([series_eval(series, float(x)) for x in z])) ** 2)
        assert err2 <= series.tail + 1e-10

    def test_rule_must_resolve_degree(self):
        rule = gauss_hermite_rule(10)
        with pytest.raises(ValueError):
            hermite_coeffs(lambda z: z, 12, rule)

    def test_indicator_tail_estimate_dominates_true_deficit(self):
        kappa = 1.6448536269514722
        series = symmetric_indicator_coeffs(kappa, 100)
        mass = 2 * normal_cdf(kappa) - 1
        true_deficit = mass - squared_mass(series)
        declared = symmetric_indicator_tail(kappa, 100)
        assert 0.0 < true_deficit <= declared


class TestLogAccumulation:
    def test_log_sum_exp_two_zeros(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_log_sum_exp_handles_minus_inf(self):
        assert log_sum_exp([-math.inf, 0.0]) == pytest.approx(0.0, abs=1e-15)
        assert log_sum_exp([-math.inf, -math.inf]) == -math.inf

    def test_log_sum_exp_empty_is_error(self):
        with pytest.raises(ValueError):
            log_sum_exp([])

    # E[K^m] on a discrete law is a log-sum-exp over the atom table;
    # these cases pin it through chi_squared = E[K^m] - 1 and log_moment

    def test_moment_unit_kernel(self):
        assert chi_squared(synthetic([0.0], [1.0], [1.0]), 100) == pytest.approx(0.0, abs=1e-12)

    def test_moment_hand_value(self):
        model = synthetic([0.0, 1.0], [0.5, 0.5], [2.0, 0.0])
        assert chi_squared(model, 3) + 1.0 == pytest.approx(4.0, rel=1e-12)

    def test_matches_naive_when_no_overflow(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            logs = rng.uniform(-2, 2, 6).tolist()
            w = rng.dirichlet(np.ones(6)).tolist()
            m = int(rng.integers(1, 10))
            model = synthetic(range(6), w, [math.exp(lv) for lv in logs])
            naive = sum(wi * math.exp(m * lv) for wi, lv in zip(w, logs))
            assert chi_squared(model, m) + 1.0 == pytest.approx(naive, rel=1e-12)
            assert log_moment(model, m) == pytest.approx(math.log(naive), rel=1e-12, abs=1e-14)

    def test_survives_overflow_scale(self):
        # naive evaluation overflows; the log route stays finite
        model = synthetic([0.0], [1.0], [math.exp(10.0)])
        assert log_moment(model, 100) == pytest.approx(1000.0, abs=1e-9)
        assert chi_squared(model, 100) == math.inf

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            synthetic([0.0, 1.0], [2.0, -1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            synthetic([], [], [])


def synthetic(values, probs, kernel_values):
    return build_model({"model": "synthetic", "values": [float(v) for v in values],
                        "probs": list(probs), "kernel_values": list(kernel_values)})
