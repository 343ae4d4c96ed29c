"""Independent oracles: the exact mSLR Gaussian integral, enumeration,
quadrature, and the tests' Monte Carlo check of the discrete criterion
sums."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fpsq.criteria import fp_value
from fpsq.kernels import build_model, ngca_kernel, slab_kernel
from fpsq.numerics import normal_cdf, normal_quantile
from fpsq.oracles import (
    ResourceLimitError,
    bvn_rectangle,
    enum_kernel_counterexample,
    gauss_kernel_mslr,
    quad_kernel_ngca,
)
from helpers import covers, mc_criterion


def sparse_pair(n, k, ell):
    u = np.zeros(n)
    v = np.zeros(n)
    u[:k] = 1
    v[k - ell : 2 * k - ell] = 1
    return u, v


def mslr_closed_form(k, sigma2, ell):
    """(1 - (ell/(k + sigma2))^2)^-1 in exact rational arithmetic, correctly rounded."""
    scale = k + Fraction(sigma2)
    return float(scale * scale / (scale * scale - ell * ell))


class TestMslrGaussianIntegral:
    # the oracle integrates L_u L_v over (<x,u>, <x,v>, y) ~ N(0, S) exactly;
    # S is singular at ell = k, and I + S A is ill-conditioned at small sigma2
    @pytest.mark.parametrize("k, sigma2", [(5, 1.0), (4, 36.0), (5, 50.0)])
    def test_every_overlap_is_the_closed_form(self, k, sigma2):
        for ell in range(k + 1):
            est = gauss_kernel_mslr(k, sigma2, *sparse_pair(3 * k, k, ell))
            assert est.error_bound == 1e-12 * est.value and est.method == "gaussian-integral"
            assert covers(est, mslr_closed_form(k, sigma2, ell))

    def test_disjoint_supports_mean_one(self):
        for sigma2 in (1.0, 36.0, 50.0):
            est = gauss_kernel_mslr(3, sigma2, *sparse_pair(12, 3, 0))
            assert covers(est, 1.0)

    def test_full_overlap_closed_form(self):
        est = gauss_kernel_mslr(3, 25.0, *sparse_pair(12, 3, 3))
        want = 1.0 / (1.0 - (3.0 / 28.0) ** 2)
        assert covers(est, want)

    @pytest.mark.parametrize("sigma2", [1e-6, 0.3])
    def test_small_noise_keeps_every_digit(self, sigma2):
        # a float determinant of I + S A read 1499820.32 for 1500000.75 at
        # sigma2 = 1e-6, ell = k = 3: its entries are ~1e12 and cancel
        for ell in range(4):
            est = gauss_kernel_mslr(3, sigma2, *sparse_pair(10, 3, ell))
            assert covers(est, mslr_closed_form(3, sigma2, ell))

    def test_input_validation(self):
        u, v = sparse_pair(10, 3, 1)
        with pytest.raises(ValueError):
            gauss_kernel_mslr(4, 1.0, u, v)
        with pytest.raises(ValueError):
            gauss_kernel_mslr(3, 1.0, u * 2.0, v)


class TestEnumeration:
    def test_null_signal_strength(self):
        n = 6
        u = np.r_[1.0, np.zeros(n)]
        v = np.r_[0.0, np.ones(n)]
        est = enum_kernel_counterexample(n, 0.0, 0.2, u, v)
        assert est.value == pytest.approx(1.0, abs=1e-15)
        assert est.error_bound == 0.0

    def test_mixed_pair_product_formula(self):
        n, r, a = 8, 0.3, 0.2
        u = np.r_[1.0, np.zeros(n)]
        v = np.r_[0.0, np.ones(n)]
        est = enum_kernel_counterexample(n, r, a, u, v)
        assert est.value == pytest.approx((1 + r * r * a) ** (n + 1), rel=1e-12)

    def test_single_coordinate_factorization(self):
        # one-coordinate hand value: E[(1 + r x (1-(1-a)u))(1 + r x (1-(1-a)v))]
        # = 1 + r^2 a^{u+v}
        r, a = 0.4, 0.3
        for u0, v0 in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            est = enum_kernel_counterexample(0, r, a, np.array([float(u0)]), np.array([float(v0)]))
            assert est.value == pytest.approx(1 + r * r * a ** (u0 + v0), rel=1e-14)

    def test_resource_limit(self):
        n = 20
        u = np.zeros(n + 1)
        v = np.zeros(n + 1)
        with pytest.raises(ResourceLimitError):
            enum_kernel_counterexample(n, 0.1, 0.1, u, v)


class TestNgcaQuadrature:
    def test_independent_pair(self):
        est = quad_kernel_ngca({"kind": "gaussian", "mean": 0.0, "var": 1.5}, 0.0)
        assert est.value == pytest.approx(1.0, abs=1e-10)

    def test_null_marginal_unit_kernel(self):
        for rho in (-0.8, -0.3, 0.0, 0.5, 1.0):
            est = quad_kernel_ngca({"kind": "gaussian", "mean": 0.0, "var": 1.0}, rho)
            assert est.value == pytest.approx(1.0, abs=1e-10)

    def test_variance_two_series_crosscheck(self):
        kernel = ngca_kernel({"kind": "gaussian", "mean": 0.0, "var": 2.0}, max_degree=200)
        est = quad_kernel_ngca({"kind": "gaussian", "mean": 0.0, "var": 2.0}, 0.5, num_nodes=200)
        assert abs(est.value - kernel.eval(0.5)) <= 1e-6
        # closed form for the variance-2 marginal: 1/sqrt(1 - rho^2)
        assert est.value == pytest.approx(1.0 / math.sqrt(0.75), rel=1e-8)

    def test_node_doubling_bound(self):
        spec = {"kind": "gaussian", "mean": 0.0, "var": 1.5}
        for rho in (-0.9, -0.4, 0.2, 0.7):
            coarse = quad_kernel_ngca(spec, rho, num_nodes=100)
            fine = quad_kernel_ngca(spec, rho, num_nodes=200)
            assert abs(fine.value - coarse.value) <= coarse.error_bound + 1e-12

    def test_discrete_marginal_unsupported(self):
        with pytest.raises(ValueError):
            quad_kernel_ngca({"kind": "atoms", "values": [-1, 1], "probs": [0.5, 0.5]}, 0.3)


class TestBvnRectangle:
    def test_independent(self):
        kappa = 1.3
        est = bvn_rectangle(kappa, 0.0)
        want = (2 * normal_cdf(kappa) - 1) ** 2
        assert est.value == pytest.approx(want, abs=1e-10)

    def test_perfect_correlation(self):
        kappa = 0.8
        est = bvn_rectangle(kappa, 1.0)
        assert est.value == pytest.approx(2 * normal_cdf(kappa) - 1, abs=1e-12)

    def test_slab_kernel_crosscheck(self):
        alpha = 0.1
        kernel = slab_kernel(alpha, 160)
        kappa = normal_quantile(1 - alpha / 2)
        for rho in np.linspace(-0.9, 0.9, 13):
            est = bvn_rectangle(kappa, float(rho))
            assert abs(est.value - kernel.eval(float(rho)) * (1 - alpha) ** 2) <= 1e-6

    def test_correlation_inequality_grid(self):
        # Q(K n K') >= Q(K) Q(K') on a rho grid for slab bodies
        for alpha in (0.1, 0.3, 0.5):
            kappa = normal_quantile(1 - alpha / 2)
            floor = (2 * normal_cdf(kappa) - 1) ** 2
            for rho in np.linspace(-1, 1, 41):
                est = bvn_rectangle(kappa, float(rho))
                assert est.value >= floor - 1e-10


class TestMcCriterion:
    def test_unit_kernel_event_mass(self):
        model = build_model({
            "model": "synthetic", "values": [0.0, 1.0], "probs": [0.75, 0.25],
            "kernel_values": [1.0, 1.0],
        })
        est = mc_criterion(model, "fp", q=2.5, m=4, num_pairs=200_000, seed=3)
        exact = fp_value(model, 2.5, 4).value
        assert covers(est, exact)

    def test_mslr_fp_band(self):
        model = build_model({"model": "mslr", "n": 40, "k": 4, "sigma2": 1.0})
        exact = fp_value(model, 5, 2).value
        est = mc_criterion(model, "fp", q=5, m=2, num_pairs=1_000_000, seed=9)
        assert covers(est, exact)

    def test_chi2_band(self):
        model = build_model({"model": "mslr", "n": 40, "k": 4, "sigma2": 1.0})
        from fpsq.criteria import chi_squared

        est = mc_criterion(model, "chi2", q=None, m=2, num_pairs=500_000, seed=1)
        assert covers(est, chi_squared(model, 2))

    def test_deterministic(self):
        model = build_model({"model": "mslr", "n": 40, "k": 4, "sigma2": 1.0})
        a = mc_criterion(model, "rho_fp", q=4, m=2, num_pairs=100_000, seed=12)
        b = mc_criterion(model, "rho_fp", q=4, m=2, num_pairs=100_000, seed=12)
        assert a.value == b.value

    def test_pair_count_statistic_band(self):
        from fpsq.criteria import chi_squared

        model = build_model({"model": "counterexample", "n": 8, "r": 0.3,
                             "alpha_c": 0.2, "rho_p": 0.3})
        est = mc_criterion(model, "chi2", q=None, m=2, num_pairs=200_000, seed=2)
        assert covers(est, chi_squared(model, 2))


class TestKernelTables:
    def test_counterexample_table_exact(self):
        from fpsq.scenarios import kernel_table

        rows = kernel_table({"model": "counterexample", "n": 8, "r": 0.3,
                             "alpha_c": 0.2, "rho_p": 0.3})
        assert len(rows) >= 10
        for row in rows:
            assert row.diff <= 1e-12

    def test_gam_table(self):
        from fpsq.scenarios import kernel_table

        rows = kernel_table({"model": "gam", "lambda": 0.0,
                             "prior": {"kind": "sphere", "n": 10}})
        assert all(r.kernel_value == 1.0 for r in rows)
        assert all(r.passed for r in rows)

    def test_ngca_table_within_bounds(self):
        from fpsq.scenarios import kernel_table

        rows = kernel_table({
            "model": "ngca",
            "mu": {"kind": "gaussian", "mean": 0.0, "var": 1.5},
            "prior": {"kind": "sphere", "n": 30},
            "max_degree": 80,
        })
        assert len(rows) == 21
        assert all(r.passed for r in rows)
