"""Closed-form kernels, group actions, and model assembly."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpsq import kernels
from fpsq.criteria import assumption_holds
from fpsq.kernels import (
    MU_KINDS,
    GroupSpec,
    ModelSpec,
    SingularityError,
    build_model,
    counterexample_kernel,
    dense_clique_kernel,
    dirac_kernel,
    gam_kernel,
    mslr_kernel,
    ngca_density_ratio,
    ngca_kernel,
    rho_g,
    si_kernel,
    si_lambda_coeffs,
    slab_kernel,
    synthetic_kernel,
)
from fpsq.laws import build_descriptor, make_law, mirror_index
from fpsq.scenarios import kernel_table
from hermite_ref import normal_rule


def mu_nu(mu_spec, max_degree):
    """nu_0..nu_d of an NGCA marginal, from its MU_KINDS builder."""
    return build_descriptor(mu_spec, MU_KINDS)[0](max_degree)


def lowest_degree(kernel, d):
    """The lowest degree of a nonzero coefficient in the kernel's series to degree d."""
    return next(i for i, c in enumerate(kernel.series(d), 1) if c)


def orbit_model(kernel, group, points):
    """The kernel on a uniform law over the points (and, under the sign
    flip, their negations)."""
    values = sorted(set(points) | ({-t for t in points} if group.order == 2 else set()))
    law = make_law({"kind": "atoms", "values": values, "probs": [1.0 / len(values)] * len(values)})
    return ModelSpec("orbit", {}, kernel, law, group)


def orbit_pair_average(kernel, group, t, k):
    """Mean of (K - 1)^k over the statistic values T(gu, g'v), (g, g')
    ranging over the group pairs: flipping one signal negates t."""
    pairs = [t] if group.order == 1 else [t, -t, -t, t]
    return math.fsum((kernel.eval(s) - 1.0) ** k for s in pairs) / len(pairs)


class TestGamKernel:
    def test_zero_snr_is_unit_kernel(self):
        k = gam_kernel(0.0)
        for t in (-1.0, 0.0, 0.3, 1.0):
            assert k.eval(t) == 1.0

    def test_zero_overlap(self):
        assert gam_kernel(1.3).eval(0.0) == 1.0

    def test_exponential_form(self):
        assert gam_kernel(1.0).eval(0.5) == pytest.approx(math.exp(0.5), rel=1e-15)

    def test_series_coefficients_are_poisson_weights(self):
        k = gam_kernel(1.2)
        l2 = 1.44
        coeffs = k.series(12)
        assert len(coeffs) == 12
        for i, c in enumerate(coeffs, 1):
            assert c == pytest.approx(l2**i / math.factorial(i), rel=1e-12)

    def test_series_reconstructs_kernel_within_tail(self):
        k = gam_kernel(0.9)
        for t in np.linspace(-0.95, 0.95, 11):
            series_val = 1.0 + math.fsum(c * t**i for i, c in enumerate(k.series(40), 1))
            assert k.eval(float(t)) == pytest.approx(series_val, abs=k.tail_bound(float(t), 40) + 1e-12)


class TestMslrKernel:
    def test_disjoint_supports(self):
        assert mslr_kernel(3, 1.0).eval(0.0) == 1.0

    def test_full_overlap_closed_form(self):
        assert mslr_kernel(3, 1.0).eval(3.0) == pytest.approx(16.0 / 7.0, rel=1e-15)

    def test_m_sample_power(self):
        # the criteria raise K to the m-th power as exp(m log K)
        k = mslr_kernel(4, 2.0)
        assert math.exp(5 * k.log_eval(3.0)) == pytest.approx((1 - 0.5**2) ** -5, rel=1e-14)

    def test_singularity_guard(self):
        with pytest.raises(SingularityError):
            mslr_kernel(3, 1.0).eval(4.0)

    def test_at_least_one_everywhere(self):
        k = mslr_kernel(5, 0.7)
        for ell in range(0, 6):
            assert k.eval(float(ell)) >= 1.0

    @pytest.mark.parametrize("sigma2", [1e-6, 1e-3, 1.0])
    def test_small_sigma2_vs_exact_gaussian_integral(self, sigma2):
        # -log1p(-x^2) rounded x^2 near |x| = 1: a relative gap of 2.7e-10 at
        # ell = k, sigma2 = 1e-6, where the factored 1 - x^2 keeps a few ulp
        rows = kernel_table({"model": "mslr", "n": 20, "k": 5, "sigma2": sigma2})
        assert [r.statistic for r in rows] == list(range(6))
        assert max(r.diff / r.oracle_value for r in rows) <= 1e-13


class TestNgcaKernel:
    def test_gaussian_null_marginal_degenerates(self):
        k = ngca_kernel({"kind": "gaussian", "mean": 0.0, "var": 1.0}, max_degree=30)
        assert not any(k.series(30))  # no generative exponent: every nu_i vanishes
        for t in np.linspace(-1, 1, 9):
            assert k.eval(float(t)) == pytest.approx(1.0, abs=1e-12)

    def test_variance_shift_second_coefficient(self):
        var = 1.7
        k = ngca_kernel({"kind": "gaussian", "mean": 0.0, "var": var}, max_degree=20)
        assert lowest_degree(k, 20) == 2
        assert mu_nu({"kind": "gaussian", "mean": 0.0, "var": var}, 20)[2] == pytest.approx(
            (var - 1.0) / math.sqrt(2.0), rel=1e-12)

    def test_rademacher_marginal_exponent_four(self):
        mu = {"kind": "atoms", "values": [-1.0, 1.0], "probs": [0.5, 0.5]}
        k, nu = ngca_kernel(mu, max_degree=20), mu_nu(mu, 20)
        assert abs(nu[1]) < 1e-12 and abs(nu[2]) < 1e-12 and abs(nu[3]) < 1e-12
        # recurrence oracle: unnormalized degree-4 value at +-1 is 1 - 6 + 3
        assert nu[4] == pytest.approx(-2.0 / math.sqrt(24.0), rel=1e-12)
        assert lowest_degree(k, 20) == 4

    @pytest.mark.parametrize("values, probs", [
        ([-1.0, math.nan], [0.5, 0.5]),
        ([-1.0, math.inf], [0.5, 0.5]),
        ([-1.0, 1.0], [math.nan, 0.5]),
        ([-1.0, 1.0], [1.5, -0.5]),  # sums to 1
    ])
    def test_atoms_marginal_must_be_finite_and_nonnegative(self, values, probs):
        with pytest.raises(ValueError, match="^'(values|probs)' must be"):
            ngca_kernel({"kind": "atoms", "values": values, "probs": probs}, max_degree=20)

    def test_uniform_marginal_unit_variance(self):
        w = math.sqrt(3.0)
        mu = {"kind": "uniform_symmetric", "half_width": w}
        k, nu = ngca_kernel(mu, max_degree=16), mu_nu(mu, 16)
        assert abs(nu[2]) < 1e-12  # variance matches the null
        assert nu[4] == pytest.approx((9.0 / 5.0 - 6.0 + 3.0) / math.sqrt(24.0), rel=1e-10)
        assert lowest_degree(k, 16) == 4

    def test_series_total_matches_closed_form(self):
        # chi^2(N(0, v) || N(0,1)) = 1/sqrt(v (2 - v)) - 1 for v < 2
        var = 1.5
        k = ngca_kernel({"kind": "gaussian", "mean": 0.0, "var": var}, max_degree=60)
        want = 1.0 / math.sqrt(var * (2.0 - var)) - 1.0
        assert k.series_total == pytest.approx(want, rel=1e-9)

    def test_diverging_total_is_flagged_unknown(self):
        k = ngca_kernel({"kind": "gaussian", "mean": 0.0, "var": 2.0}, max_degree=40)
        assert k.series_total is None

    def test_non_finite_coefficients_are_refused(self):
        # nu_{2j}^2 of a variance-3 marginal grows as 4^j / sqrt(pi j), past
        # the float range at degree 1030
        mu = {"kind": "gaussian", "mean": 0.0, "var": 3.0}
        with pytest.raises(ValueError, match="^ngca series coefficient of degree 1030 squares to "):
            ngca_kernel(mu, max_degree=2000)

    @pytest.mark.parametrize("max_degree", [200, 400, 1000])
    def test_variance_two_series_stays_finite(self, max_degree):
        # nu_i^2 of a variance-2 marginal falls as 1 / sqrt(pi i / 2); the
        # Stein recurrence on the unscaled E[He_i] passed the float range at
        # degree 302, so max_degree 400 was refused.  K(0.5) - 1 is
        # 1/sqrt(1 - 0.5^2) - 1, correctly rounded
        k = ngca_kernel({"kind": "gaussian", "mean": 0.0, "var": 2.0}, max_degree)
        assert (k.minus_one(0.0), k.minus_one(0.5)) == (0.0, 0.1547005383792515)
        assert sum(c > 0.0 for c in k.series(max_degree)) == max_degree // 2

    @pytest.mark.parametrize("var", [1.5, 1.7, 2.0])
    def test_gaussian_coefficients_match_mpmath(self, var):
        # nu_{2j} = (2j)! ((var - 1)/2)^j / (j! sqrt((2j)!)) at mean 0 (the odd
        # nu_i vanish), at 60 digits: the recurrence on nu_i keeps every one to
        # 1.7e-15 relative up to degree 200 (8e-14 through the unscaled E[He_i])
        import mpmath

        nu = mu_nu({"kind": "gaussian", "mean": 0.0, "var": var}, 200)
        with mpmath.workdps(60):
            h = (mpmath.mpf(var) - 1) / 2
            fact = mpmath.factorial
            want = [float(fact(2 * j) * h**j / (fact(j) * mpmath.sqrt(fact(2 * j)))) for j in range(101)]
        assert nu[1::2] == [0.0] * 100
        assert max(abs(got / w - 1.0) for got, w in zip(nu[0::2], want)) <= 4e-15

    @pytest.mark.parametrize("seed", range(8))
    def test_mixture_total_matches_mpmath_quadrature(self, seed):
        # chi^2(mu || N(0,1)) = E_phi[(dmu/dphi)^2] - 1, integrated at 30
        # digits; variances up to 1.95 give the slowly decaying tails where
        # Gauss-Hermite rules of 200 and 400 nodes disagree
        import mpmath

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        parts = list(zip(rng.dirichlet(np.ones(n)).tolist(), rng.uniform(-1.5, 1.5, n).tolist(),
                         rng.uniform(0.3, 1.95, n).tolist()))
        mu = {"kind": "gaussian_mixture", "weights": [w for w, _, _ in parts],
              "means": [m for _, m, _ in parts], "vars": [v for _, _, v in parts]}
        with mpmath.workdps(30):
            def squared_ratio(z):
                ratio = sum(w * mpmath.exp(z * z / 2 - (z - m) ** 2 / (2 * v)) / mpmath.sqrt(v)
                            for w, m, v in parts)
                return ratio * ratio * mpmath.npdf(z)

            want = mpmath.quad(squared_ratio, [-mpmath.inf, -40, -10, 0, 10, 40, mpmath.inf]) - 1
        assert ngca_kernel(mu, 20).series_total == pytest.approx(float(want), rel=1e-12)

    def test_uniform_total_is_unknown_rather_than_zero(self):
        # chi^2 of U(-w, w) is about sqrt(2 pi) / (2w) - 1 = 1252.3 at w = 1e-3;
        # quadrature of the squared density ratio on Hermite nodes read 0.0
        k = ngca_kernel({"kind": "uniform_symmetric", "half_width": 1e-3}, max_degree=8)
        assert k.series_total is None

    @pytest.mark.parametrize("var", [0.0, -1.0])
    def test_nonpositive_variance_is_refused(self, var):
        with pytest.raises(ValueError, match="variances must be positive"):
            ngca_kernel({"kind": "gaussian", "mean": 0.0, "var": var}, max_degree=8)

    def test_gaussian_is_the_one_component_mixture(self):
        gauss = {"kind": "gaussian", "mean": 0.4, "var": 1.3}
        mixture = {"kind": "gaussian_mixture", "weights": [1.0], "means": [0.4], "vars": [1.3]}
        assert mu_nu(gauss, 40) == mu_nu(mixture, 40)
        z, _ = normal_rule(200)
        assert ngca_density_ratio(gauss)(z).tolist() == ngca_density_ratio(mixture)(z).tolist()
        assert ngca_kernel(gauss, 40).series_total == ngca_kernel(mixture, 40).series_total


class TestSiKernel:
    def test_independent_link_unit_kernel(self):
        k = si_kernel({"kind": "independent"}, max_degree=12)
        assert not any(k.series(12))  # no generative exponent: every lambda_i vanishes
        for t in np.linspace(-1, 1, 7):
            assert k.eval(float(t)) == pytest.approx(1.0, abs=1e-12)

    def test_identity_link_all_ones(self):
        lams, s_star = si_lambda_coeffs({"kind": "identity"}, 8)
        assert s_star == 1
        assert all(l == 1.0 for l in lams)

    def test_truncated_series_zero_and_negative_values(self):
        # K_5(-1) = 1 - 1 + 1 - 1 + 1 - 1 = 0 for the identity link: an exact zero
        assert si_kernel({"kind": "identity"}, max_degree=5).log_eval(-1.0) == -math.inf
        # K(t) = 1 + 4t is negative below t = -1/4: refused as a ValueError
        kernel = ngca_kernel({"kind": "hermite_moments", "values": [1, 2]}, max_degree=1)
        assert kernel.log_eval(-0.25) == -math.inf
        with pytest.raises(SingularityError, match="negative"):
            kernel.log_eval(-1.0)

    def test_sign_link_first_coefficient(self):
        # half-normal mean oracle: E[z | z > 0] = sqrt(2/pi)
        lams, s_star = si_lambda_coeffs({"kind": "sign"}, 9)
        assert s_star == 1
        assert lams[1] ** 2 == pytest.approx(2.0 / math.pi, rel=1e-12)
        assert all(lams[i] == 0.0 for i in (2, 4, 6, 8))

    def test_sign_link_coefficients_vs_quadrature(self):
        # lambda_i = |2 int_0^inf h_i phi| for odd i, by adaptive
        # quadrature on the half line (independent of the closed form)
        from scipy import integrate

        from fpsq.numerics import normal_pdf
        from hermite_ref import hermite_eval

        lams, _ = si_lambda_coeffs({"kind": "sign"}, 7)
        for i in (1, 3, 5, 7):
            val, _ = integrate.quad(
                lambda z, d=i: hermite_eval(d, z) * normal_pdf(z), 0.0, 40.0,
                epsabs=1e-13, epsrel=1e-12, limit=200,
            )
            assert lams[i] == pytest.approx(abs(2.0 * val), rel=1e-10)

    def test_noisy_link_contraction(self):
        tau2 = 0.7
        lams, s_star = si_lambda_coeffs({"kind": "gaussian_noise", "tau2": tau2}, 6)
        assert s_star == 1
        for i in range(1, 7):
            assert lams[i] == pytest.approx((1 + tau2) ** (-i / 2), rel=1e-12)

    def test_abs_link_even_only(self):
        k = si_kernel({"kind": "abs"}, max_degree=10)
        assert lowest_degree(k, 10) == 2
        # closed form 1 + t^2/(1 - t^2)
        for t in (0.2, 0.5, -0.6):
            want = 1.0 + t * t / (1.0 - t * t)
            assert k.eval(t) == pytest.approx(want, abs=abs(t) ** 11 / (1 - t * t) + 1e-12)


class TestSlabKernel:
    def test_orthogonal_slabs_independent(self):
        assert slab_kernel(0.1, 40).eval(0.0) == 1.0

    def test_identical_slabs_exact_endpoint(self):
        for alpha in (0.05, 0.1, 0.3):
            k = slab_kernel(alpha, 40)
            assert k.eval(1.0) == pytest.approx(1.0 / (1.0 - alpha), rel=1e-14)
            assert k.eval(-1.0) == pytest.approx(1.0 / (1.0 - alpha), rel=1e-14)

    def test_even_series_only(self):
        k = slab_kernel(0.2, 30)
        assert not any(k.series(30)[0::2])  # c_1, c_3, ...
        for t in (0.3, 0.77):
            assert k.eval(t) == pytest.approx(k.eval(-t), rel=1e-14)

    def test_kernel_at_least_one(self):
        k = slab_kernel(0.3, 60)
        for t in np.linspace(-1, 1, 41):
            assert k.eval(float(t)) >= 1.0

    def test_parseval_total(self):
        k = slab_kernel(0.1, 100)
        alpha = 0.1
        assert k.series_total == pytest.approx(alpha / (1 - alpha), rel=1e-12)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            slab_kernel(0.1, 40).eval(1.5)
        with pytest.raises(ValueError):
            slab_kernel(0.0, 40)
        with pytest.raises(ValueError):
            slab_kernel(0.1, 41)


class TestCounterexampleKernel:
    def test_pair_class_products(self):
        n, r, a = 8, 0.3, 0.2
        k = counterexample_kernel(n, r, a)
        r2 = r * r
        assert k.eval((n, 0, 1)) == pytest.approx((1 + r2) ** n * (1 + r2 * a * a), rel=1e-12)
        assert k.eval((1, 0, n)) == pytest.approx((1 + r2) * (1 + r2 * a * a) ** n, rel=1e-12)
        assert k.eval((0, n + 1, 0)) == pytest.approx((1 + r2 * a) ** (n + 1), rel=1e-12)

    def test_m_sample_power(self):
        # the criteria raise K to the m-th power as exp(m log K)
        k = counterexample_kernel(6, 0.2, 0.4)
        want = ((1 + 0.04) ** 2 * (1 + 0.04 * 0.4) ** 3 * (1 + 0.04 * 0.16) ** 2) ** 3
        assert math.exp(3 * k.log_eval((2, 3, 2))) == pytest.approx(want, rel=1e-13)

    def test_count_validation(self):
        k = counterexample_kernel(8, 0.3, 0.2)
        with pytest.raises(ValueError):
            k.eval((4, 4, 4))
        with pytest.raises(ValueError):
            k.eval(3.0)


class TestCliqueAndDirac:
    def test_clique_no_edges_below_two(self):
        k = dense_clique_kernel(100, 0.7)
        assert k.eval(0.0) == 1.0
        assert k.eval(1.0) == 1.0

    def test_clique_pairwise(self):
        k = dense_clique_kernel(100, 0.7)
        assert k.eval(2.0) == pytest.approx(1.0 / 0.7, rel=1e-14)
        assert k.eval(5.0) == pytest.approx(0.7 ** -10, rel=1e-12)

    def test_dirac_diagonal_and_zero(self):
        k = dirac_kernel(20)
        assert k.eval(1.0) == 2.0**20
        assert k.log_eval(0.0) == -math.inf
        assert k.eval(0.0) == 0.0
        assert k.minus_one(0.0) == -1.0

    def test_sparse_family_kernels_at_least_one_where_nonzero(self):
        clique = dense_clique_kernel(200, 0.85)
        for ell in range(0, 12):
            assert clique.eval(float(ell)) >= 1.0
        dirac = dirac_kernel(10)
        assert dirac.eval(1.0) >= 1.0  # the only nonzero atom
        ce = counterexample_kernel(10, 0.3, 0.4)
        for a in range(0, 11):
            for c in range(0, 11 - a):
                assert ce.eval((a, 11 - a - c, c)) >= 1.0


class TestGroups:
    def test_trivial_orbit(self):
        g = GroupSpec("trivial")
        assert g.orbit(0.3) == [0.3]
        assert g.order == 1
        tab = orbit_model(gam_kernel(1.0), g, [-0.5, 0.0, 0.5]).atom_table
        assert tab.mirror.tolist() == [0, 1, 2] and tab.mirror_dev.tolist() == tab.dev.tolist()

    def test_sign_flip_orbit(self):
        g = GroupSpec("sign_flip")
        assert set(g.orbit(0.3)) == {0.3, -0.3}
        assert g.orbit(0.0) == [0.0]
        mirror, lone = mirror_index([-0.5, 0.0, 0.5, 0.7])
        assert mirror.tolist() == [2, 1, 0, 3]  # no atom at -0.7: the atom indexes itself
        assert lone.tolist() == [False, False, False, True]

    def test_sign_flip_preserves_symmetric_law(self):
        g = GroupSpec("sign_flip")
        assert g.preserves(make_law({"kind": "signed_sparse", "n": 20, "k": 3}))
        assert g.preserves(make_law({"kind": "sphere", "n": 10}))
        assert not g.preserves(make_law({"kind": "hypergeometric", "n": 20, "k": 3}))

    def test_rho_g_trivial_is_abs_deviation(self):
        k = mslr_kernel(4, 1.0)
        g = GroupSpec("trivial")
        assert rho_g(k, g, 3.0) == pytest.approx(k.eval(3.0) - 1.0, rel=1e-14)

    def test_rho_g_gam_sign_flip_uses_absolute_overlap(self):
        k = gam_kernel(1.0)
        g = GroupSpec("sign_flip")
        for t in (-0.5, 0.2, 0.9):
            assert rho_g(k, g, t) == pytest.approx(math.exp(abs(t)) - 1.0, rel=1e-13)

    def test_rho_g_even_for_even_kernels(self):
        k = slab_kernel(0.2, 40)
        g = GroupSpec("sign_flip")
        for t in (0.3, 0.65):
            assert rho_g(k, g, t) == pytest.approx(rho_g(k, g, -t), rel=1e-14)

    def test_group_average_cosh_bound(self):
        rep = assumption_holds(orbit_model(gam_kernel(1.0), GroupSpec("sign_flip"), [-0.5]))
        assert rep.min_value == pytest.approx(math.cosh(0.5) - 1.0, rel=1e-13)
        assert rep.min_value > 0.0 and rep.passed

    def test_group_average_nonneg_propagates_to_higher_orders(self):
        # with the trivial or sign-flip action, nonnegativity at k = 1
        # forces it at every order (x + y >= 0 implies x^k + y^k >= 0):
        # the k = 1 check is the least k = 1 average, and every higher
        # order's average is nonnegative wherever that one is
        kernels = [
            (gam_kernel(1.3), GroupSpec("sign_flip")),
            (ngca_kernel({"kind": "gaussian", "mean": 0.0, "var": 1.4}, 40), GroupSpec("sign_flip")),
            (mslr_kernel(5, 1.0), GroupSpec("trivial")),
        ]
        for kernel, group in kernels:
            ts = np.linspace(-0.9, 0.9, 13)
            if kernel.name == "mslr":
                ts = np.abs(ts) * 5
            model = orbit_model(kernel, group, ts.tolist())
            rep = assumption_holds(model)
            want = min(orbit_pair_average(kernel, group, t, 1) for t in model.law.values)
            assert rep.min_value == pytest.approx(want, rel=1e-9, abs=1e-14)
            assert rep.min_value >= -1e-13 and rep.passed
            assert all(orbit_pair_average(kernel, group, t, k) >= -1e-13
                       for t in model.law.values for k in range(1, 11))

    def test_ngca_sign_flip_average_keeps_even_terms(self):
        kernel = ngca_kernel({"kind": "gaussian", "mean": 0.4, "var": 1.3}, 40)
        g = GroupSpec("sign_flip")
        nu = mu_nu({"kind": "gaussian", "mean": 0.4, "var": 1.3}, 40)
        for t in (0.35, -0.6):
            want = math.fsum(nu[i] ** 2 * t**i for i in range(2, 41, 2) )
            # odd terms cancel in the orbit average at k = 1
            got = assumption_holds(orbit_model(kernel, g, [t])).min_value
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
            assert got >= 0.0


class TestModelAssembly:
    def test_domain_mismatch_rejected(self):
        law = make_law({"kind": "hypergeometric", "n": 30, "k": 4})
        kernel = counterexample_kernel(8, 0.2, 0.3)
        with pytest.raises(ValueError):
            ModelSpec("bad", {}, kernel, law, GroupSpec("trivial"))

    def test_group_must_preserve_law(self):
        law = make_law({"kind": "hypergeometric", "n": 30, "k": 4})
        kernel = mslr_kernel(4, 1.0)
        with pytest.raises(ValueError):
            ModelSpec("bad", {}, kernel, law, GroupSpec("sign_flip"))

    def test_builders_choose_documented_groups(self):
        assert build_model({"model": "gam", "lambda": 1.0,
                            "prior": {"kind": "sphere", "n": 10}}).group.kind == "sign_flip"
        assert build_model({"model": "mslr", "n": 40, "k": 4, "sigma2": 1.0}).group.kind == "trivial"
        assert build_model({"model": "slab", "alpha": 0.1, "d": 16}).group.kind == "trivial"
        assert build_model({"model": "dirac", "n": 20}).group.kind == "trivial"

    def test_pair_count_model_exposes_agreement_overlap(self):
        model = build_model({"model": "counterexample", "n": 8, "r": 0.2,
                             "alpha_c": 0.3, "rho_p": 0.3})
        # the atoms (8, 0, 1), (1, 0, 8) and (0, 9, 0): |<u,v>| is the agreement count c
        assert model.euclid_overlap is True
        assert model.atom_table.overlap.levels.tolist() == [0.0, 1.0, 8.0]

    def test_dirac_has_no_euclidean_overlap(self):
        model = build_model({"model": "dirac", "n": 20})
        assert model.euclid_overlap is False and model.atom_table.overlap is None

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            build_model({"model": "nope"})

    @pytest.mark.parametrize("desc, field", [
        ({"model": "mslr", "n": 200.5, "k": 5, "sigma2": 1.0}, "n"),
        ({"model": "mslr", "n": 200, "k": True, "sigma2": 1.0}, "k"),
        ({"model": "slab", "alpha": 0.1, "d": 128.5}, "d"),
        ({"model": "slab", "alpha": 0.1, "d": 128, "max_degree": 99.5}, "max_degree"),
        ({"model": "ngca", "mu": {"kind": "atoms", "values": [-1.0, 1.0], "probs": [0.5, 0.5]},
          "prior": {"kind": "signed_sparse", "n": 40, "k": 6}, "max_degree": "40"}, "max_degree"),
        ({"model": "counterexample", "n": 8.25, "r": 0.2, "alpha_c": 0.3, "rho_p": 0.3}, "n"),
        ({"model": "dense_clique", "n": 400, "k": 8.5, "p": 0.8}, "k"),
        ({"model": "dirac", "n": math.inf}, "n"),
    ])
    def test_a_size_that_is_not_a_whole_number_is_refused(self, desc, field):
        # int() would truncate it, or read a bool or a string, without a word
        with pytest.raises(ValueError, match=f"^'{field}' must be a whole number"):
            build_model(desc)

    @pytest.mark.parametrize("desc, message", [
        ({"model": "gam", "lambda": math.inf, "prior": {"kind": "rademacher_mean", "n": 10}}, "lambda"),
        ({"model": "gam", "lambda": 1e200, "prior": {"kind": "rademacher_mean", "n": 10}}, "lambda"),
        ({"model": "gam", "lambda": math.nan, "prior": {"kind": "rademacher_mean", "n": 10}}, "lambda"),
        ({"model": "ngca", "mu": {"kind": "gaussian", "mean": 0.0, "var": math.inf},
          "prior": {"kind": "sphere", "n": 50}}, "variances"),
        ({"model": "ngca", "mu": {"kind": "gaussian", "mean": math.nan, "var": 1.5},
          "prior": {"kind": "sphere", "n": 50}}, "variances"),
        ({"model": "ngca", "mu": {"kind": "gaussian_mixture", "weights": [0.5, 0.5], "means": [-1.0, math.inf],
                                  "vars": [1.0, 1.0]}, "prior": {"kind": "sphere", "n": 50}}, "variances"),
        ({"model": "synthetic", "values": [0.0, 0.5], "probs": [0.5, 0.5], "kernel_values": [1.0, math.nan]},
         "kernel values"),
        ({"model": "mslr", "n": 40, "k": 4, "sigma2": math.nan}, "sigma2"),
        ({"model": "ngca", "mu": {"kind": "uniform_symmetric", "half_width": math.nan},
          "prior": {"kind": "sphere", "n": 50}}, "half_width"),
    ])
    def test_a_non_finite_kernel_parameter_is_refused(self, desc, message):
        # lambda^2 = inf gives log K = inf * 0 = nan at t = 0, and a NaN
        # kernel value or Gaussian moment reaches every criterion as nan;
        # the descriptor reader names the field, gam_kernel the lambda^2 overflow
        field = {"variances": "(var|mean|means)", "kernel values": "kernel_values"}.get(message, message)
        with pytest.raises(ValueError, match=f"^'?{field}'? must be"):
            build_model(desc)

    def test_a_whole_float_size_is_its_integer(self):
        as_float = build_model({"model": "slab", "alpha": 0.1, "d": 16.0, "max_degree": 100.0})
        as_int = build_model({"model": "slab", "alpha": 0.1, "d": 16, "max_degree": 100})
        assert as_float.law.descriptor == as_int.law.descriptor == {"kind": "rademacher_mean", "n": 16}
        assert as_float.kernel_table[0].tolist() == as_int.kernel_table[0].tolist()

    def test_synthetic_zero_kernel_tagged(self):
        k = synthetic_kernel([0.0, 1.0], [0.0, 2.0])
        assert k.log_eval(0.0) == -math.inf
        assert k.eval(0.0) == 0.0


class TestArrayContract:
    def test_one_array_call_matches_the_calls_point_by_point(self):
        # the same code runs on a float and on an array: equal bit for bit,
        # and a float (or one pair count) comes back as a Python float
        from helpers import builtin_models

        for name, model in builtin_models().items():
            k = model.kernel
            points = model.law.values if model.is_discrete else model.law.grid
            calls = [k.log_eval, k.minus_one, k.eval]
            if k.series is not None:
                calls.append(lambda t: k.truncated_minus_one(t, 5))
            for call in calls:
                whole = call(np.asarray(points))
                singles = [call(t) for t in points]
                assert all(type(v) is float for v in singles), name
                assert np.array_equal(whole, singles), name
            assert type(rho_g(k, model.group, points[0])) is float


def horner_on_arrays(coeffs, x):
    """The series sum by whole-array Horner steps, as _series_sum sums many points."""
    acc = 0.0 * x
    for c in reversed(coeffs):
        acc += c
        acc *= x
    return acc


POINTS = st.one_of(
    st.floats(allow_nan=False),  # +-0.0, subnormals, huge |x| and the infinities included
    st.floats(0.99, 1.0).flatmap(lambda x: st.sampled_from([x, -x])),
    st.sampled_from([1.0 - 2.0**-53, -1.0 + 2.0**-53, 1e300, -1e300]))


@given(st.lists(st.floats(allow_nan=False), max_size=90), st.lists(POINTS, min_size=1, max_size=6))
def test_few_point_series_sum_is_the_array_sum_bit_for_bit(coeffs, points):
    x = np.array(points)
    with np.errstate(all="ignore"):
        want = horner_on_arrays(coeffs, x)
    got = kernels._series_sum(coeffs, x)
    assert len(points) <= kernels._FEW_POINTS and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestBinomialExpansionIdentity:
    def test_power_kernel_equals_binomial_sum(self):
        # exp(m log K) = sum_j C(m, j) (K - 1)^j on every discrete
        # built-in model, m <= 20, relative 1e-9
        from helpers import builtin_models

        for name, model in builtin_models().items():
            if not model.is_discrete:
                continue
            for v, _ in model.law.atoms:
                km1 = model.kernel.minus_one(v)
                lv = model.kernel.log_eval(v)
                for m in (1, 2, 5, 11, 20):
                    direct = 0.0 if lv is None else math.exp(m * lv)
                    terms = [math.comb(m, j) * km1**j for j in range(m + 1)]
                    binom = math.fsum(terms)
                    # relative to the positive-term scale: alternating
                    # sums (kernel below 1) cancel to roundoff of their
                    # largest terms, which is the attainable precision
                    scale = max(direct, math.fsum(abs(t) for t in terms))
                    assert abs(binom - direct) <= 1e-9 * max(scale, 1e-3), (name, v, m)
