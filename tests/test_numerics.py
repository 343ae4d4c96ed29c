"""Hermite basis, normal CDF and quantile, and log-domain accumulators."""

import math
import struct

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fpsq import numerics
from fpsq.criteria import chi_squared, log_moment
from fpsq.kernels import build_model
from fpsq.numerics import (
    exact_sum,
    hermite_matrix,
    interval_indicator_coeffs,
    log_sum_exp,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    symmetric_indicator_coeffs,
    symmetric_indicator_tail,
)
from hermite_ref import hermite_coeffs, hermite_eval, normal_rule, series_eval, squared_mass


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
        series = hermite_coeffs(lambda z: np.ones_like(z), 10, *normal_rule(40))
        assert series.coefficients[0] == pytest.approx(1.0, abs=1e-13)
        assert max(abs(c) for c in series.coefficients[1:]) <= 1e-12

    def test_identity_function(self):
        series = hermite_coeffs(lambda z: z, 10, *normal_rule(40))
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
        quad = hermite_coeffs(lambda z: (np.abs(z) <= kappa).astype(float), 8, *normal_rule(400))
        # raw quadrature on an indicator is slowly convergent; only a
        # loose agreement is expected, exactness belongs to the boundary formula
        np.testing.assert_allclose(quad.coefficients, exact.coefficients, atol=3e-2)

    def test_smooth_roundtrip_within_declared_tail(self):
        nodes, weights = normal_rule(120)
        f = lambda z: np.exp(0.4 * z)
        series = hermite_coeffs(f, 30, nodes, weights)
        # L2(phi) error of the truncation vs the declared Parseval deficit
        err2 = weights @ (f(nodes) - np.array([series_eval(series, float(x)) for x in nodes])) ** 2
        assert err2 <= series.tail + 1e-10

    def test_rule_must_resolve_degree(self):
        with pytest.raises(ValueError):
            hermite_coeffs(lambda z: z, 12, *normal_rule(10))

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

    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
           | st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]))
    @example(-0.0)
    @example(0.0)
    @example(5e-324)
    @example(-2.2250738585072004e-308)
    @example(math.nan)
    @example(-math.nan)
    @example(math.inf)
    @example(-math.inf)
    def test_log_sum_exp_of_one_term_is_the_shifted_sum_bit_for_bit(self, x):
        # one term skips numpy; the result is the general path's m + log(exact_sum(exp(x - m)))
        def shifted(terms):
            with np.errstate(all="ignore"):
                v = np.asarray(terms, dtype=float)
                m = float(v.max())
                return m if math.isinf(m) else m + math.log(exact_sum(np.exp(v - m)))

        want = struct.pack("<d", shifted([x]))
        assert struct.pack("<d", log_sum_exp([x])) == want
        assert struct.pack("<d", log_sum_exp(np.array([x]))) == want

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


# sizes around exact_sum's hand-over to math.fsum, and at 2^k, 2^k + 1 for
# k = 7..16, where ceil(log2 n), and so the window width, steps
_CUTOFF = numerics._EXACT_SUM_MIN_SIZE
_SUM_SIZES = sorted({_CUTOFF - 1, _CUTOFF, _CUTOFF + 1}
                    | {2**k + d for k in range(7, 17) for d in (0, 1)})


def _fsum_outcome(fn, x):
    """('value', the float's bits or 'nan') or ('raises', exception type)."""
    try:
        y = fn(x)
    except (ValueError, OverflowError) as exc:
        return "raises", type(exc)
    return "value", "nan" if math.isnan(y) else y.hex()


@st.composite
def float_arrays(draw):
    """Arrays of a drawn size whose binary exponents span up to 2,000
    orders anywhere from the subnormals to the overflow threshold, with
    signed cancellation, +-0 and inf / nan mixed in on request."""
    n = draw(st.sampled_from(_SUM_SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.integers(-1074, 1024))
    span = draw(st.integers(0, 2000))
    x = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(top - span, top + 1, n))
    signs = draw(st.sampled_from(["positive", "mixed", "cancel"]))
    if signs == "mixed":
        x *= rng.choice([-1.0, 1.0], n)
    elif signs == "cancel":  # every term but the last has its negation in the array
        half = (n - 1) // 2
        x[half:2 * half] = -x[:half]
        rng.shuffle(x)
    zeros = draw(st.integers(0, n))
    x[rng.integers(0, n, zeros)] = rng.choice([0.0, -0.0], zeros)
    specials = draw(st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), max_size=3))
    x[rng.integers(0, n, len(specials))] = specials
    return x


class TestExactSum:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(float_arrays())
    def test_matches_fsum_bit_for_bit(self, x):
        assert _fsum_outcome(exact_sum, x) == _fsum_outcome(lambda a: math.fsum(a.tolist()), x)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.floats(), min_size=_CUTOFF, max_size=_CUTOFF + 16))
    def test_matches_fsum_on_any_floats(self, xs):
        assert _fsum_outcome(exact_sum, np.array(xs)) == _fsum_outcome(math.fsum, xs)

    def test_full_windows(self):
        # n copies of an all-ones mantissa, at every alignment of the
        # exponent to the window: each window sum is as large as the
        # width allows and needs every one of its bits
        for n in _SUM_SIZES:
            for e in range(-20, 1):  # every alignment for widths up to 21
                x = np.full(n, math.ldexp(1.0 - 2.0**-53, e))
                x[::2] *= 1.0 - 2.0**-52  # a second mantissa, so the sum is no single product
                assert exact_sum(x) == math.fsum(x.tolist()), (n, e)

    def test_cases_fsum_rejects(self):
        n = 2 * _CUTOFF
        for x, error in [([math.inf, -math.inf], ValueError), ([1e308, 1e308], OverflowError)]:
            terms = np.zeros(n)
            terms[:2] = x
            with pytest.raises(error):
                math.fsum(terms.tolist())
            with pytest.raises(error):
                exact_sum(terms)

    def test_wide_atom_masses(self):
        # the 1000-sign law's masses run from 2^-1000 to 2^-5
        probs = build_model({"model": "gam", "lambda": 1.0,
                             "prior": {"kind": "rademacher_mean", "n": 1000}}).law.probs
        assert exact_sum(probs) == exact_sum(probs[::-1]) == math.fsum(probs.tolist())
        assert abs(exact_sum(probs) - 1.0) <= 2e-16


def synthetic(values, probs, kernel_values):
    return build_model({"model": "synthetic", "values": [float(v) for v in values],
                        "probs": list(probs), "kernel_values": list(kernel_values)})
