"""Continuous (sphere-overlap) law: closed-form thresholds, level sets
of any shape, and golden criterion values.

References are independent of the package's code path: a 40-digit
mpmath bisection on the regularized incomplete Beta function, the
50-digit level sets of levelset_ref (dense mpmath evaluation and
mpmath.findroot), scipy.stats/scipy.integrate for the one-sided GFP
witness, and values recorded before the closed-form thresholds replaced
the nested bisections.
"""

import functools
import json
import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, stats

from fpsq import cli, laws
from fpsq.cli import EXIT_ASSERTION, EXIT_CONFIG, EXIT_RESOURCE, main
from fpsq.criteria import (
    UnsupportedCriterionError,
    assumption_holds,
    chi_squared,
    fp_value,
    gfp_value,
    ld_samplewise,
    log_moment,
    rho_fp_value,
    sq_value,
    usq_hard,
)
from fpsq.kernels import GroupSpec, Kernel, ModelSpec, build_model
from fpsq.laws import LevelSets, ResourceLimitError, find_root, sphere_law, survival
from fpsq.scenarios import BUILTIN_MODEL_DESCRIPTORS
from levelset_ref import complement, expectation, interval_mass, level_set, ngca_mixture_deviation


def mp_abs_threshold(n: int, mass: float) -> mp.mpf:
    """tau with P(|T| >= tau) = mass on sphere_law(n), by bisection on
    2 I_{(1 - tau)/2}((n-1)/2, (n-1)/2) at 40 digits."""
    with mp.workdps(40):
        a = mp.mpf(n - 1) / 2
        target = mp.mpf(mass)
        lo, hi = mp.mpf(0), mp.mpf(1)
        for _ in range(140):
            mid = (lo + hi) / 2
            if 2 * mp.betainc(a, a, 0, (1 - mid) / 2, regularized=True) >= target:
                lo = mid
            else:
                hi = mid
        return lo


class TestClosedFormThreshold:
    @pytest.mark.parametrize("q", [3, 20, 917, 10**4])
    def test_abs_threshold_vs_mpmath(self, q):
        law = sphere_law(50)
        res = LevelSets(law, np.abs(law.grid), np.abs).threshold(float(q) ** -2)[0]
        want = mp_abs_threshold(50, float(q) ** -2)
        assert res.exact
        assert res.threshold == pytest.approx(float(want), rel=1e-13)

    def test_threshold_is_transform_of_tau(self):
        # r = g(tau) for an even, increasing transform
        law = sphere_law(30)
        g = lambda t: np.expm1(3.0 * t * t)
        res = LevelSets(law, g(law.grid), g).threshold(0.01)[0]
        assert res.threshold == pytest.approx(g(float(mp_abs_threshold(30, 0.01))), rel=1e-13)
        # P(g(T) >= r) = P(|T| >= g^-1(r)) for the even, increasing g
        assert 2.0 * survival(law, math.sqrt(math.log1p(res.threshold) / 3.0)) == pytest.approx(0.01, rel=1e-12)

    def test_upper_tail_without_cancellation(self):
        # P(T >= t) = I_{(1-t)/2}(a, a); far in the tail 1 - cdf would
        # keep only a few digits
        law = sphere_law(50)
        with mp.workdps(30):
            want = mp.betainc(24.5, 24.5, 0, mp.mpf(1 - 0.9) / 2, regularized=True)
        assert survival(law, 0.9) == pytest.approx(float(want), rel=1e-13)


class TestFindRoot:
    @pytest.mark.parametrize("f, a, b, root", [
        (lambda x: math.exp(3 * x) - 1.7, 0.0, 1.0, math.log(1.7) / 3),
        (lambda x: 0.4 - x, 1.0, 0.0, 0.4),  # decreasing: a lies above b
        (lambda x: math.tanh(50 * (x - 0.3)), 0.0, 1.0, 0.3),
        (lambda x: x - 1e-10, 0.0, 1.0 / 128, 1e-10),
    ])
    def test_brackets_root_at_float_resolution(self, f, a, b, root):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        lo, hi = find_root(counted, a, b, f(a), f(b))
        assert f(lo) < 0.0 <= f(hi)
        assert abs(hi - lo) <= 2.0**-50 * max(abs(a), abs(b))
        assert min(lo, hi) - 1e-15 <= root <= max(lo, hi) + 1e-15
        assert len(calls) <= 20  # superlinear on smooth f

    def test_step_function_stays_within_bisection_count(self):
        calls = []
        f = lambda x: calls.append(x) or (1.0 if x >= 0.2 else -1.0)
        lo, hi = find_root(f, 0.0, 1.0, -1.0, 1.0)
        assert lo < 0.2 <= hi and hi - lo <= 2.0**-50
        assert len(calls) <= 60

    def test_satisfied_left_end(self):
        assert find_root(lambda x: x, 0.0, 1.0, 0.0, 1.0) == (0.0, 0.0)


def hand_model(log_fn, n: int = 50, overlap: bool = True) -> ModelSpec:
    kernel = Kernel(name="hand", domain="scalar", log_fn=log_fn)
    return ModelSpec("hand", {}, kernel, sphere_law(n), GroupSpec("trivial"),
                     euclid_overlap=overlap)


class TestRefusals:
    def test_fp_refuses_non_even_overlap(self):
        # continuous FP reads the statistic as the overlap, so |<u,v>| = |t|
        # is even; a model whose statistic does not determine the overlap
        # is refused
        model = hand_model(lambda t: 0.5 * t * t, overlap=False)
        with pytest.raises(UnsupportedCriterionError, match="Euclidean overlap"):
            fp_value(model, 5.0, 2)


    @pytest.mark.parametrize("criterion", [fp_value, rho_fp_value, gfp_value, sq_value])
    @pytest.mark.parametrize("q", [math.inf, 1e200])
    def test_zero_mass_refused(self, criterion, q):
        # q^-2 is (or underflows to) 0: an empty tail mass is refused
        model = build_model(BUILTIN_MODEL_DESCRIPTORS["gam-sphere"])
        with pytest.raises(ValueError, match="mass"):
            criterion(model, q, 1)

    def test_gfp_accepts_sign_flip_average(self):
        # the same kernel with the sign-flip group averages to cosh
        model = build_model({"model": "gam", "lambda": 1.0,
                             "prior": {"kind": "sphere", "n": 50}})
        assert gfp_value(model, 5.0, 4).detail["optimizer"] == "superlevel-set"


def gam_trivial_sphere() -> ModelSpec:
    return build_model({"model": "gam", "lambda": 1.0, "group": "trivial",
                        "prior": {"kind": "sphere", "n": 50}})


MIXTURE = {"model": "ngca", "prior": {"kind": "sphere", "n": 50},
           "mu": {"kind": "gaussian_mixture", "weights": [0.3, 0.7], "means": [-1.4, 0.6],
                  "vars": [0.5, 0.5]}}


@functools.cache
def mixture_sq_reference(q: float) -> tuple[float, float]:
    """(level, value) of SQ on MIXTURE at q, from levelset_ref."""
    dev = ngca_mixture_deviation([0.3, 0.7], [-1.4, 0.6], [0.5, 0.5])
    h = lambda t: abs(dev(t))
    mass = mp.mpf(q) ** -2
    c, intervals = level_set(h, 50, mass)
    return float(c), float(expectation(h, 50, intervals) / mass)


class TestAnyShape:
    """Events that are level sets of a function of any shape, against the
    50-digit references of levelset_ref."""

    def test_rho_fp_on_non_even_deviation_vs_mpmath(self):
        # trivial group: rho_G = |exp(t) - 1| is not even, and {rho_G >= r}
        # is two tails of different widths
        mass, m = mp.mpf(1) / 25, 4
        r, intervals = level_set(lambda t: abs(mp.expm1(t)), 50, mass)
        want = expectation(lambda t: mp.exp(m * t), 50, complement(intervals))
        rep = rho_fp_value(gam_trivial_sphere(), 5.0, m)
        assert rep.threshold.threshold == pytest.approx(float(r), rel=1e-9)
        assert rep.threshold.exact and rep.threshold.achieved_mass == pytest.approx(0.04, rel=1e-12)
        assert rep.value == pytest.approx(float(want), rel=1e-9)

    def test_threshold_of_non_monotone_transform_vs_mpmath(self):
        # cos 6t falls in |t| near 0, so {cos 6T >= r} is the interval about 0
        law, g = sphere_law(20), lambda t: np.cos(6.0 * t)
        r, intervals = level_set(lambda t: mp.cos(6 * t), 20, mp.mpf("0.05"))
        assert len(intervals) == 1
        res, above = LevelSets(law, g(law.grid), g).threshold(0.05)
        assert res.exact and res.threshold == pytest.approx(float(r), rel=1e-9)
        assert above == pytest.approx(np.array(intervals, dtype=float), rel=1e-9)
        assert math.fsum(law.cdf(b) - law.cdf(a) for a, b in above.tolist()) == pytest.approx(0.05, rel=1e-9)

    def test_gfp_on_non_even_power_is_the_one_sided_witness(self):
        # K^4 = e^{4t} under the trivial group: the optimal event is the
        # one-sided {T < c}, which beats FP's symmetric {|T| < tau}
        q, m = 5.0, 4
        rep = gfp_value(gam_trivial_sphere(), q, m)
        law = stats.beta(24.5, 24.5, loc=-1.0, scale=2.0)
        mass = q**-2
        k4 = lambda t: math.exp(4.0 * t) * law.pdf(t)
        tau = law.isf(mass / 2.0)
        symmetric, _ = integrate.quad(k4, -tau, tau, epsrel=1e-12)
        one_sided, _ = integrate.quad(k4, -1.0, law.isf(mass), epsrel=1e-12)
        assert symmetric == pytest.approx(1.0895, abs=1e-4)
        assert one_sided == pytest.approx(1.0367, abs=1e-4)
        assert rep.value == pytest.approx(one_sided, rel=1e-9)
        c, intervals = level_set(lambda t: m * t, 50, mp.mpf(1) / 25)
        assert rep.value == pytest.approx(float(expectation(lambda t: mp.exp(m * t), 50,
                                                            complement(intervals))), rel=1e-9)
        assert rep.detail["level"].threshold == pytest.approx(float(c), rel=1e-9)
        assert rep.threshold is None  # the dropped set {T >= c / 4} is not {|T| >= tau}

    def test_sq_on_non_quasiconvex_deviation_vs_mpmath(self):
        # |K - 1| = 0.5 sin^2(6t) has several local minima
        model = hand_model(lambda t: np.log1p(0.5 * np.sin(6.0 * t) ** 2), n=20)
        h = lambda t: mp.sin(6 * t) ** 2 / 2
        c, intervals = level_set(h, 20, mp.mpf(1) / 9)
        rep = sq_value(model, 3.0)
        assert rep.threshold.threshold == pytest.approx(float(c), rel=1e-9)
        assert rep.value == pytest.approx(float(expectation(h, 20, intervals) * 9), rel=1e-9)

    def test_rho_fp_strict_event_where_rho_g_is_flat(self):
        # K = 1 (lambda = 0): rho_G = 0 on the whole support, so the strict
        # event {rho_G < r(q)} = {0 < 0} is empty, while GFP keeps 1 - q^-2
        model = build_model({"model": "gam", "lambda": 0.0, "prior": {"kind": "sphere", "n": 50}})
        rep = rho_fp_value(model, 5.0, 2)
        assert rep.threshold.threshold == 0.0 and rep.value == 0.0
        assert gfp_value(model, 5.0, 2).value == pytest.approx(0.96, rel=1e-12)

    @pytest.mark.parametrize("kink", [0.1, 0.123])
    def test_gfp_keeps_what_the_mass_allows_of_a_flat_top(self, kink):
        # log K = min(t, kink): h = 4 log K is flat at its top on {T >= kink},
        # whose mass is above q^-2, so GFP drops q^-2 of it and keeps the
        # rest; the flat top starts inside a grid cell at 0.123
        q, m = 5.0, 4
        rep = gfp_value(hand_model(lambda t: np.minimum(t, kink)), q, m)
        with mp.workdps(50):
            top = interval_mass(50, mp.mpf(str(kink)), 1)
            kept = expectation(lambda t: mp.exp(m * t), 50, [(mp.mpf(-1), mp.mpf(str(kink)))])
            want = kept + (top - mp.mpf(1) / 25) * mp.exp(m * mp.mpf(str(kink)))
        level = rep.detail["level"]
        assert level.threshold == m * kink and not level.exact
        assert level.achieved_mass == pytest.approx(float(top), rel=1e-12)
        assert rep.value == pytest.approx(float(want), rel=1e-9)

    @pytest.mark.parametrize("kink", [0.1, 0.123])
    def test_threshold_of_a_transform_flat_at_its_level(self, kink):
        # min(|t|, kink) is even and nondecreasing in |t| but flat at its
        # level: the achieved mass is all of {|T| >= kink}, not the 0.04 asked
        law = sphere_law(50)
        h = lambda t: np.minimum(np.abs(t), kink)
        res = LevelSets(law, h(law.grid), h).threshold(0.04)[0]
        assert res.threshold == kink and not res.exact
        assert res.achieved_mass == pytest.approx(2.0 * law.cdf(-kink), rel=1e-12)

    def test_level_search_resolves_below_a_far_top_level(self):
        # gam with lambda = 3 under the trivial group at n = 400: |K - 1|
        # reaches about 8.1e3 at t = 1, 1.6e4 times the SQ level at q = 2
        model = build_model({"model": "gam", "lambda": 3.0, "group": "trivial",
                             "prior": {"kind": "sphere", "n": 400}})
        for q in (2.0, 1e6):
            thr = sq_value(model, q).threshold
            assert thr.exact and thr.achieved_mass == pytest.approx(q**-2, rel=1e-12)

    def test_sq_log_beyond_float_range_vs_mpmath(self):
        # |K - 1| = e^{800 t^2} - 1 passes 1e308 inside the SQ event: the
        # value is +inf, its log the integral's own
        model = hand_model(lambda t: 800.0 * t * t, n=20)
        h = lambda t: mp.expm1(800 * t * t)
        c, intervals = level_set(h, 20, mp.mpf(1) / 9)
        rep = sq_value(model, 3.0)
        assert rep.threshold.threshold == pytest.approx(float(c), rel=1e-12)
        assert rep.value == math.inf
        assert rep.log_value == pytest.approx(float(mp.log(expectation(h, 20, intervals) * 9)), rel=1e-12)

    @pytest.mark.parametrize("q", [3.0, 8.0, 100.0])
    def test_sq_on_mixture_ngca_vs_mpmath(self, q):
        # K - 1 vanishes at t = 0 and again near t = -0.707, so |K - 1| is
        # not quasiconvex; FP, rho_G-FP and GFP were already defined here
        level, value = mixture_sq_reference(q)
        rep = sq_value(build_model(MIXTURE), q)
        assert rep.threshold.threshold == pytest.approx(level, rel=1e-9)
        assert rep.value == pytest.approx(value, rel=1e-9)

    def test_sq_cli_on_mixture_from_a_config(self, tmp_path, capsys):
        config = tmp_path / "models.json"
        config.write_text(json.dumps({"models": {"mixture": MIXTURE}}))
        argv = ["criterion", "--config", str(config), "--model", "mixture", "--criterion", "sq",
                "--q", "8", "--m", "2"]
        assert main(argv) == 0
        row = capsys.readouterr().out.splitlines()[2].split(",")
        level, value = mixture_sq_reference(8.0)
        assert row[1] == "SQ" and float(row[5]) == pytest.approx(level, rel=1e-9)
        assert float(row[7]) == pytest.approx(value, rel=1e-9)

    def test_check_cli_on_trivial_group_gam(self, tmp_path, capsys):
        # every check of the battery now has its numbers; the run exits 1
        # because the correlation assumption fails under the trivial group
        # (K(-1) - 1 = 1/e - 1 < 0), which is the answer, not a refusal
        config = tmp_path / "models.json"
        config.write_text(json.dumps({"models": {"gam-trivial": {
            "model": "gam", "lambda": 1.0, "group": "trivial", "prior": {"kind": "sphere", "n": 50}}}}))
        argv = ["check", "--config", str(config), "--model", "gam-trivial", "--q", "5", "--m", "4"]
        assert main(argv) == EXIT_ASSERTION
        out = json.loads(capsys.readouterr().out)
        assert out["assumption"]["min_value"] == pytest.approx(math.exp(-1.0) - 1.0, rel=1e-12)
        names = ("sq_implies_rho_fp", "gfp_le_rho_fp", "rho_fp_le_gfp_chain")
        checks = [out["equivalence"][k] for k in names]
        assert all(c["status"] in ("checked", "premise-failed") and c["passed"] for c in checks)
        assert out["equivalence"]["gfp_le_rho_fp"]["status"] == "checked"


# Values recorded before the closed-form thresholds, with the old nested
# bisections: {criterion: (value, threshold)}.  The SQ entries at q = 917
# are the 40-digit mpmath values instead; the old code computed the upper
# tail as 1 - cdf and was off there by 7.8e-12 (si) and 3.7e-11 (gam)
# relative, see test_sq_large_q_vs_mpmath.
GOLDEN = {
    ("si-sign-sphere", 3.0, 1): {
        "fp": (0.8888888888888887, 0.22580116400281997),
        "rho_fp": (0.8888888888888885, 0.1449999327771522),
        "gfp": (0.8888888888888887, 0.22580116400281997),
        "sq": (0.18305366771454987, 0.1449999327771522),
        "usq2": (0.008269969412901921, None),
        "chi2": (0.0, None),  # E[K] - 1 = 0; the old quadrature gave -1.8e-29
        "ld": (1.0000000000000007, None),
        "ld3": (1.0000000000000007, None),
    },
    ("si-sign-sphere", 20.0, 2): {
        "fp": (1.0055491778746495, 0.41441244205587247),
        "rho_fp": (1.0055491778746495, 0.2720257845771921),
        "gfp": (1.0055491778746495, 0.41441244205587247),
        "sq": (0.29632009583733226, 0.2720257845771921),
        "usq2": (0.008269969412901921, None),
        "chi2": (0.008269969412901895, None),
        "ld": (1.0000000000000007, None),
        "ld3": (1.0082627762035397, None),
    },
    ("si-sign-sphere", 917.0, 5): {
        "fp": (1.0837078939415903, 0.620545546709555),
        "rho_fp": (1.0837078939415903, 0.42617760152810347),
        "gfp": (1.0837078939415903, 0.620545546709555),
        "sq": (0.44141559043882694812, 0.42617760152797496028),
        "usq2": (0.008269969412901921, None),
        "chi2": (0.08371163014770339, None),
        "ld": (1.0000000000000007, None),
        "ld3": (1.0826277620353915, None),
    },
    ("gam-sphere", 3.0, 1): {
        "fp": (0.8943083915630792, 0.22580116400281997),
        "rho_fp": (0.894308391563079, 0.2533264340896278),
        "gfp": (0.8943083915630792, 0.22580116400281997),
        "sq": (0.2920870548416619, 0.22564953687394526),
        "usq2": (0.020682361544316803, None),
        "chi2": (0.010048225640431604, None),
        "ld": (1.0100482256404322, None),
        "ld3": (1.0100000000000007, None),
    },
    ("gam-sphere", 20.0, 2): {
        "fp": (1.03719643134503, 0.41441244205587247),
        "rho_fp": (1.03719643134503, 0.5134812214806302),
        "gfp": (1.03719643134503, 0.41441244205587247),
        "sq": (0.5289126299732972, 0.47285938357995827),
        "usq2": (0.020682361544316803, None),
        "chi2": (0.04077881282517999, None),
        "ld": (1.020096451280864, None),
        "ld3": (1.0406760446343786, None),
    },
    ("gam-sphere", 917.0, 5): {
        "fp": (1.2824871656783783, 0.620545546709555),
        "rho_fp": (1.2824871656783783, 0.8599424506013909),
        "gfp": (1.2824871656783783, 0.620545546709555),
        "sq": (0.87023364588558650604, 0.83418580974579052836),
        "usq2": (0.020682361544316803, None),
        "chi2": (0.28250175948537626, None),
        "ld": (1.0502411282021586, None),
        "ld3": (1.2567604463437805, None),
    },
}


def _evaluate(model, crit: str, q: float, m: int):
    if crit == "chi2":
        return chi_squared(model, m), None
    if crit == "ld":
        return ld_samplewise(model, m, math.inf, 1), None
    if crit == "ld3":
        return ld_samplewise(model, m, 3, 2), None
    if crit == "usq2":
        return usq_hard(model, m, 2).value, None
    func = {"fp": fp_value, "rho_fp": rho_fp_value, "gfp": gfp_value}.get(crit)
    rep = sq_value(model, q, m) if func is None else func(model, q, m)
    return rep.value, rep.threshold.threshold


@pytest.mark.parametrize("name, q, m", sorted(GOLDEN))
def test_golden_values(name, q, m):
    model = build_model(BUILTIN_MODEL_DESCRIPTORS[name])
    for crit, (want, want_thr) in GOLDEN[(name, q, m)].items():
        value, thr = _evaluate(model, crit, q, m)
        # thresholds moved by up to 3e-13 relative where the old
        # bisection lost digits; values follow them to ~1e-13
        assert abs(value - want) <= max(1e-12 * abs(want), 1e-15), (crit, value, want)
        if want_thr is not None:
            assert thr == pytest.approx(want_thr, rel=1e-12), (crit, thr, want_thr)


def test_sq_large_q_vs_mpmath():
    # gam-sphere (lambda = 1): |K - 1| peaks at e - 1 on the right and
    # 1 - 1/e on the left, so at q = 917 the SQ event is the upper tail
    # {T >= t} of mass q^-2 alone and the value is E[e^T - 1 | T >= t]
    n, q = 50, 917.0
    mass = q**-2
    with mp.workdps(40):
        a = mp.mpf(n - 1) / 2
        lo, hi = mp.mpf(0), mp.mpf(1)
        for _ in range(140):
            mid = (lo + hi) / 2
            if mp.betainc(a, a, 0, (1 - mid) / 2, regularized=True) >= mass:
                lo = mid
            else:
                hi = mid
        norm = 1 / (2 ** (n - 2) * mp.beta(a, a))
        tail = mp.quad(lambda t: mp.expm1(t) * norm * (1 - t * t) ** (a - 1), [lo, 1])
        want_level, want_value = float(mp.expm1(lo)), float(tail / mass)
    model = build_model(BUILTIN_MODEL_DESCRIPTORS["gam-sphere"])
    rep = sq_value(model, q, 5)
    assert rep.threshold.threshold == pytest.approx(want_level, rel=1e-13)
    assert rep.value == pytest.approx(want_value, rel=1e-12)


@pytest.mark.parametrize("n, m", [
    pytest.param(50, 1000, id="1000"),
    pytest.param(50, 10_000, id="10000"),
    pytest.param(50, 1_000_000, id="1000000"),
    # the density is below 1e-308 where K^m is above 1e308
    pytest.param(400, 10_000, id="n400-10000"),
])
def test_chi2_log_beyond_float_range_vs_bessel(n, m):
    # E[exp(s T)] on sphere_law(n) is Gamma(n/2) (2/s)^nu I_nu(s), nu = n/2 - 1;
    # at m = 10^6 the integrand is a peak of width ~2e-5 at the edge
    s = mp.mpf(m)  # lambda = 1, so s = m
    with mp.workdps(50):
        nu = mp.mpf(n) / 2 - 1
        want = float(mp.loggamma(mp.mpf(n) / 2) + nu * mp.log(2 / s) + mp.log(mp.besseli(nu, s)))
    model = build_model({"model": "gam", "lambda": 1.0, "prior": {"kind": "sphere", "n": n}})
    assert chi_squared(model, m) == math.inf
    assert log_moment(model, m) == pytest.approx(want, rel=1e-12)


def test_chi2_overflow_row_is_finite(capsys):
    assert main(["criterion", "--model", "gam-sphere", "--criterion", "chi2", "--m", "1000"]) == 0
    row = capsys.readouterr().out.splitlines()[2].split(",")
    assert row[7:] == ["900.9733136327841", "", "quadrature+overflow-log", repr(1e-10 * 900.9733136327841)]


def test_event_rows_beyond_float_range_vs_mpmath(capsys):
    # K^m = e^{2000 t} passes the float range inside each event {|T| <= h}
    argv = ["criterion", "--model", "gam-sphere", "--criterion", "fp,rho_fp,gfp",
            "--q", "1000", "--m", "2000"]
    assert main(argv) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
    assert [row[1] for row in rows] == ["FP", "RHO_FP", "GFP"]
    n, m = 50, 2000
    for row in rows:
        thr, value = float(row[5]), float(row[7])
        assert math.isfinite(value)
        assert row[9].endswith("+overflow-log") == (value > 700.0)
        with mp.workdps(30):
            # rho_G = e^|t| - 1 under the sign flip, so {rho_G < r} is {|T| < log1p(r)}
            h = mp.log1p(mp.mpf(thr)) if row[1] == "RHO_FP" else mp.mpf(thr)
            a = mp.mpf(n - 1) / 2
            norm = 1 / (2 ** (n - 2) * mp.beta(a, a))
            f = lambda t: mp.exp(m * (t - h)) * norm * (1 - t * t) ** (a - 1)
            want = float(m * h + mp.log(mp.quad(f, [-h, h - mp.mpf("0.05"), h - mp.mpf("0.005"), h])))
        assert value == pytest.approx(want, rel=1e-12), row


def test_gfp_cell_calls_the_kernel_only_in_its_integral(monkeypatch):
    # one kernel call per sphere model, on the law's grid, serves the kernel
    # table, the node table (gathered from it), the assumption check and the
    # tables every level set starts from; after it an FP or GFP cell calls
    # the kernel only at the nodes of the interval's two partial end panels
    # and of the panels the 20/40 test halves
    base = build_model(BUILTIN_MODEL_DESCRIPTORS["gam-sphere"])
    calls, evals, starts = [], [], []
    kernel = Kernel("counted", "scalar", lambda t: calls.append(np.size(t)) or base.kernel.log_eval(t))
    model = ModelSpec("counted", {}, kernel, base.law, base.group, euclid_overlap=True)
    assert not calls
    assert model.node_table.tolist() == base.kernel.log_eval(base.law.nodes[0]).tolist()
    assert assumption_holds(model) == assumption_holds(base)
    assert calls == [len(base.law.grid)]  # once per model
    init, panels = laws.LevelSets.__init__, laws.gauss_legendre_panels
    monkeypatch.setattr(laws.LevelSets, "__init__", lambda self, *args: starts.append(len(calls)) or init(self, *args))
    monkeypatch.setattr(laws, "gauss_legendre_panels", lambda g, edges, tol, y: panels(
        lambda ts: evals.extend(ts) or g(ts), edges, tol, y))
    for q, m in [(20.0, 2), (1000.0, 2000)]:
        for cell in (gfp_value, fp_value, rho_fp_value, sq_value):
            model.memo.clear()  # FP and GFP share the integral over one interval
            calls.clear()
            evals.clear()
            starts.clear()
            cell(model, q, m)
            assert starts == [0]  # the cell's level sets start with no kernel call
            if cell in (gfp_value, fp_value):
                assert sum(calls) == 2 * len(laws._NODES) + len(evals)  # the end panels, then the halves
                assert bool(evals) == (m == 2000)  # e^2000t peaks near the end, where panels are halved


@pytest.mark.parametrize("n", [2, 3, 50, 10**6])
def test_grid_is_the_stored_nodes_with_the_ends_and_zero(n):
    # the level sets read the grid as sorted and symmetric with 0 at its
    # middle, and the node table gathers from the kernel table on it
    law = sphere_law(n)
    grid, t = law.grid, law.nodes[0]
    assert len(grid) % 2 == 1 and (np.diff(grid) > 0).all()
    assert np.array_equal(grid, -grid[::-1]) and grid[len(grid) // 2] == 0.0
    assert grid[0] == -1.0 and grid[-1] == 1.0
    assert (grid[np.searchsorted(grid, t)] == t).all() and len(grid) == t.size + 3


def test_moments_make_no_kernel_call_once_the_node_table_exists():
    # chi2, USQ and LD integrate over the whole support: every panel is a
    # stored one, read from the node table
    base = build_model(BUILTIN_MODEL_DESCRIPTORS["gam-sphere"])
    calls = []
    kernel = Kernel("counted", "scalar", lambda t: calls.append(np.size(t)) or base.kernel.log_eval(t))
    model = ModelSpec("counted", {}, kernel, base.law, base.group, euclid_overlap=True)
    model.node_table
    calls.clear()
    cells = lambda model: (chi_squared(model, 2), usq_hard(model, 2, 2).value, ld_samplewise(model, 2, math.inf, 1))
    assert cells(model) == cells(base)
    assert calls == []


def test_truncated_series_kernel_at_the_support_ends(tmp_path):
    # K_5(-1) = 0 for the identity link (an exact zero); K = 1 + 4t of
    # the second model is negative below t = -1/4
    config = tmp_path / "models.json"
    config.write_text(json.dumps({"models": {
        "si-id5": {"model": "si", "link": {"kind": "identity"},
                   "prior": {"kind": "sphere", "n": 50}, "max_degree": 5},
        "ngca-negative": {"model": "ngca", "mu": {"kind": "hermite_moments", "values": [1, 2]},
                          "prior": {"kind": "sphere", "n": 50}, "max_degree": 1},
    }}))
    out = tmp_path / "rows.csv"
    argv = ["criterion", "--config", str(config), "--q", "10", "--m", "2", "--out", str(out)]
    assert main(argv + ["--model", "si-id5", "--criterion", "sq,gfp"]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [row[1] for row in rows] == ["SQ", "GFP"]
    assert all(math.isfinite(float(row[7])) for row in rows)
    model = build_model({"model": "si", "link": {"kind": "identity"},
                         "prior": {"kind": "sphere", "n": 50}, "max_degree": 5})
    assert model.kernel.log_eval(-1.0) == -math.inf
    for crit in ("sq", "gfp", "fp"):
        assert main(argv + ["--model", "ngca-negative", "--criterion", crit]) == EXIT_CONFIG


def mp_sphere_moment(n: int, s) -> mp.mpf:
    """E[exp(s T)] on sphere_law(n): Gamma(n/2) (2/s)^nu I_nu(s), nu = n/2 - 1."""
    nu = mp.mpf(n) / 2 - 1
    return mp.gamma(mp.mpf(n) / 2) * (2 / mp.mpf(s)) ** nu * mp.besseli(nu, s)


def gam_sphere(n: int) -> ModelSpec:
    return build_model({"model": "gam", "lambda": 1.0, "prior": {"kind": "sphere", "n": n}})


@pytest.mark.parametrize("m", [700, 709, 715, 720, 740])
def test_chi2_past_the_exp_cap_vs_bessel(m):
    # each integrand value expm1(m t) passes 1e308 from t = 709/m, while
    # E[K^m] - 1 stays inside the float range
    with mp.workdps(50):
        want = float(mp_sphere_moment(50, m) - 1)
    assert chi_squared(gam_sphere(50), m) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [50, 10**5, 10**8])
@pytest.mark.parametrize("t", [1e-5, 0.3, 1.0 - 2.0**-30])
def test_sphere_log_density_vs_mpmath(n, t):
    with mp.workdps(50):
        a = mp.mpf(n - 1) / 2
        want = (mp.loggamma(a + mp.mpf(1) / 2) - mp.loggamma(a) - mp.log(mp.pi) / 2
                + (a - 1) * mp.log(1 - mp.mpf(t) ** 2))
    got = sphere_law(n).log_pdf(t)
    assert got == pytest.approx(float(want), rel=2e-15)
    assert sphere_law(n).log_pdf(np.array([t, -t])).tolist() == [got, got]


# The sphere law at phase-diagram n, where the density is a spike of width
# n^-1/2 between the even grid points; gam with lambda = 1, so K = e^t.
@pytest.mark.parametrize("n", [10**5, 10**6, 10**8])
def test_chi2_at_large_n_vs_bessel(n):
    with mp.workdps(50):
        want = float(mp_sphere_moment(n, 100) - 1)
    assert chi_squared(gam_sphere(n), 100) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("n", [10**5, 10**6])
def test_usq_at_large_n_vs_bessel(n):
    with mp.workdps(50):  # E[(e^T - 1)^2] = E[e^2T] - 2 E[e^T] + 1
        want = float(mp_sphere_moment(n, 2) - 2 * mp_sphere_moment(n, 1) + 1)
    assert usq_hard(gam_sphere(n), 5, 2).value == pytest.approx(want, rel=1e-9)


def test_ld_at_large_n_vs_bessel():
    n, m = 10**5, 100
    with mp.workdps(50):  # E[1] + m E[K - 1]
        want = float(1 + m * (mp_sphere_moment(n, 1) - 1))
    assert ld_samplewise(gam_sphere(n), m, math.inf, 1) == pytest.approx(want, rel=1e-9)


def test_sq_at_large_n_vs_mpmath():
    # the SQ event {|e^T - 1| >= c} is {T >= log1p(c)} u {T <= log1p(-c)};
    # at the level c the code reports, mpmath integrates its mass and value
    n, q = 10**8, 100.0
    rep = sq_value(gam_sphere(n), q)
    c = rep.threshold.threshold
    with mp.workdps(50):
        a = mp.mpf(n - 1) / 2
        norm = mp.exp(mp.loggamma(a + mp.mpf(1) / 2) - mp.loggamma(a)) / mp.sqrt(mp.pi)
        pdf = lambda t: norm * (1 - t * t) ** (a - 1)
        hi, lo = mp.log1p(mp.mpf(c)), mp.log1p(-mp.mpf(c))
        width = 1 / mp.sqrt(n)
        steps = [0, 1, 3, 10, 40]
        mass = (mp.quad(pdf, [hi + k * width for k in steps] + [1])
                + mp.quad(pdf, [-1] + [lo - k * width for k in reversed(steps)]))
        tail = (mp.quad(lambda t: mp.expm1(t) * pdf(t), [hi + k * width for k in steps] + [1])
                - mp.quad(lambda t: mp.expm1(t) * pdf(t), [-1] + [lo - k * width for k in reversed(steps)]))
    assert float(mass) == pytest.approx(q**-2, rel=1e-9)
    assert rep.value == pytest.approx(float(tail / mass), rel=1e-9)
    assert rep.value >= c


def test_integral_refuses_past_its_panel_budget(monkeypatch):
    # log K = sin(10^5 t) / 2 needs panels of width ~1e-4, far past the budget
    model = hand_model(lambda t: 0.5 * np.sin(1e5 * t))
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="panels"):
        chi_squared(model, 1)
    assert time.perf_counter() - start < 10.0
    monkeypatch.setattr(cli, "build_model", lambda desc: model)
    assert main(["criterion", "--model", "gam-sphere", "--criterion", "chi2", "--m", "1"]) == EXIT_RESOURCE


def test_circle_law_integrates_up_to_its_infinite_density():
    # n = 2: the density 1 / (pi sqrt(1 - t^2)) is infinite at +-1, and the
    # angle's is 1/pi; an event inside (-1, 1) and a moment over the support
    # both integrate, chi2 = I_0(lambda^2 m) - 1 (E[e^sT] = I_0(s))
    model = gam_sphere(2)
    rep = fp_value(model, 10.0, 2)
    h = rep.threshold.threshold
    with mp.workdps(30):
        want = mp.quad(lambda t: mp.exp(2 * t) / (mp.pi * mp.sqrt(1 - t * t)), [-h, 0, h])
    assert rep.value == pytest.approx(float(want), rel=1e-10)
    lam = 1.3
    model = build_model({"model": "gam", "lambda": lam, "prior": {"kind": "sphere", "n": 2}})
    for m in (1, 2):
        with mp.workdps(50):
            want = float(mp.besseli(0, lam * lam * m) - 1)
        assert abs(chi_squared(model, m) - want) <= 1e-9 * want


@pytest.mark.parametrize("n", [2, 3, 4])
def test_small_n_sphere_criteria_vs_mpmath(n):
    # chi2, USQ and LD from E[e^sT], and SQ's event {|e^T - 1| >= c} =
    # {T >= log1p(c)} u {T <= log1p(-c)} (empty for c >= 1) integrated by
    # mpmath at the level c the code reports; the density reaches +-1
    # (infinite there at n = 2)
    model, m, q = gam_sphere(n), 3, 1.5  # c < 1: both tails
    with mp.workdps(50):
        mom = lambda s: mp_sphere_moment(n, s)
        chi2 = mom(m) - 1
        usq = mom(2) - 2 * mom(1) + 1
        ld = 1 + m * (mom(1) - 1) + math.comb(m, 2) * usq
    assert chi_squared(model, m) == pytest.approx(float(chi2), rel=1e-10)
    assert usq_hard(model, m, 2).value == pytest.approx(float(usq), rel=1e-10)
    assert ld_samplewise(model, m, math.inf, 2) == pytest.approx(float(ld), rel=1e-10)
    rep = sq_value(model, q)
    c = rep.threshold.threshold
    with mp.workdps(50):
        a = mp.mpf(n - 1) / 2
        norm = mp.exp(mp.loggamma(a + mp.mpf(1) / 2) - mp.loggamma(a)) / mp.sqrt(mp.pi)
        pdf = lambda t: norm * (1 - t * t) ** (a - 1)
        hi, lo = mp.log1p(mp.mpf(c)), mp.log1p(-mp.mpf(c)) if c < 1 else mp.mpf(-1)
        mass = mp.quad(pdf, [hi, 1]) + mp.quad(pdf, [-1, lo])
        tail = mp.quad(lambda t: mp.expm1(t) * pdf(t), [hi, 1]) - mp.quad(lambda t: mp.expm1(t) * pdf(t), [-1, lo])
    assert float(mass) == pytest.approx(q**-2, rel=1e-10)
    assert rep.value == pytest.approx(float(tail / mass), rel=1e-10)


def test_sharp_peak_splits_panels_vs_mpmath(monkeypatch):
    # lambda = 2, m = 200: K^m = e^800t against (1 - t^2)^23.5 peaks near
    # t = 0.97 with width about 0.006, and FP's e^800t rises steeply to the
    # event's end; the stored panels do not resolve either, so the 20/40
    # test halves some of them
    model, m, evals = build_model({"model": "gam", "lambda": 2.0, "prior": {"kind": "sphere", "n": 50}}), 200, []
    panels = laws.gauss_legendre_panels
    monkeypatch.setattr(laws, "gauss_legendre_panels", lambda g, edges, tol, y: panels(
        lambda ts: evals.extend(ts) or g(ts), edges, tol, y))
    with mp.workdps(50):
        want = float(mp.log(mp_sphere_moment(50, 4 * m)))
    assert log_moment(model, m) == pytest.approx(want, rel=1e-10)
    assert evals
    evals.clear()
    rep = fp_value(model, 100.0, m)
    h = rep.threshold.threshold
    with mp.workdps(50):
        a = mp.mpf(49) / 2
        norm = mp.exp(mp.loggamma(a + mp.mpf(1) / 2) - mp.loggamma(a)) / mp.sqrt(mp.pi)
        f = lambda t: mp.exp(4 * m * (t - h)) * norm * (1 - t * t) ** (a - 1)
        want = float(4 * m * h + mp.log(mp.quad(f, [-h, 0, h - mp.mpf("0.05"), h - mp.mpf("0.01"), h])))
    assert rep.log_value == pytest.approx(want, rel=1e-10)
    assert evals


def test_peak_between_grid_points():
    # log K is a bump of height 50 and width 0.002 midway between the even
    # grid points 37/128 and 38/128, where the table sees log K = 1.1 only;
    # the run around the table's peak must still find it
    t0, m = 37.5 / 128, 10
    model = hand_model(lambda t: 50.0 * np.exp(-(((t - t0) / 0.002) ** 2)))
    with mp.workdps(30):
        a = mp.mpf(49) / 2
        norm = mp.exp(mp.loggamma(a + mp.mpf(1) / 2) - mp.loggamma(a)) / mp.sqrt(mp.pi)
        f = lambda t: mp.exp(m * 50 * mp.exp(-(((t - t0) / mp.mpf("0.002")) ** 2))) * norm * (1 - t * t) ** (a - 1)
        want = float(mp.log(mp.quad(f, [-1, t0 - 0.02, t0 - 0.004, t0, t0 + 0.004, t0 + 0.02, 1])))
    assert log_moment(model, m) == pytest.approx(want, rel=1e-10)


def mp_sphere_lower_tail(n: int, t: float) -> tuple[mp.mpf, mp.mpf]:
    """(P(T <= t), density at t) on sphere_law(n) for t <= 0, at 50 digits:
    mpmath's betainc up to n = 400; beyond, where its hypergeometric series
    does not converge (a >= 5e4), mpmath.quad of the density over |T| >=
    |t| on panels that double from the density's decay length at |t|,
    up to where it has fallen by e^-150."""
    with mp.workdps(50):
        a, t = mp.mpf(n - 1) / 2, mp.mpf(t)
        log_norm = mp.loggamma(a + mp.mpf(1) / 2) - mp.loggamma(a) - mp.log(mp.pi) / 2
        pdf = mp.exp((a - 1) * mp.log1p(-t * t) + log_norm)
        if n <= 400:
            return mp.betainc(a, a, 0, (1 + t) / 2, regularized=True), pdf
        y0 = -t
        exponent = lambda y: (a - 1) * (mp.log1p(-y * y) - mp.log1p(-y0 * y0))
        ends, step = [y0], min(1 / (2 * a * y0) if y0 > 0 else 1, 1 / mp.sqrt(2 * a))
        while ends[-1] + step < 1 and exponent(ends[-1]) > -150:
            ends.append(ends[-1] + step)
            step *= 2
        ends.append(min(ends[-1] + step, mp.mpf(1)))
        return mp.quad(lambda y: mp.exp(exponent(y)), ends) * pdf, pdf


SPHERE_PS = [1e-300, 1e-100, 1e-30, 1e-10, 1e-4, 0.01, 0.1, 0.3, 0.45, 0.49]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 50, 400, 10**5, 10**8])
def test_sphere_cdf_and_ppf_vs_mpmath(n):
    # The quantile is within 1e-14 relative of the 50-digit one (one mp
    # Newton step from it).  The CDF at that float t is within 1e-14 of
    # the 50-digit value in log P, relative where |log P| > 1: a value
    # carried as its log, like P = 1e-300 (log P = -690.8), is only as
    # precise as that log (2^-53 690.8 = 8e-14 relative to P).
    law = sphere_law(n)
    for p in SPHERE_PS:
        t = law.ppf(p)
        ref, pdf = mp_sphere_lower_tail(n, t)
        with mp.workdps(50):
            if t == -1.0:  # the quantile lies below the float next to -1
                assert mp_sphere_lower_tail(n, -1.0 + 2.0**-53)[0] >= p
                continue
            want_t = t - (ref - p) / pdf
            assert abs(t - want_t) <= 1e-14 * abs(want_t), (p, t, float(want_t))
            log_ref = mp.log(ref)
            got = law.log_cdf(t)
            assert abs(got - log_ref) <= 1e-14 * max(1, abs(log_ref)), (p, got, float(log_ref))
            assert abs(law.cdf(t) - ref) <= 1e-14 * ref * max(1, abs(log_ref)), p
    assert law.ppf(0.5) == 0.0 and law.ppf(1.0) == 1.0 and law.ppf(0.0) == -1.0
    assert law.ppf(0.75) == -law.ppf(0.25)


@pytest.mark.parametrize("rule, reference", [
    ("_LEGENDRE_20", lambda: np.polynomial.legendre.leggauss(20)),
    ("_LEGENDRE_40", lambda: np.polynomial.legendre.leggauss(40)),
    ("_LAGUERRE", lambda: np.polynomial.laguerre.laggauss(64)),
])
def test_stored_gauss_rules_are_numpys_bit_for_bit(rule, reference):
    for stored, want in zip(getattr(laws, rule), reference(), strict=True):
        assert stored.dtype == want.dtype and stored.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(2, 26))
def test_log_gamma_ratio_vs_mpmath(n):
    with mp.workdps(50):
        a = mp.mpf(n - 1) / 2
        want = float(mp.loggamma(a + mp.mpf(1) / 2) - mp.loggamma(a))
    assert abs(laws._log_gamma_ratio((n - 1) / 2) - want) <= 2 * math.ulp(want)


@pytest.mark.parametrize("name", ["gam-sphere", "si-sign-sphere"])
@pytest.mark.parametrize("q", [1.5, 8.0, 20.0, 917.0, 2048.0])
def test_sq_level_search_steps(monkeypatch, name, q):
    # one find_root call per cell, of at most 15 evaluations with its two
    # ends: on si-sign-sphere, whose |K - 1| is even, the Beta quantile's,
    # and h runs once, at tau; on gam-sphere the level search's, in which
    # each evaluation, the ends too, runs h once, and h runs nowhere else
    counts, h_calls = [], []
    inner, init = laws.find_root, laws.LevelSets.__init__

    def counting(f, a, b, fa, fb, *f_tol):
        calls = [2]

        def g(x):
            calls[0] += 1
            return f(x)

        out = inner(g, a, b, fa, fb, *f_tol)
        counts.append(calls[0])
        return out

    def counted_h(self, law, table, h):
        init(self, law, table, lambda ts: h_calls.append(1) or h(ts))

    monkeypatch.setattr(laws, "find_root", counting)
    monkeypatch.setattr(laws.LevelSets, "__init__", counted_h)
    sq_value(build_model(BUILTIN_MODEL_DESCRIPTORS[name]), q)
    assert len(counts) == 1 and counts[0] <= 15, counts
    assert len(h_calls) == (1 if name == "si-sign-sphere" else counts[0]), (h_calls, counts)
