"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the PASS/FAIL
line for every criterion.  All tolerances are pinned here; nothing is
calibrated at runtime.
"""

import math
import time
from fractions import Fraction

import numpy as np

from fpsq.cli import main as cli_main
from fpsq.criteria import (
    assumption_holds,
    chi_squared,
    fp_value,
    gfp_value,
    ld_samplewise,
    rho_fp_value,
    sq_value,
)
from fpsq.kernels import build_model, slab_kernel
from fpsq.numerics import normal_quantile, symmetric_indicator_coeffs, symmetric_indicator_tail
from fpsq.oracles import bvn_rectangle, enum_kernel_counterexample, quad_kernel_ngca
from fpsq.scenarios import equivalence_suite, kernel_table
from helpers import builtin_models


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}", flush=True)


class TestCriterion01KernelOracleAgreement:
    def test_mslr_gaussian_integral(self):
        # every overlap 0..k, the singular Gram matrix at ell = k included
        worst = 0.0
        for sigma2 in (1.0, 36.0, 50.0):
            rows = kernel_table({"model": "mslr", "n": 40, "k": 4, "sigma2": sigma2})
            assert [r.statistic for r in rows] == [0, 1, 2, 3, 4]
            assert all(r.bound == 1e-12 * r.oracle_value for r in rows)
            worst = max([worst] + [r.diff / r.oracle_value for r in rows])
        ok = worst <= 1e-12
        _report(1, "mslr kernel vs exact Gaussian integral (sigma2 1, 36, 50)", ok,
                f"max relative diff {worst:.2e}")
        assert ok

    def test_ngca_series_vs_quadrature(self):
        spec = {"kind": "gaussian", "mean": 0.0, "var": 1.5}
        model = build_model({"model": "ngca", "mu": spec,
                             "prior": {"kind": "sphere", "n": 30}, "max_degree": 80})
        worst = 0.0
        for rho in np.linspace(-0.9, 0.9, 21):
            est = quad_kernel_ngca(spec, float(rho), num_nodes=400)
            worst = max(worst, abs(est.value - model.kernel.eval(float(rho))))
        # the variance-2 marginal at rho = 0.5 has the closed value (4/3)^{1/2}
        est2 = quad_kernel_ngca({"kind": "gaussian", "mean": 0.0, "var": 2.0}, 0.5, 200)
        k2 = build_model({"model": "ngca", "mu": {"kind": "gaussian", "mean": 0.0, "var": 2.0},
                          "prior": {"kind": "sphere", "n": 30}, "max_degree": 200})
        worst = max(worst, abs(est2.value - k2.kernel.eval(0.5)))
        ok = worst <= 1e-6
        _report(1, "ngca series vs 2D quadrature (21-point grid)", ok, f"max diff {worst:.2e}")
        assert ok

    def test_slab_series_vs_rectangle_quadrature(self):
        kernel = slab_kernel(0.1, 160)
        kappa = normal_quantile(1 - 0.1 / 2)
        worst = 0.0
        for rho in np.linspace(-1.0, 1.0, 21):
            est = bvn_rectangle(kappa, float(rho))
            worst = max(worst, abs(est.value / 0.81 - kernel.eval(float(rho))))
        ok = worst <= 1e-6
        _report(1, "slab series vs rectangle quadrature (21-point grid)", ok,
                f"max diff {worst:.2e}")
        assert ok

    def test_counterexample_vs_enumeration(self):
        n, r, a = 8, 0.3, 0.2
        model = build_model({"model": "counterexample", "n": n, "r": r,
                             "alpha_c": a, "rho_p": 0.3})
        rng = np.random.default_rng(0)
        worst = 0.0
        pairs = [(np.r_[1.0, np.zeros(n)], np.r_[1.0, np.zeros(n)]),
                 (np.r_[1.0, np.zeros(n)], np.r_[0.0, np.ones(n)]),
                 (np.r_[0.0, np.ones(n)], np.r_[0.0, np.ones(n)])]
        while len(pairs) < 12:
            pairs.append((rng.integers(0, 2, n + 1).astype(float),
                          rng.integers(0, 2, n + 1).astype(float)))
        for u, v in pairs:
            abc = (int(np.sum((u == 0) & (v == 0))), int(np.sum(u != v)),
                   int(np.sum((u == 1) & (v == 1))))
            est = enum_kernel_counterexample(n, r, a, u, v)
            worst = max(worst, abs(est.value - model.kernel.eval(abc)))
        ok = worst <= 1e-12
        _report(1, "product-model kernel vs exact enumeration (n=8)", ok,
                f"max diff {worst:.2e}")
        assert ok


class TestCriterion02CounterexampleSeparation:
    def test_fp_explodes_while_gfp_stays_near_one(self):
        t0 = time.monotonic()
        n, eps = 1024, 0.2
        ne = n**eps
        m = round(n ** (1 - eps))
        model = build_model({
            "model": "counterexample", "n": n, "r": n**-0.5,
            "alpha_c": n ** (-1 + 2 * eps), "rho_p": math.exp(-ne) / 2.0,
        })
        fp = fp_value(model, math.sqrt(n), m)
        gfp = gfp_value(model, math.exp(ne / 2), m)
        t4 = 4 * round(n ** (eps / 2))
        chi = chi_squared(model, t4)
        elapsed = time.monotonic() - t0
        ok = (
            fp.log_value > ne / 4
            and gfp.value <= 1.0 + 2.0 * n**-eps
            and chi <= 1.0 + 4.0 * n ** (-1 + eps)
            and elapsed < 1.0
        )
        _report(2, "overlap-geometry separation (FP huge, GFP near 1)", ok,
                f"log FP {fp.log_value:.1f}, GFP {gfp.value:.4f}, "
                f"chi2({t4}) {chi:.4f}, {elapsed * 1e3:.0f}ms")
        assert fp.log_value > ne / 4
        assert gfp.value <= 1.0 + 2.0 * n**-eps
        assert chi <= 1.0 + 4.0 * n ** (-1 + eps)
        assert elapsed < 1.0


class TestCriterion03SlabParseval:
    def test_coefficient_mass(self):
        ok = True
        details = []
        for alpha in (0.05, 0.1, 0.3):
            kappa = normal_quantile(1.0 - alpha / 2.0)
            partial = math.fsum(c * c for c in symmetric_indicator_coeffs(kappa, 100).coefficients[1:])
            declared_tail = symmetric_indicator_tail(kappa, 100)
            gap = abs(partial - alpha * (1.0 - alpha))
            ok = ok and gap <= 1e-6 + declared_tail
            details.append(f"alpha={alpha}: gap {gap:.2e} vs tail {declared_tail:.2e}")
        _report(3, "slab indicator Parseval mass alpha(1-alpha)", ok, "; ".join(details))
        assert ok


class TestCriterion04GaussianCorrelationInstance:
    def test_rectangle_probability_dominates_product(self):
        ok = True
        worst = math.inf
        for alpha in (0.1, 0.3, 0.5):
            kappa = normal_quantile(1.0 - alpha / 2.0)
            floor = (1.0 - alpha) ** 2
            for rho in np.linspace(-1.0, 1.0, 41):
                est = bvn_rectangle(kappa, float(rho))
                slack = est.value - floor
                worst = min(worst, slack)
                ok = ok and slack >= -1e-10
        _report(4, "rectangle probability >= product (41 x 3 grid)", ok,
                f"min slack {worst:.2e}")
        assert ok


class TestCriterion05SamplewiseIdentity:
    def test_degree_one_projection(self):
        ok = True
        worst = 0.0
        for name, model in builtin_models().items():
            chi1 = chi_squared(model, 1)
            for m in (1, 10, 100):
                got = ld_samplewise(model, m, math.inf, 1)
                want = 1.0 + m * chi1
                err = abs(got - want) / max(1.0, abs(want))
                worst = max(worst, err)
                ok = ok and err <= 1e-10
        _report(5, "samplewise (inf,1) norm = 1 + m chi^2", ok, f"max rel err {worst:.2e}")
        assert ok


class TestCriterion06BinomialExpansion:
    def test_power_kernel_binomial_identity(self):
        ok = True
        worst = 0.0
        for name, model in builtin_models().items():
            if not model.is_discrete:
                continue
            for v, _ in model.law.atoms:
                km1 = model.kernel.minus_one(v)
                lv = model.kernel.log_eval(v)
                for m in range(1, 21):
                    direct = 0.0 if lv is None else math.exp(m * lv)
                    terms = [math.comb(m, j) * km1**j for j in range(m + 1)]
                    scale = max(direct, math.fsum(abs(t) for t in terms), 1e-3)
                    err = abs(math.fsum(terms) - direct) / scale
                    worst = max(worst, err)
                    ok = ok and err <= 1e-9
        _report(6, "m-power kernel = binomial expansion (m <= 20)", ok,
                f"max rel err {worst:.2e}")
        assert ok


class TestCriterion07AssumptionCertification:
    DECLARED = {
        "gam-sphere": "sign_flip",
        "gam-rademacher": "sign_flip",
        "gam-two-point": "trivial",
        "mslr-desk": "trivial",
        "mslr-oracle": "trivial",
        "ngca-gauss-sphere": "sign_flip",
        "ngca-rademacher-sparse": "sign_flip",
        "si-sign-sphere": "sign_flip",
        "si-sign-sparse": "sign_flip",
        "slab-desk": "trivial",
        "counterexample-desk": "trivial",
        "dense-clique-desk": "trivial",
        "dirac-desk": "trivial",
    }

    def test_certification(self):
        # The repeated-signal model is the documented counter-model: its
        # off-diagonal kernel is exactly 0, so E[K - 1] = -1 at that atom
        # and the pointwise correlation bound is false by construction.
        # The evaluator must flag it (with the witness) rather than
        # certify it; every other family certifies at min >= -1e-12.
        ok = True
        details = []
        for name, model in builtin_models().items():
            assert model.group.kind == self.DECLARED[name], name
            rep = assumption_holds(model)
            if name == "dirac-desk":
                good = (not rep.passed) and rep.witness == 0.0
                details.append(f"{name}: violation flagged at atom 0")
            else:
                good = rep.passed and rep.min_value >= -1e-12
            ok = ok and good
        _report(7, "correlation-inequality certification (every k, by k = 1)", ok,
                "; ".join(details))
        assert ok


class TestCriterion08EquivalenceHarness:
    def test_randomized_inequality_suite(self):
        t0 = time.monotonic()
        res = equivalence_suite(num_models=100, base_seed=0)
        elapsed = time.monotonic() - t0
        ok = res["violations"] == 0 and elapsed < 60.0
        _report(8, "randomized GFP/rho-FP/SQ inequality harness", ok,
                f"100 models, {elapsed:.1f}s, {res['premise_failed_checks']} vacuous checks")
        assert res["violations"] == 0, res["first_failure"]
        assert elapsed < 60.0


class TestCriterion09Countermodels:
    def test_repeated_signal_model(self):
        model = build_model({"model": "dirac", "n": 20})
        sq = sq_value(model, 1, m=1)
        q = (1.0 / math.comb(20, 18)) ** -0.5
        gfp = gfp_value(model, q, 1)
        ok = sq.value > 1.0 and sq.verdict == "not-hard" and gfp.value == 0.0
        _report(9, "repeated-signal: SQ value > 1, GFP exactly 0", ok,
                f"SQ {sq.value:.1f}, GFP {gfp.value}")
        assert ok

    def test_dense_clique_model(self):
        n = 10_000
        p = 1.0 - n**-0.25
        k = round(n ** (1.0 / 3.0))
        model = build_model({"model": "dense_clique", "n": n, "k": k, "p": p})
        q_sq = model.law.probs[-1] ** -0.5
        sq = sq_value(model, q_sq)
        gfp = gfp_value(model, math.exp(n ** (1.0 / 32.0)), max(1, round(n ** 0.125)))
        ok = sq.value > 100.0 and gfp.value <= math.exp(0.01)
        _report(9, "dense clique: SQ value >> 1, GFP <= e^0.01", ok,
                f"SQ {sq.value:.3g}, GFP {gfp.value:.4f}")
        assert ok


class TestCriterion10MslrDeskScale:
    def test_chi2_and_rho_fp(self):
        t0 = time.monotonic()
        n, k, sigma2 = 10_000, 50, 50.0  # SNR = 1
        snr = k / sigma2
        model = build_model({"model": "mslr", "n": n, "k": k, "sigma2": sigma2})
        m_chi = math.floor(0.1 * k / math.log(snr**2 / (2 * snr + 1) + 1))
        chi = chi_squared(model, m_chi)
        log_q = math.log(n) ** 1.5
        m_fp = max(1, math.floor(20.0 * (1 + 1 / snr) ** 2 * k * k / math.log(n) ** 5))
        rfp = rho_fp_value(model, math.exp(log_q), m_fp)
        elapsed = time.monotonic() - t0
        ok = chi <= 0.1 and rfp.value <= 2.0 and elapsed < 10.0
        _report(10, "mslr desk scale: chi2 small, rho-FP near 1", ok,
                f"chi2({m_chi}) {chi:.2e}, rho-FP({m_fp}) {rfp.value:.5f}, {elapsed:.1f}s")
        assert chi <= 0.1
        assert rfp.value <= 2.0
        assert elapsed < 10.0


class TestCriterion11BinomialRatio:
    def test_bound_of_four_exact(self):
        ok = True
        for n in range(2, 201):
            for t in range(1, n):
                ratio = Fraction(math.comb(n, t) ** 2,
                                 math.comb(n, t - 1) * math.comb(n, t + 1))
                if ratio > 4:
                    ok = False
        _report(11, "binomial ratio bound <= 4 (n <= 200, exact)", ok)
        assert ok


class TestCriterion12Determinism:
    def test_byte_identical_sweeps(self, tmp_path):
        argv = ["sweep", "--model", "mslr-desk", "--criterion", "fp,gfp,sq,chi2",
                "--q", "log:4:100:4", "--m", "1,2,5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        ok = a.read_bytes() == b.read_bytes()
        _report(12, "re-run with identical config is byte-identical (sweep takes no seed)", ok,
                f"{len(a.read_bytes())} bytes")
        assert ok
