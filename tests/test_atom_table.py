"""Discrete laws in log space and the per-model atom table: regression
tests against independent references (mpmath log-sums, 2^n
enumeration) for masses below the float range, kernel powers beyond it,
and the GFP optimizer's node budget."""

import itertools
import json
import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_rows import read_rows
from fpsq.cli import EXIT_PASS, main
from fpsq.criteria import assumption_holds, chi_squared, gfp_value, log_moment, rho_fp_value
from fpsq.kernels import GroupSpec, Kernel, ModelSpec, build_model, gam_kernel, rho_g
from fpsq.laws import make_law

mpmath.mp.dps = 50


def gam_rademacher(n, lam):
    return build_model({"model": "gam", "lambda": lam, "prior": {"kind": "rademacher_mean", "n": n}})


def mp_log_moment_rademacher(n, lam, m):
    """log E[exp(m lam^2 T)], T the mean of n Rademacher signs, as a
    50-digit log-gamma log-sum."""
    terms = [mpmath.loggamma(n + 1) - mpmath.loggamma(b + 1) - mpmath.loggamma(n - b + 1)
             - n * mpmath.log(2) + m * mpmath.mpf(lam) ** 2 * mpmath.mpf(2 * b - n) / n
             for b in range(n + 1)]
    top = max(terms)
    return top + mpmath.log(mpmath.fsum(mpmath.exp(t - top) for t in terms))


class TestLawLogMasses:
    @pytest.mark.parametrize("spec, pmf", [
        ({"kind": "hypergeometric", "n": 1000, "k": 60},
         lambda n, k: {float(ell): Fraction(math.comb(k, ell) * math.comb(n - k, k - ell),
                                            math.comb(n, k)) for ell in range(k + 1)}),
        ({"kind": "rademacher_mean", "n": 2000},
         lambda n: {(2 * b - n) / n: Fraction(math.comb(n, b), 2**n) for b in range(n + 1)}),
    ])
    def test_log_masses_match_mpmath(self, spec, pmf):
        law = make_law(spec)
        exact = pmf(*(spec[key] for key in ("n", "k") if key in spec))
        assert law.values == tuple(sorted(v for v, p in exact.items() if p > 0))
        for v, lp in zip(law.values, law.log_probs):
            p = exact[v]
            ref = mpmath.log(p.numerator) - mpmath.log(p.denominator)
            assert abs(lp - ref) <= 1e-15 * max(1.0, abs(float(ref)))

    def test_signed_sparse_log_masses_match_mpmath(self):
        n, k = 300, 40
        law = make_law({"kind": "signed_sparse", "n": n, "k": k})
        # independent route: mixture over the intersection size in mpmath
        ref = {}
        for ell in range(k + 1):
            w = mpmath.binomial(k, ell) * mpmath.binomial(n - k, k - ell) / mpmath.binomial(n, k)
            for b in range(ell + 1):
                j = 2 * b - ell
                ref[j] = ref.get(j, 0) + w * mpmath.binomial(ell, b) / mpmath.mpf(2) ** ell
        assert law.values == tuple(j / k for j in sorted(ref))
        for v, lp in zip(law.values, law.log_probs):
            want = mpmath.log(ref[round(v * k)])
            assert abs(lp - want) <= 1e-15 * max(1.0, abs(float(want)))

    def test_masses_below_float_range_keep_their_logs(self):
        law = make_law({"kind": "rademacher_mean", "n": 2000})
        assert sum(p == 0.0 for p in law.probs) > 0  # the float view underflows
        assert all(math.isfinite(lp) for lp in law.log_probs)
        assert law.log_probs[0] == pytest.approx(-2000 * math.log(2.0), rel=1e-15)
        assert math.fsum(law.probs) == pytest.approx(1.0, abs=2e-15)


class TestUnderflowedMasses:
    """gam on rademacher_mean, n = 2000, lambda = 0.8, m = 10^4: 396 of
    the 2001 masses are below the float range, yet they carry most of
    E[K^m]."""

    def test_log_moment_against_loggamma_sum(self):
        model = gam_rademacher(2000, 0.8)
        ref = mp_log_moment_rademacher(2000, 0.8, 10_000)
        assert float(ref) == pytest.approx(5017.026, abs=1e-3)
        assert log_moment(model, 10_000) == pytest.approx(float(ref), rel=1e-13)

    def test_chi_squared_overflows_to_inf_not_nan(self):
        assert chi_squared(gam_rademacher(2000, 0.8), 10_000) == math.inf

    def test_cli_row_carries_the_log_value(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"models": {"wide": {
            "model": "gam", "lambda": 0.8, "prior": {"kind": "rademacher_mean", "n": 2000}}}}))
        out = tmp_path / "rows.csv"
        code = main(["criterion", "--config", str(cfg), "--model", "wide", "--criterion", "chi2",
                     "--m", "10000", "--out", str(out)])
        assert code == EXIT_PASS
        (row,) = read_rows(str(out))
        assert row["method"] == "exact-sum+overflow-log"
        ref = mp_log_moment_rademacher(2000, 0.8, 10_000)
        assert float(row["value"]) == pytest.approx(float(ref), rel=1e-13)

    def test_moderate_moment_matches_closed_form(self):
        # E[exp(s T)] = cosh(s / n)^n on the same law, where no term overflows
        n, lam, m = 2000, 0.8, 50
        s = m * lam * lam
        want = n * math.log(math.cosh(s / n))
        assert log_moment(gam_rademacher(n, lam), m) == pytest.approx(want, rel=1e-12)
        assert chi_squared(gam_rademacher(n, lam), m) == pytest.approx(math.expm1(want), rel=1e-12)


class TestMirror:
    """The sign flip as a mirror index: one kernel evaluation per atom,
    plus one at -t for an atom with no atom at -t."""

    def test_lone_atom_evaluates_its_negation_once(self):
        calls = []
        gam = gam_kernel(1.0)
        kernel = Kernel("gam", "scalar", lambda t: calls.append(float(t)) or gam.log_eval(t))
        # 0.7 has no mirror atom; its mass sits within GroupSpec.preserves' slack
        law = make_law({"kind": "atoms", "values": [-0.5, 0.5, 0.7], "probs": [0.5, 0.5 - 1e-13, 1e-13]})
        group = GroupSpec("sign_flip")
        model = ModelSpec("lone", {}, kernel, law, group, euclid_overlap=float)
        tab = model.atom_table
        assert calls == [-0.5, 0.5, 0.7, -0.7]
        assert tab.mirror.tolist() == [1, 0, 2]
        assert tab.orbit.tolist() == [0, 0, 1]  # the lone atom keeps its own orbit
        assert tab.mirror_dev.tolist() == [math.expm1(0.5), math.expm1(-0.5), math.expm1(-0.7)]
        assert tab.rho.at.tolist() == [rho_g(gam, group, t) for t in law.values]
        assert tab.rho.at[2] == math.expm1(0.7)
        rep = assumption_holds(model, k_max=3)
        want = min(math.fsum([math.expm1(t) ** k, math.expm1(-t) ** k]) / 2
                   for t in law.values for k in (1, 2, 3))
        assert rep.min_value == want and rep.passed

    def test_equal_atoms_merge_into_one(self):
        law = make_law({"kind": "atoms", "values": [0.5, -1.0, 0.5], "probs": [0.25, 0.5, 0.25]})
        assert law.values == (-1.0, 0.5) and law.probs == (0.5, 0.5)


class TestGfpLogValues:
    def test_overflow_scale_items_are_not_capped(self):
        # dropping the 0.5 atom (log item value 1146.7) beats dropping the
        # 1.0 atom (916.4); a cap at 1e308 made the two look alike
        model = build_model({"model": "synthetic", "values": [0.0, 0.5, 1.0],
                             "probs": [0.98, 0.01, 0.01], "kernel_values": [1.0, 1e250, 1e200]})
        rep = gfp_value(model, 0.015**-0.5, 2)
        want = math.log(0.01) + 2 * math.log(1e200)
        assert rep.log_value == pytest.approx(916.4, abs=0.05)
        assert rep.log_value == pytest.approx(want, rel=1e-14)
        assert rep.detail["excluded_atoms"] == [0.5]

    def test_node_budget_returns_brackets(self):
        # 40 items with near-equal value per unit mass defeat the fractional bound
        rng = np.random.default_rng(0)
        n = 40
        model = build_model({"model": "synthetic", "values": list(range(n)),
                             "probs": rng.dirichlet(np.ones(n)).tolist(),
                             "kernel_values": (1.0 + 1e-6 * rng.uniform(0, 1, n)).tolist()})
        start = time.perf_counter()
        rep = gfp_value(model, 2**0.5, 1)
        assert time.perf_counter() - start < 1.0
        assert rep.detail["optimizer"] == "branch-and-bound-budget"
        lower, upper = rep.detail["value_brackets"]
        assert lower <= rep.value <= upper * (1 + 1e-12)


def test_rho_fp_keeps_the_finite_atoms_below_an_infinite_threshold():
    # log K(1) = 702.3 > 700 makes |K - 1| and the rho_G threshold at
    # mass 0.2 infinite; the strict event {rho_G < inf} keeps the rest
    model = build_model({"model": "synthetic", "values": [0, 0.5, 1], "probs": [0.5, 0.3, 0.2],
                         "kernel_values": [1, 2, 1e305]})
    rep = rho_fp_value(model, 0.2**-0.5, 1)
    assert rep.threshold.threshold == math.inf
    assert rep.value == pytest.approx(math.fsum([0.5 * 1, 0.3 * 2]), rel=1e-15)


@st.composite
def gfp_cases(draw):
    n = draw(st.integers(1, 12))
    counts = draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
    log_k = draw(st.lists(st.one_of(st.floats(-20.0, 20.0), st.floats(300.0, 700.0),
                                    st.just(-math.inf)), min_size=n, max_size=n))
    drop = draw(st.integers(0, sum(counts) - 1))
    m = draw(st.integers(1, 5))
    return counts, log_k, drop, m


@settings(max_examples=60, deadline=None)
@given(gfp_cases())
def test_gfp_matches_enumeration(case):
    """GFP against all 2^n atom subsets, in log space; kernel powers up
    to exp(3500) and exact zeros included.  The droppable mass drop/W
    is a whole number of mass units, so exact ties are common."""
    counts, log_k, drop, m = case
    total = sum(counts)
    probs = [c / total for c in counts]
    model = build_model({"model": "synthetic", "values": [float(j) for j in range(len(counts))],
                         "probs": probs, "kernel_values": [math.exp(lk) for lk in log_k]})
    capacity = max(drop, 1) / total  # a positive tail mass q^-2
    rep = gfp_value(model, capacity**-0.5, m)
    best = math.inf
    for mask in itertools.product([0, 1], repeat=len(counts)):
        if math.fsum(p for b, p in zip(mask, probs) if b) < 1 - capacity * (1 + 1e-12):
            continue
        terms = [m * lk + math.log(p) for b, lk, p in zip(mask, log_k, probs) if b and lk > -math.inf]
        if not terms:
            best = -math.inf
            break
        top = max(terms)
        best = min(best, top + math.log(math.fsum(math.exp(t - top) for t in terms)))
    if best == -math.inf:
        assert rep.value == 0.0
    else:
        assert rep.log_value == pytest.approx(best, rel=1e-12, abs=1e-12)
