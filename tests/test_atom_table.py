"""Discrete laws in log space and the per-model atom table: regression
tests against independent references (mpmath log-sums, 2^n
enumeration) for masses below the float range, kernel powers beyond it,
and the GFP optimizer's node budget."""

import bisect
import dataclasses
import functools
import gc
import itertools
import json
import math
import os
import sys
import time
import types
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cli_rows import read_rows
from fpsq.cli import EXIT_PASS, main
from fpsq import criteria
from fpsq.criteria import (assumption_holds, chi_squared, gfp_value, log_moment, rho_fp_value,
                           solve_min_inclusion, usq_moment)
from fpsq.kernels import AtomTable, GroupSpec, Kernel, ModelSpec, build_model, gam_kernel, rho_g
from fpsq import laws
from fpsq.laws import AtomEvaluationError, make_law
from fpsq.numerics import log_sum_exp
from fpsq.scenarios import BUILTIN_MODEL_DESCRIPTORS, run_scenario

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
        assert law.values.tolist() == sorted(v for v, p in exact.items() if p > 0)
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
        assert law.values.tolist() == [j / k for j in sorted(ref)]
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
        kernel = Kernel("gam", "scalar", lambda t: calls.extend(np.ravel(t).tolist()) or gam.log_eval(t))
        # 0.7 has no mirror atom; its mass sits within GroupSpec.preserves' slack
        law = make_law({"kind": "atoms", "values": [-0.5, 0.5, 0.7], "probs": [0.5, 0.5 - 1e-13, 1e-13]})
        group = GroupSpec("sign_flip")
        model = ModelSpec("lone", {}, kernel, law, group, euclid_overlap=True)
        tab = model.atom_table
        assert calls == [-0.5, 0.5, 0.7]  # the kernel table; K - 1 at -t waits for its first read
        assert tab.mirror.tolist() == [1, 0, 2] and calls == [-0.5, 0.5, 0.7, -0.7]
        assert tab.orbit.tolist() == [0, 0, 1]  # the lone atom keeps its own orbit
        assert tab.mirror_dev.tolist() == [math.expm1(0.5), math.expm1(-0.5), math.expm1(-0.7)]
        assert atom_levels(tab.rho).tolist() == [rho_g(gam, group, t) for t in law.values]
        assert atom_levels(tab.rho)[2] == math.expm1(0.7)
        rep = assumption_holds(model)
        want = min(math.fsum([math.expm1(t), math.expm1(-t)]) / 2 for t in law.values)
        assert rep.min_value == want and rep.passed
        assert calls == [-0.5, 0.5, 0.7, -0.7]

    def test_mirror_is_computed_once_per_law(self, monkeypatch):
        # the default group's check, the model's check and the atom table
        # read one cached mirror of the law
        calls = []
        mirror_index = laws.mirror_index
        monkeypatch.setattr(laws, "mirror_index", lambda v: calls.append(len(v)) or mirror_index(v))
        model = gam_rademacher(2000, 0.8)
        tab = model.atom_table
        assert model.group.kind == "sign_flip" and calls == [2001]
        assert tab.mirror.tolist() == list(range(2000, -1, -1))

    def test_equal_atoms_merge_into_one(self):
        law = make_law({"kind": "atoms", "values": [0.5, -1.0, 0.5], "probs": [0.25, 0.5, 0.25]})
        assert law.values.tolist() == [-1.0, 0.5] and law.probs.tolist() == [0.5, 0.5]


def test_values_leaving_the_engine_are_python_values():
    # a law holds its atoms as numpy arrays; what a report or an error
    # hands back is a Python float, or a tuple of pair counts
    counts = build_model({"model": "counterexample", "n": 6, "r": 0.5, "alpha_c": 0.5, "rho_p": 0.3})
    assert counts.law.atom_values(gfp_value(counts, 3.0, 2).detail["excluded"]) == [(6, 0, 1)]
    broken = build_model({"model": "synthetic", "values": [0.0, 0.5, 1.0], "probs": [0.5, 0.3, 0.2],
                          "kernel_values": [1.0, 0.5, 2.0]})
    assert type(assumption_holds(broken).witness) is float
    assert [type(v) for v in broken.law.atom_values(gfp_value(broken, 2.0, 1).detail["excluded"])] == [float]
    with pytest.raises(AtomEvaluationError) as err:
        usq_moment(gam_rademacher(4, 22.0), 2)
    assert type(err.value.atom) is float
    assert type(run_scenario("dirac").params["q_gfp"]) is float
    assert type(run_scenario("dense-clique").params["q_sq"]) is float


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
        assert model.law.atom_values(rep.detail["excluded"]) == [0.5]

    def test_excluded_atoms_follow_law_order(self):
        # both high-kernel atoms fit in the q^-2 = 0.25 budget; their reprs
        # sort "10.0" before "2.0", the law puts 2.0 first
        model = build_model({"model": "synthetic", "values": [0.0, 2.0, 10.0],
                             "probs": [0.8, 0.1, 0.1], "kernel_values": [0.5, 3.0, 4.0]})
        rep = gfp_value(model, 2.0, 3)
        assert model.law.values.tolist() == [0.0, 2.0, 10.0]
        assert model.law.atom_values(rep.detail["excluded"]) == [2.0, 10.0]
        assert rep.detail["excluded_mass"] == pytest.approx(0.2, rel=1e-15)

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


# The float rules a discrete event's boundary followed before it became a
# level cut, kept here as the reference Levels.cut must reproduce
def closed_rule(at, c):
    return at <= c + 1e-12 * np.maximum(np.abs(at), abs(c))


def strict_rule(at, c):
    return at < c * (1.0 - 1e-12)


def near(levels):
    """Each level, one ulp either side of it and 1e-12 relative either side."""
    return np.concatenate([levels, np.nextafter(levels, np.inf), np.nextafter(levels, -np.inf),
                           levels * (1.0 + 1e-12), levels * (1.0 - 1e-12)])


def atom_levels(h):
    """Each atom's level, in atom order, read from the level order."""
    out = np.empty(len(h.order))
    out[h.order] = np.repeat(h.levels, np.diff(h.starts))
    return out


def kept_mask(h, cut):
    """The atoms order[:starts[cut]] as a mask in atom order."""
    mask = np.zeros(len(h.order), dtype=bool)
    mask[h.order[:h.starts[cut]]] = True
    return mask


def assert_cuts_follow_the_rules(h, at):
    """The atoms of cut(c) against both float rules, atom by atom, at every c near a level."""
    for c in near(h.levels).tolist():
        assert np.array_equal(kept_mask(h, h.cut(c)), closed_rule(at, c)), c
        assert np.array_equal(kept_mask(h, h.cut(c, strict=True)), strict_rule(at, c)), c


class TestLevelCut:
    # every discrete preset, and the models of the benchmark's discrete-wide workload
    DESCS = {name: desc for name, desc in BUILTIN_MODEL_DESCRIPTORS.items()
             if desc.get("prior", {}).get("kind") != "sphere"} | {
        "gam-rademacher-1000": {"model": "gam", "lambda": 0.8, "prior": {"kind": "rademacher_mean", "n": 1000}},
        "gam-rademacher-126": {"model": "gam", "lambda": 1.2, "prior": {"kind": "rademacher_mean", "n": 126}},
        "mslr-scenario": {"model": "mslr", "n": 10_000, "k": 50, "sigma2": 50.0},
    }

    @pytest.mark.parametrize("name", sorted(DESCS))
    def test_cut_is_the_float_rule_on_every_levels(self, name):
        model = build_model(self.DESCS[name])
        assert model.is_discrete
        tab, values = model.atom_table, model.law.values
        # each transform at each atom, as the atom table computes it
        ats = {"rho": np.maximum(np.abs(tab.dev), np.abs(tab.mirror_dev)), "abs_dev": np.abs(tab.dev)}
        if tab.overlap is not None:
            ats["overlap"] = np.abs(values[:, 2] if model.law.statistic == "pair_counts" else values)
        for attr, at in ats.items():
            h = getattr(tab, attr)
            assert np.array_equal(atom_levels(h), at), attr  # each atom's level is its value
            assert_cuts_follow_the_rules(h, at)

    @pytest.mark.parametrize("name", sorted(DESCS))
    def test_level_order_is_np_unique(self, name):
        model = build_model(self.DESCS[name])
        tab, values, probs = model.atom_table, model.law.values, model.law.probs
        ats = {"rho": np.maximum(np.abs(tab.dev), np.abs(tab.mirror_dev)), "abs_dev": np.abs(tab.dev)}
        if tab.overlap is not None:
            ats["overlap"] = np.abs(values[:, 2] if model.law.statistic == "pair_counts" else values)
        for attr, at in ats.items():
            assert_level_order_is_unique(getattr(tab, attr), at, probs)


@st.composite
def near_tie_levels(draw):
    """Values with mirror pairs one ulp apart, as |K - 1| at t and -t round
    on gam-rademacher, and their masses."""
    base = draw(st.lists(st.one_of(st.floats(0.0, 10.0), st.floats(1e-300, 1e300), st.floats(-1e3, 0.0)),
                         min_size=1, max_size=12))
    values = base + [math.nextafter(x, math.inf) for x in draw(st.lists(st.sampled_from(base), max_size=6))]
    probs = draw(st.lists(st.floats(0.01, 1.0), min_size=len(values), max_size=len(values)))
    return np.array(values), np.array(probs) / sum(probs)


@settings(max_examples=200, deadline=None)
@given(near_tie_levels())
def test_cut_is_the_float_rule_on_near_ties(case):
    values, probs = case
    assert_cuts_follow_the_rules(laws.Levels.of(values, probs), values)


def assert_level_order_is_unique(h, at, probs):
    """order and starts against np.unique's levels and inverse: the atoms
    level by level, each level's in atom order, and each level's mass
    the bincount of its atoms' masses, bit for bit."""
    levels, inverse = np.unique(at, return_inverse=True)
    assert np.array_equal(h.levels, levels)
    assert h.order.dtype == np.int32 and np.array_equal(h.order, np.argsort(inverse, kind="stable"))
    assert h.starts[0] == 0 and np.array_equal(np.diff(h.starts), np.bincount(inverse))
    assert h.mass.tobytes() == np.bincount(inverse, weights=probs, minlength=len(levels)).tobytes()


@st.composite
def tied_levels(draw):
    """Values drawn from a few of zeros of either sign, subnormals, wide
    floats and 1, so ties are common (one value makes them all equal),
    with masses from 0 to 1."""
    pool = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0]),
                                   st.floats(min_value=5e-324, max_value=2.0**-1022, exclude_max=True),
                                   st.floats(-1e300, 1e300)), min_size=1, max_size=6))
    values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    probs = draw(st.lists(st.floats(0.0, 1.0), min_size=len(values), max_size=len(values)))
    return np.array(values), np.array(probs)


@settings(max_examples=300, deadline=None)
@given(tied_levels())
@example((np.array([0.25]), np.array([1.0])))  # one atom
@example((np.full(5, 2.0**-1074), np.full(5, 0.2)))  # one subnormal level
def test_level_order_is_np_unique_on_ties(case):
    values, probs = case
    h = laws.Levels.of(values, probs)
    assert_level_order_is_unique(h, values, probs)
    assert_cuts_follow_the_rules(h, values)


# ---------------------------------------------------------------------------
# The atom table's whole-array forms against independent references
# ---------------------------------------------------------------------------


def workload_descs(workload: str, seed: int) -> dict:
    """The model descriptors of one of the benchmark's workloads."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
    try:
        import grids
    finally:
        sys.path.pop(0)
    return {f"{b.label}-seed{seed}": b.desc for b in grids.blocks(workload, seed)}


# every preset, and the models of the benchmark's discrete-large workload at seed 0
MODEL_DESCS = BUILTIN_MODEL_DESCRIPTORS | workload_descs("discrete-large", 0)
TABLE_DESCS = {name: desc for name, desc in MODEL_DESCS.items() if desc.get("prior", {}).get("kind") != "sphere"}


# ---------------------------------------------------------------------------
# GFP's detail, built on read, against the eager reference
# ---------------------------------------------------------------------------


def greedy_fill(values, weights, log_weights, needed):
    """The log of the greedy cover's fractional fill: the items by log value
    per unit mass (a stable sort), taken whole by a loop of weight += w
    from the free items' exact mass, the one that reaches `needed` in part."""
    order = sorted((j for j, v in enumerate(values) if v > -math.inf), key=lambda j: values[j] - log_weights[j])
    weight = math.fsum(w for v, w in zip(values, weights) if v == -math.inf)
    if weight >= needed:
        return -math.inf
    for i, j in enumerate(order):
        if weight + weights[j] >= needed:
            part = (needed - weight) / weights[j]
            return log_sum_exp([values[o] for o in order[:i]] + [values[j] + math.log(min(part, 1.0))])
        weight += weights[j]
    raise AssertionError("the cover is infeasible")


def eager_gfp(model, q, m):
    """GFP's value, log value and detail as computed eagerly from the orbit
    log values: the items of a fresh solve_min_inclusion, the mask of the
    atoms outside them, the exact sum of the excluded orbit masses and,
    when the search stopped early, the greedy fill as the lower bracket."""
    tab = model.atom_table
    log_terms = m * tab.log_k + model.law.log_probs
    values = criteria._orbit_log_values(log_terms, tab)
    needed = 1.0 - q**-2 * (1.0 + 1e-12)
    included, _, lower = solve_min_inclusion(values, tab.orbit_mass, tab.log_orbit_mass, needed)
    chosen = np.zeros(len(values), dtype=bool)
    chosen[included] = True
    terms = log_terms[chosen[tab.orbit]]
    terms = terms[terms > -math.inf]
    lv = log_sum_exp(terms) if terms.size else -math.inf
    detail = {}
    if lower is not None:
        fill = greedy_fill(values.tolist(), tab.orbit_mass.tolist(), tab.log_orbit_mass.tolist(), needed)
        detail["value_brackets"] = (laws.exp_or_inf(fill), laws.exp_or_inf(lv))
    detail["excluded"] = ~chosen[tab.orbit]
    detail["excluded_mass"] = math.fsum(tab.orbit_mass[~chosen].tolist())
    return laws.exp_or_inf(lv), lv, detail


def bits(x):
    """x with floats as hex and arrays as (dtype, bytes), to compare bit for bit."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.tobytes()
    if isinstance(x, tuple):
        return tuple(map(bits, x))
    return float(x).hex()


def reachable_arrays(obj) -> list:
    """The arrays obj refers to, directly or through other objects, except
    through a model (which holds the law and atom table), a function or a
    module."""
    seen, todo, arrays = set(), [obj], []
    while todo:
        x = todo.pop()
        if id(x) in seen or isinstance(x, (ModelSpec, type, types.FunctionType, types.ModuleType)):
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            arrays.append(x if x.base is None else x.base)
        else:
            todo.extend(gc.get_referents(x))
    return arrays


class TestGfpDetailOnRead:
    # every discrete preset and the discrete-wide models of seeds 0 and 1:
    # 501 sign orbits (greedy path), 64 (branch and bound), and the mslr law
    DESCS = {name: desc for name, desc in (BUILTIN_MODEL_DESCRIPTORS | workload_descs("discrete-wide", 0)
                                           | workload_descs("discrete-wide", 1)).items()
             if desc.get("prior", {}).get("kind") != "sphere"}

    @pytest.mark.parametrize("budget", [None, 3])
    @pytest.mark.parametrize("name", sorted(DESCS))
    def test_detail_is_the_eager_reference(self, name, budget, monkeypatch):
        if budget is not None:  # the branch and bound stops early: the budget path
            monkeypatch.setattr(criteria, "_BNB_NODES", budget)
        model = build_model(self.DESCS[name])
        orbits = len(model.atom_table.orbit_rep)
        for q, m in itertools.product((1.5, 3.0, 20.0, 1000.0), (1, 3, 20)):
            rep = gfp_value(model, q, m)
            value, lv, detail = eager_gfp(model, q, m)
            assert bits(rep.value) == bits(value) and bits(rep.log_value) == bits(lv), (q, m)
            assert list(rep.detail) == ["orbit_atoms", "optimizer", *detail], (q, m)
            assert {key: bits(rep.detail[key]) for key in detail} == {key: bits(v) for key, v in detail.items()}
            # error_bound is the brackets' width, 0 where the optimum is proved
            lower, upper = detail.get("value_brackets", (value, value))
            assert not rep.overflowed
            assert abs(rep.error_bound - (upper - lower)) <= 1e-13 * upper, (q, m)
            if orbits > criteria._MAX_EXACT_ORBITS:
                assert rep.detail["optimizer"] == "greedy-bracket"
            elif budget is None:
                assert rep.detail["optimizer"] == "branch-and-bound-exact"

    def test_every_path_is_compared(self, monkeypatch):
        wide = build_model(self.DESCS["gam-rademacher-1000-seed0"])
        small = build_model(self.DESCS["gam-rademacher-126-seed0"])
        assert gfp_value(wide, 3.0, 3).detail["optimizer"] == "greedy-bracket"
        assert gfp_value(small, 3.0, 3).detail["optimizer"] == "branch-and-bound-exact"
        monkeypatch.setattr(criteria, "_BNB_NODES", 3)
        assert gfp_value(small, 3.0, 3).detail["optimizer"] == "branch-and-bound-budget"

    def test_an_overflow_log_row_bounds_the_log_value(self):
        # past e^700 the row emits log E[K^m 1(A)], so error_bound is the
        # brackets' width in log units: log upper - log lower
        model = build_model({"model": "gam", "lambda": 3.0, "prior": {"kind": "rademacher_mean", "n": 400}})
        tab, needed = model.atom_table, 1.0 - 3.0**-2 * (1.0 + 1e-12)
        rep = gfp_value(model, 3.0, 1000)
        assert rep.overflowed and rep.detail["optimizer"] == "greedy-bracket"
        values = criteria._orbit_log_values(1000 * tab.log_k + model.law.log_probs, tab)
        fill = greedy_fill(values.tolist(), tab.orbit_mass.tolist(), tab.log_orbit_mass.tolist(), needed)
        assert 0.0 < rep.error_bound == pytest.approx(rep.log_value - fill, rel=1e-12, abs=1e-12 * rep.log_value)

    def test_the_memo_holds_12_bytes_per_orbit(self):
        from phase_grid import held_bytes

        model = build_model(self.DESCS["gam-rademacher-1000-seed1"])
        orbits = len(model.atom_table.orbit_rep)
        assert orbits > criteria._MAX_EXACT_ORBITS
        gfp_value(model, 3.0, 7)
        descent = model.memo["gfp", 7]
        assert descent.search is None and type(descent.free_mass) is float
        # free and order are int32 and hold each orbit once; reached is one float more than order
        arrays = [held_bytes(x) for x in descent if isinstance(x, np.ndarray)]
        assert len(arrays) == 3 and sum(arrays) <= 12 * orbits + 8

    def test_an_unread_report_holds_no_atom_array(self):
        model = build_model(self.DESCS["gam-rademacher-1000-seed0"])
        tab = model.atom_table
        atoms, orbits = len(tab.orbit), len(tab.orbit_rep)
        assert atoms > orbits + 1
        for q in (1.5, 1000.0):
            rep = gfp_value(model, q, 4)
            held = reachable_arrays(rep)
            assert held and max(a.size for a in held) <= orbits + 1, [a.size for a in held]
            assert rep.detail["excluded"].size == atoms  # built on read


def test_gfp_detail_is_read_only():
    # on a fresh report pop, setdefault and popitem returned the stored
    # functools.partial in place of the value it computes
    model = build_model(BUILTIN_MODEL_DESCRIPTORS["slab-desk"])
    detail = gfp_value(model, 3.0, 2).detail
    for mutator in ("pop", "popitem", "setdefault", "update", "clear", "__setitem__", "__delitem__"):
        assert not hasattr(detail, mutator), mutator
    assert not any(isinstance(value, functools.partial) for value in detail.values())


def exact_suffix_sums(masses) -> list[float]:
    """sum(masses[i:]) for each i, exactly in integers (every float is a whole
    multiple of 2^-1074) and rounded once by Python's correctly rounded
    int / int."""
    unit = 2**1074
    scaled = [num * (unit // den) for num, den in (float(x).as_integer_ratio() for x in masses)]
    out, acc = [], 0
    for v in reversed(scaled):
        acc += v
        out.append(acc / unit)
    return out[::-1]


def assert_exact_tails(levels):
    tails = levels.tails.tolist()
    assert tails == exact_suffix_sums(levels.mass.tolist())
    assert all(a >= b for a, b in zip(tails, tails[1:]))  # nonincreasing


class TestAtomTableForms:
    @pytest.fixture(scope="class", params=sorted(TABLE_DESCS))
    def model(self, request):
        return build_model(TABLE_DESCS[request.param])

    def test_tails_are_the_exact_suffix_sums(self, model):
        tab = model.atom_table
        for levels in (tab.overlap, tab.rho, tab.abs_dev):
            if levels is not None:
                assert_exact_tails(levels)

    def test_threshold_is_the_slack_rule(self, model):
        # the first level whose tail is below mass by more than the slack, as a bisection found it
        tab = model.atom_table
        for levels in (tab.overlap, tab.rho, tab.abs_dev):
            if levels is None:
                continue
            tails = levels.tails.tolist()
            for mass in {*near(np.array([t for t in tails if 0.0 < t <= 1.0])).tolist(), 1e-300, 1.0}:
                if 0.0 < mass <= 1.0:
                    i = bisect.bisect_left(tails, True, key=lambda t: t < mass - 1e-12 * max(abs(t), mass))
                    assert levels.threshold(mass) == levels.tail(max(i - 1, 0), mass), mass

    def test_the_trivial_group_reads_rho_from_abs_dev(self, model):
        # rho_G = max(|K(t) - 1|, |K(-t) - 1|) is |K - 1| where each atom is its
        # own mirror: the trivial group shares abs_dev's Levels (and dev) instead
        # of sorting them again, and the sign flip builds its own
        tab = model.atom_table
        if model.group.order == 1:
            assert tab.rho is tab.abs_dev and tab.mirror_dev is tab.dev
        else:
            assert tab.rho is not tab.abs_dev
        want = laws.Levels.of(np.maximum(np.abs(tab.dev), np.abs(tab.mirror_dev)), model.law.probs)
        for field in dataclasses.fields(want):
            got, ref = getattr(tab.rho, field.name), getattr(want, field.name)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), field.name

    def test_log_orbit_mass_is_math_log_of_each_mass(self, model):
        # the loop over every orbit as the reference: math.log where the mass is positive, else -inf
        tab = model.atom_table
        want = np.array([math.log(w) if w > 0.0 else -math.inf for w in tab.orbit_mass.tolist()])
        assert tab.log_orbit_mass.tobytes() == want.tobytes()

    def test_orbits_match_the_sorted_unique_form(self, model):
        tab = model.atom_table
        rep, orbit = np.unique(np.minimum(np.arange(len(tab.mirror)), tab.mirror), return_inverse=True)
        assert tab.orbit_rep.dtype == rep.dtype and np.array_equal(tab.orbit_rep, rep)
        assert tab.orbit.dtype == orbit.dtype and np.array_equal(tab.orbit, orbit)


# ---------------------------------------------------------------------------
# Each part of the atom table built on its first read
# ---------------------------------------------------------------------------

# the parts built on first read (log K and K - 1 come with the table)
PARTS = tuple(name for name, attr in vars(AtomTable).items() if isinstance(attr, functools.cached_property))


def parts_read(model, criterion: str) -> set:
    """The parts a criterion's cell reads: FP the overlap's Levels, rho_G-FP
    rho_G's (|K - 1|'s under the trivial group, else from the mirror), SQ
    |K - 1|'s, GFP the orbits (from the mirror); the rest log K or K - 1."""
    mirror = {"mirror", "mirror_dev"}
    return {"fp": {"overlap"}, "rho_fp": {"rho"} | (mirror if model.group.order == 2 else {"abs_dev"}),
            "sq": {"abs_dev"}, "gfp": mirror | {"orbit", "orbit_rep", "orbit_mass", "log_orbit_mass"}
            }.get(criterion, set())


@pytest.mark.parametrize("criterion", sorted(criteria.CRITERIA))
@pytest.mark.parametrize("name", sorted(TABLE_DESCS))
def test_a_cell_builds_only_the_parts_its_criterion_reads(name, criterion):
    model = build_model(TABLE_DESCS[name])
    try:
        criteria.CRITERIA[criterion].report(model, criteria.Cell(20.0, 4))
        answered = True
    except ValueError:  # refused (FP without an overlap, say): it may have read less
        answered = False
    built = {part for part in PARTS if part in vars(model.atom_table)}
    assert built == parts_read(model, criterion) if answered else built <= parts_read(model, criterion)


@pytest.mark.parametrize("name", sorted(TABLE_DESCS))
def test_criteria_in_either_order_report_the_same_bits(name):
    def reports(order) -> dict:
        model, out = build_model(TABLE_DESCS[name]), {}
        for criterion in order:
            for cell in (criteria.Cell(20.0, 4), criteria.Cell(3.0, 17)):
                try:
                    rep = criteria.CRITERIA[criterion].report(model, cell)
                except ValueError as exc:
                    out[criterion, cell] = repr(exc)
                    continue
                thr = rep.threshold
                out[criterion, cell] = (bits(rep.value), None if rep.log_value is None else bits(rep.log_value),
                                        None if thr is None else (bits(thr.threshold), bits(thr.achieved_mass),
                                                                  thr.exact),
                                        rep.method, bits(rep.error_bound))
        return out

    assert reports(list(criteria.CRITERIA)) == reports(list(criteria.CRITERIA)[::-1])


@pytest.mark.parametrize("name", sorted(MODEL_DESCS))
def test_kernel_table_is_two_kernel_calls_bit_for_bit(name):
    model = build_model(MODEL_DESCS[name])
    log_k, dev = model.kernel_table
    points = model.law.values if model.is_discrete else model.law.grid
    assert np.array_equal(log_k.view(np.int64), model.kernel.log_eval(points).view(np.int64))
    assert np.array_equal(dev.view(np.int64), model.kernel.minus_one(points).view(np.int64))


def test_tail_whose_error_sum_rounds_comes_from_the_exact_sum():
    # from the top: 0.5 + 2^-54 ties to 0.5, and so does the sum of the two
    # errors, 2^-54 + 2^-107; their exact total lies above the tie, so the
    # tail rounds up, where s + c (and the old compensated loop) gave 0.5
    masses = [2.0**-107, 2.0**-54, 0.5]
    levels = laws.Levels.of([0.0, 1.0, 2.0], masses)
    assert levels.tails.tolist() == exact_suffix_sums(masses)
    assert levels.tails[0] == 0.5 + 2.0**-53


def masses_strategy():
    """Level masses: zeros, subnormals, exact powers of two and spread
    exponents down to 2^-1000, with runs of equal masses."""
    mass = st.one_of(
        st.just(0.0),
        st.floats(min_value=5e-324, max_value=2.0**-1022, exclude_max=True),
        st.builds(math.ldexp, st.just(1.0), st.integers(-1000, 0)),
        st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1000, 0)),
    )
    runs = st.lists(st.tuples(mass, st.integers(1, 8)), min_size=1, max_size=40)
    return runs.map(lambda rs: [x for x, count in rs for _ in range(count)])


@settings(max_examples=300, deadline=None)
@given(masses_strategy())
def test_tails_are_the_exact_suffix_sums_of_any_masses(masses):
    levels = laws.Levels.of(np.arange(len(masses), dtype=float), masses)
    assert levels.mass.tolist() == masses
    assert_exact_tails(levels)
