"""Hardness criteria: exact event integrals, optimization, and the
cross-criterion inequality chains."""

import itertools
import math
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpsq import criteria
from fpsq.criteria import (
    UnsupportedCriterionError,
    assumption_holds,
    check_equivalence_bounds,
    chi_squared,
    fp_value,
    gfp_value,
    greedy_min_inclusion,
    ld_samplewise,
    rho_fp_value,
    solve_min_inclusion,
    sq_value,
    usq_hard,
    usq_moment,
)
from fpsq.kernels import ModelSpec, build_model, rho_g
from fpsq.scenarios import BUILTIN_MODEL_DESCRIPTORS, random_assumption_model
from helpers import builtin_models


def synthetic(values, probs, kernel_values, group=None):
    desc = {"model": "synthetic", "values": list(values), "probs": list(probs),
            "kernel_values": list(kernel_values)}
    if group:
        desc["group"] = group
    return build_model(desc)


def random_model(seed, n_atoms=8, sign=False):
    rng = np.random.default_rng(seed)
    if sign:
        half = n_atoms // 2
        pos = np.sort(rng.uniform(0.05, 1.0, half))
        values = np.concatenate([-pos[::-1], pos])
        pr = rng.dirichlet(np.ones(half))
        probs = np.concatenate([pr[::-1] / 2, pr / 2])
        kv_pos = 1.0 + rng.uniform(0.0, 0.5, half)
        kv = np.concatenate([kv_pos[::-1], kv_pos])  # even kernel
        return synthetic(values, probs, kv, group="sign_flip")
    values = np.sort(rng.uniform(-1, 1, n_atoms))
    probs = rng.dirichlet(np.ones(n_atoms))
    kv = 1.0 + rng.uniform(0.0, 0.5, n_atoms)
    return synthetic(values, probs, kv)


class TestFpValue:
    def test_unit_kernel_is_hard_for_every_epsilon(self):
        model = synthetic([0.0, 0.3, 0.8], [0.5, 0.3, 0.2], [1.0, 1.0, 1.0])
        rep = fp_value(model, q=5, m=7, epsilon=0.0)
        assert rep.value == pytest.approx(1.0, abs=1e-14)
        assert rep.verdict == "hard"

    def test_two_atom_threshold_collapse(self):
        # survival(1) = 0.01 < 1/25, so the threshold falls to the zero
        # atom and the event keeps only it
        model = synthetic([0.0, 1.0], [0.99, 0.01], [1.0, 2.0])
        rep = fp_value(model, q=5, m=3)
        assert rep.threshold.threshold == 0.0
        assert rep.value == pytest.approx(0.99, abs=1e-15)

    def test_closed_boundary_includes_threshold_atom(self):
        model = synthetic([0.0, 1.0], [0.8, 0.2], [1.0, 2.0])
        rep = fp_value(model, q=2, m=1)  # q^{-2} = 0.25 > 0.2 -> delta = 0...
        # survival(1) = 0.2 < 0.25, survival(0) = 1 -> delta = 0
        assert rep.value == pytest.approx(0.8)
        rep2 = fp_value(model, q=3, m=1)  # q^{-2} ~ 0.111 <= 0.2 -> delta = 1
        assert rep2.threshold.threshold == 1.0
        assert rep2.value == pytest.approx(0.8 + 0.2 * 2.0)

    def test_requires_euclidean_overlap(self):
        model = build_model({"model": "dirac", "n": 20})
        with pytest.raises(UnsupportedCriterionError):
            fp_value(model, q=5, m=1)

    def test_euclid_overlap_says_whether_the_statistic_gives_the_overlap(self):
        # one synthetic law and kernel: with the flag FP cuts the |t| levels
        # (at q = 2, P(|T| >= 0.5) = 0.3 >= 1/4 > P(|T| >= 1)), without it FP
        # is undefined
        base = synthetic([-0.5, 0.0, 0.25, 1.0], [0.1, 0.4, 0.3, 0.2], [1.5, 1.0, 1.2, 2.0])
        on, off = (ModelSpec("flag", {}, base.kernel, base.law, base.group, euclid_overlap=flag)
                   for flag in (True, False))
        rep = fp_value(on, 2.0, 3)
        assert rep.threshold.threshold == 0.5
        assert rep.value == pytest.approx(0.1 * 1.5**3 + 0.4 + 0.3 * 1.2**3, rel=1e-14)
        with pytest.raises(UnsupportedCriterionError, match="Euclidean overlap"):
            fp_value(off, 2.0, 3)

    def test_q_domain(self):
        model = random_model(0)
        with pytest.raises(ValueError):
            fp_value(model, q=1.5, m=1)
        with pytest.raises(ValueError):
            fp_value(model, q=5, m=0)

    def test_continuous_event_integral(self):
        model = build_model({"model": "gam", "lambda": 0.8,
                             "prior": {"kind": "sphere", "n": 30}})
        rep = fp_value(model, q=4, m=3)
        # independent check: restrict the quadrature by hand
        from scipy import integrate

        delta = rep.threshold.threshold
        val, _ = integrate.quad(
            lambda t: math.exp(3 * 0.64 * t) * np.exp(model.law.log_pdf(t)), -delta, delta,
            epsrel=1e-11,
        )
        assert rep.value == pytest.approx(val, rel=1e-8)
        assert rep.method == "quadrature"


class TestRhoFpValue:
    def test_strict_boundary_excludes_threshold_atom(self):
        # monotone kernel, trivial group: same event as FP up to the
        # strict/closed boundary atom
        model = synthetic([0.0, 0.5, 1.0], [0.8, 0.12, 0.08], [1.0, 1.5, 3.0])
        rho = model.atom_table.rho  # P(rho_G >= rho_G(0.5)) = 0.2
        q = rho.tails[rho.levels.searchsorted(rho_g(model.kernel, model.group, 0.5))] ** -0.5
        fp = fp_value(model, q, 2)
        rfp = rho_fp_value(model, q, 2)
        # rho threshold sits at the |T| = 0.5 level; the strict event
        # drops both the 0.5 and 1.0 atoms, the closed FP event keeps 0.5
        assert rfp.value == pytest.approx(0.8, abs=1e-14)
        assert fp.value == pytest.approx(0.8 + 0.12 * 1.5**2, abs=1e-12)

    def test_repeated_signal_model_zero(self):
        model = build_model({"model": "dirac", "n": 20})
        q = (1.0 / math.comb(20, 18)) ** -0.5
        rep = rho_fp_value(model, q, 3)
        assert rep.value == 0.0
        assert rep.verdict == "hard"

    def test_slab_value_near_one(self):
        model = build_model({"model": "slab", "alpha": 0.1, "d": 100, "max_degree": 60})
        rep = rho_fp_value(model, math.exp(10.0), 50)
        assert 1.0 <= rep.value <= 1.5


class TestGfpValue:
    def test_unit_kernel_gives_event_mass(self):
        model = synthetic([0.0, 0.4, 0.9], [0.5, 0.3, 0.2], [1.0, 1.0, 1.0])
        rep = gfp_value(model, q=2, m=5)
        assert rep.value <= 1.0
        # atoms are indivisible: the largest droppable mass within the
        # q^{-2} = 0.25 budget is the 0.2 atom
        assert rep.value == pytest.approx(0.8, abs=1e-12)

    def test_three_atom_exhaustive(self):
        model = synthetic([0.0, 1.0, 2.0], [0.7, 0.2, 0.1], [1.0, 2.0, 5.0])
        m, capacity = 2, 0.25
        best = math.inf
        for mask in itertools.product([0, 1], repeat=3):
            mass = sum(p for b, p in zip(mask, model.law.probs) if b)
            if mass >= 1 - capacity - 1e-12:
                val = sum(p * model.kernel.eval(v) ** m
                          for b, v, p in zip(mask, model.law.values, model.law.probs) if b)
                best = min(best, val)
        rep = gfp_value(model, capacity**-0.5, m)
        assert rep.value == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force_on_random_models(self, seed):
        model = random_model(seed, n_atoms=8)
        rng = np.random.default_rng(1000 + seed)
        q = float(rng.uniform(1.2, 4.0))
        m = int(rng.integers(1, 6))
        capacity = q**-2
        best = math.inf
        for mask in itertools.product([0, 1], repeat=8):
            mass = math.fsum(p for b, p in zip(mask, model.law.probs) if b)
            if mass >= 1 - capacity * (1 + 1e-12):
                val = math.fsum(p * model.kernel.eval(v) ** m
                                for b, v, p in zip(mask, model.law.values, model.law.probs) if b)
                best = min(best, val)
        rep = gfp_value(model, q, m)
        assert rep.value == pytest.approx(best, rel=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_sign_flip_orbits_merge(self, seed):
        # invariant events must take +-t together; brute force over orbit
        # subsets is the reference
        model = random_model(seed, n_atoms=8, sign=True)
        q, m = 2.0, 3
        capacity = q**-2
        atoms = model.law.atoms
        orbits = {}
        for v, p in atoms:
            orbits.setdefault(abs(v), []).append((v, p))
        keys = sorted(orbits)
        best = math.inf
        for mask in itertools.product([0, 1], repeat=len(keys)):
            members = [vp for b, k in zip(mask, keys) if b for vp in orbits[k]]
            mass = math.fsum(p for _, p in members)
            if mass >= 1 - capacity * (1 + 1e-12):
                val = math.fsum(p * model.kernel.eval(v) ** m for v, p in members)
                best = min(best, val)
        rep = gfp_value(model, q, m)
        assert rep.value == pytest.approx(best, rel=1e-10)

    def test_greedy_brackets_on_many_atoms(self):
        model = build_model({"model": "slab", "alpha": 0.1, "d": 128, "max_degree": 60})
        rep = gfp_value(model, 4.0, 10)
        lower, upper = rep.detail["value_brackets"]
        assert lower <= rep.value <= upper * (1 + 1e-12)
        assert rep.detail["optimizer"] == "greedy-bracket"

    def test_infeasible_mass(self):
        model = random_model(3)
        with pytest.raises(ValueError):
            gfp_value(model, 0.8, 1)

    def test_continuous_matches_rho_event(self):
        model = build_model({"model": "gam", "lambda": 0.7,
                             "prior": {"kind": "sphere", "n": 40}})
        q, m = 5.0, 4
        gfp = gfp_value(model, q, m)
        rfp = rho_fp_value(model, q, m)
        assert gfp.value == pytest.approx(rfp.value, rel=1e-8)
        assert gfp.detail["optimizer"] == "superlevel-set"


@st.composite
def knapsack_cases(draw):
    """Up to 12 items with log values in [-5, 5] or -inf (free), masses
    in (0, 1], and a needed mass below the total."""
    n = draw(st.integers(1, 12))
    values = draw(st.lists(st.one_of(st.just(-math.inf), st.floats(-5.0, 5.0)),
                           min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n))
    needed = draw(st.floats(0.0, 0.999)) * math.fsum(weights)
    return values, weights, needed


class TestKnapsackSolvers:
    # the solvers take log-values; -inf marks a free (zero-value) item

    @pytest.mark.parametrize("seed", range(20))
    def test_min_inclusion_exact_vs_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = 10
        values = rng.uniform(0.0, 5.0, n)
        values[rng.integers(0, n)] = 0.0
        weights = rng.dirichlet(np.ones(n))
        needed = float(rng.uniform(0.3, 0.95))
        best = math.inf
        for mask in itertools.product([0, 1], repeat=n):
            if sum(w for b, w in zip(mask, weights) if b) >= needed:
                best = min(best, sum(v for b, v in zip(mask, values) if b))
        _, got, _ = solve_min_inclusion(log_values(values), weights.tolist(), log_values(weights), needed)
        assert math.exp(got) == pytest.approx(best, rel=1e-12, abs=1e-12)

    def test_handles_astronomic_value_separation(self):
        # a huge-value item must not absorb small ones in the optimum
        values = [1e200, 2.0, 1.0]
        weights = [0.0004, 0.2, 0.7996]
        included, got, _ = solve_min_inclusion(log_values(values), weights, log_values(weights), 0.9)
        assert included.tolist() == [1, 2]
        assert math.exp(got) == pytest.approx(3.0)

    def test_greedy_brackets_contain_optimum(self, monkeypatch):
        rng = np.random.default_rng(5)
        values = log_values(rng.uniform(0, 3, 12))
        weights = rng.dirichlet(np.ones(12)).tolist()
        needed = 0.8
        _, exact, _ = solve_min_inclusion(values, weights, log_values(weights), needed)
        monkeypatch.setattr(criteria, "_BNB_NODES", 0)  # the greedy cover and its brackets
        included, _, lower = solve_min_inclusion(values, weights, log_values(weights), needed)
        upper = cover_log_value(values, included)  # the greedy cover's own value
        assert math.exp(lower) - 1e-12 <= math.exp(exact) <= math.exp(upper) + 1e-12

    @settings(max_examples=150, deadline=None)
    @given(knapsack_cases())
    def test_array_greedy_is_the_sequential_greedy(self, case):
        values, weights, needed = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(criteria, "_BNB_NODES", 0)
            included, _, _ = solve_min_inclusion(*as_arrays(values, weights), needed)
            _, _, lower = solve_min_inclusion(values, weights, log_values(weights), needed)
        assert included.tolist() == sequential_greedy(values, weights, needed)
        solved = solve_min_inclusion(values, weights, log_values(weights), needed)
        assert solved[2] is None  # 12 items stay far inside the node budget
        exact = solved[1]
        upper = cover_log_value(values, sequential_greedy(values, weights, needed))
        # the three log-sums round apart; the free items alone give exact -inf
        slack = 1e-12 * max(1.0, abs(exact)) if exact > -math.inf else 0.0
        assert lower <= exact + slack
        assert exact <= upper + slack


class TestOneSolver:
    """solve_min_inclusion from its greedy first descent, under node
    budgets of 0, a few and the full _BNB_NODES, against 2^n enumeration."""

    @settings(max_examples=100, deadline=None)
    @given(knapsack_cases())
    def test_no_budget_returns_the_greedy_cover(self, case):
        values, weights, needed = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(criteria, "_BNB_NODES", 0)
            included, value, lower = solve_min_inclusion(values, weights, log_values(weights), needed)
        assert included.tolist() == sequential_greedy(values, weights, needed)
        assert value == pytest.approx(cover_log_value(values, included), rel=1e-12, abs=1e-12)
        assert lower is not None

    @settings(max_examples=100, deadline=None)
    @given(knapsack_cases())
    def test_full_budget_matches_enumeration(self, case):
        values, weights, needed = case
        included, value, lower = solve_min_inclusion(values, weights, log_values(weights), needed)
        best = enumerated_optimum(values, weights, needed)
        assert lower is None
        assert math.fsum(weights[j] for j in included) >= needed
        assert value == pytest.approx(cover_log_value(values, included), rel=1e-12, abs=1e-12)
        assert value == pytest.approx(best, rel=1e-12, abs=1e-12)  # -inf only equals -inf

    @settings(max_examples=100, deadline=None)
    @given(knapsack_cases(), st.integers(1, 6))
    def test_few_nodes_bracket_the_optimum(self, case, budget):
        values, weights, needed = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(criteria, "_BNB_NODES", budget)
            included, value, lower = solve_min_inclusion(values, weights, log_values(weights), needed)
        best = enumerated_optimum(values, weights, needed)
        greedy = cover_log_value(values, sequential_greedy(values, weights, needed))
        slack = 1e-12 * max(1.0, abs(best)) if best > -math.inf else 0.0
        assert math.fsum(weights[j] for j in included) >= needed
        if lower is None:
            assert value == pytest.approx(best, rel=1e-12, abs=1e-12)
        else:
            assert lower <= best + slack
        assert best <= value + slack
        assert value <= greedy + slack


def log_values(values):
    return [math.log(v) if v > 0.0 else -math.inf for v in values]


def as_arrays(values, weights):
    """The greedy's inputs as the atom table holds them: log values, masses, log masses."""
    return np.array(values), np.array(weights), np.array(log_values(weights))


def cover_log_value(values, included):
    terms = [values[j] for j in included if values[j] > -math.inf]
    return math.log(math.fsum(math.exp(v) for v in terms)) if terms else -math.inf


def enumerated_optimum(values, weights, needed):
    """The least log sum(exp(values)) over all 2^n item sets of mass >= needed."""
    best = math.inf
    for mask in itertools.product([0, 1], repeat=len(values)):
        if math.fsum(w for b, w in zip(mask, weights) if b) >= needed:
            best = min(best, cover_log_value(values, [j for j, b in enumerate(mask) if b]))
    return best


def sequential_greedy(values, weights, needed):
    """Free items, then the others in increasing value per unit mass (ties
    in item order), added one at a time until the mass reaches `needed`."""
    free = [j for j, v in enumerate(values) if v == -math.inf]
    rest = sorted((j for j, v in enumerate(values) if v > -math.inf),
                  key=lambda j: values[j] - math.log(weights[j]))
    chosen, weight = list(free), math.fsum(weights[j] for j in free)
    for j in rest:
        if weight >= needed:
            break
        chosen.append(j)
        weight += weights[j]
    return sorted(chosen)


class TestSqValue:
    def test_unit_kernel(self):
        model = synthetic([0.0, 1.0], [0.5, 0.5], [1.0, 1.0])
        rep = sq_value(model, 10, m=1000)
        assert rep.value == 0.0
        assert rep.verdict == "hard"
        assert sq_value(model, 10, 1000).verdict == "hard"

    def test_whole_level_tie_rule(self):
        # atoms |K-1| = 3 (mass 0.1) and 0.5 (mass 0.9), event mass 0.2:
        # the 3-level alone is infeasible, whole-level inclusion gives 0.75
        model = synthetic([1.0, 2.0], [0.9, 0.1], [1.5, 4.0])
        rep = sq_value(model, 0.2**-0.5)
        assert rep.value == pytest.approx(0.75, abs=1e-14)

    def test_repeated_signal_not_sq_hard(self):
        model = build_model({"model": "dirac", "n": 20})
        rep = sq_value(model, 1, m=1)
        want = (2**20 - 1) / math.comb(20, 18) + 189 / 190
        assert rep.value == pytest.approx(want, rel=1e-12)
        assert rep.value > 1.0
        assert rep.verdict == "not-hard"

    def test_shortest_feasible_prefix_dominates(self):
        for seed in range(15):
            model = random_model(seed)
            q = 2.5
            rep = sq_value(model, q)
            # compare against all whole-level prefixes of mass >= q^{-2}
            levels = {}
            for v, p in model.law.atoms:
                x = abs(model.kernel.minus_one(v))
                levels[x] = levels.get(x, 0.0) + p
            best = 0.0
            cm = cv = 0.0
            for x in sorted(levels, reverse=True):
                cm += levels[x]
                cv += x * levels[x]
                if cm >= q**-2 * (1 - 1e-12):
                    best = max(best, cv / cm)
            assert rep.value == pytest.approx(best, rel=1e-12)

    def test_continuous_tail_mean(self):
        model = build_model({"model": "gam", "lambda": 1.0,
                             "prior": {"kind": "sphere", "n": 25}})
        q = 3.0
        rep = sq_value(model, q)
        assert rep.value > 0.0
        # conditional mean over the best mass-q^{-2} event dominates the
        # unconditional mean of |K - 1|
        unconditional = chi_squared(model, 1)
        assert rep.value >= unconditional - 1e-12


class TestUsq:
    def test_unit_kernel_zero(self):
        model = synthetic([0.0, 1.0], [0.5, 0.5], [1.0, 1.0])
        for t in (2, 4, 6):
            assert usq_moment(model, t) == 0.0

    def test_two_point_hand_value(self):
        model = build_model({
            "model": "gam", "lambda": 1.0, "group": "trivial",
            "prior": {"kind": "two_point", "rho_p": 0.5, "values": [1.0, 1.0, 0.0]},
        })
        want = 0.5 * (math.e - 1.0) ** 2
        assert usq_moment(model, 2) == pytest.approx(want, rel=1e-12)

    def test_power_mean_monotonicity(self):
        for seed in range(10):
            model = random_model(seed)
            moments = {t: usq_moment(model, t) for t in (2, 4, 6, 8)}
            for t1, t2 in [(2, 4), (4, 6), (6, 8)]:
                assert moments[t1] ** (1 / t1) <= moments[t2] ** (1 / t2) * (1 + 1e-12)

    def test_odd_order_rejected(self):
        model = random_model(1)
        with pytest.raises(ValueError):
            usq_moment(model, 3)

    def test_usq_hard_verdict(self):
        model = synthetic([0.0, 1.0], [0.9, 0.1], [1.0, 1.2])
        rep = usq_hard(model, m=2, t=2)
        # E[(K-1)^2] = 0.1 * 0.04 = 0.004 <= 2^-2
        assert rep.value == pytest.approx(0.004, rel=1e-12)
        assert rep.verdict == "hard"

    def test_usq_implies_sq_bound(self):
        # Hoelder route: usq_moment(t) <= m^{-t} forces
        # sq_value(q) <= q^{2/t}/m for every q >= 1
        for seed in range(10):
            model = random_model(seed + 50)
            for t in (2, 4):
                mom = usq_moment(model, t)
                m = max(1, math.floor(mom ** (-1.0 / t)))
                assert usq_moment(model, t) <= float(m) ** -t * (1 + 1e-9)
                for q in (1.0, 2.0, 5.0):
                    bound = q ** (2.0 / t) / m
                    assert sq_value(model, q).value <= bound * (1 + 1e-9)


class TestMomentCache:
    # USQ and LD read E[(K_d - 1)^t] from the model, computed once per (d, t)

    @pytest.mark.parametrize("desc", [
        {"model": "gam", "lambda": 0.9, "prior": {"kind": "rademacher_mean", "n": 200}},
        {"model": "gam", "lambda": 0.9, "prior": {"kind": "sphere", "n": 50}},
    ])
    def test_each_moment_is_computed_once_per_model(self, desc, monkeypatch):
        model = build_model(desc)
        computed = []
        compute = criteria._compute_moments

        def counting(model, ts, d):
            computed.extend((d, t) for t in ts)
            return compute(model, ts, d)

        monkeypatch.setattr(criteria, "_compute_moments", counting)
        qs, ms = [2.0 ** k for k in range(1, 10)], [1, 2, 5, 16, 64]
        for q, m in itertools.product(qs, ms):  # the q x m grid of a sweep, USQ first
            usq_hard(model, m, 2)
        for q, m in itertools.product(qs, ms):
            ld_samplewise(model, m, math.inf, 1)
        assert sorted(computed) == [(math.inf, 0), (math.inf, 1), (math.inf, 2)]
        moments = {key: value for (what, key), value in model.memo.items() if what == "moment"}
        assert sorted(moments) == sorted(computed)
        monkeypatch.undo()
        fresh = build_model(desc)
        for (d, t), value in moments.items():
            assert criteria._deviation_moments(fresh, [t], d)[0] == value  # bit for bit, t alone


MEMO_PRESETS = [name for name, model in builtin_models().items() if model.is_discrete] + [
    "gam-sphere", "si-sign-sphere"]
GRID_CRITERIA = ("fp", "rho_fp", "gfp", "sq", "usq", "chi2", "ld")


def grid_cell(model, crit, q, m):
    """What one sweep cell computes, or the type of what it raised."""
    try:
        if crit == "fp":
            return fp_value(model, q, m)
        if crit == "rho_fp":
            return rho_fp_value(model, q, m)
        if crit == "gfp":
            return gfp_value(model, q, m)
        if crit == "sq":
            return sq_value(model, q, m)
        if crit == "usq":
            return usq_hard(model, m, 2)
        if crit == "chi2":
            return chi_squared(model, m), criteria.log_moment(model, m)
        return ld_samplewise(model, m, math.inf, 1)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


def same_bits(a, b) -> bool:
    """a and b hold the same values, floats and arrays bit for bit."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return isinstance(b, float) and a.hex() == b.hex()
    if isinstance(a, Mapping):  # a dict, or GFP's read-only detail
        return isinstance(b, Mapping) and a.keys() == b.keys() and all(same_bits(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same_bits, a, b))
    if hasattr(a, "__dataclass_fields__"):
        return type(a) is type(b) and all(same_bits(getattr(a, f), getattr(b, f))
                                          for f in a.__dataclass_fields__)
    return a == b


class TestSweepMemo:
    # a sweep reuses per-q and per-m work through ModelSpec.memo; every
    # cell must read as it does on a fresh model

    @pytest.mark.parametrize("name", MEMO_PRESETS)
    def test_a_shared_model_gives_each_cell_of_a_fresh_one(self, name):
        desc = BUILTIN_MODEL_DESCRIPTORS[name]
        qs, ms = (1.5, 3.0, 20.0, 1000.0), (1, 3, 20)
        cells = list(itertools.product(GRID_CRITERIA, qs, ms)) * 2
        np.random.default_rng(7).shuffle(cells)
        shared, fresh = build_model(desc), {}
        for crit, q, m in cells:
            got = grid_cell(shared, crit, q, m)
            if (crit, q, m) not in fresh:
                fresh[crit, q, m] = grid_cell(build_model(desc), crit, q, m)
            assert same_bits(got, fresh[crit, q, m]), (name, crit, q, m)

    @pytest.mark.parametrize("desc", [
        {"model": "gam", "lambda": 0.9, "prior": {"kind": "rademacher_mean", "n": 200}},
        {"model": "gam", "lambda": 0.9, "prior": {"kind": "sphere", "n": 50}},
    ])
    def test_each_coordinate_is_computed_once(self, desc, monkeypatch):
        from fpsq import laws

        model = build_model(desc)
        thresholds, greedy, sums = [], [], []
        levels = laws.Levels if model.is_discrete else laws.LevelSets
        threshold, order, exact = levels.threshold, greedy_min_inclusion, criteria.exact_sum
        monkeypatch.setattr(levels, "threshold",
                            lambda self, mass: thresholds.append(mass) or threshold(self, mass))
        monkeypatch.setattr(criteria, "greedy_min_inclusion",
                            lambda *args: greedy.append(args) or order(*args))
        qs, ms = [2.0, 5.0, 40.0], [1, 4, 9]
        for crit in ("fp", "rho_fp", "sq"):
            for q, m in itertools.product(qs, ms):
                grid_cell(model, crit, q, m)
        assert len(thresholds) == 3 * len(qs)  # once per q and criterion
        # the sum over the atoms, or the integral over the support
        integral = criteria.integral
        monkeypatch.setattr(criteria, "exact_sum", lambda x: sums.append(x) or exact(x))
        monkeypatch.setattr(criteria, "integral", lambda *args: sums.append(args) or integral(*args))
        for q, m in itertools.product(qs, ms):
            chi_squared(model, m)
        assert len(sums) == len(ms)
        if model.is_discrete:
            for q, m in itertools.product(qs, ms):
                gfp_value(model, q, m)
            assert len(greedy) == len(ms)

    @pytest.mark.parametrize("name", ["gam-sphere", "si-sign-sphere"])
    def test_sphere_cells_read_the_same_bits_in_any_order(self, name):
        # FP, rho_G-FP and GFP keep the same central interval on the sphere
        # law, so they share one integral, and log E[K^m] the whole support's
        desc, q, m = BUILTIN_MODEL_DESCRIPTORS[name], 20.0, 3
        cells = {"fp": lambda model: fp_value(model, q, m), "rho_fp": lambda model: rho_fp_value(model, q, m),
                 "gfp": lambda model: gfp_value(model, q, m), "chi2": lambda model: chi_squared(model, m),
                 "log_moment": lambda model: criteria.log_moment(model, m)}
        fresh = {crit: cell(build_model(desc)) for crit, cell in cells.items()}
        for order in itertools.permutations(cells):
            model = build_model(desc)
            for crit in order:
                assert same_bits(cells[crit](model), fresh[crit]), (order, crit)
            assert sum(what == "power" for what, _ in model.memo) == 2, order

    def test_argument_checks_run_on_a_memo_hit(self):
        model = build_model({"model": "gam", "lambda": 0.9, "prior": {"kind": "rademacher_mean", "n": 40}})
        for crit in GRID_CRITERIA:
            grid_cell(model, crit, 3.0, 2)
        keys = list(model.memo)
        for call in (lambda: fp_value(model, 3.0, 0), lambda: rho_fp_value(model, 3.0, 0),
                     lambda: gfp_value(model, 3.0, 0), lambda: chi_squared(model, 0),
                     lambda: criteria.log_moment(model, 0), lambda: fp_value(model, 1.5, 2),
                     lambda: rho_fp_value(model, 1.5, 2), lambda: gfp_value(model, 0.8, 2),
                     lambda: sq_value(model, 0.8, 2), lambda: sq_value(model, 3.0, 0),
                     lambda: sq_value(model, 3.0, -2)):
            with pytest.raises(ValueError):
                call()
        assert list(model.memo) == keys

    def test_a_cell_that_raises_stores_nothing(self):
        # masses 1e-13 short of 1 cannot cover 1 - 1e-14: GFP's cover is infeasible
        short = synthetic([0.0, 1.0], [0.5, 0.5 - 1e-13], [1.0, 2.0])
        with pytest.raises(ValueError, match="infeasible"):
            gfp_value(short, 1e7, 1)
        assert short.memo == {}
        gfp_value(short, 2.0, 1)
        assert list(short.memo) == [("gfp", 1)]
        with pytest.raises(ValueError, match="infeasible"):
            gfp_value(short, 1e7, 1)  # a hit on m, then a raise
        big = build_model({"model": "gam", "lambda": 22.0, "prior": {"kind": "rademacher_mean", "n": 4}})
        with pytest.raises(criteria.AtomEvaluationError):
            usq_moment(big, 2)
        assert big.memo == {}

    def test_more_m_than_the_memo_keeps(self):
        desc = {"model": "gam", "lambda": 1.1, "prior": {"kind": "rademacher_mean", "n": 100}}
        ms = list(range(1, criteria._GFP_ORDERS + 9))
        fresh = {m: gfp_value(build_model(desc), 3.0, m) for m in ms}
        model = build_model(desc)
        for m in ms + ms[::-1] + ms:
            assert same_bits(gfp_value(model, 3.0, m), fresh[m]), m
            assert sum(what == "gfp" for what, _ in model.memo) <= criteria._GFP_ORDERS


class TestMassCheck:
    # q^{-2} = 0 passes every q >= minimum test; the shared mass check refuses it

    @pytest.mark.parametrize("desc", [
        {"model": "gam", "lambda": 0.9, "prior": {"kind": "rademacher_mean", "n": 20}},
        {"model": "gam", "lambda": 0.9, "prior": {"kind": "sphere", "n": 50}},
    ])
    @pytest.mark.parametrize("criterion", [fp_value, rho_fp_value, gfp_value, sq_value])
    @pytest.mark.parametrize("q", [math.inf, 1e200])
    def test_q_without_tail_mass_refuses(self, desc, criterion, q):
        with pytest.raises(ValueError, match=r"mass must lie in \(0, 1\]"):
            criterion(build_model(desc), q, 2)


class TestChiSquared:
    def test_unit_kernel(self):
        model = synthetic([0.0, 1.0], [0.5, 0.5], [1.0, 1.0])
        assert chi_squared(model, 10) == 0.0

    def test_exact_sum_small_instance(self):
        model = build_model({"model": "mslr", "n": 40, "k": 4, "sigma2": 1.0})
        m = 3
        direct = math.fsum(
            p * (1 - (v / 5.0) ** 2) ** -m - p for v, p in model.law.atoms
        )
        assert chi_squared(model, m) == pytest.approx(direct, rel=1e-12)

    def test_nonnegative(self):
        for seed in range(8):
            model = random_model(seed)
            for m in (1, 4):
                assert chi_squared(model, m) >= -1e-15

    def test_astronomic_powers_stay_usable(self):
        model = build_model({"model": "dirac", "n": 20})
        # 2^{20 m} crosses the float ceiling near m = 51
        assert chi_squared(model, 40) == pytest.approx(2.0**800 / 190, rel=1e-12)
        assert math.isinf(chi_squared(model, 60))

    def test_product_model_4t_divergence_shrinks_at_scale(self):
        # the 4t-sample divergence of the agreement-product model obeys
        # chi^2 <= 4 n^{eps - 1} once t = n^{eps/2} dominates the
        # diagonal exponent (t^2 >> 4t); exact three-atom sums at n = 2^30
        n, eps = 2**30, 0.2
        ne = n**eps
        model = build_model({
            "model": "counterexample", "n": n, "r": n**-0.5,
            "alpha_c": n ** (-1 + 2 * eps), "rho_p": math.exp(-ne) / 2.0,
        })
        t4 = 4 * round(n ** (eps / 2))
        chi = chi_squared(model, t4)
        assert 0.0 <= chi <= 4.0 * n ** (eps - 1.0)


class TestLdSamplewise:
    def test_constant_projection(self):
        model = random_model(2)
        assert ld_samplewise(model, m=7, d=math.inf, k_deg=0) == pytest.approx(1.0)

    @pytest.mark.parametrize("name", ["si-sign-sphere", "gam-rademacher"])
    def test_the_zeroth_moment_is_exactly_one(self, name):
        # E[(K - 1)^0] = 1 on either law, not a sum or an integral of the masses
        assert ld_samplewise(build_model(BUILTIN_MODEL_DESCRIPTORS[name]), 200, math.inf, 0) == 1.0

    def test_single_sample_identity(self):
        for name, model in builtin_models().items():
            for m in (1, 10, 100):
                got = ld_samplewise(model, m, math.inf, 1)
                want = 1.0 + m * chi_squared(model, 1)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10), name

    def test_full_binomial_sum_closes(self):
        # k_deg = m with d = inf recovers E[K^m] = chi^2 + 1
        for name, model in builtin_models().items():
            if not model.is_discrete or name == "dirac-desk":
                continue
            for m in (1, 5, 12, 20):
                got = ld_samplewise(model, m, math.inf, m)
                want = chi_squared(model, m) + 1.0
                assert got == pytest.approx(want, rel=1e-9), (name, m)

    def test_truncated_kernel_matches_direct_quadrature(self):
        model = build_model({"model": "gam", "lambda": 0.5,
                             "prior": {"kind": "sphere", "n": 50}, "max_degree": 16})
        m = 4
        got = ld_samplewise(model, m, 2, 2)
        from scipy import integrate

        def dev(t):
            return 0.25 * t + 0.03125 * t * t

        want = 0.0
        for j in range(0, 3):
            mom, _ = integrate.quad(lambda t: dev(t) ** j * np.exp(model.law.log_pdf(t)), -1, 1,
                                    epsrel=1e-11)
            want += math.comb(m, j) * mom
        assert got == pytest.approx(want, rel=1e-9)

    def test_finite_degree_reads_the_truncated_kernel_once_per_atom(self, monkeypatch):
        from fpsq.kernels import Kernel

        model = build_model({"model": "gam", "lambda": 0.8,
                             "prior": {"kind": "rademacher_mean", "n": 30}})
        calls = []
        truncated = Kernel.truncated_minus_one
        monkeypatch.setattr(Kernel, "truncated_minus_one",
                            lambda self, t, d: calls.extend(np.ravel(t).tolist()) or truncated(self, t, d))
        ld_samplewise(model, 5, 2, 3)
        assert sorted(calls) == sorted(model.law.values)

    def test_odd_kernel_first_moment_is_exactly_zero(self):
        # the sign link's K - 1 is odd in t and the signed-sparse law is
        # symmetric; Horner's rule negates exactly with t and K - 1 is the
        # series sum itself, so E[K_d - 1] is exactly 0 and LD at k = 1 is
        # exactly 1 (0.9999999999999993 through expm1(log1p(.)))
        model = build_model(BUILTIN_MODEL_DESCRIPTORS["si-sign-sparse"])
        assert ld_samplewise(model, 200, math.inf, 1) == 1.0
        for d in (math.inf, 5):
            ld_samplewise(model, 200, d, 1)
            assert model.memo["moment", (d, 1)] == 0.0

    def test_finite_degree_matches_mpmath_on_a_discrete_law(self):
        # gam on the 30-sign law: K_2 - 1 = lam^2 t + lam^4 t^2 / 2, masses
        # C(30, b) / 2^30 at t = (2b - 30)/30, summed at 50 digits
        import mpmath

        lam, n, m, k_deg = 0.8, 30, 5, 3
        model = build_model({"model": "gam", "lambda": lam,
                             "prior": {"kind": "rademacher_mean", "n": n}})
        with mpmath.workdps(50):
            l2 = mpmath.mpf(lam) ** 2
            atoms = [(mpmath.mpf(2 * b - n) / n, mpmath.mpf(math.comb(n, b)) / 2**n)
                     for b in range(n + 1)]
            moments = [mpmath.fsum(p * (l2 * x + l2**2 * x**2 / 2) ** t for x, p in atoms)
                       for t in range(k_deg + 1)]
            want = mpmath.fsum(math.comb(m, t) * mom for t, mom in enumerate(moments))
            assert ld_samplewise(model, m, 2, k_deg) == pytest.approx(float(want), rel=1e-14)

    def test_finite_degree_needs_series(self):
        model = build_model({"model": "mslr", "n": 40, "k": 4, "sigma2": 1.0})
        with pytest.raises(UnsupportedCriterionError):
            ld_samplewise(model, 3, 2, 2)

    def test_finite_degree_stops_at_max_degree(self):
        # the series stores degrees up to max_degree: past it K_d - 1 would
        # silently read K_{max_degree} - 1 (1.0816e52 at d = 100, where the
        # series to degree 200 gives 3.7965e52)
        desc = {"model": "gam", "lambda": 8.0, "prior": {"kind": "rademacher_mean", "n": 10}}
        model, longer = build_model(desc), build_model({**desc, "max_degree": 200})
        assert ld_samplewise(model, 2, 64, 2) == ld_samplewise(longer, 2, 64, 2)
        with pytest.raises(ValueError, match="exceeds the model's max_degree 64"):
            ld_samplewise(model, 2, 65, 2)
        assert ld_samplewise(longer, 2, 100, 2) == pytest.approx(3.7965e52, rel=1e-4)


class TestAssumptionHolds:
    def test_nonneg_kernel_families_pass(self):
        # the repeated-signal model is the documented violator: its
        # off-diagonal kernel is exactly 0, so E[K - 1] = -1 there
        for name, model in builtin_models().items():
            rep = assumption_holds(model)
            if name == "dirac-desk":
                assert not rep.passed
                assert rep.witness == 0.0
                assert rep.min_value == pytest.approx(-1.0)
            else:
                assert rep.passed, (name, rep.min_value)
                assert rep.witness is None

    def test_broken_kernel_produces_witness(self):
        model = synthetic([0.0, 0.5, 1.0], [0.5, 0.3, 0.2], [1.0, 0.5, 2.0])
        rep = assumption_holds(model)
        assert not rep.passed
        assert rep.witness == 0.5 and type(rep.witness) is float
        assert rep.min_value == pytest.approx(-0.5, rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.booleans(), st.data())
    def test_the_k1_verdict_is_the_verdict_at_every_k(self, sign_flip, data):
        # exact rationals, no criteria code: the orbit average of
        # (K - 1)^k is a^k (trivial group) or (a^k + b^k) / 2 (sign flip,
        # b the deviation at -t). Every even k passes and every odd k has
        # the k = 1 verdict, so passing at k = 1 is passing at every k <= 40
        kernel = st.fractions(0, 3, max_denominator=8)
        if sign_flip:
            pos = data.draw(st.lists(st.fractions(0, 1, max_denominator=16).filter(bool),
                                     min_size=1, max_size=6, unique=True))
            points = sorted({-p for p in pos} | set(pos) | set(data.draw(st.sampled_from([[], [0]]))))
        else:
            points = sorted(data.draw(st.lists(st.fractions(-1, 1, max_denominator=16),
                                               min_size=1, max_size=8, unique=True)))
        kv = {t: data.draw(kernel) for t in points}

        def averages(k):
            if sign_flip:
                return [((kv[t] - 1) ** k + (kv[-t] - 1) ** k) / 2 for t in points]
            return [(kv[t] - 1) ** k for t in points]

        verdict = min(averages(1)) >= 0
        assert all((min(averages(k)) >= 0) == (verdict or k % 2 == 0) for k in range(2, 41))
        model = synthetic([float(t) for t in points], [1.0 / len(points)] * len(points),
                          [float(kv[t]) for t in points], group="sign_flip" if sign_flip else None)
        if abs(min(averages(1))) > 1e-9:
            assert assumption_holds(model).passed == verdict


class TestEquivalence:
    def test_randomized_suite_no_violations(self):
        from fpsq.scenarios import equivalence_suite

        res = equivalence_suite(num_models=25, base_seed=1234)
        assert res["violations"] == 0

    def test_ordering_chain_on_harness_models(self):
        # GFP <= rho_G-FP <= FP at an exact-level q, and GFP <= FP always
        for seed in range(20):
            model, q, m = random_assumption_model(seed)
            gfp = gfp_value(model, q, m).value
            rfp = rho_fp_value(model, q, m).value
            fp = fp_value(model, q, m).value
            assert gfp <= rfp * (1 + 1e-9) + 1e-12
            assert rfp <= fp * (1 + 1e-9) + 1e-12

    def test_premise_failure_reported(self):
        model, q, m = random_assumption_model(3)
        # q slightly off any exact level: part (c) must flag the premise
        rep = check_equivalence_bounds(model, q * 1.01, m + 1)  # odd m too
        assert rep.checks["rho_fp_le_gfp_chain"]["status"] == "premise-failed"

    def test_exact_premise_checked(self):
        model, q, m = random_assumption_model(4)
        rep = check_equivalence_bounds(model, q, m)
        assert rep.checks["gfp_le_rho_fp"]["status"] == "checked"
        assert rep.checks["rho_fp_le_gfp_chain"]["status"] == "checked"
        assert rep.checks["sq_implies_rho_fp"]["status"] == "checked"
        assert rep.passed


class TestGeneralProperties:
    def test_event_values_dominate_event_mass_for_nonneg_deviation(self):
        # with K >= 1 everywhere, any event integral of K^m is at least
        # the event's probability mass
        for seed in range(10):
            model = random_model(seed)
            q, m = 3.0, 4
            fp = fp_value(model, q, m)
            mass_fp = math.fsum(p for v, p in model.law.atoms
                                if abs(v) <= fp.threshold.threshold * (1 + 1e-12))
            assert fp.value >= mass_fp - 1e-12
            gfp = gfp_value(model, q, m)
            assert gfp.value >= (1 - q**-2) * (1 - 1e-12)

    def test_chi2_gam_sphere_vs_independent_quadrature(self):
        from scipy import integrate

        model = build_model({"model": "gam", "lambda": 1.0,
                             "prior": {"kind": "sphere", "n": 50}})
        got = chi_squared(model, 1)
        want, _ = integrate.quad(lambda t: (math.exp(t) - 1.0) * np.exp(model.law.log_pdf(t)),
                                 -1.0, 1.0, epsrel=1e-12)
        assert got == pytest.approx(want, rel=1e-9)

    def test_gam_family_assumption_sweep(self):
        for lam in np.arange(0.1, 2.01, 0.1):
            model = build_model({"model": "gam", "lambda": float(lam),
                                 "prior": {"kind": "rademacher_mean", "n": 32}})
            rep = assumption_holds(model)
            assert rep.passed, lam


class TestBinomialRatioBound:
    def test_ratio_at_most_four_exact(self):
        # C(n,t)^2 / (C(n,t-1) C(n,t+1)) <= 4, checked in exact integer
        # arithmetic for every n <= 200
        from fractions import Fraction

        for n in range(2, 201):
            for t in range(1, n):
                ratio = Fraction(math.comb(n, t) ** 2,
                                 math.comb(n, t - 1) * math.comb(n, t + 1))
                assert ratio <= 4
