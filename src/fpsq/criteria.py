"""Hardness functionals for planted-vs-null detection models.

For a model with one-sample kernel K(T) on the overlap statistic T and
proxy-runtime parameter q (tail mass q^{-2}):

- FP:      E[K^m(T) 1(|<u,v>| <= delta(q))],  delta(q) the sup-threshold
           of |<u,v>| at mass q^{-2} (closed event boundary);
- rho_G-FP: E[K^m(T) 1(rho_G(T) < r(q))] with the STRICT boundary of the
           group-maximized deviation rho_G;
- GFP:     inf over G^2-invariant statistic events A of mass >= 1 - q^{-2}
           of E[K^m 1(A)]; exact 0/1-exclusion optimization on discrete
           laws, superlevel-set construction on continuous ones;
- SQ:      sup over events of mass >= q^{-2} of E[|K - 1| | A], attained
           by the smallest whole-level superlevel set of |K - 1|;
- USQ:     unconditional moments E[(K - 1)^t], t even;
- chi^2:   E[K^m] - 1;
- samplewise LD: sum_t C(m, t) E[(K_d - 1)^t] for the degree-d
           truncated kernel (d = inf uses K itself).

All m-th powers run through exp(m log K); exact kernel zeros
short-circuit to exact 0.  Every report records the threshold object,
the computation method, and a hard/not-hard verdict against the
caller-supplied epsilon (or 1/m for SQ).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from fpsq.kernels import ModelSpec, group_avg_check
from fpsq.laws import (
    OverlapLaw,
    ThresholdResult,
    abs_event,
    check_even_nondecreasing,
    check_mass,
    crossing,
    expect,
    find_root,
    nondecreasing,
    threshold_sup,
)
from fpsq.numerics import log_sum_exp

_REL = 1e-12


class UnsupportedCriterionError(ValueError):
    """The criterion is undefined for this model's statistic."""


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of one criterion evaluation.

    value may be math.inf when the linear value overflows; log_value
    (natural log, -inf for value 0) stays finite in that case and is
    what the CLI emits with an overflow tag.
    """

    criterion: str
    inputs: dict
    threshold: ThresholdResult | None
    value: float
    log_value: float | None
    verdict: str | None
    method: str
    detail: dict = field(default_factory=dict)

    @property
    def overflowed(self) -> bool:
        return self.log_value is not None and self.log_value > 700.0


def _hard(value: float, bound: float) -> str:
    return "hard" if value <= bound else "not-hard"


def _require_q(q: float, minimum: float, criterion: str) -> float:
    if not q >= minimum:
        raise ValueError(f"{criterion} requires q >= {minimum}, got {q}")
    return float(q) ** -2


def _le(a: float, b: float) -> bool:
    return a <= b + _REL * max(abs(a), abs(b))


def _lt_strict(a: float, b: float) -> bool:
    return a < b and not _le(b, a)


def _atom_log_terms(model: ModelSpec, m: int, keep) -> list[float]:
    """log(p_j K(t_j)^m) over atoms passing `keep`; zero kernels skipped."""
    out = []
    for v, p in model.law.atoms:
        if p <= 0.0 or not keep(v):
            continue
        lv = model.kernel.log_eval(v)
        if lv is None:
            continue
        out.append(m * lv + math.log(p))
    return out


def _event_value(model: ModelSpec, m: int, keep) -> tuple[float, float]:
    """(value, log_value) of E[K^m 1(keep)] on a discrete law."""
    terms = _atom_log_terms(model, m, keep)
    if not terms:
        return 0.0, -math.inf
    lv = log_sum_exp(terms)
    try:
        return math.exp(lv), lv
    except OverflowError:
        return math.inf, lv


def _continuous_event(model: ModelSpec, m: int, mass: float, transform,
                      strict: bool = False) -> tuple[ThresholdResult, float, float]:
    """(threshold, value, log_value) of E[K^m 1(|T| <= h)] on the
    continuous law, with the threshold and half-width h from abs_event;
    the one quadrature behind continuous FP, rho_G-FP and GFP."""
    thr, half = abs_event(model.law, mass, transform, strict)

    def integrand(t: float) -> float:
        lv = model.kernel.log_eval(t)
        return 0.0 if lv is None else math.exp(m * lv)

    value = expect(model.law, integrand, interval=(-half, half))
    return thr, value, (math.log(value) if value > 0.0 else -math.inf)


# ---------------------------------------------------------------------------
# FP / rho_G-FP
# ---------------------------------------------------------------------------


def fp_value(model: ModelSpec, q: float, m: int, epsilon: float = 0.0) -> CriterionReport:
    """E[K^m 1(|<u,v>| <= delta(q))] with delta(q) at tail mass q^{-2}.

    Requires the model's statistic to determine the Euclidean overlap.
    """
    mass = _require_q(q, 2.0, "FP")
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if model.euclid_overlap is None:
        raise UnsupportedCriterionError(
            f"model {model.name!r} does not expose a Euclidean overlap; FP undefined"
        )
    overlap = model.euclid_overlap
    g = lambda t: abs(overlap(t))
    inputs = {"q": q, "m": m, "epsilon": epsilon}
    if model.is_discrete:
        thr = threshold_sup(model.law, mass, transform=g)
        value, lv = _event_value(model, m, keep=lambda t: _le(g(t), thr.threshold))
        method = "exact-sum"
    else:
        thr, value, lv = _continuous_event(model, m, mass, g)
        method = "quadrature"
    return CriterionReport("FP", inputs, thr, value, lv, _hard(value, 1.0 + epsilon), method)


def rho_fp_value(model: ModelSpec, q: float, m: int, epsilon: float = 0.0) -> CriterionReport:
    """E[K^m 1(rho_G < r(q))], strict boundary per the definition."""
    mass = _require_q(q, 2.0, "rho_G-FP")
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    rho = lambda t: model.rho_g(t)
    inputs = {"q": q, "m": m, "epsilon": epsilon}
    if model.is_discrete:
        thr = threshold_sup(model.law, mass, transform=rho)
        value, lv = _event_value(model, m, keep=lambda t: _lt_strict(rho(t), thr.threshold))
        method = "exact-sum"
    else:
        thr, value, lv = _continuous_event(model, m, mass, rho, strict=True)
        method = "quadrature"
    return CriterionReport("RHO_FP", inputs, thr, value, lv, _hard(value, 1.0 + epsilon), method)


# ---------------------------------------------------------------------------
# GFP: exact invariant-event optimization
# ---------------------------------------------------------------------------


def _fractional_fill(values: Sequence[float], weights: Sequence[float], order: Sequence[int],
                     start: int, value: float, weight: float, needed: float) -> float:
    """Lower bound on the cheapest completion: fill the missing mass
    with the lowest-density remaining items, the last one fractionally."""
    missing = needed - weight
    bound = value
    for j in order[start:]:
        if missing <= 0.0:
            break
        if weights[j] <= missing:
            missing -= weights[j]
            bound += values[j]
        else:
            bound += values[j] * (missing / weights[j])
            missing = 0.0
    return bound if missing <= 0.0 else math.inf


def solve_min_inclusion(
    values: Sequence[float], weights: Sequence[float], needed: float
) -> tuple[list[int], float]:
    """Exact covering knapsack: choose items minimizing sum(values)
    subject to sum(weights) >= needed, by depth-first branch and bound
    with a fractional lower bound.

    This is the complement of the exclusion problem (drop atoms of total
    mass <= capacity maximizing the dropped value).  Working on the
    included side keeps all partial sums at the scale of the answer, so
    an astronomically valuable excluded atom (kernel powers of order
    exp(700)) cannot absorb the small included values in float
    arithmetic.  Exact for any item count; intended for <= 64 items.
    """
    n = len(values)
    if needed <= 0.0:
        return [], 0.0
    # Zero-value items cover mass for free: always include them.
    free = [j for j in range(n) if values[j] <= 0.0]
    base_weight = math.fsum(weights[j] for j in free)
    order = sorted(
        (j for j in range(n) if values[j] > 0.0),
        key=lambda j: values[j] / weights[j],
    )
    if base_weight >= needed:
        return sorted(free), 0.0
    best_value = math.inf
    best_set: list[int] = []
    path: list[int] = []
    suffix_weight = [0.0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix_weight[i] = suffix_weight[i + 1] + weights[order[i]]

    def dfs(start: int, value: float, weight: float) -> None:
        nonlocal best_value, best_set
        if weight >= needed:
            if value < best_value:
                best_value = value
                best_set = list(path)
            return  # adding more items can only increase the value
        if weight + suffix_weight[start] < needed:
            return  # cannot reach the required mass
        if value >= best_value:
            return
        if _fractional_fill(values, weights, order, start, value, weight, needed) >= best_value:
            return
        j = order[start]
        path.append(j)
        dfs(start + 1, value + values[j], weight + weights[j])
        path.pop()
        dfs(start + 1, value, weight)

    dfs(0, 0.0, base_weight)
    if math.isinf(best_value):
        raise ValueError("covering constraint infeasible: total mass below requirement")
    return sorted(free + best_set), best_value


def greedy_min_inclusion(
    values: Sequence[float], weights: Sequence[float], needed: float
) -> tuple[list[int], float, float]:
    """Greedy low-density cover plus certified brackets: returns
    (included set, achieved value = upper bracket on the exact infimum,
    fractional lower bracket)."""
    n = len(values)
    free = [j for j in range(n) if values[j] <= 0.0]
    weight = math.fsum(weights[j] for j in free)
    order = sorted(
        (j for j in range(n) if values[j] > 0.0),
        key=lambda j: values[j] / weights[j],
    )
    chosen = list(free)
    value = 0.0
    for j in order:
        if weight >= needed:
            break
        chosen.append(j)
        value += values[j]
        weight += weights[j]
    if weight < needed:
        raise ValueError("covering constraint infeasible: total mass below requirement")
    lower = _fractional_fill(values, weights, order, 0, 0.0,
                             math.fsum(weights[j] for j in free), needed)
    return sorted(chosen), value, lower


def _orbit_items(model: ModelSpec, m: int):
    """Atoms merged into group orbits: (member list, mass, sum p K^m)."""
    seen: dict[tuple, dict] = {}
    for v, p in model.law.atoms:
        orbit = model.group.orbit(v)
        key = tuple(sorted(orbit)) if not isinstance(v, tuple) else (v,)
        item = seen.setdefault(key, {"members": [], "mass": 0.0, "value": 0.0})
        item["members"].append(v)
        item["mass"] += p
        lv = model.kernel.log_eval(v)
        if lv is not None:
            x = m * lv
            item["value"] += p * (math.exp(x) if x < 709.0 else 1e308)
    return list(seen.values())


def gfp_value(
    model: ModelSpec, q: float, m: int, epsilon: float = 0.0, max_exact_atoms: int = 64
) -> CriterionReport:
    """inf over G^2-invariant events A with pi^2(A) >= 1 - q^{-2} of
    E[K^m 1(A)], within the statistic-measurable class.

    Discrete laws: atoms are merged into group orbits and the
    complementary exclusion problem (drop orbit atoms maximizing
    sum p K^m subject to dropped mass <= q^{-2}) is solved exactly by
    branch and bound up to max_exact_atoms orbits; beyond that a greedy
    exclusion with certified lower/upper brackets is reported and the
    conservative (upper) value is returned.

    Continuous laws: the optimal symmetric event is the complement of a
    top superlevel set of the orbit-averaged m-sample kernel.  When that
    average is even and nondecreasing in |t| (the grid check shared with
    the thresholds) the event is {|T| < tau} with P(|T| >= tau) = q^{-2}
    exactly; any other shape is refused, because a one-sided event can
    then do better.
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    mass = _require_q(q, 1.0, "GFP")
    inputs = {"q": q, "m": m, "epsilon": epsilon}
    if not model.is_discrete:
        try:
            check_even_nondecreasing(model.law, _orbit_averaged_power(model, m))
        except ValueError as exc:
            raise UnsupportedCriterionError(
                f"continuous GFP requires the orbit-averaged kernel power to be even and "
                f"nondecreasing in |t| ({exc}); use a discrete law for this kernel"
            ) from None
        thr, value, lv = _continuous_event(model, m, mass, lambda t: abs(float(t)))
        return CriterionReport(
            "GFP", inputs, thr, value, lv, _hard(value, 1.0 + epsilon), "quadrature",
            {"optimizer": "superlevel-set"},
        )

    items = _orbit_items(model, m)
    values = [it["value"] for it in items]
    weights = [it["mass"] for it in items]
    # capacity mass may be dropped; the included event needs the rest,
    # with a 1e-12 relative slack so an atom whose mass equals q^{-2}
    # in exact arithmetic is still droppable
    needed = 1.0 - mass * (1.0 + _REL)
    detail: dict = {"orbit_atoms": len(items)}
    if len(items) <= max_exact_atoms:
        included, _ = solve_min_inclusion(values, weights, needed)
        detail["optimizer"] = "branch-and-bound-exact"
        method = "exact-sum"
    else:
        included, upper, lower = greedy_min_inclusion(values, weights, needed)
        detail["optimizer"] = "greedy-bracket"
        detail["value_brackets"] = (lower, upper)
        method = "exact-sum(greedy-bracket)"
    kept = set()
    for j in included:
        kept.update(_freeze(v) for v in items[j]["members"])
    value, lv = _event_value(model, m, keep=lambda t: _freeze(t) in kept)
    excluded = sorted(
        (_freeze(v) for it in items for v in it["members"] if _freeze(v) not in kept),
        key=str,
    )
    detail["excluded_atoms"] = excluded
    detail["excluded_mass"] = math.fsum(
        weights[j] for j in range(len(items)) if j not in set(included)
    )
    return CriterionReport("GFP", inputs, None, value, lv, _hard(value, 1.0 + epsilon), method, detail)


def _freeze(v):
    return v if not isinstance(v, list) else tuple(v)


def _orbit_averaged_power(model: ModelSpec, m: int):
    def avg(t: float) -> float:
        vals = []
        for s in model.group.orbit(float(t)):
            lv = model.kernel.log_eval(s)
            vals.append(0.0 if lv is None else math.exp(min(m * lv, 709.0)))
        return math.fsum(vals) / len(vals)

    return avg


# ---------------------------------------------------------------------------
# SQ / USQ
# ---------------------------------------------------------------------------


def sq_value(model: ModelSpec, q: float, m: int | None = None) -> CriterionReport:
    """sup over statistic events of mass >= q^{-2} of E[|K - 1| | A].

    The sup over whole-level superlevel sets of |K - 1| is attained by
    the smallest such set of mass >= q^{-2}; ties at the boundary level
    are included wholly.  With m supplied the verdict compares against
    1/m.
    """
    mass = _require_q(q, 1.0, "SQ")
    inputs = {"q": q, "m": m}
    if model.is_discrete:
        levels: dict[float, float] = {}
        for v, p in model.law.atoms:
            x = abs(model.kernel.minus_one(v))
            levels[x] = levels.get(x, 0.0) + p
        cum_mass = 0.0
        cum_val = 0.0
        level_used = None
        for x in sorted(levels, reverse=True):
            cum_mass += levels[x]
            cum_val += x * levels[x]
            level_used = x
            if _ge_mass(cum_mass, mass):
                break
        value = cum_val / cum_mass if cum_mass > 0.0 else 0.0
        thr = ThresholdResult(level_used if level_used is not None else 0.0, cum_mass,
                              abs(cum_mass - mass) <= _REL * max(cum_mass, mass))
        method = "exact-sum"
    else:
        g = lambda t: abs(model.kernel.minus_one(t))
        level, t_left, t_right = _quasiconvex_superlevel(model.law, g, mass)
        thr = ThresholdResult(level, mass, True)
        lo, hi = model.law.support
        tail = 0.0
        if t_left is not None:
            tail += expect(model.law, g, interval=(lo, t_left))
        if t_right is not None:
            tail += expect(model.law, g, interval=(t_right, hi))
        value = tail / mass
        method = "quadrature"
    verdict = None if m is None else _hard(value, 1.0 / m)
    lv = math.log(value) if value > 0.0 else -math.inf
    return CriterionReport("SQ", inputs, thr, value, lv, verdict, method)


def _ge_mass(a: float, b: float) -> bool:
    return a >= b - _REL * max(abs(a), abs(b))


def _quasiconvex_superlevel(law: OverlapLaw, g, mass: float, grid: int = 257):
    """Level c and crossings (t_left, t_right) such that the superlevel
    event {g(T) >= c} = {T <= t_left} u {T >= t_right} has probability
    `mass`, for g continuous and quasiconvex on the support (decreasing
    to a minimum, then increasing): the shape of |K - 1| for every
    built-in continuous-law kernel.  A crossing is None when g stays
    below c on that side.  The grid that checks the shape seeds every
    bracket."""
    check_mass(mass)
    lo, hi = law.support
    xs = [lo + (hi - lo) * i / (grid - 1) for i in range(grid)]
    vals = [g(x) for x in xs]
    i0 = vals.index(min(vals))
    # g read outward from its grid minimum must be nondecreasing on both sides
    sides = [(xs[i0::-1], vals[i0::-1]), (xs[i0:], vals[i0:])]
    if not all(nondecreasing(vs) for _, vs in sides):
        raise UnsupportedCriterionError(
            "continuous SQ needs |K - 1| quasiconvex on the support"
        )

    def crossings(c: float) -> list[float | None]:
        return [crossing(g, c, ts, vs) for ts, vs in sides]

    def excess(c: float) -> float:
        """mass - P(g(T) >= c), nondecreasing in c (symmetric law)."""
        t_left, t_right = crossings(c)
        return mass - ((0.0 if t_left is None else law.cdf(t_left))
                       + (0.0 if t_right is None else law.cdf(-t_right)))

    c_lo, c_hi = vals[i0], max(vals[0], vals[-1])
    level = find_root(excess, c_lo, c_hi, excess(c_lo), excess(c_hi))[0]
    return (level, *crossings(level))


def usq_moment(model: ModelSpec, t: int) -> float:
    """E[(K - 1)^t] for even t (the unconditional SQ moment)."""
    if t < 2 or t % 2:
        raise ValueError(f"USQ moment requires a positive even t, got {t}")
    return expect(model.law, lambda v: model.kernel.minus_one(v) ** t)


def usq_hard(model: ModelSpec, m: int, t: int) -> CriterionReport:
    value = usq_moment(model, t)
    bound = float(m) ** (-t)
    lv = math.log(value) if value > 0.0 else -math.inf
    return CriterionReport(
        "USQ", {"m": m, "t": t}, None, value, lv, _hard(value, bound),
        "exact-sum" if model.is_discrete else "quadrature",
    )


# ---------------------------------------------------------------------------
# chi^2 and samplewise low degree
# ---------------------------------------------------------------------------


def chi_squared(model: ModelSpec, m: int) -> float:
    """chi^2(P^xm || Q^xm) = E[K(T)^m] - 1.

    Discrete laws sum p * expm1(m log K) directly (expm1 keeps precision
    when the divergence is tiny); atoms whose m-th power overflows the
    linear scale propagate an honest +inf instead of raising.
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")

    def integrand(v):
        lv = model.kernel.log_eval(v)
        if lv is None:
            return -1.0
        x = m * lv
        return math.expm1(x) if x < 709.0 else math.inf

    if model.is_discrete:
        return math.fsum(integrand(v) * p for v, p in model.law.atoms)
    return expect(model.law, integrand)


def ld_samplewise(model: ModelSpec, m: int, d: float, k_deg: int) -> float:
    """Samplewise degree-(d, k) projected likelihood norm

        sum_{t=0}^{k_deg} C(m, t) E[(K_d - 1)^t],

    K_d the degree-d truncation of the kernel series (d = inf keeps K).
    """
    if m < 1 or k_deg < 0:
        raise ValueError(f"need m >= 1 and k_deg >= 0, got m={m}, k_deg={k_deg}")
    finite_d = not (d is None or d == math.inf)
    if finite_d and model.kernel.series is None:
        raise UnsupportedCriterionError(
            f"kernel {model.kernel.name!r} has no series; samplewise degree d < inf unsupported"
        )

    def dev(v):
        if finite_d:
            return model.kernel.truncated_minus_one(float(v), int(d))
        return model.kernel.minus_one(v)

    total = 0.0
    for t in range(0, min(k_deg, m) + 1):
        coef = math.comb(m, t)
        moment = expect(model.law, lambda v: dev(v) ** t)
        total += coef * moment
    return total


# ---------------------------------------------------------------------------
# Correlation-inequality certification and equivalence checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionReport:
    min_value: float
    witness: tuple | None  # (statistic, k) attaining the minimum when negative
    k_max: int
    passed: bool


def assumption_holds(model: ModelSpec, k_max: int = 10, tol: float = 1e-12,
                     grid: int = 401) -> AssumptionReport:
    """Evaluate the orbit-averaged correlation moments
    E_{g,g'}[(K - 1)^k] on every atom (or a dense grid) for k <= k_max;
    nonnegativity of all of them is the certified assumption."""
    if model.is_discrete:
        points = [v for v, _ in model.law.atoms]
    else:
        import numpy as np

        lo, hi = model.law.support
        points = list(np.linspace(lo, hi, grid))
    min_value = math.inf
    witness = None
    for t in points:
        for k in range(1, k_max + 1):
            val = group_avg_check(model.kernel, model.group, t, k)
            if val < min_value:
                min_value = val
                witness = (t, k)
    passed = min_value >= -tol
    return AssumptionReport(min_value, None if passed else witness, k_max, passed)


@dataclass(frozen=True)
class EquivalenceReport:
    """Numeric verification of the SQ <-> rho_G-FP and GFP <-> rho_G-FP
    inequality chains at one (q, m) point."""

    checks: dict
    passed: bool


def check_equivalence_bounds(model: ModelSpec, q: float, m: int, epsilon: float = 0.0) -> EquivalenceReport:
    """Run the cross-criterion inequality battery:

    (a) if SQ(q) <= 1/m then rho_G-FP at q' = floor(q/sqrt 2) - 1,
        m' = floor(m/2) is at most 1 + e |G|^{-1} m'/m;
    (b) GFP(q, m) <= rho_G-FP(q, m);
    (c) when the r(q) tail mass is exact and m is even,
        rho_G-FP(q, m) <= 3|G| (GFP - 1) + 1 + m chi^2 + (3/|G|)(1 + eps).

    Premises that fail are reported as 'premise-failed', not as
    violations.
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    checks: dict = {}
    assumption = assumption_holds(model, k_max=4)
    checks["assumption"] = {
        "passed": assumption.passed,
        "min_value": assumption.min_value,
    }
    G = model.group.order

    sq = sq_value(model, q)
    checks["sq_value"] = sq.value
    qp = math.floor(q / math.sqrt(2.0)) - 1
    mp = m // 2
    if sq.value <= 1.0 / m and qp >= 2 and mp >= 1:
        rfp_p = rho_fp_value(model, qp, mp)
        bound = 1.0 + math.e * mp / (G * m)
        checks["sq_implies_rho_fp"] = {
            "status": "checked",
            "value": rfp_p.value,
            "bound": bound,
            "passed": rfp_p.value <= bound * (1.0 + 1e-9),
            "q_prime": qp,
            "m_prime": mp,
        }
    else:
        checks["sq_implies_rho_fp"] = {"status": "premise-failed", "passed": True}

    rfp = rho_fp_value(model, q, m, epsilon)
    gfp = gfp_value(model, q, m, epsilon)
    checks["gfp_le_rho_fp"] = {
        "status": "checked",
        "gfp": gfp.value,
        "rho_fp": rfp.value,
        "passed": gfp.value <= rfp.value * (1.0 + 1e-9) + 1e-12,
    }

    if rfp.threshold is not None and rfp.threshold.exact and m % 2 == 0:
        chi2 = chi_squared(model, 1)
        bound = 3.0 * G * (gfp.value - 1.0) + 1.0 + m * chi2 + (3.0 / G) * (1.0 + epsilon)
        checks["rho_fp_le_gfp_chain"] = {
            "status": "checked",
            "value": rfp.value,
            "bound": bound,
            "passed": rfp.value <= bound * (1.0 + 1e-9),
        }
    else:
        checks["rho_fp_le_gfp_chain"] = {"status": "premise-failed", "passed": True}

    passed = assumption.passed and all(
        c["passed"] for c in checks.values() if isinstance(c, dict) and "passed" in c
    )
    return EquivalenceReport(checks=checks, passed=passed)
