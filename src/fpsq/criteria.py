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
short-circuit to exact 0.  On a discrete law every criterion reads the
model's atom table (ModelSpec.atom_table): a threshold is a bisection in
its levels, an event a mask, the event value a log-sum-exp of
m log K + log p over the mask.  On the continuous law each is one
laws.integral of its integrand in log form, read from the model's
kernel table on the grid.  USQ and LD (every d) share one moment
function, whose values each model keeps; the correlation check reads
K - 1 at t and -t from the same tables.  Every report records the threshold object, the computation
method, and a hard/not-hard verdict against the caller-supplied epsilon
(or 1/m for SQ).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from fpsq.kernels import AtomTable, ModelSpec, SingularityError
from fpsq.laws import (
    AtomEvaluationError,
    ShapeGrid,
    ThresholdResult,
    abs_event,
    check_even_nondecreasing,
    check_mass,
    crossing,
    expect,  # noqa: F401  (the benchmark traces this attribute)
    exp_or_inf,
    find_root,
    integral,
    threshold_sup,  # noqa: F401  (stays importable from this module)
)
from fpsq.numerics import exact_sum, log_sum_exp

_REL = 1e-12
_MAX_EXACT_ORBITS = 64  # GFP orbit items beyond this take the greedy brackets
_BNB_NODES = 20_000  # branch-and-bound node budget; then the greedy brackets
_CORRELATION_TOL = 1e-12  # assumption_holds passes at a minimum >= -this


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
    """The tail mass q^{-2}, after the shared checks on q and on that mass."""
    if not q >= minimum:
        raise ValueError(f"{criterion} requires q >= {minimum}, got {q}")
    mass = float(q) ** -2
    check_mass(mass)
    return mass


def _le(a, b):
    """a <= b up to relative 1e-12 (elementwise on arrays)."""
    return a <= b + _REL * np.maximum(np.abs(a), np.abs(b))


def _event_value(log_terms: np.ndarray) -> tuple[float, float]:
    """(value, log_value) of a sum given by its log-terms; -inf terms
    (exact kernel zeros, zero masses) drop out."""
    terms = log_terms[log_terms > -math.inf]
    if not terms.size:
        return 0.0, -math.inf
    lv = log_sum_exp(terms)
    return exp_or_inf(lv), lv


def _kernel_integral(model: ModelSpec, form: Callable[[np.ndarray], tuple],
                     bounds: tuple[float, float] | None = None) -> tuple[float, float]:
    """(value, log |value|) of E[f(T) 1(lo <= T <= hi)] on the continuous law
    (bounds = (lo, hi), the support by default) for f = form(log K) in log
    form (log |f|, sign f): laws.integral, fed the kernel table on the grid."""
    return integral(model.law, lambda ts: form(model.log_k(ts)), form(model.kernel_table[0])[0],
                    *(bounds or model.law.support))


def _event_integral(model: ModelSpec, m: int, h: float) -> tuple[float, float]:
    """(value, log_value) of E[K^m 1(|T| <= h)] on the continuous law."""
    return _kernel_integral(model, lambda lk: (m * lk, 1.0), (-h, h))


def _expm1_log(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log |e^x - 1|, sign x): exact beyond the float range of e^x, and
    (0, -1) at x = -inf."""
    with np.errstate(divide="ignore"):
        return np.maximum(x, 0.0) + np.log(-np.expm1(-np.abs(x))), np.sign(x)


def _power_log(form: tuple[np.ndarray, np.ndarray], t: int) -> tuple[np.ndarray, np.ndarray]:
    """The log form (log |b^t|, sign b^t) of b^t from that of b."""
    log_abs, sign = form
    return (t * log_abs, sign**t) if t else (np.zeros_like(log_abs), 1.0)


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
    if model.euclid_overlap is None or not (model.is_discrete or model.euclid_overlap is float):
        raise UnsupportedCriterionError(  # a continuous law's statistic is the overlap itself
            f"model {model.name!r} does not expose a Euclidean overlap; FP undefined"
        )
    inputs = {"q": q, "m": m, "epsilon": epsilon}
    if model.is_discrete:
        tab = model.atom_table
        thr = tab.overlap.threshold(mass)
        keep = _le(tab.overlap.at, thr.threshold)
        value, lv = _event_value(m * tab.log_k[keep] + tab.log_p[keep])
        method = "exact-sum"
    else:
        thr, half = abs_event(model.law, mass)  # |<u,v>| = |t|: the threshold is tau itself
        value, lv = _event_integral(model, m, half)
        method = "quadrature"
    return CriterionReport("FP", inputs, thr, value, lv, _hard(value, 1.0 + epsilon), method)


def rho_fp_value(model: ModelSpec, q: float, m: int, epsilon: float = 0.0) -> CriterionReport:
    """E[K^m 1(rho_G < r(q))], strict boundary per the definition."""
    mass = _require_q(q, 2.0, "rho_G-FP")
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    inputs = {"q": q, "m": m, "epsilon": epsilon}
    if model.is_discrete:
        tab = model.atom_table
        thr = tab.rho.threshold(mass)
        keep = tab.rho.at < thr.threshold * (1.0 - _REL)
        value, lv = _event_value(m * tab.log_k[keep] + tab.log_p[keep])
        method = "exact-sum"
    else:
        thr, half = abs_event(model.law, mass, model.rho_grid, strict=True)
        value, lv = _event_integral(model, m, half)
        method = "quadrature"
    return CriterionReport("RHO_FP", inputs, thr, value, lv, _hard(value, 1.0 + epsilon), method)


# ---------------------------------------------------------------------------
# GFP: exact invariant-event optimization
# ---------------------------------------------------------------------------


def _log_add(a: float, b: float) -> float:
    """log(exp(a) + exp(b))."""
    if a < b:
        a, b = b, a
    return a if b == -math.inf else a + math.log1p(math.exp(b - a))


def _by_density(values: Sequence[float], log_weights: Sequence[float]) -> np.ndarray:
    """Items of nonzero value in increasing log value per unit mass, ties
    in item order (log_weights as AtomTable.log_orbit_mass rounds them)."""
    values = np.asarray(values)
    items = np.flatnonzero(values > -math.inf)
    return items[np.argsort(values[items] - np.asarray(log_weights)[items], kind="stable")]


def _fractional_fill(values: Sequence[float], weights: Sequence[float], order: Sequence[int],
                     start: int, value: float, weight: float, needed: float) -> float:
    """Lower bound (log) on the cheapest completion: fill the missing
    mass with the lowest-density remaining items, the last one
    fractionally."""
    missing = needed - weight
    bound = value
    for j in order[start:]:
        if missing <= 0.0:
            break
        if weights[j] <= missing:
            missing -= weights[j]
            bound = _log_add(bound, values[j])
        else:
            bound = _log_add(bound, values[j] + math.log(missing / weights[j]))
            missing = 0.0
    return bound if missing <= 0.0 else math.inf


def solve_min_inclusion(
    values: Sequence[float], weights: Sequence[float], log_weights: Sequence[float], needed: float
) -> tuple[list[int], float] | None:
    """Exact covering knapsack on log-values: choose items minimizing
    log sum(exp(values)) subject to sum(weights) >= needed, by
    depth-first branch and bound with a fractional lower bound, in the
    density order of the weights' logs.  Returns (included items, log
    value), or None once _BNB_NODES nodes are spent.

    This is the complement of the exclusion problem (drop atoms of total
    mass <= capacity maximizing the dropped value).  Items of log-value
    -inf are free and always included.  Working in log space keeps every
    item exact, whatever the spread of kernel powers.
    """
    n = len(values)
    if needed <= 0.0:
        return [], -math.inf
    free = [j for j in range(n) if values[j] == -math.inf]
    base_weight = math.fsum(weights[j] for j in free)
    order = _by_density(values, log_weights).tolist()
    if base_weight >= needed:
        return sorted(free), -math.inf
    best_value = math.inf
    best_set: list[int] = []
    path: list[int] = []
    nodes = 0
    suffix_weight = [0.0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix_weight[i] = suffix_weight[i + 1] + weights[order[i]]

    def dfs(start: int, value: float, weight: float) -> None:
        nonlocal best_value, best_set, nodes
        nodes += 1
        if nodes > _BNB_NODES:
            return
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
        dfs(start + 1, _log_add(value, values[j]), weight + weights[j])
        path.pop()
        dfs(start + 1, value, weight)

    dfs(0, -math.inf, base_weight)
    if best_value == math.inf:
        raise ValueError("covering constraint infeasible: total mass below requirement")
    if nodes > _BNB_NODES:
        return None
    return sorted(free + best_set), best_value


def greedy_min_inclusion(
    values: np.ndarray, weights: np.ndarray, log_weights: np.ndarray, needed: float
) -> tuple[np.ndarray, float]:
    """Greedy low-density cover on log-values: returns (included items,
    sorted; fractional lower bracket on the exact infimum).  The cover's
    own log value is the upper bracket.  The running mass is one
    sequential cumsum from the free items' mass, so the cover is the one
    a loop of `weight += w` stops at, bit for bit."""
    free = np.flatnonzero(values == -math.inf)
    order = _by_density(values, log_weights)
    reached = np.cumsum(np.concatenate(([exact_sum(weights[free])], weights[order])))
    k = int(np.argmax(reached >= needed))  # items order[:k] reach the needed mass
    if not reached[k] >= needed:
        raise ValueError("covering constraint infeasible: total mass below requirement")
    if k == 0:
        return free, -math.inf
    last = order[k - 1]  # the fractional item of the relaxation
    part = (needed - reached[k - 1]) / weights[last]
    lower = log_sum_exp(np.append(values[order[:k - 1]], values[last] + math.log(min(part, 1.0))))
    return np.sort(np.concatenate((free, order[:k]))), lower


def _orbit_log_values(log_terms: np.ndarray, tab: AtomTable) -> np.ndarray:
    """Per-orbit log-sum-exp of the atoms' log-terms (an orbit holds an
    atom and its mirror, so its largest term is the larger of the two)."""
    top = np.maximum(log_terms[tab.orbit_rep], log_terms[tab.mirror[tab.orbit_rep]])
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        sums = np.bincount(tab.orbit, weights=np.exp(log_terms - shift[tab.orbit]), minlength=len(top))
        return np.log(sums) + shift


def gfp_value(model: ModelSpec, q: float, m: int, epsilon: float = 0.0) -> CriterionReport:
    """inf over G^2-invariant events A with pi^2(A) >= 1 - q^{-2} of
    E[K^m 1(A)], within the statistic-measurable class.

    Discrete laws: atoms are merged into group orbits, each carrying
    its log value log sum p K^m, and the complementary exclusion problem
    (drop orbits maximizing sum p K^m subject to dropped mass <= q^{-2})
    is solved exactly by branch and bound up to _MAX_EXACT_ORBITS orbits
    and _BNB_NODES nodes.  Beyond either limit a greedy exclusion with
    certified lower/upper brackets is reported and the conservative
    (upper) value is returned.

    Continuous laws: the optimal symmetric event is the complement of a
    top superlevel set of the orbit-averaged m-sample kernel.  When that
    average is even and nondecreasing in |t| (the grid check shared with
    the thresholds, run on its log over the kernel table) the event is
    {|T| < tau} with P(|T| >= tau) = q^{-2} exactly; any other shape is
    refused, because a one-sided event can then do better.
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    mass = _require_q(q, 1.0, "GFP")
    inputs = {"q": q, "m": m, "epsilon": epsilon}
    if not model.is_discrete:
        lk = m * model.kernel_table[0]  # log K^m; power: log of its average over the orbit
        power = np.logaddexp(lk, lk[::-1]) - math.log(2.0) if model.group.order == 2 else lk
        try:
            check_even_nondecreasing(model.law, None, power.tolist())
        except ValueError as exc:
            raise UnsupportedCriterionError(
                f"continuous GFP requires the orbit-averaged kernel power to be even and "
                f"nondecreasing in |t| ({exc}); use a discrete law for this kernel"
            ) from None
        thr, half = abs_event(model.law, mass)
        value, lv = _event_integral(model, m, half)
        return CriterionReport(
            "GFP", inputs, thr, value, lv, _hard(value, 1.0 + epsilon), "quadrature",
            {"optimizer": "superlevel-set"},
        )

    tab = model.atom_table
    log_terms = m * tab.log_k + tab.log_p
    values = _orbit_log_values(log_terms, tab)
    # capacity mass may be dropped; the included event needs the rest,
    # with a 1e-12 relative slack so an atom whose mass equals q^{-2}
    # in exact arithmetic is still droppable
    needed = 1.0 - mass * (1.0 + _REL)
    detail: dict = {"orbit_atoms": len(values)}
    solved = (solve_min_inclusion(values.tolist(), tab.orbit_mass.tolist(), tab.log_orbit_mass.tolist(),
                                  needed) if len(values) <= _MAX_EXACT_ORBITS else None)
    lower = None
    if solved is not None:
        included = solved[0]
        detail["optimizer"] = "branch-and-bound-exact"
        method = "exact-sum"
    else:
        included, lower = greedy_min_inclusion(values, tab.orbit_mass, tab.log_orbit_mass, needed)
        detail["optimizer"] = ("greedy-bracket" if len(values) > _MAX_EXACT_ORBITS
                               else "branch-and-bound-budget")
        method = "exact-sum(greedy-bracket)"
    chosen = np.zeros(len(values), dtype=bool)
    chosen[included] = True
    keep = chosen[tab.orbit]
    value, lv = _event_value(log_terms[keep])
    if lower is not None:  # the greedy event's own value is the upper bracket
        detail["value_brackets"] = (exp_or_inf(lower), value)
    atoms = model.law.values
    detail["excluded_atoms"] = [atoms[i] for i in np.flatnonzero(~keep).tolist()]
    detail["excluded_mass"] = exact_sum(tab.orbit_mass[~chosen])
    return CriterionReport("GFP", inputs, None, value, lv, _hard(value, 1.0 + epsilon), method, detail)


# ---------------------------------------------------------------------------
# SQ / USQ
# ---------------------------------------------------------------------------


def sq_value(model: ModelSpec, q: float, m: int | None = None) -> CriterionReport:
    """sup over statistic events of mass >= q^{-2} of E[|K - 1| | A].

    The sup over whole-level superlevel sets of |K - 1| is attained by
    the smallest such set of mass >= q^{-2}; ties at the boundary level
    are included wholly, on a discrete law with every level within
    relative 1e-12 below it (mirror atoms whose |K - 1| round one ulp
    apart).  With m supplied the verdict compares against 1/m.
    """
    mass = _require_q(q, 1.0, "SQ")
    inputs = {"q": q, "m": m}
    if model.is_discrete:
        dev = model.atom_table.abs_dev
        j = int(np.argmax(dev.levels >= dev.threshold(mass).threshold * (1.0 - _REL)))
        achieved = dev.tails[j]
        thr = ThresholdResult(float(dev.levels[j]), achieved, math.isclose(achieved, mass, rel_tol=_REL))
        top_sum = exact_sum((dev.levels * dev.mass)[j:])  # E[|K - 1| 1(levels j..)]
        value = top_sum / achieved if achieved > 0.0 else 0.0
        method = "exact-sum"
    else:
        try:
            sides = model.deviation_sides
        except SingularityError:
            raise
        except ValueError:
            raise UnsupportedCriterionError(
                "continuous SQ needs |K - 1| quasiconvex on the support"
            ) from None
        level, t_left, t_right = _superlevel(model.law, sides, mass)
        thr = ThresholdResult(level, mass, True)
        lo, hi = model.law.support
        tails = [_kernel_integral(model, lambda lk: (_expm1_log(lk)[0], 1.0), (a, b))[0]  # |K - 1|
                 for a, b in ((lo, t_left), (t_right, hi)) if a is not None and b is not None]
        value = math.fsum(tails) / mass
        method = "quadrature"
    verdict = None if m is None else _hard(value, 1.0 / m)
    lv = math.log(value) if value > 0.0 else -math.inf
    return CriterionReport("SQ", inputs, thr, value, lv, verdict, method)


def _superlevel(law, sides: tuple[ShapeGrid, ShapeGrid], mass: float):
    """Level c and crossings (t_left, t_right) such that the superlevel
    event {g(T) >= c} = {T <= t_left} u {T >= t_right} has probability
    `mass`, for g quasiconvex on the support with the checked grid sides
    of ModelSpec.deviation_sides: the shape of |K - 1| for every built-in
    continuous-law kernel.  A crossing is None when g stays below c on
    that side."""
    log_mass = math.log(mass)

    def crossings(c: float) -> list[float | None]:
        return [crossing(side, c) for side in sides]

    def excess(c: float) -> float:
        """log mass - log P(g(T) >= c), nondecreasing in c (symmetric law),
        +inf where no mass is left; in log mass the root-finder meets a
        smooth function instead of one flat at mass across most levels."""
        t_left, t_right = crossings(c)
        tails = [law.log_cdf(t) for t in (t_left, None if t_right is None else -t_right) if t is not None]
        return log_mass - (log_sum_exp(tails) if tails else -math.inf)

    # with g's minimum inside (-tau, tau), P(|T| >= tau) = mass, the level lies
    # between g(-tau) and g(tau): at the lower the event holds both tails of
    # |T| >= tau, at the higher it lies within them (g is quasiconvex)
    tau = abs_event(law, mass)[1]
    if abs(sides[1].xs[0]) < tau:
        c_lo, c_hi = sorted(sides[1].g(s) for s in (-tau, tau))
    else:
        c_lo, c_hi = sides[1].vals[0], max(sides[0].vals[-1], sides[1].vals[-1])
    level = find_root(excess, c_lo, c_hi, excess(c_lo), excess(c_hi))[0]
    return (level, *crossings(level))


def _deviation_moments(model: ModelSpec, ts: Sequence[int], d: float = math.inf) -> list[float]:
    """E[(K_d - 1)^t] for each t in ts, each (d, t) computed once per model
    (ModelSpec.deviation_moments)."""
    if d != math.inf and model.kernel.series is None:
        raise UnsupportedCriterionError(
            f"kernel {model.kernel.name!r} has no series; samplewise degree d < inf unsupported")
    memo = model.deviation_moments
    missing = [t for t in ts if (d, t) not in memo]
    if missing:
        memo.update(zip([(d, t) for t in missing], _compute_moments(model, missing, d)))
    return [memo[d, t] for t in ts]


def _compute_moments(model: ModelSpec, ts: Sequence[int], d: float) -> list[float]:
    """E[(K_d - 1)^t] for each t in ts: exact sums (AtomEvaluationError at a
    non-finite term) or laws.integral, from K_d - 1 read once per call at each
    atom or grid point: the table's K - 1 at d = inf (in log form from log K
    on the continuous law), else one pass of Kernel.truncated_minus_one."""
    law, kernel = model.law, model.kernel
    truncated = lambda points: np.array([kernel.truncated_minus_one(float(x), int(d)) for x in points])
    if model.is_discrete:
        dev = model.atom_table.dev if d == math.inf else truncated(law.values)
        with np.errstate(over="ignore"):
            ys = np.array([dev**t for t in ts])
        bad = np.argwhere(~np.isfinite(ys))  # the first t, then the first atom
        if bad.size:
            raise AtomEvaluationError(law.values[bad[0, 1]], float(ys[tuple(bad[0])]))
        return [exact_sum(y * model.atom_table.p) for y in ys]

    def form(points) -> tuple[np.ndarray, np.ndarray]:
        """K_d - 1 at each point, in log form."""
        if d == math.inf:
            return _expm1_log(model.log_k(points))
        with np.errstate(divide="ignore"):
            b = truncated(points)
            return np.log(np.abs(b)), np.sign(b)

    on_grid = _expm1_log(model.kernel_table[0]) if d == math.inf else form(law.grid)
    return [integral(law, lambda xs: _power_log(form(xs), t), _power_log(on_grid, t)[0],
                     *law.support)[0] for t in ts]


def usq_moment(model: ModelSpec, t: int) -> float:
    """E[(K - 1)^t] for even t (the unconditional SQ moment)."""
    if t < 2 or t % 2:
        raise ValueError(f"USQ moment requires a positive even t, got {t}")
    return _deviation_moments(model, [t])[0]


def usq_hard(model: ModelSpec, m: int, t: int) -> CriterionReport:
    """E[(K - 1)^t] against the bound m^{-t}."""
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
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

    Discrete laws sum p expm1(m log K) over the atom table (expm1 keeps
    precision when the divergence is tiny), as exp(log p + m log K)
    (-expm1(-m log K)) where p underflows or K^m overflows; the continuous
    law integrates expm1(m log K) in log form, log |expm1(x)| = x +
    log(-expm1(-x)) for x > 0, so no integrand value is capped.  A value
    beyond the float range is +inf, and log_moment gives its log.
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if not model.is_discrete:
        return _kernel_integral(model, lambda lk: _expm1_log(m * lk))[0]
    tab = model.atom_table
    x = m * tab.log_k
    scaled = (x > 0.0) & ((tab.p < 1e-300) | (x > 700.0))
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.where(scaled, np.exp(tab.log_p + x) * -np.expm1(-x), tab.p * np.expm1(x))
    return exact_sum(terms)


def log_moment(model: ModelSpec, m: int) -> float:
    """log E[K(T)^m] = log(1 + chi^2), finite where chi_squared overflows:
    a log-sum-exp over the atom table, or _event_integral over the
    continuous support.  Below the float range log1p(chi_squared) is more
    precise."""
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if model.is_discrete:
        tab = model.atom_table
        return _event_value(m * tab.log_k + tab.log_p)[1]
    return _event_integral(model, m, model.law.support[1])[1]


def ld_samplewise(model: ModelSpec, m: int, d: float, k_deg: int) -> float:
    """Samplewise degree-(d, k) projected likelihood norm

        sum_{t=0}^{k_deg} C(m, t) E[(K_d - 1)^t],

    K_d the degree-d truncation of the kernel series (d = inf keeps K, else d >= 0 is an integer).
    """
    if m < 1 or k_deg < 0:
        raise ValueError(f"need m >= 1 and k_deg >= 0, got m={m}, k_deg={k_deg}")
    if d != math.inf and not (d >= 0 and float(d).is_integer()):
        raise ValueError(f"the per-sample degree d must be a nonnegative integer or inf, got {d}")
    ts = range(0, min(k_deg, m) + 1)
    total = 0.0
    for t, moment in zip(ts, _deviation_moments(model, ts, d)):
        total += math.comb(m, t) * moment
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


def assumption_holds(model: ModelSpec, k_max: int = 10) -> AssumptionReport:
    """Evaluate the orbit-averaged correlation moments E_{g,g'}[(K - 1)^k],
    k = 1..k_max, at every atom or point of the continuous law's grid;
    nonnegativity of all of them is the certified assumption (a power past
    the float range is +inf).  Under the sign flip the pairs (g, g') reach t
    and -t twice each, so the average is ((K(t) - 1)^k + (K(-t) - 1)^k) / 2,
    from the table's K - 1 at t and at its mirror (the reversed grid)."""
    if k_max < 1:
        raise ValueError(f"k_max must be a positive integer, got {k_max}")
    if model.is_discrete:
        tab = model.atom_table
        points, dev, mirror_dev = model.law.values, tab.dev, tab.mirror_dev
    else:
        points, dev, mirror_dev = model.law.grid, model.kernel_table[1], model.kernel_table[1][::-1]
    ks = np.arange(1, k_max + 1)
    with np.errstate(over="ignore"):
        vals = dev[:, None] ** ks
        if model.group.order == 2:
            vals = (vals + mirror_dev[:, None] ** ks) / 2
    i, k = np.unravel_index(np.argmin(vals), vals.shape)  # the first minimum, points outermost
    min_value = float(vals[i, k])
    passed = min_value >= -_CORRELATION_TOL
    return AssumptionReport(min_value, None if passed else (points[i], int(k) + 1), k_max, passed)


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
