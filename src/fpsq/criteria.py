"""Hardness functionals for planted-vs-null detection models.

For a model with one-sample kernel K(T) on the overlap statistic T and
proxy-runtime parameter q (tail mass q^{-2}):

- FP:      E[K^m(T) 1(|<u,v>| <= delta(q))],  delta(q) the sup-threshold
           of |<u,v>| at mass q^{-2} (closed event boundary);
- rho_G-FP: E[K^m(T) 1(rho_G(T) < r(q))] with the STRICT boundary of the
           group-maximized deviation rho_G;
- GFP:     inf over G^2-invariant statistic events A of mass >= 1 - q^{-2}
           of E[K^m 1(A)]; exact 0/1-exclusion optimization on discrete
           laws, the complement of a top level set on continuous ones;
- SQ:      sup over events of mass >= q^{-2} of E[|K - 1| | A], attained
           by the smallest whole-level superlevel set of |K - 1|;
- USQ:     unconditional moments E[(K - 1)^t], t even;
- chi^2:   E[K^m] - 1;
- samplewise LD: sum_t C(m, t) E[(K_d - 1)^t] for the degree-d
           truncated kernel (d = inf uses K itself).

All m-th powers run through exp(m log K); an exact kernel zero has
log K = -inf and adds an exact 0.  On a discrete law every criterion reads the
model's atom table (ModelSpec.atom_table), built part by part as read: a
threshold is a bisection in its levels, an event a cut in them
(laws.Levels.cut), the event value a log-sum-exp of m log K + log p over the
kept atoms.  On the continuous law every event is a level set
(laws.LevelSets) of |t| (FP), rho_G (rho_G-FP), the orbit-averaged log K^m
(GFP) or |K - 1| (SQ), read from the kernel table, and its value one
laws.integral, read from the node table.
FP and rho_G-FP share one body: only h and the boundary side differ.
USQ and LD (every d) share one moment function; the correlation check
reads K - 1 at t and -t from the same tables.  Every report records the
threshold object, the computation method, the bound on its error, and a
hard/not-hard verdict against the caller-supplied epsilon (or 1/m for SQ).
CRITERIA maps each `--criterion` name to the function that gives a sweep
cell's finished report, as the CLI prints it, and says whether it reads q.

A sweep reuses what depends on one coordinate through the model's memo
(ModelSpec.memo), keyed by (what, coordinate):
- per q: the FP and rho_G-FP thresholds with their level cut (or kept
  intervals) and SQ's (threshold, value, log value, method);
- per m: chi^2, log E[K^m] and, on a discrete law, GFP's GreedyDescent
  (the orbits' greedy order, the mass it reaches at each step and, up
  to _MAX_EXACT_ORBITS orbits, the branch and bound's lists), for the
  _GFP_ORDERS most recently used m only;
- per (d, t): the moments E[(K_d - 1)^t] of USQ and LD;
- on the continuous law, per (m, kept intervals): E[K^m 1(intervals)],
  which FP, rho_G-FP and GFP share where their events are equal.
Entries hold scalars, interval rows, lists and per-orbit arrays, never a
per-atom array.  So a cell rebuilds nothing that depends on q or m alone:
an FP or rho_G-FP cell reads its kept atoms as the slice
order[:starts[cut]] of the level order, a GFP cell beyond
_MAX_EXACT_ORBITS orbits its cover as one searchsorted in the descent
(up to it the branch and bound builds only its bound's prefix sums).
Each cell still sums m log K + log p over its kept atoms, one pass of
their length, and GFP's detail beyond the optimizer is computed when
read.  The argument checks run before any lookup, and a computation or
GFP cell that raises stores nothing, so every cell returns what it
returns on a fresh model, bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import partial
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

import numpy as np

from fpsq.kernels import AtomTable, ModelSpec
from fpsq.laws import (
    QUAD_REL_TOL,
    REL_TOL,
    AtomEvaluationError,
    Levels,
    LevelSets,
    ThresholdResult,
    check_mass,
    expect,  # noqa: F401  (the benchmark traces this attribute)
    exp_or_inf,
    integral,
    threshold_sup,  # noqa: F401  (the benchmark traces this attribute)
)
from fpsq.numerics import exact_sum, log_sum_exp

_MAX_EXACT_ORBITS = 64  # GFP orbit items beyond this take the greedy brackets
_BNB_NODES = 20_000  # branch-and-bound node budget; then the greedy brackets
_CORRELATION_TOL = 1e-12  # assumption_holds passes at a minimum >= -this
_GFP_ORDERS = 32  # per-m GFP orders a model's memo keeps: a 16-m sweep's, twice over


class UnsupportedCriterionError(ValueError):
    """The criterion is undefined for this model's statistic."""


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of one criterion evaluation.

    value may be math.inf when the linear value overflows; log_value
    (natural log, -inf for value 0) stays finite in that case and is
    what the CLI emits with an overflow tag (overflowed).  error_bound
    bounds the error of the emitted value.
    """

    criterion: str
    inputs: dict
    threshold: ThresholdResult | None
    value: float
    log_value: float | None
    verdict: str | None
    method: str
    error_bound: float
    overflowed: bool
    detail: Mapping


def _report(model: ModelSpec, name: str, inputs: dict, thr: ThresholdResult | None, value: float,
            lv: float | None, verdict: str | None, detail: Mapping | None = None,
            lower: float | None = None) -> CriterionReport:
    """A value's report: exact-sum on a discrete law, with error_bound 0
    (correctly rounded), or quadrature, with QUAD_REL_TOL relative to the
    emitted value (absolute below 1); (greedy-bracket) where the value tops
    a bracket from e^lower, whose width is then error_bound.  The emitted
    value is log_value, in log units, past e^700 or where value overflowed."""
    logged = lv is not None and (lv > 700.0 or math.isinf(value))
    method = "exact-sum" if model.is_discrete else "quadrature"
    if lower is not None:
        method, bound = f"{method}(greedy-bracket)", max(lv - lower if logged else value - exp_or_inf(lower), 0.0)
    else:
        bound = 0.0 if model.is_discrete else QUAD_REL_TOL * max(1.0, abs(lv if logged else value))
    return CriterionReport(name, inputs, thr, value, lv, verdict, method, bound, logged,
                           {} if detail is None else detail)


def _hard(value: float, bound: float) -> str:
    return "hard" if value <= bound else "not-hard"


def _require_q(q: float, minimum: float, criterion: str, m: int | None) -> float:
    """The tail mass q^{-2}, after the shared checks on q, that mass and m (if given)."""
    if not q >= minimum:
        raise ValueError(f"{criterion} requires q >= {minimum}, got {q}")
    mass = float(q) ** -2
    check_mass(mass)
    if m is not None:
        _require_m(m)
    return mass


def _require_m(m: int) -> None:
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")


def _memo(model: ModelSpec, key: tuple, compute: Callable):
    """model.memo[key], from compute() on first use; a compute that raises
    stores nothing."""
    memo = model.memo
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _event_value(log_terms: np.ndarray) -> tuple[float, float]:
    """(value, log_value) of a sum given by its log-terms; -inf terms
    (exact kernel zeros, zero masses) add exact zeros (log_sum_exp)."""
    if not log_terms.size:
        return 0.0, -math.inf
    lv = log_sum_exp(log_terms)
    return exp_or_inf(lv), lv


def _event_integral(model: ModelSpec, form: Callable, intervals: np.ndarray) -> tuple[float, float]:
    """(value, log |value|) of E[f(T) 1(T in the intervals)] on the continuous
    law for f = form(log K) in log form (log |f|, sign f): one laws.integral
    over the intervals (rows [a, b]), fed the node table."""
    return integral(model.law, lambda ts: form(model.log_k(ts)), intervals, form(model.node_table))


def _power_sum(model: ModelSpec, m: int, kept=None) -> tuple[float, float]:
    """(value, log value) of E[K^m 1(kept)]: a log-sum-exp of m log K + log p
    over the kept atoms (an index array) of a discrete law, or one integral over
    the kept intervals (rows [a, b]) on the continuous law, once per m and
    intervals (the memo's ("power", (m, bytes of the rows)) entries, which FP,
    rho_G-FP and GFP share where their events are equal); None keeps the
    whole support."""
    if model.is_discrete:
        kept = slice(None) if kept is None else kept
        return _event_value(m * model.atom_table.log_k[kept] + model.law.log_probs[kept])
    kept = np.array([model.law.support]) if kept is None else kept
    return _memo(model, ("power", (m, kept.tobytes())),
                 lambda: _event_integral(model, lambda lk: (m * lk, 1.0), kept))


def _complement(intervals: np.ndarray, support: tuple[float, float]) -> np.ndarray:
    """The intervals of the support between the given ones (rows, in order)."""
    edges = np.concatenate([support[:1], intervals.ravel(), support[1:]]).reshape(-1, 2)
    return edges[edges[:, 0] < edges[:, 1]]


def _orbit_sets(model: ModelSpec, table: np.ndarray, at: Callable, combine: Callable) -> LevelSets:
    """LevelSets of f, given on the grid (table) and at points (at), or of
    combine(f(t), f(-t)) under the sign flip (one call of at on both)."""
    if model.group.order == 1:
        return LevelSets(model.law, table, at)
    both = lambda ts: at(np.concatenate([ts, -ts])).reshape(2, -1)
    return LevelSets(model.law, combine(table, table[::-1]), lambda ts: combine(*both(ts)))


def _deviation(model: ModelSpec) -> tuple[np.ndarray, Callable]:
    """|K - 1| on the grid (from the kernel table) and at points."""
    return np.abs(model.kernel_table[1]), lambda ts: np.abs(model.kernel.minus_one(ts))


def _expm1_log(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log |e^x - 1|, sign x): exact beyond the float range of e^x, and
    (0, -1) at x = -inf."""
    with np.errstate(divide="ignore"):
        return np.maximum(x, 0.0) + np.log(-np.expm1(-np.abs(x))), np.sign(x)


def _power_log(form: tuple[np.ndarray, np.ndarray], t: int) -> tuple[np.ndarray, np.ndarray]:
    """The log form (log |b^t|, sign b^t) of b^t from that of b."""
    log_abs, sign = form
    return t * log_abs, sign**t


# ---------------------------------------------------------------------------
# FP / rho_G-FP
# ---------------------------------------------------------------------------


def fp_value(model: ModelSpec, q: float, m: int, epsilon: float = 0.0) -> CriterionReport:
    """E[K^m 1(|<u,v>| <= delta(q))] with delta(q) at tail mass q^{-2}.

    Requires the model's statistic to determine the Euclidean overlap.
    """
    mass = _require_q(q, 2.0, "FP", m)
    if not model.euclid_overlap:
        raise UnsupportedCriterionError(
            f"model {model.name!r} does not expose a Euclidean overlap; FP undefined"
        )
    return _kept_below(model, "FP", q, m, epsilon, mass, lambda tab: tab.overlap, False,  # continuous: |<u,v>| = |t|
                       lambda: LevelSets(model.law, np.abs(model.law.grid), np.abs))


def rho_fp_value(model: ModelSpec, q: float, m: int, epsilon: float = 0.0) -> CriterionReport:
    """E[K^m 1(rho_G < r(q))], strict boundary per the definition."""
    mass = _require_q(q, 2.0, "rho_G-FP", m)
    return _kept_below(model, "RHO_FP", q, m, epsilon, mass, lambda tab: tab.rho, True,
                       lambda: _orbit_sets(model, *_deviation(model), np.maximum))


def _kept_below(model: ModelSpec, name: str, q: float, m: int, epsilon: float, mass: float,
                levels: Callable[[AtomTable], Levels], strict: bool, sets: Callable[[], LevelSets]) -> CriterionReport:
    """E[K^m 1(h(T) below r)], r the sup-threshold of h at tail mass `mass`:
    the cut at r in the atom table's Levels levels(table), closed or strict, or
    the support less {h >= r} in the LevelSets from sets().  The memo keeps
    (threshold, cut) or (threshold, intervals) per q."""
    h = levels(model.atom_table) if model.is_discrete else None

    def event() -> tuple[ThresholdResult, int | np.ndarray]:
        if h is not None:
            thr = h.threshold(mass)
            return thr, h.cut(thr.threshold, strict)
        thr, above = sets().threshold(mass)
        return thr, _complement(above, model.law.support)

    thr, kept = _memo(model, (name.lower(), q), event)
    value, lv = _power_sum(model, m, kept if h is None else h.order[:h.starts[kept]])
    return _report(model, name, {"q": q, "m": m, "epsilon": epsilon}, thr, value, lv, _hard(value, 1.0 + epsilon))


# ---------------------------------------------------------------------------
# GFP: exact invariant-event optimization
# ---------------------------------------------------------------------------


def _log_add(a: float, b: float) -> float:
    """log(exp(a) + exp(b))."""
    if a < b:
        a, b = b, a
    return a if b == -math.inf else a + math.log1p(math.exp(b - a))


class _Search(NamedTuple):
    """The branch and bound's view of a greedy descent of at most
    _MAX_EXACT_ORBITS items: the items' log values (values), order and
    reached as lists (items, mass), the values in order as an array (v)
    and a list (vl), the weights in order (wl), and on_path[i], the
    _log_add of vl[:i] from -inf."""

    values: np.ndarray
    items: list
    mass: list
    v: np.ndarray
    vl: list
    wl: list
    on_path: list


class GreedyDescent(NamedTuple):
    """The greedy low-density order of a set of items and the first descent
    of solve_min_inclusion along it, whatever the mass needed:
    - free, the items of log value -inf (int32);
    - order, the others in increasing log value per unit mass, ties in
      item order (log_weights as AtomTable.log_orbit_mass rounds them;
      int32);
    - free_mass, the exact sum of the free items' weights;
    - reached[i], the mass of the free items and order[:i], one sequential
      cumsum from free_mass, so a loop of `weight += w` reaches it bit for
      bit;
    - search, the lists the branch and bound reads, for at most
      _MAX_EXACT_ORBITS items (else None).
    Beyond _MAX_EXACT_ORBITS items that is 12 bytes per item."""

    free: np.ndarray
    order: np.ndarray
    free_mass: float
    reached: np.ndarray
    search: _Search | None

    def cover(self, needed: float) -> int:
        """The first k with reached[k] >= needed: the greedy cover is the free
        items and order[:k]."""
        k = int(self.reached.searchsorted(needed))  # reached is nondecreasing
        if k == len(self.reached):
            raise ValueError("covering constraint infeasible: total mass below requirement")
        return k


def greedy_min_inclusion(values: Sequence[float], weights: Sequence[float],
                         log_weights: Sequence[float]) -> GreedyDescent:
    """The GreedyDescent of items with these log values, weights and log
    weights: solve_min_inclusion's greedy order and first descent."""
    values, weights = np.asarray(values, dtype=float), np.asarray(weights, dtype=float)
    free = (values == -math.inf).nonzero()[0].astype(np.int32)
    items = (values > -math.inf).nonzero()[0]
    order = items[(values[items] - np.asarray(log_weights)[items]).argsort(kind="stable")].astype(np.int32)
    free_mass = exact_sum(weights[free])
    w = weights[order]
    reached = np.concatenate(([free_mass], w)).cumsum()
    search = None
    if len(values) <= _MAX_EXACT_ORBITS:
        v = values[order]
        vl = v.tolist()
        search = _Search(values, order.tolist(), reached.tolist(), v, vl, w.tolist(),
                         list(accumulate(vl, _log_add, initial=-math.inf)))
    return GreedyDescent(free, order, free_mass, reached, search)


def solve_min_inclusion(
    values: Sequence[float], weights: Sequence[float], log_weights: Sequence[float], needed: float,
    greedy: GreedyDescent | None = None,
) -> tuple[np.ndarray, float, float | None]:
    """Covering knapsack on log-values: the items minimizing
    log sum(exp(values)) subject to sum(weights) >= needed, the
    complement of the exclusion problem (drop atoms of total mass <=
    capacity maximizing the dropped value).  Items of log value -inf are
    free and always included; log space keeps every item exact, whatever
    the spread of kernel powers.

    Depth-first branch and bound in greedy_min_inclusion's density order
    (greedy, when the caller kept its GreedyDescent of the same items).
    Its first descent takes every item until the mass is reached: the
    greedy cover, GreedyDescent.cover.  That cover is the first
    incumbent, and the search goes on from the cover's exclusion branches,
    each from its on-path value.  A node's bound is the fractional fill
    of the missing mass by the next items, read with one bisect from
    prefix arrays of the mass and of exp(value - greedy value), the only
    lists built per call.  The node budget is _BNB_NODES up to
    _MAX_EXACT_ORBITS items and 0 beyond, the cap under which the
    benchmark's reference values were recorded.

    Returns (included items, a sorted index array; their log value;
    lower).  lower is None when the optimum is proved.  Otherwise it is
    the log of the greedy cover's fractional fill, a lower bracket on the
    optimum, and the items are the best cover found, never worse than the
    greedy one.
    """
    descent = greedy_min_inclusion(values, weights, log_weights) if greedy is None else greedy
    free, order, search = descent.free, descent.order, descent.search
    k = descent.cover(needed)
    budget = _BNB_NODES if search is not None else 0
    v = search.v if search is not None else np.asarray(values, dtype=float)[order[:k]]
    best_value = log_sum_exp(v[:k]) if k else -math.inf
    best_set = order[:k]
    if budget:
        items, mass, vl, wl = search.items, search.mass, search.vl, search.wl
        n, nodes, path = len(items), 0, items[:k]
        # bounds are summed in exp(. - top), top the greedy value, where an
        # item above it counts as 1 and one below the float range as 0: both
        # only lower a bound, and the slack covers the rounding of the prefix
        # sums, so that their difference cannot raise it either
        top = best_value
        xl = np.exp(np.minimum(v - top, 0.0)).tolist()
        sums = list(accumulate(xl, initial=0.0))
        slack = 2.0 * n * 2.0**-52

        def dfs(start: int, value: float, weight: float) -> None:
            nonlocal best_value, best_set, nodes
            nodes += 1
            if nodes > budget:
                return
            if weight >= needed:
                if value < best_value:
                    best_value, best_set = value, np.array(path, dtype=np.int32)
                return  # adding more items can only increase the value
            if value >= best_value:
                return  # no completion can help, and exp(value - top) stays below 1
            # the fill: items[start:e] whole, the break item e in part
            target = needed - weight + mass[start]
            e = bisect_left(mass, target, start + 1) - 1
            if e == n:
                return  # cannot reach the required mass
            rest = (math.exp(value - top) + sums[e] - sums[start] - slack * sums[e]
                    + xl[e] * min((target - mass[e]) / wl[e], 1.0))
            if rest > 0.0 and top + math.log(rest) >= best_value:
                return
            path.append(items[start])
            dfs(start + 1, _log_add(value, vl[start]), weight + wl[start])
            path.pop()
            dfs(start + 1, value, weight)

        # the cover's exclusion branches, deepest first, from the path
        # values the first descent would have summed
        for d in range(k - 1, -1, -1):
            path.pop()
            dfs(d + 1, search.on_path[d], mass[d])
        if nodes <= budget:
            return np.sort(np.concatenate([free, best_set])), best_value, None
    lower = _greedy_lower(descent, v, np.asarray(weights, dtype=float), needed, k)
    return np.sort(np.concatenate([free, best_set])), best_value, lower


def _greedy_lower(descent: GreedyDescent, v: np.ndarray, weights: np.ndarray, needed: float, k: int) -> float:
    """The log of the greedy cover's fractional fill, v the values of
    order[:k] (or more) and weights every item's: order[:k - 1] whole and
    the missing part of order[k - 1]; -inf where the free items cover."""
    if not k:
        return -math.inf
    return log_sum_exp(np.append(v[:k - 1], v[k - 1] + math.log(_break_part(descent, weights, needed, k))))


def _break_part(descent: GreedyDescent, weights: np.ndarray, needed: float, k: int) -> float:
    """The part of order[k - 1], the cover's last item, that the fractional fill takes."""
    return min(float((needed - descent.reached[k - 1]) / weights[descent.order[k - 1]]), 1.0)


def _orbit_log_values(log_terms: np.ndarray, tab: AtomTable) -> np.ndarray:
    """Per-orbit log-sum-exp of the atoms' log-terms, top + log(1 + exp(low -
    top)) of the representative's term and its mirror's (-inf if alone):
    the log-terms themselves where every orbit is one atom."""
    if len(tab.orbit_rep) == len(log_terms):
        return log_terms
    rep, partner = tab.orbit_rep, tab.mirror[tab.orbit_rep]
    own, other = log_terms[rep], np.where(partner == rep, -math.inf, log_terms[partner])
    top, low = np.maximum(own, other), np.minimum(own, other)
    with np.errstate(invalid="ignore"):
        return np.where(top == -math.inf, top, top + np.log(1.0 + np.exp(low - top)))


def _orbit_atoms(tab: AtomTable, orbits: np.ndarray) -> np.ndarray:
    """The atoms of the given orbits, in no particular order: each
    representative, then each mirror that is another atom."""
    reps = tab.orbit_rep[orbits]
    if len(tab.orbit_rep) == len(tab.orbit):
        return reps
    others = tab.mirror[reps]
    return np.concatenate((reps, others[others != reps]))


def _keep_recent(memo: dict, key: tuple, state) -> None:
    """memo[key] = state as the most recently used GFP descent (dict order
    is use order), dropping the least recently used beyond _GFP_ORDERS."""
    if memo.pop(key, None) is None:
        kept = [k for k in memo if k[0] == "gfp"]
        if len(kept) >= _GFP_ORDERS:
            del memo[kept[0]]
    memo[key] = state


class _DetailOnRead(Mapping):
    """A report's read-only detail over one dict, whose values stored as
    functools.partial are computed on first read and then kept.  Its keys
    are every entry's from the start; every read (get, items, values,
    dict(detail), repr) goes through __getitem__, so it sees computed
    values only."""

    def __init__(self, entries: dict):
        self._entries = entries

    def __getitem__(self, key):
        value = self._entries[key]
        if isinstance(value, partial):
            value = self._entries[key] = value()
        return value

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _GfpEvent(NamedTuple):
    """The event a discrete GFP cell chose, as its report keeps it for the
    detail built on read: the orbits included, the free items and the
    first k of the memo's GreedyDescent (the greedy cover) or the array
    `orbits` solve_min_inclusion returned.  It holds no per-atom array."""

    model: ModelSpec
    m: int
    descent: GreedyDescent
    k: int
    orbits: np.ndarray | None

    def included(self) -> np.ndarray:
        """The included orbits, unsorted on the greedy cover."""
        d = self.descent
        return np.concatenate((d.free, d.order[:self.k])) if self.orbits is None else self.orbits

    def excluded_orbits(self) -> np.ndarray:
        """The orbits left out, as a mask."""
        chosen = np.zeros(len(self.model.atom_table.orbit_rep), dtype=bool)
        chosen[self.included()] = True
        return ~chosen

    def excluded(self) -> np.ndarray:
        return self.excluded_orbits()[self.model.atom_table.orbit]

    def excluded_mass(self) -> float:
        return exact_sum(self.model.atom_table.orbit_mass[self.excluded_orbits()])

    def greedy_brackets(self, needed: float, upper: float) -> tuple[float, float]:
        """(exp of _greedy_lower, upper), from the orbit log values at m."""
        tab, d = self.model.atom_table, self.descent
        v = _orbit_log_values(self.m * tab.log_k + self.model.law.log_probs, tab)[d.order[:self.k]]
        return exp_or_inf(_greedy_lower(d, v, tab.orbit_mass, needed, self.k)), upper

    def greedy_lower(self, needed: float, lv: float) -> float:
        """The log of the lower bracket, lv the cover's log value, less the part
        of the break orbit the fractional fill leaves out, (1 - part) e^v: so
        only that orbit's log value v is computed."""
        if not self.k:
            return lv
        tab, d = self.model.atom_table, self.descent
        term = lambda i: self.m * float(tab.log_k[i]) + float(self.model.law.log_probs[i])
        a = int(tab.orbit_rep[d.order[self.k - 1]])
        b = int(tab.mirror[a])  # a itself where the orbit is one atom
        v = term(a) if a == b else _log_add(term(a), term(b))
        share = (1.0 - _break_part(d, tab.orbit_mass, needed, self.k)) * math.exp(v - lv)
        return lv + math.log1p(-share) if share < 1.0 else -math.inf


def gfp_value(model: ModelSpec, q: float, m: int, epsilon: float = 0.0) -> CriterionReport:
    """inf over G^2-invariant events A with pi^2(A) >= 1 - q^{-2} of
    E[K^m 1(A)], within the statistic-measurable class.

    Discrete laws: atoms are merged into group orbits, each carrying
    its log value log sum p K^m, and the complementary exclusion problem
    (drop orbits maximizing sum p K^m subject to dropped mass <= q^{-2})
    is solved from the GreedyDescent the model's memo keeps per m.  Beyond
    _MAX_EXACT_ORBITS orbits the event is the greedy cover, one
    searchsorted in the descent; up to it solve_min_inclusion searches on.
    The value is a log-sum-exp over the event's atoms.  Where the search
    stops early (beyond _MAX_EXACT_ORBITS orbits or at _BNB_NODES nodes)
    the best cover found is reported with certified lower/upper brackets,
    and the conservative (upper) value is returned.  detail["excluded"] is
    the boolean mask of the atoms the event drops, in law order
    (law.atom_values(mask) gives their values), detail["excluded_mass"]
    their exact mass; these and detail["value_brackets"] are computed when
    first read.

    Continuous laws: the event drops the top level set, of mass q^{-2},
    of h = log of the orbit-averaged K^m (any shape; where h is flat at
    the level, it keeps what part of the flat set its mass allows).  The
    threshold is tau where the dropped set is {|T| >= tau}; else it is
    None and detail["level"] holds the level of h.
    """
    mass = _require_q(q, 1.0, "GFP", m)
    inputs = {"q": q, "m": m, "epsilon": epsilon}
    if not model.is_discrete:
        sets = _orbit_sets(model, m * model.kernel_table[0], lambda ts: m * model.log_k(ts),
                           lambda x, y: np.logaddexp(x, y) - math.log(2.0))
        tails = sets.two_tails(mass)  # the dropped set is {|T| >= tau}: no level of h is needed
        thr, above = tails or sets.threshold(mass)
        value, lv = _power_sum(model, m, _complement(above, model.law.support))
        if thr.achieved_mass > mass and not thr.exact:  # h is flat at the level: keep what the mass allows
            lv = log_sum_exp([lv, math.log(thr.achieved_mass - mass) + thr.threshold])
            value = exp_or_inf(lv)
        detail = {"optimizer": "superlevel-set"} if tails else {"optimizer": "superlevel-set", "level": thr}
        return _report(model, "GFP", inputs, thr if tails else None, value, lv, _hard(value, 1.0 + epsilon), detail)

    tab = model.atom_table
    key = ("gfp", m)
    descent = model.memo.get(key)
    if descent is None:
        values = _orbit_log_values(m * tab.log_k + model.law.log_probs, tab)
        descent = greedy_min_inclusion(values, tab.orbit_mass, tab.log_orbit_mass)
    # capacity mass may be dropped; the included event needs the rest,
    # with a 1e-12 relative slack so an atom whose mass equals q^{-2}
    # in exact arithmetic is still droppable
    needed = 1.0 - mass * (1.0 + REL_TOL)
    lower = None
    if descent.search is None:  # the greedy cover
        event = _GfpEvent(model, m, descent, descent.cover(needed), None)
    else:
        included, _, lower = solve_min_inclusion(descent.search.values, tab.orbit_mass, tab.log_orbit_mass,
                                                 needed, descent)
        event = _GfpEvent(model, m, descent, 0, included)
    _keep_recent(model.memo, key, descent)
    atoms = _orbit_atoms(tab, event.included())
    value, lv = _event_value(m * tab.log_k[atoms] + model.law.log_probs[atoms])
    detail = {"orbit_atoms": len(tab.orbit_rep)}
    if descent.search is None:
        detail["optimizer"] = "greedy-bracket"
        detail["value_brackets"] = partial(event.greedy_brackets, needed, value)
        lower = event.greedy_lower(needed, lv)
    elif lower is None:
        detail["optimizer"] = "branch-and-bound-exact"
    else:
        detail["optimizer"] = "branch-and-bound-budget"
        detail["value_brackets"] = (exp_or_inf(lower), value)
    detail["excluded"] = partial(event.excluded)
    detail["excluded_mass"] = partial(event.excluded_mass)
    return _report(model, "GFP", inputs, None, value, lv, _hard(value, 1.0 + epsilon), _DetailOnRead(detail), lower)


# ---------------------------------------------------------------------------
# SQ / USQ
# ---------------------------------------------------------------------------


def sq_value(model: ModelSpec, q: float, m: int | None = None) -> CriterionReport:
    """sup over statistic events of mass >= q^{-2} of E[|K - 1| | A].

    The sup over whole-level superlevel sets of |K - 1| is attained by
    the smallest such set of mass >= q^{-2}; ties at the boundary level
    are included wholly, on a discrete law with every level within
    relative 1e-12 below it (mirror atoms whose |K - 1| round one ulp
    apart).  On the continuous law the set is a union of intervals
    (laws.LevelSets).  With m supplied the verdict compares against 1/m.
    """
    mass = _require_q(q, 1.0, "SQ", m)
    thr, value, lv = _memo(model, ("sq", q), lambda: _sq(model, mass))
    verdict = None if m is None else _hard(value, 1.0 / m)
    return _report(model, "SQ", {"q": q, "m": m}, thr, value, lv, verdict)


def _sq(model: ModelSpec, mass: float) -> tuple[ThresholdResult, float, float]:
    """SQ's (threshold, value, log value) at tail mass `mass`."""
    if model.is_discrete:
        dev = model.atom_table.abs_dev
        j = dev.cut(dev.threshold(mass).threshold, strict=True)  # the levels from j on are kept
        thr = dev.tail(j, mass)
        top_sum = exact_sum(dev.levels[j:] * dev.mass[j:])  # E[|K - 1| 1(levels j..)]
        value = top_sum / thr.achieved_mass if thr.achieved_mass > 0.0 else 0.0
        return thr, value, math.log(value) if value > 0.0 else -math.inf
    thr, above = LevelSets(model.law, *_deviation(model)).threshold(mass)
    total, lv = _event_integral(model, lambda lk: (_expm1_log(lk)[0], 1.0), above)
    # lv stays finite past 1e308
    return thr, total / thr.achieved_mass, lv - math.log(thr.achieved_mass)


def _deviation_moments(model: ModelSpec, ts: Sequence[int], d: float = math.inf) -> list[float]:
    """E[(K_d - 1)^t] for each t in ts, each (d, t) computed once per model
    (the memo's ("moment", (d, t)) entries)."""
    if d != math.inf and model.kernel.series is None:
        raise UnsupportedCriterionError(
            f"kernel {model.kernel.name!r} has no series; samplewise degree d < inf unsupported")
    memo = model.memo
    missing = [t for t in ts if ("moment", (d, t)) not in memo]
    if missing:
        memo.update(zip([("moment", (d, t)) for t in missing], _compute_moments(model, missing, d)))
    return [memo["moment", (d, t)] for t in ts]


def _compute_moments(model: ModelSpec, ts: Sequence[int], d: float) -> list[float]:
    """E[(K_d - 1)^t] for each t in ts: 1 at t = 0, else exact sums, one t at
    a time (AtomEvaluationError at a non-finite term) or laws.integral, from
    K_d - 1 read once per call at each atom or stored node: a table's K - 1 at
    d = inf (from log K on the continuous law), else one truncated_minus_one call."""
    law, kernel = model.law, model.kernel
    truncated = lambda points: kernel.truncated_minus_one(np.asarray(points, dtype=float), int(d))
    if model.is_discrete:
        dev = model.atom_table.dev if d == math.inf else truncated(law.values)

        def moment(t: int) -> float:
            with np.errstate(over="ignore"):
                y = dev**t
            bad = np.flatnonzero(~np.isfinite(y))
            if bad.size:
                raise AtomEvaluationError(law.atom_values(bad[:1])[0], float(y[bad[0]]))
            return exact_sum(y * law.probs)

        return [moment(t) if t else 1.0 for t in ts]  # t by t, so the first t raises

    def form(points) -> tuple[np.ndarray, np.ndarray]:
        """K_d - 1 at each point, in log form."""
        if d == math.inf:
            return _expm1_log(model.log_k(points))
        with np.errstate(divide="ignore"):
            b = truncated(points)
            return np.log(np.abs(b)), np.sign(b)

    on_nodes = _expm1_log(model.node_table) if d == math.inf else form(law.nodes[0])
    return [integral(law, lambda xs: _power_log(form(xs), t), [law.support], _power_log(on_nodes, t))[0] if t
            else 1.0 for t in ts]


def usq_moment(model: ModelSpec, t: int) -> float:
    """E[(K - 1)^t] for even t (the unconditional SQ moment)."""
    if t < 2 or t % 2:
        raise ValueError(f"USQ moment requires a positive even t, got {t}")
    return _deviation_moments(model, [t])[0]


def usq_hard(model: ModelSpec, m: int, t: int) -> CriterionReport:
    """E[(K - 1)^t] against the bound m^{-t}."""
    _require_m(m)
    value = usq_moment(model, t)
    lv = math.log(value) if value > 0.0 else -math.inf
    return _report(model, "USQ", {"m": m, "t": t}, None, value, lv, _hard(value, float(m) ** (-t)))


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
    _require_m(m)
    return _memo(model, ("chi2", m), lambda: _chi_squared(model, m))


def _chi_squared(model: ModelSpec, m: int) -> float:
    if not model.is_discrete:
        return _event_integral(model, lambda lk: _expm1_log(m * lk), np.array([model.law.support]))[0]
    law = model.law
    x = m * model.atom_table.log_k
    scaled = (x > 0.0) & ((law.probs < 1e-300) | (x > 700.0))
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.where(scaled, np.exp(law.log_probs + x) * -np.expm1(-x), law.probs * np.expm1(x))
    return exact_sum(terms)


def log_moment(model: ModelSpec, m: int) -> float:
    """log E[K(T)^m] = log(1 + chi^2), finite where chi_squared overflows:
    a log-sum-exp over the atom table, or one integral over the
    continuous support.  Below the float range log1p(chi_squared) is more
    precise."""
    _require_m(m)
    return _memo(model, ("log_moment", m), lambda: _power_sum(model, m)[1])


def ld_samplewise(model: ModelSpec, m: int, d: float, k_deg: int) -> float:
    """Samplewise degree-(d, k) projected likelihood norm

        sum_{t=0}^{k_deg} C(m, t) E[(K_d - 1)^t],

    K_d the degree-d truncation of the kernel series (d = inf keeps K, else d >= 0 is an integer
    the kernel's series serves, Kernel.series).  ValueError, naming t, where the sum passes the
    float range.
    """
    if m < 1 or k_deg < 0:
        raise ValueError(f"need m >= 1 and k_deg >= 0, got m={m}, k_deg={k_deg}")
    if d != math.inf and not (d >= 0 and float(d).is_integer()):
        raise ValueError(f"the per-sample degree d must be a nonnegative integer or inf, got {d}")
    ts = range(0, min(k_deg, m) + 1)
    total = 0.0
    for t, moment in zip(ts, _deviation_moments(model, ts, d)):
        try:
            total += math.comb(m, t) * moment if moment else 0.0
        except OverflowError:  # C(m, t) past the float range
            total = math.inf
        if not math.isfinite(total):
            raise ValueError(f"LD passes the float range at its t = {t} term C(m, t) E[(K_d - 1)^t]")
    return total


# ---------------------------------------------------------------------------
# The criterion table: one finished report per --criterion name
# ---------------------------------------------------------------------------


class Cell(NamedTuple):
    """A sweep cell: (q, m), q None without a q grid, then `fpsq sweep`'s
    epsilon, USQ order t, LD degree d and LD sample degree k_deg."""

    q: float | None
    m: int
    epsilon: float = 0.0
    t: int = 2
    d: float = math.inf
    k_deg: int = 1


def _chi2_report(model: ModelSpec, c: Cell) -> CriterionReport:
    value = chi_squared(model, c.m)
    # log E[K^m] stays finite where the linear value overflows
    lv = log_moment(model, c.m) if math.isinf(value) else math.log1p(value) if value > -1.0 else None
    return _report(model, "CHI2", c._asdict(), None, value, lv, None if c.epsilon <= 0.0 else _hard(value, c.epsilon))


def _ld_report(model: ModelSpec, c: Cell) -> CriterionReport:
    value = ld_samplewise(model, c.m, c.d, c.k_deg)
    return _report(model, f"LD[d={'inf' if c.d == math.inf else int(c.d)},k={c.k_deg}]", c._asdict(), None, value,
                   math.log(value) if value > 0 else None, _hard(value, 1.0 + c.epsilon))


class Criterion(NamedTuple):
    """report(model, cell) is a cell's finished report; reads_q, whether it needs q."""

    report: Callable[[ModelSpec, Cell], CriterionReport]
    reads_q: bool


CRITERIA = {  # the --criterion names, in the order the CLI lists them
    "fp": Criterion(lambda model, c: fp_value(model, c.q, c.m, c.epsilon), True),
    "rho_fp": Criterion(lambda model, c: rho_fp_value(model, c.q, c.m, c.epsilon), True),
    "gfp": Criterion(lambda model, c: gfp_value(model, c.q, c.m, c.epsilon), True),
    "sq": Criterion(lambda model, c: sq_value(model, c.q, c.m), True),
    "usq": Criterion(lambda model, c: replace(usq_hard(model, c.m, c.t), criterion=f"USQ[t={c.t}]",
                                              inputs=c._asdict()), False),
    "chi2": Criterion(_chi2_report, False),
    "ld": Criterion(_ld_report, False),
}


# ---------------------------------------------------------------------------
# Correlation-inequality certification and equivalence checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionReport:
    min_value: float
    witness: float | tuple | None  # the atom or grid point attaining the minimum when the check fails
    passed: bool


def assumption_holds(model: ModelSpec) -> AssumptionReport:
    """Certify the orbit-averaged correlation moments E_{g,g'}[(K - 1)^k]
    >= 0 for every k >= 1, at every atom or point of the continuous law's
    grid, by the one test at k = 1.  Under the trivial group the average
    is a^k, a = K(t) - 1, and a^k >= 0 for every k iff a >= 0.  Under the
    sign flip the pairs (g, g') reach t and -t twice each, so the average
    is (a^k + b^k) / 2, b = K(-t) - 1 the table's K - 1 at the mirror (the
    reversed grid): it is >= 0 for even k, and for odd k it is >= 0 iff
    a + b >= 0, because x -> x^k is increasing.  min_value is the least
    k = 1 average."""
    if model.is_discrete:
        tab = model.atom_table
        dev, mirror_dev = tab.dev, tab.mirror_dev
    else:
        dev, mirror_dev = model.kernel_table[1], model.kernel_table[1][::-1]
    vals = (dev + mirror_dev) / 2 if model.group.order == 2 else dev
    i = int(np.argmin(vals))  # the first minimum
    min_value = float(vals[i])
    passed = min_value >= -_CORRELATION_TOL
    point = model.law.atom_values([i])[0] if model.is_discrete else float(model.law.grid[i])
    return AssumptionReport(min_value, None if passed else point, passed)


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
    (b) when the r(q) tail mass is exact, GFP(q, m) <= rho_G-FP(q, m);
    (c) when the r(q) tail mass is exact and m is even,
        rho_G-FP(q, m) <= 3|G| (GFP - 1) + 1 + m chi^2 + (3/|G|)(1 + eps).

    Premises that fail are reported as 'premise-failed', not as
    violations.
    """
    _require_m(m)
    checks: dict = {}
    assumption = assumption_holds(model)
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
    # the strict event {rho_G < r(q)} holds 1 - q^-2 of the mass, so is
    # GFP-feasible, only when the r(q) tail mass is exact
    exact = rfp.threshold is not None and rfp.threshold.exact
    if exact:
        checks["gfp_le_rho_fp"] = {
            "status": "checked",
            "gfp": gfp.value,
            "rho_fp": rfp.value,
            "passed": gfp.value <= rfp.value * (1.0 + 1e-9) + 1e-12,
        }
    else:
        checks["gfp_le_rho_fp"] = {"status": "premise-failed", "passed": True}

    if exact and m % 2 == 0:
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

    passed = all(c["passed"] for c in checks.values() if isinstance(c, dict) and "passed" in c)
    return EquivalenceReport(checks=checks, passed=passed)
