"""Laws of the sufficient overlap statistic T(u, v) under pi x pi.

Every prior supported by the package factors its likelihood-ratio kernel
through a low-dimensional statistic of the signal pair (u, v): a scalar
overlap <u, v>, a support-intersection count |u n v|, or the coordinate
agreement triple (a, b, c).  This module represents the pushforward of
pi^{x2} through that statistic:

- a discrete law (OverlapLaw) is numpy arrays, built by one constructor
  (_discrete_law): its sorted values and each atom mass as p = f 2^e (f
  in [0.5, 1), e an integer), so no mass underflows; probs and
  log_probs are arrays computed from f and e.  Every combinatorial mass
  is the exact mass correctly rounded.  The rademacher_mean and
  hypergeometric masses come from one double-double prefix product of
  the exact ratios of consecutive masses (_chain_masses): mass i lies
  within (i + 4) 2^-100 relative of the exact one (plus the factors of a
  start mass that is itself such a product), and where that bound does
  not settle the rounding, the mass is rounded from exact integers.
  The signed_sparse numerators are the coefficients of
  sum_ell w_ell (x + 1/x)^ell over the intersection sizes ell, from one
  exact Horner recurrence on Python ints; they and the equality law's
  integers are each rounded once over their denominator (_round_ratio).
  No discrete law may have more than MAX_ATOMS atoms, and no
  signed_sparse law may take more than MAX_SIGNED_SPARSE_WORK, nor any
  equality law have n above MAX_EQUALITY_N (ResourceLimitError);
- the single continuous law, the sphere overlap (SphereLaw), is its
  exact Beta density, distribution function (an in-house incomplete Beta
  continued fraction, _beta_cf) and quantile, never a discretization.

On top of the laws sit the level objects the hardness criteria read: the
sup-threshold sup { c : P(g(T) >= c) >= mass } of a level function g,
with its boundary-atom behaviour (achieved mass, exactness flag), and
the event it cuts.  On a discrete law every threshold of a level
function g(T) (|<u,v>|, rho_G, |K - 1|) reads one Levels object: the
distinct levels of g(T) with correctly rounded tail masses, searched by
bisection, and every event is a cut in those levels (Levels.cut, with the
closed or the strict boundary).

On the continuous law every event is a level set {h >= c} of a function
h on the support, of any shape, found by one routine, LevelSets; where h
is even and rises in |t| it is {|T| >= tau}, tau the two-sided Beta
quantile 1 - 2 I^{-1}_{a,a}(mass / 2), a = (n - 1)/2, found once per mass
and law.  That quantile and the level search share one bracketing
root-finder, find_root.

Every expectation on the continuous law is one log-domain integral,
integral, in the angle asin T, whose density is smooth up to the ends at
every n: f comes in log form (log |f| and its sign), the integrand
sign f exp(log |f| + log density - M) is scaled by its peak M over the
nodes, and it is summed over the law's stored Gauss-Legendre panels
(the caller gives f at their nodes from a cached table) and at most two
partial panels per interval by gauss_legendre_panels, which
halves the panels its error test fails and refuses past a panel budget
(ResourceLimitError) rather than return a partial sum.

Priors, like the models, NGCA marginals and single-index links of
fpsq.kernels, come as JSON descriptors, each level read by read_descriptor
against its one table (PRIOR_KINDS here) before the kind's builder runs.

survival, threshold_sup and expect (on T itself) serve no criterion: they
are the entry points the benchmark's tracer wraps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from fpsq.numerics import exact_sum, log_sum_exp, normal_quantile

Statistic = float | tuple

# Relative slack of survival >= mass and of a level cut; absorbs 1-ulp float
# discrepancies when a caller passes a mass meant to hit an atom exactly.
REL_TOL = 1e-12

_ROOT_STEPS = 100  # find_root's step budget; ITP needs at most about 54
_LEVEL_TOL = 2.0**-46  # |log P(h >= c) - log mass| at which LevelSets.threshold's search stops
# Relative tolerance of every continuous-law integral: the two Gauss-Legendre
# orders of all panels together disagree by at most this times the integral
# of |f|.  Where rounding the exponent log|f| + log pdf alone perturbs the
# integrand by more (|exponent| above about 1e5, so only on overflow-log
# rows), that rounding level replaces it.
QUAD_REL_TOL = 1e-10
_PANEL_BUDGET = 500  # panels one integral may split into; then ResourceLimitError
_LN2 = math.log(2.0)
_CF_TERMS = 500  # continued-fraction steps one incomplete Beta may take; then ResourceLimitError
_CF_CENTER = 1.5  # the sphere CDF takes its central form where (a + 5/2) t^2 is below this
_ABOVE_MINUS_ONE = -1.0 + 2.0**-53  # the float next to -1
_LAGUERRE_FROM = 100.0  # the sphere law's tail takes Gauss-Laguerre from a = (n - 1)/2 on
# The most atoms a discrete law may have: the rademacher_mean law at n = 10^6
# and its atom table take about 0.5 GB
MAX_ATOMS = 2_000_000
# The most work a signed_sparse law may take, (k + 1)^2 bits(C(n, k) 2^k):
# the largest law it admits (n near 2k, the dearest shape per unit) builds in
# about 10 s on a 2-core x86 machine, (10^5, 1000) in about 0.15 s
MAX_SIGNED_SPARSE_WORK = 3.5e11
# The largest n the equality law admits: C(n, 9n/10), of about 0.47 n bits,
# takes math.comb about 9 s there on a 2-core x86 machine (0.7 s at n = 10^6)
MAX_EQUALITY_N = 4_000_000
_SPLITTER = 134217729.0  # 2^27 + 1, which splits a double into two 26-bit halves
_BLOCK = 8  # rows of the grid _dd_cumprod scans
_SHORT = 64  # _dd_cumprod multiplies this many factors or fewer one by one


class ResourceLimitError(ValueError):
    """A computation exceeds its size or step budget (CLI exit code 3)."""


@dataclass(frozen=True)
class ThresholdResult:
    """sup-threshold of a statistic, or of a level function of it, at a given tail mass.

    `exact` is True iff the survival function actually attains the
    requested mass at the threshold (relative tolerance 1e-12); when it
    is False the complementary event is strictly fatter than 1 - mass,
    which several equivalence statements treat as a failed premise.
    """

    threshold: float
    achieved_mass: float
    exact: bool


@dataclass(frozen=True, eq=False)
class OverlapLaw:
    """A discrete law of the overlap statistic under pi x pi.

    statistic: "scalar" or "pair_counts" (integer triples).  Its sorted
    values are a float array, or an (N, 3) integer array of pair counts;
    atom i has mass p = f[i] 2^e[i], f in [0.5, 1) (0 for a zero mass).
    _discrete_law builds and checks one.
    """

    statistic: str
    descriptor: dict
    values: np.ndarray
    f: np.ndarray
    e: np.ndarray

    @cached_property
    def log_probs(self) -> np.ndarray:
        """Natural log of each atom mass, log f + e log 2 (-inf for a zero mass)."""
        with np.errstate(divide="ignore"):
            return np.log(self.f) + self.e * _LN2

    @cached_property
    def probs(self) -> np.ndarray:
        """Atom masses as floats (0.0 below the float range)."""
        return np.ldexp(self.f, self.e)

    @cached_property
    def mirror(self) -> tuple[np.ndarray, np.ndarray]:
        """mirror_index of a scalar law's atoms, once per law."""
        return mirror_index(self.values)

    def atom_values(self, index=slice(None)) -> list[Statistic]:
        """The atoms at index (a slice, index array or mask) as Python
        values: floats, or (a, b, c) tuples of pair counts."""
        out = self.values[index].tolist()
        return list(map(tuple, out)) if self.statistic == "pair_counts" else out

    @property
    def atoms(self) -> list[tuple[Statistic, float]]:
        """(value, mass) of each atom as Python values, one pair per atom."""
        return list(zip(self.atom_values(), self.probs.tolist()))


def mirror_index(values) -> tuple[np.ndarray, np.ndarray]:
    """Per value t of a sorted array, the index of the value -t (its own
    where no value sits at -t) and the mask of those without one."""
    v = np.asarray(values, dtype=float)
    at = np.minimum(np.searchsorted(v, -v), len(v) - 1)
    lone = v[at] != -v
    return np.where(lone, np.arange(len(v)), at), lone


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def _binomial_row(n: int, upto: int) -> list[int]:
    """[C(n, 0), ..., C(n, upto)] by the exact recurrence."""
    row = [1]
    for j in range(upto):
        row.append(row[-1] * (n - j) // (j + 1))
    return row


def _round_ratio(num: int, den: int) -> tuple[float, int]:
    """num / den (positive integers, num <= den) correctly rounded, as (f, e)
    with f in [0.5, 1): scaled by a power of two into [2^63, 2^65) and divided
    once (int / int is correctly rounded), so every mass keeps 53 significant
    bits whatever its size."""
    s = den.bit_length() - num.bit_length() + 64
    f, e = math.frexp((num << s) / den)
    return f, e - s


def _log2_comb(n: int, k: int) -> float:
    """log2 C(n, k) from lgamma, a size estimate and never a mass: within a
    unit for k up to 10^6.  From n = 2^40 on, where lgamma(n + 1) -
    lgamma(n - s + 1) would cancel most of its digits, log C(n, s) (s =
    min(k, n - k)) is taken as s log n - log s!, which errs by under s^2/2n."""
    s = min(k, n - k)
    top = math.lgamma(n + 1) - math.lgamma(n - s + 1) if n < 2**40 else s * math.log(n)
    return (top - math.lgamma(s + 1)) / _LN2


def _check_atoms(count: int, kind: str) -> None:
    """Refuse a discrete law of more than MAX_ATOMS atoms before building it."""
    if count > MAX_ATOMS:
        raise ResourceLimitError(f"the {kind} law would have {count} atoms, more than "
                                 f"the {MAX_ATOMS} a discrete law may have")


# Double-double arithmetic (Dekker 1971), elementwise on floats or numpy
# arrays: a value is hi + lo with |lo| at most half an ulp of hi, about 106
# significant bits, here with its binary exponent e apart, hi in [0.5, 1),
# so that no product of many masses underflows.  u = 2^-53 below.


def _two_prod(a, b):
    """p = a b rounded and the exact rest a b - p, elementwise (Dekker's
    product: each factor split into halves of 26 bits)."""
    p = a * b
    t = a * _SPLITTER
    ah = t - (t - a)
    t = b * _SPLITTER
    bh = t - (t - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_mul(xh, xl, yh, yl):
    """(xh + xl)(yh + yl) as a double-double, within 7u^2 relative
    (Joldes, Muller & Popescu 2017, DWTimesDW1)."""
    ch, cl = _two_prod(xh, yh)
    cl = cl + (xh * yl + xl * yh)
    zh = ch + cl
    return zh, cl - (zh - ch)


def _dd_quotient(a, d):
    """a / d as a double-double for positive integers a, d below 2^53 (held
    as floats), within u^2 relative: q = a / d rounded, the remainder
    a - q d exactly (it is a float), and that remainder over d rounded."""
    q = a / d
    p, rest = _two_prod(q, d)
    return q, ((a - p) - rest) / d


def _dd_normalized(hi, lo, e):
    """(hi + lo) 2^e rescaled exactly so that hi lies in [0.5, 1)."""
    m, k = np.frexp(hi)
    return m, np.ldexp(lo, -k), e + k


def _dd_cumprod(hi, lo, e):
    """Inclusive prefix products of the double-doubles (hi + lo) 2^e, hi in
    [0.5, 1), in the same form.  The factors are laid out as the columns of
    a _BLOCK-row grid; one pass down the rows gives each column's prefix
    products (at least 2^-_BLOCK, so far from underflow), the column totals
    get their own prefix products by recursion, and one more pass multiplies
    each column by the totals before it.  Up to _SHORT factors are instead
    multiplied one by one, on Python floats (cheaper than numpy calls on a
    few elements; the same arithmetic).  Every product is a tree over the
    factors it covers, so product i comes from i multiplications."""
    n = len(hi)
    if n <= _SHORT:
        h, l = hi.tolist(), lo.tolist()
        for i in range(1, n):
            h[i], l[i] = _dd_mul(h[i - 1], l[i - 1], h[i], l[i])
        return _dd_normalized(np.array(h), np.array(l), np.cumsum(e))
    cols = -(-n // _BLOCK)

    def grid(x, one):  # pad with 1 = 0.5 * 2^1, which no real product reads
        pad = np.full(_BLOCK * cols - n, one, dtype=x.dtype)
        return np.concatenate([x, pad]).reshape(cols, _BLOCK).T.copy()

    h, l, e = grid(hi, 0.5), grid(lo, 0.0), grid(e, 1)
    for r in range(1, _BLOCK):
        h[r], l[r] = _dd_mul(h[r - 1], l[r - 1], h[r], l[r])
    e = np.cumsum(e, axis=0)
    th, tl, te = _dd_cumprod(*_dd_normalized(h[-1, :-1], l[-1, :-1], e[-1, :-1]))
    h[:, 1:], l[:, 1:] = _dd_mul(h[:, 1:], l[:, 1:], th, tl)
    e[:, 1:] += te
    return _dd_normalized(h.T.ravel()[:n], l.T.ravel()[:n], e.T.ravel()[:n])


def _chain_masses(start: tuple[float, float, int], hi: np.ndarray, lo: np.ndarray,
                  exact: Callable[[int], tuple[float, int]],
                  start_factors: int) -> tuple[np.ndarray, np.ndarray]:
    """The correctly rounded masses f 2^e (f in [0.5, 1)) of atoms 0, 1, ...,
    given the mass of atom 0, start = (hi, lo, e), a product of start_factors
    double-doubles, and the ratios hi + lo of each further mass to the one
    before.

    The double-double masses come from one prefix product (_dd_cumprod).  Mass
    i is a product of i + start_factors double-doubles, each within 9u^2 of
    its exact value (_dd_quotient, or a product of two quotients),
    by i + start_factors - 1 multiplications within 7u^2 each: within
    (i + start_factors) 16u^2 < (i + start_factors + 3) 2^-100 of the exact
    mass.  Where that bound keeps the mass off every rounding midpoint, the
    double-double's hi is the correctly rounded mass (Ziv 1991); the gap
    below f = 0.5 is half as wide.  Every other mass is exact(i), the mass
    rounded from exact integers."""
    f, l, e = _dd_cumprod(*_dd_normalized(np.concatenate(([start[0]], hi)), np.concatenate(([start[1]], lo)),
                                          np.concatenate(([start[2]], np.zeros(len(hi), dtype=np.int64)))))
    bound = (np.arange(len(f)) + start_factors + 3.0) * 2.0**-100  # absolute in f, as f < 1
    half_gap = np.where((f == 0.5) & (l < 0.0), 2.0**-55, 2.0**-54)
    for i in np.flatnonzero(np.abs(l) + bound >= half_gap).tolist():
        f[i], e[i] = exact(i)
    return f, e


def _discrete_law(descriptor: dict, statistic: str, values, f, e, exact: bool) -> OverlapLaw:
    """The discrete law with atoms at values (floats, or rows of pair counts)
    and masses f 2^e (arrays or sequences), its atoms sorted by value
    (np.unique); equal values merge into one atom, whose float mass sums
    theirs in the order given.  The masses must sum to 1: within 2^-51
    where each is an exact mass correctly rounded (exact; 2^-53 relative
    each), else AssertionError, a fault of the builder; within 1e-12 for
    float masses, else ValueError."""
    f, e = np.asarray(f), np.asarray(e)
    values, inverse = np.unique(values, axis=0 if statistic == "pair_counts" else None, return_inverse=True)
    inverse = inverse.ravel()
    if len(values) < len(inverse):
        f, e = np.frexp(np.bincount(inverse, weights=np.ldexp(f, e), minlength=len(values)))
    else:  # a permutation: the masses are sorted with the values, none rounded
        order = np.argsort(inverse)
        f, e = f[order], e[order]
    if np.any(f < 0.0):
        raise ValueError("atom probabilities must be nonnegative")
    total = exact_sum(np.ldexp(f, e))
    if abs(total - 1.0) > (2.0**-51 if exact else 1e-12):
        error = AssertionError if exact else ValueError
        raise error(f"the atom masses of {descriptor} sum to {total}, not 1")
    return OverlapLaw(statistic=statistic, descriptor=descriptor, values=values, f=f, e=e)


def hypergeometric_law(n: int, k: int) -> OverlapLaw:
    """|u n v| for two independent uniform k-subsets (or binary k-sparse
    vectors) of [n]: pmf C(k, l) C(n-k, k-l) / C(n, k) on l >= low = max(0,
    2k - n), from the exact ratios [(k - l)/(l + 1)] [(k - l)/(n - 2k + l +
    1)] of each mass to the one before (_chain_masses).  The mass at low is
    the product of the s = min(k, n - k) exact ratios (n - s - j)/(n - j),
    j < s; C(n, k) is read only where a mass's rounding is ambiguous."""
    if n <= 0 or k <= 0:
        raise ValueError(f"need n, k positive, got n={n}, k={k}")
    if k > n:
        raise ValueError(f"need k <= n, got k={k} > n={n}")
    if n >= 2**53:
        raise ValueError(f"need n below 2^53, where the mass ratios are exact floats, got n={n}")
    low = max(0, 2 * k - n)
    _check_atoms(k - low + 1, "hypergeometric")
    s = min(k, n - k)
    j = np.arange(s, dtype=float)
    start = _dd_cumprod(*_dd_normalized(*_dd_quotient(n - s - j, n - j), np.zeros(s, dtype=np.int64)))
    ell = np.arange(low, k, dtype=float)
    ratios = _dd_mul(*_dd_quotient(k - ell, ell + 1.0), *_dd_quotient(k - ell, n - 2.0 * k + ell + 1.0))
    f, e = _chain_masses(tuple(x[-1] for x in start) if s else (1.0, 0.0, 0), *ratios,
                         lambda i: _round_ratio(math.comb(k, low + i) * math.comb(n - k, k - low - i),
                                                math.comb(n, k)), max(s, 1))
    return _discrete_law({"kind": "hypergeometric", "n": n, "k": k}, "scalar",
                         np.arange(low, k + 1, dtype=float), f, e, exact=True)


def signed_sparse_law(n: int, k: int) -> OverlapLaw:
    """<u, v> for u, v uniform on +-1/sqrt(k)-valued k-sparse vectors.

    Conditional on an intersection of size ell (hypergeometric), the dot
    product is (2B - ell)/k with B ~ Bin(ell, 1/2); atoms live on the
    grid j/k, j in [-k, k].  Over the common denominator C(n, k) 2^k, the
    mass at j/k is the coefficient of x^j in sum_ell w_ell (x + 1/x)^ell,
    w_ell = C(k, ell) C(n - k, k - ell) 2^(k - ell): one exact Horner
    recurrence on Python ints, from ell = k down to 0 (multiply by
    x + 1/x, then add w_ell), each step one vectorized add over the
    band |j| <= k - ell.  The sum is even in j, so only j >= 0 is built
    and rounded (_round_ratio), and mirrored.  ResourceLimitError past
    MAX_SIGNED_SPARSE_WORK.
    """
    if n <= 0 or k <= 0 or k > n:
        raise ValueError(f"invalid signed_sparse parameters n={n}, k={k}")
    _check_atoms(2 * k + 1, "signed_sparse")
    work = (k + 1) ** 2 * (_log2_comb(n, k) + k)  # about (k + 1)^2 / 2 adds of up to bits(C(n, k) 2^k) bits
    if work > MAX_SIGNED_SPARSE_WORK:
        raise ResourceLimitError(f"the signed_sparse law at n={n}, k={k} would take about {work:.3g} "
                                 f"bit operations, more than the {MAX_SIGNED_SPARSE_WORK:.3g} allowed")
    inner, outer = _binomial_row(k, k), _binomial_row(n - k, k)
    r = np.zeros(k + 2, dtype=object)  # r[j] = coefficient of x^j (and of x^-j); r[k + 1] stays 0
    for ell in range(k, -1, -1):
        h = k - ell  # the degree after this step
        r[0], r[1:h + 1] = r[1] << 1, r[:h] + r[2:h + 2]
        r[0] += (inner[ell] * outer[k - ell]) << (k - ell)
    den = math.comb(n, k) << k
    rounded = {j: _round_ratio(num, den) for j, num in enumerate(r[:-1].tolist()) if num > 0}
    js = [-j for j in reversed(rounded) if j] + list(rounded)
    return _discrete_law({"kind": "signed_sparse", "n": n, "k": k}, "scalar", np.array(js) / k,
                         *zip(*(rounded[abs(j)] for j in js)), exact=True)


def rademacher_mean_law(n: int) -> OverlapLaw:
    """<u, v> = n^{-1} sum_i eps_i for u, v uniform on {-1/sqrt(n), 1/sqrt(n)}^n:
    a shifted binomial on the grid (2b - n)/n, masses C(n, b) / 2^n, from the
    exact mass 2^-n and the ratios (n - b)/(b + 1) of each mass to the one
    before (_chain_masses) up to b = n/2, mirrored beyond."""
    if n <= 0:
        raise ValueError(f"need n positive, got {n}")
    _check_atoms(n + 1, "rademacher_mean")
    b = np.arange(n // 2, dtype=float)
    f, e = _chain_masses((1.0, 0.0, -n), *_dd_quotient(n - b, b + 1.0),
                         lambda i: _round_ratio(math.comb(n, i), 1 << n), 1)
    rest = n + 1 - len(f)  # C(n, b) = C(n, n - b)
    return _discrete_law({"kind": "rademacher_mean", "n": n}, "scalar", (2 * np.arange(n + 1) - n) / n,
                         np.concatenate((f, f[rest - 1::-1])), np.concatenate((e, e[rest - 1::-1])), exact=True)


def _pair_class_law(descriptor: dict, statistic: str, values: np.ndarray, rho_p: float) -> OverlapLaw:
    """The statistic of a two-point prior (point 1 w.p. rho_p) at its three
    pair classes, values = (T(1,1), T(2,2), T(mixed)), of masses rho_p^2,
    (1-rho_p)^2 and 2 rho_p (1-rho_p); a class of zero mass is no atom."""
    if not 0.0 <= rho_p <= 1.0:
        raise ValueError(f"rho_p must lie in [0, 1], got {rho_p}")
    p = np.array([rho_p * rho_p, (1 - rho_p) ** 2, 2 * rho_p * (1 - rho_p)])
    return _discrete_law(descriptor, statistic, values[p > 0.0], *np.frexp(p[p > 0.0]), exact=False)


def two_point_law(rho_p: float, stat_values: Sequence[float]) -> OverlapLaw:
    """Scalar statistic of a two-point prior: point 1 w.p. rho_p, and
    stat_values = (T(1,1), T(2,2), T(mixed))."""
    if len(stat_values) != 3:
        raise ValueError(f"two_point values must be (T(1,1), T(2,2), T(mixed)), got {stat_values}")
    v11, v22, vmix = stat_values
    return _pair_class_law({"kind": "two_point", "rho_p": rho_p, "values": [v11, v22, vmix]}, "scalar",
                           np.array([v11, v22, vmix], dtype=float), rho_p)


def pair_counts_law(n: int, rho_p: float) -> OverlapLaw:
    """Agreement-count triple (a, b, c) = (#{u_i=v_i=0}, #{u_i!=v_i},
    #{u_i=v_i=1}) over n+1 coordinates for the two-point prior
    {e_0 w.p. rho_p, 1 - e_0 w.p. 1-rho_p}."""
    if not 0 < n < 2**53:
        raise ValueError(f"need n positive and below 2^53, where the counts are exact floats, got n={n}")
    return _pair_class_law({"kind": "pair_counts", "n": n, "rho_p": rho_p}, "pair_counts",
                           np.array([(n, 0, 1), (1, 0, n), (0, n + 1, 0)]), rho_p)


def equality_law(n: int) -> OverlapLaw:
    """Equality indicator 1(u = v) for a uniform prior on the slice of
    {-1,1}^n with 9n/10 positive coordinates (n divisible by 10).
    ResourceLimitError past MAX_EQUALITY_N."""
    if n <= 0 or n % 10 != 0:
        raise ValueError(f"need n positive and divisible by 10, got {n}")
    if n > MAX_EQUALITY_N:
        raise ResourceLimitError(f"the equality law at n={n} would take C(n, 9n/10) past the "
                                 f"largest n, {MAX_EQUALITY_N}, it admits")
    size = math.comb(n, 9 * n // 10)
    return _discrete_law({"kind": "equality", "n": n}, "scalar", [0.0, 1.0],
                         *zip(_round_ratio(size - 1, size), _round_ratio(1, size)), exact=True)


def atoms_law(values: Sequence[float], probs: Sequence[float]) -> OverlapLaw:
    """Synthetic discrete law from explicit atoms (testing / CLI)."""
    if len(values) != len(probs) or not values:
        raise ValueError("values and probs must be nonempty and of equal length")
    return _discrete_law({"kind": "atoms", "values": list(values), "probs": list(probs)}, "scalar",
                         np.asarray(values, dtype=float), *np.frexp(np.asarray(probs, dtype=float)),
                         exact=False)


# Coefficients of the asymptotic series log Gamma(a + 1/2) - log Gamma(a) =
# log(a)/2 + sum_k c_k a^{1-k} over even k, c_k = (2^{1-k} - 2) B_k / (k (k - 1))
# with B_k the Bernoulli numbers; from a = 12 the first omitted term is below 2e-16.
_GAMMA_RATIO_SERIES = tuple(
    (2.0 ** (1 - k) - 2.0) * b / (k * (k - 1))
    for k, b in ((2, 1 / 6), (4, -1 / 30), (6, 1 / 42), (8, -1 / 30), (10, 5 / 66), (12, -691 / 2730)))


# round(sqrt(pi) 2^106), for the exact products of _log_gamma_ratio
_SQRT_PI_2_106 = 143798540030541697080757192242551


def _log_gamma_ratio(a: float) -> float:
    """log Gamma(a + 1/2) - log Gamma(a) for a = (n - 1)/2 within a few ulp.
    Below 12 the ratio is an exact product from Gamma(1)/Gamma(1/2) =
    1/sqrt(pi) or Gamma(3/2)/Gamma(1) = sqrt(pi)/2 by Gamma(b + 3/2)/Gamma(b + 1)
    = (b + 1/2)/b Gamma(b + 1/2)/Gamma(b); its difference from 1 is rounded
    once from integers (sqrt(pi) to 2^-106), so log1p loses nothing where the
    ratio is near 1.  From 12 on, the asymptotic series above, which does not
    cancel."""
    if a >= 12.0:
        inv2 = a**-2
        return 0.5 * math.log(a) + math.fsum(c * inv2 ** (i + 0.5) for i, c in enumerate(_GAMMA_RATIO_SERIES))
    twice = int(2.0 * a)  # n - 1
    if twice != 2.0 * a or twice < 1:
        raise ValueError(f"_log_gamma_ratio needs a = (n - 1)/2 for an integer n >= 2, got {a}")
    num = den = 1
    for j in range(2 - twice % 2, twice, 2):  # factors (j + 1)/j over b = j/2 from 1/2 or 1 up to a - 1
        num, den = num * (j + 1), den * j
    one = 1 << 106
    if twice % 2:  # the ratio is num / (den sqrt(pi))
        top, bottom = num * one, den * _SQRT_PI_2_106
    else:  # (num sqrt(pi)) / (2 den)
        top, bottom = num * _SQRT_PI_2_106, 2 * den * one
    return math.log1p((top - bottom) / bottom)


def _beta_cf(p: float, q: float, x: float) -> float:
    """The continued fraction of I_x(p, q) = x^p (1 - x)^q / (p B(p, q)) cf
    (DLMF 8.17.22) by the modified Lentz method, for x below
    (p + 1)/(p + q + 2), where it converges fast.  ResourceLimitError past
    _CF_TERMS steps."""
    qab, qap, qam = p + q, p + 1.0, p - 1.0
    d = 1.0 / (1.0 - qab * x / qap or 1e-300)
    c, h = 1.0, d
    for m in range(1, _CF_TERMS):
        m2 = 2 * m
        aa = m * (q - m) * x / ((qam + m2) * (p + m2))
        d = 1.0 / (1.0 + aa * d or 1e-300)
        c = 1.0 + aa / c or 1e-300
        h *= d * c
        aa = -(p + m) * (qab + m) * x / ((p + m2) * (qap + m2))
        d = 1.0 / (1.0 + aa * d or 1e-300)
        c = 1.0 + aa / c or 1e-300
        step = d * c
        h *= step
        if abs(step - 1.0) <= 2.0**-53:
            return h
    raise ResourceLimitError(f"the incomplete Beta continued fraction at p={p}, q={q}, x={x} "
                             f"did not converge in {_CF_TERMS} steps")


@dataclass(frozen=True, eq=False)
class SphereLaw:
    """<u, v> for u, v uniform on the unit sphere in R^n: the first coordinate
    of a uniform sphere point, T = 2X - 1 with X ~ Beta(a, a), a = (n - 1)/2,
    density proportional to (1 - t^2)^{(n-3)/2} on [-1, 1], symmetric about
    0 (which the |t| closed forms use).  It caches on first use the
    integrals' panels in the angle asin T (edges, nodes) and their grid."""

    n: int
    a: float = field(init=False)
    log_norm: float = field(init=False)  # log of the density's normalizer
    log_tail_norm: float = field(init=False)  # log_norm - log(2a), log_cdf's prefactor
    scale: float = field(init=False)  # the spread about 0, the standard deviation of T
    # each quantile ppf has found, by p (the FP, rho_G-FP, GFP and SQ cells at one q share one)
    quantiles: dict = field(init=False, default_factory=dict, repr=False)
    statistic = "scalar"
    support = (-1.0, 1.0)
    values = np.empty(0)  # no atoms: len(law.values) counts any law's atoms

    def __post_init__(self) -> None:
        if not 2 <= self.n < 2**53:  # below 2^53, (n - 1)/2 is an exact float
            raise ValueError(f"sphere law needs 2 <= n < 2^53, got n={self.n}")
        a = 0.5 * (self.n - 1)
        # 1 / (2^{n-2} B(a, a)) = Gamma(a + 1/2) / (Gamma(a) sqrt(pi)), the density's normalizer
        log_norm = _log_gamma_ratio(a) - 0.5 * math.log(math.pi)
        for key, value in (("a", a), ("log_norm", log_norm), ("log_tail_norm", log_norm - math.log(2.0 * a)),
                           ("scale", self.n**-0.5)):
            object.__setattr__(self, key, value)

    @cached_property
    def grid(self) -> np.ndarray:
        """The support's one grid, sorted: the t of every stored node (nodes)
        and -1, 0 and 1.  The nodes mirror about 0 bit for bit (the panels
        and Gauss rules do, and sin is odd), so the grid is symmetric, of
        odd length, with 0 at its middle."""
        return np.sort(np.concatenate((self.nodes[0].ravel(), (-1.0, 0.0, 1.0))))

    @cached_property
    def edges(self) -> np.ndarray:
        """The stored panels' edges in the angle theta = asin t, from -pi/2 to
        pi/2: +-scale 2^(k/2) (k = 0, 1, ...) below 1.25, so a law
        concentrated at its scale passes the 20/40 test without splitting."""
        up = self.scale * 2.0 ** (0.5 * np.arange(56))  # past 1.25 for every n below 2^53
        up = up[up < 1.25]  # each end panel is over 0.32 wide
        return np.concatenate(([-0.5 * math.pi], -up[::-1], up, [0.5 * math.pi]))

    @cached_property
    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """t and the log density of the angle (_angle_terms) at every node, one
        row per stored panel: its 20 then its 40 Gauss-Legendre nodes."""
        return _angle_terms(self, _panel_nodes(np.column_stack((self.edges[:-1], self.edges[1:]))))

    def log_pdf(self, t):
        """The log density at t, a float or an array of points."""
        a = self.a
        s = np.abs(np.asarray(t, dtype=float))
        with np.errstate(divide="ignore", invalid="ignore"):
            # log(1 - t^2) to a few ulp: log1p(-t^2) near 0, the factored form near |t| = 1
            log_s = np.where(s < 0.5, np.log1p(-s * s), np.log((1.0 - s) * (1.0 + s)))
            out = (a - 1.0) * log_s + self.log_norm if a != 1.0 else np.full_like(s, self.log_norm)
        return np.where(s > 1.0, -np.inf, out)[()]

    def log_cdf(self, t: float) -> float:
        """log P(T <= t), for t > 0 from 1 - P(T <= -t).  For t <= 0,
        P = I_x(a, a) at x = (1 + t)/2 is a prefactor, whose log is
        a log(1 - t^2) + log_tail_norm, times J, in one of three forms:
        - central, (a + 5/2) t^2 < _CF_CENTER: P = 1/2 - I_{t^2}(1/2, a)/2
          instead (T^2 ~ Beta(1/2, a)), by _beta_cf;
        - a < _LAGUERRE_FROM: J = _beta_cf(a, a, x);
        - beyond: J = int_0^inf e^-v (t^2 + (1 - t^2)(1 - e^{-v/a}))^{-1/2} dv,
          the tail integral with 1 - y^2 = (1 - t^2) e^{-v/a}, by
          Gauss-Laguerre.  It reads t itself, where the continued fraction
          reads the rounded x and loses about 2^-53/|t| relative."""
        if t > 0.0:
            return math.log1p(-math.exp(self.log_cdf(-t)))
        if t <= -1.0:
            return -math.inf
        a, w = self.a, t * t
        if (a + 2.5) * w < _CF_CENTER:
            return math.log(0.5 + t * math.exp(a * math.log1p(-w) + self.log_norm) * _beta_cf(0.5, a, w))
        if a < _LAGUERRE_FROM:
            tail = _beta_cf(a, a, 0.5 + 0.5 * t)
        else:
            v, weights = _LAGUERRE
            tail = float(weights @ (w + (1.0 - w) * -np.expm1(v / -a)) ** -0.5)
        log_s = math.log1p(-w) if t > -0.5 else math.log((1.0 - t) * (1.0 + t))
        return a * log_s + self.log_tail_norm + math.log(tail)

    def cdf(self, t: float) -> float:
        """P(T <= t); above 0 as 1 - P(T <= -t) (the law is symmetric)."""
        return math.exp(self.log_cdf(t)) if t <= 0.0 else -math.expm1(self.log_cdf(-t))

    def ppf(self, p: float) -> float:
        """inf { t : P(T <= t) >= p }, found once per p and law below 1/2:
        find_root on log P - log p, bracketed from a Student-t guess
        (sqrt(n - 1) T / sqrt(1 - T^2) is Student t with n - 1 degrees of
        freedom) by doubling or halving log(1 - t^2)."""
        if p > 0.5:
            return -self.ppf(1.0 - p)  # exact for p > 1/2
        if not 0.0 < p < 0.5:
            return 0.0 if p == 0.5 else -1.0
        if p in self.quantiles:
            return self.quantiles[p]
        log_p = math.log(p)
        f = lambda t: self.log_cdf(t) - log_p

        def at(u: float) -> tuple[float, float]:
            t = max(-math.sqrt(-math.expm1(u)), _ABOVE_MINUS_ONE)
            return t, f(t)

        z2 = normal_quantile(p) ** 2
        u = math.log1p(-z2 / (z2 + 2.0 * self.a))  # log(1 - t^2) of the guess
        t, ft = at(u)
        scale = 0.5 if ft < 0.0 else 2.0  # toward 0 while f < 0, toward -1 while f >= 0
        while True:
            u *= scale
            s, fs = at(u)
            if (fs < 0.0) != (ft < 0.0) or s == _ABOVE_MINUS_ONE:
                break
            t, ft = s, fs
        (lo, f_lo), (hi, f_hi) = sorted(((t, ft), (s, fs)), key=lambda pair: pair[1])
        # -1 where f >= 0 even next to -1, so no step changed its sign
        self.quantiles[p] = find_root(f, lo, hi, f_lo, f_hi)[1] if (fs < 0.0) != (ft < 0.0) else -1.0
        return self.quantiles[p]


sphere_law = SphereLaw  # the sphere prior's builder, named like the other laws'


def _whole(value) -> int | None:
    """An integer of any size, or a float with no fractional part; no bool."""
    whole = isinstance(value, (int, np.integer)) or isinstance(value, float) and value.is_integer()
    return int(value) if whole and not isinstance(value, bool) else None


def _real(value) -> float | None:
    """A finite number; no bool, and no int past the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _reals(value) -> list[float] | None:
    out = [_real(v) for v in value] if isinstance(value, (list, tuple)) else [None]
    return None if None in out else out


# the descriptor field types: (what messages call it, reader of a JSON value, None where it is not one)
WHOLE = ("a whole number", _whole)
REAL = ("a finite real", _real)
REALS = ("a list of finite reals", _reals)
OBJECT = ("an object", lambda value: value if isinstance(value, dict) else None)
NAME = ("a string", lambda value: value if isinstance(value, str) else None)


def read_field(spec: dict, key: str, field_type: tuple, *default):
    """spec[key] as field_type = (what, read) reads it, or the default, if given,
    where key is absent; else ValueError "'key' must be <what>, got <value>"."""
    if default and key not in spec:
        return default[0]
    what, read = field_type
    value = read(spec.get(key))
    if value is None:
        raise ValueError(f"{key!r} must be {what}, got {spec.get(key)!r}")
    return value


def read_descriptor(spec, kinds: dict, tag: str = "kind") -> tuple[str, dict]:
    """(kind, fields) of a descriptor against kinds, a table {kind: ({field:
    (type[, default])}, builder)}: spec is an object whose tag names a kind,
    with no field that kind lacks, and fields maps each of the kind's fields
    to its value (read_field).  ValueError otherwise."""
    if not isinstance(spec, dict):
        raise ValueError(f"a descriptor must be an object with a {tag!r} field, got {spec!r}")
    kind = spec.get(tag)
    if not (isinstance(kind, str) and kind in kinds):
        raise ValueError(f"{tag!r} must be one of {', '.join(map(repr, kinds))}, got {kind!r}")
    schema = kinds[kind][0]
    for key in spec:
        if key != tag and key not in schema:
            raise ValueError(f"unknown field {key!r} for {tag} {kind!r} (fields: {', '.join(schema) or 'none'})")
    return kind, {key: read_field(spec, key, *entry) for key, entry in schema.items()}


def build_descriptor(spec, kinds: dict):
    """What the builder of the kind spec names makes of its fields (read_descriptor)."""
    kind, fields = read_descriptor(spec, kinds)
    return kinds[kind][1](fields)


PRIOR_KINDS = {  # kind: ({field: (type[, default])}, builder of the law)
    "hypergeometric": ({"n": (WHOLE,), "k": (WHOLE,)}, lambda f: hypergeometric_law(f["n"], f["k"])),
    "signed_sparse": ({"n": (WHOLE,), "k": (WHOLE,)}, lambda f: signed_sparse_law(f["n"], f["k"])),
    "rademacher_mean": ({"n": (WHOLE,)}, lambda f: rademacher_mean_law(f["n"])),
    "sphere": ({"n": (WHOLE,)}, lambda f: sphere_law(f["n"])),
    "two_point": ({"rho_p": (REAL,), "values": (REALS,)}, lambda f: two_point_law(f["rho_p"], f["values"])),
    "pair_counts": ({"n": (WHOLE,), "rho_p": (REAL,)}, lambda f: pair_counts_law(f["n"], f["rho_p"])),
    "equality": ({"n": (WHOLE,)}, lambda f: equality_law(f["n"])),
    "atoms": ({"values": (REALS,), "probs": (REALS,)}, lambda f: atoms_law(f["values"], f["probs"])),
}


def make_law(spec: dict) -> OverlapLaw | SphereLaw:
    """Build the law of a prior descriptor (see PRIOR_KINDS)."""
    return build_descriptor(spec, PRIOR_KINDS)


# ---------------------------------------------------------------------------
# Survival / thresholds / expectations
# ---------------------------------------------------------------------------


def survival(law: OverlapLaw | SphereLaw, r: float) -> float:
    """P(T >= r) of a scalar statistic."""
    if isinstance(law, SphereLaw):
        return law.cdf(-r)  # symmetric law: no cancellation in the upper tail
    return exact_sum(law.probs[law.values >= r])


@dataclass(frozen=True)
class Levels:
    """A level function g(T) on a discrete law, from one stable sort of its
    values: order, the atoms in level order (ties in atom order); starts,
    the position in order of each level's first atom, then the atom count;
    the distinct levels r_0 < r_1 < ...; the mass of each level; and the
    tail masses tails[i] = P(g(T) >= r_i), each the level masses from i up
    summed exactly and rounded once (_suffix_sums), so they never increase.
    The atoms of levels 0..c-1 are order[:starts[c]].  Every discrete
    sup-threshold and event reads these."""

    order: np.ndarray
    starts: np.ndarray
    levels: np.ndarray
    mass: np.ndarray
    tails: np.ndarray

    @classmethod
    def of(cls, values: Sequence[float], probs: Sequence[float]) -> Levels:
        values = np.asarray(values, dtype=float)
        order = values.argsort(kind="stable").astype(np.int32)  # int32 holds MAX_ATOMS
        ranked = values[order]
        new = ranked[1:] != ranked[:-1]
        starts = np.flatnonzero(np.concatenate(([True], new, [True]))).astype(np.int32)
        levels = ranked[starts[:-1]]
        # the sort is stable, so bincount adds each level's masses in atom order
        level_of = np.concatenate(([0], np.cumsum(new)))
        mass = np.bincount(level_of, weights=np.asarray(probs, dtype=float)[order], minlength=len(levels))
        # the levels above the last with mass (most of them where masses underflow) have tail 0
        live = len(mass) - int(np.argmax(mass[::-1] > 0.0))
        tails = np.zeros(len(mass))
        tails[:live] = _suffix_sums(mass[:live])
        return cls(order, starts, levels, mass, tails)

    def tail(self, i: int, mass: float) -> ThresholdResult:
        """Level i and its tail mass, exact if `mass` up to relative 1e-12."""
        achieved = float(self.tails[i])
        return ThresholdResult(float(self.levels[i]), achieved, math.isclose(achieved, mass, rel_tol=REL_TOL))

    def threshold(self, mass: float) -> ThresholdResult:
        """sup { r : P(g(T) >= r) >= mass }: the highest level whose tail
        mass is >= mass up to the relative slack 1e-12 (the lowest level
        when none is).  As tails are >= 0, t < mass - 1e-12 max(t, mass)
        holds exactly where t < mass - 1e-12 mass."""
        short = int(self.tails[::-1].searchsorted(mass - REL_TOL * mass))  # the tails below mass, less the slack
        return self.tail(max(len(self.tails) - short - 1, 0), mass)

    def cut(self, c: float, strict: bool = False) -> int:
        """The event below c, as the number of levels l <= c + 1e-12 max(|l|, |c|)
        (closed; a prefix of the finite levels) or l < c (1 - 1e-12) (strict):
        the atoms order[:starts[cut]]."""
        if strict:
            return int(self.levels.searchsorted(c * (1.0 - REL_TOL)))
        return int(np.count_nonzero(self.levels <= c + REL_TOL * np.maximum(np.abs(self.levels), abs(c))))


def _two_sum_error(a: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(a + b) - s exactly for s = fl(a + b), barring overflow: Knuth's
    TwoSum, (a - (s - v)) + (b - v) with v = s - a, in two buffers."""
    b_virtual = s - a
    err = s - b_virtual
    np.subtract(a, err, out=err)
    b_virtual -= b
    err -= b_virtual
    return err


def _suffix_sums(x: np.ndarray) -> np.ndarray:
    """sum(x[i:]) for each i of a nonnegative array, each the exact sum
    correctly rounded, from one error-free prefix scan over the reversed
    x: the running sums s, the exact error of each step (TwoSum), a
    running sum c of those errors, and t = s + c (Sum2 of Ogita, Rump and
    Oishi, SIAM J. Sci. Comput. 26:1955, 2005, in prefix form).  The exact
    sum is t + f + (E - c), f the exact error of s + c and E the exact sum
    of the errors, with |E - c| <= u sum_j |c_j| (u = 2^-53, each step of
    c off by at most u |c_j|).  Where E may differ from c and |f| plus that
    bound may reach half the gap from t down to the next float (the
    smaller gap, as t >= 0), the rounding is ambiguous and the sum comes
    from exact_sum."""
    r = np.asarray(x, dtype=float)[::-1]
    s = np.add.accumulate(r)
    before = np.empty_like(s)
    before[:1], before[1:] = 0.0, s[:-1]
    c = np.add.accumulate(_two_sum_error(before, r, s))
    t = s + c
    bound = np.abs(c)
    np.add.accumulate(bound, out=bound)
    bound *= 2.0**-51  # 4x the bound: 2x covers the rounding of the test below
    f = np.abs(_two_sum_error(s, c, t), out=c)
    f += bound
    f *= 2.0
    gap = np.nextafter(t, -math.inf, out=s)
    np.subtract(t, gap, out=gap)
    for k in np.flatnonzero(f >= gap).tolist():
        if bound[k] > 0.0:  # else c = E, and t = fl(s + E) is the exact sum rounded
            t[k] = exact_sum(r[: k + 1])
    return t[::-1]


def find_root(f: Callable[[float], float], a: float, b: float, fa: float, fb: float, f_tol: float = 0.0):
    """Bracket (a', b') of the sign change of a monotone f, with
    f(a') < 0 <= f(b'), shrunk to float resolution (|b' - a'| <= 2^-51
    max(|a|, |b|)), to (x, x) at a point x with |f(x)| < f_tol, or until
    _ROOT_STEPS evaluations are spent.  a may lie on either side of b.
    ITP steps (Oliveira and Takahashi, ACM TOMS 47, 2021): regula falsi,
    truncated toward the midpoint and projected into a shrinking
    bisection radius, so no run takes more steps than bisection and
    smooth f converge superlinearly (about 10 steps).  An infinite f at
    an end (no mass left, say) makes that step a bisection."""
    if fa >= 0.0:
        return a, a
    tol = 2.0**-52 * max(abs(a), abs(b))
    width = abs(b - a)
    n_max = math.ceil(math.log2(max(width / tol, 1.0))) if tol > 0.0 else 0
    k1 = 0.2 / width if width > 0.0 else 0.0
    for j in range(_ROOT_STEPS):
        width = abs(b - a)
        if width <= 2.0 * tol:
            break
        mid = 0.5 * (a + b)
        x_f = (a * fb - b * fa) / (fb - fa) if math.isfinite(fb - fa) else mid
        sigma = math.copysign(1.0, mid - x_f)
        delta = k1 * width * width
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        radius = tol * 2.0 ** (n_max - j) - 0.5 * width
        x = x_t if abs(x_t - mid) <= radius else mid - sigma * radius
        x = min(max(x, min(a, b) + tol), max(a, b) - tol)  # move by at least tol
        y = f(x)
        if abs(y) < f_tol:
            return x, x
        if y >= 0.0:
            b, fb = x, y
        else:
            a, fa = x, y
    return a, b


def check_mass(mass: float) -> None:
    """Refuse a tail mass outside (0, 1], up to 1-ulp slack above 1."""
    if not 0.0 < mass <= 1.0 + REL_TOL:
        raise ValueError(f"mass must lie in (0, 1], got {mass}")


def _log_between(law: SphereLaw, a: float, b: float) -> float:
    """log P(a <= T <= b) on the symmetric continuous law, from the log CDF
    at a and b on the side where their tails do not cancel."""
    if a < 0.0 < b:
        rest = math.exp(law.log_cdf(a)) + math.exp(law.log_cdf(-b))
        return math.log1p(-rest) if rest < 1.0 else -math.inf
    hi, lo = (law.log_cdf(b), law.log_cdf(a)) if b <= 0.0 else (law.log_cdf(-a), law.log_cdf(-b))
    return hi + math.log(-math.expm1(lo - hi)) if lo < hi else -math.inf


class LevelSets:
    """The level sets of h on the continuous support, behind every
    continuous event: h comes as table (on law.grid) and as a map of point
    arrays, and is taken as monotone between adjacent grid points, so a
    cell whose ends straddle a level holds one crossing."""

    def __init__(self, law: SphereLaw, table, h: Callable[[np.ndarray], np.ndarray]):
        self.law, self.h, self.table = law, h, np.asarray(table, dtype=float)
        self.xs, self.hv = law.grid, self.table  # the grid and h on it, refined by the level search

    def _join(self, x: np.ndarray) -> np.ndarray:
        """h at the points x (one call), which join the grid and h on it."""
        y = self.h(x)
        xs = np.concatenate([self.xs, x])
        order = np.argsort(xs, kind="stable")
        self.xs, self.hv = xs[order], np.concatenate([self.hv, y])[order]
        return y

    def _flat_start(self, c: float) -> None:
        """Where h holds its top level c on positive mass: bisect each cell
        that straddles c with its end above exactly at c, to the float
        resolution of its ends (one h call a halving), so a flat top that
        starts inside a cell starts there, not at the cell's end."""
        a, b, _, fb, _ = self._cells(c)
        lo, hi = a[fb == 0.0], b[fb == 0.0]
        tol = np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        while (np.abs(hi - lo) > tol).any():
            mid = 0.5 * (lo + hi)
            up = self._join(mid) >= c
            lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)

    def _cells(self, c: float) -> tuple[np.ndarray, ...]:
        """The grid cells that straddle c, in order: the end below c, the end above,
        h - c at both, and the crossing linear in each (midway at an infinite end)."""
        above = self.hv >= c
        cells = np.flatnonzero(above[:-1] != above[1:])
        below, over = cells + ~above[cells + 1], cells + above[cells + 1]  # where h rises, cells + 1 is above
        a, b, fa, fb = self.xs[below], self.xs[over], self.hv[below] - c, self.hv[over] - c
        with np.errstate(invalid="ignore"):
            frac = fa / (fa - fb)
        return a, b, fa, fb, a + np.where(np.isnan(frac), 0.5, frac) * (b - a)

    def _event(self, c: float, cross: np.ndarray) -> tuple[np.ndarray, float]:
        """The intervals [a, b] (rows) of {h >= c}, which its crossings open
        and close in turn, and log P(h(T) >= c) from the log CDF at the ends."""
        xs, hv = self.xs, self.hv
        ends = np.concatenate([xs[:1][hv[:1] >= c], cross, xs[-1:][hv[-1:] >= c]]).reshape(-1, 2)
        logs = [_log_between(self.law, a, b) for a, b in ends.tolist()]
        return ends, log_sum_exp(logs) if logs else -math.inf

    def two_tails(self, mass: float) -> tuple[ThresholdResult, np.ndarray] | None:
        """tau with P(|T| >= tau) = mass and the tails {|T| >= tau} where the
        table is even and nondecreasing in |t| (relative slack 1e-12): they
        are {h >= h(tau)} unless h is flat at h(tau).  None elsewhere."""
        table, grid, (lo, hi) = self.table, self.law.grid, self.law.support
        low, high = table[len(grid) // 2:-1], table[len(grid) // 2 + 1:]  # the grid is symmetric about 0
        if not np.array_equal(table, table[::-1]) or not ((high >= low).all() or (
                high - low >= -REL_TOL * np.maximum(np.abs(low), 1.0)).all()):
            return None
        tau = max(-self.law.ppf(0.5 * min(mass, 1.0)), 0.0)
        return ThresholdResult(tau, min(mass, 1.0), mass <= 1.0), np.array([[lo, -tau], [tau, hi]])

    def threshold(self, mass: float) -> tuple[ThresholdResult, np.ndarray]:
        """The level c = sup { c : P(h(T) >= c) >= mass }, with its achieved
        mass, and the intervals of {h >= c}: two_tails' where the table
        rises over the cell holding tau, c = h(tau).  Else one find_root on
        log mass - log P(h(T) >= c), from the lowest finite level to the
        highest, until the two agree to _LEVEL_TOL; each step joins h at
        the crossings of c (one call) to the grid and interpolates again.
        Where h is flat at c on positive mass, exact is False; at h's top
        the flat part's starts are bisected (_flat_start)."""
        check_mass(mass)
        tails = self.two_tails(mass)
        if tails is not None:
            tau, intervals = tails
            i = int(np.searchsorted(self.law.grid, tau.threshold))
            if tau.threshold == 0.0 or self.table[i - 1] < self.table[i]:  # else h may be flat at h(tau)
                return replace(tau, threshold=float(self.h(np.array([tau.threshold]))[0])), intervals
        log_mass = math.log(mass)

        def excess(c: float) -> float:
            self._join(self._cells(c)[4])
            return log_mass - self._event(c, self._cells(c)[4])[1]

        # the search runs on u = sign(c) log(1 + |c|), so a top level far above
        # the answer (|K - 1| near t = 1, say) does not coarsen its resolution
        at = lambda u: math.copysign(math.expm1(abs(u)), u)
        finite = self.table[np.isfinite(self.table)]
        top, e_top = float(finite.max()), excess(float(finite.max()))
        lo, hi = (math.copysign(math.log1p(abs(c)), c) for c in (float(finite.min()), top))
        if e_top < 0.0:  # h holds its top on more than mass
            self._flat_start(top)
            level = top
        else:
            level = at(find_root(lambda u: excess(at(u)), lo, hi, excess(at(lo)), e_top, _LEVEL_TOL)[0])
        intervals, log_f = self._event(level, self._cells(level)[4])
        achieved = math.exp(log_f)
        return ThresholdResult(level, achieved, math.isclose(achieved, mass, rel_tol=REL_TOL)), intervals


def threshold_sup(law: OverlapLaw | SphereLaw, mass: float) -> ThresholdResult:
    """sup { r : P(T >= r) >= mass }, the generalized inverse of the
    survival function of a scalar statistic.

    For discrete laws the sup is attained at an atom (see Levels);
    `exact` records whether its tail mass equals `mass` to relative
    1e-12.  On the continuous law it is the Beta quantile.  The threshold
    of a level function of T is its Levels (discrete) or LevelSets level.
    """
    check_mass(mass)
    if isinstance(law, SphereLaw):
        return ThresholdResult(-law.ppf(min(mass, 1.0)), min(mass, 1.0), mass <= 1.0)
    return Levels.of(law.values, law.probs).threshold(mass)


class AtomEvaluationError(ValueError):
    """f(atom) was non-finite; carries the offending atom."""

    def __init__(self, atom: Statistic, value: float):
        self.atom = atom
        self.value = value
        super().__init__(f"non-finite integrand value {value} at atom {atom!r}")


def expect(
    law: OverlapLaw | SphereLaw,
    f: Callable[[Statistic], float],
    interval: tuple[float, float] | None = None,
) -> float:
    """E[f(T)]: exact weighted sum for discrete laws, integral (relative
    tolerance QUAD_REL_TOL) for continuous ones; there `interval` = (lo, hi)
    restricts the integral to E[f(T) 1(lo <= T <= hi)]."""
    if isinstance(law, OverlapLaw):
        if interval is not None:
            raise ValueError("expect: interval applies to continuous laws only")
        ys = []
        for v in law.atom_values():
            y = float(f(v))
            if not math.isfinite(y):
                raise AtomEvaluationError(v, y)
            ys.append(y)
        return exact_sum(np.multiply(ys, law.probs))

    def log_f(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = np.array([f(t) for t in ts.ravel().tolist()], dtype=float).reshape(ts.shape)
        with np.errstate(divide="ignore"):
            return np.log(np.abs(y)), np.sign(y)

    return integral(law, log_f, [interval or law.support])[0]


def exp_or_inf(x: float) -> float:
    """e^x, +inf past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _panel_nodes(panels: np.ndarray) -> np.ndarray:
    """The nodes of each panel (rows [a, b]), one row per panel: its 20 then
    its 40 Gauss-Legendre nodes."""
    return 0.5 * (panels[:, :1] + panels[:, 1:]) + 0.5 * (panels[:, 1:] - panels[:, :1]) * _NODES


def _angle_terms(law: SphereLaw, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """t = sin theta and the log density of the angle asin T, proportional
    to cos^(n-2) theta and so smooth up to the ends at every n: log pdf(t) +
    log cos theta below |theta| = pi/4, beyond it (n - 2) log cos theta +
    log_norm, as cos theta keeps digits of 1 - t^2 that rounding t drops."""
    t, log_cos = np.sin(theta), np.log(np.cos(theta))
    inner = np.abs(theta) < 0.25 * math.pi
    return t, np.where(inner, law.log_pdf(t) + log_cos, (law.n - 2) * log_cos + law.log_norm)


def integral(law: SphereLaw, log_f: Callable[[np.ndarray], tuple], intervals: np.ndarray,
             on_nodes: tuple | None = None) -> tuple[float, float]:
    """(value, log |value|) of E[f(T) 1(T in the intervals)] on the continuous
    law, the intervals disjoint rows [lo, hi], with f in log form: log_f(ts)
    gives (log |f|, sign f) at an array of points of any shape, on_nodes (if
    given, from a cached table) at law.nodes.

    In the angle theta = asin T, the stored panels inside the intervals read
    their nodes' values; the rest is at most two partial panels an interval,
    whose nodes are evaluated in one call.  M is the peak of x = log |f| +
    log density over these nodes; gauss_legendre_panels sums sign f
    exp(x - M), halving (and evaluating) the panels its 20/40 test fails;
    the log value is M + log of the sum.  f is never evaluated at the
    support's ends.  ValueError if the integrand is not finite,
    ResourceLimitError past the panel budget."""
    ends = np.arcsin(np.clip(intervals, -1.0, 1.0))
    a, b = ends[ends[:, 0] < ends[:, 1]].T
    if not len(a):
        return 0.0, -math.inf
    edges = law.edges
    i = np.searchsorted(edges, a)
    j = np.maximum(i, np.searchsorted(edges, b, side="right") - 1)  # the stored panels i..j-1 lie in [a, b]
    fresh = np.array([a, np.minimum(edges[i], b), np.maximum(edges[j], a), b]).T.reshape(-1, 2)
    fresh = fresh[fresh[:, 0] < fresh[:, 1]]
    kept = np.flatnonzero(((edges[:-1, None] >= a) & (edges[1:, None] <= b)).any(axis=1))
    t, pdf = law.nodes
    log_abs, sign = log_f(t[kept]) if on_nodes is None else (
        on_nodes[0][kept], on_nodes[1] if np.ndim(on_nodes[1]) == 0 else on_nodes[1][kept])
    x, panels = log_abs + pdf[kept], np.array([edges[kept], edges[kept + 1]]).T
    if len(fresh):
        fresh_t, fresh_pdf = _angle_terms(law, _panel_nodes(fresh))
        fresh_abs, fresh_sign = log_f(fresh_t)
        sign = np.concatenate((np.broadcast_to(fresh_sign, fresh_t.shape), np.broadcast_to(sign, x.shape)))
        x, panels = np.concatenate((fresh_abs + fresh_pdf, x)), np.concatenate((fresh, panels))
    shift = float(x.max())
    if shift == -math.inf:
        return 0.0, -math.inf
    if not math.isfinite(shift):
        raise ValueError(f"the integrand is not finite (log |f| + log pdf = {shift})")

    def shifted(theta: np.ndarray) -> np.ndarray:
        ts, log_pdf = _angle_terms(law, theta)
        log_abs, sign = log_f(ts)
        with np.errstate(over="ignore"):
            return sign * np.exp(log_abs + log_pdf - shift)

    # rounding an exponent near M alone perturbs the integrand by about 2^-52 |M|
    total = gauss_legendre_panels(shifted, panels, max(QUAD_REL_TOL, 2.0**-50 * abs(shift)),
                                  sign * np.exp(x - shift))
    if total == 0.0:
        return 0.0, -math.inf
    lv = math.log(abs(total)) + shift
    return math.copysign(exp_or_inf(lv), total), lv


def _mirrored(nodes: tuple, weights: tuple) -> tuple[np.ndarray, np.ndarray]:
    """A Gauss-Legendre rule of even order on [-1, 1] from its positive half."""
    x, w = np.array(nodes), np.array(weights)
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


# The Gauss-Legendre rules of orders 20 and 40 and the 64-point Gauss-Laguerre
# rule as stored literals, equal bit for bit to numpy's leggauss and laggauss,
# whose set-up (an import and an eigenproblem each) every process would
# otherwise pay; numpy's Legendre rules are exactly symmetric, so each keeps
# its positive half.  The Laguerre rule is within about 6e-15 on the sphere
# law's tail integral from a = 24.5 on.
_LEGENDRE_20 = _mirrored((
    0.07652652113349734, 0.22778585114164507, 0.37370608871541955, 0.5108670019508271,
    0.636053680726515, 0.7463319064601508, 0.8391169718222188, 0.912234428251326,
    0.9639719272779138, 0.993128599185095,
), (
    0.15275338713072628, 0.14917298647260424, 0.1420961093183824, 0.1316886384491769,
    0.1181945319615186, 0.1019301198172407, 0.08327674157670471, 0.06267204833410879,
    0.040601429800386446, 0.017614007139150893,
))
_LEGENDRE_40 = _mirrored((
    0.038772417506050816, 0.11608407067525521, 0.1926975807013711, 0.2681521850072537,
    0.3419940908257585, 0.413779204371605, 0.4830758016861787, 0.5494671250951282,
    0.6125538896679802, 0.6719566846141796, 0.7273182551899271, 0.7783056514265194,
    0.8246122308333117, 0.8659595032122595, 0.9020988069688742, 0.9328128082786765,
    0.9579168192137917, 0.9772599499837743, 0.990726238699457, 0.9982377097105591,
), (
    0.07750594797842451, 0.07703981816424763, 0.07611036190062598, 0.07472316905796794,
    0.07288658239580377, 0.07061164739128656, 0.06791204581523368, 0.06480401345660076,
    0.061306242492928834, 0.05743976909939129, 0.0532278469839367, 0.04869580763507193,
    0.04387090818567321, 0.03878216797447219, 0.03346019528254789, 0.027937006980023434,
    0.022245849194166653, 0.016421058381906828, 0.010498284531153814, 0.004521277098536349,
))
_LAGUERRE = np.array((
    0.022415874146706448, 0.11812251209676791, 0.29036574401803716, 0.5392862212279776,
    0.8650370046481128, 1.2678140407752434, 1.7478596260594355, 2.3054637393075104,
    2.940965156725251, 3.654752650207291, 4.447266343313096, 5.318999254496391,
    6.270499046923653, 7.302370002587394, 8.415275239483025, 9.609939192796107,
    10.887150383886373, 12.2477645042443, 13.692707845547506, 15.222981111524728,
    16.83966365264874, 18.54391817085919, 20.336995948730237, 22.220242665950874,
    24.195104875933254, 26.263137227118484, 28.426010527501028, 30.685520767525972,
    33.04359923643783, 35.50232389114121, 38.06393216564647, 40.73083544445863,
    43.50563546642153, 46.391142978616195, 49.39039902562469, 52.506699341346305,
    55.74362241327838, 59.10506191901711, 62.59526440015139, 66.21887325124756,
    69.98098037714684, 73.88718723248296, 77.94367743446313, 82.1573037783193,
    86.53569334945652, 91.08737561313309, 95.82194001552074, 100.75023196951398,
    105.88459946879995, 111.23920752443958, 116.8304450513065, 122.67746026853858,
    128.80287876923768, 135.23378794952583, 142.00312148993152, 149.15166590004938,
    156.73107513267115, 164.8086026551505, 173.47494683642427, 182.85820469143147,
    193.15113603707292, 204.67202848505946, 218.03185193532852, 234.80957917132616,
)), np.array((
    0.05625284233926343, 0.11902398731216846, 0.15749640386211758, 0.1675470504157797,
    0.1533528557792363, 0.1242210536093556, 0.09034230098649183, 0.059477755768364206,
    0.035627518904037626, 0.019480410431167456, 0.00974359489938254, 0.004464310364166527,
    0.0018753595813231973, 0.0007226469815750431, 0.00025548753283350994, 8.287143534397395e-05,
    2.4656863967887347e-05, 6.726713878830065e-06, 1.6817853699641775e-06, 3.850812981546922e-07,
    8.06872804099105e-08, 1.5457237067577817e-08, 2.7044801476176626e-09, 4.316775475427437e-10,
    6.277752541761931e-11, 8.306317376289372e-12, 9.984031787220735e-13, 1.0883538871167375e-13,
    1.0740174034416394e-14, 9.575737231575047e-16, 7.697028023649183e-17, 5.56488113745443e-18,
    3.6097564090107047e-19, 2.095095369549093e-20, 1.0847933010976027e-21, 4.994699486364154e-23,
    2.0378369745990277e-24, 7.33953756427892e-26, 2.323783082198866e-27, 6.438234706909275e-29,
    1.5531210957882923e-30, 3.2442500920196557e-32, 5.832386267836268e-34, 8.963254833103514e-36,
    1.168703989550801e-37, 1.2820559843599814e-39, 1.1720949374050954e-41, 8.835339672329785e-44,
    5.4249555903056626e-46, 2.6755426666794473e-48, 1.0429170314114302e-50, 3.1529023519577127e-53,
    7.229541910648479e-56, 1.2242353012299734e-58, 1.4821685049020455e-61, 1.2325193488145018e-64,
    6.691499004571391e-68, 2.220465941850509e-71, 4.1209460947384755e-75, 3.7743990618967917e-79,
    1.4141150529178096e-83, 1.5918330640415922e-88, 2.9894843488612213e-94, 2.089063508436509e-101,
))
_NODES = np.concatenate((_LEGENDRE_20[0], _LEGENDRE_40[0]))  # every panel's nodes, the 20 then the 40


def gauss_legendre_panels(g: Callable[[np.ndarray], np.ndarray], panels: np.ndarray,
                          rel_tol: float, y: np.ndarray) -> float:
    """Integral of a vectorized g over disjoint panels [a, b] (rows of panels).

    Each panel is integrated by the Gauss-Legendre rules of orders 20 and 40;
    their difference bounds the error of the higher one, whose value is kept.
    y is g at their nodes (_panel_nodes).  While the differences of all
    panels sum to more than rel_tol times the integral of |g|, every panel
    above its equal share of that allowance is halved, g called at its nodes.
    ResourceLimitError once halving would pass _PANEL_BUDGET panels,
    ValueError where g is not finite; never a partial sum."""
    (_, w_lo), (_, w_hi) = _LEGENDRE_20, _LEGENDRE_40
    k = len(w_lo)
    todo = np.asarray(panels, dtype=float)
    done = np.empty((0, 5))  # per panel: a, b, value, error, integral of |g|
    while True:
        if not np.isfinite(y).all():
            raise ValueError("the integrand is not finite at a quadrature node")
        half = 0.5 * (todo[:, 1] - todo[:, 0])
        low, high = half * (y[:, :k] @ w_lo), half * (y[:, k:] @ w_hi)
        done = np.concatenate((done, np.column_stack((todo, high, np.abs(high - low),
                                                      half * (np.abs(y[:, k:]) @ w_hi)))))
        allowed = rel_tol * done[:, 4].sum()
        if done[:, 3].sum() <= allowed:
            return exact_sum(done[:, 2])
        split = done[:, 3] > allowed / len(done)
        a, b = done[split, 0], done[split, 1]
        mid = 0.5 * (a + b)
        todo = np.concatenate((np.column_stack((a, mid)), np.column_stack((mid, b))))
        done = done[~split]
        if len(done) + len(todo) > _PANEL_BUDGET:
            raise ResourceLimitError(
                f"the integral did not converge to relative {rel_tol:.1e} within {_PANEL_BUDGET} panels")
        y = g(_panel_nodes(todo).ravel()).reshape(len(todo), -1)
