"""Laws of the sufficient overlap statistic T(u, v) under pi x pi.

Every prior supported by the package factors its likelihood-ratio kernel
through a low-dimensional statistic of the signal pair (u, v): a scalar
overlap <u, v>, a support-intersection count |u n v|, or the coordinate
agreement triple (a, b, c).  This module represents the pushforward of
pi^{x2} through that statistic:

- discrete laws carry each atom mass as p = f 2^e (f in [0.5, 1), e an
  integer), so no mass underflows; the combinatorial laws round an exact
  integer ratio once (_exact_law), and log_probs and probs are views;
- the single continuous law (sphere overlap) is represented by its exact
  Beta density and distribution function (scipy.special), never by a
  discretization.

On top of the laws sit the quantile objects used by the hardness
criteria: survival functions P(g(T) >= r) and the generalized-inverse
thresholds

    threshold_sup(mass) = sup { r : P(g(T) >= r) >= mass },

whose boundary-atom behaviour (achieved mass, exactness flag) the
criteria need to expose.  On a discrete law every such threshold reads
one Levels object: the distinct levels of g(T) with compensated tail
masses, searched by bisection.

On the continuous law a transform g must be even and nondecreasing in
|t|; one grid check enforces this and anything else is refused.  Then
{g(T) >= r} = {|T| >= tau}, and the threshold is g(tau) with tau the
closed-form two-sided Beta quantile 1 - 2 I^{-1}_{a,a}(mass / 2),
a = (n - 1)/2.  The remaining boundary searches (the strict event
{g(T) < r}, survival levels, the SQ superlevel set) share one bracketing
root-finder with a step budget, find_root.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import betainc, betaincinv

Statistic = float | tuple
Transform = Callable[[Statistic], float] | None

# Relative slack for survival >= mass comparisons; absorbs 1-ulp float
# discrepancies when a caller passes a mass meant to hit an atom exactly.
_REL_TOL = 1e-12

# Relative slack of the grid checks of evenness and quasiconvexity; the
# monotonicity in |t| that r = g(tau) rests on gets the tighter _REL_TOL.
_SHAPE_TOL = 1e-9
_ROOT_STEPS = 100  # find_root's step budget; ITP needs at most about 54
_EVEN_GRID = 129  # points of [0, hi] in check_even_nondecreasing
_QUASICONVEX_GRID = 257  # points of the support in check_quasiconvex
QUAD_REL_TOL = 1e-10  # relative tolerance of every quadrature expect runs
_LN2 = math.log(2.0)


def _ge(a: float, b: float) -> bool:
    return a >= b - _REL_TOL * max(abs(a), abs(b))


@dataclass(frozen=True)
class ThresholdResult:
    """sup-threshold of a transformed statistic at a given tail mass.

    `exact` is True iff the survival function actually attains the
    requested mass at the threshold (relative tolerance 1e-12); when it
    is False the complementary event is strictly fatter than 1 - mass,
    which several equivalence statements treat as a failed premise.
    """

    threshold: float
    achieved_mass: float
    exact: bool


@dataclass(frozen=True)
class OverlapLaw:
    """Distribution of the overlap statistic under pi x pi.

    kind: "discrete" (values + masses) or "continuous" (density
    accessors; the law must be symmetric about 0, which the |t| closed
    forms use).  statistic: "scalar" or "pair_counts" (integer triples).
    A discrete mass is stored as the pair (f, e) with p = f 2^e.
    """

    kind: str
    statistic: str
    descriptor: dict
    values: tuple = ()
    masses: tuple = ()
    _pdf: Callable[[float], float] | None = None
    _cdf: Callable[[float], float] | None = None
    _ppf: Callable[[float], float] | None = None
    support: tuple[float, float] = (0.0, 0.0)
    _sampler: Callable | None = None

    def __post_init__(self) -> None:
        if self.kind == "discrete":
            if any(f < 0.0 for f, _ in self.masses):
                raise ValueError("atom probabilities must be nonnegative")
            total = math.fsum(self.probs)
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"atom probabilities sum to {total}, not 1")
        elif self.kind != "continuous":
            raise ValueError(f"unknown law kind {self.kind!r}")
        elif self.support[0] != -self.support[1]:
            raise ValueError("continuous laws must be symmetric about 0")

    @cached_property
    def log_probs(self) -> tuple[float, ...]:
        """Natural log of each atom mass (-inf for a zero mass)."""
        return tuple(math.log(f) + e * _LN2 if f > 0.0 else -math.inf for f, e in self.masses)

    @cached_property
    def probs(self) -> tuple[float, ...]:
        """Atom masses as floats (0.0 below the float range)."""
        return tuple(math.ldexp(f, e) for f, e in self.masses)

    @property
    def atoms(self) -> list[tuple[Statistic, float]]:
        if self.kind != "discrete":
            raise ValueError("atoms are only defined for discrete laws")
        return list(zip(self.values, self.probs))

    def pdf(self, t: float) -> float:
        if self._pdf is None:
            raise ValueError("law has no density")
        return self._pdf(t)

    def cdf(self, t: float) -> float:
        if self._cdf is None:
            raise ValueError("law has no cdf")
        return self._cdf(t)

    def ppf(self, p: float) -> float:
        if self._ppf is None:
            raise ValueError("law has no quantile function")
        return self._ppf(p)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def _binomial_row(n: int, upto: int) -> list[int]:
    """[C(n, 0), ..., C(n, upto)] by the exact recurrence."""
    row = [1]
    for j in range(upto):
        row.append(row[-1] * (n - j) // (j + 1))
    return row


def _exact_law(descriptor: dict, numerators: dict, denominator: int) -> OverlapLaw:
    """Discrete law with masses numerators[v] / denominator (integers).

    Each ratio is scaled by a power of two into [2^63, 2^65) and divided
    once (int / int is correctly rounded), so every mass keeps 53
    significant bits whatever its size."""
    if sum(numerators.values()) != denominator:
        raise AssertionError(f"exact atom masses do not sum to {denominator}")
    values, masses = [], []
    for v in sorted(v for v, num in numerators.items() if num > 0):
        num = numerators[v]
        s = denominator.bit_length() - num.bit_length() + 64
        f, e = math.frexp((num << s) / denominator)
        values.append(v)
        masses.append((f, e - s))
    return OverlapLaw(kind="discrete", statistic="scalar", descriptor=descriptor,
                      values=tuple(values), masses=tuple(masses))


def _float_law(descriptor: dict, statistic: str, items: list) -> OverlapLaw:
    """Discrete law from (value, float mass) pairs; equal values merge into one atom."""
    acc: dict = {}
    for v, p in items:
        acc[v] = acc.get(v, 0.0) + p
    items = sorted(acc.items())
    return OverlapLaw(kind="discrete", statistic=statistic, descriptor=descriptor,
                      values=tuple(v for v, _ in items),
                      masses=tuple(math.frexp(p) for _, p in items))


def hypergeometric_law(n: int, k: int) -> OverlapLaw:
    """|u n v| for two independent uniform k-subsets (or binary k-sparse
    vectors) of [n]; exact combinatorial pmf C(k, l) C(n-k, k-l) / C(n, k)."""
    if n <= 0 or k <= 0:
        raise ValueError(f"need n, k positive, got n={n}, k={k}")
    if k > n:
        raise ValueError(f"need k <= n, got k={k} > n={n}")
    inner, outer = _binomial_row(k, k), _binomial_row(n - k, k)
    nums = {float(ell): inner[ell] * outer[k - ell] for ell in range(k + 1)}
    return _exact_law({"kind": "hypergeometric", "n": n, "k": k}, nums, math.comb(n, k))


def signed_sparse_law(n: int, k: int) -> OverlapLaw:
    """<u, v> for u, v uniform on +-1/sqrt(k)-valued k-sparse vectors.

    Conditional on an intersection of size ell (hypergeometric), the dot
    product is (2B - ell)/k with B ~ Bin(ell, 1/2); atoms live on the
    grid j/k, j in [-k, k].  Common denominator C(n, k) 2^k.
    """
    if n <= 0 or k <= 0 or k > n:
        raise ValueError(f"invalid signed_sparse parameters n={n}, k={k}")
    inner, outer = _binomial_row(k, k), _binomial_row(n - k, k)
    acc: dict[int, int] = {}
    for ell in range(k + 1):
        weight = (inner[ell] * outer[k - ell]) << (k - ell)
        for b, c in enumerate(_binomial_row(ell, ell)):
            acc[2 * b - ell] = acc.get(2 * b - ell, 0) + weight * c
    nums = {j / k: num for j, num in acc.items()}
    return _exact_law({"kind": "signed_sparse", "n": n, "k": k}, nums, math.comb(n, k) << k)


def rademacher_mean_law(n: int) -> OverlapLaw:
    """<u, v> = n^{-1} sum_i eps_i for u, v uniform on {-1/sqrt(n), 1/sqrt(n)}^n:
    a shifted binomial on the grid (2b - n)/n, masses C(n, b) / 2^n."""
    if n <= 0:
        raise ValueError(f"need n positive, got {n}")
    nums = {(2 * b - n) / n: c for b, c in enumerate(_binomial_row(n, n))}
    return _exact_law({"kind": "rademacher_mean", "n": n}, nums, 1 << n)


def two_point_law(rho_p: float, stat_values: tuple[float, float, float]) -> OverlapLaw:
    """Scalar statistic of a two-point prior: point 1 w.p. rho_p.

    stat_values = (T(1,1), T(2,2), T(mixed)); the three pair classes have
    masses rho_p^2, (1-rho_p)^2, 2 rho_p (1-rho_p).
    """
    if not 0.0 <= rho_p <= 1.0:
        raise ValueError(f"rho_p must lie in [0, 1], got {rho_p}")
    v11, v22, vmix = (float(v) for v in stat_values)
    pairs = ((v11, rho_p * rho_p), (v22, (1 - rho_p) ** 2), (vmix, 2 * rho_p * (1 - rho_p)))
    return _float_law({"kind": "two_point", "rho_p": rho_p, "values": [v11, v22, vmix]},
                      "scalar", [(v, p) for v, p in pairs if p > 0.0])


def pair_counts_law(n: int, rho_p: float) -> OverlapLaw:
    """Agreement-count triple (a, b, c) = (#{u_i=v_i=0}, #{u_i!=v_i},
    #{u_i=v_i=1}) over n+1 coordinates for the two-point prior
    {e_0 w.p. rho_p, 1 - e_0 w.p. 1-rho_p}."""
    if n <= 0:
        raise ValueError(f"need n positive, got {n}")
    if not 0.0 <= rho_p <= 1.0:
        raise ValueError(f"rho_p must lie in [0, 1], got {rho_p}")
    atoms = [
        ((n, 0, 1), rho_p * rho_p),
        ((1, 0, n), (1 - rho_p) ** 2),
        ((0, n + 1, 0), 2 * rho_p * (1 - rho_p)),
    ]
    return _float_law({"kind": "pair_counts", "n": n, "rho_p": rho_p}, "pair_counts",
                      [(v, p) for v, p in atoms if p > 0.0])


def equality_law(n: int) -> OverlapLaw:
    """Equality indicator 1(u = v) for a uniform prior on the slice of
    {-1,1}^n with 9n/10 positive coordinates (n divisible by 10)."""
    if n <= 0 or n % 10 != 0:
        raise ValueError(f"need n positive and divisible by 10, got {n}")
    size = math.comb(n, 9 * n // 10)
    return _exact_law({"kind": "equality", "n": n}, {1.0: 1, 0.0: size - 1}, size)


def atoms_law(values: Sequence[float], probs: Sequence[float]) -> OverlapLaw:
    """Synthetic discrete law from explicit atoms (testing / CLI)."""
    if len(values) != len(probs) or not values:
        raise ValueError("values and probs must be nonempty and of equal length")
    return _float_law({"kind": "atoms", "values": list(values), "probs": list(probs)}, "scalar",
                      list(zip((float(v) for v in values), (float(p) for p in probs))))


def sphere_law(n: int) -> OverlapLaw:
    """<u, v> for u, v uniform on the unit sphere in R^n.

    Equal in law to the first coordinate of a uniform sphere point:
    T = 2X - 1 with X ~ Beta((n-1)/2, (n-1)/2), density proportional to
    (1 - t^2)^{(n-3)/2} on [-1, 1].
    """
    if n < 2:
        raise ValueError(f"sphere law needs n >= 2, got {n}")
    a = 0.5 * (n - 1)
    # log of 1 / (2^{n-2} B(a, a)), the density's normalizing constant
    log_norm = -(n - 2) * math.log(2.0) - (2.0 * math.lgamma(a) - math.lgamma(2.0 * a))

    def pdf(t: float) -> float:
        s = (1.0 - t) * (1.0 + t)
        if s > 0.0:
            return math.exp((a - 1.0) * math.log(s) + log_norm)
        if s < 0.0 or a > 1.0:
            return 0.0
        return math.exp(log_norm) if a == 1.0 else math.inf

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        return 2.0 * rng.beta(a, a, size=count) - 1.0

    return OverlapLaw(
        kind="continuous",
        statistic="scalar",
        descriptor={"kind": "sphere", "n": n},
        _pdf=pdf,
        _cdf=lambda t: float(betainc(a, a, min(max(0.5 * (1.0 + t), 0.0), 1.0))),
        _ppf=lambda p: 2.0 * float(betaincinv(a, a, p)) - 1.0,
        support=(-1.0, 1.0),
        _sampler=sampler,
    )


_LAW_BUILDERS = {
    "hypergeometric": lambda d: hypergeometric_law(int(d["n"]), int(d["k"])),
    "signed_sparse": lambda d: signed_sparse_law(int(d["n"]), int(d["k"])),
    "rademacher_mean": lambda d: rademacher_mean_law(int(d["n"])),
    "sphere": lambda d: sphere_law(int(d["n"])),
    "two_point": lambda d: two_point_law(float(d["rho_p"]), tuple(d["values"])),
    "pair_counts": lambda d: pair_counts_law(int(d["n"]), float(d["rho_p"])),
    "equality": lambda d: equality_law(int(d["n"])),
    "atoms": lambda d: atoms_law(d["values"], d["probs"]),
}


def make_law(spec: dict) -> OverlapLaw:
    """Build an OverlapLaw from a prior descriptor (see _LAW_BUILDERS)."""
    try:
        kind = spec["kind"]
    except (TypeError, KeyError):
        raise ValueError("prior descriptor must be a dict with a 'kind' field") from None
    try:
        builder = _LAW_BUILDERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown prior kind {kind!r}; available: {sorted(_LAW_BUILDERS)}"
        ) from None
    return builder(spec)


# ---------------------------------------------------------------------------
# Survival / thresholds / expectations / sampling
# ---------------------------------------------------------------------------


def _apply(transform: Transform, value: Statistic) -> float:
    return float(value) if transform is None else float(transform(value))


def survival(law: OverlapLaw, r: float, transform: Transform = None) -> float:
    """P(g(T) >= r) with g the optional transform (identity by default)."""
    if law.kind == "discrete":
        return math.fsum(p for v, p in law.atoms if _apply(transform, v) >= r)
    if transform is None:
        return law.cdf(-r)  # symmetric law: no cancellation in the upper tail
    tau = crossing(check_even_nondecreasing(law, transform), r)
    if tau is None:
        return 0.0
    return 1.0 if tau <= 0.0 else 2.0 * law.cdf(-tau)


@dataclass(frozen=True)
class Levels:
    """A transform g(T) on a discrete law: its value at each atom, its
    distinct levels r_0 < r_1 < ..., the mass of each level, and the
    tail masses tails[i] = P(g(T) >= r_i), accumulated from the top with
    Kahan compensation.  Every discrete sup-threshold reads these."""

    at: np.ndarray
    levels: np.ndarray
    mass: np.ndarray
    tails: list[float]

    @classmethod
    def of(cls, at: Sequence[float], probs: Sequence[float]) -> Levels:
        at = np.asarray(at, dtype=float)
        levels, inverse = np.unique(at, return_inverse=True)
        mass = np.bincount(inverse, weights=probs, minlength=len(levels))
        tails: list[float] = []
        acc, comp = 0.0, 0.0
        for x in reversed(mass.tolist()):
            y = x - comp
            t = acc + y
            comp = (t - acc) - y
            acc = t
            tails.append(acc)
        tails.reverse()
        return cls(at, levels, mass, tails)

    def threshold(self, mass: float) -> ThresholdResult:
        """sup { r : P(g(T) >= r) >= mass }: the highest level whose tail
        mass is >= mass up to the relative slack 1e-12 (the lowest level
        when none is)."""
        tails = self.tails
        i = max(bisect_left(range(len(tails)), True, key=lambda j: not _ge(tails[j], mass)) - 1, 0)
        achieved = tails[i]
        exact = abs(achieved - mass) <= _REL_TOL * max(abs(achieved), abs(mass))
        return ThresholdResult(float(self.levels[i]), achieved, exact)


class ShapeGrid(NamedTuple):
    """A transform g with vals = g(xs) on a grid along which g has been
    checked nondecreasing; seeds crossing's brackets."""

    g: Callable[[float], float]
    xs: list[float]
    vals: list[float]


def nondecreasing(vals: list[float], slack: float = _SHAPE_TOL) -> bool:
    """vals is nondecreasing up to the relative grid-check slack."""
    return all(b >= a - slack * max(1.0, abs(a)) for a, b in zip(vals, vals[1:]))


def check_even_nondecreasing(law: OverlapLaw, g: Callable[[float], float]) -> ShapeGrid:
    """The one shape check on continuous-law transforms: g must be even
    and nondecreasing in |t|, probed on _EVEN_GRID points of [0, hi] and
    their mirror images.  Raises ValueError otherwise."""
    hi = law.support[1]
    xs = [hi * i / (_EVEN_GRID - 1) for i in range(_EVEN_GRID)]
    vals = [float(g(x)) for x in xs]
    if any(abs(float(g(-x)) - v) > _SHAPE_TOL * max(1.0, abs(v)) for x, v in zip(xs, vals)):
        raise ValueError("continuous-law transforms must be even in t")
    if not nondecreasing(vals, _REL_TOL):
        raise ValueError("continuous-law transforms must be nondecreasing in |t|")
    return ShapeGrid(g, xs, vals)


def check_quasiconvex(law: OverlapLaw, g: Callable[[float], float]) -> tuple[ShapeGrid, ShapeGrid]:
    """g on _QUASICONVEX_GRID points of the support, read outward from
    its grid minimum: both sides must be nondecreasing (g quasiconvex).
    Raises ValueError otherwise; returns the (left, right) sides."""
    lo, hi = law.support
    xs = [lo + (hi - lo) * i / (_QUASICONVEX_GRID - 1) for i in range(_QUASICONVEX_GRID)]
    vals = [g(x) for x in xs]
    i0 = vals.index(min(vals))
    sides = (ShapeGrid(g, xs[i0::-1], vals[i0::-1]), ShapeGrid(g, xs[i0:], vals[i0:]))
    if not all(nondecreasing(side.vals) for side in sides):
        raise ValueError("transform is not quasiconvex on the support")
    return sides


def find_root(f: Callable[[float], float], a: float, b: float, fa: float, fb: float):
    """Bracket (a', b') of the sign change of a monotone f, with
    f(a') < 0 <= f(b'), shrunk to float resolution (|b' - a'| <= 2^-51
    max(|a|, |b|)) or until _ROOT_STEPS evaluations are spent.  a may lie
    on either side of b.  ITP steps (Oliveira and Takahashi, ACM TOMS 47,
    2021): regula falsi, truncated toward the midpoint and projected into
    a shrinking bisection radius, so no run takes more steps than
    bisection and smooth f converge superlinearly (about 10 steps)."""
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
        x_f = (a * fb - b * fa) / (fb - fa)
        sigma = math.copysign(1.0, mid - x_f)
        delta = k1 * width * width
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        radius = tol * 2.0 ** (n_max - j) - 0.5 * width
        x = x_t if abs(x_t - mid) <= radius else mid - sigma * radius
        x = min(max(x, min(a, b) + tol), max(a, b) - tol)  # move by at least tol
        y = f(x)
        if y >= 0.0:
            b, fb = x, y
        else:
            a, fa = x, y
    return a, b


def crossing(shape: ShapeGrid, r: float) -> float | None:
    """First point along the grid (either direction) where g >= r:
    xs[0] when g(xs[0]) >= r, None when g stays below r, else one
    find_root between grid points."""
    g, xs, vals = shape
    if vals[0] >= r:
        return xs[0]
    if vals[-1] < r:
        return None
    k = bisect_left(vals, r)  # vals[k - 1] < r <= vals[k]
    return find_root(lambda s: g(s) - r, xs[k - 1], xs[k], vals[k - 1] - r, vals[k] - r)[1]


def check_mass(mass: float) -> None:
    """Refuse a tail mass outside (0, 1], up to 1-ulp slack above 1."""
    if not 0.0 < mass <= 1.0 + _REL_TOL:
        raise ValueError(f"mass must lie in (0, 1], got {mass}")


def abs_event(law: OverlapLaw, mass: float, shape: ShapeGrid,
              strict: bool = False) -> tuple[ThresholdResult, float]:
    """Threshold r = sup { r : P(g(T) >= r) >= mass } on a continuous law,
    for g = shape.g checked by check_even_nondecreasing, plus the
    half-width h of the complementary event {|T| <= h}: the closed event
    {g(T) <= r} up to its boundary (h = tau, mass exactly 1 - mass) or,
    with strict, {g(T) < r} (h = the smallest |t| with g(t) >= r, at
    most tau; one root-find)."""
    check_mass(mass)
    tau = max(-law.ppf(0.5 * min(mass, 1.0)), 0.0)
    thr = ThresholdResult(float(shape.g(tau)), min(mass, 1.0), exact=mass <= 1.0)
    if not strict:
        return thr, tau
    # g(tau) = r puts the first |t| with g >= r at or below tau, up to the check's slack
    h = crossing(shape, thr.threshold)
    return thr, tau if h is None else min(h, tau)


def threshold_sup(law: OverlapLaw, mass: float, transform: Transform = None) -> ThresholdResult:
    """sup { r : P(g(T) >= r) >= mass }, the generalized inverse of the
    survival function of the transformed statistic.

    For discrete laws the sup is attained at an atom of g(T) (see
    Levels); `exact` records whether its tail mass equals `mass` to
    relative 1e-12.  On the continuous law the survival function is
    continuous and strictly decreasing, and the threshold comes in
    closed form from the Beta quantile (see abs_event).
    """
    check_mass(mass)
    if law.kind == "discrete":
        return Levels.of([_apply(transform, v) for v in law.values], law.probs).threshold(mass)
    if transform is None:
        return ThresholdResult(-law.ppf(min(mass, 1.0)), min(mass, 1.0), mass <= 1.0)
    return abs_event(law, mass, check_even_nondecreasing(law, transform))[0]


class AtomEvaluationError(ValueError):
    """f(atom) was non-finite; carries the offending atom."""

    def __init__(self, atom: Statistic, value: float):
        self.atom = atom
        self.value = value
        super().__init__(f"non-finite integrand value {value} at atom {atom!r}")


def expect(
    law: OverlapLaw,
    f: Callable[[Statistic], float],
    interval: tuple[float, float] | None = None,
) -> float:
    """E[f(T)]: exact weighted sum for discrete laws, adaptive quadrature
    (relative tolerance QUAD_REL_TOL) for continuous ones; there
    `interval` = (lo, hi) restricts the integral to
    E[f(T) 1(lo <= T <= hi)]."""
    if law.kind == "discrete":
        if interval is not None:
            raise ValueError("expect: interval applies to continuous laws only")
        terms = []
        for v, p in law.atoms:
            y = float(f(v))
            if not math.isfinite(y):
                raise AtomEvaluationError(v, y)
            terms.append(y * p)
        return math.fsum(terms)
    from scipy import integrate

    lo, hi = law.support
    if interval is not None:
        lo, hi = max(interval[0], lo), min(interval[1], hi)
        if hi <= lo:
            return 0.0
    value, _ = integrate.quad(
        lambda t: f(t) * law.pdf(t), lo, hi, epsrel=QUAD_REL_TOL, epsabs=1e-14, limit=400
    )
    return float(value)


def sample(law: OverlapLaw, seed: int, count: int) -> np.ndarray:
    """Seeded statistic draws; deterministic for a fixed (seed, count)."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    rng = np.random.default_rng(seed)
    if law.kind == "discrete":
        idx = rng.choice(len(law.values), size=count, p=np.asarray(law.probs))
        if law.statistic == "pair_counts":
            out = np.empty(count, dtype=object)
            for i, j in enumerate(idx):
                out[i] = law.values[j]  # keep the triples hashable tuples
            return out
        return np.asarray([law.values[i] for i in idx], dtype=float)
    return np.asarray(law._sampler(rng, count), dtype=float)
