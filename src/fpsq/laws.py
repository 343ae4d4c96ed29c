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
  Beta density and distribution function (an in-house incomplete Beta
  continued fraction, _beta_cf), never by a discretization.

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
two-sided Beta quantile 1 - 2 I^{-1}_{a,a}(mass / 2), a = (n - 1)/2.  That
quantile and the remaining boundary searches (the strict event
{g(T) < r}, survival levels, the SQ superlevel set) share one bracketing
root-finder with a step budget, find_root.

Every expectation on the continuous law is one log-domain integral,
integral: f comes in log form (log |f| and its sign), the integrand
sign f exp(log |f| + log pdf - M) is scaled by its peak M over law.grid
and the interval's ends, and it is integrated over the stretches within
e^-60 of that peak by composite Gauss-Legendre panels
(gauss_legendre_panels), which refuse past a panel budget
(ResourceLimitError) rather than return a partial sum.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from fpsq.numerics import normal_quantile

Statistic = float | tuple
Transform = Callable[[Statistic], float] | None

# Relative slack for survival >= mass comparisons; absorbs 1-ulp float
# discrepancies when a caller passes a mass meant to hit an atom exactly.
_REL_TOL = 1e-12

# Relative slack of the grid checks of evenness and quasiconvexity; the
# monotonicity in |t| that r = g(tau) rests on gets the tighter _REL_TOL.
_SHAPE_TOL = 1e-9
_ROOT_STEPS = 100  # find_root's step budget; ITP needs at most about 54
_GRID = 257  # evenly spaced points of OverlapLaw.grid, which is symmetric about 0
# Relative tolerance of every continuous-law integral: the two Gauss-Legendre
# orders of all panels together disagree by at most this times the integral
# of |f|.  Where rounding the exponent log|f| + log pdf alone perturbs the
# integrand by more (|exponent| above about 1e5, so only on overflow-log
# rows), that rounding level replaces it.
QUAD_REL_TOL = 1e-10
_LOG_DROP = 60.0  # integral integrates where the grid is within e^-this of its peak
_ORDERS = (20, 40)  # the two Gauss-Legendre rule orders each panel is checked by
_PANEL_BUDGET = 500  # panels one integral may split into; then ResourceLimitError
_LN2 = math.log(2.0)
_CF_TERMS = 500  # continued-fraction steps one incomplete Beta may take; then ResourceLimitError
_CF_CENTER = 1.5  # the sphere CDF takes its central form where (a + 5/2) t^2 is below this
_ABOVE_MINUS_ONE = -1.0 + 2.0**-53  # the float next to -1
_LAGUERRE_FROM = 100.0  # the sphere law's tail takes Gauss-Laguerre from a = (n - 1)/2 on


class ResourceLimitError(ValueError):
    """A computation exceeds its size or step budget (CLI exit code 3)."""


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
    _log_pdf: Callable[[np.ndarray], np.ndarray] | None = None
    _log_cdf: Callable[[float], float] | None = None
    _ppf: Callable[[float], float] | None = None
    support: tuple[float, float] = (0.0, 0.0)
    scale: float = 1.0  # a continuous law's spread about 0 (the standard deviation of T)
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

    @cached_property
    def grid(self) -> list[float]:
        """The continuous support's one grid: _GRID even points, 1 - 2^-k to
        each end, and +-scale 2^(j/2) for j = -12..20, so a law concentrated
        far inside the even spacing still has points across its bulk."""
        lo, hi = self.support
        edge = hi * (1.0 - 2.0 ** -np.arange(1.0, 53.0))
        bulk = self.scale * 2.0 ** (np.arange(-12.0, 21.0) / 2.0)
        bulk = bulk[bulk < hi]
        # a set, not np.unique, whose first call imports numpy.ma (about 15 ms)
        return sorted(set(np.concatenate([np.linspace(lo, hi, _GRID), edge, -edge, bulk, -bulk]).tolist()))

    @cached_property
    def grid_log_pdf(self) -> np.ndarray:
        """The log density at each point of grid."""
        return self.log_pdf(np.asarray(self.grid))

    @property
    def atoms(self) -> list[tuple[Statistic, float]]:
        if self.kind != "discrete":
            raise ValueError("atoms are only defined for discrete laws")
        return list(zip(self.values, self.probs))

    def log_pdf(self, t):
        """The log density at t, a float or an array of points."""
        if self._log_pdf is None:
            raise ValueError("law has no density")
        return self._log_pdf(t)

    def pdf(self, t):
        return np.exp(self.log_pdf(t))

    def log_cdf(self, t: float) -> float:
        """log P(T <= t)."""
        if self._log_cdf is None:
            raise ValueError("law has no cdf")
        return self._log_cdf(t)

    def cdf(self, t: float) -> float:
        """P(T <= t); above 0 as 1 - P(T <= -t) (the law is symmetric)."""
        return math.exp(self.log_cdf(t)) if t <= 0.0 else -math.expm1(self.log_cdf(-t))

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


def sphere_law(n: int) -> OverlapLaw:
    """<u, v> for u, v uniform on the unit sphere in R^n.

    Equal in law to the first coordinate of a uniform sphere point:
    T = 2X - 1 with X ~ Beta((n-1)/2, (n-1)/2), density proportional to
    (1 - t^2)^{(n-3)/2} on [-1, 1].
    """
    if n < 2:
        raise ValueError(f"sphere law needs n >= 2, got {n}")
    a = 0.5 * (n - 1)
    # 1 / (2^{n-2} B(a, a)) = Gamma(a + 1/2) / (Gamma(a) sqrt(pi)), the density's normalizer
    log_norm = _log_gamma_ratio(a) - 0.5 * math.log(math.pi)
    log_tail_norm = log_norm - math.log(2.0 * a)

    def log_pdf(t):
        s = np.abs(np.asarray(t, dtype=float))
        with np.errstate(divide="ignore", invalid="ignore"):
            # log(1 - t^2) to a few ulp: log1p(-t^2) near 0, the factored form near |t| = 1
            log_s = np.where(s < 0.5, np.log1p(-s * s), np.log((1.0 - s) * (1.0 + s)))
            out = (a - 1.0) * log_s + log_norm if a != 1.0 else np.full_like(s, log_norm)
        return np.where(s > 1.0, -np.inf, out)[()]

    def log_cdf(t: float) -> float:
        """log P(T <= t), for t > 0 from 1 - P(T <= -t).  For t <= 0,
        P = I_x(a, a) at x = (1 + t)/2 is a prefactor, whose log is
        a log(1 - t^2) + log_norm - log(2a), times J, in one of three forms:
        - central, (a + 5/2) t^2 < _CF_CENTER: P = 1/2 - I_{t^2}(1/2, a)/2
          instead (T^2 ~ Beta(1/2, a)), by _beta_cf;
        - a < _LAGUERRE_FROM: J = _beta_cf(a, a, x);
        - beyond: J = int_0^inf e^-v (t^2 + (1 - t^2)(1 - e^{-v/a}))^{-1/2} dv,
          the tail integral with 1 - y^2 = (1 - t^2) e^{-v/a}, by
          Gauss-Laguerre.  It reads t itself, where the continued fraction
          reads the rounded x and loses about 2^-53/|t| relative."""
        if t > 0.0:
            return math.log1p(-math.exp(log_cdf(-t)))
        if t <= -1.0:
            return -math.inf
        w = t * t
        if (a + 2.5) * w < _CF_CENTER:
            return math.log(0.5 + t * math.exp(a * math.log1p(-w) + log_norm) * _beta_cf(0.5, a, w))
        if a < _LAGUERRE_FROM:
            tail = _beta_cf(a, a, 0.5 + 0.5 * t)
        else:
            v, weights = _laguerre()
            tail = float(weights @ (w + (1.0 - w) * -np.expm1(v / -a)) ** -0.5)
        log_s = math.log1p(-w) if t > -0.5 else math.log((1.0 - t) * (1.0 + t))
        return a * log_s + log_tail_norm + math.log(tail)

    def ppf(p: float) -> float:
        """inf { t : P(T <= t) >= p }: find_root on log P - log p, bracketed
        from a Student-t guess (sqrt(n - 1) T / sqrt(1 - T^2) is Student t
        with n - 1 degrees of freedom) by doubling or halving log(1 - t^2)."""
        if p > 0.5:
            return -ppf(1.0 - p)  # exact for p > 1/2
        if p == 0.5:
            return 0.0
        if not p > 0.0:
            return -1.0
        log_p = math.log(p)
        f = lambda t: log_cdf(t) - log_p

        def at(u: float) -> tuple[float, float]:
            t = max(-math.sqrt(-math.expm1(u)), _ABOVE_MINUS_ONE)
            return t, f(t)

        z2 = normal_quantile(p) ** 2
        u = math.log1p(-z2 / (z2 + 2.0 * a))  # log(1 - t^2) of the guess
        t, ft = at(u)
        scale = 0.5 if ft < 0.0 else 2.0  # toward 0 while f < 0, toward -1 while f >= 0
        while True:
            u *= scale
            s, fs = at(u)
            if (fs < 0.0) != (ft < 0.0):
                break
            if s == _ABOVE_MINUS_ONE:  # f >= 0 even next to -1
                return -1.0
            t, ft = s, fs
        (lo, f_lo), (hi, f_hi) = sorted(((t, ft), (s, fs)), key=lambda pair: pair[1])
        return find_root(f, lo, hi, f_lo, f_hi)[1]

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        return 2.0 * rng.beta(a, a, size=count) - 1.0

    return OverlapLaw(
        kind="continuous",
        statistic="scalar",
        descriptor={"kind": "sphere", "n": n},
        _log_pdf=log_pdf,
        _log_cdf=log_cdf,
        _ppf=ppf,
        support=(-1.0, 1.0),
        scale=n**-0.5,
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


def check_even_nondecreasing(law: OverlapLaw, g: Transform, vals: list | None = None) -> ShapeGrid:
    """The one shape check on continuous-law transforms: g must be even
    and nondecreasing in |t| on law.grid (vals, when given, are g there).
    Raises ValueError otherwise; returns the checked half t >= 0."""
    mid = len(law.grid) // 2
    vals = [float(g(x)) for x in law.grid] if vals is None else vals
    if any(abs(b - v) > _SHAPE_TOL * max(1.0, abs(v)) for v, b in zip(vals[mid:], vals[mid::-1])):
        raise ValueError("continuous-law transforms must be even in t")
    if not nondecreasing(vals[mid:], _REL_TOL):
        raise ValueError("continuous-law transforms must be nondecreasing in |t|")
    return ShapeGrid(g, law.grid[mid:], vals[mid:])


def find_root(f: Callable[[float], float], a: float, b: float, fa: float, fb: float):
    """Bracket (a', b') of the sign change of a monotone f, with
    f(a') < 0 <= f(b'), shrunk to float resolution (|b' - a'| <= 2^-51
    max(|a|, |b|)) or until _ROOT_STEPS evaluations are spent.  a may lie
    on either side of b.  ITP steps (Oliveira and Takahashi, ACM TOMS 47,
    2021): regula falsi, truncated toward the midpoint and projected into
    a shrinking bisection radius, so no run takes more steps than
    bisection and smooth f converge superlinearly (about 10 steps).  An
    infinite f at an end (no mass left, say) makes that step a bisection."""
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


def abs_event(law: OverlapLaw, mass: float, shape: ShapeGrid | None = None,
              strict: bool = False) -> tuple[ThresholdResult, float]:
    """Threshold r = sup { r : P(g(T) >= r) >= mass } on a continuous law,
    for g = shape.g checked by check_even_nondecreasing (|t| if None), plus
    the half-width h of the complementary event {|T| <= h}: the closed event
    {g(T) <= r} up to its boundary (h = tau, mass exactly 1 - mass) or,
    with strict, {g(T) < r} (h = the smallest |t| with g(t) >= r, at
    most tau; one root-find)."""
    check_mass(mass)
    tau = max(-law.ppf(0.5 * min(mass, 1.0)), 0.0)
    thr = ThresholdResult(tau if shape is None else float(shape.g(tau)), min(mass, 1.0), mass <= 1.0)
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
    """E[f(T)]: exact weighted sum for discrete laws, integral (relative
    tolerance QUAD_REL_TOL) for continuous ones; there `interval` = (lo, hi)
    restricts the integral to E[f(T) 1(lo <= T <= hi)]."""
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

    def log_f(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = np.array([f(t) for t in ts.tolist()], dtype=float)
        with np.errstate(divide="ignore"):
            return np.log(np.abs(y)), np.sign(y)

    inner = log_f(np.asarray(law.grid[1:-1]))[0]  # integral never reads the support's ends
    return integral(law, log_f, np.r_[-np.inf, inner, -np.inf], *(interval or law.support))[0]


def exp_or_inf(x: float) -> float:
    """e^x, +inf past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def integral(law: OverlapLaw, log_f: Callable[[np.ndarray], tuple], grid_log_f: np.ndarray,
             lo: float, hi: float) -> tuple[float, float]:
    """(value, log |value|) of E[f(T) 1(lo <= T <= hi)] on the continuous law,
    with f in log form: log_f(ts) gives (log |f|, sign f) at an array of
    points, and grid_log_f is log |f| at law.grid (read from a cached table).

    M is the peak of x = log |f| + log pdf over lo, hi and the grid points
    between; sign f exp(x - M) is integrated by gauss_legendre_panels over
    the stretches of those points within e^-_LOG_DROP of M, each widened by
    one point (so a narrow peak is found), and the log value is M + log of
    that.  f is never evaluated at the support's ends.  ValueError if the
    integrand is not finite or the density is infinite at lo or hi,
    ResourceLimitError past the panel budget."""
    lo, hi = max(lo, law.support[0]), min(hi, law.support[1])
    if not lo < hi:
        return 0.0, -math.inf
    grid = np.asarray(law.grid)
    i, j = np.searchsorted(grid, lo, side="right"), np.searchsorted(grid, hi, side="left")
    ends = np.array([lo, hi])
    end_pdf = law.log_pdf(ends)
    if np.isposinf(end_pdf).any():  # the sphere law at n = 2
        raise ValueError("the density is infinite at an end of the integral, which the "
                         "Gauss-Legendre panels cannot integrate")
    end_x = np.full(2, -math.inf)
    inside = np.abs(ends) < law.support[1]
    if inside.any():
        end_x[inside] = log_f(ends[inside])[0] + end_pdf[inside]
    xs = np.r_[lo, grid[i:j], hi]  # grid[i:j] lies in (lo, hi)
    vals = np.r_[end_x[0], grid_log_f[i:j] + law.grid_log_pdf[i:j], end_x[1]]
    shift = float(vals.max())
    if shift == -math.inf:
        return 0.0, -math.inf
    if not math.isfinite(shift):
        raise ValueError(f"the integrand is not finite (log |f| + log pdf = {shift})")
    near = np.flatnonzero(vals >= shift - _LOG_DROP)
    gap = np.flatnonzero(np.diff(near) > 2)  # runs of near points, widened by a point each side
    runs = np.clip(np.c_[near[np.r_[0, gap + 1]] - 1, near[np.r_[gap, -1]] + 1], 0, len(xs) - 1)

    def shifted(ts: np.ndarray) -> np.ndarray:
        log_abs, sign = log_f(ts)
        with np.errstate(over="ignore"):
            return sign * np.exp(log_abs + law.log_pdf(ts) - shift)

    # rounding an exponent near M alone perturbs the integrand by about 2^-52 |M|
    total = gauss_legendre_panels(shifted, xs[runs], max(QUAD_REL_TOL, 2.0**-50 * abs(shift)))
    if total == 0.0:
        return 0.0, -math.inf
    lv = math.log(abs(total)) + shift
    return math.copysign(exp_or_inf(lv), total), lv


@functools.cache
def _laguerre() -> tuple[np.ndarray, np.ndarray]:
    """The 64-point Gauss-Laguerre rule, built on first use: within about
    6e-15 on the sphere law's tail integral from a = 24.5 on."""
    return np.polynomial.laguerre.laggauss(64)


@functools.cache
def _legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(order)


def gauss_legendre_panels(g: Callable[[np.ndarray], np.ndarray], panels: np.ndarray,
                          rel_tol: float) -> float:
    """Integral of a vectorized g over disjoint panels [a, b] (rows of panels).

    Each panel is integrated by the two Gauss-Legendre orders _ORDERS; their
    difference bounds the error of the higher one, whose value is kept.
    While the differences of all panels sum to more than rel_tol times the
    integral of |g|, every panel above its equal share of that allowance is
    halved.  ResourceLimitError once more than _PANEL_BUDGET panels would be
    needed, ValueError where g is not finite; never a partial sum."""
    (x_lo, w_lo), (x_hi, w_hi) = _legendre(_ORDERS[0]), _legendre(_ORDERS[1])
    nodes, k = np.r_[x_lo, x_hi], len(x_lo)
    todo = np.asarray(panels, dtype=float)
    done = np.empty((0, 5))  # per panel: a, b, value, error, integral of |g|
    while True:
        if len(done) + len(todo) > _PANEL_BUDGET:
            raise ResourceLimitError(
                f"the integral did not converge to relative {rel_tol:.1e} within {_PANEL_BUDGET} panels")
        half = 0.5 * (todo[:, 1] - todo[:, 0])
        mid = 0.5 * (todo[:, 0] + todo[:, 1])
        y = g((mid[:, None] + half[:, None] * nodes).ravel()).reshape(len(todo), -1)
        if not np.isfinite(y).all():
            raise ValueError("the integrand is not finite at a quadrature node")
        low, high = half * (y[:, :k] @ w_lo), half * (y[:, k:] @ w_hi)
        done = np.r_[done, np.c_[todo, high, np.abs(high - low), half * (np.abs(y[:, k:]) @ w_hi)]]
        allowed = rel_tol * done[:, 4].sum()
        if done[:, 3].sum() <= allowed:
            return math.fsum(done[:, 2].tolist())
        split = done[:, 3] > allowed / len(done)
        a, b = done[split, 0], done[split, 1]
        todo = np.r_[np.c_[a, 0.5 * (a + b)], np.c_[0.5 * (a + b), b]]
        done = done[~split]


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
