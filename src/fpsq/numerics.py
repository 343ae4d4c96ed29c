"""Hermite / Gaussian special functions and log-domain accumulation.

Conventions used throughout the package:

- phi(z) = standard normal density, Phi(z) = its CDF.
- h_i is the NORMALIZED probabilists' Hermite polynomial, i.e.

      E[h_i(Z) h_j(Z)] = delta_ij   for Z ~ N(0, 1),

  with h_0 = 1, h_1(z) = z and the stable three-term recurrence

      h_{i+1}(z) = (z h_i(z) - sqrt(i) h_{i-1}(z)) / sqrt(i + 1).

- Coefficients of interval indicators 1(a <= z <= b) admit the exact
  boundary form (integration by parts, He_i phi = -(He_{i-1} phi)'):

      int_a^b h_i(z) phi(z) dz = (h_{i-1}(a) phi(a) - h_{i-1}(b) phi(b)) / sqrt(i)

  for i >= 1, which is preferred over raw quadrature because quadrature
  converges slowly on discontinuous integrands.

- Linear sums over an array (atom tables above all) are correctly
  rounded by exact_sum, bit for bit the float math.fsum returns;
  log_sum_exp sums its shifted exponentials with it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_SQRT_HALF = 0.7071067811865476  # 1/sqrt(2) rounded; _SQRT_HALF_LO is the rest
_SQRT_HALF_LO = -4.833646656726457e-17

# Wichura's AS241 (PPND16) rational approximations of the normal quantile,
# lowest-degree coefficient first: the central stretch |p - 1/2| <= 0.425
# (_AS241_A / _AS241_B in r = 0.180625 - (p - 1/2)^2) and the tail for
# r = sqrt(-log min(p, 1 - p)) <= 5 (C / D, in r - 1.6) and beyond (E / F, in r - 5).
_AS241_A = (3.387132872796366608, 133.14166789178437745, 1971.5909503065514427,
            13731.693765509461125, 45921.953931549871457, 67265.770927008700853,
            33430.575583588128105, 2509.0809287301226727)
_AS241_B = (1.0, 42.313330701600911252, 687.1870074920579083, 5394.1960214247511077,
            21213.794301586595867, 39307.89580009271061, 28729.085735721942674,
            5226.495278852854561)
_AS241_C = (1.42343711074968357734, 4.6303378461565452959, 5.7694972214606914055,
            3.64784832476320460504, 1.27045825245236838258, 0.24178072517745061177,
            0.0227238449892691845833, 7.7454501427834140764e-4)
_AS241_D = (1.0, 2.05319162663775882187, 1.6763848301838038494, 0.68976733498510000455,
            0.14810397642748007459, 0.0151986665636164571966, 5.475938084995344946e-4,
            1.05075007164441684324e-9)
_AS241_E = (6.6579046435011037772, 5.4637849111641143699, 1.7848265399172913358,
            0.29656057182850489123, 0.026532189526576123093, 0.0012426609473880784386,
            2.71155556874348757815e-5, 2.01033439929228813265e-7)
_AS241_F = (1.0, 0.59983220655588793769, 0.13692988092273580531, 0.0148753612908506148525,
            7.868691311456132591e-4, 1.8463183175100546818e-5, 1.4215117583164458887e-7,
            2.04426310338993978564e-15)


def normal_pdf(x: float) -> float:
    """Standard normal density phi(x)."""
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def _rounding_of_half_erf(ax: float, w: float) -> float:
    """erf(ax/sqrt 2)/2 - erf(w)/2 to first order, w = fl(ax _SQRT_HALF):
    the rounding of w, which erfc magnifies 2 w^2 times in the tail, from
    Dekker's exact product and the rest of 1/sqrt(2).  ax must be below 1e300."""
    c = 134217729.0 * ax  # Veltkamp splits into 26-bit halves
    a_hi = c - (c - ax)
    c = 134217729.0 * _SQRT_HALF
    b_hi = c - (c - _SQRT_HALF)
    a_lo, b_lo = ax - a_hi, _SQRT_HALF - b_hi
    lost = ((a_hi * b_hi - w) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo + ax * _SQRT_HALF_LO
    return _INV_SQRT_PI * math.exp(-w * w) * lost


def normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x), within 2 ulp in both tails: the lower
    tail erfc(|x|/sqrt 2)/2 as cephes ndtr takes it, corrected for the
    rounding of |x|/sqrt 2."""
    ax = abs(x)
    w = ax * _SQRT_HALF
    tail = 0.5 * math.erfc(w)
    if tail > 0.0:  # so |x| < 40
        tail -= _rounding_of_half_erf(ax, w)
    return tail if x < 0.0 else 1.0 - tail


def _poly(coeffs: Sequence[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def normal_quantile(p: float) -> float:
    """Inverse of normal_cdf on (0, 1), within 2 ulp: Wichura's AS241
    (Appl. Statist. 37, 1988), then one Newton step, through erfc on the
    lower tail and through erf on the central stretch, where p - 1/2 is
    exact.

    Raises ValueError outside the open unit interval; the endpoints map
    to non-finite values and are rejected rather than returned.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal_quantile requires p in (0, 1), got {p}")
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        x = q * _poly(_AS241_A, r) / _poly(_AS241_B, r)
        ax = abs(x)
        w = ax * _SQRT_HALF
        excess = math.copysign(0.5 * math.erf(w) + _rounding_of_half_erf(ax, w), x) - q
        return x - excess / normal_pdf(x)
    low = min(p, 1.0 - p)  # 1 - p is exact for p >= 1/2
    r = math.sqrt(-math.log(low))
    if r <= 5.0:
        x = -_poly(_AS241_C, r - 1.6) / _poly(_AS241_D, r - 1.6)
    else:
        x = -_poly(_AS241_E, r - 5.0) / _poly(_AS241_F, r - 5.0)
    density = normal_pdf(x)
    if density > 0.0:
        x -= (normal_cdf(x) - low) / density
    return x if q < 0.0 else -x


def hermite_matrix(max_degree: int, x: np.ndarray) -> np.ndarray:
    """Matrix H with H[i, j] = h_i(x_j) for i = 0..max_degree.

    Vectorized form of the three-term recurrence.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((max_degree + 1, x.size), dtype=float)
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = x
    for i in range(1, max_degree):
        out[i + 1] = (x * out[i] - math.sqrt(i) * out[i - 1]) / math.sqrt(i + 1)
    return out


@dataclass(frozen=True)
class HermiteSeries:
    """Truncated expansion f ~= sum_i coefficients[i] h_i in L2(phi).

    `tail` is the declared estimate of the L2(phi) mass beyond the
    truncation (Parseval deficit E[f^2] - sum c_i^2, clipped at 0), or
    None when no such estimate is available.
    """

    coefficients: tuple[float, ...]
    tail: float | None = None


def interval_indicator_coeffs(a: float, b: float, max_degree: int) -> HermiteSeries:
    """Exact Hermite coefficients of the indicator 1(a <= z <= b).

    Uses the boundary-term formula; the declared tail is the exact
    Parseval deficit Phi(b) - Phi(a) - sum_i c_i^2 (the indicator's
    L2(phi) norm equals its mass).
    """
    if not a <= b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    mass = normal_cdf(b) - normal_cdf(a)
    coeffs = [mass]
    pa, pb = normal_pdf(a), normal_pdf(b)
    ha_prev, ha = 1.0, a
    hb_prev, hb = 1.0, b
    for i in range(1, max_degree + 1):
        if i == 1:
            lo, hi = 1.0, 1.0
        else:
            ha_prev, ha = ha, (a * ha - math.sqrt(i - 1) * ha_prev) / math.sqrt(i)
            hb_prev, hb = hb, (b * hb - math.sqrt(i - 1) * hb_prev) / math.sqrt(i)
            lo, hi = ha_prev, hb_prev
        coeffs.append((lo * pa - hi * pb) / math.sqrt(i))
    tail = max(mass - sum(c * c for c in coeffs), 0.0)
    return HermiteSeries(tuple(coeffs), tail=tail)


def symmetric_indicator_coeffs(kappa: float, max_degree: int) -> HermiteSeries:
    """Coefficients f_i of 1(|z| <= kappa); odd ones vanish by symmetry."""
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    series = interval_indicator_coeffs(-kappa, kappa, max_degree)
    coeffs = list(series.coefficients)
    for i in range(1, len(coeffs), 2):
        coeffs[i] = 0.0
    return HermiteSeries(tuple(coeffs), tail=series.tail)


def symmetric_indicator_tail(kappa: float, degree: int, extend_to: int = 200_000) -> float:
    """Upper estimate of sum_{i > degree} f_i^2 for 1(|z| <= kappa).

    Sums the exact coefficients up to `extend_to` by recurrence, then
    bounds the remainder using the envelope f_i^2 = 4 phi(kappa)^2
    h_{i-1}(kappa)^2 / i with h_{i-1}^2 <= M / sqrt(i) calibrated on the
    last computed stretch (1.5x safety factor):

        sum_{i > B} f_i^2 <= 4 phi(kappa)^2 M / sqrt(B).
    """
    if degree < 2:
        raise ValueError("degree must be at least 2")
    if extend_to <= degree:
        raise ValueError("extend_to must exceed degree")
    p = normal_pdf(kappa)
    prev, cur = 1.0, kappa  # h_0, h_1 at kappa
    partial = 0.0
    envelope = 0.0
    watch_from = int(0.9 * extend_to)
    for i in range(2, extend_to + 1, 2):
        # advance recurrence two degrees so that (prev, cur) = (h_{i-2}, h_{i-1})
        prev, cur = cur, (kappa * cur - math.sqrt(i - 1) * prev) / math.sqrt(i)
        fi = -2.0 * prev * p / math.sqrt(i)
        if i > degree:
            partial += fi * fi
        if i >= watch_from:
            envelope = max(envelope, prev * prev * math.sqrt(i))
        prev, cur = cur, (kappa * cur - math.sqrt(i) * prev) / math.sqrt(i + 1)
    remainder = 4.0 * p * p * (1.5 * envelope) / math.sqrt(extend_to)
    return partial + remainder


# exact_sum hands shorter arrays to math.fsum, which is faster there: on the
# 127 masses of the 126-sign law fsum takes 8 to 20 us against about 20 us,
# on the 251 of the 250-sign law 43 to 58 us against 15 to 26 us
_EXACT_SUM_MIN_SIZE = 192
_SPLIT = 2.0**26


@functools.cache
def _window_scales(width: int) -> tuple[np.ndarray, np.ndarray]:
    """2^(1023 - k width) and its inverse for every window k of a double's
    biased exponent (0..2047) cut into windows of the given width."""
    k = np.arange(2048 // width + 1)
    with np.errstate(over="ignore"):
        return np.ldexp(1.0, 1023 - width * k), np.ldexp(1.0, width * k - 1023)


def exact_sum(x) -> float:
    """The correctly rounded sum of a float array: the float math.fsum
    returns, bit for bit, raising where it raises, from O(n) numpy work.

    fsum's cost grows with the spread of its terms' exponents (0.7 ms on
    1,001 masses spanning 2^-1000 to 2^-5).  Here the biased exponents are
    cut into windows of width w = 27 - ceil(log2 n); each term is scaled
    exactly by a power of two into its window, below 2^w, and split into
    a multiple of 2^-26 and a rest below 2^-26.  Every partial sum of one
    window's high (or low) parts is then a multiple of its quantum below
    2^53 quanta, so np.bincount adds them exactly in any order.  fsum then
    rounds the total of the nonzero window sums (at most 2 + 4096 / w)
    once, fed largest window first, the order in which it is fastest.

    Short arrays, arrays beyond 2^26 terms and arrays holding inf, nan or
    terms near the overflow threshold go to math.fsum itself, as does a
    zero total (so the sign of a zero follows fsum on every Python)."""
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    if n < _EXACT_SUM_MIN_SIZE or n > 2**26:
        return math.fsum(x.tolist())
    log_n = (n - 1).bit_length()
    width = 27 - log_n
    down, up = _window_scales(width)
    window = (np.abs(x).view(np.int64) >> 52) // width
    scaled = x * down[window]
    high = scaled * _SPLIT
    np.trunc(high, out=high)
    high *= 1.0 / _SPLIT
    high_sums = np.bincount(window, weights=high)
    count = len(high_sums)
    if count * width + log_n > 2040:  # inf or nan (exponent 2047), or a sum that could pass 2^1017
        return math.fsum(x.tolist())
    sums = np.empty((count, 2))
    sums[:, 0] = np.bincount(window, weights=scaled - high, minlength=count)
    sums[:, 1] = high_sums
    sums *= up[:count, None]
    sums = sums.ravel()[::-1]
    total = math.fsum(sums[sums != 0.0].tolist())
    return total if total else math.fsum(x.tolist())


def log_sum_exp(log_terms: Sequence[float]) -> float:
    """log(sum_i exp(log_terms[i])), stable against overflow.

    Terms of -inf are allowed (exact zeros); an empty input is an error
    rather than -inf since every caller expects a nonempty sum.  The shifted
    exponentials are summed exactly (exact_sum); one term is x + 0.0, bit
    for bit what that sum gives (0.0 at -0.0), without numpy."""
    if len(log_terms) == 1:
        return float(log_terms[0]) + 0.0
    x = np.asarray(log_terms, dtype=float)
    if x.size == 0:
        raise ValueError("log_sum_exp requires at least one term")
    m = float(x.max())
    if math.isinf(m):
        return m
    return m + math.log(exact_sum(np.exp(x - m)))
