"""A 50-digit reference for level sets on the sphere law, for the tests.

The level c with P(h(T) >= c) = mass, T the overlap of two uniform points
of the unit sphere in R^n, and the intervals of {h >= c}: h is evaluated
densely in mpmath, each grid cell whose ends straddle a level gets its
own mpmath.findroot, masses are regularized incomplete Beta functions,
and expectations over the intervals are mpmath.quad of the Beta density.
Nothing here calls fpsq.
"""

import mpmath as mp

DPS = 50
POINTS = 401  # even grid points of [-1, 1] on which h is evaluated


def sphere_pdf(n: int):
    """The density of T on [-1, 1]: (1 - t^2)^((n - 3)/2) / (2^(n - 2) B(a, a)), a = (n - 1)/2."""
    a = mp.mpf(n - 1) / 2
    norm = 1 / (2 ** (n - 2) * mp.beta(a, a))
    return lambda t: norm * (1 - t * t) ** (a - 1)


def interval_mass(n: int, lo, hi):
    """P(lo <= T <= hi): T = 2X - 1 with X ~ Beta(a, a)."""
    a = mp.mpf(n - 1) / 2
    return mp.re(mp.betainc(a, a, (1 + mp.mpf(lo)) / 2, (1 + mp.mpf(hi)) / 2, regularized=True))


def superlevel(h, n: int, c, xs, hs):
    """The intervals (lo, hi) of {h >= c} and their total mass, from the
    dense values hs of h at xs."""
    cross = []
    for i in range(len(xs) - 1):
        if (hs[i] >= c) != (hs[i + 1] >= c):
            root = mp.findroot(lambda t: h(t) - c, (xs[i], xs[i + 1]), solver="illinois", verify=False)
            cross.append((root, hs[i + 1] >= c))
    starts = [xs[0]] * (hs[0] >= c) + [x for x, rising in cross if rising]
    stops = [x for x, rising in cross if not rising] + [xs[-1]] * (hs[-1] >= c)
    intervals = list(zip(starts, stops))
    return intervals, mp.fsum(interval_mass(n, lo, hi) for lo, hi in intervals)


def level_set(h, n: int, mass):
    """(c, intervals of {h >= c}) with P(h(T) >= c) = mass, h an mpmath
    function on [-1, 1]: the two adjacent dense values of h whose masses
    straddle mass by bisection, then mpmath.findroot between them."""
    with mp.workdps(DPS):
        xs = mp.linspace(-1, 1, POINTS)
        hs = [h(x) for x in xs]
        excess = lambda c: superlevel(h, n, c, xs, hs)[1] - mp.mpf(mass)  # decreasing in c
        levels = sorted(set(hs))
        lo, hi = 0, len(levels) - 1  # excess(levels[lo]) >= 0 > excess(levels[hi])
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if excess(levels[mid]) >= 0 else (lo, mid)
        # the mass is only as precise as its 50-digit parts, so no residual check
        c = mp.findroot(excess, (levels[lo], levels[hi]), solver="illinois", verify=False)
        return c, superlevel(h, n, c, xs, hs)[0]


def expectation(f, n: int, intervals):
    """E[f(T) 1(T in the intervals)] by mpmath.quad of the Beta density."""
    with mp.workdps(DPS):
        pdf = sphere_pdf(n)
        return mp.fsum(mp.quad(lambda t: f(t) * pdf(t), [lo, hi]) for lo, hi in intervals)


def complement(intervals):
    """The intervals of [-1, 1] between the given ones (in order)."""
    edges = [mp.mpf(-1)] + [x for pair in intervals for x in pair] + [mp.mpf(1)]
    return [(lo, hi) for lo, hi in zip(edges[::2], edges[1::2]) if lo < hi]


def ngca_mixture_deviation(weights, means, variances, degree: int = 64):
    """K(t) - 1 = sum_{i=2}^{degree} nu_i^2 t^i of NGCA with a Gaussian
    mixture mu, nu_i = E_mu[He_i(z)] / sqrt(i!): for z ~ N(m, v),
    E[exp(s z - s^2/2)] = exp(s m + s^2 (v - 1)/2) gives E[He_i(z)] =
    i! sum_k m^(i-2k) ((v - 1)/2)^k / (k! (i - 2k)!).  (nu_1 = E[z] is 0
    for the mixtures used here.)"""
    with mp.workdps(DPS):
        parts = [(mp.mpf(w), mp.mpf(m), mp.mpf(v)) for w, m, v in zip(weights, means, variances)]
        nu2 = []
        for i in range(2, degree + 1):
            moment = mp.fsum(
                w * mp.factorial(i) * mp.fsum(m ** (i - 2 * k) * ((v - 1) / 2) ** k
                                              / (mp.factorial(k) * mp.factorial(i - 2 * k))
                                              for k in range(i // 2 + 1))
                for w, m, v in parts)
            nu2.append(moment ** 2 / mp.factorial(i))
    def deviation(t):
        acc = mp.mpf(0)
        for c in reversed(nu2):  # Horner's rule, from degree 2
            acc = (acc + c) * t
        return acc * t

    return deviation
