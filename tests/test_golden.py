"""The golden sweep (tests/golden_sweep.py) against its recorded rows.

Every float of a row (threshold, achieved mass, value) must match at
1e-12 relative, with a 1e-15 absolute floor for values that are the
rounding residue of an exact zero; verdicts, methods and refusals must
be identical.  The recorded rows whose old values were wrong are listed
in FIXED with an independent 50-digit reference.
"""

import json
import math

import mpmath
import pytest

from golden_sweep import DATA_PATH, sweep_rows

mpmath.mp.dps = 50


def dense_clique_log_moment(n, k, p, m):
    """log E[p^(-m C(L, 2))], L hypergeometric(n, k): exact binomials."""
    terms = [mpmath.log(mpmath.binomial(k, ell) * mpmath.binomial(n - k, k - ell)
                        / mpmath.binomial(n, k)) - m * math.comb(ell, 2) * mpmath.log(p)
             for ell in range(k + 1)]
    top = max(terms)
    return top + mpmath.log(mpmath.fsum(mpmath.exp(t - top) for t in terms))


def si_sign_sparse_sq(n, k, max_degree, q):
    """(threshold, achieved mass, value) of SQ for the sign-link
    single-index kernel on the signed k-sparse law: the truncated series
    in mpmath (lambda_i^2 = (2/pi) ((i-2)!!)^2 / i! for odd i), where
    the mirror levels |K(+-t) - 1| are exactly equal, and masses from
    exact binomials."""
    coeffs = {i: 2 / mpmath.pi * mpmath.fac2(i - 2) ** 2 / mpmath.factorial(i)
              for i in range(1, max_degree + 1, 2)}
    mass = {}  # |j| -> P(|<u,v>| = |j| / k), a mixture over the intersection size
    for ell in range(k + 1):
        w = mpmath.binomial(k, ell) * mpmath.binomial(n - k, k - ell) / mpmath.binomial(n, k)
        for b in range(ell + 1):
            j = abs(2 * b - ell)
            mass[j] = mass.get(j, 0) + w * mpmath.binomial(ell, b) / mpmath.mpf(2) ** ell
    level = {j: abs(mpmath.fsum(c * (mpmath.mpf(j) / k) ** i for i, c in coeffs.items()))
             for j in mass}
    top, acc = mpmath.mpf(0), mpmath.mpf(0)
    for j in sorted(mass, key=lambda j: -level[j]):  # whole levels, highest first
        top += level[j] * mass[j]
        acc += mass[j]
        if acc >= mpmath.mpf(q) ** -2:
            return level[j], acc, top / acc


# Rows recorded as +inf: chi^2 beyond the float range now reports the
# log of E[K^m] under the overflow-log tag (the old rows had an infinite log).
OVERFLOW_FIXED = {
    "dense-clique-desk|chi2|q=None|m=200": [
        None, None, float(dense_clique_log_moment(400, 8, mpmath.mpf("0.8"), 200)),
        "", "exact-sum+overflow-log"],
    # E[K^m] = 2^(n m) / #slice for the repeated-signal model
    "dirac-desk|chi2|q=None|m=200": [
        None, None, float(20 * 200 * mpmath.log(2) - mpmath.log(math.comb(20, 18))),
        "", "exact-sum+overflow-log"],
}

def sq_tie_rows() -> dict:
    """SQ rows whose boundary level has a mirror level one ulp away: the
    two count as one level now, so SQ conditions on their joint tail
    mass (the old rows conditioned on the higher level alone)."""
    rows = {}
    for q in (2.0, 3.0, 20.0):
        thr, mass, value = (float(x) for x in si_sign_sparse_sq(40, 6, 40, q))
        for m in (1, 2, 5, 20, 200):
            rows[f"si-sign-sparse|sq|q={q!r}|m={m}"] = [
                thr, mass, value, "hard" if value <= 1.0 / m else "not-hard", "exact-sum"]
    return rows


SQ_TIE_FIXED = sq_tie_rows()

FIXED = {**OVERFLOW_FIXED, **SQ_TIE_FIXED}


def same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if a == b:
            return True
        return abs(a - b) <= max(1e-12 * max(abs(a), abs(b)), 1e-15)
    return a == b


@pytest.fixture(scope="module")
def rows():
    return sweep_rows()


@pytest.fixture(scope="module")
def golden():
    with open(DATA_PATH) as fh:
        return json.load(fh)


def test_same_cells(rows, golden):
    assert sorted(rows) == sorted(golden)


def test_rows_match_golden(rows, golden):
    bad = []
    for key, want in golden.items():
        want = FIXED.get(key, want)
        got = rows[key]
        if isinstance(want, str) or isinstance(got, str):
            ok = got == want
        else:
            ok = len(got) == len(want) and all(same(a, b) for a, b in zip(got, want))
        if not ok:
            bad.append((key, want, got))
    assert not bad, bad[:10]


def test_fixed_rows_were_infinite(golden):
    for key in OVERFLOW_FIXED:
        assert golden[key][2] == math.inf


def test_fixed_sq_rows_conditioned_on_one_mirror_level(golden):
    for key, want in SQ_TIE_FIXED.items():
        assert golden[key][1] < want[1]
