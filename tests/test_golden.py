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


# Rows recorded as +inf: chi^2 beyond the float range now reports the
# log of E[K^m] under the overflow-log tag (the old rows had an infinite log).
FIXED = {
    "dense-clique-desk|chi2|q=None|m=200": [
        None, None, float(dense_clique_log_moment(400, 8, mpmath.mpf("0.8"), 200)),
        "", "exact-sum+overflow-log"],
    # E[K^m] = 2^(n m) / #slice for the repeated-signal model
    "dirac-desk|chi2|q=None|m=200": [
        None, None, float(20 * 200 * mpmath.log(2) - mpmath.log(math.comb(20, 18))),
        "", "exact-sum+overflow-log"],
}


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
    for key in FIXED:
        assert golden[key][2] == math.inf
