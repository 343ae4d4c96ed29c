"""Overlap-statistic laws: exact pmfs, survival thresholds, and the
seeded atom draws of the tests' Monte Carlo check."""

import math
import random
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import stats

import fpsq.laws
from fpsq.laws import (
    MAX_ATOMS,
    AtomEvaluationError,
    LevelSets,
    Levels,
    ResourceLimitError,
    expect,
    make_law,
    survival,
    threshold_sup,
)
from helpers import draw_atoms


class TestConstruction:
    def test_hypergeometric_pmf_matches_combinatorics(self):
        law = make_law({"kind": "hypergeometric", "n": 100, "k": 5})
        denom = math.comb(100, 5)
        for ell, p in law.atoms:
            want = Fraction(math.comb(5, int(ell)) * math.comb(95, 5 - int(ell)), denom)
            assert p == pytest.approx(float(want), rel=1e-15)
        assert law.probs[0] == pytest.approx(math.comb(95, 5) / math.comb(100, 5), rel=1e-15)

    def test_probabilities_sum_to_one(self):
        for spec in [
            {"kind": "hypergeometric", "n": 40, "k": 6},
            {"kind": "signed_sparse", "n": 30, "k": 5},
            {"kind": "rademacher_mean", "n": 33},
            {"kind": "two_point", "rho_p": 0.3, "values": [1.0, 9.0, 0.0]},
            {"kind": "pair_counts", "n": 8, "rho_p": 0.25},
            {"kind": "equality", "n": 20},
        ]:
            law = make_law(spec)
            assert math.fsum(law.probs) == pytest.approx(1.0, abs=1e-12)

    def test_two_point_pair_masses(self):
        law = make_law({"kind": "two_point", "rho_p": 0.3, "values": [1.0, 9.0, 0.0]})
        table = dict(law.atoms)
        assert table[1.0] == pytest.approx(0.09, abs=1e-15)  # independence square
        assert table[9.0] == pytest.approx(0.49, abs=1e-15)
        assert table[0.0] == pytest.approx(0.42, abs=1e-15)

    def test_pair_counts_atoms(self):
        law = make_law({"kind": "pair_counts", "n": 8, "rho_p": 0.25})
        table = dict(law.atoms)
        assert table[(8, 0, 1)] == pytest.approx(0.0625)
        assert table[(1, 0, 8)] == pytest.approx(0.5625)
        assert table[(0, 9, 0)] == pytest.approx(0.375)
        assert all(sum(v) == 9 for v, _ in law.atoms)

    def test_signed_sparse_symmetry_and_grid(self):
        law = make_law({"kind": "signed_sparse", "n": 24, "k": 4})
        table = dict(law.atoms)
        for v, p in law.atoms:
            assert table[-v] == pytest.approx(p, rel=1e-12)
            assert round(v * 4) == pytest.approx(v * 4, abs=1e-12)

    @pytest.mark.parametrize("n, k", [
        (1, 1), (5, 1),  # k = 1
        (7, 7), (8, 8),  # k = n
        (12, 6), (14, 7),  # n = 2k
        (10, 9), (13, 12),  # n = k + 1
        (31, 5), (40, 6),  # n > 2k, odd and even k
        (1000, 200),  # the benchmark's law
    ])
    def test_signed_sparse_masses_are_the_exact_masses_rounded(self, n, k):
        # reference: the double sum over the intersection size ell and the
        # number b of agreeing signs in it, in Fractions
        exact = {}
        for ell in range(k + 1):
            weight = Fraction(math.comb(k, ell) * math.comb(n - k, k - ell), math.comb(n, k))
            for b in range(ell + 1):
                exact[2 * b - ell] = exact.get(2 * b - ell, 0) + weight * Fraction(math.comb(ell, b), 2**ell)
        js = sorted(j for j, p in exact.items() if p)
        law = make_law({"kind": "signed_sparse", "n": n, "k": k})
        assert law.values.tolist() == [j / k for j in js]
        assert law.probs.tolist() == [float(exact[j]) for j in js]  # float(Fraction) rounds correctly

    def test_sphere_is_symmetric_continuous(self):
        law = make_law({"kind": "sphere", "n": 12})
        assert survival(law, 0.0) == pytest.approx(0.5, abs=1e-9)
        assert law.cdf(1.0) == pytest.approx(1.0, abs=1e-12)
        assert np.exp(law.log_pdf(0.0)) > 0.0

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            make_law({"kind": "hypergeometric", "n": 5, "k": 6})
        with pytest.raises(ValueError):
            make_law({"kind": "hypergeometric", "n": 0, "k": 0})
        with pytest.raises(ValueError, match="2\\^53"):  # the mass ratios' integers must be exact floats
            make_law({"kind": "hypergeometric", "n": 2**53, "k": 2})
        with pytest.raises(ValueError):
            make_law({"kind": "two_point", "rho_p": 1.3, "values": [1, 2, 0]})
        with pytest.raises(ValueError):
            make_law({"kind": "no-such-prior"})
        with pytest.raises(ValueError):
            make_law({"kind": "equality", "n": 17})


def rounded(num: int, den: int) -> tuple[float, int]:
    """num / den as (f, e), f in [0.5, 1): int / int is correctly rounded,
    and every mass checked here is a normal float."""
    return math.frexp(num / den)


class TestMasses:
    """The rademacher_mean and hypergeometric masses against exact integer
    ratios (math.comb, Fraction) and 50-digit mpmath logs."""

    def test_every_rademacher_mass_is_the_rounded_ratio(self):
        for n in range(1, 301):
            law = make_law({"kind": "rademacher_mean", "n": n})
            assert law.values.tolist() == [(2 * b - n) / n for b in range(n + 1)]
            assert list(zip(law.f.tolist(), law.e.tolist())) == [rounded(math.comb(n, b), 2**n)
                                                                 for b in range(n + 1)], n

    def test_every_hypergeometric_mass_is_the_rounded_ratio(self):
        for n in range(1, 61):
            for k in range(1, n + 1):  # 2k > n and k = n included
                law = make_law({"kind": "hypergeometric", "n": n, "k": k})
                support = range(max(0, 2 * k - n), k + 1)
                assert law.values.tolist() == [float(ell) for ell in support]
                assert list(zip(law.f.tolist(), law.e.tolist())) == [
                    rounded(math.comb(k, ell) * math.comb(n - k, k - ell), math.comb(n, k))
                    for ell in support], (n, k)

    @pytest.mark.parametrize("n, b", [(57, 32), (60, 25), (61, 38)])
    def test_masses_on_a_rounding_tie(self, n, b):
        # C(n, b) has an odd part of 54 bits: its mass lies exactly halfway
        # between two floats and rounds to the even one
        c = math.comb(n, b)
        odd = c >> ((c & -c).bit_length() - 1)
        assert odd.bit_length() == 54
        law = make_law({"kind": "rademacher_mean", "n": n})
        f, e = law.f.tolist()[b], law.e.tolist()[b]
        assert (f, e) == rounded(c, 2**n)
        assert int(math.ldexp(f, 53)) % 2 == 0
        assert abs(Fraction(f) * Fraction(2) ** e - Fraction(c, 2**n)) == Fraction(2) ** (e - 54)

    @pytest.mark.parametrize("spec", [
        {"kind": "rademacher_mean", "n": 10**5},
        {"kind": "hypergeometric", "n": 10**6, "k": 1000},
        {"kind": "hypergeometric", "n": 10**9, "k": 10**4},
        {"kind": "hypergeometric", "n": 10**9, "k": 10**5},
    ])
    def test_log_masses_match_mpmath_at_scale(self, spec):
        n = spec["n"]
        law = make_law(spec)
        if spec["kind"] == "rademacher_mean":
            low, mode = 0, n // 2
            ref = lambda i: mpmath.log(mpmath.binomial(n, i)) - n * mpmath.log(2)
        else:
            k = spec["k"]
            low, mode = max(0, 2 * k - n), (k + 1) ** 2 // (n + 2)
            ref = lambda ell: (mpmath.log(mpmath.binomial(k, ell)) + mpmath.log(mpmath.binomial(n - k, k - ell))
                               - mpmath.log(mpmath.binomial(n, k)))
        count = len(law.values)
        atoms = random.Random(14).sample(range(count), 200) + [0, mode - low, count - 1]
        for i in atoms:
            with mpmath.workdps(50):
                want = ref(low + i)
            assert abs(law.log_probs[i] - want) <= 1e-14 * abs(want), (spec, low + i)

    def test_masses_sum_to_one_within_two_ulp(self):
        for spec in ({"kind": "rademacher_mean", "n": 4000}, {"kind": "hypergeometric", "n": 10**6, "k": 1000}):
            assert abs(math.fsum(make_law(spec).probs) - 1.0) <= 2.0**-51

    def test_a_large_hypergeometric_law_reads_no_big_binomial(self, monkeypatch):
        # the start mass comes from the double-double chain; C(n, k), whose
        # cost the atom budget does not bound, is read only where a rounding
        # is ambiguous, and no mass of (10^9, 10^5) is
        comb, calls = math.comb, []
        monkeypatch.setattr(math, "comb", lambda a, b: calls.append((a, b)) or comb(a, b))
        law = make_law({"kind": "hypergeometric", "n": 10**9, "k": 10**5})
        assert calls == [] and len(law.values) == 10**5 + 1

    def test_a_wrong_mass_ratio_fails_the_total_check(self, monkeypatch):
        # the builders check the rounded masses' total within 2^-51, so a
        # recurrence one part in 10^12 off is caught
        quotient = fpsq.laws._dd_quotient
        monkeypatch.setattr(fpsq.laws, "_dd_quotient", lambda a, d: quotient(a * (1.0 + 1e-12), d))
        with pytest.raises(AssertionError, match="sum to"):
            make_law({"kind": "rademacher_mean", "n": 100})


class TestAtomBudget:
    @pytest.mark.parametrize("spec", [
        {"kind": "rademacher_mean", "n": MAX_ATOMS},
        {"kind": "hypergeometric", "n": 10**9, "k": MAX_ATOMS},
        {"kind": "signed_sparse", "n": 10**9, "k": MAX_ATOMS // 2},
    ])
    def test_a_law_past_the_budget_is_refused(self, spec):
        with pytest.raises(ResourceLimitError, match="atoms"):
            make_law(spec)

    @pytest.mark.parametrize("n, k", [(10**9, 10**5), (10**4, 9000), (10**30, 5000)])
    def test_a_signed_sparse_law_past_the_work_budget_is_refused_at_once(self, n, k):
        # within the atom budget, but (k + 1)^2 big-integer additions that would run for minutes to hours
        start = time.process_time()
        with pytest.raises(ResourceLimitError, match="bit operations"):
            make_law({"kind": "signed_sparse", "n": n, "k": k})
        assert time.process_time() - start < 1.0

    def test_a_signed_sparse_law_within_the_work_budget_is_built(self):
        law = make_law({"kind": "signed_sparse", "n": 10**5, "k": 1000})
        assert law.values.tolist() == [j / 1000 for j in range(-1000, 1001)]
        assert law.probs[1000] == law.probs.max()

    def test_an_equality_law_within_its_budget_is_built(self):
        # the mass 1 / C(n, 9n/10) of the diagonal underflows as a float, not as f 2^e
        n = 10**6
        law = make_law({"kind": "equality", "n": n})
        want = math.lgamma(n + 1) - math.lgamma(9 * n // 10 + 1) - math.lgamma(n // 10 + 1)
        assert law.values.tolist() == [0.0, 1.0] and law.probs.tolist() == [1.0, 0.0]
        assert law.log_probs[1] == pytest.approx(-want, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 40, 1000, 10**5, 2**40 - 1, 2**40, 2**53 + 1, 10**30])
    def test_the_work_estimate_reads_the_binomial_size(self, n):
        # lgamma, and s log n - log s! from 2^40 on, against the exact bit length
        for k in {1, 2, 3000, n // 3, n // 2, n - 1, n} & set(range(1, min(n, 3000) + 1)):
            exact = math.comb(n, k).bit_length()  # log2 C(n, k) lies in [exact - 1, exact)
            assert exact - 2 <= fpsq.laws._log2_comb(n, k) <= exact + 1, (n, k)

    def test_the_hypergeometric_count_is_its_support(self):
        # k = n - 1 gives two atoms, whatever k
        law = make_law({"kind": "hypergeometric", "n": MAX_ATOMS + 10, "k": MAX_ATOMS + 9})
        assert law.values.tolist() == [float(MAX_ATOMS + 8), float(MAX_ATOMS + 9)]


class TestWholeSizes:
    @pytest.mark.parametrize("spec, field", [
        ({"kind": "signed_sparse", "n": 40.9, "k": 6}, "n"),
        ({"kind": "signed_sparse", "n": 40, "k": 6.5}, "k"),
        ({"kind": "hypergeometric", "n": True, "k": True}, "n"),
        ({"kind": "hypergeometric", "n": 100, "k": "5"}, "k"),
        ({"kind": "rademacher_mean", "n": "64"}, "n"),
        ({"kind": "sphere", "n": math.inf}, "n"),
        ({"kind": "sphere", "n": math.nan}, "n"),
        ({"kind": "pair_counts", "n": 8.2, "rho_p": 0.25}, "n"),
        ({"kind": "equality", "n": False}, "n"),
        ({"kind": "signed_sparse", "k": 6}, "n"),
    ])
    def test_a_size_that_is_not_a_whole_number_is_refused(self, spec, field):
        # int() would truncate 40.9 to 40, read True as 1 and "64" as 64
        with pytest.raises(ValueError, match=f"^'{field}' must be a whole number"):
            make_law(spec)

    def test_a_whole_float_or_numpy_size_is_its_integer(self):
        want = make_law({"kind": "signed_sparse", "n": 40, "k": 6})
        for n, k in [(40.0, 6.0), (np.int64(40), np.int32(6)), (np.float64(40.0), 6)]:
            law = make_law({"kind": "signed_sparse", "n": n, "k": k})
            assert law.descriptor == want.descriptor
            assert law.values.tolist() == want.values.tolist() and law.probs.tolist() == want.probs.tolist()


class TestSurvival:
    def test_minus_infinity_threshold(self):
        law = make_law({"kind": "hypergeometric", "n": 100, "k": 5})
        assert survival(law, -math.inf) == pytest.approx(1.0, abs=1e-15)

    def test_beyond_support(self):
        law = make_law({"kind": "hypergeometric", "n": 100, "k": 5})
        assert survival(law, 6.0) == 0.0

    def test_exact_tail_sum(self):
        law = make_law({"kind": "hypergeometric", "n": 100, "k": 5})
        want = math.fsum(p for ell, p in law.atoms if ell >= 3)
        assert survival(law, 3.0) == pytest.approx(want, rel=1e-15)

    def test_transform_pushforward(self):
        law = make_law({"kind": "signed_sparse", "n": 24, "k": 4})
        direct = math.fsum(p for v, p in law.atoms if abs(v) >= 0.5)
        levels = Levels.of(np.abs(law.values), law.probs)
        assert levels.tails[levels.levels.searchsorted(0.5)] == pytest.approx(direct, rel=1e-14)


class TestThresholdSup:
    def test_full_mass_gives_support_minimum(self):
        law = make_law({"kind": "hypergeometric", "n": 100, "k": 5})
        res = threshold_sup(law, 1.0)
        assert res.threshold == 0.0
        assert res.achieved_mass == pytest.approx(1.0)

    def test_exact_level_flag(self):
        law = make_law({"kind": "hypergeometric", "n": 100, "k": 5})
        mass = survival(law, 2.0)
        res = threshold_sup(law, mass)
        assert res.threshold == 2.0
        assert res.exact

    def test_generalized_inverse_property(self):
        law = make_law({"kind": "signed_sparse", "n": 24, "k": 4})
        abs_survival = lambda r: math.fsum(p for v, p in law.atoms if abs(v) >= r)
        for mass in (0.9, 0.5, 0.1, 0.01, 1e-4):
            res = Levels.of(np.abs(law.values), law.probs).threshold(mass)
            assert abs_survival(res.threshold) >= mass * (1 - 1e-12)
            levels = sorted({abs(v) for v, _ in law.atoms})
            above = [x for x in levels if x > res.threshold + 1e-12]
            if above:
                assert abs_survival(above[0]) < mass

    def test_two_point_diagonal_dominates_at_scale(self):
        # two-point prior with one heavy self-overlap-n atom: when the
        # off-diagonal mass 2 rho (1 - rho) drops below the 1/n tail
        # requirement, the threshold lands on a diagonal overlap value
        # and the zero-overlap mixed atom lies strictly inside the event
        n = 2**20
        rho_p = math.exp(-float(n) ** 0.2) / 2.0
        law = make_law({"kind": "two_point", "rho_p": rho_p, "values": [1.0, float(n), 0.0]})
        assert 2 * rho_p * (1 - rho_p) < 1.0 / n
        res = Levels.of(np.abs(law.values), law.probs).threshold(1.0 / n)
        assert res.threshold == float(n)
        assert res.threshold > 0.0

    def test_continuous_threshold_solves_mass(self):
        law = make_law({"kind": "sphere", "n": 30})
        res = LevelSets(law, np.abs(law.grid), np.abs).threshold(0.05)[0]
        assert res.exact
        assert 2.0 * survival(law, res.threshold) == pytest.approx(0.05, abs=1e-9)

    def test_mass_domain(self):
        law = make_law({"kind": "hypergeometric", "n": 100, "k": 5})
        with pytest.raises(ValueError):
            threshold_sup(law, 0.0)
        with pytest.raises(ValueError):
            threshold_sup(law, 1.5)


class TestExpect:
    def test_constant(self):
        law = make_law({"kind": "hypergeometric", "n": 50, "k": 4})
        assert expect(law, lambda t: 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_hypergeometric_mean(self):
        n, k = 60, 7
        law = make_law({"kind": "hypergeometric", "n": n, "k": k})
        enum = math.fsum(v * p for v, p in law.atoms)
        assert expect(law, lambda t: t) == pytest.approx(k * k / n, rel=1e-12)
        assert expect(law, lambda t: t) == pytest.approx(enum, rel=1e-15)

    def test_sphere_second_moment(self):
        # Beta-integral oracle: E[T^2] = 1/n for the sphere overlap
        for n in (10, 50):
            law = make_law({"kind": "sphere", "n": n})
            assert expect(law, lambda t: t * t) == pytest.approx(1.0 / n, rel=1e-9)

    def test_non_finite_integrand_names_the_atom(self):
        law = make_law({"kind": "hypergeometric", "n": 20, "k": 3})
        with pytest.raises(AtomEvaluationError) as err:
            expect(law, lambda t: math.inf if t == 2.0 else 1.0)
        assert err.value.atom == 2.0


class TestSampling:
    """helpers.draw_atoms, the draws of the tests' Monte Carlo check."""

    def test_determinism(self):
        law = make_law({"kind": "hypergeometric", "n": 100, "k": 5})
        a = law.values[draw_atoms(law, 123, 1000)]
        b = law.values[draw_atoms(law, 123, 1000)]
        np.testing.assert_array_equal(a, b)

    def test_degenerate_two_point(self):
        law = make_law({"kind": "two_point", "rho_p": 0.0, "values": [1.0, 9.0, 0.0]})
        draws = law.values[draw_atoms(law, 0, 100)]
        assert np.all(draws == 9.0)

    def test_empirical_frequencies_within_binomial_band(self):
        law = make_law({"kind": "hypergeometric", "n": 100, "k": 5})
        N = 1_000_000
        draws = law.values[draw_atoms(law, 7, N)]
        for v, p in law.atoms:
            emp = float(np.mean(draws == v))
            band = 3.0 * math.sqrt(p * (1 - p) / N)
            assert abs(emp - p) <= band + 2.0 / N

    def test_chi_square_goodness_of_fit(self):
        law = make_law({"kind": "hypergeometric", "n": 100, "k": 5})
        N = 1_000_000
        draws = law.values[draw_atoms(law, 11, N)]
        counts, expected = [], []
        spill_c = spill_e = 0.0
        for v, p in law.atoms:
            c, e = float(np.sum(draws == v)), p * N
            if e < 5.0:  # merge sparse cells to keep the test valid
                spill_c += c
                spill_e += e
            else:
                counts.append(c)
                expected.append(e)
        counts.append(spill_c)
        expected.append(spill_e)
        _, pvalue = stats.chisquare(counts, expected)
        assert pvalue > 1e-3

    def test_count_validation(self):
        law = make_law({"kind": "hypergeometric", "n": 100, "k": 5})
        with pytest.raises(ValueError):
            draw_atoms(law, 0, 0)

    def test_pair_count_draws_are_tuples(self):
        law = make_law({"kind": "pair_counts", "n": 8, "rho_p": 0.3})
        draws = law.atom_values(draw_atoms(law, 4, 200))
        assert all(isinstance(t, tuple) and len(t) == 3 for t in draws)
        table = dict(law.atoms)
        emp = {v: float(np.mean([d == v for d in draws])) for v in table}
        for v, p in table.items():
            assert abs(emp[v] - p) <= 3.0 * math.sqrt(p * (1 - p) / 200) + 0.02


class TestTailBounds:
    def test_hypergeometric_tail_bound(self):
        # survival(delta) <= k (k^2/(n-k))^delta, checked by enumeration
        n, k = 100, 5
        law = make_law({"kind": "hypergeometric", "n": n, "k": k})
        ratio = k * k / (n - k)
        for delta in range(1, k + 1):
            assert survival(law, float(delta)) <= k * ratio**delta

    def test_signed_sparse_subgaussian_shape(self):
        # survival(t) <= exp(-c min(n t^2, k t)) with the harness
        # constant c = 0.05 on a coarse grid
        c = 0.05
        for n, k in [(20, 3), (30, 5), (40, 6)]:
            law = make_law({"kind": "signed_sparse", "n": n, "k": k})
            for t in np.arange(0.1, 1.0001, 0.1):
                bound = math.exp(-c * min(n * t * t, k * t))
                assert survival(law, float(t)) <= bound + 1e-15
