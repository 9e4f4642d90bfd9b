import math
import random
from fractions import Fraction
from math import exp, factorial, log, sqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import betaln

from hgcolor import (
    NumericRangeError,
    expected_conflicting_chains,
    expected_short_edges,
    lll_feasible,
    lll_feasible_ab,
    max_degree_lll,
    max_k_2col,
    max_k_rcol,
    optimize_p,
    pair_conflict_probability,
    pair_conflict_probability_closed,
    prob_edge_short_exact,
    two_color_bound,
)
from hgcolor import bounds
from hgcolor.bounds import (
    LLL_TOL,
    PAIR_ZERO_N,
    _lll_weights,
    _max_feasible,
    log1mexp,
    log1pexp,
    log_neg_log1mexp,
    log_odds,
    min_two_color_bound,
    reference_p,
    structure_log_probabilities,
)
from hgcolor.experiment import bound_table


class TestTwoColorBound:
    def test_degenerate_p(self):
        assert two_color_bound(1, 0, 5) == 1.0

    def test_small_arithmetic(self):
        assert two_color_bound(2, 0.5, 2) == pytest.approx(2.5)

    @given(
        st.floats(0.01, 50),
        st.floats(0, 1),
        st.integers(2, 30),
    )
    @settings(max_examples=150)
    def test_log_space_matches_direct(self, k, p, n):
        direct = k * (1 - p) ** n + k * k * p
        assert two_color_bound(k, p, n) == pytest.approx(direct, rel=1e-10)

    @given(st.floats(0.01, 50), st.floats(0, 1), st.integers(2, 30))
    @settings(max_examples=60)
    def test_dominates_each_term(self, k, p, n):
        v = two_color_bound(k, p, n)
        assert v >= k * (1 - p) ** n - 1e-12
        assert v >= k * k * p - 1e-12

    def test_limit_sequence_value(self):
        # frozen from direct evaluation; the sequence decreases toward
        # c^2/2 = 0.98 but only logarithmically (still 1.26 at n = 10^6)
        c = 1.4
        expected = {10**4: 1.357141, 10**5: 1.300916, 10**6: 1.260390}
        values = {}
        for n, want in expected.items():
            k = c * sqrt(n / log(n))
            p = log(n / k) / n
            values[n] = two_color_bound(k, p, n)
            assert values[n] == pytest.approx(want, abs=1e-5)
        assert values[10**4] > values[10**5] > values[10**6] > 0.98


_INVPHI = (sqrt(5.0) - 1.0) / 2.0


def _golden_reference(k: float, n: int) -> float:
    """An independent numeric minimum of the two-color bound: golden
    section over [0, 1] to 1e-12, or the bound at ln(n/k)/n where that is
    lower."""

    def f(p: float) -> float:
        return two_color_bound(k, p, n)

    a, b = 0.0, 1.0
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-12:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    value = f((a + b) / 2.0)
    p_closed = log(n / k) / n
    return min(value, f(p_closed)) if 0.0 < p_closed < 1.0 else value


class TestOptimizeP:
    @given(st.floats(0.01, 50), st.integers(2, 10**4))
    @settings(max_examples=300)
    def test_no_worse_than_a_numeric_search(self, k, n):
        opt = optimize_p(k, n)
        assert opt.best_value == two_color_bound(k, opt.best_p, n)
        assert opt.best_value <= _golden_reference(k, n) * (1 + 1e-12)
        p_closed = log(n / k) / n
        if 0.0 <= p_closed <= 1.0:
            assert opt.best_value <= two_color_bound(k, p_closed, n)

    @given(st.floats(0.01, 50), st.integers(2, 10**4))
    @settings(max_examples=300)
    def test_derivative_vanishes_at_optimum(self, k, n):
        assume(k < n)
        p = optimize_p(k, n).best_p
        assert 0.0 < p < 1.0
        # d/dp [k (1-p)^n + k^2 p] = k^2 - k n (1-p)^(n-1)
        deriv = k * k - k * n * exp((n - 1) * math.log1p(-p))
        assert abs(deriv) <= 1e-12 * k * k

    @given(st.integers(2, 10**4), st.floats(1.0, 100.0))
    def test_k_at_least_n_takes_p_zero(self, n, scale):
        # the derivative k^2 - k n (1-p)^(n-1) is >= 0 on [0, 1]
        k = n * scale
        opt = optimize_p(k, n)
        assert (opt.best_p, opt.best_value) == (0.0, k)

    @given(st.floats(0.01, 1.99))
    def test_n2_value(self, k):
        # at n = 2, p* = 1 - k/2 and the bound is k^2 - k^3/4
        opt = optimize_p(k, 2)
        assert opt.best_p == pytest.approx(1 - k / 2, rel=1e-12)
        assert opt.best_value == pytest.approx(k * k - k**3 / 4, rel=1e-12)

    def test_invalid_arguments(self):
        for k, n in [(0, 10), (-1, 10), (1, 1)]:
            with pytest.raises(ValueError):
                optimize_p(k, n)


class TestMaxK2col:
    def test_n2_is_the_cubic_root(self):
        # the bound at n = 2 is k^2 - k^3/4, so max_k_2col(2) is the root
        # of k^3 - 4k^2 + 4 in (1, 2)
        (root,) = [z.real for z in np.roots([1, -4, 0, 4]) if 1 < z.real < 2]
        assert max_k_2col(2) == pytest.approx(root, abs=1e-9)

    def test_monotone_in_n(self):
        values = [max_k_2col(n) for n in (10, 32, 100, 316, 1000)]
        assert values == sorted(values)

    def test_defining_inequality_tight(self):
        for n in (5, 50, 500):
            k = max_k_2col(n)
            assert min_two_color_bound(k, n) < 1.0
            assert min_two_color_bound(k + 1e-6, n) >= 1.0

    def test_large_n_ratio_band(self):
        # the certified coefficient approaches sqrt(2) from below very
        # slowly; at n = 10^6 it is ~1.235 sqrt(n/ln n), inside [1, 1.5]
        n = 10**6
        ratio = max_k_2col(n) / sqrt(n / log(n))
        assert 1.0 <= ratio <= 1.5
        assert ratio == pytest.approx(1.23851, abs=1e-3)

    @pytest.mark.parametrize(
        "n",
        [3, 4, 5, 7, 10, 20, 50, 100, 500, 10**3, 10**4, 10**5, 10**6]
        + [10**8, 10**10, 10**12, 10**15, 10**18, 10**20],
    )
    def test_certified_in_exact_arithmetic(self, n):
        # the bound at its exact minimizer p* = 1 - (k/n)^(1/(n-1)), in 60 digits
        import mpmath

        with mpmath.workdps(60):
            k = mpmath.mpf(max_k_2col(n))
            assert k < n
            p = 1 - (k / n) ** (mpmath.mpf(1) / (n - 1))
            assert k * (1 - p) ** n + k * k * p < 1


class TestMaxFeasible:
    def test_search_ends_between_adjacent_floats(self):
        # near 1e17 adjacent floats lie 16 apart, far above the tolerance,
        # so the bisection ends on the largest feasible float
        assert _max_feasible(lambda x: x < 1e17) == math.nextafter(1e17, 0.0)

    @pytest.mark.parametrize("n", [10**11, 10**16, 10**20, 10**22])
    def test_huge_n_returns_certified_values(self, n):
        assert min_two_color_bound(max_k_2col(n), n) < 1.0
        p = reference_p(n)
        for r in (2, 3):
            k = max_k_rcol(n, r)
            assert expected_short_edges(k, n, r, p) + expected_conflicting_chains(k, n, r, p) < 1.0
            cert = max_degree_lll(n, r)
            recheck = lll_feasible_ab(cert.log_p1, cert.log_p2, cert.log_D, r, cert.a, cert.b)
            assert recheck.feasible
            assert min(recheck.log_slack1, recheck.log_slack2) >= 0.0

    @pytest.mark.parametrize("n, r", [(10**22, 8), (3 * 10**21, 9), (10**21, 11)])
    def test_coefficients_near_1e18_are_bracketed(self, n, r):
        # k here lies near 10^18, where the doubling once gave up; the next
        # float above it already fails the inequality
        k = max_k_rcol(n, r)
        assert k > 5e17
        p = reference_p(n)
        assert expected_short_edges(k, n, r, p) + expected_conflicting_chains(k, n, r, p) < 1.0
        up = math.nextafter(k, math.inf)
        assert expected_short_edges(up, n, r, p) + expected_conflicting_chains(up, n, r, p) >= 1.0

    def test_search_refused_only_past_the_float_range(self):
        assert _max_feasible(lambda x: x < 1e300) == math.nextafter(1e300, 0.0)
        with pytest.raises(NumericRangeError, match="ran away"):
            _max_feasible(lambda x: True)

    @given(st.floats(log(3.0), log(1e22)), st.integers(2, 12))
    @settings(max_examples=50, deadline=None)
    def test_bound_table_cells_certify_or_name_the_range_error(self, log_n, r):
        # n log-uniform in [3, 10^22]: every cell either re-certifies or
        # holds the message of the NumericRangeError its searches raise
        n = max(3, round(exp(log_n)))
        (row,) = bound_table([n], [r])
        if row.error is None:
            log_p1, log_p2 = structure_log_probabilities(n, r)
            cert = max_degree_lll(n, r)
            assert row.lll_log10_D == cert.log_D / log(10)
            assert lll_feasible_ab(log_p1, log_p2, cert.log_D, r, cert.a, cert.b).feasible
        else:
            with pytest.raises(NumericRangeError) as exc:
                if r == 2:
                    max_k_2col(n)
                max_k_rcol(n, r)
                max_degree_lll(n, r)
            assert str(exc.value) == row.error


class TestPairConflictProbability:
    def test_constant_integrand(self):
        assert pair_conflict_probability(1, 0, 1) == pytest.approx(1.0)

    def test_beta22(self):
        assert pair_conflict_probability(2, 0, 1) == pytest.approx(1 / 6, rel=1e-12)

    def test_full_interval_matches_beta(self):
        for n in range(1, 21):
            want = exp(betaln(n, n))
            assert pair_conflict_probability(n, 0, 1) == pytest.approx(want, rel=1e-10)

    @given(st.integers(1, 50), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_quadrature_matches_incomplete_beta(self, n, a, b):
        lo, hi = min(a, b), max(a, b)
        q = pair_conflict_probability(n, lo, hi)
        c = pair_conflict_probability_closed(n, lo, hi)
        # the 1e-7 floor covers eps-level cancellation on degenerate
        # near-empty intervals, where both routes return ~0
        assert abs(q - c) <= 1e-9 * max(abs(c), 1e-7)

    @given(st.integers(1, 50), st.floats(0.001, 0.999))
    @settings(max_examples=80, deadline=None)
    def test_middle_interval_bounded_by_p(self, n, p):
        val = pair_conflict_probability(n, (1 - p) / 2, (1 + p) / 2)
        assert val <= p + 1e-12


def _pair_integral_exact(n: int, lo: float, hi: float) -> Fraction:
    """∫ x^(n-1) (1-x)^(n-1) dx over [lo, hi] in exact rationals (binary floats
    are exact rationals), from the antiderivative
    sum_k C(n-1, k) (-1)^k x^(n+k) / (n+k). At x = m / 2^e the sum is taken
    over the denominator lcm(n..2n-1) 2^(e(2n-1)) by Horner's rule in integers."""
    d = math.lcm(*range(n, 2 * n))

    def antiderivative(x: float) -> Fraction:
        m, q = float(x).as_integer_ratio()
        e = q.bit_length() - 1
        acc = 0
        for k in range(n - 1, -1, -1):
            acc = acc * m + ((math.comb(n - 1, k) * (-1) ** k * (d // (n + k))) << (e * (n - 1 - k)))
        return Fraction(acc * m**n, d << (e * (2 * n - 1)))

    return antiderivative(hi) - antiderivative(lo)


def _pair_windows():
    """150 symmetric windows [(1-p)/2, (1+p)/2] with n <= 300 and 150
    arbitrary windows with n < 200."""
    rng = random.Random(5)
    windows = []
    for _ in range(150):
        n, p = rng.randint(1, 300), rng.uniform(0.001, 0.999)
        windows.append((n, (1 - p) / 2, (1 + p) / 2))
    for _ in range(150):
        lo, hi = sorted((rng.random(), rng.random()))
        windows.append((rng.randint(1, 199), lo, hi))
    return windows


PAIR_ROUTES = [pair_conflict_probability, pair_conflict_probability_closed]


class TestPairConflictExact:
    def test_routes_match_the_exact_integral(self):
        worst = dict.fromkeys(PAIR_ROUTES, 0.0)
        for n, lo, hi in _pair_windows():
            want = _pair_integral_exact(n, lo, hi)
            for route in PAIR_ROUTES:
                rel = float(abs(Fraction(route(n, lo, hi)) - want) / want)
                worst[route] = max(worst[route], rel)
        assert max(worst.values()) <= 1e-11, worst

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.1, 0.45)])
    def test_subnormal_values_match_in_absolute_terms(self, lo, hi):
        # from n = 510 on the integral is subnormal, where a relative error
        # means nothing: allow 10^-11 of the least normal number, 2^-1022
        tol = Fraction(2) ** -1022 * Fraction(1e-11)
        for n in range(510, PAIR_ZERO_N):
            want = _pair_integral_exact(n, lo, hi)
            for route in PAIR_ROUTES:
                assert abs(Fraction(route(n, lo, hi)) - want) <= tol, (route.__name__, n)

    @pytest.mark.parametrize("route", PAIR_ROUTES)
    def test_zero_from_n_538(self, route):
        # the whole interval's exact integral B(538, 538) rounds to 0.0 too
        assert PAIR_ZERO_N == 538
        assert float(_pair_integral_exact(PAIR_ZERO_N, 0.0, 1.0)) == 0.0
        for n in (538, 600, 10**4):
            assert route(n, 0.0, 1.0) == 0.0
            assert route(n, 0.25, 0.5) == 0.0

    @pytest.mark.parametrize("route", PAIR_ROUTES)
    @pytest.mark.parametrize("n", [2.5, 0, True, -1, 3.0])
    def test_n_must_be_a_positive_integer(self, route, n):
        with pytest.raises(ValueError, match="invalid arguments"):
            route(n, 0.25, 0.75)


class TestExpectedShortEdges:
    def test_small_arithmetic(self):
        assert expected_short_edges(1, 2, 2, 0) == pytest.approx(1.0)

    def test_asymptotic_ratio(self):
        # value * r n / k -> 1; frozen check points
        expected = {10**3: 0.92089, 10**4: 0.98497, 10**5: 0.99758, 10**6: 0.99965}
        for n, want in expected.items():
            p = 2 * log(n) / n
            v = expected_short_edges(1.7, n, 2, p) * (2 * n) / 1.7
            assert v == pytest.approx(want, abs=1e-4)
            assert abs(v - 1) < 0.1

    @given(st.floats(0.1, 10), st.integers(2, 40), st.integers(2, 5))
    @settings(max_examples=60)
    def test_monotone_decreasing_in_p(self, k, n, r):
        values = [expected_short_edges(k, n, r, p) for p in (0.1, 0.3, 0.5, 0.9)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @given(st.floats(0.1, 10), st.integers(2, 25), st.integers(2, 4), st.floats(0, 0.99))
    @settings(max_examples=100)
    def test_log_space_matches_direct(self, k, n, r, p):
        direct = k * r ** (n - 2) * n * ((1 - p) / r) ** (n - 1)
        assert expected_short_edges(k, n, r, p) == pytest.approx(direct, rel=1e-10)


class TestProbEdgeShortExact:
    def test_single_point(self):
        assert prob_edge_short_exact(1, 0.3) == 1.0

    def test_two_uniforms_monte_carlo(self):
        # P(|u1-u2| < 0.5) = 0.75, checked against a 10^6-sample oracle
        rng = np.random.default_rng(20240811)
        u = rng.random((1_000_000, 2))
        freq = float(np.mean(np.abs(u[:, 0] - u[:, 1]) < 0.5))
        exact = prob_edge_short_exact(2, 0.5)
        assert exact == pytest.approx(0.75)
        assert abs(freq - exact) < 0.002

    @given(st.integers(1, 40), st.floats(0, 1))
    @settings(max_examples=100)
    def test_dominated_by_first_order_bound(self, n, length):
        assert prob_edge_short_exact(n, length) <= n * length ** (n - 1) + 1e-12


class TestExpectedConflictingChains:
    def test_r2_reduces_to_pair_form(self):
        for k, p in [(0.5, 0.1), (2, 0.4), (7, 0.9)]:
            assert expected_conflicting_chains(k, 5, 2, p) == pytest.approx(k * k * p)

    def test_small_arithmetic(self):
        assert expected_conflicting_chains(1, 3, 3, 0.1) == pytest.approx(1 / 300)

    @given(st.floats(0.1, 5), st.integers(2, 20), st.integers(2, 4), st.floats(0.001, 0.99))
    @settings(max_examples=100)
    def test_log_space_matches_direct(self, k, n, r, p):
        direct = (
            (2 / factorial(r))
            * (k * r ** (n - 2)) ** r
            * p ** (r - 1)
            * r ** (-r * (n - 2))
        )
        assert expected_conflicting_chains(k, n, r, p) == pytest.approx(direct, rel=1e-9)


class TestMaxKRcol:
    def test_r2_comparable_with_two_color_search(self):
        for n in (100, 1000, 10_000, 100_000):
            ratio = max_k_2col(n) / max_k_rcol(n, 2)
            assert 1.0 <= ratio <= 4.0

    def test_monotone_in_n(self):
        for r in (2, 3):
            values = [max_k_rcol(n, r) for n in (10, 100, 1000, 10_000)]
            assert values == sorted(values)

    def test_defining_inequality(self):
        # at r = 3000 and 10^5 the doubling meets a k whose chain term
        # overflows; such a k is infeasible, not an error
        for n, r in [(100, 2), (1000, 3), (500, 4), (3, 3000), (10, 10**5)]:
            k = max_k_rcol(n, r)
            p = reference_p(n)
            total = expected_short_edges(k, n, r, p) + expected_conflicting_chains(k, n, r, p)
            assert total < 1.0
            k2 = k + 1e-6
            total2 = expected_short_edges(k2, n, r, p) + expected_conflicting_chains(k2, n, r, p)
            assert total2 >= 1.0

    def test_large_r_table_cell_completes(self):
        (row,) = bound_table([10], [10**6])
        assert row.error is None
        assert row.max_k_rcol is not None and row.lll_log10_D is not None

    def test_ratio_to_reference_form(self):
        # with p = 2 ln(n)/n the chain term k^r p^(r-1) (2/r!) = 1 solves to
        # k = (r!/2)^(1/r) (n/(2 ln n))^((r-1)/r), i.e. the ratio to
        # (n/ln n)^((r-1)/r) tends to (r!/2)^(1/r) 2^(-(r-1)/r)
        for r in (2, 3, 4):
            want = (factorial(r) / 2) ** (1 / r) * 2 ** (-(r - 1) / r)
            n = 10**5
            got = max_k_rcol(n, r) / (n / log(n)) ** ((r - 1) / r)
            assert got == pytest.approx(want, rel=0.01)


class TestLLLFeasible:
    def test_zero_probabilities_always_feasible(self):
        res = lll_feasible(0, 0, 10, 2, 0.5, 0.5)
        assert res.feasible
        assert res.log_slack1 == math.inf

    def test_zero_weights_infeasible(self):
        assert not lll_feasible(0.1, 0, 10, 2, 0.0, 0.0).feasible

    def test_overflow_is_loud(self):
        with pytest.raises(NumericRangeError):
            lll_feasible(0.1, 0.1, 1e200, 3, 0.5, 0.5)

    def test_parametrized_rhs_is_exact(self):
        # with x = 1-e^(-a/D), y = 1-e^(-b/(r D^r)) the right sides equal
        # x e^-(a+b) and y e^-r(a+b); the ratio is 1 up to rounding for
        # every D, so it trivially tends to 1 as D grows
        a, b, r = 1.0, 0.5, 2
        for D in (10.0, 1e3, 1e6, 1e12):
            x = -math.expm1(-a / D)
            y = -math.expm1(-b / (r * D**r))
            res = lll_feasible(0.0, 0.0, D, r, x, y)
            # reconstruct log RHS1 from the slack-free evaluation path
            log_rhs1 = math.log(x) + D * math.log1p(-x) + r * D**r * math.log1p(-y)
            ratio = exp(log_rhs1 - (math.log(x) - (a + b)))
            assert ratio == pytest.approx(1.0, rel=1e-9)
            assert res.feasible

    def test_ab_form_matches_direct_form(self):
        for D, r, a, b in [(50.0, 2, 1.0, 0.25), (200.0, 3, 0.5, 2.0)]:
            x = -math.expm1(-a / D)
            y = -math.expm1(-b / (r * D**r))
            p1, p2 = 1e-8, 1e-12
            direct = lll_feasible(p1, p2, D, r, x, y)
            viaab = lll_feasible_ab(log(p1), log(p2), log(D), r, a, b)
            assert direct.feasible == viaab.feasible
            assert direct.log_slack1 == pytest.approx(viaab.log_slack1, rel=1e-6)
            assert direct.log_slack2 == pytest.approx(viaab.log_slack2, rel=1e-6)


class TestLog1mexp:
    @given(st.floats(1e-7, 30))
    @settings(max_examples=200)
    def test_matches_direct_where_stable(self, u):
        # direct 1 - e^-u only trustworthy for u >> eps
        direct = math.log(1 - math.exp(-u))
        assert log1mexp(log(u)) == pytest.approx(direct, rel=1e-8)

    def test_tiny_arguments_against_mpmath(self):
        import mpmath

        with mpmath.workdps(400):
            for u in (1e-300, 1e-30, 1e-12, 1e-6, 0.1, 5.0, 40.0):
                want = float(mpmath.log(1 - mpmath.exp(-mpmath.mpf(u))))
                assert log1mexp(log(u)) == pytest.approx(want, rel=1e-9)

    def test_tiny_argument_asymptotics(self):
        assert log1mexp(-800.0) == pytest.approx(-800.0)


class TestLogNegLog1mexp:
    def test_against_mpmath(self):
        import mpmath

        with mpmath.workdps(400):
            for t in (-3470.0, -800.0, -37.5, -36.0, -1.0, -1e-3):
                want = float(mpmath.log(-mpmath.log1p(-mpmath.exp(mpmath.mpf(t)))))
                assert log_neg_log1mexp(t) == pytest.approx(want, rel=1e-13)

    def test_inverts_log1mexp(self):
        for t in (-50.0, -5.0, -0.5, -1e-6):
            assert log1mexp(log_neg_log1mexp(t)) == pytest.approx(t, rel=1e-12)

    def test_nonnegative_argument_is_infinite(self):
        assert log_neg_log1mexp(0.0) == math.inf
        assert log_neg_log1mexp(1.0) == math.inf


class TestLog1pexp:
    def test_against_mpmath(self):
        import mpmath

        with mpmath.workdps(400):
            for x in (-800.0, -37.5, -1.0, 0.0, 1e-3, 1.0, 40.0, 800.0, 1e22):
                want = float(mpmath.log1p(mpmath.exp(mpmath.mpf(x))))
                assert log1pexp(x) == pytest.approx(want, rel=1e-15)


class TestLogOdds:
    def test_against_mpmath(self):
        import mpmath

        with mpmath.workdps(400):
            for t in (-800.0, -37.5, -1.0, -1e-3, -1e-300):
                e = mpmath.exp(mpmath.mpf(t))
                want = float(mpmath.log(e / (1 - e)))
                assert log_odds(t) == pytest.approx(want, rel=1e-13)

    def test_edges(self):
        assert log_odds(0.0) == math.inf
        assert log_odds(1.0) == math.inf
        # 1 - e^t rounds to 0 or e^t to 0 under direct evaluation here
        assert log_odds(-1e-300) == pytest.approx(690.7755278982137, rel=1e-15)
        assert log_odds(-800.0) == -800.0


# a dense log grid of local-lemma weights: 2^(k/8) for k = -80 .. 8
_WEIGHT_GRID = [2.0 ** (k / 8) for k in range(-80, 9)]

# log D certified at the cells of `hgcolor bounds --n 50:500:50 --r 2,3` by
# the grid plus coordinate-descent weight search that the exact search replaced
_GRID_SEARCH_LOG_D = {
    2: [32.9977712690672, 67.92192505606434, 102.74073109465044, 137.51459842025275,
        172.26331738224962, 206.9959093125758, 241.7172607831967, 276.4303217089673,
        311.1370110754176, 345.83864797951117],
    3: [52.897597275909575, 108.18265149728268, 163.32792950121782, 218.41352827075366,
        273.4654731546164, 328.4964614364911, 383.51220442840827, 438.5170396255652,
        493.5132725282907, 548.5029202245921],
}


def _grid_feasible(log_p1, log_p2, log_D, r, grid=_WEIGHT_GRID):
    return any(lll_feasible_ab(log_p1, log_p2, log_D, r, a, b).feasible for a in grid for b in grid)


def _weights_slack(log_p1, log_p2, log_D, r, s):
    """s - A(s) - B(s) of _lll_weights, or -inf where A or B overflows."""
    log_a = log_D + log_neg_log1mexp(s + log_p1)
    log_b = log(r) + r * log_D + log_neg_log1mexp(r * s + log_p2)
    if max(log_a, log_b) > 700.0:
        return -math.inf
    return s - exp(log_a) - exp(log_b)


def _rising(log_p1, log_p2, log_D, r, s):
    """A'(s) + B'(s) < 1 in logs: the predicate a bisection for the peak of the
    slack would test, kept as a reference for the Newton iteration."""
    s_max = min(-log_p1, -log_p2 / r)
    log_da = log_D + log_odds(s + log_p1)
    log_db = 2.0 * log(r) + r * log_D + log_odds(r * s + log_p2)
    return s < s_max and log_da < 0.0 and log_db < log(-math.expm1(log_da))


class TestLLLWeights:
    @given(st.integers(3, 2000), st.integers(2, 12), st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_newton_lands_where_the_bisection_predicate_turns(self, n, r, frac):
        log_p1, log_p2 = structure_log_probabilities(n, r)
        log_D = -log_p1 * frac
        weights = _lll_weights(log_p1, log_p2, log_D, r)
        assume(weights is not None)
        s = sum(weights)
        assert _rising(log_p1, log_p2, log_D, r, s * (1.0 - 1e-9))
        assert not _rising(log_p1, log_p2, log_D, r, s * (1.0 + 1e-9))

    @given(st.integers(3, 2000), st.integers(2, 12), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_weights_sit_at_the_peak_of_the_slack(self, n, r, frac):
        log_p1, log_p2 = structure_log_probabilities(n, r)
        log_D = -log_p1 * frac
        weights = _lll_weights(log_p1, log_p2, log_D, r)
        assume(weights is not None)
        s = sum(weights)
        peak = _weights_slack(log_p1, log_p2, log_D, r, s)
        for off in (1e-3, -1e-3):
            assert _weights_slack(log_p1, log_p2, log_D, r, s * (1.0 + off)) <= peak
        res = lll_feasible_ab(log_p1, log_p2, log_D, r, *weights)
        assert res.feasible and res.log_slack1 > 0.0 and res.log_slack2 > 0.0

    def test_finds_weights_wherever_the_grid_does(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            n, r = int(rng.integers(3, 80)), int(rng.integers(2, 5))
            log_p1, log_p2 = structure_log_probabilities(n, r)
            log_D = float(rng.uniform(0.0, -log_p1))
            weights = _lll_weights(log_p1, log_p2, log_D, r)
            found = weights is not None and lll_feasible_ab(log_p1, log_p2, log_D, r, *weights).feasible
            if not found:
                assert not _grid_feasible(log_p1, log_p2, log_D, r, _WEIGHT_GRID[::2]), (n, r, log_D)

    def test_weights_are_positive_where_b_underflows(self):
        # P2 e^(rs) is far below the float range at n=350, r=3, D=1
        log_p1, log_p2 = structure_log_probabilities(350, 3)
        a, b = _lll_weights(log_p1, log_p2, 0.0, 3)
        assert a > 0 and b > 0
        assert lll_feasible_ab(log_p1, log_p2, 0.0, 3, a, b).feasible


# log D as certified with weights from a golden-section search of s / (A + B),
# which bisecting the slope of the slack and then Newton's method on it
# reproduce bit for bit: the cells of `hgcolor bounds --n 50:500:50 --r 2,3`
# (among them n = 350 at r = 3, where B underflows at D = 1), and n = 10 and
# 100 at r = 50 and 1000, where exponentiating log B before comparing it with
# log s overflows. The last 13, n = 4, 5, 7, 11 at r = 2, 3, 4 and n = 10 at
# r = 300, were computed with the bisection before Newton's method replaced it
_PINNED_LOG_D = [
    (50, 2, "0x1.07fb76afa489bp+5"), (100, 2, "0x1.0fb00f3e7d824p+6"),
    (150, 2, "0x1.9af6839a010bap+6"), (200, 2, "0x1.13077a0b2bbfdp+7"),
    (250, 2, "0x1.5886d1fee5dc8p+7"), (300, 2, "0x1.9dfde826fbe48p+7"),
    (350, 2, "0x1.e36f3d2ee69e4p+7"), (400, 2, "0x1.146e29b4d97dcp+8"),
    (450, 2, "0x1.372313471b7a8p+8"), (500, 2, "0x1.59d6b1c4424dep+8"),
    (50, 3, "0x1.a72e4b36a658dp+5"), (100, 3, "0x1.b0bb0a33cc7dap+6"),
    (150, 3, "0x1.46a7e6e66366cp+7"), (200, 3, "0x1.b4d3ba6f520a3p+7"),
    (250, 3, "0x1.11773923afad4p+8"), (300, 3, "0x1.487f182e476aap+8"),
    (350, 3, "0x1.7f8323c76a191p+8"), (400, 3, "0x1.b6845cc3ae767p+8"),
    (450, 3, "0x1.ed836a4e82d4ep+8"), (500, 3, "0x1.12405fb507ab1p+9"),
    (10, 50, "0x1.fe0d0b1d0ca9ap+4"), (100, 50, "0x1.8189a557c6c28p+8"),
    (10, 1000, "0x1.c02c97b3f7932p+5"), (100, 1000, "0x1.53a9ee4da39b1p+9"),
    (4, 2, "0x1.3f07a6edf574ep-2"), (4, 3, "0x1.5a15b6905ac11p+0"),
    (4, 4, "0x1.0aec184012c9fp+1"), (5, 2, "0x1.1318cdb51d102p+0"),
    (5, 3, "0x1.40d26d9335b38p+1"), (5, 4, "0x1.c41a7bc2c27cdp+1"),
    (7, 2, "0x1.461ee1d2ede1ap+1"), (7, 3, "0x1.339548840a026p+2"),
    (7, 4, "0x1.9ac3bffcdcb6dp+2"), (11, 2, "0x1.5c973eccabae6p+2"),
    (11, 3, "0x1.2bb001310773ap+3"), (11, 4, "0x1.84ba9a2afd34ep+3"),
    (10, 300, "0x1.72e440faab3ccp+5"),
]


class TestMaxDegreeLLL:
    def test_infeasible_at_unit_degree_is_loud(self):
        with pytest.raises(NumericRangeError):
            max_degree_lll(3, 2)

    def test_no_grid_weights_beat_the_certificate(self):
        for n, r in [(4, 2), (5, 3), (11, 4), (50, 2), (100, 3), (500, 3)]:
            cert = max_degree_lll(n, r)
            assert not _grid_feasible(cert.log_p1, cert.log_p2, cert.log_D + 2 * LLL_TOL, r), (n, r)

    @pytest.mark.parametrize("n, r", [(4, 2), (50, 2), (100, 3), (500, 3)])
    def test_each_candidate_is_weighed_once(self, monkeypatch, n, r):
        """The bisection's certificate is returned as it stands, not
        recomputed: no log D reaches _lll_weights twice, and the returned
        weights are those found at the returned log D."""
        seen = {}

        def counted(log_p1, log_p2, log_D, r):
            assert log_D not in seen, log_D
            seen[log_D] = _lll_weights(log_p1, log_p2, log_D, r)
            return seen[log_D]

        monkeypatch.setattr(bounds, "_lll_weights", counted)
        cert = max_degree_lll(n, r)
        assert seen[cert.log_D] == (cert.a, cert.b)

    @pytest.mark.parametrize("r", [2, 3])
    def test_at_least_the_grid_search_degree(self, r):
        for n, old in zip(range(50, 501, 50), _GRID_SEARCH_LOG_D[r]):
            assert max_degree_lll(n, r).log_D >= old, (n, r)

    @pytest.mark.parametrize("n, r, log_d_hex", _PINNED_LOG_D)
    def test_pinned_degree(self, n, r, log_d_hex):
        assert max_degree_lll(n, r).log_D == float.fromhex(log_d_hex)

    def test_self_certification(self):
        for n, r in [(50, 2), (100, 3), (500, 2)]:
            cert = max_degree_lll(n, r)
            recheck = lll_feasible_ab(
                cert.log_p1, cert.log_p2, cert.log_D, cert.r, cert.a, cert.b
            )
            assert recheck.feasible
            assert min(recheck.log_slack1, recheck.log_slack2) >= 0.0

    def test_growth_band(self):
        for r in (2, 3):
            ratios = []
            for n in range(50, 501, 150):
                cert = max_degree_lll(n, r)
                log_ref = ((r - 1) / r) * (log(n) - log(log(n))) + n * log(r)
                ratios.append(exp(cert.log_D - log_ref))
            assert max(ratios) / min(ratios) <= 4.0

    def test_structure_probabilities(self):
        n, r = 20, 2
        p = reference_p(n)
        lp1, lp2 = structure_log_probabilities(n, r)
        assert lp1 == pytest.approx(log(n * ((1 - p) / r) ** (n - 1)), rel=1e-10)
        assert lp2 == pytest.approx(log(p ** (r - 1) * r ** (-r * (n - 2))), rel=1e-10)

    def test_cross_check_against_count_bound(self):
        # a certified-degree instance cannot beat the global edge-count
        # certificate by more than the trivial degree <= n * edges relation
        n, r = 50, 2
        cert = max_degree_lll(n, r)
        k = max_k_rcol(n, r)
        count_log = log(k) + (n - 2) * log(r) + log(n)
        assert cert.log_D <= count_log + 5.0
