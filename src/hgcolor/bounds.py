"""Analytic bounds for greedy coloring, evaluated robustly in log space.

Covers the two-color failure bound k(1-p)^n + k^2 p and its optimization,
the chance that a dangerous pair conflicts (one integral by two independent
routes, Gauss-Legendre quadrature and a binomial tail, on numpy and math
alone), expected counts of short edges and conflicting r-chains at
p = 2 ln(n)/n, exact per-structure probabilities, and the local-lemma
feasibility search over dependency degree D. Quantities like r^n and D^r
dwarf the float range at interesting n, so every product with such
exponents is a sum of logs; weights x = 1 - e^(-a/D) and
y = 1 - e^(-b/(r D^r)) are handled through (a, b) so that D log(1-x) = -a
and r D^r log(1-y) = -b stay exact. For fixed s = a + b the least feasible
a and b have closed forms, and the slack s - a - b they leave is concave in
s, so the weights at a given D sit where its slope changes sign; Newton's
method finds that point from a closed-form start. The bisection
_max_feasible serves the largest D and the edge-count coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import exp, expm1, inf, isfinite, ldexp, log, log1p, nextafter
from numbers import Integral

from .errors import NumericRangeError

SEARCH_TOL = 1e-9
# max_degree_lll's tolerance on log D
LLL_TOL = 1e-6


def reference_p(n: int) -> float:
    """The fixed interval width 2 ln(n)/n used by the r-coloring bounds and
    as Monte Carlo's default p (below 1 for every n >= 2)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return 2.0 * log(n) / n


def two_color_bound(k: float, p: float, n: int) -> float:
    """k (1-p)^n + k^2 p: failure-probability bound for greedy 2-coloring
    of an n-uniform hypergraph with k 2^(n-1) edges."""
    if k < 0 or n < 1 or not 0.0 <= p <= 1.0:
        raise ValueError(f"invalid arguments k={k}, p={p}, n={n}")
    first = 0.0 if p >= 1.0 else k * exp(n * log1p(-p))
    return first + k * k * p


@dataclass(frozen=True)
class POptimum:
    """The interval width that minimizes the two-color bound, and the bound
    there."""

    best_p: float
    best_value: float


def optimize_p(k: float, n: int) -> POptimum:
    """Minimize two_color_bound over p in [0, 1] exactly.

    The bound is convex in p with derivative k^2 - k n (1-p)^(n-1), so its
    minimizer is p* = 1 - (k/n)^(1/(n-1)) when k < n and p* = 0 otherwise.
    """
    if k <= 0 or n < 2:
        raise ValueError(f"invalid arguments k={k}, n={n}")
    p = -expm1(log(k / n) / (n - 1)) if k < n else 0.0
    return POptimum(p, two_color_bound(k, p, n))


def min_two_color_bound(k: float, n: int) -> float:
    return optimize_p(k, n).best_value


def _max_feasible(feasible, lo: float = 0.0, hi0: float = 1.0, tol: float = SEARCH_TOL) -> float:
    """Largest x with feasible(x), for a predicate true on [0, x*); a
    predicate still true where doubling leaves the float range is refused."""
    hi = hi0
    while feasible(hi):
        lo, hi = hi, hi * 2.0
        if hi == inf:
            raise NumericRangeError("feasibility search ran away")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):  # adjacent floats, still more than tol apart
            break
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def max_k_2col(n: int) -> float:
    """Largest k with min_p k(1-p)^n + k^2 p < 1. Any n-uniform hypergraph
    with fewer than k 2^(n-1) edges is 2-colorable by greedy with positive
    probability."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return _max_feasible(lambda k: min_two_color_bound(k, n) < 1.0)


# Every window's integral is below B(n, n) < 4^(1-n), the integrand's peak. From n = 538 on
# that is at most 2^-1074, the least subnormal, and B(n, n), near 4^(1-n) sqrt(pi/(4n)), is
# below half of it, so the integral rounds to 0.0 on every window.
PAIR_ZERO_N = 538


def _lower_half(n: int, lo: float, hi: float) -> list[tuple[float, float]]:
    """[lo, hi] as pieces of [0, 1/2] by the integrand's mirror symmetry about 1/2; none
    where the integral is 0.0."""
    if isinstance(n, bool) or not isinstance(n, Integral) or n < 1 or not 0.0 <= lo <= hi <= 1.0:
        raise ValueError(f"invalid arguments n={n}, lo={lo}, hi={hi}")
    pieces = [(lo, min(hi, 0.5)), (1.0 - hi, min(1.0 - lo, 0.5))]
    return [(a, b) for a, b in pieces if a < b] if n < PAIR_ZERO_N else []


def pair_conflict_probability(n: int, lo: float, hi: float) -> float:
    """∫ x^(n-1) (1-x)^(n-1) dx over [lo, hi]: the probability that a fixed dangerous pair
    conflicts with common-vertex birth time in [lo, hi], before the edge-count factor. The
    n-point Gauss–Legendre rule is exact up to rounding for this polynomial of degree 2n - 2;
    the integrand is scaled by 4^(n-1), so that only the result can be subnormal."""
    # imported here: numpy.polynomial takes milliseconds to import
    from numpy.polynomial.legendre import leggauss

    total, pieces = 0.0, _lower_half(n, lo, hi)
    t, w = leggauss(n) if pieces else ((), ())
    for a, b in pieces:
        x = a + (b - a) / 2 * (1.0 + t)
        total += (b - a) / 2 * float(w @ (4.0 * x * (1.0 - x)) ** (n - 1))
    return ldexp(total, 2 - 2 * n)


def pair_conflict_probability_closed(n: int, lo: float, hi: float) -> float:
    """Same integral as B(n, n) (I_hi - I_lo), with I_x(n, n) = P(Bin(2n - 1, x) >= n). For
    x <= 1/2 the tail's n terms times B(n, n) start at x^n (1-x)^(n-1) / n and fall by the
    ratios (2n-1-j)/(j+1) x/(1-x); Horner's rule sums them in direct powers (exact at n = 1)."""

    def tail(x: float) -> float:
        r, h = x / (1.0 - x), 1.0
        for j in range(2 * n - 2, n - 1, -1):
            h = 1.0 + (2 * n - 1 - j) / (j + 1) * r * h
        return x**n / n * h * (1.0 - x) ** (n - 1)

    return sum((tail(b) - tail(a) for a, b in _lower_half(n, lo, hi)), 0.0)


def expected_short_edges(k: float, n: int, r: int, p: float) -> float:
    """k r^(n-2) n ((1-p)/r)^(n-1), evaluated as exp of a log sum.

    Bounds the expected number of edges whose birth-time span is below
    (1-p)/r among k r^(n-2) edges.
    """
    if k <= 0 or n < 2 or r < 2 or not 0.0 <= p < 1.0:
        raise ValueError(f"invalid arguments k={k}, n={n}, r={r}, p={p}")
    # r^(n-2) / r^(n-1) collapses to 1/r
    return exp(log(k) + log(n) - log(r) + (n - 1) * log1p(-p))


def prob_edge_short_exact(n: int, length: float) -> float:
    """Exact P(range of n iid uniforms < L) = n L^(n-1) - (n-1) L^n."""
    if n < 1 or not 0.0 <= length <= 1.0:
        raise ValueError(f"invalid arguments n={n}, L={length}")
    return n * length ** (n - 1) - (n - 1) * length**n


def expected_conflicting_chains(k: float, n: int, r: int, p: float) -> float:
    """(2/r!) (k r^(n-2))^r p^(r-1) r^(-r(n-2)) = (2/r!) k^r p^(r-1).

    Bounds the expected number of conflicting r-chains with no short edge.
    """
    if k <= 0 or n < 2 or r < 2 or not 0.0 <= p < 1.0:
        raise ValueError(f"invalid arguments k={k}, n={n}, r={r}, p={p}")
    if p == 0.0:
        return 0.0
    return exp(log(2.0) - math.lgamma(r + 1) + r * log(k) + (r - 1) * log(p))


def max_k_rcol(n: int, r: int) -> float:
    """Largest k with E[short edges] + E[conflicting chains] < 1 at
    p = 2 ln(n)/n."""
    if n < 3 or r < 2:
        raise ValueError(f"need n >= 3 and r >= 2, got n={n}, r={r}")
    p = reference_p(n)

    def feasible(k: float) -> bool:
        if k <= 0:
            return True
        try:
            total = expected_short_edges(k, n, r, p) + expected_conflicting_chains(k, n, r, p)
        except OverflowError:
            # a term past the float range is far above 1; at large r the
            # doubling meets one within a few steps
            return False
        return total < 1.0

    return _max_feasible(feasible)


# ---------------------------------------------------------------------------
# Local lemma feasibility
# ---------------------------------------------------------------------------


def log1mexp(log_u: float) -> float:
    """log(1 - e^(-u)) from log(u), stable for u from subnormal to huge."""
    if log_u == -inf:
        return -inf
    if log_u < -37.0:
        # 1 - e^(-u) = u (1 - u/2 + ...); the correction is below eps
        return log_u
    u = exp(log_u)
    if u <= math.log(2.0):
        return log(-expm1(-u))
    return log1p(-exp(-u))


def log_neg_log1mexp(t: float) -> float:
    """log(-log(1 - e^t)), stable for t from far below 0 up to 0; +inf for
    t >= 0, where 1 - e^t <= 0. The inverse of log1mexp."""
    if t >= 0.0:
        return inf
    if t < -37.0:
        # -log(1 - e^t) = e^t (1 + e^t/2 + ...); the correction is below eps
        return t
    if t > -math.log(2.0):
        return log(-log(-expm1(t)))
    return log(-log1p(-exp(t)))


def log1pexp(x: float) -> float:
    """log(1 + e^x), the softplus, without overflow for large x."""
    if x > 0.0:
        return x + log1p(exp(-x))
    return log1p(exp(x))


def log_odds(t: float) -> float:
    """log(e^t / (1 - e^t)), stable for t < 0; +inf for t >= 0."""
    if t >= 0.0:
        return inf
    return t - log(-expm1(t))


@dataclass(frozen=True)
class LLLFeasibility:
    feasible: bool
    log_slack1: float  # log RHS1 - log P1
    log_slack2: float  # log RHS2 - log P2


def lll_feasible(
    p1: float, p2: float, D: float, r: int, x: float, y: float
) -> LLLFeasibility:
    """Check P1 <= x (1-x)^D (1-y)^(r D^r) and
    P2 <= y (1-x)^(r D) (1-y)^(r^2 D^r) for explicit weights.

    P1 bounds the short-edge event, P2 the conflicting-chain event; an edge
    meets at most D other edges and r D^r chains, a chain meets at most r D
    edges and r^2 D^r chains. Raises NumericRangeError when r^2 D^r leaves
    the float range (use lll_feasible_ab then).
    """
    if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0):
        raise ValueError(f"probabilities outside [0,1]: P1={p1}, P2={p2}")
    if not (0.0 <= x < 1.0 and 0.0 <= y < 1.0):
        raise ValueError(f"weights must lie in [0,1): x={x}, y={y}")
    if D < 0 or r < 2:
        raise ValueError(f"invalid D={D} or r={r}")
    try:
        d_pow_r = D**r
    except OverflowError:
        d_pow_r = inf
    if not isfinite(d_pow_r) or not isfinite(r * r * d_pow_r):
        raise NumericRangeError(
            f"r^2 D^r overflows for D={D}, r={r}; use lll_feasible_ab"
        )
    log_x = log(x) if x > 0 else -inf
    log_y = log(y) if y > 0 else -inf
    log_rhs1 = log_x + D * log1p(-x) + r * d_pow_r * log1p(-y)
    log_rhs2 = log_y + r * D * log1p(-x) + r * r * d_pow_r * log1p(-y)
    log_p1 = log(p1) if p1 > 0 else -inf
    log_p2 = log(p2) if p2 > 0 else -inf
    return LLLFeasibility(
        log_p1 <= log_rhs1 and log_p2 <= log_rhs2,
        _slack(log_rhs1, log_p1),
        _slack(log_rhs2, log_p2),
    )


def _slack(log_rhs: float, log_p: float) -> float:
    # a zero-probability event is satisfied with infinite slack
    if log_p == -inf:
        return inf
    return log_rhs - log_p


def lll_feasible_ab(
    log_p1: float, log_p2: float, log_D: float, r: int, a: float, b: float
) -> LLLFeasibility:
    """Same check with x = 1-e^(-a/D), y = 1-e^(-b/(r D^r)), all in logs.

    With these weights (1-x)^D = e^(-a) and (1-y)^(r D^r) = e^(-b) exactly,
    so the right-hand sides are x e^(-(a+b)) and y e^(-r(a+b)).
    """
    if a <= 0 or b <= 0 or r < 2:
        raise ValueError(f"need a, b > 0 and r >= 2, got a={a}, b={b}, r={r}")
    log_x = log1mexp(log(a) - log_D)
    log_y = log1mexp(log(b) - log(r) - r * log_D)
    log_rhs1 = log_x - (a + b)
    log_rhs2 = log_y - r * (a + b)
    return LLLFeasibility(
        log_p1 <= log_rhs1 and log_p2 <= log_rhs2,
        _slack(log_rhs1, log_p1),
        _slack(log_rhs2, log_p2),
    )


@dataclass(frozen=True)
class LLLParams:
    """A certified local-lemma configuration at dependency degree D.

    D, P1 and P2 are kept only as logs, since they leave the float range at
    the scales involved; (a, b) are the weights of :func:`lll_feasible_ab`,
    and the slacks are its log RHS - log P of the two inequalities.
    """

    log_D: float
    r: int
    log_p1: float
    log_p2: float
    a: float
    b: float
    log_slack1: float
    log_slack2: float


def structure_log_probabilities(n: int, r: int) -> tuple[float, float]:
    """(log P1, log P2): per-edge short probability bound n ((1-p)/r)^(n-1)
    and per-chain conflict probability bound p^(r-1) r^(-r(n-2)), at the
    reference width p = 2 ln(n)/n."""
    if n < 3 or r < 2:
        raise ValueError(f"need n >= 3 and r >= 2, got n={n}, r={r}")
    p = reference_p(n)
    log_p1 = log(n) + (n - 1) * (log1p(-p) - log(r))
    log_p2 = (r - 1) * log(p) - r * (n - 2) * log(r)
    return log_p1, log_p2


def _lll_weights(log_p1: float, log_p2: float, log_D: float, r: int) -> tuple[float, float] | None:
    """Weights (a, b) passing both lemma conditions at D, or None if none do.

    At s = a + b the conditions read a >= A(s) = -D log(1 - P1 e^s) and
    b >= B(s) = -r D^r log(1 - P2 e^(rs)), so weights exist iff the slack
    s - A(s) - B(s) is positive for some s. A and B are convex, so the slack
    is concave while P1 e^s and P2 e^(rs) stay below 1, and it peaks where
    A'(s) + B'(s) = 1, with A' = D P1 e^s / (1 - P1 e^s) and
    B' = r^2 D^r P2 e^(rs) / (1 - P2 e^(rs)).
    Newton's method finds that point as the root of h = log(A' + B'), the
    log-sum-exp of two convex increasing terms, starting where A' or B'
    first reaches 1. The slack is split evenly between a and b, which keeps
    both positive where A or B underflows.
    """
    log_r = log(r)
    log_db0 = 2.0 * log_r + r * log_D  # log r^2 D^r
    # A' >= 1 or B' >= 1 here, so h(s) >= 0 and the peak lies at or below;
    # at n >= 10^16, s + log P1 or r s + log P2 may round to 0, so step off
    s = min(-log_p1 - log1pexp(log_D), (-log_p2 - log1pexp(log_db0)) / r)
    while s + log_p1 >= 0.0 or r * s + log_p2 >= 0.0:
        s = nextafter(s, -inf)
    # h is convex and increasing, so Newton steps from its right fall
    # monotonically onto the root, lowering s and h; stop once a step fails
    # to lower either, as where s + log P1 rounds alike over a stretch of s
    h_prev = inf
    while s > 0.0:
        u, v = s + log_p1, r * s + log_p2
        log_da = log_D + log_odds(u)
        log_db = log_db0 + log_odds(v)
        top = max(log_da, log_db)
        h = top + log1pexp(min(log_da, log_db) - top)
        if not h < h_prev:
            break
        # h' = (A' / (1 - e^u) + r B' / (1 - e^v)) / (A' + B')
        slope = -exp(log_da - h) / expm1(u) - r * exp(log_db - h) / expm1(v)
        lower = s - h / slope
        if not lower < s:
            break
        s, h_prev = lower, h
    if s <= 0.0:
        return None
    log_a = log_D + log_neg_log1mexp(s + log_p1)
    log_b = log_r + r * log_D + log_neg_log1mexp(r * s + log_p2)
    # A or B alone at least s leaves no slack; testing in logs keeps exp in range
    if max(log_a, log_b) >= log(s):
        return None
    a, b = exp(log_a), exp(log_b)
    slack = s - a - b
    return (a + slack / 2.0, b + slack / 2.0) if slack > 0.0 else None


def max_degree_lll(n: int, r: int) -> LLLParams:
    """Largest dependency degree D certified colorable by the local lemma.

    Binary search on log D to within LLL_TOL; at each candidate the weights
    (a, b) come from the peak of the slack found by _lll_weights and are
    re-checked through lll_feasible_ab, so the result certifies with
    nonnegative slack. The bisection's last feasible candidate is its
    result, so that candidate's certificate is returned as it stands.
    """
    log_p1, log_p2 = structure_log_probabilities(n, r)
    best = None

    def certify(log_D: float) -> bool:
        nonlocal best
        weights = _lll_weights(log_p1, log_p2, log_D, r)
        if weights is None:
            return False
        res = lll_feasible_ab(log_p1, log_p2, log_D, r, *weights)
        if res.feasible:
            best = LLLParams(log_D, r, log_p1, log_p2, *weights, res.log_slack1, res.log_slack2)
        return res.feasible

    if not certify(0.0):
        raise NumericRangeError(f"local lemma infeasible even at D=1 for n={n}, r={r}")
    _max_feasible(certify, 0.0, -log_p1 + 10.0, LLL_TOL)
    return best  # type: ignore[return-value]
