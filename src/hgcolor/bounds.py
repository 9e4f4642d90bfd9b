"""Analytic bounds for greedy coloring, evaluated robustly in log space.

Covers the two-color failure bound k(1-p)^n + k^2 p and its optimization,
expected counts of short edges and conflicting r-chains at p = 2 ln(n)/n,
exact per-structure probabilities, and the local-lemma feasibility search
over dependency degree D. Quantities like r^n and D^r dwarf the float range
at interesting n, so every product with such exponents is a sum of logs;
weights x = 1 - e^(-a/D) and y = 1 - e^(-b/(r D^r)) are handled through
(a, b) so that D log(1-x) = -a and r D^r log(1-y) = -b stay exact. For
fixed s = a + b the least feasible a and b have closed forms, and the
slack s - a - b they leave is concave in s, so the weights at a given D
sit where its slope changes sign. The bisection _max_feasible is the
module's one search: it finds that point, the largest D and the
edge-count coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import exp, expm1, inf, isfinite, log, log1p

from .errors import NumericRangeError

SEARCH_TOL = 1e-9


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


def pair_conflict_probability(n: int, lo: float, hi: float) -> float:
    """∫ x^(n-1) (1-x)^(n-1) dx over [lo, hi] by adaptive quadrature.

    This is the probability that a fixed dangerous pair conflicts with
    common-vertex birth time in [lo, hi], before the edge-count factor.
    """
    # imported here so that importing hgcolor does not load scipy
    from scipy.integrate import quad

    if n < 1 or not 0.0 <= lo <= hi <= 1.0:
        raise ValueError(f"invalid arguments n={n}, lo={lo}, hi={hi}")
    if lo == hi:
        return 0.0
    val, _err = quad(
        lambda x: x ** (n - 1) * (1.0 - x) ** (n - 1),
        lo,
        hi,
        epsabs=1e-300,
        epsrel=1e-12,
        limit=200,
    )
    return val


def pair_conflict_probability_closed(n: int, lo: float, hi: float) -> float:
    """Same integral through the regularized incomplete beta function.

    Uses the Beta(n, n) mirror symmetry to keep both evaluation points on
    the lower half, avoiding cancellation of regularized values near 1.
    """
    # imported here so that importing hgcolor does not load scipy
    from scipy.special import betainc, betaln

    if n < 1 or not 0.0 <= lo <= hi <= 1.0:
        raise ValueError(f"invalid arguments n={n}, lo={lo}, hi={hi}")
    if lo >= 0.5:
        lo, hi = 1.0 - hi, 1.0 - lo
    elif hi > 0.5:
        return pair_conflict_probability_closed(
            n, lo, 0.5
        ) + pair_conflict_probability_closed(n, 0.5, hi)
    scale = exp(betaln(n, n))
    return scale * (betainc(n, n, hi) - betainc(n, n, lo))


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
        return (
            expected_short_edges(k, n, r, p) + expected_conflicting_chains(k, n, r, p)
            < 1.0
        )

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
    is concave on [0, s_max) and peaks where A'(s) + B'(s) = 1, with
    A' = D P1 e^s / (1 - P1 e^s) and B' = r^2 D^r P2 e^(rs) / (1 - P2 e^(rs));
    _max_feasible bisects for that point. The slack is split evenly between
    a and b, which keeps both positive where A or B underflows.
    """
    log_r = log(r)
    s_max = min(-log_p1, -log_p2 / r)

    def rising(s: float) -> bool:
        # A'(s) + B'(s) < 1, that is e^(log B') < 1 - e^(log A'), in logs; at
        # s_max, r s + log P2 may round below 0 by far more than 1
        log_da = log_D + log_odds(s + log_p1)
        log_db = 2.0 * log_r + r * log_D + log_odds(r * s + log_p2)
        return s < s_max and log_da < 0.0 and log_db < log(-expm1(log_da))

    s = _max_feasible(rising, 0.0, s_max)
    log_a = log_D + log_neg_log1mexp(s + log_p1)
    log_b = log_r + r * log_D + log_neg_log1mexp(r * s + log_p2)
    # A or B alone at least s leaves no slack; testing in logs keeps exp in range
    if s == 0.0 or max(log_a, log_b) >= log(s):
        return None
    a, b = exp(log_a), exp(log_b)
    slack = s - a - b
    return (a + slack / 2.0, b + slack / 2.0) if slack > 0.0 else None


def max_degree_lll(n: int, r: int, tol: float = 1e-6) -> LLLParams:
    """Largest dependency degree D certified colorable by the local lemma.

    Binary search on log D to within tol; at each candidate the weights
    (a, b) come from the peak of the slack found by _lll_weights and are
    re-checked through lll_feasible_ab, so the result certifies with
    nonnegative slack.
    """
    log_p1, log_p2 = structure_log_probabilities(n, r)

    def certify(log_D: float) -> LLLParams | None:
        weights = _lll_weights(log_p1, log_p2, log_D, r)
        if weights is None:
            return None
        res = lll_feasible_ab(log_p1, log_p2, log_D, r, *weights)
        if not res.feasible:
            return None
        return LLLParams(log_D, r, log_p1, log_p2, *weights, res.log_slack1, res.log_slack2)

    if certify(0.0) is None:
        raise NumericRangeError(f"local lemma infeasible even at D=1 for n={n}, r={r}")
    log_D = _max_feasible(lambda t: certify(t) is not None, 0.0, -log_p1 + 10.0, tol)
    return certify(log_D)  # type: ignore[return-value]
