"""Seeded, reproducible Monte Carlo harness for greedy coloring trials.

Trial i always draws its birth times from a child generator derived from
(master seed, i), so results are identical for any worker count; aggregates
are integer sums, which merge exactly in any order. Proportions carry 95%
and 99% Wilson intervals (well behaved at estimates of 0 and 1, which
non-colorable and trivially colorable instances produce).

A trial decides success with :func:`hgcolor.greedy.greedy_succeeds` and
takes first/last vertices, short edges and conflicting chains from the
routines in :mod:`hgcolor.conflicts`; it keeps no copy of either.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from collections import Counter
from dataclasses import dataclass
from math import log, sqrt

import numpy as np
from scipy.special import ndtri

from .conflicts import DEFAULT_CHAIN_CEILING, _chains_from, _firsts_lasts
from .errors import ChainCeilingError
from .greedy import equitable_partition_color, greedy_succeeds
from .hypergraph import Hypergraph, uniformity

Z95 = float(ndtri(0.975))
Z99 = float(ndtri(0.995))


def wilson_interval(successes: int, trials: int, z: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("need at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside 0..{trials}")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = (z / denom) * sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    # the endpoints are exact at degenerate counts; keep them so
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def default_p(h: Hypergraph) -> float | None:
    """2 ln(n)/n for an n-uniform instance (always < 1 for n >= 2)."""
    cert = uniformity(h)
    if cert is None:
        return None
    return 2.0 * log(cert.n) / cert.n


@dataclass(frozen=True)
class EstimateReport:
    """A bare success-proportion estimate with Wilson intervals."""

    trials: int
    successes: int
    estimate: float
    wilson95: tuple[float, float]
    wilson99: tuple[float, float]


def _estimate(successes: int, trials: int) -> EstimateReport:
    return EstimateReport(
        trials=trials,
        successes=successes,
        estimate=successes / trials,
        wilson95=wilson_interval(successes, trials, Z95),
        wilson99=wilson_interval(successes, trials, Z99),
    )


@dataclass(frozen=True)
class MonteCarloReport:
    trials: int
    successes: int
    r: int
    p: float | None
    vertex_count: int
    edge_count: int
    uniformity_n: int | None
    estimate: float
    wilson95: tuple[float, float]
    wilson99: tuple[float, float]
    total_conflicting_pairs: int | None
    mean_conflicting_pairs: float | None
    total_short_edges: int | None
    mean_short_edges: float | None
    interval_counts: tuple[int, int, int] | None
    total_conflicting_chains: int | None
    mean_conflicting_chains: float | None
    chain_ceiling_trials: int


class _TrialEngine:
    """Per-hypergraph precomputation for the trial hot loop."""

    def __init__(
        self,
        h: Hypergraph,
        r: int,
        p: float | None,
        count_pairs: bool,
        count_chains: bool,
        chain_ceiling: int,
    ):
        self.h = h
        self.r = r
        self.p = p
        self.count_pairs = count_pairs
        self.count_chains = count_chains
        self.chain_ceiling = chain_ceiling
        self.v_count = h.vertex_count
        self.short_threshold = None if p is None else (1.0 - p) / r
        if p is not None:
            self.part_lo = (1.0 - p) / 2.0
            self.part_hi = (1.0 + p) / 2.0
        # a singleton edge is its own first and last; (e, e) is not a pair
        self.singletons = Counter(e[0] for e in h.edges if len(e) == 1)

    def run(self, times: list[float]) -> tuple[int, int, int, int, int, int, int, int]:
        """One trial: (success, pairs, short, b, p_mid, r_int, chains, ceiling_flag)."""
        # a stable sort by time alone breaks ties by ascending index
        order = sorted(range(self.v_count), key=times.__getitem__)
        success = 1 if greedy_succeeds(self.h, order, self.r) else 0
        n_pairs = n_short = cb = cp = cr = 0
        n_chains = flag = 0
        if not (self.count_pairs or self.count_chains or self.short_threshold is not None):
            return success, n_pairs, n_short, cb, cp, cr, n_chains, flag
        firsts, lasts = _firsts_lasts(self.h.edges, times)
        if self.short_threshold is not None:
            threshold = self.short_threshold
            for fv, lv in zip(firsts, lasts):
                if times[lv] - times[fv] < threshold:
                    n_short += 1
        if self.count_pairs:
            n_first = Counter(firsts)
            for v, nl in Counter(lasts).items():
                nf = n_first.get(v, 0)
                if nf == 0:
                    continue
                here = nl * nf - self.singletons.get(v, 0)
                n_pairs += here
                if self.p is not None:
                    tv = times[v]
                    if tv < self.part_lo:
                        cb += here
                    elif tv < self.part_hi:
                        cp += here
                    else:
                        cr += here
        if self.count_chains:
            try:
                n_chains = len(
                    _chains_from(self.h.edge_sets, firsts, lasts, self.r, self.chain_ceiling)
                )
            except ChainCeilingError:
                flag = 1
        return success, n_pairs, n_short, cb, cp, cr, n_chains, flag


def _run_range(engine: _TrialEngine, seed: int, start: int, stop: int) -> tuple[int, ...]:
    totals = [0] * 8
    v = engine.v_count
    for i in range(start, stop):
        rng = np.random.default_rng([seed, i])
        times = rng.random(v).tolist()
        for slot, val in enumerate(engine.run(times)):
            totals[slot] += val
    return tuple(totals)


def _worker(args) -> tuple[int, ...]:
    (edges, v_count, r, p, count_pairs, count_chains, ceiling, seed, start, stop) = args
    h = Hypergraph(v_count, edges)
    engine = _TrialEngine(h, r, p, count_pairs, count_chains, ceiling)
    return _run_range(engine, seed, start, stop)


def monte_carlo(
    h: Hypergraph,
    r: int,
    trials: int,
    seed: int,
    p: float | None = None,
    count_pairs: bool = True,
    count_chains: bool = False,
    workers: int = 1,
    chain_ceiling: int = DEFAULT_CHAIN_CEILING,
) -> MonteCarloReport:
    """Estimate greedy success probability and conflict-structure counts.

    p defaults to 2 ln(n)/n when the instance is uniform; short-edge and
    B/P/R accounting are skipped when no p is available (B/P/R also
    requires r = 2).
    """
    h.require_valid()
    if trials < 1:
        raise ValueError("need at least one trial")
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if p is None:
        p = default_p(h)
    elif not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0,1), got {p}")
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    cert = uniformity(h)
    # reports do not depend on the worker count, so processes beyond the
    # trials or the usable CPUs would only add start-up cost
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    pool_size = min(workers, trials, cpus)
    if pool_size == 1:
        engine = _TrialEngine(h, r, p, count_pairs, count_chains, chain_ceiling)
        totals = _run_range(engine, seed, 0, trials)
    else:
        bounds = np.linspace(0, trials, pool_size + 1, dtype=int)
        jobs = [
            (h.edges, h.vertex_count, r, p, count_pairs, count_chains,
             chain_ceiling, seed, int(a), int(b))
            for a, b in zip(bounds[:-1], bounds[1:])
            if a < b
        ]
        with mp.get_context("fork").Pool(pool_size) as pool:
            parts = pool.map(_worker, jobs)
        totals = tuple(sum(col) for col in zip(*parts))
    succ, pairs, short, cb, cp, cr, chains, flagged = totals
    est = _estimate(succ, trials)
    chain_trials = trials - flagged
    return MonteCarloReport(
        trials=trials,
        successes=succ,
        r=r,
        p=p,
        vertex_count=h.vertex_count,
        edge_count=h.edge_count,
        uniformity_n=cert.n if cert else None,
        estimate=est.estimate,
        wilson95=est.wilson95,
        wilson99=est.wilson99,
        total_conflicting_pairs=pairs if count_pairs else None,
        mean_conflicting_pairs=pairs / trials if count_pairs else None,
        total_short_edges=short if p is not None else None,
        mean_short_edges=short / trials if p is not None else None,
        interval_counts=(cb, cp, cr) if (count_pairs and p is not None and r == 2) else None,
        total_conflicting_chains=chains if count_chains else None,
        mean_conflicting_chains=(
            chains / chain_trials if count_chains and chain_trials else None
        ),
        chain_ceiling_trials=flagged,
    )


def baseline_equitable_success(
    h: Hypergraph, r: int, trials: int, seed: int
) -> EstimateReport:
    """Success proportion of the random equitable-partition baseline."""
    h.require_valid()
    if trials < 1:
        raise ValueError("need at least one trial")
    edges = h.edges
    succ = 0
    for i in range(trials):
        coloring = equitable_partition_color(h, [seed, i], r)
        colors = coloring.colors
        ok = True
        for e in edges:
            c0 = colors[e[0]]
            mono = True
            for u in e:
                if colors[u] != c0:
                    mono = False
                    break
            if mono:
                ok = False
                break
        if ok:
            succ += 1
    return _estimate(succ, trials)
