"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 1's target value is asserted exactly as specified and is expected
to fail: the bound sequence k(1-p)^n + k^2 p at k = 1.4 sqrt(n/ln n),
p = ln(n/k)/n decreases toward 0.98, but the gap decays like
ln(ln n)/ln(n); the true value at n = 10^6 is 1.2604 (1% closeness would
need n beyond 10^400). The assertion is kept as stated rather than
loosened; everything else passes.
"""

from fractions import Fraction
from math import log, sqrt

import numpy as np
import pytest

from hgcolor import (
    BirthTimeAssignment,
    Hypergraph,
    baseline_equitable_success,
    conflicting_chains,
    expected_short_edges,
    gen_fano,
    gen_random_uniform,
    greedy_color,
    greedy_success_exact,
    is_proper,
    lll_feasible_ab,
    max_degree_lll,
    monte_carlo,
    montecarlo,
    pair_conflict_probability,
    pair_conflict_probability_closed,
    prob_edge_short_exact,
    two_color_bound,
)
from hgcolor.experiment import ExperimentConfig, run_experiment, strip_timestamp
from hgcolor.greedy import greedy_succeeds
from hgcolor.montecarlo import Z99, wilson_interval
from hgcolor.suite import fixed_suite

from conftest import count_pools

SUITE_TRIALS = 10_000
SUITE_SEED = 20240809


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def suite_mc():
    """Exact probability and Monte Carlo report per suite instance."""
    results = []
    for name, h, r in fixed_suite():
        exact = greedy_success_exact(h, r).success_probability
        rep = monte_carlo(h, r, SUITE_TRIALS, SUITE_SEED)
        results.append((name, h, r, exact, rep))
    return results


def test_criterion_1_limit_surrogate():
    c = 1.4
    values = {}
    for n in (10**4, 10**5, 10**6):
        k = c * sqrt(n / log(n))
        p = log(n / k) / n
        values[n] = two_color_bound(k, p, n)
    decreasing = values[10**4] > values[10**5] > values[10**6]
    within_1pct = abs(values[10**6] - 0.98) <= 0.01 * 0.98
    ok = decreasing and within_1pct
    report(
        "criterion 1 (limit surrogate)",
        ok,
        f"decreasing={decreasing}, value(1e6)={values[10**6]:.6f} vs target 0.98+-1%",
    )
    assert decreasing
    assert within_1pct, (
        f"value at n=1e6 is {values[10**6]:.6f}; the sequence approaches 0.98 "
        "only as ln(ln n)/ln(n) -> 0, so the stated 1% tolerance is "
        "unreachable at n=1e6 (see notes/decisions ledger)"
    )


def test_criterion_2_pair_probability_surrogate():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 51))
        p = float(rng.uniform(0.001, 0.999))
        lo, hi = (1 - p) / 2, (1 + p) / 2
        q = pair_conflict_probability(n, lo, hi)
        assert q <= p + 1e-12
        c = pair_conflict_probability_closed(n, lo, hi)
        rel = abs(q - c) / max(abs(c), 1e-300)
        worst = max(worst, rel)
    ok = worst <= 1e-9
    report("criterion 2 (pair probability)", ok, f"worst quadrature/beta rel diff {worst:.2e}")
    assert ok


def test_criterion_3_greedy_soundness():
    rng = np.random.default_rng(314159)
    instances = 1000
    assignments = 100
    checked_runs = 0
    failures_seen = 0
    for idx in range(instances):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(n, 15))
        max_edges = min(30, _comb(m, n))
        edge_count = int(rng.integers(1, max_edges + 1))
        h = gen_random_uniform(m, n, edge_count, seed=int(rng.integers(2**31)))
        r = 2 if idx % 2 == 0 else 3
        for _ in range(assignments):
            times = rng.random(m).tolist()
            t = BirthTimeAssignment(times)
            chains = conflicting_chains(h, t, r)
            ok = greedy_succeeds(h, t.order(), r)
            checked_runs += 1
            if not chains:
                assert ok, "conflict-free assignment produced an improper trace"
            if not ok:
                failures_seen += 1
                trace = greedy_color(h, t, r)
                proper, mono = is_proper(h, trace.coloring)
                assert not proper and mono
                last_edges = {ch.edges[-1] for ch in chains}
                for ei in mono:
                    colors = {trace.coloring.colors[v] for v in h.edges[ei]}
                    assert colors == {r}, "monochromatic edge below color r"
                    assert ei in last_edges, (
                        "monochromatic edge not explained by any conflicting chain"
                    )
    ok = failures_seen > 0
    report(
        "criterion 3 (greedy soundness)",
        ok,
        f"{checked_runs} runs, {failures_seen} improper traces, all explained",
    )
    assert checked_runs == instances * assignments
    assert ok, "the batch never exercised a failing trace"


def _comb(m, n):
    from math import comb

    return comb(m, n)


def test_criterion_4_oracle_agreement(suite_mc):
    inside = 0
    for name, h, r, exact, rep in suite_mc:
        lo, hi = rep.wilson99
        if lo <= float(exact) <= hi:
            inside += 1
    fano_rep = monte_carlo(gen_fano(), 2, 100_000, SUITE_SEED)
    single = Hypergraph(3, [(0, 1, 2)])
    single_rep = monte_carlo(single, 2, 100_000, SUITE_SEED)
    ok = inside >= 38 and fano_rep.successes == 0 and single_rep.successes == 100_000
    report(
        "criterion 4 (oracle agreement)",
        ok,
        f"{inside}/40 inside Wilson99, fano {fano_rep.successes}/1e5, "
        f"single edge {single_rep.successes}/1e5",
    )
    assert inside >= 38
    assert fano_rep.successes == 0
    assert single_rep.successes == 100_000


def test_criterion_5_short_edge_calculus():
    rng = np.random.default_rng(777)
    trials = 100_000
    for n in range(3, 11):
        p = 2 * log(n) / n
        for r in (2, 3):
            length = (1 - p) / r
            u = rng.random((trials, n))
            span = u.max(axis=1) - u.min(axis=1)
            hits = int((span < length).sum())
            exact = prob_edge_short_exact(n, length)
            lo, hi = wilson_interval(hits, trials, Z99)
            assert lo <= exact <= hi, (n, r, exact, (lo, hi))
    ratios = []
    for n in (10**3, 10**4, 10**5, 10**6):
        p = 2 * log(n) / n
        for r in (2, 3):
            k = 1.7
            ratio = expected_short_edges(k, n, r, p) * (r * n) / k
            ratios.append(ratio)
            assert abs(ratio - 1.0) <= 0.10
    report(
        "criterion 5 (short edges)",
        True,
        f"empirical CIs hit for n=3..10, r=2,3; ratio range "
        f"[{min(ratios):.4f}, {max(ratios):.4f}]",
    )


def test_criterion_6_chain_probability_bridge():
    # explicit 3-chain, n = 3: f1={0,1,2}, f2={2,3,4}, f3={4,5,6}
    n, r = 3, 3
    p = 2 * log(n) / n
    bound = p ** (r - 1) * r ** (-r * (n - 2))
    rng = np.random.default_rng(987654321)
    trials = 1_000_000
    u = rng.random((trials, 7))
    conflicting = (
        (u[:, 2] == u[:, :3].max(axis=1))
        & (u[:, 2] == u[:, 2:5].min(axis=1))
        & (u[:, 4] == u[:, 2:5].max(axis=1))
        & (u[:, 4] == u[:, 4:7].min(axis=1))
    )
    hits = int(conflicting.sum())
    lo, hi = wilson_interval(hits, trials, Z99)
    exact = Fraction(48, 60480)  # nested Beta integrals for this geometry
    ok = lo <= bound and lo <= float(exact) <= hi
    report(
        "criterion 6 (chain bridge)",
        ok,
        f"freq={hits / trials:.6f}, exact={float(exact):.6f}, bound={bound:.6f}",
    )
    assert lo <= bound, "chain-conflict frequency refutes the per-chain bound"
    assert lo <= float(exact) <= hi


def test_criterion_7_lll_search_sanity():
    for r in (2, 3):
        ratios = []
        for n in range(50, 501, 50):
            cert = max_degree_lll(n, r)
            recheck = lll_feasible_ab(
                cert.log_p1, cert.log_p2, cert.log_D, cert.r, cert.a, cert.b
            )
            assert recheck.feasible
            assert min(recheck.log_slack1, recheck.log_slack2) > 0.0
            log_ref = ((r - 1) / r) * (log(n) - log(log(n))) + n * log(r)
            ratios.append(np.exp(cert.log_D - log_ref))
        band = max(ratios) / min(ratios)
        assert band <= 4.0, f"r={r}: ratio band {band}"
    report("criterion 7 (LLL search)", True, "slacks positive, band <= 4")


def test_criterion_8_determinism_across_parallelism(monkeypatch):
    configs = [
        {"source": {"kind": "fano"}, "r": 2, "trials": 2000, "seed": 5,
         "count_chains": True},
        {"source": {"kind": "random", "m": 8, "n": 3, "edges": 12, "seed": 1},
         "r": 3, "trials": 2000, "seed": 6},
    ]
    # a pool for every call that may use one, and batches of at most 100
    # trials on both instances, so every worker's range spans several
    pools = count_pools(monkeypatch)
    monkeypatch.setattr(montecarlo, "_BATCH_ELEMENTS", 21 * 100)
    for base in configs:
        serial = run_experiment(ExperimentConfig(**base, workers=1))
        assert pools == []
        parallel = run_experiment(ExperimentConfig(**base, workers=8))
        assert pools == [4]
        pools.clear()
        a, b = strip_timestamp(serial), strip_timestamp(parallel)
        a["config"].pop("workers")
        b["config"].pop("workers")
        assert a == b
    report("criterion 8 (determinism)", True, "workers 1 and 8 agree byte-for-byte")


def test_criterion_9_equitable_baseline_never_wins(suite_mc):
    worst = -1.0
    for name, h, r, exact, rep in suite_mc:
        base = baseline_equitable_success(h, r, SUITE_TRIALS, SUITE_SEED)
        greedy_half = (rep.wilson99[1] - rep.wilson99[0]) / 2
        base_half = (base.wilson99[1] - base.wilson99[0]) / 2
        margin = base.estimate - rep.estimate
        worst = max(worst, margin - (greedy_half + base_half))
        assert margin <= greedy_half + base_half, (
            f"{name}: equitable {base.estimate} beats greedy {rep.estimate} "
            "beyond joint CI width"
        )
    report(
        "criterion 9 (equitable baseline)",
        True,
        f"max margin minus joint CI width = {worst:.4f} (<= 0)",
    )
