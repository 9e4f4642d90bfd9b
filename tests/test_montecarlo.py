import os
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest

from hgcolor import (
    Hypergraph,
    baseline_equitable_success,
    gen_complete_uniform,
    gen_fano,
    gen_random_uniform,
    monte_carlo,
    montecarlo,
    prob_edge_short_exact,
    wilson_interval,
)
from hgcolor.bounds import reference_p
from hgcolor.montecarlo import Z95, Z99, default_p
from hgcolor.suite import fixed_suite

from conftest import count_pools

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _ceiling_engine(ceiling):
    """A _TrialEngine class whose walk_limit is lowered (never raised) to
    ceiling + 1, so a row is flagged exactly when it counts more than
    `ceiling` conflicting chains. Tests that need monte_carlo itself patch
    it into montecarlo."""

    class Engine(montecarlo._TrialEngine):
        def __init__(self, *args):
            super().__init__(*args)
            assert ceiling < self.walk_limit
            self.walk_limit = ceiling + 1

    return Engine


def _engine(h, r, p, count_chains, ceiling=None):
    """A trial engine, flagging past `ceiling` chains if one is given."""
    engine = montecarlo._TrialEngine if ceiling is None else _ceiling_engine(ceiling)
    return engine(h, r, p, count_chains)


def _swept_rows(engine):
    """Make `engine` record the rows each of its sweeps is given, in the
    list returned: run hands its sweep the rows that can fail."""
    swept = []
    succeeds = engine._succeeds

    def recording(edge_pos, closing, rows):
        swept.append(rows)
        return succeeds(edge_pos, closing, rows)

    engine._succeeds = recording
    return swept


class TestWilson:
    def test_contains_estimate(self):
        for s, t in [(0, 10), (5, 10), (10, 10), (137, 2000)]:
            lo, hi = wilson_interval(s, t, Z95)
            assert lo <= s / t <= hi

    def test_behaved_at_zero_and_one(self):
        lo, hi = wilson_interval(0, 1000, Z99)
        assert lo == 0.0 and 0 < hi < 0.02
        lo, hi = wilson_interval(1000, 1000, Z99)
        assert 0.98 < lo < 1 and hi == 1.0

    def test_quantiles_match_ndtri(self):
        from scipy.special import ndtri

        assert Z95 == float(ndtri(0.975))
        assert Z99 == float(ndtri(0.995))

    def test_wider_at_higher_confidence(self):
        lo95, hi95 = wilson_interval(40, 100, Z95)
        lo99, hi99 = wilson_interval(40, 100, Z99)
        assert lo99 < lo95 and hi95 < hi99


class TestMonteCarlo:
    def test_single_edge_always_succeeds(self):
        h = Hypergraph(3, [(0, 1, 2)])
        rep = monte_carlo(h, 2, 500, seed=1)
        assert rep.successes == 500 and rep.estimate == 1.0

    def test_fano_never_succeeds(self, fano):
        rep = monte_carlo(fano, 2, 500, seed=2)
        assert rep.successes == 0 and rep.estimate == 0.0

    def test_default_p(self, fano):
        assert default_p(fano) == pytest.approx(2 * np.log(3) / 3)
        rep = monte_carlo(fano, 2, 10, seed=3)
        assert rep.p == pytest.approx(2 * np.log(3) / 3)
        # 2 ln(2)/2 = ln 2 for a 2-uniform instance; reference_p refuses n = 1
        assert default_p(Hypergraph(3, [(0, 1), (1, 2)])) == pytest.approx(np.log(2))
        with pytest.raises(ValueError):
            reference_p(1)

    def test_path_pair_rate_matches_beta(self):
        # P(shared vertex last of e, first of f) = Beta(2,2) = 1/6 for each
        # of the two ordered pairs (e,f) and (f,e), so the mean ordered
        # conflicting-pair count is 1/3
        h = Hypergraph(3, [(0, 1), (1, 2)])
        rep = monte_carlo(h, 2, 20_000, seed=4)
        assert rep.estimate == 1.0
        assert rep.mean_conflicting_pairs == pytest.approx(1 / 3, abs=0.01)

    def test_interval_counts_sum(self, fano):
        rep = monte_carlo(fano, 2, 2_000, seed=5)
        assert sum(rep.interval_counts) == rep.total_conflicting_pairs

    def test_interval_counts_only_for_two_colors(self, fano):
        rep = monte_carlo(fano, 3, 100, seed=6)
        assert rep.interval_counts is None

    def test_short_edge_rate_matches_exact(self):
        h = Hypergraph(3, [(0, 1, 2)])
        p = 0.4
        rep = monte_carlo(h, 2, 50_000, seed=7, p=p)
        exact = prob_edge_short_exact(3, (1 - p) / 2)
        lo, hi = wilson_interval(rep.total_short_edges, rep.trials, Z99)
        assert lo <= exact <= hi

    def test_worker_determinism(self, monkeypatch, fano):
        # batches of 100 trials (Fano's edge matrix holds 21 entries), so the
        # timed share and each worker's range span more than one batch
        pools = count_pools(monkeypatch)
        monkeypatch.setattr(montecarlo, "_BATCH_ELEMENTS", 21 * 100)
        serial = monte_carlo(fano, 2, 400, seed=8, workers=1, count_chains=True)
        assert pools == []
        parallel = monte_carlo(fano, 2, 400, seed=8, workers=4, count_chains=True)
        assert pools == [4]
        assert serial == parallel

    def test_costly_pool_not_started(self, monkeypatch, fano):
        serial = monte_carlo(fano, 3, 400, seed=8, count_chains=True)
        # batches of 100 trials, so the call splits and the overhead decides
        monkeypatch.setattr(montecarlo, "_BATCH_ELEMENTS", 21 * 100)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(montecarlo, "_POOL_OVERHEAD_S", float("inf"))

        def no_pool():
            raise AssertionError("a pool that saves less than it costs started")

        monkeypatch.setattr(montecarlo, "_pool_context", no_pool)
        assert monte_carlo(fano, 3, 400, seed=8, count_chains=True, workers=2) == serial

    def test_cheap_call_starts_no_pool_in_a_fresh_process(self):
        # whether a call forks reads that call alone, so the first call of a
        # process is judged like any other; batches of four trials make the
        # call split, and its 30 trials left save far less than a pool costs
        code = (
            "from hgcolor import gen_fano, montecarlo\n"
            "def no_pool():\n"
            "    raise AssertionError('a pool started for 40 Fano trials')\n"
            "montecarlo._pool_context = no_pool\n"
            "montecarlo._usable_cpus = lambda: 2\n"
            "montecarlo._BATCH_ELEMENTS = 21 * 4\n"
            "montecarlo.monte_carlo(gen_fano(), 2, 40, seed=3, workers=2)\n"
        )
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_worker_count_capped_by_trials(self, fano):
        # at most min(workers, trials, usable CPUs) processes: of two trials
        # one runs in-process as the timed share, so no pool starts here,
        # and the report cannot depend on the count
        serial = monte_carlo(fano, 2, 2, seed=8, workers=1, count_chains=True)
        huge = monte_carlo(fano, 2, 2, seed=8, workers=10**6, count_chains=True)
        assert serial == huge

    def test_workers_must_be_positive(self, fano):
        for workers in (0, -1):
            with pytest.raises(ValueError, match="worker"):
                monte_carlo(fano, 2, 10, seed=1, workers=workers)

    def test_chain_counts_opt_in(self, fano):
        rep = monte_carlo(fano, 2, 50, seed=9)
        assert rep.total_conflicting_chains is None
        rep = monte_carlo(fano, 2, 50, seed=9, count_chains=True)
        assert rep.total_conflicting_chains is not None
        # 2-chains and pairs coincide
        assert rep.total_conflicting_chains == rep.total_conflicting_pairs

    def test_chain_ceiling_flags_trials(self, monkeypatch, fano):
        monkeypatch.setattr(montecarlo, "_TrialEngine", _ceiling_engine(0))
        rep = monte_carlo(fano, 2, 30, seed=10, count_chains=True)
        assert rep.chain_ceiling_trials == 30
        assert rep.total_conflicting_chains == 0
        assert rep.mean_conflicting_chains is None

    def test_seed_required_nonnegative(self, fano):
        with pytest.raises(ValueError):
            monte_carlo(fano, 2, 10, seed=-1)


class TestEquitableBaseline:
    def test_k4_never_proper(self):
        # any 2+2 split of K4 leaves both inner pair-edges monochromatic
        rep = baseline_equitable_success(gen_complete_uniform(4, 2), 2, 300, seed=1)
        assert rep.successes == 0

    def test_balanced_triple_always_proper(self):
        # 3 vertices, 2 colors: classes of sizes 2 and 1 can never leave
        # the single 3-edge monochromatic
        rep = baseline_equitable_success(Hypergraph(3, [(0, 1, 2)]), 2, 300, seed=2)
        assert rep.successes == 300

    @pytest.mark.parametrize(
        "name, r, successes",
        [("fano_r2", 2, 0), ("fano_r3", 3, 409), ("random_m8_n3_e12_r3_s11", 3, 304)],
    )
    def test_pinned_success_counts(self, name, r, successes):
        # pinned at a fixed seed: a change to the draws or to the properness check shows here
        h = {n: h for n, h, _ in fixed_suite()}[name]
        rep = baseline_equitable_success(h, r, 500, seed=7)
        assert (rep.trials, rep.successes) == (500, successes)

    def test_seed_required_nonnegative(self, fano):
        with pytest.raises(ValueError, match="nonnegative"):
            baseline_equitable_success(fano, 2, 10, seed=-1)

    def test_batched_count_matches_is_proper(self, monkeypatch):
        """Trial i of the baseline succeeds exactly when is_proper accepts
        equitable_partition_color's coloring from default_rng([seed, i]):
        over mixed edge sizes (padded rows), singleton edges, no edges,
        V mod r != 0 and r > V, with batches split small."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from hgcolor import equitable_partition_color, is_proper

        from conftest import hypergraphs

        @given(hypergraphs(), st.integers(1, 4), st.integers(1, 12),
               st.integers(0, 2**33), st.integers(1, 64))
        @settings(max_examples=200)
        def check(h, r, trials, seed, elements):
            monkeypatch.setattr(montecarlo, "_BATCH_ELEMENTS", elements)
            expected = sum(
                is_proper(h, equitable_partition_color(h, np.random.default_rng([seed, i]), r))[0]
                for i in range(trials)
            )
            assert baseline_equitable_success(h, r, trials, seed).successes == expected

        check()


def test_engine_counts_match_reference_structures():
    """The trial engine's inline pair/short counting agrees with the
    conflict-analysis reference, including index tie-breaks."""
    from hypothesis import given, settings

    from hgcolor import BirthTimeAssignment, conflicting_pairs, short_edges
    from hgcolor.conflicts import IntervalPartition, classify_conflicts_by_interval
    from hgcolor.montecarlo import _TrialEngine

    from conftest import hypergraphs_with_times

    @given(hypergraphs_with_times())
    @settings(max_examples=120)
    def check(hwt):
        h, times = hwt
        p = 0.4
        engine = _TrialEngine(h, 2, p, count_chains=False)
        (row,) = engine.run(np.array([times], dtype=float).reshape(1, h.vertex_count))
        _, n_pairs, n_short, cb, cp, cr, _, _ = row.tolist()
        t = BirthTimeAssignment(times)
        assert n_pairs == len(conflicting_pairs(h, t))
        assert n_short == len(short_edges(h, t, 2, p))
        counts = classify_conflicts_by_interval(h, t, IntervalPartition(p))
        assert (cb, cp, cr) == (counts.b, counts.p, counts.r)

    check()


def _reference_row(h, times, r, p, ceiling):
    """What the engine's row of counts should be for one row of birth
    times, from the scalar references: greedy_succeeds on the birth-time
    order, the conflict structures (B/P/R only at r = 2, the one r whose
    report keeps them; 0 otherwise), and the chain count or its ceiling
    flag."""
    from hgcolor import (
        BirthTimeAssignment,
        conflicting_chains,
        conflicting_pairs,
        short_edges,
    )
    from hgcolor.conflicts import IntervalPartition, classify_conflicts_by_interval
    from hgcolor.errors import ChainCeilingError
    from hgcolor.greedy import greedy_succeeds

    t = BirthTimeAssignment(times)
    counts = classify_conflicts_by_interval(h, t, IntervalPartition(p))
    bpr = [counts.b, counts.p, counts.r] if r == 2 else [0, 0, 0]
    try:
        chains, flag = len(conflicting_chains(h, t, r, ceiling)), 0
    except ChainCeilingError:
        chains, flag = 0, 1
    return [
        int(greedy_succeeds(h, t.order(), r)),
        len(conflicting_pairs(h, t)),
        len(short_edges(h, t, r, p)),
        *bpr,
        chains, flag,
    ]


def test_batch_rows_match_scalar_references():
    """Every row of a batch equals the scalar references (ties, singleton
    edges, isolated vertices, no edges and mixed edge sizes all come from
    the strategy), with chains counted (the sweep then runs on the rows
    with a chain or a flag) and without (on the rows with the forced-vertex
    certificate)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from conftest import hypergraphs_with_times

    p = 0.4

    @given(
        hypergraphs_with_times(),
        st.data(),
        st.sampled_from([2, 3, 4, 5]),
        st.integers(min_value=0, max_value=4),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def check(hwt, data, r, ceiling, count_chains):
        h, times = hwt
        v = h.vertex_count
        more = data.draw(st.lists(
            st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=v, max_size=v),
            max_size=4,
        ))
        block = np.array([times, *more], dtype=float).reshape(-1, v)
        engine = _engine(h, r, p, count_chains, ceiling)
        for row, got in zip(block, engine.run(block).tolist()):
            want = _reference_row(h, row.tolist(), r, p, ceiling)
            assert got == (want if count_chains else want[:-2] + [0, 0])

    check()


_rng = np.random.default_rng(15)
# (instance, rows of birth times): all tied; vertices in no edge; singleton
# edges, one of them at a vertex in no other edge; singletons with ties
_EDGE_CASES = {
    "tied": (gen_random_uniform(40, 8, 200, seed=1), np.repeat([[0.0], [0.3], [1.0]], 40, axis=1)),
    "isolated": (Hypergraph(12, [(0, 3, 5), (3, 7), (5, 7, 9), (0, 9)]), _rng.random((60, 12))),
    "singletons": (
        Hypergraph(8, [(0, 1, 2), (2,), (2, 3, 4), (4, 5), (5,), (6,), (1, 5, 7)]),
        _rng.random((60, 8)),
    ),
    "singletons_tied": (
        Hypergraph(5, [(0, 1), (1,), (1, 2, 3), (3,), (3, 4)]),
        _rng.integers(0, 3, (60, 5)) / 2,
    ),
    # two copies of one singleton: a conflicting pair at r = 2, and neither
    # can sit in the middle of a longer chain
    "singletons_doubled": (
        Hypergraph(5, [(1,), (1,), (0, 1), (1, 2, 3), (3, 4)]),
        _rng.random((60, 5)),
    ),
}


@pytest.mark.parametrize("case", sorted(_EDGE_CASES))
@pytest.mark.parametrize("r", [2, 3, 4])
def test_engine_rows_on_edge_cases(case, r):
    """Rows for all-tied birth times, vertices in no edge and singleton
    edges with p set equal the scalar references. Positions and vertices
    differ in every non-identity order, so a count read at the wrong one
    shows here (the B/P/R columns at r = 2 read singletons per position).
    At r = 4 a singleton can end a chain after two middle steps."""
    h, block = _EDGE_CASES[case]
    p, ceiling = 0.4, 10**6
    engine = _engine(h, r, p, True, ceiling)
    rows = engine.run(block).tolist()
    assert rows == [_reference_row(h, row.tolist(), r, p, ceiling) for row in block]
    assert any(row[1] for row in rows)  # some trial has a conflicting pair


def test_engine_chains_match_filtered_enumeration():
    """The engine's chain column and ceiling flag equal a count over
    enumerate_chains kept where last(f_i) = first(f_{i+1}), with first and
    last read off the (time, index) order directly."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from hgcolor import enumerate_chains

    from conftest import hypergraphs_with_times

    @given(
        hypergraphs_with_times(),
        st.data(),
        st.sampled_from([2, 3, 4]),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=200, deadline=None)
    def check(hwt, data, r, ceiling):
        h, times = hwt
        v = h.vertex_count
        more = data.draw(st.lists(
            st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=v, max_size=v),
            max_size=3,
        ))
        block = np.array([times, *more], dtype=float).reshape(-1, v)
        engine = _engine(h, r, None, True, ceiling)
        chains = list(enumerate_chains(h, r))
        for row, got in zip(block.tolist(), engine.run(block).tolist()):
            def key(u):
                return row[u], u

            first = [min(e, key=key) for e in h.edges]
            last = [max(e, key=key) for e in h.edges]
            count = sum(
                all(last[a] == first[b] for a, b in zip(c.edges, c.edges[1:]))
                for c in chains
            )
            flag = int(count > ceiling)
            assert got[6:] == [0 if flag else count, flag]

    check()


@pytest.mark.parametrize("r", [3, 4])
def test_chain_rows_match_scalar_beyond_64_vertices(r):
    """On a large sparse instance (150 vertices, 400 3-edges), where most
    edges are disjoint and long chains exist, the walk counts, which never
    compare edges, match the scalar enumeration, which tests every earlier
    edge of a chain for a shared vertex."""
    from hgcolor import BirthTimeAssignment, conflicting_chains, gen_random_uniform
    from hgcolor.montecarlo import _TrialEngine

    h = gen_random_uniform(150, 3, 400, seed=2)
    block = np.random.default_rng(5).random((12, h.vertex_count))
    engine = _TrialEngine(h, r, None, count_chains=True)
    got = engine.run(block)[:, 6].tolist()
    want = [len(conflicting_chains(h, BirthTimeAssignment(row.tolist()), r)) for row in block]
    assert got == want
    assert min(want) > 0


@pytest.mark.parametrize("r", [3, 4])
def test_chain_count_independent_of_element_cap(monkeypatch, r):
    """Batches of one trial, or of a handful, give the report of the
    default batch size, also where the walk limit, lowered to 2, trips on
    some trials (the walk counts saturate per row, so a row's flag cannot
    depend on the rows beside it)."""
    from hgcolor import gen_random_uniform

    h = gen_random_uniform(60, 5, 300, seed=1)
    engines = [montecarlo._TrialEngine, _ceiling_engine(1)]

    def reports():
        out = []
        for engine in engines:
            with monkeypatch.context() as patch:
                patch.setattr(montecarlo, "_TrialEngine", engine)
                out.append(monte_carlo(h, r, 24, seed=14, count_chains=True))
        return out

    want = reports()
    if r == 3:
        assert want[0].total_conflicting_chains > 0
        assert 0 < want[1].chain_ceiling_trials < 24
    # (on this instance nearly every two edges meet, so 4-chains hardly ever
    # exist)
    for elements in (1, 300):
        monkeypatch.setattr(montecarlo, "_BATCH_ELEMENTS", elements)
        assert reports() == want


def test_chain_counts_on_complete_graphs_have_a_closed_form():
    """In K_V every order has exactly C(V, r + 1) conflicting r-chains: a
    chain is an increasing path through r + 1 vertices in processing order,
    one for each set of r + 1 vertices. At r = 10 on K_60 each trial counts
    C(60, 11), about 3.4e11, inside the engine's exact range; on K_12 the
    rows also match the scalar enumeration at r = 2..5."""
    from hgcolor import BirthTimeAssignment, conflicting_chains
    from hgcolor.montecarlo import _Column, _TrialEngine

    rep = monte_carlo(gen_complete_uniform(60, 2), 10, 3, 0, count_chains=True)
    assert rep.total_conflicting_chains == 3 * comb(60, 11) == 1_028_100_375_900
    assert rep.chain_ceiling_trials == 0
    h = gen_complete_uniform(12, 2)
    block = np.random.default_rng(3).random((6, 12))
    for r in (2, 3, 4, 5):
        engine = _TrialEngine(h, r, None, count_chains=True)
        got = engine.run(block)[:, _Column.CHAINS].tolist()
        want = [len(conflicting_chains(h, BirthTimeAssignment(row.tolist()), r))
                for row in block]
        assert got == want == [comb(12, r + 1)] * len(block)


def test_chain_count_past_int64_is_flagged():
    """K_100 has C(100, 31), about 6.6e25, conflicting 30-chains in every
    order, past int64 and past the engine's exact range, about 1.9e15 here.
    The count is never wrapped: every trial is flagged and counts 0."""
    h = gen_complete_uniform(100, 2)
    assert comb(100, 31) > 2**63 > montecarlo._TrialEngine(h, 30, None, True).walk_limit
    rep = monte_carlo(h, 30, 4, 0, count_chains=True)
    assert rep.chain_ceiling_trials == 4
    assert rep.total_conflicting_chains == 0
    assert rep.mean_conflicting_chains is None


def test_chain_totals_past_int64_are_exact():
    """Each trial on K_56 at r = 24 counts C(56, 25), about 5.6e15, inside
    the engine's exact range (below its walk_limit of about 6.0e15);
    1,700 trials sum past 2^63, and the total stays exact."""
    h = gen_complete_uniform(56, 2)
    assert comb(56, 25) < montecarlo._TrialEngine(h, 24, None, True).walk_limit
    rep = monte_carlo(h, 24, 1700, 0, count_chains=True)
    assert rep.total_conflicting_chains == 1700 * comb(56, 25) > 2**63
    assert rep.chain_ceiling_trials == 0


@pytest.mark.parametrize("r", [61, 62, 63, 64, 100])
def test_success_exact_beyond_one_word_of_colors(r):
    """The sweep stays exact on both sides of the int64 codes' limit of 62
    colors: complete graphs need exactly as many colors as vertices, and
    K_66 without four edges needs 62 to 66 depending on the order."""
    from hgcolor.greedy import greedy_succeeds

    pairs = [(u, v) for u in range(66) for v in range(u + 1, 66)]
    drop = set(np.random.default_rng(5).choice(len(pairs), 4, replace=False).tolist())
    near = Hypergraph(66, [e for i, e in enumerate(pairs) if i not in drop])
    for h in [gen_complete_uniform(k, 2) for k in (62, 63, 64, 65, 101)] + [near]:
        trials, seed = 12, 11
        want = sum(
            greedy_succeeds(h, np.argsort(
                np.random.default_rng([seed, i]).random(h.vertex_count), kind="stable"
            ).tolist(), r)
            for i in range(trials)
        )
        rep = monte_carlo(h, r, trials, seed)
        assert rep.successes == want


def test_colors_past_the_largest_degree_change_nothing():
    """No vertex is forced once r passes the largest degree, so a call at
    r = 10**12 returns, and its report is the one at the largest degree + 1
    (the instance is not uniform, so no p sets an r-dependent span)."""
    from dataclasses import replace

    h = Hypergraph(7, [(0, 1), (0, 2, 3), (1, 2, 4), (0, 4, 5, 6), (2, 3), (0, 5)])
    degree = max(map(len, h.incidence))
    rep = monte_carlo(h, 10**12, 40, 13)
    assert rep.successes == 40
    assert replace(rep, r=degree + 1) == monte_carlo(h, degree + 1, 40, 13)


@pytest.mark.parametrize("r, chains", [(10, 1), (11, 0), (10**12, 0)])
def test_chain_walks_stop_once_none_is_left(r, chains):
    """Closing positions rise along a walk, so no walk has more than V
    edges and the chain count at r = 10**12 is 0 at once; on a path of ten
    2-edges colored in path order the one 10-chain is still counted."""
    from hgcolor.montecarlo import _Column, _TrialEngine

    h = Hypergraph(11, [(v, v + 1) for v in range(10)])
    engine = _TrialEngine(h, r, None, count_chains=True)
    block = np.linspace(0.0, 1.0, 11)[None, :]
    assert engine.run(block)[:, _Column.CHAINS].tolist() == [chains]
    rep = monte_carlo(gen_fano(), r, 2000, 1, count_chains=True)
    assert rep.total_conflicting_chains == 0 and rep.chain_ceiling_trials == 0


def _success_rows(h, r, block, chains=False, ceiling=None):
    """The engine's success column for the rows of `block`, and
    greedy_succeeds on each row's birth-time order. With chains the engine
    sweeps only the rows with a chain or a flag (past `ceiling`, if given)."""
    from hgcolor.greedy import greedy_succeeds
    from hgcolor.montecarlo import _Column

    engine = _engine(h, r, None, chains, ceiling)
    got = engine.run(block)[:, _Column.SUCCESS].tolist()
    want = [int(greedy_succeeds(h, np.argsort(row, kind="stable").tolist(), r)) for row in block]
    return got, want


@pytest.mark.parametrize(
    "instance, r",
    [((60, 5, 300), 2), ((40, 8, 200), 2), ((40, 8, 200), 3), ((400, 10, 600), 2),
     ((200, 10, 1500), 2)],
)
def test_success_rows_match_scalar(instance, r):
    """Row by row, the closing-edge sweep agrees with greedy_succeeds, also
    where nearly every row fails (the first instance at r = 2), where few
    rows have the forced-vertex certificate (the fourth) and where some
    rows with it fail (the last), so the rows without it are the ones left
    unswept."""
    h = gen_random_uniform(*instance, seed=1)
    block = np.random.default_rng(8).random((150, h.vertex_count))
    got, want = _success_rows(h, r, block)
    assert got == want
    if instance == (60, 5, 300):
        assert sum(want) < 0.1 * len(want)
    if instance == (200, 10, 1500):
        assert 0 < len(want) - sum(want) < 0.1 * len(want)


@pytest.mark.parametrize(
    "instance, r", [((60, 5, 300), 3), ((200, 10, 1500), 2), ((30, 4, 200), 3)]
)
def test_success_rows_with_chains_match_scalar(instance, r):
    """With chains counted the sweep runs only on rows with a conflicting
    r-chain. Every failed row of the last two instances has one, and some
    have no (r + 1)-chain, so a filter one step too long shows here."""
    h = gen_random_uniform(*instance, seed=1)
    block = np.random.default_rng(8).random((150, h.vertex_count))
    got, want = _success_rows(h, r, block, chains=True)
    assert got == want
    if r == 2 or instance == (30, 4, 200):
        assert 0 < sum(want) < len(want)


@pytest.mark.parametrize("instance, r, ceiling", [((60, 5, 300), 2, 20), ((20, 3, 100), 3, 10)])
def test_success_rows_past_the_chain_ceiling_are_swept(instance, r, ceiling):
    """A row past the chain ceiling (the walk limit, lowered) counts 0
    chains but has more than the ceiling, so it is swept too: here failed
    rows are among the flagged."""
    from hgcolor.montecarlo import _Column

    h = gen_random_uniform(*instance, seed=1)
    block = np.random.default_rng(8).random((150, h.vertex_count))
    got, want = _success_rows(h, r, block, chains=True, ceiling=ceiling)
    assert got == want
    rows = _engine(h, r, None, True, ceiling).run(block)
    flagged = rows[:, _Column.CEILING] == 1
    assert 0 < flagged.sum() < len(block)
    assert not all(np.array(want)[flagged])


def test_stages_compose_on_the_rows_that_can_fail():
    """The rows of a batch that run hands its sweep, stacked as a batch of
    their own, get run's success column from _positions -> _edge_positions
    -> _succeeds alone: the sweep reads no row outside those it is given,
    and a row's ranks do not depend on where it sits in a batch. Ties come
    from a coarse grid of times, singleton edges from the first strategy,
    and rows that fail without one mostly from the denser second."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from hgcolor.montecarlo import _Column

    from conftest import hypergraphs_with_times

    @given(
        st.one_of(
            hypergraphs_with_times(),
            hypergraphs_with_times(max_vertices=6, max_edges=16, min_edge_size=2, max_edge_size=3),
        ),
        st.data(),
        st.sampled_from([2, 3, 4]),
        st.booleans(),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=150, deadline=None)
    def check(hwt, data, r, count_chains, ceiling):
        h, times = hwt
        v = h.vertex_count
        time = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0, allow_nan=False))
        more = data.draw(st.lists(st.lists(time, min_size=v, max_size=v), max_size=10))
        block = np.array([times, *more], dtype=float).reshape(-1, v)
        engine = _engine(h, r, None, count_chains, ceiling)
        swept = _swept_rows(engine)
        success = engine.run(block)[:, _Column.SUCCESS]
        (can_fail,) = swept
        stacked = block[can_fail]
        position, _ = engine._positions(stacked)
        edge_pos, _, closing = engine._edge_positions(position)
        got = engine._succeeds(edge_pos, closing, np.arange(len(stacked)))
        assert np.broadcast_to(got, len(stacked)).tolist() == success[can_fail].astype(bool).tolist()

    check()


def test_rows_without_the_certificate_succeed():
    """Without chains the engine sweeps only the rows with the forced-vertex
    certificate, and its success column is greedy_succeeds on every row:
    over instances without a singleton edge, with padded edges from mixed
    edge sizes, ties from a coarse grid of times and r = 2, 3, 4. Across the
    examples some rows with a pair lack the certificate and are left
    unswept, so the filter is not the pair filter."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from hgcolor.greedy import greedy_succeeds
    from hgcolor.montecarlo import _Column

    from conftest import hypergraphs

    dropped = []

    @given(
        hypergraphs(max_vertices=7, max_edges=14, min_edge_size=2, max_edge_size=4),
        st.data(),
        st.sampled_from([2, 3, 4]),
    )
    @settings(max_examples=200, deadline=None)
    def check(h, data, r):
        v = h.vertex_count
        time = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0, allow_nan=False))
        block = np.array(
            data.draw(st.lists(st.lists(time, min_size=v, max_size=v), min_size=1, max_size=10)), dtype=float
        )
        engine = _engine(h, r, None, False)
        swept = _swept_rows(engine)
        rows = engine.run(block)
        want = [int(greedy_succeeds(h, np.argsort(row, kind="stable").tolist(), r)) for row in block]
        assert rows[:, _Column.SUCCESS].tolist() == want
        dropped.append(len(np.setdiff1d(np.flatnonzero(rows[:, _Column.PAIRS]), swept[0])))

    check()
    assert sum(dropped) > 0


@pytest.mark.parametrize("r", [2, 3])
def test_success_rows_where_padding_is_the_closing_vertex(r):
    """edge_matrix pads a short edge with its first vertex. Vertex 0 comes
    last here, so it closes every edge it is in, padding included, and the
    padded columns must read as uncolored."""
    h = Hypergraph(7, [(0, 1), (0, 2, 3), (1, 2, 4, 5, 6), (2, 3), (0, 4, 5, 6)])
    block = np.random.default_rng(9).random((300, 7))
    block[:, 0] = 1.0
    got, want = _success_rows(h, r, block)
    assert got == want
    if r == 2:
        assert 0 < sum(want) < len(want)


def test_success_rows_beyond_16_bit_positions():
    """Past 2^15 vertices the closing positions no longer fit 16-bit sort
    keys; the sweep must still process them in order."""
    outcomes = []
    for instance in [(60, 5, 300), (40, 8, 200)]:
        small = gen_random_uniform(*instance, seed=1)
        h = Hypergraph(36_000, [tuple(900 * v % 35_999 for v in e) for e in small.edges])
        block = np.random.default_rng(10).random((6, h.vertex_count))
        got, want = _success_rows(h, 2, block)
        assert got == want
        outcomes += want
    assert 0 < sum(outcomes) < len(outcomes)


def test_success_rows_mixing_words_in_one_edge():
    """Past the int64 codes, an edge whose other vertices have colors 1 and
    67 (codes 1 and 1 << 66) blocks nothing. K_67 on vertices 0..66 gives
    vertex 66 color 67 when it comes last; vertex 67 then finds colors
    1..66 blocked by its pairs, and its triple (0, 66, 67) must leave it
    color 67."""
    clique = [(u, v) for u in range(67) for v in range(u + 1, 67)]
    h = Hypergraph(68, clique + [(v, 67) for v in range(66)] + [(0, 66, 67)])
    block = np.random.default_rng(12).random((20, 68))
    block[0] = np.arange(68) / 68
    for r in (66, 67, 68):
        got, want = _success_rows(h, r, block)
        assert got == want
        assert want[0] == (r >= 67)


@pytest.mark.parametrize("r", [2, 70])
def test_success_without_edges_and_with_a_singleton(r):
    """No edges: every row succeeds. An edge of one vertex blocks every
    color, so every row fails, whatever else the instance holds."""
    block = np.random.default_rng(11).random((5, 4))
    assert _success_rows(Hypergraph(4, []), r, block) == ([1] * 5, [1] * 5)
    h = Hypergraph(4, [(0, 1), (2,), (1, 2, 3)])
    assert _success_rows(h, r, block) == ([0] * 5, [0] * 5)
    assert _success_rows(h, r, block, chains=True, ceiling=10) == ([0] * 5, [0] * 5)


def test_instance_without_vertices():
    """Nothing to color: every trial succeeds, with nothing counted."""
    rep = monte_carlo(Hypergraph(0, []), 2, 5, 1, count_chains=True)
    assert (rep.successes, rep.trials) == (5, 5)
    assert rep.total_conflicting_pairs == rep.total_conflicting_chains == 0


# (instance, r, count_chains, trials, seed) -> (successes, pairs, short
# edges, B/P/R, chains, ceiling trials), as computed before the engine
# moved to processing positions: the mc_paper benchmark instance at r = 2,
# the mc_chains instance at r = 3 with chains, and the latter at r = 2,
# where most trials fail
_REPORT_PINS = [
    (((200, 10, 1500), 2, False, 40, 21), (40, 31, 4, (0, 31, 0), None, 0)),
    (((60, 5, 300), 3, True, 80, 23), (80, 3504, 27, None, 54, 0)),
    (((60, 5, 300), 2, False, 60, 24), (3, 2683, 81, (68, 2584, 31), None, 0)),
]


@pytest.mark.parametrize("call, want", _REPORT_PINS)
@pytest.mark.parametrize("workers", [1, 2])
def test_pinned_reports(call, want, workers):
    instance, r, count_chains, trials, seed = call
    h = gen_random_uniform(*instance, seed=1)
    rep = monte_carlo(h, r, trials, seed, count_chains=count_chains, workers=workers)
    assert (
        rep.successes, rep.total_conflicting_pairs, rep.total_short_edges,
        rep.interval_counts, rep.total_conflicting_chains, rep.chain_ceiling_trials,
    ) == want


def test_report_independent_of_batch_split(monkeypatch):
    """A call whose trials cross the batch cap, at a count that is not a
    multiple of it, equals the same call split over two workers and the
    same call run one trial per batch."""
    from hgcolor import gen_random_uniform
    from hgcolor.montecarlo import _TrialEngine

    h = gen_random_uniform(40, 8, 200, seed=1)
    batch = _TrialEngine(h, 2, None, False).batch
    trials = 2 * batch + 3
    serial = monte_carlo(h, 2, trials, seed=12)
    assert serial == monte_carlo(h, 2, trials, seed=12, workers=2)
    monkeypatch.setattr(montecarlo, "_BATCH_ELEMENTS", 1)
    assert _TrialEngine(h, 2, None, False).batch == 1
    assert serial == monte_carlo(h, 2, trials, seed=12)


def test_pool_under_spawn_matches_serial(monkeypatch, fano):
    """Workers started by spawn (no inherited memory) give the same report."""
    import multiprocessing as mp

    # batches of 28 trials, so the call spans three batches
    monkeypatch.setattr(montecarlo, "_BATCH_ELEMENTS", 21 * 28)
    serial = monte_carlo(fano, 3, 60, seed=13, count_chains=True)
    pools = count_pools(monkeypatch, mp.get_context("spawn"))
    assert monte_carlo(fano, 3, 60, seed=13, count_chains=True, workers=2) == serial
    assert pools == [2]


def test_pool_context_falls_back_without_fork(monkeypatch):
    import multiprocessing as mp

    assert montecarlo._pool_context().get_start_method() in mp.get_all_start_methods()
    monkeypatch.setattr(mp, "get_all_start_methods", lambda: ["spawn"])
    assert montecarlo._pool_context() is mp.get_context()


# Trial i's stream is default_rng([seed, i]); _trial_generators loads its
# PCG64 state instead of building that object. Seeds of one word to five
# (past four, the hash mixes in the extra words), and index ranges whose i
# gain a word: at 2^32 and at 2^64.
_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**40 + 3, 2**130 + 7]
_STARTS = [0, 2**32 - 3, 2**64 - 3]


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("start", _STARTS)
def test_trial_generators_draw_default_rng_streams(seed, start):
    stop = start + 6
    for i, gen in zip(range(start, stop), montecarlo._trial_generators(seed, start, stop), strict=True):
        assert np.array_equal(gen.random(11), np.random.default_rng([seed, i]).random(11)), i


@pytest.mark.parametrize("seed", [0, 2**130 + 7])
def test_trial_generators_reset_the_32_bit_buffer(seed):
    """choice and permutation draw 32-bit halves of 64-bit outputs and
    keep the spare one; a loaded trial starts with none, as a fresh
    generator does."""
    for i, gen in zip(range(40), montecarlo._trial_generators(seed, 0, 40), strict=True):
        ref = np.random.default_rng([seed, i])
        for size in (1, 2, 3):
            assert np.array_equal(gen.choice(5, size=size, replace=False),
                                  ref.choice(5, size=size, replace=False)), (i, size)
        assert np.array_equal(gen.permutation(7), ref.permutation(7)), i


def test_trial_generators_match_default_rng():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    near = lambda x: st.integers(max(0, x - 20), x + 20)  # noqa: E731

    @given(
        # seed and index words past 15 outgrow the hash constants kept at import
        seed=st.one_of(st.integers(0, 2**32 + 5), st.integers(0, 2**600)),
        start=st.one_of(near(0), near(2**32), near(2**64), st.integers(0, 2**96)),
        count=st.integers(0, 30),
        chunk=st.integers(1, 8),
    )
    @settings(max_examples=120, deadline=None)
    def check(seed, start, count, chunk):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "_SEED_CHUNK", chunk)
            got = [gen.random(3) for gen in montecarlo._trial_generators(seed, start, start + count)]
        assert len(got) == count
        for i, row in enumerate(got, start=start):
            assert np.array_equal(row, np.random.default_rng([seed, i]).random(3)), i

    check()


def test_run_range_across_two_to_the_32():
    """A range of trials whose index gains a word counts what the engine
    counts on the rows of default_rng([seed, i])."""
    from hgcolor.montecarlo import _run_range, _TrialEngine

    h = gen_random_uniform(60, 5, 300, seed=1)
    engine = _TrialEngine(h, 3, reference_p(5), True)
    start, stop = 2**32 - 3, 2**32 + 4
    times = np.array([np.random.default_rng([12, i]).random(h.vertex_count) for i in range(start, stop)])
    assert _run_range(engine, 12, start, stop) == tuple(engine.run(times).sum(axis=0).tolist())


def test_any_conflicting_pair_probability_below_optimized_bound():
    """On a random n-uniform instance with k 2^(n-1) edges, the chance that
    any conflicting pair exists stays below the optimized two-color bound
    (its 99% Wilson lower end must not refute the bound)."""
    from hgcolor import BirthTimeAssignment, conflicting_pairs, gen_random_uniform
    from hgcolor.bounds import min_two_color_bound

    rng = np.random.default_rng(1234)
    for n, k, m in [(8, 0.5, 40), (6, 1.0, 24), (10, 2.0, 64)]:
        edge_count = int(k * 2 ** (n - 1))
        h = gen_random_uniform(m, n, edge_count, seed=n)
        bound = min_two_color_bound(k, n)
        trials = 2000
        hits = 0
        for _ in range(trials):
            t = BirthTimeAssignment(rng.random(m).tolist())
            if conflicting_pairs(h, t):
                hits += 1
        lo, _hi = wilson_interval(hits, trials, Z99)
        assert lo <= bound, (n, k, hits / trials, bound)


def test_conditional_pair_expectation_bound():
    """Conditioned on a fixed edge's last vertex landing near (1-p)/2, the
    mean number of conflicting pairs led by that edge stays below
    (edge_count/n) ((1+p)/2)^(n-1), with slack for the window width.
    """
    n = 5
    rng = np.random.default_rng(20240810)
    # star: 20 edges sharing exactly vertex 0 with the distinguished edge
    base = tuple(range(n))  # edge 0: vertices 0..4
    edges = [base]
    v = n
    for _ in range(20):
        edges.append((0,) + tuple(range(v, v + n - 1)))
        v += n - 1
    h = Hypergraph(v, edges)
    p = 2 * np.log(n) / n
    tau = (1 - p) / 2
    m = len(edges)
    bound = (m / n) * ((1 + p) / 2) ** (n - 1)

    # exact conditioning: given the maximum of the base edge equals tau,
    # the maximizing vertex is uniform over the edge and the remaining
    # base vertices are iid uniform on [0, tau)
    samples = 40_000
    total_pairs = 0
    for _ in range(samples):
        times = rng.random(v)
        last_idx = int(rng.integers(n))
        for u in base:
            times[u] *= tau
        times[base[last_idx]] = tau
        if base[last_idx] != 0:
            continue  # pairs (e, f) need the shared vertex to be last of e
        for f in edges[1:]:
            if all(times[u] > tau for u in f[1:]):
                total_pairs += 1
    mean = total_pairs / samples
    assert mean <= bound * 1.1
