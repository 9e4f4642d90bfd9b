import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from hgcolor import (
    BirthTimeAssignment,
    ChainCeilingError,
    Hypergraph,
    IntervalPartition,
    classify_conflicts_by_interval,
    conflicting_chains,
    conflicting_pairs,
    dangerous_pairs,
    edge_length,
    enumerate_chains,
    first_last,
    greedy_color,
    is_proper,
    short_edges,
)
from hgcolor.conflicts import link_interval_bounds
from hgcolor.greedy import greedy_succeeds

from conftest import hypergraphs, hypergraphs_with_times


class TestFirstLast:
    def test_basic(self):
        t = BirthTimeAssignment([0.3, 0.1, 0.9])
        assert first_last((0, 1, 2), t) == (1, 2)

    def test_singleton(self):
        t = BirthTimeAssignment([0.0] * 6)
        assert first_last((5,), t) == (5, 5)

    def test_index_tie_break(self):
        t = BirthTimeAssignment([0.5, 0.5])
        assert first_last((0, 1), t) == (0, 1)

    def test_empty_edge(self):
        with pytest.raises(ValueError):
            first_last((), BirthTimeAssignment([0.5]))


class TestDangerousPairs:
    def test_disjoint(self):
        assert dangerous_pairs(Hypergraph(4, [(0, 1), (2, 3)])) == []

    def test_triangle(self, triangle):
        assert len(dangerous_pairs(triangle)) == 6

    def test_two_common_vertices(self):
        assert dangerous_pairs(Hypergraph(4, [(0, 1, 2), (0, 1, 3)])) == []

    def test_fano(self, fano):
        assert len(dangerous_pairs(fano)) == 42


class TestConflictingPairs:
    def test_shared_vertex_last_then_first(self):
        h = Hypergraph(5, [(0, 1, 2), (2, 3, 4)])
        t = BirthTimeAssignment([0.1, 0.2, 0.5, 0.6, 0.7])
        assert conflicting_pairs(h, t) == [(0, 1)]

    def test_shared_vertex_not_first(self):
        h = Hypergraph(5, [(0, 1, 2), (2, 3, 4)])
        t = BirthTimeAssignment([0.1, 0.2, 0.5, 0.3, 0.4])
        assert conflicting_pairs(h, t) == []

    def test_disjoint(self):
        h = Hypergraph(4, [(0, 1), (2, 3)])
        t = BirthTimeAssignment([0.1, 0.2, 0.3, 0.4])
        assert conflicting_pairs(h, t) == []


@given(hypergraphs_with_times())
@settings(max_examples=120)
def test_conflicting_subset_of_dangerous(hwt):
    h, times = hwt
    t = BirthTimeAssignment(times)
    dangerous = set(dangerous_pairs(h))
    for pair in conflicting_pairs(h, t):
        assert pair in dangerous


class TestEnumerateChains:
    def test_single_edge_r2(self):
        assert list(enumerate_chains(Hypergraph(3, [(0, 1, 2)]), 2)) == []

    def test_triangle_r2_matches_dangerous(self, triangle):
        chains = list(enumerate_chains(triangle, 2))
        assert len(chains) == 6
        assert {tuple(c.edges) for c in chains} == set(dangerous_pairs(triangle))

    def test_fano_r2(self, fano):
        assert sum(1 for _ in enumerate_chains(fano, 2)) == 42

    def test_chain_conditions_hold(self, fano):
        sets = fano.edge_sets
        for chain in enumerate_chains(fano, 2):
            i, j = chain.edges
            assert len(sets[i] & sets[j]) == 1
            assert sets[i] & sets[j] == {chain.links[0]}

    def test_three_chain_structure(self):
        h = Hypergraph(7, [(0, 1, 2), (2, 3, 4), (4, 5, 6)])
        chains = list(enumerate_chains(h, 3))
        assert {tuple(c.edges) for c in chains} == {(0, 1, 2), (2, 1, 0)}
        for c in chains:
            assert len(c.links) == 2

    def test_nonconsecutive_disjointness_enforced(self, fano):
        # every two Fano lines meet, so no 3-chain can exist
        assert list(enumerate_chains(fano, 3)) == []

    @pytest.mark.parametrize(
        "chains, c",
        [
            pytest.param(lambda h, ceiling: list(enumerate_chains(h, 2, ceiling)), 42, id="enumerate"),
            # this order makes 2 of Fano's 42 dangerous pairs conflicting
            pytest.param(
                lambda h, ceiling: conflicting_chains(
                    h, BirthTimeAssignment([0.0, 0.1, 0.2, 0.4, 0.5, 0.3, 0.6]), 2, ceiling
                ),
                2,
                id="conflicting",
            ),
        ],
    )
    def test_ceiling_is_loud(self, fano, chains, c):
        """Both scalar references walk chains the same way and share its
        ceiling rule: all c chains at ceiling c, a ChainCeilingError at c - 1."""
        assert len(chains(fano, c)) == c
        with pytest.raises(ChainCeilingError):
            chains(fano, c - 1)

    def test_more_edges_than_the_instance_holds(self, fano):
        """A chain's edges are distinct, so none has more than m of them;
        both references answer at once, as the trial engine does."""
        t = BirthTimeAssignment([0.0, 0.1, 0.2, 0.4, 0.5, 0.3, 0.6])
        assert list(enumerate_chains(fano, 8)) == []
        assert list(enumerate_chains(fano, 10**12)) == []
        assert conflicting_chains(fano, t, 10**12) == []

    def test_no_duplicates(self, triangle):
        chains = [tuple(c.edges) for c in enumerate_chains(triangle, 2)]
        assert len(chains) == len(set(chains))


class TestConflictingChains:
    def test_no_dangerous_pairs_no_chains(self):
        h = Hypergraph(4, [(0, 1), (2, 3)])
        t = BirthTimeAssignment([0.1, 0.2, 0.3, 0.4])
        assert conflicting_chains(h, t, 2) == []

    def test_increasing_path_conflicts(self):
        h = Hypergraph(7, [(0, 1, 2), (2, 3, 4), (4, 5, 6)])
        t = BirthTimeAssignment([i / 10 for i in range(7)])
        chains = conflicting_chains(h, t, 3)
        assert len(chains) == 1
        assert chains[0].edges == (0, 1, 2)
        assert chains[0].links == (2, 4)

    def test_reversed_path_flips_the_chain(self):
        # reversing time makes the forward chain non-conflicting (last of
        # edge 0 is vertex 0, unshared) while the reversed ordering of the
        # same edges becomes conflicting
        h = Hypergraph(7, [(0, 1, 2), (2, 3, 4), (4, 5, 6)])
        t = BirthTimeAssignment([(6 - i) / 10 for i in range(7)])
        chains = conflicting_chains(h, t, 3)
        assert [c.edges for c in chains] == [(2, 1, 0)]

    @given(hypergraphs_with_times(max_vertices=6, max_edges=6), st.integers(2, 3))
    @settings(max_examples=100)
    def test_equals_filtered_enumeration(self, hwt, r):
        h, times = hwt
        t = BirthTimeAssignment(times)
        firsts_lasts = [first_last(e, t) if e else None for e in h.edges]

        def is_conflicting(chain):
            for a, b in zip(chain.edges, chain.edges[1:]):
                if firsts_lasts[a][1] != firsts_lasts[b][0]:
                    return False
            return True

        expected = [c for c in enumerate_chains(h, r) if is_conflicting(c)]
        got = conflicting_chains(h, t, r)
        assert sorted(c.edges for c in got) == sorted(c.edges for c in expected)

    @given(hypergraphs_with_times(max_vertices=7, max_edges=7))
    @settings(max_examples=100)
    def test_two_chains_coincide_with_pairs(self, hwt):
        h, times = hwt
        t = BirthTimeAssignment(times)
        chains = {tuple(c.edges) for c in conflicting_chains(h, t, 2)}
        assert chains == set(conflicting_pairs(h, t))


class TestEdgeLengthAndShort:
    def test_length(self):
        t = BirthTimeAssignment([0.1, 0.4, 0.9])
        assert edge_length((0, 1, 2), t) == pytest.approx(0.8)

    def test_singleton_zero(self):
        assert edge_length((3,), BirthTimeAssignment([0, 0, 0, 0.7])) == 0.0

    def test_equal_times_zero(self):
        assert edge_length((0, 1), BirthTimeAssignment([0.5, 0.5])) == 0.0

    def test_short_threshold(self):
        h = Hypergraph(3, [(0, 1, 2)])
        t = BirthTimeAssignment([0.1, 0.2, 0.3])
        assert short_edges(h, t, 2, 0.5) == [0]  # length 0.2 < 0.25

    def test_not_short(self):
        h = Hypergraph(3, [(0, 1, 2)])
        t = BirthTimeAssignment([0.1, 0.2, 0.4])
        assert short_edges(h, t, 2, 0.5) == []  # length 0.3 >= 0.25

    def test_p_near_one_kills_threshold(self):
        h = Hypergraph(3, [(0, 1, 2)])
        t = BirthTimeAssignment([0.1, 0.2, 0.3])
        assert short_edges(h, t, 2, 1.0 - 1e-9) == []


class TestIntervalClassification:
    def test_no_pairs(self):
        h = Hypergraph(4, [(0, 1), (2, 3)])
        t = BirthTimeAssignment([0.1, 0.2, 0.3, 0.4])
        counts = classify_conflicts_by_interval(h, t, IntervalPartition(0.4))
        assert (counts.b, counts.p, counts.r) == (0, 0, 0)

    def test_pair_in_middle_interval(self):
        h = Hypergraph(3, [(0, 1), (1, 2)])
        t = BirthTimeAssignment([0.1, 0.5, 0.9])
        counts = classify_conflicts_by_interval(h, t, IntervalPartition(0.4))
        assert (counts.b, counts.p, counts.r) == (0, 1, 0)

    def test_pair_in_low_interval(self):
        h = Hypergraph(3, [(0, 1), (1, 2)])
        t = BirthTimeAssignment([0.05, 0.1, 0.9])
        counts = classify_conflicts_by_interval(h, t, IntervalPartition(0.4))
        assert (counts.b, counts.p, counts.r) == (1, 0, 0)

    @given(hypergraphs_with_times())
    @settings(max_examples=80)
    def test_counts_sum_to_total(self, hwt):
        h, times = hwt
        t = BirthTimeAssignment(times)
        counts = classify_conflicts_by_interval(h, t, IntervalPartition(0.3))
        assert counts.total == len(conflicting_pairs(h, t))

    def test_partition_covers_unit_interval(self):
        part = IntervalPartition(0.4)
        assert part.locate(0.0) == "B"
        assert part.locate(0.3) == "P"  # half-open boundary
        assert part.locate(0.7) == "R"
        assert part.locate(1.0) == "R"
        assert part.hi - part.lo == pytest.approx(0.4)


@given(
    hypergraphs_with_times(max_vertices=8, max_edges=8, min_edge_size=2),
    st.integers(2, 3),
)
@settings(max_examples=150)
def test_chain_detection_explains_greedy_failures(hwt, r):
    """Empty conflict set implies a proper trace; every monochromatic edge
    closes some conflicting chain; links of unshortened chains sit in their
    prescribed intervals. (Needs edge sizes >= 2: a singleton edge fails
    with no chain to blame.)"""
    h, times = hwt
    t = BirthTimeAssignment(times)
    chains = conflicting_chains(h, t, r)
    trace = greedy_color(h, t, r)
    ok, mono = is_proper(h, trace.coloring)
    if not chains:
        assert ok
    last_edges = {c.edges[-1] for c in chains}
    for ei in mono:
        assert ei in last_edges
    p = 0.3
    short = set(short_edges(h, t, r, p))
    for chain in chains:
        if short.isdisjoint(chain.edges):
            for i, x in enumerate(chain.links, start=1):
                lo, hi = link_interval_bounds(i, r, p)
                assert lo <= t[x] <= hi


def _forced_vertex_certificate(h, order, r):
    """An edge e with meets[e] > 0, at least r edges closing at e's closing
    position and at least r - 1 at each of its vertices (the certificate
    in the conflicts module docstring)."""
    pos = {v: i for i, v in enumerate(order)}
    firsts = [min(e, key=pos.__getitem__) for e in h.edges]
    lasts = [max(e, key=pos.__getitem__) for e in h.edges]
    closing = [lasts.count(v) for v in range(h.vertex_count)]
    return any(
        closing[first] > 0 and closing[last] >= r and all(closing[u] >= r - 1 for u in e)
        for e, first, last in zip(h.edges, firsts, lasts)
    )


@given(
    hypergraphs(max_vertices=7, max_edges=14, min_edge_size=2, max_edge_size=4),
    st.integers(2, 4),
    st.booleans(),
    st.data(),
)
@settings(max_examples=300)
def test_failed_runs_have_the_forced_vertex_certificate(h, r, tied, data):
    # half the runs draw birth times from three values, so the processing
    # order often breaks ties by vertex index
    times = st.sampled_from([0.0, 0.5, 1.0]) if tied else st.floats(0.0, 1.0)
    t = BirthTimeAssignment(data.draw(st.lists(times, min_size=h.vertex_count, max_size=h.vertex_count)))
    order = t.order()
    failed = not greedy_succeeds(h, order, r)
    event(f"greedy failed: {failed}")
    if failed:
        assert _forced_vertex_certificate(h, order, r)
