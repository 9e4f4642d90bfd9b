from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgcolor import (
    BirthTimeAssignment,
    Hypergraph,
    equitable_partition_color,
    greedy_color,
    greedy_color_by_permutation,
    is_proper,
    sample_birth_times,
    two_phase_color,
)
from hgcolor.greedy import greedy_succeeds

from conftest import hypergraphs_with_times

PATH = Hypergraph(3, [(0, 1), (1, 2)])


class TestSampleBirthTimes:
    def test_empty(self):
        assert len(sample_birth_times(0, 0)) == 0

    def test_deterministic(self):
        assert sample_birth_times(50, 123) == sample_birth_times(50, 123)

    def test_uniform_mean(self):
        t = sample_birth_times(10_000, 7)
        assert 0.49 <= np.mean(t.times) <= 0.51

    def test_range(self):
        t = sample_birth_times(1000, 99)
        assert all(0.0 <= x <= 1.0 for x in t.times)


class TestGreedyColor:
    def test_single_edge_last_vertex_blocked(self):
        h = Hypergraph(3, [(0, 1, 2)])
        t = BirthTimeAssignment([0.5, 0.2, 0.8])
        trace = greedy_color(h, t, 2)
        assert is_proper(h, trace.coloring)[0]
        # only the birth-time-last vertex (2) is denied color 1
        assert trace.coloring.colors == (1, 1, 2)
        assert trace.forced_vertices == ()

    def test_path_hand_simulation(self):
        t = BirthTimeAssignment([0.1, 0.5, 0.9])
        trace = greedy_color(PATH, t, 2)
        assert trace.coloring.colors == (1, 2, 1)
        assert is_proper(PATH, trace.coloring)[0]

    def test_triangle_forced(self, triangle):
        t = BirthTimeAssignment([0.1, 0.2, 0.3])
        trace = greedy_color(triangle, t, 2)
        assert trace.coloring.colors == (1, 2, 2)
        ok, mono = is_proper(triangle, trace.coloring)
        assert not ok and mono == [1]  # edge {1,2}
        assert trace.forced_vertices == (2,)

    def test_missing_time_rejected(self, triangle):
        with pytest.raises(ValueError):
            greedy_color(triangle, BirthTimeAssignment([0.1, 0.2]), 2)

    def test_determinism(self, fano):
        t = sample_birth_times(7, 5)
        assert greedy_color(fano, t, 2) == greedy_color(fano, t, 2)


class TestGreedyByPermutation:
    def test_matches_birth_time_order(self, fano):
        t = sample_birth_times(7, 11)
        assert greedy_color(fano, t, 2) == greedy_color_by_permutation(
            fano, t.order(), 2
        )

    def test_single_edge_order(self):
        h = Hypergraph(3, [(0, 1, 2)])
        trace = greedy_color_by_permutation(h, (2, 0, 1), 2)
        assert trace.coloring.colors[1] == 2  # last in order

    def test_triangle_never_proper(self, triangle):
        for order in permutations(range(3)):
            trace = greedy_color_by_permutation(triangle, order, 2)
            assert not is_proper(triangle, trace.coloring)[0]

    def test_not_a_permutation(self, triangle):
        with pytest.raises(ValueError):
            greedy_color_by_permutation(triangle, (0, 1, 1), 2)


@given(hypergraphs_with_times(), st.integers(2, 3))
@settings(max_examples=150)
def test_trace_invariants(hwt, r):
    """No edge is ever monochromatic in a color below r; monochromatic
    edges pair with forced last vertices; fast path agrees with the trace."""
    h, times = hwt
    t = BirthTimeAssignment(times)
    trace = greedy_color(h, t, r)
    ok, mono = is_proper(h, trace.coloring)
    for ei in mono:
        edge_colors = {trace.coloring.colors[v] for v in h.edges[ei]}
        assert edge_colors == {r}
    assert ok == (not trace.forced_vertices)
    assert greedy_succeeds(h, t.order(), r) == ok


def _uncut_greedy(h, order, r):
    """The greedy rule read off the edges over all r colors: the colors and
    the forced vertices."""
    colors = [0] * h.vertex_count
    forced = []
    for v in order:
        blocked = set()
        for ei in h.incidence[v]:
            rest = {colors[u] for u in h.edges[ei] if u != v}
            if not rest:
                blocked.update(range(1, r + 1))
            elif len(rest) == 1 and 0 not in rest:
                blocked |= rest
        free = [j for j in range(1, r + 1) if j not in blocked]
        colors[v] = free[0] if free else r
        if not free:
            forced.append(v)
    return colors, forced


@given(hypergraphs_with_times(max_edge_size=3), st.integers(2, 9))
@settings(max_examples=200)
def test_color_cut_matches_the_uncut_rule(hwt, r):
    """Cutting the colors at the largest degree + 1 changes no color and
    no forced vertex, singleton edges included."""
    h, times = hwt
    order = BirthTimeAssignment(times).order()
    trace = greedy_color_by_permutation(h, order, r)
    colors, forced = _uncut_greedy(h, order, r)
    assert list(trace.coloring.colors) == colors
    assert list(trace.forced_vertices) == forced
    assert greedy_succeeds(h, order, r) == (not forced)


def test_huge_color_count():
    # a singleton edge forces its vertex to color r, which the edge state
    # never writes as a bit
    h = Hypergraph(3, [(0,), (0, 1), (1, 2)])
    r = 10**20
    trace = greedy_color_by_permutation(h, [0, 1, 2], r)
    assert trace.coloring.colors == (r, 1, 2)
    assert trace.forced_vertices == (0,)


class TestTwoPhase:
    def test_near_one_p_degenerates_to_greedy(self, fano):
        t = sample_birth_times(7, 3)
        plain = greedy_color(fano, t, 2)
        staged = two_phase_color(fano, t, 2, p=1.0 - 1e-12)
        assert staged.coloring == plain.coloring

    def test_edge_inside_blue_interval_goes_monochromatic(self):
        h = Hypergraph(3, [(0, 1, 2)])
        t = BirthTimeAssignment([0.01, 0.02, 0.03])
        trace = two_phase_color(h, t, 2, p=0.5)
        assert trace.coloring.colors == (1, 1, 1)
        assert not is_proper(h, trace.coloring)[0]

    def test_path_hand_simulation(self):
        t = BirthTimeAssignment([0.1, 0.5, 0.9])
        trace = two_phase_color(PATH, t, 2, p=0.4)
        # vertex 0 precolored 1 (t < 0.3), vertex 2 precolored 2 (t >= 0.7);
        # vertex 1 then has color 1 blocked by {0,1} and color 2 blocked by
        # {1,2}, so it is forced and the precolor cost shows up as an
        # improper edge (plain greedy colors this instance (1,2,1) instead)
        assert trace.coloring.colors == (1, 2, 2)
        assert trace.forced_vertices == (1,)
        ok, mono = is_proper(PATH, trace.coloring)
        assert not ok and mono == [1]

    def test_single_edge_failure_probability(self):
        # failure happens exactly when the whole edge precolors one side:
        # probability 2 ((1-p)/2)^3
        h = Hypergraph(3, [(0, 1, 2)])
        p = 0.4
        exact = 2 * ((1 - p) / 2) ** 3
        fails = 0
        trials = 20_000
        for i in range(trials):
            t = sample_birth_times(3, i)
            trace = two_phase_color(h, t, 2, p=p)
            if not is_proper(h, trace.coloring)[0]:
                fails += 1
        assert abs(fails / trials - exact) < 0.006

    def test_r_must_be_two(self, triangle):
        with pytest.raises(ValueError):
            two_phase_color(triangle, BirthTimeAssignment([0.1, 0.5, 0.9]), 3, 0.5)


class TestEquitable:
    def test_sizes_balanced(self):
        c = equitable_partition_color(Hypergraph(4, []), 0, 2)
        assert sorted(Counter(c.colors).values()) == [2, 2]

    def test_sizes_uneven(self):
        c = equitable_partition_color(Hypergraph(5, []), 1, 3)
        assert sorted(Counter(c.colors).values()) == [1, 2, 2]

    def test_uniform_over_balanced_colorings(self):
        # 4 vertices, r=2: six labeled balanced colorings, each ~1/6
        h = Hypergraph(4, [])
        counts = Counter(
            equitable_partition_color(h, seed, 2).colors for seed in range(10_000)
        )
        assert len(counts) == 6
        for freq in counts.values():
            assert abs(freq / 10_000 - 1 / 6) < 0.02
