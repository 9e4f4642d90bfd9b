import re
import sys
from fractions import Fraction
from itertools import permutations, product
from math import factorial, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgcolor import (
    BudgetExceededError,
    Coloring,
    Hypergraph,
    OrderingStatistics,
    count_proper_colorings,
    gen_complete_uniform,
    gen_fano,
    greedy_color_by_permutation,
    greedy_success_exact,
    is_proper,
    is_r_colorable,
)
from hgcolor.greedy import _EdgeState
from hgcolor.oracle import _ClassMasks
from hgcolor.suite import fixed_suite

from conftest import hypergraphs, naive_partition_count


class TestColorability:
    def test_single_edge(self):
        ok, witness = is_r_colorable(Hypergraph(3, [(0, 1, 2)]), 2)
        assert ok and witness is not None
        assert is_proper(Hypergraph(3, [(0, 1, 2)]), witness)[0]

    def test_triangle(self, triangle):
        assert not is_r_colorable(triangle, 2)[0]
        ok, witness = is_r_colorable(triangle, 3)
        assert ok and is_proper(triangle, witness)[0]

    def test_fano(self, fano):
        assert not is_r_colorable(fano, 2)[0]
        assert is_r_colorable(fano, 3)[0]

    def test_budget_guard(self, fano):
        with pytest.raises(BudgetExceededError):
            is_r_colorable(fano, 2, budget=3)


class TestCounting:
    def test_single_edge(self):
        assert count_proper_colorings(Hypergraph(3, [(0, 1, 2)]), 2) == 2**3 - 2

    def test_empty_hypergraph(self):
        assert count_proper_colorings(Hypergraph(4, []), 3) == 3**4

    def test_triangle_r3(self, triangle):
        assert count_proper_colorings(triangle, 3) == 6

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            count_proper_colorings(Hypergraph(30, []), 3, budget=100)

    def test_budget_counts_the_search_not_r_to_the_v(self):
        # 2^12 colorings exceed the budget, but the search refutes K12 after
        # 5 tried assignments
        assert count_proper_colorings(gen_complete_uniform(12, 2), 2, budget=100) == 0

    @pytest.mark.parametrize("r", [50, 10**20])
    def test_many_colors_answer_under_the_default_budget(self, fano, r):
        # colors past those already used are tried once, so r enters only
        # through the falling-factorial weights
        assert count_proper_colorings(fano, r) == naive_partition_count(fano, r)


class TestSearchBudget:
    """Colorability and counting share one search; all three oracles share
    its budget, its up-front refusal and its recursion-limit refusal."""

    @pytest.mark.parametrize(
        "oracle, h, nodes",
        [
            # the witness (1, 1, 2) after 4 tried assignments; counting
            # tries the first-use patterns 1 + 2 + 4 (vertex 0 tries color 1
            # only, vertex 1 colors 1 and 2, and so does vertex 2 after each)
            pytest.param(is_r_colorable, Hypergraph(3, [(0, 1, 2)]), 4, id="colorable-edge"),
            pytest.param(count_proper_colorings, Hypergraph(3, [(0, 1, 2)]), 7, id="count-edge"),
            # no coloring: both exhaust the same tree, 1 + 2 + 2
            pytest.param(is_r_colorable, Hypergraph(3, [(0, 1), (1, 2), (0, 2)]), 5, id="colorable-triangle"),
            pytest.param(count_proper_colorings, Hypergraph(3, [(0, 1), (1, 2), (0, 2)]), 5, id="count-triangle"),
        ],
    )
    def test_budget_is_the_tried_assignments(self, oracle, h, nodes):
        oracle(h, 2, budget=nodes)
        message = re.escape(f"colorability search exceeded budget {nodes - 1}")
        with pytest.raises(BudgetExceededError, match=f"^{message}$"):
            oracle(h, 2, budget=nodes - 1)

    ORACLES = [
        pytest.param(oracle, name, id=oracle.__name__)
        for oracle, name in (
            (is_r_colorable, "colorability search"),
            (count_proper_colorings, "colorability search"),
            (greedy_success_exact, "ordering census"),
        )
    ]

    @pytest.mark.parametrize("oracle, name", ORACLES)
    def test_search_deeper_than_the_recursion_limit_is_refused(self, oracle, name):
        # r^V is within the budget, but each search nests one call per vertex
        message = re.escape(
            f"{name} on 1200 vertices nests deeper than Python's "
            f"recursion limit ({sys.getrecursionlimit()}) allows"
        )
        with pytest.raises(BudgetExceededError, match=f"^{message}$"):
            oracle(Hypergraph(1200, []), 2, budget=10**400)

    @pytest.mark.parametrize("oracle, name", ORACLES)
    def test_refused_at_once_above_32_vertices(self, oracle, name):
        message = re.escape(f"{name} on 40 vertices exceeds budget 10000000")
        with pytest.raises(BudgetExceededError, match=f"^{message}$"):
            oracle(Hypergraph(40, []), 2)

    @pytest.mark.parametrize("oracle, name", ORACLES)
    def test_refused_without_building_r_to_the_v(self, oracle, name):
        # 3^(10^8) alone would take minutes to build
        message = re.escape(f"{name} on 100000000 vertices exceeds budget 10000000")
        with pytest.raises(BudgetExceededError, match=f"^{message}$"):
            oracle(Hypergraph(10**8, []), 3)


class TestOrderingCensus:
    def test_single_edge_always_succeeds(self):
        stats = greedy_success_exact(Hypergraph(3, [(0, 1, 2)]), 2)
        assert stats.success_probability == 1

    def test_triangle_never_succeeds(self, triangle):
        stats = greedy_success_exact(triangle, 2)
        assert stats.success_probability == 0

    def test_path_all_orders_proper(self):
        stats = greedy_success_exact(Hypergraph(3, [(0, 1), (1, 2)]), 2)
        assert stats.total_orderings == 6
        assert stats.proper_orderings == 6

    def test_fano_r3_never_fails(self, fano):
        # every two Fano lines meet, so no 3-chain (and hence no conflicting
        # 3-chain) exists: the 3-color greedy run is proper for every order
        stats = greedy_success_exact(fano, 3)
        assert stats.success_probability == 1

    def test_p4_fractional_probability(self):
        # 0-1-2-3 path: order (3,2,0,1) forces vertex 1, most orders succeed
        stats = greedy_success_exact(Hypergraph(4, [(0, 1), (1, 2), (2, 3)]), 2)
        assert isinstance(stats.success_probability, Fraction)
        assert 0 < stats.success_probability < 1

    def test_budget_guard(self, fano):
        with pytest.raises(BudgetExceededError):
            greedy_success_exact(fano, 2, budget=100)

    def test_no_vertices(self):
        assert greedy_success_exact(Hypergraph(0, []), 2) == OrderingStatistics(1, 1)

    @pytest.mark.parametrize(
        "h,r",
        [pytest.param(h, r, id=name) for name, h, r in fixed_suite() if h.vertex_count <= 6],
    )
    def test_suite_matches_every_greedy_run(self, h, r):
        orders = list(permutations(range(h.vertex_count)))
        proper = sum(
            is_proper(h, greedy_color_by_permutation(h, o, r).coloring)[0] for o in orders
        )
        assert greedy_success_exact(h, r) == OrderingStatistics(len(orders), proper)


@given(hypergraphs(max_vertices=5, max_edges=5), st.integers(2, 3))
@settings(max_examples=60, deadline=None)
def test_colorable_iff_count_positive(h, r):
    assert is_r_colorable(h, r)[0] == (count_proper_colorings(h, r) > 0)


@given(hypergraphs(max_vertices=5, max_edges=5), st.integers(2, 3))
@settings(max_examples=40, deadline=None)
def test_greedy_success_implies_colorable(h, r):
    # both ways: a successful run is a proper coloring, and greedy succeeds
    # on the vertices ordered by the color classes of a proper coloring
    assert (greedy_success_exact(h, r).proper_orderings > 0) == is_r_colorable(h, r)[0]


@pytest.mark.parametrize("h,r", [pytest.param(h, r, id=name) for name, h, r in fixed_suite()])
def test_suite_greedy_success_iff_colorable(h, r):
    assert (greedy_success_exact(h, r).proper_orderings > 0) == is_r_colorable(h, r)[0]


@given(
    hypergraphs(max_vertices=7, max_edges=6),
    st.integers(2, 3),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_greedy_census_invariant_under_relabeling(h, r, rnd):
    perm = list(range(h.vertex_count))
    rnd.shuffle(perm)
    assert greedy_success_exact(h, r) == greedy_success_exact(h.relabel(perm), r)


@given(hypergraphs(max_vertices=5, max_edges=4), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_count_invariant_under_relabeling(h, rnd):
    perm = list(range(h.vertex_count))
    rnd.shuffle(perm)
    assert count_proper_colorings(h, 2) == count_proper_colorings(h.relabel(perm), 2)


@given(hypergraphs(max_vertices=8), st.sampled_from([2, 3, 4, 10**20]), st.data())
@settings(max_examples=100, deadline=None)
def test_class_masks_block_as_the_edge_state(h, r, data):
    # the strategy draws singleton edges; add duplicates of drawn edges, and
    # r = 10^20 (and r = 4 at low degree) is cut at the largest degree + 1
    if h.edges:
        extra = data.draw(st.lists(st.sampled_from(h.edges), max_size=3))
        h = Hypergraph(h.vertex_count, h.edges + tuple(extra))
    masks = _ClassMasks(h, r)
    assert masks.all_blocked == _EdgeState(h, r).all_blocked
    # place random vertices with random colors and undo the latest, as the
    # searches do; the edge state replays the placements that stand
    placed = []
    for _ in range(3 * h.vertex_count):
        edges = _EdgeState(h, r)
        for v, j in placed:
            edges.place(v, j)
        uncolored = [u for u in range(h.vertex_count) if not masks.colors[u]]
        assert [masks.blocked(u) for u in uncolored] == [edges.blocked(u) for u in uncolored]
        if placed and (not uncolored or data.draw(st.booleans())):
            masks.unplace(placed.pop()[0])
        else:
            v = data.draw(st.sampled_from(uncolored))
            j = data.draw(st.integers(1, min(r, h.vertex_count)))
            masks.place(v, j)
            placed.append((v, j))


# Naive references for the three oracles. They share no code with the
# library's edge state: colors are a dict, edges are sets, and properness is
# judged on the finished coloring by is_proper.


def naive_free_colors(h, colors, v, r):
    """The colors of 1..r that no edge through v blocks, given the dict of
    colored vertices."""
    return [
        j
        for j in range(1, r + 1)
        if not any(v in e and all(colors.get(u) == j for u in e - {v}) for e in h.edge_sets)
    ]


def naive_greedy_is_proper(h, order, r):
    colors = {}
    for v in order:
        free = naive_free_colors(h, colors, v, r)
        colors[v] = free[0] if free else r
    return is_proper(h, Coloring([colors[v] for v in range(h.vertex_count)], r))[0]


def proper_colorings_lex(h, r):
    for colors in product(range(1, r + 1), repeat=h.vertex_count):
        if is_proper(h, Coloring(colors, r))[0]:
            yield colors


@given(hypergraphs(max_vertices=6), st.integers(2, 4))
@settings(max_examples=30, deadline=None)
def test_greedy_census_matches_naive_runs(h, r):
    stats = greedy_success_exact(h, r)
    orders = list(permutations(range(h.vertex_count)))
    assert stats.total_orderings == factorial(h.vertex_count) == len(orders)
    assert stats.proper_orderings == sum(naive_greedy_is_proper(h, o, r) for o in orders)


@given(hypergraphs(max_vertices=5), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_count_and_witness_match_enumeration(h, r):
    proper = list(proper_colorings_lex(h, r))
    assert count_proper_colorings(h, r) == len(proper)
    ok, witness = is_r_colorable(h, r)
    assert ok == bool(proper)
    assert (witness.colors if ok else None) == (proper[0] if proper else None)


@given(hypergraphs(max_vertices=6), st.sampled_from([2, 3, 4, 5, 6, 10**20]))
@settings(max_examples=60, deadline=None)
def test_count_matches_the_partition_count(h, r):
    assert count_proper_colorings(h, r) == naive_partition_count(h, r)


# 0 vertices, 1 vertex, no edge, one edge, and singleton edges (which block
# every color of their vertex)
SMALL = [
    pytest.param(Hypergraph(0, []), id="no-vertices"),
    pytest.param(Hypergraph(1, []), id="one-vertex"),
    pytest.param(Hypergraph(4, []), id="no-edges"),
    pytest.param(Hypergraph(3, [(0, 1, 2)]), id="one-edge"),
    pytest.param(Hypergraph(1, [(0,)]), id="singleton-only"),
    pytest.param(Hypergraph(3, [(1,)]), id="singleton-inside"),
    pytest.param(Hypergraph(4, [(0, 1), (3,)]), id="singleton-last"),
]


@pytest.mark.parametrize("h", SMALL)
@pytest.mark.parametrize("r", [2, 3, 4])
def test_small_cases_match_naive_references(h, r):
    proper = list(proper_colorings_lex(h, r))
    assert count_proper_colorings(h, r) == len(proper)
    ok, witness = is_r_colorable(h, r)
    assert (witness.colors if ok else None) == (proper[0] if proper else None)
    orders = list(permutations(range(h.vertex_count)))
    assert greedy_success_exact(h, r) == OrderingStatistics(
        len(orders), sum(naive_greedy_is_proper(h, o, r) for o in orders)
    )


def reference_search(h, r, limit=None):
    """The recursive search over first-use patterns as it would run without
    counting the last vertex's free colors unplaced and without the r = 1
    closed form: vertex v tries colors 1..min(r, u + 1), u the largest color
    of vertices 0..v-1, and a proper pattern of c colors counts r!/(r-c)!.
    Color j is blocked for v by the rule as stated, read from the colors
    list: some edge of v has every other vertex colored j. Returns
    (colorings counted until the count reaches `limit`, the first, tried
    (vertex, color) assignments), unbudgeted."""
    edges_of = [[e for e in h.edges if v in e] for v in range(h.vertex_count)]
    colors = [0] * h.vertex_count
    first = None
    found = nodes = 0

    def search(v, used):
        nonlocal first, found, nodes
        if v == h.vertex_count:
            found += perm(r, used)
            if first is None:
                first = colors.copy()
            return limit is not None and found >= limit
        for j in range(1, min(r, used + 1) + 1):
            nodes += 1
            if any(all(colors[u] == j for u in e if u != v) for e in edges_of[v]):
                continue
            colors[v] = j
            if search(v + 1, max(used, j)):
                return True
            colors[v] = 0
        return False

    search(0, 0)
    return found, first, nodes


def check_budget_is_the_reference_count(h, r):
    """Both search oracles answer as the reference at budget = its tried
    assignments, and one below it raise the search's exact message."""
    for oracle, limit in ((is_r_colorable, 1), (count_proper_colorings, None)):
        found, first, nodes = reference_search(h, r, limit)
        if oracle is is_r_colorable:
            ok, witness = oracle(h, r, budget=nodes)
            assert (ok, list(witness.colors) if ok else None) == (found > 0, first)
        else:
            assert oracle(h, r, budget=nodes) == found
        if nodes:
            message = re.escape(f"colorability search exceeded budget {nodes - 1}")
            with pytest.raises(BudgetExceededError, match=f"^{message}$"):
                oracle(h, r, budget=nodes - 1)


@pytest.mark.parametrize("h,r", [pytest.param(h, r, id=name) for name, h, r in fixed_suite()])
def test_suite_budget_is_the_reference_count(h, r):
    check_budget_is_the_reference_count(h, r)


@pytest.mark.parametrize("h", SMALL)
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_small_budget_is_the_reference_count(h, r):
    check_budget_is_the_reference_count(h, r)


@given(hypergraphs(max_vertices=7, max_edges=6), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_budget_is_the_reference_count(h, r):
    check_budget_is_the_reference_count(h, r)


def reference_census_tried(h, r):
    """The ordering census's tried assignments, counted level by level: each
    distinct partial coloring that greedy steps reach and that leaves k >= 1
    vertices uncolored tries k greedy assignments. A step gives an uncolored
    vertex its smallest free color; a vertex with none ends no coloring."""
    level = {frozenset()}  # partial colorings as sets of (vertex, color)
    tried = 0
    for left in range(h.vertex_count, 0, -1):
        tried += left * len(level)
        reached = set()
        for partial in level:
            colors = dict(partial)
            for v in set(range(h.vertex_count)) - colors.keys():
                free = naive_free_colors(h, colors, v, r)
                if free:
                    reached.add(partial | {(v, free[0])})
        level = reached
    return tried


def check_census_budget_is_the_reference_count(h, r):
    """The census answers at budget = the reference's tried assignments, and
    one below it raises the census's exact message."""
    tried = reference_census_tried(h, r)
    assert greedy_success_exact(h, r, budget=tried) == greedy_success_exact(h, r)
    if tried:
        message = re.escape(f"ordering census exceeded budget {tried - 1}")
        with pytest.raises(BudgetExceededError, match=f"^{message}$"):
            greedy_success_exact(h, r, budget=tried - 1)


@pytest.mark.parametrize("h,r", [pytest.param(h, r, id=name) for name, h, r in fixed_suite()])
def test_suite_census_budget_is_the_reference_count(h, r):
    check_census_budget_is_the_reference_count(h, r)


@pytest.mark.parametrize("h", SMALL)
@pytest.mark.parametrize("r", [2, 3, 4])
def test_small_census_budget_is_the_reference_count(h, r):
    check_census_budget_is_the_reference_count(h, r)


@given(hypergraphs(max_vertices=7, max_edges=6), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_census_budget_is_the_reference_count(h, r):
    check_census_budget_is_the_reference_count(h, r)


class TestOneColor:
    """r = 1 has the one coloring all ones, proper iff there is no edge."""

    LONG = Hypergraph(1200, [(1198, 1199)])

    def test_long_instance_is_answered_without_recursion(self):
        assert is_r_colorable(self.LONG, 1) == (False, None)
        assert count_proper_colorings(self.LONG, 1) == 0

    def test_long_instance_without_edges(self):
        ok, witness = is_r_colorable(Hypergraph(1200, []), 1)
        assert ok and witness.colors == (1,) * 1200
        assert count_proper_colorings(Hypergraph(1200, []), 1) == 1

    @pytest.mark.parametrize("oracle", [is_r_colorable, count_proper_colorings])
    def test_long_instance_budget_is_the_tried_assignments(self, oracle):
        # vertices 0..1198 take color 1, and 1199 tries it and finds it
        # blocked: 1,200 tried assignments
        oracle(self.LONG, 1, budget=1200)
        message = re.escape("colorability search exceeded budget 1199")
        with pytest.raises(BudgetExceededError, match=f"^{message}$"):
            oracle(self.LONG, 1, budget=1199)

    def test_census_refuses_one_color(self):
        with pytest.raises(ValueError, match="need r >= 2, got 1"):
            greedy_success_exact(self.LONG, 1)


@pytest.mark.parametrize("oracle", [is_r_colorable, count_proper_colorings, greedy_success_exact])
def test_negative_budget_is_a_value_error(oracle):
    message = re.escape("the oracle budget must be nonnegative, got -1")
    with pytest.raises(ValueError, match=f"^{message}$"):
        oracle(Hypergraph(0, []), 2, budget=-1)


def test_budget_zero_is_a_budget():
    empty = Hypergraph(0, [])
    assert is_r_colorable(empty, 2, budget=0) == (True, Coloring((), 2))
    assert count_proper_colorings(empty, 2, budget=0) == 1
    assert greedy_success_exact(empty, 2, budget=0) == OrderingStatistics(1, 1)
