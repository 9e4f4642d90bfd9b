from itertools import combinations
from math import comb

import pytest

from hgcolor import (
    BudgetExceededError,
    gen_complete_uniform,
    gen_fano,
    gen_random_uniform,
    is_r_colorable,
    uniformity,
    validate,
)
from hgcolor import generators
from hgcolor.generators import SLOT_BUDGET, _comb_capped


class TestComplete:
    def test_counts(self):
        assert gen_complete_uniform(4, 3).edge_count == 4
        assert gen_complete_uniform(5, 5).edge_count == 1
        assert gen_complete_uniform(7, 3).edge_count == 35

    def test_valid_and_uniform(self):
        h = gen_complete_uniform(6, 3)
        assert validate(h) == []
        assert uniformity(h).n == 3

    def test_budget(self):
        # C(10**7, 5 * 10**6) has about 3 million digits: the budget check
        # must refuse it without building it. C(4000, 3999) is only 4,000
        # edges, but they hold about 16 million vertex slots.
        for m, n in [(40, 20), (10**7, 5 * 10**6), (4000, 3999)]:
            with pytest.raises(BudgetExceededError, match=f"C\\({m}, {n}\\)"):
                gen_complete_uniform(m, n)

    def test_budget_counts_vertex_slots(self, monkeypatch):
        monkeypatch.setattr(generators, "SLOT_BUDGET", 30)
        assert gen_complete_uniform(5, 3).edge_count == 10  # 30 slots
        assert gen_complete_uniform(6, 5).edge_count == 6  # 30 slots
        with pytest.raises(BudgetExceededError, match="budget 30 vertex slots"):
            gen_complete_uniform(7, 6)  # 42 slots

    def test_bad_params(self):
        with pytest.raises(ValueError):
            gen_complete_uniform(3, 5)


class TestRandom:
    def test_zero_edges(self):
        assert gen_random_uniform(5, 3, 0, seed=1).edge_count == 0

    def test_exhaustive_equals_complete(self):
        h = gen_random_uniform(6, 3, comb(6, 3), seed=3)
        complete = set(combinations(range(6), 3))
        assert set(h.edges) == complete

    def test_deterministic(self):
        a = gen_random_uniform(10, 4, 30, seed=99)
        b = gen_random_uniform(10, 4, 30, seed=99)
        assert a == b

    def test_distinct_edges(self):
        h = gen_random_uniform(12, 3, 100, seed=5)
        assert len(set(h.edges)) == 100
        assert validate(h) == []
        assert uniformity(h).n == 3

    def test_rejection_path_for_large_pools(self):
        h = gen_random_uniform(40, 5, 50, seed=7)
        assert h.edge_count == 50
        assert len(set(h.edges)) == 50

    def test_infeasible_count(self):
        with pytest.raises(ValueError, match="out of 4 possible"):
            gen_random_uniform(4, 3, 100, seed=0)
        with pytest.raises(ValueError, match="got -1"):
            gen_random_uniform(40, 20, -1, seed=0)

    def test_budget(self):
        n = 5 * 10**6
        for edge_count in (SLOT_BUDGET // n + 1, 10, 10**6 + 1):
            with pytest.raises(BudgetExceededError, match="vertex slots"):
                gen_random_uniform(10**7, n, edge_count, seed=0)

    def test_budget_counts_vertex_slots(self, monkeypatch):
        monkeypatch.setattr(generators, "SLOT_BUDGET", 30)
        assert gen_random_uniform(30, 3, 10, seed=0).edge_count == 10  # 30 slots
        with pytest.raises(BudgetExceededError, match="^11 edges of 3 vertices exceed budget 30"):
            gen_random_uniform(30, 3, 11, seed=0)

    def test_budget_counts_vertices(self, monkeypatch):
        # an edge drawn out of m vertices may list all of them
        monkeypatch.setattr(generators, "SLOT_BUDGET", 30)
        assert gen_random_uniform(30, 2, 1, seed=0).vertex_count == 30
        with pytest.raises(BudgetExceededError, match="^31 vertices exceed budget 30"):
            gen_random_uniform(31, 2, 1, seed=0)
        with pytest.raises(BudgetExceededError, match="^31 vertices"):
            gen_random_uniform(31, 2, 0, seed=0)


def test_capped_binomial():
    """C(m, n) exactly up to the cap, else a value past the cap and not
    past C(m, n)."""
    for m in range(2, 40):
        for n in range(2, m + 1):
            for cap in (0, 1, 10, 4096, 10**6):
                got, exact = _comb_capped(m, n, cap), comb(m, n)
                assert got == exact if exact <= cap else cap < got <= exact


class TestFano:
    def test_shape(self):
        h = gen_fano()
        assert h.vertex_count == 7
        assert h.edge_count == 7
        assert uniformity(h).n == 3
        assert validate(h) == []

    def test_every_line_pair_meets_once(self):
        h = gen_fano()
        for a, b in combinations(h.edge_sets, 2):
            assert len(a & b) == 1

    def test_not_two_colorable(self):
        assert not is_r_colorable(gen_fano(), 2)[0]
