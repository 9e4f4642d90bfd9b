"""Exact ground truth by exhaustion: r-colorability with witness, proper
coloring counts, and the exact greedy success probability over all vertex
orderings (the algorithm depends on birth times only through the induced
order, so averaging over permutations is exact).

All three are backtracking searches over the greedy module's edge state,
so they decide blocked colors exactly as the greedy driver does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import BudgetExceededError
from .greedy import _EdgeState, _first_free
from .hypergraph import Coloring, Hypergraph

DEFAULT_ORACLE_BUDGET = 10_000_000


@dataclass(frozen=True)
class OrderingStatistics:
    """Exact census of greedy outcomes over every processing order."""

    total_orderings: int
    proper_orderings: int

    @property
    def success_probability(self) -> Fraction:
        if self.total_orderings == 0:
            return Fraction(1)
        return Fraction(self.proper_orderings, self.total_orderings)


def is_r_colorable(
    h: Hypergraph, r: int, budget: int = DEFAULT_ORACLE_BUDGET
) -> tuple[bool, Coloring | None]:
    """Backtracking search for a proper r-coloring; returns a witness.

    Vertices 0..V-1 take colors in ascending order, so the witness is the
    lexicographically smallest proper coloring. The budget caps tried
    (vertex, color) assignments, blocked colors included, and fails loudly.
    """
    h.require_valid()
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    v_count = h.vertex_count
    if v_count > 32 and r**v_count > budget:
        raise BudgetExceededError(
            f"colorability search on {v_count} vertices exceeds budget {budget}"
        )
    state = _EdgeState(h, r)
    colors = [0] * v_count
    nodes = 0

    def search(v: int) -> bool:
        nonlocal nodes
        if v == v_count:
            return True
        blocked = state.blocked(v)
        saved = state.save(v)
        for j in range(1, r + 1):
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"colorability search exceeded budget {budget}"
                )
            if blocked >> j & 1:
                continue
            colors[v] = j
            state.place(v, j)
            if search(v + 1):
                return True
            state.unplace(v, saved)
        return False

    if search(0):
        return True, Coloring(colors, r)
    return False, None


def count_proper_colorings(
    h: Hypergraph, r: int, budget: int = DEFAULT_ORACLE_BUDGET
) -> int:
    """Exact number of proper r-colorings by pruned exhaustive search."""
    h.require_valid()
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if r**h.vertex_count > budget:
        raise BudgetExceededError(
            f"{r}^{h.vertex_count} colorings exceed budget {budget}"
        )
    v_count = h.vertex_count
    state = _EdgeState(h, r)

    def count(v: int) -> int:
        if v == v_count:
            return 1
        blocked = state.blocked(v)
        saved = state.save(v)
        total = 0
        for j in range(1, r + 1):
            if not blocked >> j & 1:
                state.place(v, j)
                total += count(v + 1)
                state.unplace(v, saved)
        return total

    return count(0)


def greedy_success_exact(
    h: Hypergraph, r: int, budget: int = DEFAULT_ORACLE_BUDGET
) -> OrderingStatistics:
    """Run the greedy rule under every ordering of the vertices.

    A run fails exactly when some vertex finds all colors blocked. The
    orderings are walked as a tree of prefixes: each vertex appended to a
    prefix takes its greedy color, a forced vertex prunes every ordering
    that extends the prefix, and the successful orderings are the leaves
    reached. A shared prefix is thus swept once, not once per ordering.
    """
    h.require_valid()
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    v_count = h.vertex_count
    total = factorial(v_count)
    if total > budget:
        raise BudgetExceededError(
            f"{v_count}! orderings exceed budget {budget}"
        )
    state = _EdgeState(h, r)
    all_blocked = state.all_blocked
    last = v_count - 1
    # rest[depth:] holds the vertices not yet in the prefix rest[:depth]
    rest = list(range(v_count))

    def leaves(depth: int) -> int:
        proper = 0
        for i in range(depth, v_count):
            rest[depth], rest[i] = rest[i], rest[depth]
            v = rest[depth]
            blocked = state.blocked(v)
            if blocked != all_blocked:
                if depth == last:
                    proper += 1
                else:
                    saved = state.save(v)
                    state.place(v, _first_free(blocked))
                    proper += leaves(depth + 1)
                    state.unplace(v, saved)
            rest[depth], rest[i] = rest[i], rest[depth]
        return proper

    return OrderingStatistics(total, leaves(0) if v_count else 1)
