"""Exact ground truth by exhaustion: r-colorability with witness, proper
coloring counts, and the exact greedy success probability over all vertex
orderings (the algorithm depends on birth times only through the induced
order, so averaging over permutations is exact).

All three oracles search partial colorings held as color-class bitmasks:
`colors[v]` (0 for uncolored), `classes[j]` with bit v set when v has
color j, and the mask of uncolored vertices, which the recursion passes
down. A color c is blocked for an uncolored vertex v exactly when some
edge e of v has e - {v} colored and inside class c; an edge of v alone
blocks every color. This is the greedy module's rule, so the searches
block exactly the colors the greedy driver does. The masks e - {v} come
from :attr:`Hypergraph.rest_masks`, built once per hypergraph, and the
census and the search each test the rule, and place and undo a vertex on
the class masks, inline in their recursion. Each blocked color is another
vertex's, so neither the greedy rule nor a first-use search takes a color
past min(r, V), and no class past it exists. Past the largest degree + 1,
r is cut as in the greedy module's edge state: only an edge of v alone
blocks every color, as the mask -1.

Colorability and counting are one backtracking search. Colors no vertex
has used yet are interchangeable, so each vertex tries at most one color
past the largest used before it, and a proper first-use pattern of c
colors counts r(r-1)...(r-c+1) colorings; the lexicographically smallest
proper coloring is such a pattern. The ordering census counts each
partial coloring's successful completions once, since the greedy choice
for the next vertex depends on the partial coloring and not on the order
that produced it (greedy takes the least free color, so it has no color
symmetry). All three charge one budget, tried (vertex, color)
assignments, through :func:`_budgeted`; a negative budget is a
ValueError.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import factorial
from operator import mul

from .errors import BudgetExceededError
from .greedy import _usable_colors
from .hypergraph import Coloring, Hypergraph

DEFAULT_ORACLE_BUDGET = 10_000_000


@dataclass(frozen=True)
class OrderingStatistics:
    """Exact census of greedy outcomes over every processing order."""

    total_orderings: int
    proper_orderings: int

    @property
    def success_probability(self) -> Fraction:
        return Fraction(self.proper_orderings, self.total_orderings)


def check_budget(budget: int) -> None:
    """Raise ValueError on a negative oracle budget (0 is a valid budget)."""
    if budget < 0:
        raise ValueError(f"the oracle budget must be nonnegative, got {budget}")


@contextmanager
def _budgeted(name: str, h: Hypergraph, r: int, budget: int) -> Iterator[str]:
    """Run the exact search `name` under `budget` tried assignments: refuse
    at once above 32 vertices when r^V exceeds it, yield the message for a
    search whose count passes it, and refuse a search that reaches Python's
    recursion limit (each search nests one call per vertex)."""
    check_budget(budget)
    v_count = h.vertex_count
    # r^V > budget without building r^V: at r >= 2 the exponent
    # bit_length + 1 already passes the budget
    if v_count > 32 and r ** min(v_count, budget.bit_length() + 1) > budget:
        raise BudgetExceededError(f"{name} on {v_count} vertices exceeds budget {budget}")
    try:
        yield f"{name} exceeded budget {budget}"
    except RecursionError:
        raise BudgetExceededError(
            f"{name} on {v_count} vertices nests deeper than "
            f"Python's recursion limit ({sys.getrecursionlimit()}) allows"
        ) from None


def _all_blocked(h: Hypergraph, r: int) -> int:
    """The blocked mask of an edge of v alone: colors 1..r, or -1 where r
    is cut (see the module docstring)."""
    return -1 if _usable_colors(h, r) < r else ((1 << r) - 1) << 1


def _proper_colorings(
    h: Hypergraph, r: int, budget: int, limit: int | None = None
) -> tuple[int, list[int] | None]:
    """Proper first-use patterns in lexicographic order (vertices 0..V-1
    take colors in ascending order, at most one past the largest so far):
    the r-colorings they stand for, counted until `limit`, and the first
    pattern (the smallest proper coloring), or None, under :func:`_budgeted`;
    every tried (vertex, color) assignment is charged, blocked ones too.

    The last vertex's free colors are counted without being placed, since
    each completes a proper coloring. At r = 1 the search is one path, so
    it is answered in closed form with the same count of tried assignments.
    """
    h.require_valid()
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    with _budgeted("colorability search", h, r, budget) as over:
        v_count = h.vertex_count
        if r == 1:
            # all ones is the only 1-coloring; the search gives vertex v its
            # color unless v is the largest vertex of an edge, and stops there
            if min((e[-1] + 1 for e in h.edges), default=v_count) > budget:
                raise BudgetExceededError(over)
            return (0, None) if h.edges else (1, [1] * v_count)
        if v_count == 0:
            return 1, []
        colors, classes = [0] * v_count, [0] * (min(r, v_count) + 1)
        rests, all_blocked = h.rest_masks, _all_blocked(h, r)
        last = v_count - 1
        # falling[c] = r(r-1)...(r-c+1) colorings per pattern of c colors
        falling = list(accumulate(range(r, r - min(r, v_count), -1), mul, initial=1))
        first = None
        found = nodes = 0

        def search(v: int, used: int, uncolored: int) -> bool:
            """Extend colors[:v], which use 1..used, with vertices v.. in
            `uncolored`; True at `limit`."""
            nonlocal first, found, nodes
            # the blocking rule inline, as in the census
            blocked = 0
            for rest, u in rests[v]:
                if not rest & uncolored:
                    if not rest:
                        blocked = all_blocked
                        break
                    c = colors[u]
                    if classes[c] & rest == rest:
                        blocked |= 1 << c
            bit = 1 << v
            for j in range(1, min(r, used + 1) + 1):
                nodes += 1
                if nodes > budget:
                    raise BudgetExceededError(over)
                if blocked >> j & 1:
                    continue
                if v < last:
                    colors[v] = j
                    classes[j] |= bit
                    if search(v + 1, max(used, j), uncolored ^ bit):
                        return True
                    classes[j] ^= bit
                    colors[v] = 0
                    continue
                found += falling[max(used, j)]
                if first is None:
                    first = colors.copy()
                    first[v] = j
                if limit is not None and found >= limit:
                    return True
            return False

        search(0, 0, (1 << v_count) - 1)
        return found, first


def is_r_colorable(
    h: Hypergraph, r: int, budget: int = DEFAULT_ORACLE_BUDGET
) -> tuple[bool, Coloring | None]:
    """Whether h has a proper r-coloring, with the lexicographically
    smallest one as witness; budgeted as :func:`_proper_colorings`."""
    found, first = _proper_colorings(h, r, budget, limit=1)
    return (True, Coloring(first, r)) if found else (False, None)


def count_proper_colorings(
    h: Hypergraph, r: int, budget: int = DEFAULT_ORACLE_BUDGET
) -> int:
    """Exact number of proper r-colorings; budgeted as
    :func:`_proper_colorings`, which enumerates them up to color symmetry."""
    return _proper_colorings(h, r, budget)[0]


def greedy_success_exact(
    h: Hypergraph, r: int, budget: int = DEFAULT_ORACLE_BUDGET
) -> OrderingStatistics:
    """Run the greedy rule under every ordering of the vertices.

    A run fails exactly when some vertex finds all colors blocked. The
    successful orderings are counted per partial coloring: a coloring's
    count sums, over each uncolored vertex v that is not blocked, the count
    of the coloring extended by v's greedy color. Every coloring reached is
    counted once and memoized for this call, so the work is bounded by the
    (r+1)^V partial colorings rather than the V! orderings. A vertex is
    placed on the class masks only to count a child the memo does not hold;
    a memoized child adds its count, and the last uncolored vertex adds 1.
    Budgeted as :func:`_budgeted`: each coloring counted afresh is charged
    its number of uncolored vertices, one greedy assignment each.
    """
    h.require_valid()
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    with _budgeted("ordering census", h, r, budget) as over:
        v_count = h.vertex_count
        colors, classes = [0] * v_count, [0] * (min(r, v_count) + 1)
        rests, all_blocked = h.rest_masks, _all_blocked(h, r)
        # the memo key is the partial coloring as a base-(r+1) number whose
        # digit v is colors[v], 0 for uncolored
        weight = [(r + 1) ** v for v in range(v_count)]
        memo: dict[int, int] = {}
        tried = 0

        def completions(key: int, left: int, uncolored: int) -> int:
            """Successful completions of a partial coloring that is not in
            the memo and has `left` >= 1 uncolored vertices, `uncolored`."""
            nonlocal tried
            tried += left
            if tried > budget:
                raise BudgetExceededError(over)
            proper = 0
            for v in range(v_count):
                if colors[v]:
                    continue
                # the blocking rule inline: this loop is the census's hot path
                blocked = 0
                for rest, u in rests[v]:
                    if not rest & uncolored:
                        if not rest:
                            blocked = all_blocked
                            break
                        c = colors[u]
                        if classes[c] & rest == rest:
                            blocked |= 1 << c
                if blocked == all_blocked:
                    continue
                if left == 1:
                    proper += 1
                    continue
                # the least free color, as greedy._first_free
                j = ((blocked + 2) & ~blocked).bit_length() - 1
                child = key + j * weight[v]
                known = memo.get(child)
                if known is None:
                    bit = 1 << v
                    colors[v] = j
                    classes[j] |= bit
                    known = completions(child, left - 1, uncolored ^ bit)
                    classes[j] ^= bit
                    colors[v] = 0
                proper += known
            memo[key] = proper
            return proper

        proper = completions(0, v_count, (1 << v_count) - 1) if v_count else 1
    return OrderingStatistics(factorial(v_count), proper)
