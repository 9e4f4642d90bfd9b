"""Instance generators: complete and random n-uniform hypergraphs and the
Fano plane (the smallest 3-uniform hypergraph with no proper 2-coloring).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import BudgetExceededError
from .hypergraph import SLOT_BUDGET, Hypergraph

# lines {i, i+1, i+3} mod 7; every two lines meet in exactly one point
_FANO_LINES = (
    (0, 1, 3),
    (1, 2, 4),
    (2, 3, 5),
    (3, 4, 6),
    (0, 4, 5),
    (1, 5, 6),
    (0, 2, 6),
)


def _comb_capped(m: int, n: int, cap: int) -> int:
    """C(m, n) when it is at most `cap`, else a number above `cap` (and at
    most C(m, n)). C(m, i) grows with i up to m/2, so the product stops at
    the first C(m, i) past `cap` instead of building a huge binomial."""
    total = 1
    for i in range(1, min(n, m - n) + 1):
        total = total * (m - i + 1) // i
        if total > cap:
            break
    return total


def gen_complete_uniform(m: int, n: int) -> Hypergraph:
    """All C(m, n) n-subsets of m vertices, in lexicographic order."""
    if not 2 <= n <= m:
        raise ValueError(f"need 2 <= n <= m, got m={m}, n={n}")
    if _comb_capped(m, n, SLOT_BUDGET // n) > SLOT_BUDGET // n:
        raise BudgetExceededError(
            f"complete hypergraph has C({m}, {n}) edges of {n} vertices, "
            f"exceeding budget {SLOT_BUDGET} vertex slots"
        )
    return Hypergraph(m, combinations(range(m), n))


def gen_random_uniform(m: int, n: int, edge_count: int, seed: int) -> Hypergraph:
    """edge_count distinct uniform n-subsets of m vertices, seeded."""
    if not 2 <= n <= m:
        raise ValueError(f"need 2 <= n <= m, got m={m}, n={n}")
    if edge_count < 0:
        raise ValueError(f"need a nonnegative edge count, got {edge_count}")
    # drawing an edge may list all m vertices, so m counts against the budget too
    if m > SLOT_BUDGET:
        raise BudgetExceededError(f"{m} vertices exceed budget {SLOT_BUDGET} vertex slots")
    # all C(m, n) edges are listed up to this many; the count is exact up to
    # it, and past it already exceeds edge_count
    pool_limit = max(4 * edge_count, 4096)
    total = _comb_capped(m, n, pool_limit)
    if edge_count > total:
        raise ValueError(
            f"cannot pick {edge_count} distinct edges out of {total} possible"
        )
    if edge_count * n > SLOT_BUDGET:
        raise BudgetExceededError(
            f"{edge_count} edges of {n} vertices exceed budget {SLOT_BUDGET} vertex slots"
        )
    rng = np.random.default_rng(seed)
    if total <= pool_limit:
        pool = list(combinations(range(m), n))
        picks = rng.choice(total, size=edge_count, replace=False)
        return Hypergraph(m, [pool[i] for i in picks])
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    while len(edges) < edge_count:
        e = tuple(sorted(rng.choice(m, size=n, replace=False).tolist()))
        if e not in seen:
            seen.add(e)
            edges.append(e)
    return Hypergraph(m, edges)


def gen_fano() -> Hypergraph:
    """The Fano plane as a 3-uniform hypergraph on 7 vertices."""
    return Hypergraph(7, _FANO_LINES)
