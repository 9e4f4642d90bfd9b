"""Random greedy r-coloring and its variants.

The driver processes vertices in ascending birth time and gives each vertex
the smallest color that does not complete a monochromatic edge at that
moment (an edge can only become monochromatic when its last vertex is
colored). When every color is blocked the vertex takes color r and is
recorded as forced. Variants: an explicit-permutation driver, a two-phase
precolor-then-greedy scheme for two colors, and a random equitable-partition
baseline.

That rule lives in the private edge state ``_EdgeState``: every scalar
sweep here decides blocked colors and updates edges through it. The exact
oracles in :mod:`hgcolor.oracle` search partial colorings, which they
place and undo, on color-class bitmasks of their own. The Monte Carlo
trial engine (:mod:`hgcolor.montecarlo`) runs its own batched sweep over
many processing orders at once; :func:`greedy_succeeds` is its reference
in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conflicts import IntervalPartition
from .hypergraph import BirthTimeAssignment, Coloring, Hypergraph

_MIXED = -1  # edge has seen at least two colors
_NONE = 0  # edge has seen no color yet


@dataclass(frozen=True)
class GreedyTrace:
    """Outcome of one greedy run.

    processing_order is the order vertices received colors (for the plain
    driver: birth-time order with index tie-breaks). forced_vertices are the
    vertices that found every color blocked and took color r.
    """

    coloring: Coloring
    forced_vertices: tuple[int, ...]
    processing_order: tuple[int, ...]


def sample_birth_times(vertex_count: int, rng_seed: int) -> BirthTimeAssignment:
    """Independent uniform [0,1) birth times, deterministic per seed."""
    rng = np.random.default_rng(rng_seed)
    return BirthTimeAssignment(rng.random(vertex_count).tolist())


def _usable_colors(h: Hypergraph, r: int) -> int:
    """How many of the colors 1..r the greedy rule can take on h: a vertex
    closes at most its degree of edges, so none past the largest degree + 1."""
    return min(r, max(map(len, h.incidence), default=0) + 1)


class _EdgeState:
    """Per-edge state of a partial coloring: the color the edge has seen
    (_NONE, _MIXED or one color j) and how many of its vertices are
    uncolored.

    A color j is blocked for v exactly when v is the last uncolored vertex of
    an edge whose other vertices all have color j; an edge made of v alone
    blocks every color. Blocked sets are bitmasks with bit j for color j.

    A vertex closes at most its degree of edges, so the rule picks no color
    past the largest degree + 1, and a larger r is cut there: only an edge of
    v alone blocks every color, as the mask -1, and a forced vertex takes
    color r, which no other vertex can, so its edges are marked mixed
    (`forced_mark`) and no mask holds bit r.
    """

    __slots__ = ("incidence", "seen", "left", "all_blocked", "forced_mark")

    def __init__(self, h: Hypergraph, r: int):
        self.incidence = h.incidence
        self.seen = [_NONE] * h.edge_count
        self.left = list(h.edge_sizes)
        cut = _usable_colors(h, r) < r
        self.all_blocked = -1 if cut else ((1 << r) - 1) << 1
        self.forced_mark = _MIXED if cut else r

    def blocked(self, v: int) -> int:
        """Bitmask of the colors that would complete a monochromatic edge."""
        seen, left = self.seen, self.left
        mask = 0
        for ei in self.incidence[v]:
            if left[ei] == 1:
                c = seen[ei]
                if c > 0:
                    mask |= 1 << c
                elif c == _NONE:
                    return self.all_blocked
        return mask

    def place(self, v: int, j: int) -> None:
        """Color the uncolored vertex v with j."""
        seen, left = self.seen, self.left
        for ei in self.incidence[v]:
            left[ei] -= 1
            c = seen[ei]
            if c == _NONE:
                seen[ei] = j
            elif c != j:
                seen[ei] = _MIXED


def _first_free(blocked: int) -> int:
    """Smallest color whose bit is clear in a mask that is not all_blocked.

    Bit 0 is never set, so blocked + 2 carries through exactly the run of
    blocked colors 1, 2, ... and lands on the first free one.
    """
    return ((blocked + 2) & ~blocked).bit_length() - 1


def _run(
    state: _EdgeState,
    order: Sequence[int],
    r: int,
    colors: list[int],
    stop_at_forced: bool = False,
) -> list[int]:
    """Greedy rule over `order`, writing colors[v] and updating `state`.

    The state may be pre-seeded (two-phase). Returns the forced vertices in
    processing order; with stop_at_forced the sweep ends at the first one.
    """
    all_blocked = state.all_blocked
    blocked_of, place = state.blocked, state.place
    forced: list[int] = []
    for v in order:
        blocked = blocked_of(v)
        if blocked == all_blocked:
            forced.append(v)
            if stop_at_forced:
                break
            colors[v], mark = r, state.forced_mark
        else:
            colors[v] = mark = _first_free(blocked)
        place(v, mark)
    return forced


def greedy_color_by_permutation(h: Hypergraph, order: Sequence[int], r: int) -> GreedyTrace:
    """Greedy rule driven by an explicit processing order."""
    if r < 2:
        raise ValueError(f"need r >= 2 colors, got {r}")
    h.require_valid()
    order = tuple(order)
    if sorted(order) != list(range(h.vertex_count)):
        raise ValueError("order is not a permutation of all vertices")
    colors = [0] * h.vertex_count
    forced = _run(_EdgeState(h, r), order, r, colors)
    return GreedyTrace(Coloring(colors, r), tuple(forced), order)


def greedy_color(h: Hypergraph, t: BirthTimeAssignment, r: int) -> GreedyTrace:
    """Greedy coloring in ascending birth-time order."""
    if len(t) != h.vertex_count:
        raise ValueError(
            f"birth times cover {len(t)} of {h.vertex_count} vertices"
        )
    return greedy_color_by_permutation(h, t.order(), r)


def greedy_succeeds(h: Hypergraph, order: Sequence[int], r: int) -> bool:
    """Fast properness check: a run fails iff some vertex gets forced.

    (A forced vertex takes color r while an incident edge has all its other
    vertices colored r, completing a monochromatic edge; conversely a
    monochromatic edge has color r and its last vertex was forced.)
    """
    colors = [0] * h.vertex_count
    return not _run(_EdgeState(h, r), order, r, colors, stop_at_forced=True)


def two_phase_color(
    h: Hypergraph, t: BirthTimeAssignment, r: int = 2, p: float = 0.5
) -> GreedyTrace:
    """Precolor the outer birth-time intervals, then run greedy on the middle.

    Phase 1 colors t(v) < (1-p)/2 with color 1 and t(v) >= (1+p)/2 with
    color 2, ignoring edges. Phase 2 colors the remaining vertices in birth
    order under the greedy rule with phase-1 colors fixed.
    """
    if r != 2:
        raise ValueError("two-phase coloring is defined for r = 2 only")
    part = IntervalPartition(p)
    if len(t) != h.vertex_count:
        raise ValueError(f"birth times cover {len(t)} of {h.vertex_count} vertices")
    h.require_valid()
    lo, hi = part.lo, part.hi
    colors = [0] * h.vertex_count
    state = _EdgeState(h, r)
    precolored: list[int] = []
    middle: list[int] = []
    for v in t.order():
        time = t[v]
        if time < lo:
            colors[v] = 1
        elif time >= hi:
            colors[v] = 2
        else:
            middle.append(v)
            continue
        precolored.append(v)
        state.place(v, colors[v])
    forced = _run(state, middle, r, colors)
    return GreedyTrace(Coloring(colors, r), tuple(forced), tuple(precolored + middle))


def equitable_partition_color(h: Hypergraph, rng_seed, r: int) -> Coloring:
    """Uniformly random coloring with class sizes differing by at most one."""
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    rng = np.random.default_rng(rng_seed)
    q, s = divmod(h.vertex_count, r)
    labels = [j for j in range(1, r + 1) for _ in range(q)]
    if s:
        # which colors get the extra vertex is itself uniform
        labels.extend(int(c) + 1 for c in rng.choice(r, size=s, replace=False))
    labels = [labels[i] for i in rng.permutation(h.vertex_count)]
    return Coloring(labels, r)
