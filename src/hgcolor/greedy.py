"""Random greedy r-coloring and its variants.

The driver processes vertices in ascending birth time and gives each vertex
the smallest color that does not complete a monochromatic edge at that
moment (an edge can only become monochromatic when its last vertex is
colored). When every color is blocked the vertex takes color r and is
recorded as forced. Variants: an explicit-permutation driver, a two-phase
precolor-then-greedy scheme for two colors, and a random equitable-partition
baseline.

That rule lives in the private edge state ``_EdgeState``: every scalar
sweep here and the exact oracles in :mod:`hgcolor.oracle` decide blocked
colors and update edges through it. The Monte Carlo trial engine runs
``_succeeds_closing`` for many processing orders at once, keeping one
color code per processing position (color c is the bit 1 << (c - 1), in
int64 for up to 62 colors and in Python ints past that). It reads each
edge once, when its last vertex is colored and every other vertex already
has its final color; the edge blocks a color exactly when those codes OR
to that one color's bit. :func:`greedy_succeeds` is its reference in the
tests.
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


class _EdgeState:
    """Per-edge state of a partial coloring: the color the edge has seen
    (_NONE, _MIXED or one color j) and how many of its vertices are
    uncolored.

    A color j is blocked for v exactly when v is the last uncolored vertex of
    an edge whose other vertices all have color j; an edge made of v alone
    blocks every color. Blocked sets are bitmasks with bit j for color j.
    """

    __slots__ = ("incidence", "seen", "left", "all_blocked")

    def __init__(self, h: Hypergraph, r: int):
        self.incidence = h.incidence
        self.seen = [_NONE] * h.edge_count
        self.left = list(h.edge_sizes)
        self.all_blocked = ((1 << r) - 1) << 1

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

    def save(self, v: int) -> list[int]:
        """The seen colors of v's edges, for a later unplace(v, saved)."""
        seen = self.seen
        return [seen[ei] for ei in self.incidence[v]]

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

    def unplace(self, v: int, saved: list[int]) -> None:
        """Undo place(v, j), given save(v) taken just before it."""
        seen, left = self.seen, self.left
        for ei, c in zip(self.incidence[v], saved):
            left[ei] += 1
            seen[ei] = c


# Color c has the code 1 << (c - 1). Within a trial no color above r is
# blocked before its first forced vertex, so the first color past r is
# exactly r + 1, code 1 << r, which int64 holds up to r = 62. Later codes of
# a trial that has failed may wrap, but they cannot lower that trial's max.
# Past 62 colors the codes are Python ints in an object array.
_INT64_COLORS = 62


def _lowest_free(codes: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The code of the lowest free color per vertex being colored.

    `codes` holds the codes of the vertices of the edges the vertices close
    (one column per edge, those of one vertex consecutive from its entry in
    `starts`). The closing vertex is uncolored (code 0) and every other
    vertex of an edge is colored, so the edge blocks a color exactly when
    its codes OR to that color's single bit.
    """
    seen = np.bitwise_or.reduce(codes, axis=0)
    blocked = np.bitwise_or.reduceat(np.where(seen & (seen - 1), 0, seen), starts)
    return ~blocked & (blocked + 1)


def _succeeds_closing(
    h: Hypergraph, edge_pos: np.ndarray, closing: np.ndarray, r: int
) -> np.ndarray:
    """greedy_succeeds for many processing orders at once, given the
    positions (trial i's k-th vertex is at i * V + k) of every edge's
    vertices, one (trials x edges) layer per edge matrix column, and
    their largest, the closing positions.

    A color is blocked for a vertex only through an edge that the vertex
    closes, and then every other vertex of the edge has its final color. So
    the sweep reads each edge once, at its closing position, with the
    entries (trial, edge) sorted by rank (the position within the trial).
    A vertex that closes no edge takes color 1, written before the sweep.
    Colors are kept as codes (color c is 1 << (c - 1)) in one array
    indexed by position, and a trial succeeds when its largest code is
    below 1 << r. A vertex closes at most its degree of edges, so no r past
    the largest degree forces a vertex, and r is first cut to the largest
    degree + 1; the codes are int64 up to _INT64_COLORS colors and Python
    ints past it. An edge of one vertex blocks every color, so any
    singleton edge fails every trial.
    """
    trials, m = closing.shape
    v_count = h.vertex_count
    if 1 in h.edge_sizes:
        return np.zeros(trials, dtype=bool)
    if not m:
        return np.ones(trials, dtype=bool)
    r = min(r, max(map(len, h.incidence)) + 1)
    # a stable sort of 16-bit keys is a radix sort; entries closing at one
    # rank stay in (trial, edge) order
    offsets = np.arange(0, trials * v_count, v_count, dtype=np.int32)[:, None]
    keys = (closing - offsets).astype(np.int16 if v_count <= 1 << 15 else np.int32).ravel()
    entry = np.argsort(keys, kind="stable")
    rank, at_closing = keys[entry], closing.ravel()[entry]
    # column i * m + e: the positions of edge e's vertices in trial i, where
    # they keep their codes (taken per rank below, so no sorted copy of the
    # whole batch is made)
    cells = edge_pos.reshape(len(edge_pos), -1)
    # one group of entries per vertex being colored, at its closing position
    first = np.ones(len(entry), dtype=bool)
    first[1:] = at_closing[1:] != at_closing[:-1]
    group = np.flatnonzero(first)
    target, group_rank = at_closing[group], rank[group]
    # where each rank's entries and groups end, and each group's first
    # entry counted from its rank's first
    ranks = np.arange(v_count, dtype=rank.dtype)
    entry_end = np.searchsorted(rank, ranks, side="right")
    group_end = np.searchsorted(group_rank, ranks, side="right")
    local = group - np.searchsorted(rank, group_rank)
    codes = np.ones(trials * v_count, dtype=np.int64 if r <= _INT64_COLORS else object)
    codes[target] = 0
    e0 = g0 = 0
    for e1, g1 in zip(entry_end.tolist(), group_end.tolist()):
        if g1 == g0:
            continue
        at = cells.take(entry[e0:e1], axis=1)
        codes[target[g0:g1]] = _lowest_free(codes.take(at), local[g0:g1])
        e0, g0 = e1, g1
    return codes.reshape(trials, v_count).max(axis=1) < 1 << r


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
            choice = r
        else:
            choice = _first_free(blocked)
        colors[v] = choice
        place(v, choice)
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
