"""Conflict structures of a birth-time assignment.

First/last vertices, dangerous and conflicting edge pairs, r-chains,
edge lengths and short edges, and attribution of conflicting pairs to the
three-interval partition used in the two-color analysis. Everything here is
exact for the given assignment; probabilities live in :mod:`hgcolor.bounds`.
First/last vertices have one routine, the scalar :func:`_firsts_lasts`;
the Monte Carlo engine reads them off a batch's processing positions.

Lemma: the conflicting r-chains are exactly the walks e_1, ..., e_r with
last(e_i) = first(e_{i+1}) and e_{i+1} != e_i whose middle edges
e_2..e_{r-1} are not singletons. Proof: in the (birth time, index) order
an edge opens at its first vertex and closes at its last, so along a walk
each e_i lies between close(e_{i-1}) = open(e_i) and close(e_i). A middle
edge opens strictly before it closes, so e_i and e_{i+1} share only their
link, and for j >= i + 2 all of e_i comes at or before close(e_i) <
close(e_{i+1}) <= open(e_j): the two are disjoint. Conversely, a singleton
{v} in the middle would be the link on both its sides, so its neighbours
would meet at v. A failed greedy run has such a walk: on an instance with
no singleton edge, the first vertex found with every color 1..r blocked
closes an edge e_r whose other vertices all have color r. The first of
them took r with r - 1 blocked, so it closes an edge e_{r-1} whose other
vertices have color r - 1, and so on down to e_1: a conflicting r-chain.
Forced-vertex certificate: that run also has an edge e with at least r
edges closing where e closes, at least r - 1 closing at each vertex of e,
and one closing where e opens (meets[e] > 0 in the engine). Proof: take
e = e_r. Its last vertex v has its r colors blocked by r edges closing at
v (an edge blocks one color). Every other vertex u of e took r unforced,
so 1..r-1 were blocked at u by r - 1 edges closing at u, and first(e) is
such a u. The Monte Carlo engine sweeps only the trials with this
certificate, or, when it counts chains, the trials with a conflicting
walk. It counts those walks without a meet test. Its two scalar references,
:func:`conflicting_chains` (the last -> first matches) and the filter over
:func:`enumerate_chains` (every single-vertex meet, the scan
:func:`dangerous_pairs` reads), share one depth-first walk,
:func:`_walk_chains`, which tests disjointness directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import ChainCeilingError
from .hypergraph import BirthTimeAssignment, Hypergraph

DEFAULT_CHAIN_CEILING = 10_000_000


@dataclass(frozen=True)
class Chain:
    """Edges f_1..f_r with |f_i ∩ f_{i+1}| = 1 (link x_i) and all other
    pairs disjoint."""

    edges: tuple[int, ...]
    links: tuple[int, ...]

    def __post_init__(self):
        if len(self.links) != len(self.edges) - 1:
            raise ValueError("a chain of r edges has r-1 links")


@dataclass(frozen=True)
class IntervalPartition:
    """[0,1] split into B = [0,(1-p)/2), P = [(1-p)/2,(1+p)/2), R = [(1+p)/2,1]."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0,1), got {self.p}")

    @property
    def lo(self) -> float:
        return (1.0 - self.p) / 2.0

    @property
    def hi(self) -> float:
        return (1.0 + self.p) / 2.0

    def locate(self, x: float) -> str:
        if x < self.lo:
            return "B"
        if x < self.hi:
            return "P"
        return "R"


def first_last(edge: Iterable[int], t: BirthTimeAssignment) -> tuple[int, int]:
    """The edge's vertices with smallest and largest birth time (index ties
    broken ascending)."""
    (first,), (last,) = _firsts_lasts([sorted(edge)], t.times)
    return first, last


def edge_length(edge: Iterable[int], t: BirthTimeAssignment) -> float:
    """Span of the edge's birth times (max - min)."""
    times = [t[v] for v in edge]
    if not times:
        raise ValueError("empty edge has no length")
    return max(times) - min(times)


def dangerous_pairs(h: Hypergraph) -> list[tuple[int, int]]:
    """All ordered pairs of distinct edges sharing exactly one vertex."""
    return [(i, j) for i, meets in enumerate(_single_meets(h.edge_sets)) for j, _ in meets]


def _single_meets(sets: Sequence[frozenset[int]]) -> list[list[tuple[int, int]]]:
    """For each edge, the (edge, shared vertex) of every other edge that
    shares exactly one vertex with it, in ascending edge order."""
    return [
        [(j, next(iter(a & b))) for j, b in enumerate(sets) if i != j and len(a & b) == 1]
        for i, a in enumerate(sets)
    ]


def _firsts_lasts(
    edges: Sequence[Sequence[int]], times: Sequence[float]
) -> tuple[list[int], list[int]]:
    """First and last vertex of each sorted edge under `times`."""
    firsts, lasts = [], []
    for e in edges:
        if not e:
            raise ValueError("empty edge has no first or last vertex")
        fv = lv = e[0]
        ft = lt = times[fv]
        for u in e[1:]:
            # e is sorted, so on ties the earlier vertex stays first
            # and the later one becomes last
            tu = times[u]
            if tu < ft:
                ft, fv = tu, u
            if tu >= lt:
                lt, lv = tu, u
        firsts.append(fv)
        lasts.append(lv)
    return firsts, lasts


def conflicting_pairs(h: Hypergraph, t: BirthTimeAssignment) -> list[tuple[int, int]]:
    """Ordered pairs (e, f) where the last vertex of e is the first vertex
    of f. Such pairs share exactly that vertex, so they are dangerous: they
    are the conflicting 2-chains."""
    # there are fewer than m^2 pairs, so the ceiling never trips
    return [c.edges for c in conflicting_chains(h, t, 2, h.edge_count**2)]


def enumerate_chains(
    h: Hypergraph, r: int, ceiling: int = DEFAULT_CHAIN_CEILING
) -> Iterator[Chain]:
    """Yield every r-chain exactly once (edges ordered, indices distinct).

    Raises ChainCeilingError once more than `ceiling` chains have been
    produced; never truncates silently.
    """
    if r < 2:
        raise ValueError(f"chains need r >= 2 edges, got {r}")
    sets = h.edge_sets
    yield from _walk_chains(sets, _single_meets(sets), r, ceiling)


def conflicting_chains(
    h: Hypergraph,
    t: BirthTimeAssignment,
    r: int,
    ceiling: int = DEFAULT_CHAIN_CEILING,
) -> list[Chain]:
    """The r-chains that are conflicting under t: the last vertex of each
    edge is the first vertex of its successor.

    Enumerated directly by following last->first matches (equivalent to
    filtering enumerate_chains, but pruned by the conflict condition).
    """
    if r < 2:
        raise ValueError(f"chains need r >= 2 edges, got {r}")
    firsts, lasts = _firsts_lasts(h.edges, t.times)
    by_first: dict[int, list[int]] = {}
    for j, v in enumerate(firsts):
        by_first.setdefault(v, []).append(j)
    # i and j share only v: a second shared vertex would come before
    # last(i) = v and after first(j) = v in the (time, index) order
    nexts = [[(j, v) for j in by_first.get(v, ()) if j != i] for i, v in enumerate(lasts)]
    return list(_walk_chains(h.edge_sets, nexts, r, ceiling))


def _walk_chains(
    sets: Sequence[frozenset[int]], nexts: list[list[tuple[int, int]]], r: int, ceiling: int
) -> Iterator[Chain]:
    """Every r-chain whose steps are taken from `nexts`: `nexts[e]` lists
    (edge, link) pairs of edges that meet e in the link alone, and a chain
    ending in e grows by one of them when the new edge is disjoint from
    every earlier edge but e. Raises ChainCeilingError on the chain past
    `ceiling`."""
    if r > len(sets):  # a chain's r edges are distinct
        return
    count = 0
    path = [0] * r
    links = [0] * (r - 1)

    def extend(depth: int) -> Iterator[Chain]:
        nonlocal count
        for j, link in nexts[path[depth - 1]]:
            if any(path[k] == j or sets[path[k]] & sets[j] for k in range(depth - 1)):
                continue
            path[depth] = j
            links[depth - 1] = link
            if depth < r - 1:
                yield from extend(depth + 1)
                continue
            count += 1
            if count > ceiling:
                raise ChainCeilingError(ceiling)
            yield Chain(tuple(path), tuple(links))

    for start in range(len(sets)):
        path[0] = start
        yield from extend(1)


def short_edges(
    h: Hypergraph, t: BirthTimeAssignment, r: int, p: float
) -> list[int]:
    """Edges whose birth-time span is below (1-p)/r."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0,1), got {p}")
    threshold = (1.0 - p) / r
    return [
        ei for ei, e in enumerate(h.edges) if edge_length(e, t) < threshold
    ]


@dataclass(frozen=True)
class IntervalConflictCounts:
    b: int
    p: int
    r: int

    @property
    def total(self) -> int:
        return self.b + self.p + self.r


def classify_conflicts_by_interval(
    h: Hypergraph, t: BirthTimeAssignment, partition: IntervalPartition
) -> IntervalConflictCounts:
    """Count conflicting pairs by the interval holding their common vertex."""
    counts = {"B": 0, "P": 0, "R": 0}
    # a conflicting pair is a 2-chain linked at the common vertex
    for c in conflicting_chains(h, t, 2, h.edge_count**2):
        counts[partition.locate(t[c.links[0]])] += 1
    return IntervalConflictCounts(counts["B"], counts["P"], counts["R"])


def link_interval_bounds(i: int, r: int, p: float) -> tuple[float, float]:
    """Interval [(i - i·p)/r, (i + (r-i)·p)/r] that must contain the i-th
    link's birth time in any conflicting chain with no short edge."""
    if not 1 <= i <= r - 1:
        raise ValueError(f"link index {i} outside 1..{r - 1}")
    return (i - i * p) / r, (i + (r - i) * p) / r
