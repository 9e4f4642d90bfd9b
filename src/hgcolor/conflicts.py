"""Conflict structures of a birth-time assignment.

First/last vertices, dangerous and conflicting edge pairs, r-chains,
edge lengths and short edges, and attribution of conflicting pairs to the
three-interval partition used in the two-color analysis. Everything here is
exact for the given assignment; probabilities live in :mod:`hgcolor.bounds`.
First/last vertices have one routine, the scalar :func:`_firsts_lasts`;
the Monte Carlo engine reads them off a batch's processing positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

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
    sets = h.edge_sets
    m = len(sets)
    out = []
    for i in range(m):
        for j in range(m):
            if i != j and len(sets[i] & sets[j]) == 1:
                out.append((i, j))
    return out


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
    m = len(sets)
    # neighbour lists restricted to |intersection| == 1, with the link vertex
    neighbours: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i != j:
                inter = sets[i] & sets[j]
                if len(inter) == 1:
                    neighbours[i].append((j, next(iter(inter))))
    count = 0
    path = [0] * r
    links = [0] * (r - 1)

    def extend(depth: int) -> Iterator[Chain]:
        nonlocal count
        for (j, link) in neighbours[path[depth - 1]]:
            ok = True
            for k in range(depth - 1):
                if path[k] == j or sets[path[k]] & sets[j]:
                    ok = False
                    break
            if not ok:
                continue
            path[depth] = j
            links[depth - 1] = link
            if depth == r - 1:
                count += 1
                if count > ceiling:
                    raise ChainCeilingError(ceiling)
                yield Chain(tuple(path), tuple(links))
            else:
                yield from extend(depth + 1)

    for start in range(m):
        path[0] = start
        yield from extend(1)


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
    return _chains_from(h.edge_sets, firsts, lasts, r, ceiling)


def _chains_from(
    sets: Sequence[frozenset[int]],
    firsts: Sequence[int],
    lasts: Sequence[int],
    r: int,
    ceiling: int,
) -> list[Chain]:
    """The conflicting r-chains given each edge's first and last vertex."""
    by_first: dict[int, list[int]] = {}
    for fi, v in enumerate(firsts):
        by_first.setdefault(v, []).append(fi)
    out: list[Chain] = []
    path = [0] * r
    links = [0] * (r - 1)

    def extend(depth: int) -> None:
        prev = path[depth - 1]
        v = lasts[prev]
        # prev and j share only v: a second shared vertex would come before
        # last(prev) = v and after first(j) = v in the (time, index) order
        for j in by_first.get(v, ()):
            if j == prev:
                continue
            ok = True
            for k in range(depth - 1):
                if path[k] == j or sets[path[k]] & sets[j]:
                    ok = False
                    break
            if not ok:
                continue
            path[depth] = j
            links[depth - 1] = v
            if depth == r - 1:
                if len(out) >= ceiling:
                    raise ChainCeilingError(ceiling)
                out.append(Chain(tuple(path), tuple(links)))
            else:
                extend(depth + 1)

    for start in range(len(sets)):
        path[0] = start
        extend(1)
    return out


def _chains_batch(
    h: Hypergraph,
    firsts: np.ndarray,
    lasts: np.ndarray,
    r: int,
    ceiling: int,
    cap: int,
) -> tuple[np.ndarray, np.ndarray]:
    """_chains_from for each row of `firsts` and `lasts` (trials x edges
    arrays of first and last vertices), for r >= 2: each row's chain count
    and whether it exceeds `ceiling`, where _chains_from raises. A flagged
    row counts 0 chains.

    The walks of all rows grow together, one edge per step, from every edge:
    a walk ending in edge e of row i takes each edge of row i first at
    last(e), except e itself and the edges that share a vertex with an
    earlier edge of the walk. That test takes memory linear in the edges:
    a 64-bit mask per edge rules out most disjoint pairs, and the vertices
    of the rest are compared through `h.edge_matrix`. The steps run depth
    first, each in sub-batches of at most min(cap / (r + edge width),
    ceiling + 1) candidate extensions (or one walk's, if it has more), so a
    step's walk and vertex arrays hold at most `cap` entries; the walks of
    a row are dropped once its count passes the ceiling, so a row with
    plentiful chains stops soon after.
    """
    trials, m = firsts.shape
    v_count = h.vertex_count
    # the vertices of every edge, one array per edge matrix column (rows
    # are padded with their edge's first vertex, which meets nothing new)
    columns = list(h.edge_matrix.T.copy())
    # bit v % 64 set for each vertex v of the edge
    masks = np.bitwise_or.reduce(
        np.left_shift(np.uint64(1), (h.edge_matrix % 64).astype(np.uint64)), axis=1
    )
    rows = np.arange(trials)[:, None]
    # CSR over (row, vertex): the edges of row i first at v are
    # members[starts[k] : starts[k] + sizes[k]], k = i * v_count + v
    sizes = np.bincount((firsts + rows * v_count).ravel(), minlength=trials * v_count)
    starts = np.cumsum(sizes) - sizes
    members = np.argsort(firsts, axis=1).astype(np.int32).ravel()
    # the CSR key a walk ending in edge e of row i continues from
    nxt = (lasts + rows * v_count).ravel()
    counts = np.zeros(trials, dtype=np.int64)
    flagged = np.zeros(trials, dtype=bool)
    cap = min(cap // (r + len(columns)), ceiling + 1)

    def longer(row: np.ndarray, path: list[np.ndarray]):
        """The walks (row, path) one edge longer, sub-batch by sub-batch;
        at the last step only their rows."""
        if flagged.any():
            keep = ~flagged[row]
            row, path = row[keep], [e[keep] for e in path]
        key = nxt[row * m + path[-1]]
        size, shift = sizes[key], starts[key]
        ends = np.cumsum(size)
        # candidate g (of all the step's candidates) sits at members[g + shift]
        shift -= ends - size
        lo = 0
        while lo < len(row):
            base = ends[lo] - size[lo]
            hi = max(lo + 1, int(np.searchsorted(ends, base + cap, side="right")))
            src = np.repeat(np.arange(lo, hi, dtype=np.int32), size[lo:hi])
            j = members[np.arange(base, ends[hi - 1]) + shift[src]]
            keep = j != path[-1][src]
            src, j = src[keep], j[keep]
            for earlier in path[:-1]:
                earlier = earlier[src]
                # edges whose masks share no bit are disjoint; compare the
                # vertices of the rest
                maybe = np.flatnonzero(masks[earlier] & masks[j])
                earlier_vertices = [c[earlier[maybe]] for c in columns]
                meets = np.zeros(len(maybe), dtype=bool)
                for w in (c[j[maybe]] for c in columns):
                    for u in earlier_vertices:
                        meets |= u == w
                keep = np.ones(len(j), dtype=bool)
                keep[maybe[meets]] = False
                src, j = src[keep], j[keep]
            yield row[src], (None if len(path) == r - 1 else [e[src] for e in path] + [j])
            lo = hi

    # depth first: a stack of the unfinished steps, the deepest on top (a
    # recursive closure would keep these arrays alive in a reference cycle
    # until the cyclic garbage collector runs)
    stack = [longer(
        np.repeat(np.arange(trials, dtype=np.int32), m),
        [np.tile(np.arange(m, dtype=np.int32), trials)],
    )]
    while stack:
        for row, path in stack[-1]:
            if path is None:
                counts += np.bincount(row, minlength=trials)
                flagged = counts > ceiling
            elif len(row):
                stack.append(longer(row, path))
                break
        else:
            stack.pop()
    return np.where(flagged, 0, counts), flagged


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
