"""Seeded, reproducible Monte Carlo harness for greedy coloring trials.

Trial i always draws its birth times from a child generator derived from
(master seed, i), so results are identical for any worker count; aggregates
are integer sums, which merge exactly in any order. Proportions carry 95%
and 99% Wilson intervals (well behaved at estimates of 0 and 1, which
non-colorable and trivially colorable instances produce).

Trial i's stream is that of ``default_rng([seed, i])``, produced without
building that object: :func:`_trial_generators` runs numpy's SeedSequence
hash over the 32-bit words of seed and i for a chunk of trials at once, in
uint32 numpy arithmetic, derives each trial's PCG64 state the way PCG64
seeds itself, and loads it, with no buffered 32-bit draw, into one reused
Generator. The tests compare its streams with default_rng's (numpy 2.4.6
when written). The equitable baseline draws through it too: each trial
fills one row of a (trials x vertices) label array with the greedy module's
label draw, and one gather over the edge matrix tests a whole batch.

Trials run in batches: the rows of one (trials x vertices) array of birth
times, row i still drawn from (master seed, i). :meth:`_TrialEngine.run`
calls its stages in order, each a method from arrays to arrays.
``_positions`` sorts each row: trial i's k-th vertex in birth-time order
sits at position i * V + k. ``_edge_positions`` gathers the positions of
every edge's vertices, once per batch; their least and greatest are the
edge's opening and closing positions, the places of its first and last
vertex. Conflicting chains are walks that continue where their last edge
closes with an edge that opens there. ``_meets`` counts their first step,
the two-edge walks ending in each edge, whose sum is the pair count, and
``_chains`` extends it by a per-position sum per step, until no walk is
left. Those counts are exact below ``walk_limit`` = (2^63 - 1) // (m + 1),
which the engine derives from m; a trial that reaches it counts 0 chains
and is reported in ``chain_ceiling_trials``. The greedy sweep,
``_succeeds``, reads each edge once, at its closing position, in entries
sorted by rank: the vertex being colored holds the code -1, every bit set,
so the AND of an edge's codes is the one color the edge blocks, or 0. It
runs only on the trials that can fail: by the lemmas in
:mod:`hgcolor.conflicts`, on an instance with no singleton edge a trial
that fails has a conflicting r-chain and the forced-vertex certificate, and
every other trial succeeds. ``_certified`` reads the certificate off the
closing counts of ``_meets``; when chains are counted, the trials with a
chain, which the count gives at no further cost, are swept instead.
``_spans`` reads the birth times in processing order for the short edges
and B/P/R, which splits the pairs by the interval of the vertex where each
edge opens. Each trial's counts are the columns of
:class:`_Column`; :func:`hgcolor.greedy.greedy_succeeds` and the
per-assignment functions of :mod:`hgcolor.conflicts` are their references
in the tests. Pairs are counted in every trial, short edges whenever there
is a p, B/P/R when there is a p and r = 2, and chains on request. A batch
is capped by a fixed element budget, so memory does not grow with the
trial count, and reports do not depend on how trials split into batches.

:func:`monte_carlo` builds one :class:`_TrialEngine` per call and splits the
trials into contiguous ranges. With one worker it runs them all in-process.
With more, it times a first share in-process, at least one batch, and starts
a pool for the rest only if spreading the rest over the workers at the
share's pace would save more than ``_POOL_OVERHEAD_S``, a fixed figure for a
pool's overhead: whether a call forks reads that call alone. Each pool
worker gets a pickled copy of the parent's engine, which holds the arrays
its batches read and not the hypergraph, and one range.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from dataclasses import dataclass
from enum import IntEnum
from math import ceil, sqrt

import numpy as np

from .bounds import reference_p
from .conflicts import IntervalPartition
from .greedy import _equitable_labels, _usable_colors
from .hypergraph import Hypergraph, uniformity

# the standard normal quantiles at 0.975 and 0.995 (scipy's ndtri, to the bit)
Z95 = 1.959963984540054
Z99 = 2.5758293035489004


def wilson_interval(successes: int, trials: int, z: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("need at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside 0..{trials}")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = (z / denom) * sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    # the endpoints are exact at degenerate counts; keep them so
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def default_p(h: Hypergraph) -> float | None:
    """reference_p(n) for an n-uniform instance, else None."""
    cert = uniformity(h)
    return None if cert is None else reference_p(cert.n)


@dataclass(frozen=True)
class EstimateReport:
    """A bare success-proportion estimate with Wilson intervals."""

    trials: int
    successes: int
    estimate: float
    wilson95: tuple[float, float]
    wilson99: tuple[float, float]


def _estimate(successes: int, trials: int) -> EstimateReport:
    return EstimateReport(
        trials=trials,
        successes=successes,
        estimate=successes / trials,
        wilson95=wilson_interval(successes, trials, Z95),
        wilson99=wilson_interval(successes, trials, Z99),
    )


@dataclass(frozen=True)
class MonteCarloReport:
    trials: int
    successes: int
    r: int
    p: float | None
    vertex_count: int
    edge_count: int
    uniformity_n: int | None
    estimate: float
    wilson95: tuple[float, float]
    wilson99: tuple[float, float]
    total_conflicting_pairs: int
    mean_conflicting_pairs: float
    total_short_edges: int | None
    mean_short_edges: float | None
    interval_counts: tuple[int, int, int] | None
    total_conflicting_chains: int | None
    mean_conflicting_chains: float | None
    chain_ceiling_trials: int


# A batch's largest array holds (trials in the batch) x (edges x largest
# edge size) positions; this caps that product, so memory stays flat however
# many trials a call asks for.
_BATCH_ELEMENTS = 1 << 19


class _Column(IntEnum):
    """The counts one trial reports: the columns of _TrialEngine.run, in
    order, which monte_carlo sums over the trials."""

    SUCCESS = 0
    PAIRS = 1
    SHORT = 2
    B = 3
    P_MID = 4
    R_INT = 5
    CHAINS = 6
    CEILING = 7  # 1 when the chain count reached walk_limit, past the exact range


# Color c has the code 1 << (c - 1). Within a trial no color above r is
# blocked before its first forced vertex, so the first color past r is
# exactly r + 1, code 1 << r, which int64 holds up to r = 62. Later codes of
# a trial that has failed may wrap, but they cannot lower that trial's max.
# Past 62 colors the codes are Python ints in an object array.
_INT64_COLORS = 62


class _TrialEngine:
    """Per-hypergraph precomputation for batches of trials: the arrays the
    batches read, not the hypergraph, so pool workers receive little."""

    def __init__(self, h: Hypergraph, r: int, p: float | None, count_chains: bool):
        self.r = r
        self.count_chains = count_chains
        self.v_count = h.vertex_count
        self.short_threshold = None if p is None else (1.0 - p) / r
        # the report keeps B/P/R counts only at r = 2
        self.part_lo = self.part_hi = None
        if p is not None and r == 2:
            part = IntervalPartition(p)
            self.part_lo, self.part_hi = part.lo, part.hi
        # a singleton edge is its own first and last: (e, e) is not a pair,
        # and it never sits mid-chain
        self.singleton_edges = np.fromiter(h.edge_sizes, np.intp, h.edge_count) == 1
        # walk counts saturate here, so m of them sum in int64
        self.walk_limit = (2**63 - 1) // (h.edge_count + 1)
        # row k holds the k-th vertex of every edge
        self.columns = np.ascontiguousarray(h.edge_matrix.T)
        per_trial = max(h.edge_matrix.size, self.v_count, 1)
        self.batch = max(1, _BATCH_ELEMENTS // per_trial)
        # the sweep's outcome where none is needed: an edge of one vertex
        # blocks every color, and with no edges nothing is blocked
        self.verdict = None
        if self.singleton_edges.any():
            self.verdict = False
        elif not h.edge_count:
            self.verdict = True
        # a trial succeeds when its codes stay below 1 << colors
        colors = _usable_colors(h, r)
        self.code_type = np.int64 if colors <= _INT64_COLORS else object
        self.code_limit = 1 << colors
        # the ranks within a trial, as 16-bit sort keys where they fit
        key_type = np.int16 if self.v_count <= 1 << 15 else np.int32
        self.ranks = np.arange(self.v_count, dtype=key_type)

    def run(self, times: np.ndarray) -> np.ndarray:
        """Trials given as rows of birth times (trials x vertices): one row
        of counts each, in the columns of _Column, from the stages below."""
        out = np.zeros((len(times), len(_Column)), dtype=np.int64)
        position, flat = self._positions(times)
        edge_pos, opening, closing = self._edge_positions(position)
        n_close, meets, out[:, _Column.PAIRS] = self._meets(opening, closing)
        # a row can fail only with a conflicting r-chain and with the
        # forced-vertex certificate; a flagged row has more chains than it
        # counts exactly
        if self.count_chains:
            out[:, _Column.CHAINS], out[:, _Column.CEILING] = self._chains(meets, opening, closing)
            can_fail = np.flatnonzero(out[:, _Column.CHAINS] | out[:, _Column.CEILING])
        else:
            can_fail = self._certified(n_close, meets, edge_pos, closing)
        out[:, _Column.SUCCESS] = self._succeeds(edge_pos, closing, can_fail)
        del edge_pos  # the batch's largest array; free before the spans
        if self.short_threshold is not None:
            out[:, _Column.SHORT], b, r_int = self._spans(times, flat, opening, closing, meets)
            if self.part_lo is not None:
                # the three intervals cover [0, 1), so P is the pairs left over
                out[:, _Column.B], out[:, _Column.R_INT] = b, r_int
                out[:, _Column.P_MID] = out[:, _Column.PAIRS] - b - r_int
        return out

    def _positions(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each vertex's absolute position, trial * V + rank, with ties broken
        by ascending index (int32: a batch holds at most max(_BATCH_ELEMENTS,
        V) of them), and flat[k], the flat index (trial * V + vertex) of the
        vertex at position k."""
        trials, v_count = times.shape
        orders = np.argsort(times, axis=1, kind="stable")
        size = trials * v_count
        flat = (orders + np.arange(trials, dtype=np.int32)[:, None] * v_count).ravel()
        position = np.empty(size, dtype=np.int32)
        position[flat] = np.arange(size, dtype=np.int32)
        return position.reshape(trials, v_count), flat

    def _edge_positions(self, position: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The positions of every edge's vertices, one (trials x edges) layer
        per edge matrix column, and their least and greatest, where each edge
        opens and closes (`initial` defines them on an instance without edges)."""
        width, m = self.columns.shape
        edge_pos = np.empty((width, len(position), m), dtype=np.int32)
        # the columns hold valid vertex ids, so take may write `out` unbuffered
        for layer, column in zip(edge_pos, self.columns):
            position.take(column, axis=1, out=layer, mode="clip")
        return edge_pos, edge_pos.min(axis=0, initial=position.size), edge_pos.max(axis=0, initial=0)

    def _meets(self, opening: np.ndarray, closing: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edges closing at each position, the two-edge walks ending in
        each edge, the edges that close where it opens less itself if it is a
        singleton ((e, e) is no pair), and their row sums, the pair counts."""
        n_close = np.bincount(closing.ravel(), minlength=len(closing) * self.v_count)
        meets = n_close.take(opening)
        meets[:, self.singleton_edges] -= 1
        return n_close, meets, meets.sum(axis=1)

    def _certified(self, n_close: np.ndarray, meets: np.ndarray, edge_pos: np.ndarray,
                   closing: np.ndarray) -> np.ndarray:
        """The rows with an edge e that has the forced-vertex certificate of
        :mod:`hgcolor.conflicts`: meets[e] > 0, at least r edges closing at
        e's closing position and at least r - 1 at each vertex of e, given
        the edges closing at each position. On an instance with no singleton
        edge every failed row has one; with a `verdict` none is swept, so
        none is tested. Read sparsely, over the edges with a meet."""
        if self.verdict is not None:
            return np.empty(0, dtype=np.intp)
        entry = np.flatnonzero(meets)  # flat (trial * m + edge) indices
        entry = entry[n_close.take(closing.ravel().take(entry)) >= self.r]
        at_vertices = n_close.take(edge_pos.reshape(len(edge_pos), -1).take(entry, axis=1))
        entry = entry[at_vertices.min(axis=0) >= self.r - 1]
        # a mask, not a sort: where most rows fail, thousands of entries pass
        certified = np.zeros(len(meets), dtype=bool)
        certified[entry // meets.shape[1]] = True
        return np.flatnonzero(certified)

    def _succeeds(self, edge_pos: np.ndarray, closing: np.ndarray, rows: np.ndarray) -> np.ndarray | bool:
        """greedy_succeeds for each trial of a batch, given the positions of
        every edge's vertices, their largest and the rows that can fail.

        On an instance with no singleton edge a failed row has a conflicting
        r-chain and the forced-vertex certificate (the lemmas in
        :mod:`hgcolor.conflicts`), so only `rows`, those with the
        certificate or, when chains are counted, with a chain, are swept,
        and every other row succeeds; `verdict` decides the instances with a
        singleton edge or none, before any row is read. A color is blocked for a vertex only through an edge that
        the vertex closes, and then every other vertex of the edge has its
        final color. So the sweep reads each edge once, at its closing
        position, with the entries (trial, edge) sorted by rank,
        closing - trial * V. Colors are kept as codes in one array indexed by
        position. A vertex that closes no edge takes color 1, written before
        the sweep, and every other vertex holds the sentinel -1 until its
        rank: -1 & x == x, so the AND of an edge's codes, padding copies
        included, is the one color its other vertices share, the color it
        blocks, or 0. A trial succeeds when its largest code is below
        `code_limit`.
        """
        if self.verdict is not None:
            return self.verdict
        trials, m = closing.shape
        # a stable sort of 16-bit keys is a radix sort; entries closing at one
        # rank stay in (trial, edge) order. Entries are flat (trial * m + edge)
        # indices of the whole batch, so the gather is read in place
        keys = (closing[rows] - rows[:, None] * self.v_count).astype(self.ranks.dtype).ravel()
        order = np.argsort(keys, kind="stable")
        rank = keys[order]
        entry = (rows[:, None] * m + np.arange(m)).ravel()[order]
        at_closing = closing.ravel()[entry]
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
        entry_end = np.searchsorted(rank, self.ranks, side="right")
        group_end = np.searchsorted(group_rank, self.ranks, side="right")
        local = group - np.searchsorted(rank, group_rank)
        codes = np.ones(trials * self.v_count, dtype=self.code_type)
        codes[target] = -1
        e0 = g0 = 0
        for e1, g1 in zip(entry_end.tolist(), group_end.tolist()):
            if g1 == g0:
                continue
            # the closing vertex is uncolored (code -1, every bit set) and
            # every other vertex of its edges colored, so an edge's codes
            # AND to the one color it blocks, or to 0
            seen = np.bitwise_and.reduce(codes.take(cells.take(entry[e0:e1], axis=1)), axis=0)
            blocked = np.bitwise_or.reduceat(seen, local[g0:g1])
            codes[target[g0:g1]] = ~blocked & (blocked + 1)  # the lowest free color
            e0, g0 = e1, g1
        success = np.ones(trials, dtype=bool)
        success[rows] = codes.reshape(trials, self.v_count)[rows].max(axis=1) < self.code_limit
        return success

    def _chains(self, meets: np.ndarray, opening: np.ndarray, closing: np.ndarray):
        """Each row's conflicting r-chain count and whether it reaches
        `walk_limit`, past the exact range (a flagged row counts 0),
        extending the two-edge walks `meets`. By the lemma in
        :mod:`hgcolor.conflicts` the chains are the walks of last -> first
        matches with no singleton in the middle: the walks of k + 1 edges
        ending in e are those of k edges ending in an edge that closes where
        e opens, summed per position.
        Each step first zeroes the walks ending in a singleton, and the steps
        stop once no walk is left. Counts saturate at `walk_limit`, so every
        per-position sum and every row sum, of at most m counts, stays below
        2^63. This is exact: a saturated count reaches a row's total only by
        extending, and then the total reaches the limit too.
        """
        walks = np.minimum(meets, self.walk_limit)
        for _ in range(3, self.r + 1):
            walks[:, self.singleton_edges] = 0
            if not walks.any():
                break
            at = np.zeros(len(meets) * self.v_count, dtype=np.int64)
            np.add.at(at, closing.ravel(), walks.ravel())
            walks = at.take(opening)
            np.minimum(walks, self.walk_limit, out=walks)
        counts = walks.sum(axis=1)
        flagged = counts >= self.walk_limit
        return np.where(flagged, 0, counts), flagged

    def _spans(self, times: np.ndarray, flat: np.ndarray, opening: np.ndarray, closing: np.ndarray,
               meets: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """Each row's short edges, and its B and R pairs when there is a
        partition (else None): a pair lies in the interval of the vertex
        where its second edge opens, so each edge's meets count there."""
        sorted_times = times.ravel().take(flat)  # in processing order
        t_open = sorted_times.take(opening)
        short = np.count_nonzero(sorted_times.take(closing) - t_open < self.short_threshold, axis=1)
        if self.part_lo is None:
            return short, None, None
        return (short, np.einsum("ij,ij->i", meets, t_open < self.part_lo),
                np.einsum("ij,ij->i", meets, t_open >= self.part_hi))


# numpy's SeedSequence hash, which default_rng([seed, i]) runs on the 32-bit
# words of seed and then of i: a pool of four words, and hash steps whose
# constants follow fixed chains, init * mult**k mod 2**32
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# PCG64's 128-bit LCG multiplier
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# trials hashed at once by _trial_generators
_SEED_CHUNK = 1 << 10


def _hash_chain(init: int, mult: int, length: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k < length, as a column."""
    chain = [init]
    while len(chain) < length:
        chain.append(chain[-1] * mult & 0xFFFFFFFF)
    return np.array(chain, dtype=np.uint32)[:, None]


# Hash step k xors with a chain's k-th constant and multiplies by the next.
# Entropy of L words takes max(16, 4L) steps of chain A, so the one below
# serves up to 15 words; the pool's 8 output words take 8 steps of chain B.
_HASH_A = _hash_chain(_INIT_A, _MULT_A, 61)
_HASH_B = _hash_chain(_INIT_B, _MULT_B, 9)


def _words(n: int) -> list[int]:
    """The 32-bit words of n, least significant first; 0 is one word."""
    words = [n & 0xFFFFFFFF]
    while n >> 32:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


def _hashmix(values: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """Consecutive hash steps, one per row of the result: each xors with its
    constant in `chain` and multiplies by the next one."""
    x = values ^ chain[:-1]
    x *= chain[1:]
    x ^= x >> 16
    return x


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = x * _MIX_L - y * _MIX_R
    x ^= x >> 16
    return x


def _pcg64_states(seed: int, start: int, stop: int):
    """The PCG64 (state, inc) of default_rng([seed, i]) for i in start..stop - 1,
    which share every 32-bit word of i past the lowest.

    Each column of `entropy` is one i's words, so the SeedSequence hash runs
    once per chunk over all its columns. PCG64 seeds from the hash's four
    64-bit words as inc = (w2 * 2**64 + w3) * 2 + 1 and s = w0 * 2**64 + w1,
    then steps its LCG twice: state = (inc + s) * mult + inc mod 2**128.
    """
    count = stop - start
    seed_words = _words(seed)
    high = start >> 32
    entropy = np.array(seed_words + [0] + (_words(high) if high else []), dtype=np.uint32)
    entropy = entropy[:, None].repeat(count, axis=1)
    low = start & 0xFFFFFFFF
    entropy[len(seed_words)] = np.arange(low, low + count, dtype=np.uint32)
    chain_a = _HASH_A
    if len(chain_a) <= _POOL_SIZE * len(entropy):
        chain_a = _hash_chain(_INIT_A, _MULT_A, _POOL_SIZE * len(entropy) + 1)
    # the pool takes the first four words (zeros past the entropy), and each
    # pool word is then mixed with a hash of every other one
    pool = np.zeros((_POOL_SIZE, count), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:_POOL_SIZE]
    pool = _hashmix(pool, chain_a[: _POOL_SIZE + 1])
    step = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], chain_a[step: step + _POOL_SIZE]))
        step += _POOL_SIZE - 1
    # entropy past the pool's four words is mixed into every pool word
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, chain_a[step: step + _POOL_SIZE + 1]))
        step += _POOL_SIZE
    out = _hashmix(np.concatenate((pool, pool)), _HASH_B)
    # generate_state(4, uint64) reads the 8 words as 4 little-endian pairs
    for s_hi, s_lo, i_hi, i_lo in np.ascontiguousarray(out.T, dtype="<u4").view("<u8").tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        yield ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc


def _trial_generators(seed: int, start: int, stop: int):
    """Trials start..stop - 1 in order, each as one reused Generator loaded
    with the PCG64 state of default_rng([seed, i]), so it draws trial i's
    stream without building that object; use each before the next is
    yielded. Hashes _SEED_CHUNK trials at a time, so memory stays flat."""
    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    state = {"state": 0, "inc": 0}
    # no buffered 32-bit half of a draw passes from one trial to the next
    loaded = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
    lo = start
    while lo < stop:
        hi = min(stop, lo + _SEED_CHUNK, ((lo >> 32) + 1) << 32)
        for state["state"], state["inc"] in _pcg64_states(seed, lo, hi):
            bit_gen.state = loaded
            yield gen
        lo = hi


def _run_range(engine: _TrialEngine, seed: int, start: int, stop: int) -> tuple[int, ...]:
    totals = [0] * len(_Column)
    times = np.empty((engine.batch, engine.v_count))
    gens = _trial_generators(seed, start, stop)
    for lo in range(start, stop, engine.batch):
        block = times[: min(engine.batch, stop - lo)]
        for row, gen in zip(block, gens):
            gen.random(out=row)
        # Python ints: chain counts near the int64 limit would wrap in numpy
        totals = [t + sum(c) for t, c in zip(totals, engine.run(block).T.tolist())]
    return tuple(totals)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Seconds a pool costs beyond its work: start, fork, engine pickle, the
# workers' first calls and stop. On a shared 2-vCPU VM a 2-worker pool of one
# trial per worker took 17-18 ms (median of 21), and pools running 40-300 ms
# of trials lost 18-46 ms to a perfect split of the same work.
_POOL_OVERHEAD_S = 0.045


def _run_pool(
    engine: _TrialEngine, seed: int, start: int, stop: int, size: int
) -> list[tuple[int, ...]]:
    """Trials start..stop split into `size` contiguous ranges, one per pool
    worker; each worker receives a pickled copy of the engine."""
    cuts = np.linspace(start, stop, size + 1, dtype=int)
    jobs = [(engine, seed, int(a), int(b)) for a, b in zip(cuts[:-1], cuts[1:])]
    with _pool_context().Pool(size) as pool:
        return pool.starmap(_run_range, jobs)


def _pool_context():
    """fork where the platform offers it (workers start without re-importing
    anything), else the platform's default start method."""
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


def check_trial_settings(r: int, trials: int, seed: int, p: float | None, workers: int) -> None:
    """Raise ValueError on an out-of-range trial setting; p may be None."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if p is not None and not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0,1), got {p}")
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")


def monte_carlo(
    h: Hypergraph,
    r: int,
    trials: int,
    seed: int,
    p: float | None = None,
    count_chains: bool = False,
    workers: int = 1,
) -> MonteCarloReport:
    """Estimate greedy success probability and conflict-structure counts.

    p defaults to 2 ln(n)/n when the instance is uniform; short-edge and
    B/P/R accounting are skipped when no p is available (B/P/R also
    requires r = 2).
    """
    h.require_valid()
    check_trial_settings(r, trials, seed, p, workers)
    cert = uniformity(h)
    if p is None:
        p = default_p(h)
    engine = _TrialEngine(h, r, p, count_chains)
    # reports do not depend on how the trials split, so the split follows
    # measured cost: time a first share in-process, 1 / (2 * size) of the
    # trials but at least one batch (so a call of one batch runs whole), then
    # hand the rest to a pool only if that saves more than a pool's overhead
    size = min(workers, trials, _usable_cpus())
    done = trials if size == 1 else min(trials, max(ceil(trials / (2 * size)), engine.batch))
    t0 = time.perf_counter()
    parts = [_run_range(engine, seed, 0, done)]
    left = trials - done
    size = min(size, left)
    in_process = (time.perf_counter() - t0) * left / done
    if size > 1 and in_process * (1 - 1 / size) > _POOL_OVERHEAD_S:
        parts += _run_pool(engine, seed, done, trials, size)
    elif left:
        parts.append(_run_range(engine, seed, done, trials))
    total = [sum(col) for col in zip(*parts)]
    succ, pairs, short = total[_Column.SUCCESS], total[_Column.PAIRS], total[_Column.SHORT]
    chains, flagged = total[_Column.CHAINS], total[_Column.CEILING]
    est = _estimate(succ, trials)
    chain_trials = trials - flagged
    return MonteCarloReport(
        trials=trials,
        successes=succ,
        r=r,
        p=p,
        vertex_count=h.vertex_count,
        edge_count=h.edge_count,
        uniformity_n=cert.n if cert else None,
        estimate=est.estimate,
        wilson95=est.wilson95,
        wilson99=est.wilson99,
        total_conflicting_pairs=pairs,
        mean_conflicting_pairs=pairs / trials,
        total_short_edges=short if p is not None else None,
        mean_short_edges=short / trials if p is not None else None,
        interval_counts=(
            (total[_Column.B], total[_Column.P_MID], total[_Column.R_INT])
            if engine.part_lo is not None
            else None
        ),
        total_conflicting_chains=chains if count_chains else None,
        mean_conflicting_chains=(
            chains / chain_trials if count_chains and chain_trials else None
        ),
        chain_ceiling_trials=flagged,
    )


def baseline_equitable_success(h: Hypergraph, r: int, trials: int, seed: int) -> EstimateReport:
    """Success proportion of the random equitable-partition baseline."""
    h.require_valid()
    if trials < 1:
        raise ValueError("need at least one trial")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    edges = h.edge_matrix
    batch = max(1, _BATCH_ELEMENTS // max(edges.size, h.vertex_count, 1))
    gens = _trial_generators(seed, 0, trials)
    succ = 0
    for lo in range(0, trials, batch):
        block = np.empty((min(batch, trials - lo), h.vertex_count), dtype=np.int64)
        for row, gen in zip(block, gens):
            row[:] = _equitable_labels(gen, r, h.vertex_count)
        # rows pad with the edge's first vertex: a row all equal is a monochromatic edge
        cells = block[:, edges]
        succ += len(block) - int((cells == cells[:, :, :1]).all(axis=2).any(axis=1).sum())
    return _estimate(succ, trials)
