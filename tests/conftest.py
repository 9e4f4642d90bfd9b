from math import perm

import hypothesis.strategies as st
import pytest

from hgcolor import Hypergraph, gen_fano


def count_pools(monkeypatch, context=None):
    """Make monte_carlo hand every trial after its timed first share to a
    pool, as if pools cost nothing, let it see four usable CPUs,
    and record the size of every pool it starts (through `context`, else
    its own start method)."""
    from hgcolor import montecarlo

    base = context or montecarlo._pool_context()
    sizes = []

    class Counting:
        def Pool(self, processes):
            sizes.append(processes)
            return base.Pool(processes)

    monkeypatch.setattr(montecarlo, "_POOL_OVERHEAD_S", float("-inf"))
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(montecarlo, "_pool_context", Counting)
    return sizes


@pytest.fixture
def fano():
    return gen_fano()


@pytest.fixture
def triangle():
    return Hypergraph(3, [(0, 1), (1, 2), (0, 2)])


@st.composite
def hypergraphs(draw, max_vertices=8, max_edges=8, min_edge_size=1, max_edge_size=4):
    """Valid hypergraphs: nonempty duplicate-free edges over dense vertices."""
    v = draw(st.integers(min_value=max(1, min_edge_size), max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    edges = []
    for _ in range(m):
        size = draw(st.integers(min_edge_size, min(max_edge_size, v)))
        edge = draw(
            st.sets(st.integers(0, v - 1), min_size=size, max_size=size)
        )
        edges.append(tuple(sorted(edge)))
    return Hypergraph(v, edges)


@st.composite
def hypergraphs_with_times(draw, **kwargs):
    h = draw(hypergraphs(**kwargs))
    times = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=h.vertex_count,
            max_size=h.vertex_count,
        )
    )
    return h, times


def naive_partition_count(h, r):
    """Proper r-colorings counted by their color classes: sum r(r-1)...(r-c+1)
    over the set partitions of the vertices into c blocks with no edge inside
    one block. Shares no code with the library's edge state."""

    def partitions(vertices):
        if not vertices:
            yield []
            return
        v, rest = vertices[0], vertices[1:]
        for blocks in partitions(rest):
            yield [{v}, *blocks]
            for i in range(len(blocks)):
                yield [*blocks[:i], blocks[i] | {v}, *blocks[i + 1:]]

    return sum(
        perm(r, len(blocks))
        for blocks in partitions(list(range(h.vertex_count)))
        if not any(e <= block for e in h.edge_sets for block in blocks)
    )
