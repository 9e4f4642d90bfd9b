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
