"""Core hypergraph, coloring and birth-time types plus the shared text format.

Vertices are dense 0-based integers. Edges are stored as sorted tuples in a
stable list; an edge's identity is its index in that list. Construction is
permissive: malformed input is accepted and reported by :func:`validate`
rather than rejected, so generators and file loaders can surface precise
diagnostics.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    HypergraphFormatError,
    InvalidHypergraphError,
    UncoloredVertexError,
)

# the most vertex slots (edges times uniformity n, or vertices) a generator
# builds or a file may declare
SLOT_BUDGET = 10_000_000


@dataclass(frozen=True)
class Hypergraph:
    """An unordered-set hypergraph with an ordered edge list.

    Duplicate edges are representable (validation flags them as warnings);
    a repeated vertex inside an edge is an error but is preserved so the
    report can name it.
    """

    vertex_count: int
    edges: tuple[tuple[int, ...], ...]

    def __init__(self, vertex_count: int, edges: Iterable[Iterable[int]]):
        object.__setattr__(self, "vertex_count", int(vertex_count))
        object.__setattr__(
            self, "edges", tuple(tuple(sorted(e)) for e in edges)
        )

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(e) for e in self.edges)

    @cached_property
    def edge_sizes(self) -> tuple[int, ...]:
        """Distinct-vertex count per edge."""
        return tuple(len(s) for s in self.edge_sets)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex, the ascending indices of edges containing it."""
        inc: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for ei, e in enumerate(self.edges):
            for v in set(e):
                if 0 <= v < self.vertex_count:
                    inc[v].append(ei)
        return tuple(tuple(x) for x in inc)

    @cached_property
    def edge_matrix(self) -> np.ndarray:
        """(edge_count, largest edge size) array of a valid hypergraph: row e
        is edge e, padded with copies of its first vertex."""
        width = max(map(len, self.edges), default=0)
        out = np.empty((self.edge_count, width), dtype=np.intp)
        for ei, e in enumerate(self.edges):
            out[ei, : len(e)] = e
            out[ei, len(e) :] = e[0]
        return out

    @cached_property
    def rest_masks(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The exact oracles' blocking table, for a valid hypergraph: for
        each vertex v, the distinct bitmasks e - {v} over the edges e of v,
        in edge order, each paired with one vertex of it (the edge's first,
        or its last when that is v). Once such a mask is colored, that
        vertex's color class is the only one that can hold all of it, so
        color c is blocked for v when the mask lies inside class c; an
        empty mask (an edge of v alone) blocks every color. The table does
        not depend on r, so it is built once per instance."""
        rests: list[dict[int, int]] = [{} for _ in range(self.vertex_count)]
        for e in self.edges:
            mask = sum(1 << u for u in e)
            for v in e:
                rests[v].setdefault(mask ^ (1 << v), e[0] if e[0] != v else e[-1])
        return tuple(tuple(rest.items()) for rest in rests)

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """What validate() reports, computed once per instance."""
        return tuple(validate(self))

    @cached_property
    def _error_messages(self) -> tuple[str, ...]:
        return tuple(v.message for v in self.violations if v.severity == "error")

    def require_valid(self) -> None:
        """Raise InvalidHypergraphError if validation finds any error."""
        if self._error_messages:
            raise InvalidHypergraphError("; ".join(self._error_messages))

    def relabel(self, perm: Sequence[int]) -> "Hypergraph":
        """Return the hypergraph with vertex v renamed to perm[v]."""
        return Hypergraph(self.vertex_count, [[perm[v] for v in e] for e in self.edges])


@dataclass(frozen=True)
class UniformityCertificate:
    """Witness that every edge of a hypergraph has exactly n vertices, n >= 2."""

    n: int


@dataclass(frozen=True)
class Coloring:
    """Total map vertex -> color in {1..r}, stored densely as a tuple."""

    colors: tuple[int, ...]
    r: int

    def __init__(self, colors: Iterable[int], r: int):
        colors = tuple(int(c) for c in colors)
        r = int(r)
        if r < 1:
            raise ValueError(f"need at least one color, got r={r}")
        for v, c in enumerate(colors):
            if not 1 <= c <= r:
                raise ValueError(f"vertex {v} has color {c} outside 1..{r}")
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "r", r)

    def __getitem__(self, v: int) -> int:
        return self.colors[v]


@dataclass(frozen=True)
class BirthTimeAssignment:
    """Map vertex -> birth time in [0,1].

    Float collisions are possible, so the induced processing order breaks
    ties by ascending vertex index; the order is then a deterministic
    function of the assignment.
    """

    times: tuple[float, ...]

    def __init__(self, times: Iterable[float]):
        times = tuple(float(t) for t in times)
        for v, t in enumerate(times):
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"vertex {v} has birth time {t} outside [0,1]")
        object.__setattr__(self, "times", times)

    def __getitem__(self, v: int) -> float:
        return self.times[v]

    def __len__(self) -> int:
        return len(self.times)

    def order(self) -> tuple[int, ...]:
        """Vertices sorted by (birth time, index)."""
        return tuple(sorted(range(len(self.times)), key=lambda v: (self.times[v], v)))


@dataclass(frozen=True)
class Violation:
    severity: str  # "error" | "warning"
    message: str


def validate(h: Hypergraph) -> list[Violation]:
    """Report every invariant violation; duplicate edges are warnings.

    An empty report means the hypergraph is well formed and has no
    duplicate edges.
    """
    report: list[Violation] = []
    if h.vertex_count < 0:
        report.append(Violation("error", f"negative vertex count {h.vertex_count}"))
    seen: dict[tuple[int, ...], int] = {}
    for ei, e in enumerate(h.edges):
        if len(e) == 0:
            report.append(Violation("error", f"edge {ei} is empty"))
            continue
        if len(set(e)) != len(e):
            report.append(Violation("error", f"edge {ei} contains a repeated vertex"))
        bad = [v for v in e if not 0 <= v < h.vertex_count]
        if bad:
            report.append(Violation("error", f"edge {ei}: index out of range ({bad[0]})"))
        key = tuple(sorted(set(e)))
        if key in seen:
            report.append(Violation("warning", f"duplicate edge {ei} (same as edge {seen[key]})"))
        else:
            seen[key] = ei
    return report


def uniformity(h: Hypergraph) -> UniformityCertificate | None:
    """The common edge size n >= 2, or None (also for an empty edge list)."""
    sizes = set(h.edge_sizes)
    if len(sizes) != 1:
        return None
    (n,) = sizes
    return UniformityCertificate(n) if n >= 2 else None


def is_proper(h: Hypergraph, c: Coloring) -> tuple[bool, list[int]]:
    """Whether no edge is monochromatic; returns the offending edge indices."""
    if len(c.colors) < h.vertex_count:
        raise UncoloredVertexError(
            f"uncolored vertex: coloring covers {len(c.colors)} of {h.vertex_count} vertices"
        )
    mono = [
        ei
        for ei, e in enumerate(h.edges)
        if len({c.colors[v] for v in e}) == 1
    ]
    return (not mono, mono)


def max_edge_degree(h: Hypergraph) -> int:
    """Maximum over edges of the number of *other* edges it intersects.

    This is the raw neighbour count; callers that need the convention
    "every edge intersects at most D others" can use it directly as D.
    """
    sets = h.edge_sets
    best = 0
    for i, e in enumerate(sets):
        deg = sum(1 for j, f in enumerate(sets) if j != i and e & f)
        if deg > best:
            best = deg
    return best


# ---------------------------------------------------------------------------
# Text format: first non-comment line "<vertex_count> <edge_count>", then one
# edge per line as ascending space-separated vertex indices. '#' lines are
# comments. LF endings, ASCII decimal.
# ---------------------------------------------------------------------------


def write_hypergraph(h: Hypergraph, out: IO[str] | str) -> None:
    """Write the text format; edges are emitted sorted, in list order."""
    h.require_valid()
    if isinstance(out, str):
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            write_hypergraph(h, fh)
        return
    out.write(f"{h.vertex_count} {h.edge_count}\n")
    for e in h.edges:
        out.write(" ".join(str(v) for v in e) + "\n")


def dumps_hypergraph(h: Hypergraph) -> str:
    buf = io.StringIO()
    write_hypergraph(h, buf)
    return buf.getvalue()


def read_hypergraph(src: IO[str] | str) -> Hypergraph:
    """Parse the text format, raising HypergraphFormatError with a line number.

    A path is read as UTF-8, whatever the locale; bytes that are not UTF-8
    are a format error on the line that holds them, and so is any token
    other than an ASCII decimal integer -?[0-9]+. A header declaring more
    than SLOT_BUDGET vertices raises BudgetExceededError before anything is
    built for them.
    """
    if isinstance(src, str):
        with open(src, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            bad = f"byte 0x{data[exc.start]:02x} is not UTF-8 text"
            raise HypergraphFormatError(data.count(b"\n", 0, exc.start) + 1, bad) from None
        return read_hypergraph(io.StringIO(text, newline=None))
    header: tuple[int, int, int] | None = None  # vertices, edges, line
    edges: list[list[int]] = []
    for line_no, raw in enumerate(src, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not re.fullmatch(r"-?[0-9]+(\s+-?[0-9]+)*", line, re.ASCII):
            raise HypergraphFormatError(line_no, f"non-integer token in {line!r}")
        fields = [int(tok) for tok in line.split()]
        if header is None:
            if len(fields) != 2:
                raise HypergraphFormatError(
                    line_no, "header must be '<vertex_count> <edge_count>'"
                )
            if fields[0] > SLOT_BUDGET:
                raise BudgetExceededError(
                    f"line {line_no}: header declares {fields[0]} vertices, "
                    f"exceeding budget {SLOT_BUDGET} vertex slots"
                )
            header = (fields[0], fields[1], line_no)
            continue
        edges.append(fields)
    if header is None:
        raise HypergraphFormatError(1, "missing header line")
    vertex_count, edge_count, header_no = header
    if len(edges) != edge_count:
        raise HypergraphFormatError(
            header_no, f"header promises {edge_count} edges, found {len(edges)}"
        )
    return Hypergraph(vertex_count, edges)


def loads_hypergraph(text: str) -> Hypergraph:
    return read_hypergraph(io.StringIO(text))
