"""Experiment orchestration: config, bound tables, reports and their
CSV/JSON serialization, and the SVG plot of a bound table.

All numeric report content is a deterministic function of the config and
seed (worker count included); the only nondeterministic field is the
timestamp, which comparison helpers exclude. A report takes the Wilson
interval and uniformity from the Monte Carlo report and an over-budget note
from the oracle's own error, so nothing is computed twice. Colorability is
read off the ordering census: greedy succeeds on some order iff h is
r-colorable (a successful run is proper; ordered by the classes of a proper
coloring c, greedy gives each v a color <= c(v), since only an edge that c
makes monochromatic could block c(v)).
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from math import log, sqrt
from typing import Any

from . import bounds
from .errors import BudgetExceededError, NumericRangeError
from .generators import gen_complete_uniform, gen_fano, gen_random_uniform
from .hypergraph import Hypergraph, read_hypergraph
from .montecarlo import MonteCarloReport, check_trial_settings, monte_carlo
from .oracle import DEFAULT_ORACLE_BUDGET, check_budget, greedy_success_exact


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: an instance source, Monte Carlo settings and budgets.
    Where its reports go is the caller's choice (:func:`write_report_files`)."""

    source: dict[str, Any]
    r: int = 2
    trials: int = 1000
    seed: int = 0
    p: float | None = None
    count_chains: bool = False
    workers: int = 1
    oracle_budget: int = DEFAULT_ORACLE_BUDGET
    run_oracle: bool = True

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _checked(f"config field {f.name!r}", f.type, getattr(self, f.name)))
        check_trial_settings(self.r, self.trials, self.seed, self.p, self.workers)
        check_budget(self.oracle_budget)
        if "kind" not in self.source:
            raise ValueError("source needs a 'kind' field")
        if unknown := sorted(map(str, self.source.keys() - _SOURCE_TYPES.keys())):
            raise ValueError(f"unknown source fields: {', '.join(unknown)}")
        for name, annotation in _SOURCE_TYPES.items():
            if name in self.source:  # a copy already, so safe to update
                self.source[name] = _checked(f"source field {name!r}", annotation, self.source[name])
        if self.source["kind"] == "file" and not os.path.exists(self.source.get("path", "")):
            raise ValueError(f"instance file not found: {self.source.get('path')!r}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
        known = {f.name for f in fields(ExperimentConfig)}
        if unknown := sorted(set(raw) - known):
            raise ValueError(f"unknown config fields: {', '.join(unknown)}")
        if "source" not in raw:
            raise ValueError("config needs a 'source' field")
        return ExperimentConfig(**raw)


# per annotated base type of a dataclass field: how an error names it, the
# type a value must have (bool is never an int or a float here), and the
# plain type it is stored or parsed as
_FIELD_TYPES = {
    "int": ("an integer", numbers.Integral, int),
    "float": ("a number", numbers.Real, float),
    "bool": ("true or false", bool, bool),
    "str": ("a string", str, str),
    "dict[str, Any]": ("an object", dict, dict),
}


def _base_type(annotation: str) -> tuple[str, bool]:
    """A field's annotation as (base type, whether None is allowed)."""
    base, _, rest = annotation.partition(" | ")
    return base, rest == "None"


def _checked(name: str, annotation: str, value: Any) -> Any:
    base, optional = _base_type(annotation)
    if value is None and optional:
        return None
    what, kind, plain = _FIELD_TYPES[base]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return plain(value)


# the fields each instance source kind needs, and the base type of every
# field a source may carry (a random source's seed is optional)
_SOURCE_FIELDS = {"file": ("path",), "fano": (), "complete": ("m", "n"), "random": ("m", "n", "edges")}
_SOURCE_TYPES = {"kind": "str", "path": "str", "m": "int", "n": "int", "edges": "int", "seed": "int"}


def load_instance(source: dict[str, Any]) -> Hypergraph:
    kind = source["kind"]
    if kind not in _SOURCE_FIELDS:
        raise ValueError(f"unknown instance source kind {kind!r}")
    for name in _SOURCE_FIELDS[kind]:
        if name not in source:
            raise ValueError(f"{kind} source needs field {name!r}")
    if kind == "file":
        return read_hypergraph(source["path"])
    if kind == "fano":
        return gen_fano()
    if kind == "complete":
        return gen_complete_uniform(source["m"], source["n"])
    return gen_random_uniform(source["m"], source["n"], source["edges"], source.get("seed", 0))


# ---------------------------------------------------------------------------
# Bound tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundRow:
    n: int
    r: int
    max_k_2col: float | None
    max_k_rcol: float | None
    lll_log10_D: float | None
    ref_sqrt: float
    ref_power: float
    ratio_2col: float | None
    ratio_rcol: float | None
    lll_log10_ratio: float | None
    error: str | None = None


def bound_table(n_values: list[int], r_values: list[int]) -> list[BoundRow]:
    """Certified edge-count coefficients and LLL degrees per (n, r).

    Numeric range failures mark the cell; the table always completes.
    Edge sizes n < 2 have no reference scale n/ln(n), and color counts
    r < 2 no r-coloring rate; both are rejected, as is an empty n or r list.
    An n past the float range, where n/ln(n) cannot be formed, is refused
    with a NumericRangeError.
    """
    if not n_values or not r_values:
        raise ValueError(f"bound table needs at least one n and one r, got {n_values} and {r_values}")
    for n in n_values:
        if n < 2:
            raise ValueError(f"bound table needs edge sizes n >= 2, got n={n}")
        if n > sys.float_info.max:
            raise NumericRangeError(f"bound table needs edge sizes n within the float range, got n={n}")
    for r in r_values:
        if r < 2:
            raise ValueError(f"bound table needs color counts r >= 2, got r={r}")
    rows = []
    for n in n_values:
        for r in r_values:
            ref_sqrt = sqrt(n / log(n))
            ref_power = (n / log(n)) ** ((r - 1) / r)
            k2 = kr = lll_log10 = ratio2 = ratior = lll_ratio = None
            err = None
            try:
                if r == 2:
                    k2 = bounds.max_k_2col(n)
                    ratio2 = k2 / ref_sqrt
                kr = bounds.max_k_rcol(n, r)
                ratior = kr / ref_power
                cert = bounds.max_degree_lll(n, r)
                lll_log10 = cert.log_D / math.log(10)
                log_ref = ((r - 1) / r) * (log(n) - log(log(n))) + n * log(r)
                lll_ratio = (cert.log_D - log_ref) / math.log(10)
            except (NumericRangeError, ValueError, OverflowError) as exc:
                err = str(exc)
            rows.append(
                BoundRow(
                    n=n,
                    r=r,
                    max_k_2col=k2,
                    max_k_rcol=kr,
                    lll_log10_D=lll_log10,
                    ref_sqrt=ref_sqrt,
                    ref_power=ref_power,
                    ratio_2col=ratio2,
                    ratio_rcol=ratior,
                    lll_log10_ratio=lll_ratio,
                    error=err,
                )
            )
    return rows


def csv_text(header: list[str], rows: list[list[Any]]) -> str:
    """CSV with LF line ends; None is written as an empty cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def bound_table_to_csv(rows: list[BoundRow]) -> str:
    names = [f.name for f in fields(BoundRow)]
    return csv_text(names, [[getattr(row, name) for name in names] for row in rows])


def bound_table_from_csv(text: str) -> list[BoundRow]:
    """The inverse of :func:`bound_table_to_csv`; an empty optional cell is None."""
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        cells = {}
        for f in fields(BoundRow):
            base, optional = _base_type(f.type)
            cell = rec[f.name]
            cells[f.name] = None if optional and cell == "" else _FIELD_TYPES[base][2](cell)
        rows.append(BoundRow(**cells))
    return rows


# ---------------------------------------------------------------------------
# Full experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleSection:
    within_budget: bool
    colorable: bool | None = None
    ordering_total: int | None = None
    ordering_proper: int | None = None
    exact_probability: str | None = None  # fraction as "p/q"
    mc_inside_wilson99: bool | None = None
    note: str | None = None


@dataclass(frozen=True)
class BoundSection:
    """Instance-level comparison against the analytic expectations."""

    k_coefficient: float | None
    best_p: float | None
    two_color_bound: float | None
    expected_short_edges: float | None
    expected_conflicting_chains: float | None
    empirical_mean_short: float | None
    empirical_mean_pairs: float | None


@dataclass(frozen=True)
class ExperimentReport:
    config: dict[str, Any]
    instance: dict[str, Any]
    mc: dict[str, Any]
    oracle: dict[str, Any]
    bounds: dict[str, Any]
    invariant_violations: list[str]
    timestamp: str


def _mc_asdict(report: MonteCarloReport) -> dict[str, Any]:
    d = asdict(report)
    d["wilson95"] = list(d["wilson95"])
    d["wilson99"] = list(d["wilson99"])
    if d["interval_counts"] is not None:
        d["interval_counts"] = list(d["interval_counts"])
    return d


def write_report_files(report: ExperimentReport, out_dir: str) -> list[str]:
    """Write report.json and report.csv into out_dir; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "report.json")
    csv_path = os.path.join(out_dir, "report.csv")
    with open(json_path, "w", newline="\n") as fh:
        fh.write(report_to_json(report))
    with open(csv_path, "w", newline="\n") as fh:
        fh.write(report_to_csv(report))
    return [json_path, csv_path]


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Generate/load, Monte Carlo, oracle cross-check, bound comparison.

    Computes only; :func:`write_report_files` persists the report.
    """
    h = load_instance(config.source)
    checks = h.violations
    violations = [v.message for v in checks if v.severity == "error"]
    if violations:
        return ExperimentReport(
            config=json.loads(config.to_json()),
            instance={"vertex_count": h.vertex_count, "edge_count": h.edge_count},
            mc={},
            oracle={},
            bounds={},
            invariant_violations=violations,
            timestamp=_now(),
        )
    mc = monte_carlo(
        h,
        config.r,
        config.trials,
        config.seed,
        p=config.p,
        count_chains=config.count_chains,
        workers=config.workers,
    )

    oracle_sec = OracleSection(within_budget=False, note="oracle disabled")
    if config.run_oracle:
        try:
            stats = greedy_success_exact(h, config.r, config.oracle_budget)
            prob = stats.success_probability
            lo, hi = mc.wilson99
            inside = lo <= float(prob) <= hi
            if prob == 0 and mc.successes > 0:
                violations.append("successes observed on an instance with zero exact probability")
            if prob == 1 and mc.successes < mc.trials:
                violations.append("failures observed on an instance with exact probability one")
            oracle_sec = OracleSection(
                within_budget=True,
                colorable=stats.proper_orderings > 0,
                ordering_total=stats.total_orderings,
                ordering_proper=stats.proper_orderings,
                exact_probability=f"{prob.numerator}/{prob.denominator}",
                mc_inside_wilson99=inside,
            )
        except BudgetExceededError as exc:
            oracle_sec = OracleSection(within_budget=False, note=str(exc))

    n, r, p = mc.uniformity_n, config.r, mc.p
    bound_sec = BoundSection(None, None, None, None, None, mc.mean_short_edges, mc.mean_conflicting_pairs)
    if n is not None and p is not None and h.edge_count:
        # the expected counts are over k r^(n-2) edges at every r, the
        # two-color bound over k 2^(n-1): exact integer divisions, which
        # cannot overflow; where a k rounds to 0.0 the bounds it feeds stay
        # null, like a failed bound_table cell
        k_chains = h.edge_count / r ** (n - 2)
        k = h.edge_count / 2 ** (n - 1) if r == 2 else k_chains
        opt = bounds.optimize_p(k, n) if r == 2 and k else None
        bound_sec = BoundSection(
            k_coefficient=k,
            best_p=opt.best_p if opt else None,
            two_color_bound=opt.best_value if opt else None,
            expected_short_edges=bounds.expected_short_edges(k_chains, n, r, p) if k_chains else None,
            expected_conflicting_chains=(
                bounds.expected_conflicting_chains(k_chains, n, r, p) if k_chains else None
            ),
            empirical_mean_short=mc.mean_short_edges,
            empirical_mean_pairs=mc.mean_conflicting_pairs,
        )

    return ExperimentReport(
        config=json.loads(config.to_json()),
        instance={
            "vertex_count": h.vertex_count,
            "edge_count": h.edge_count,
            "uniformity_n": n,
            "warnings": [v.message for v in checks if v.severity == "warning"],
        },
        mc=_mc_asdict(mc),
        oracle=asdict(oracle_sec),
        bounds=asdict(bound_sec),
        invariant_violations=violations,
        timestamp=_now(),
    )


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


def report_to_json(report: ExperimentReport) -> str:
    return json.dumps(asdict(report), sort_keys=True, indent=2) + "\n"


def report_from_json(text: str) -> ExperimentReport:
    raw = json.loads(text)
    return ExperimentReport(**raw)


def strip_timestamp(report: ExperimentReport) -> dict[str, Any]:
    d = asdict(report)
    d.pop("timestamp")
    return d


_CSV_METRICS = [
    ("trials", lambda r: r.mc.get("trials")),
    ("successes", lambda r: r.mc.get("successes")),
    ("estimate", lambda r: r.mc.get("estimate")),
    ("wilson95_lo", lambda r: r.mc.get("wilson95", [None, None])[0]),
    ("wilson95_hi", lambda r: r.mc.get("wilson95", [None, None])[1]),
    ("wilson99_lo", lambda r: r.mc.get("wilson99", [None, None])[0]),
    ("wilson99_hi", lambda r: r.mc.get("wilson99", [None, None])[1]),
    ("mean_conflicting_pairs", lambda r: r.mc.get("mean_conflicting_pairs")),
    ("mean_short_edges", lambda r: r.mc.get("mean_short_edges")),
    ("oracle_probability", lambda r: r.oracle.get("exact_probability")),
    ("violations", lambda r: len(r.invariant_violations)),
]


def report_to_csv(report: ExperimentReport) -> str:
    return csv_text([name for name, _ in _CSV_METRICS], [[get(report) for _, get in _CSV_METRICS]])


# ---------------------------------------------------------------------------
# Minimal SVG line plot (deterministic text output, no plotting dependency)
# ---------------------------------------------------------------------------


def svg_plot(series: dict[str, list[tuple[float, float]]], title: str) -> str:
    """Polyline plot of one or more (x, y) series."""
    pts = [p for s in series.values() for p in s]
    if not pts:
        raise ValueError("nothing to plot")
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0
    width, height, pad = 640, 420, 50

    def sx(x: float) -> float:
        return pad + (x - x0) / xspan * (width - 2 * pad)

    def sy(y: float) -> float:
        return height - pad - (y - y0) / yspan * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{pad}" y="{height - pad + 16}" font-size="10">{x0:g}</text>',
        f'<text x="{width - pad}" y="{height - pad + 16}" text-anchor="end" font-size="10">{x1:g}</text>',
        f'<text x="{pad - 4}" y="{height - pad}" text-anchor="end" font-size="10">{y0:g}</text>',
        f'<text x="{pad - 4}" y="{pad}" text-anchor="end" font-size="10">{y1:g}</text>',
    ]
    for i, (name, points) in enumerate(sorted(series.items())):
        color = colors[i % len(colors)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in sorted(points))
        out.append(f'<polyline fill="none" stroke="{color}" points="{coords}"/>')
        out.append(
            f'<text x="{width - pad}" y="{pad + 14 * i}" text-anchor="end" '
            f'font-size="11" fill="{color}">{name}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
