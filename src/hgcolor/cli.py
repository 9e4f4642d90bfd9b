"""Command-line workbench.

Subcommands: gen, color, mc, oracle, bounds, experiment. mc and experiment
take the same trial flags, and oracle and experiment the same
--oracle-budget, which caps each exact oracle's tried (vertex, color)
assignments; HGCOLOR_ORACLE_BUDGET sets its default. bounds writes the
certified bound table (CSV or JSON, optionally an SVG plot).
Exit codes: 0 ok, 2 invariant violation / invalid instance,
3 budget, numeric range or memory exceeded, 4 IO or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .errors import (
    BudgetExceededError,
    HypergraphFormatError,
    InvalidHypergraphError,
    NumericRangeError,
)
from .experiment import (
    ExperimentConfig,
    _mc_asdict,
    bound_table,
    bound_table_to_csv,
    csv_text,
    load_instance,
    run_experiment,
    svg_plot,
    write_report_files,
)
from .greedy import greedy_color, sample_birth_times, two_phase_color
from .hypergraph import is_proper, read_hypergraph, write_hypergraph
from .montecarlo import monte_carlo
from .oracle import (
    DEFAULT_ORACLE_BUDGET,
    count_proper_colorings,
    greedy_success_exact,
    is_r_colorable,
)

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_BUDGET = 3
EXIT_IO = 4


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if not raw:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def _load(path: str):
    h = read_hypergraph(path)
    h.require_valid()
    return h


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    source = {"kind": args.kind, "m": args.m, "n": args.n, "edges": args.edges, "seed": args.seed}
    h = load_instance(source)
    if args.out:
        write_hypergraph(h, args.out)
    else:
        write_hypergraph(h, sys.stdout)
    return EXIT_OK


def _cmd_color(args) -> int:
    h = _load(args.infile)
    t = sample_birth_times(h.vertex_count, args.seed)
    if args.two_phase:
        trace = two_phase_color(h, t, args.r, args.p if args.p is not None else 0.5)
    else:
        trace = greedy_color(h, t, args.r)
    proper, mono = is_proper(h, trace.coloring)
    payload = {
        "proper": proper,
        "monochromatic_edges": mono,
        "forced_vertices": list(trace.forced_vertices),
        "colors": list(trace.coloring.colors),
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_mc(args) -> int:
    h = _load(args.infile)
    report = monte_carlo(
        h,
        args.r,
        args.trials,
        args.seed,
        p=args.p,
        count_chains=args.count_chains,
        workers=args.workers,
    )
    d = _mc_asdict(report)
    if args.format == "csv":
        keys = sorted(d)
        _emit(csv_text(keys, [[d[k] for k in keys]]), args.out)
    else:
        _emit(json.dumps(d, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    h = _load(args.infile)
    budget_hit = False
    colorable, witness = is_r_colorable(h, args.r, args.oracle_budget)
    payload = {
        "colorable": colorable,
        "witness": list(witness.colors) if witness else None,
    }
    try:
        payload["proper_colorings"] = count_proper_colorings(h, args.r, args.oracle_budget)
    except BudgetExceededError as exc:
        budget_hit = True
        payload["proper_colorings"] = None
        payload["count_note"] = str(exc)
        print(f"budget: {exc}", file=sys.stderr)
    try:
        stats = greedy_success_exact(h, args.r, args.oracle_budget)
        prob = stats.success_probability
        payload["orderings"] = {
            "total": stats.total_orderings,
            "proper": stats.proper_orderings,
            "probability": f"{prob.numerator}/{prob.denominator}",
        }
    except BudgetExceededError as exc:
        budget_hit = True
        payload["orderings"] = None
        payload["ordering_note"] = str(exc)
        print(f"budget: {exc}", file=sys.stderr)
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_BUDGET if budget_hit else EXIT_OK


def _parse_int_list(text: str) -> list[int]:
    """'50:500:50' ranges or '3,4,5' lists."""
    if ":" in text:
        parts = [int(x) for x in text.split(":")]
        if len(parts) > 3:
            raise ValueError(f"a range is start:stop or start:stop:step, got {text!r}")
        start, stop = parts[0], parts[1]
        step = parts[2] if len(parts) > 2 else 1
        if step == 0:
            raise ValueError(f"a range step must not be zero, got {text!r}")
        # the stop is included whichever way the range runs
        return list(range(start, stop + (1 if step > 0 else -1), step))
    return [int(x) for x in text.split(",")]


def _cmd_bounds(args) -> int:
    n_values = _parse_int_list(args.n)
    r_values = _parse_int_list(args.r)
    rows = bound_table(n_values, r_values)
    if args.format == "json":
        _emit(json.dumps([asdict(r) for r in rows], sort_keys=True, indent=2) + "\n", args.out)
    else:
        _emit(bound_table_to_csv(rows), args.out)
    if args.plot:
        series: dict[str, list[tuple[float, float]]] = {}
        for row in rows:
            if row.max_k_rcol is not None:
                series.setdefault(f"max_k_rcol r={row.r}", []).append((row.n, row.max_k_rcol))
            if row.max_k_2col is not None:
                series.setdefault("max_k_2col", []).append((row.n, row.max_k_2col))
        with open(args.plot, "w", newline="\n") as fh:
            fh.write(svg_plot(series, "certified edge-count coefficients"))
    return EXIT_OK


def _cmd_experiment(args) -> int:
    if args.config:
        with open(args.config) as fh:
            config = ExperimentConfig.from_json(fh.read())
    else:
        if not args.infile:
            raise ValueError("experiment needs --config or --in")
        config = ExperimentConfig(
            source={"kind": "file", "path": args.infile},
            r=args.r,
            trials=args.trials,
            seed=args.seed,
            p=args.p,
            count_chains=args.count_chains,
            workers=args.workers,
            oracle_budget=args.oracle_budget,
            run_oracle=not args.no_oracle,
        )
    # an unwritable path fails before any computation
    os.makedirs(args.outdir, exist_ok=True)
    report = run_experiment(config)
    json_path, csv_path = write_report_files(report, args.outdir)
    print(f"wrote {json_path} and {csv_path}")
    if report.invariant_violations:
        for msg in report.invariant_violations:
            print(f"invariant violation: {msg}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    oracle_budget = _env_int("HGCOLOR_ORACLE_BUDGET", DEFAULT_ORACLE_BUDGET)

    # parents for the flags that several subcommands declare alike
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--in", dest="infile", required=True)
    colors = argparse.ArgumentParser(add_help=False)
    colors.add_argument("--r", type=int, default=2)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    trials = argparse.ArgumentParser(add_help=False)
    trials.add_argument("--trials", type=int, default=1000)
    trials.add_argument("--seed", type=int, default=0)
    trials.add_argument("--p", type=float, default=None, help="short edges span less than (1-p)/r, and"
                        " at r = 2 B/P/R split at (1-p)/2 and (1+p)/2 (default 2 ln(n)/n if n-uniform)")
    trials.add_argument("--count-chains", action="store_true")
    trials.add_argument("--workers", type=int, default=1)
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--oracle-budget", type=int, default=oracle_budget)

    parser = argparse.ArgumentParser(prog="hgcolor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", parents=[out], help="generate an instance file")
    g.add_argument("kind", choices=["complete", "random", "fano"])
    g.add_argument("--m", type=int, default=7)
    g.add_argument("--n", type=int, default=3)
    g.add_argument("--edges", type=int, default=7)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=_cmd_gen)

    c = sub.add_parser("color", parents=[instance, colors, out], help="run one greedy coloring")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--two-phase", action="store_true")
    c.add_argument("--p", type=float, default=None, help="two-phase middle width (default 0.5)")
    c.set_defaults(func=_cmd_color)

    m = sub.add_parser("mc", parents=[instance, colors, trials, out], help="Monte Carlo success estimate")
    m.add_argument("--format", choices=["json", "csv"], default="json")
    m.set_defaults(func=_cmd_mc)

    o = sub.add_parser(
        "oracle", parents=[instance, colors, budget, out], help="exact colorability and ordering census"
    )
    o.set_defaults(func=_cmd_oracle)

    b = sub.add_parser("bounds", parents=[out], help="certified bound table over (n, r)")
    b.add_argument("--n", required=True, help="list '100,1000' or range '50:500:50'")
    b.add_argument("--r", default="2", help="list or range of color counts")
    b.add_argument("--format", choices=["csv", "json"], default="csv")
    b.add_argument("--plot", help="also write an SVG to this path")
    b.set_defaults(func=_cmd_bounds)

    e = sub.add_parser(
        "experiment", parents=[colors, trials, budget], help="full pipeline with persisted reports"
    )
    e.add_argument(
        "--config",
        help="JSON config file in place of --in, --r, the trial and budget flags and --no-oracle"
        " (--out still applies)",
    )
    e.add_argument("--in", dest="infile")
    e.add_argument("--no-oracle", action="store_true")
    e.add_argument("--out", dest="outdir", default="experiment_out")
    e.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
    except ValueError as exc:  # a malformed budget variable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HypergraphFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (BudgetExceededError, NumericRangeError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_BUDGET
    except (InvalidHypergraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
