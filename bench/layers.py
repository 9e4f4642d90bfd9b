"""Call timing, spans, and the per-layer probes of the traced run.

All timing is done from outside the library: a span wraps each call into
a public function. The traced run replays a workload's inputs one layer
down (for example `cli.main` -> `run_experiment` -> `monte_carlo` /
`greedy_success_exact`), so a layer's self time is its span minus the
replayed spans of the calls it makes.

Every traced run reports every per-layer metric. A layer the workload
exercises is probed on the workload's own inputs; a layer it leaves idle
is probed on the small companion inputs defined here, and the run says
which is which.
"""

from __future__ import annotations

import json
import statistics
import sys
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from hgcolor import (
    BirthTimeAssignment,
    ChainCeilingError,
    Hypergraph,
    IntervalPartition,
    classify_conflicts_by_interval,
    conflicting_chains,
    conflicting_pairs,
    count_proper_colorings,
    gen_random_uniform,
    greedy_color,
    greedy_success_exact,
    is_r_colorable,
    max_degree_lll,
    max_k_rcol,
    monte_carlo,
    optimize_p,
    read_hypergraph,
    short_edges,
    validate,
    write_hypergraph,
)
from hgcolor.experiment import ExperimentConfig, bound_table, run_experiment, write_report_files
from hgcolor.greedy import greedy_succeeds
from hgcolor.montecarlo import default_p
from hgcolor.suite import fixed_suite

from workloads import (
    INSTANCE_SEED,
    PIPELINE_SMOKE,
    MonteCarloWorkload,
    OracleSuiteWorkload,
    PipelineSpec,
    PipelineWorkload,
    Workload,
    draw_times,
    parse_int_list,
    run_cli,
)


class Recorder:
    """Times every public call of a timed pass. A call that raises returns
    None, which the workload's check counts as failed; its traceback goes
    to standard error."""

    def __init__(self):
        self.calls: list[tuple[str, float]] = []

    def span(self, name: str, is_call: bool = False):
        """A block that a Tracer records as a span; here it records nothing."""
        return nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:  # the loop goes on; the check reports the call
            print(f"{name} raised:", file=sys.stderr)
            traceback.print_exc()
            return None
        finally:
            self.calls.append((name, perf_counter() - t0))


_REF_ARRAY = np.arange(64, dtype=float)


def reference_loop() -> float:
    """Seconds taken by a fixed few milliseconds of interpreter work (integer
    arithmetic, a dict, a sort, a set, small numpy calls) that never touches
    hgcolor. How long it takes tracks how fast the host runs this process
    at the moment."""
    t0 = perf_counter()
    acc = 0
    for i in range(18_000):
        acc += i * i % 7
    d: dict[int, int] = {}
    for i in range(4_000):
        k = (i * 7919) % 1021
        d[k] = d.get(k, 0) + 1
    acc += len(sorted(d.items(), key=lambda kv: (kv[1], kv[0])))
    acc += len({x for x in range(6_000) if x & 3})
    for _ in range(60):
        acc += int(np.argsort(_REF_ARRAY[::-1])[0]) + int(_REF_ARRAY.sum())
    return perf_counter() - t0


class Calibrated(Recorder):
    """A Recorder that runs `reference_loop` just before every public call,
    outside the call's timing, so each call can be scaled by how fast the
    host ran around it."""

    def __init__(self):
        super().__init__()
        self.refs: list[float] = []  # one reference_loop time before each call

    def call(self, name: str, fn, *args, **kwargs):
        self.refs.append(reference_loop())
        return super().call(name, fn, *args, **kwargs)

    def slowdown(self, call_mark: int, ref_mark: int, reference_s: float) -> float:
        """How much slower than `reference_s` per loop the host ran the calls
        since the marks: each call is paired with the mean of the reference
        loops just before and just after it, weighted by its time. Takes
        the closing reference loop itself."""
        refs = self.refs[ref_mark:] + [reference_loop()]
        dts = [dt for _, dt in self.calls[call_mark:]]
        paired = sum(dt * (a + b) / 2 for dt, a, b in zip(dts, refs, refs[1:]))
        return paired / sum(dts) / reference_s


class Tracer(Recorder):
    """A Recorder that also keeps a span (name, start, end, parent, call id)
    for every call and every `span` block, in memory until `write`."""

    def __init__(self):
        super().__init__()
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._origin = perf_counter()

    @contextmanager
    def span(self, name: str, is_call: bool = False):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        # spans of one public call share the id of its outermost call span
        call_id = parent["call"] if parent else None
        if call_id is None and is_call:
            call_id = sid
        rec = {"id": sid, "parent": parent["id"] if parent else None, "call": call_id,
               "name": name, "start": perf_counter() - self._origin, "end": None}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter() - self._origin
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name, is_call=True):
            return super().call(name, fn, *args, **kwargs)

    def probe(self, name: str, fn, *args, **kwargs):
        """A replayed call: spanned like `call`, but an exception propagates."""
        with self.span(name, is_call=True):
            return fn(*args, **kwargs)

    def durations(self, name: str, since: int = 0) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans[since:] if s["name"] == name]

    def median(self, name: str, since: int = 0) -> float:
        return statistics.median(self.durations(name, since))

    def write(self, path: Path, context: dict) -> None:
        """Spans with self time (duration minus direct children), as JSON."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = [dict(s, self=(s["end"] - s["start"]) - child_time[s["id"]]) for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"context": context, "spans": out}, fh)


# ---------------------------------------------------------------------------
# Probes, one per layer group
# ---------------------------------------------------------------------------

REPEATS = 3  # calls per probe whose median is reported
REPLAY_TRIALS = 10  # Monte Carlo trials replayed one layer down
CALL_TRIALS = 20  # trials per probe monte_carlo call


@dataclass(frozen=True)
class ProbeInputs:
    """A workload's own inputs per layer group; None means companion inputs.
    Every workload has its own Monte Carlo and IO inputs."""

    mc: tuple[Hypergraph, int, bool]  # (instance, r, count_chains)
    io: tuple[tuple[int, int, int], int]  # ((m, n, edges), seed)
    oracle: list[tuple[Hypergraph, int]] | None = None
    bounds: tuple[list[int], list[int]] | None = None
    pipeline: PipelineSpec | None = None


COMPANION_BOUNDS = ([50, 100], [2, 3])
COMPANION_ORACLE_MAX_VERTICES = 7


def _chain_count(h, t, r) -> tuple[int, int]:
    try:
        return len(conflicting_chains(h, t, r)), 0
    except ChainCeilingError:
        return 0, 1


def probe_montecarlo(tr: Tracer, h: Hypergraph, r: int, count_chains: bool, seed: int) -> dict:
    """Replay trials one layer down, then time whole monte_carlo calls."""
    mark = len(tr.spans)
    v, p = h.vertex_count, default_p(h)
    part = IntervalPartition(p)
    pairs = chains = hits = 0
    for i in range(REPLAY_TRIALS):
        t = BirthTimeAssignment(tr.probe("montecarlo.draw", draw_times, seed, i, v))
        order = tr.probe("hypergraph.order", t.order)
        tr.probe("greedy.greedy_succeeds", greedy_succeeds, h, order, r)
        tr.probe("greedy.greedy_color", greedy_color, h, t, r)
        pairs += len(tr.probe("conflicts.conflicting_pairs", conflicting_pairs, h, t))
        tr.probe("conflicts.short_edges", short_edges, h, t, r, p)
        tr.probe("conflicts.classify_conflicts_by_interval",
                 classify_conflicts_by_interval, h, t, part)
        n, hit = tr.probe("conflicts.conflicting_chains", _chain_count, h, t, r)
        chains, hits = chains + n, hits + hit

    def mc(trials: int, workers: int):
        return tr.probe(f"montecarlo.monte_carlo[{trials}x{workers}]", monte_carlo,
                        h, r, trials, seed, count_chains=count_chains, workers=workers)

    reports = []
    for _ in range(REPEATS):
        mc(1, 1)
        reports.append(mc(CALL_TRIALS, 1))
        mc(CALL_TRIALS, 2)
        mc(2, 1)
        mc(2, 2)

    def med(name: str) -> float:
        return tr.median(name, mark)

    one = med("montecarlo.monte_carlo[1x1]")
    serial = med(f"montecarlo.monte_carlo[{CALL_TRIALS}x1]")
    pooled = med(f"montecarlo.monte_carlo[{CALL_TRIALS}x2]")
    return {
        "montecarlo.trial_us": (serial - one) / (CALL_TRIALS - 1) * 1e6,
        "montecarlo.call_overhead_ms": one * 1e3,
        "montecarlo.rng_us": med("montecarlo.draw") * 1e6,
        "montecarlo.pool_start_ms": (med("montecarlo.monte_carlo[2x2]")
                                     - med("montecarlo.monte_carlo[2x1]")) * 1e3,
        "montecarlo.parallel_eff": serial / (2 * pooled),
        "montecarlo.success_frac": sum(x.successes for x in reports) / sum(x.trials for x in reports),
        "greedy.sweep_us": med("greedy.greedy_succeeds") * 1e6,
        "greedy.color_us": med("greedy.greedy_color") * 1e6,
        "hypergraph.order_us": med("hypergraph.order") * 1e6,
        "conflicts.pairs_us": med("conflicts.conflicting_pairs") * 1e6,
        "conflicts.short_us": med("conflicts.short_edges") * 1e6,
        "conflicts.bpr_us": med("conflicts.classify_conflicts_by_interval") * 1e6,
        "conflicts.chains_us": med("conflicts.conflicting_chains") * 1e6,
        "conflicts.pairs_per_trial": pairs / REPLAY_TRIALS,
        "conflicts.chains_per_trial": chains / REPLAY_TRIALS,
        "conflicts.ceiling_frac": hits / REPLAY_TRIALS,
    }


def probe_io(tr: Tracer, spec: tuple[int, int, int], seed: int, tmp: Path) -> dict:
    mark = len(tr.spans)
    path = str(tmp / "probe.hg")
    for _ in range(REPEATS):
        h = tr.probe("generators.gen_random_uniform", gen_random_uniform, *spec, seed=seed)
        tr.probe("hypergraph.incidence", getattr, Hypergraph(h.vertex_count, h.edges), "incidence")
        tr.probe("hypergraph.validate", validate, h)
        tr.probe("hypergraph.write_hypergraph", write_hypergraph, h, path)
        tr.probe("hypergraph.read_hypergraph", read_hypergraph, path)
        tr.probe("suite.fixed_suite", fixed_suite)
    return {
        "generators.gen_ms": tr.median("generators.gen_random_uniform", mark) * 1e3,
        "hypergraph.incidence_ms": tr.median("hypergraph.incidence", mark) * 1e3,
        "hypergraph.validate_ms": tr.median("hypergraph.validate", mark) * 1e3,
        "hypergraph.write_ms": tr.median("hypergraph.write_hypergraph", mark) * 1e3,
        "hypergraph.read_ms": tr.median("hypergraph.read_hypergraph", mark) * 1e3,
        "suite.build_ms": tr.median("suite.fixed_suite", mark) * 1e3,
    }


def probe_oracle(tr: Tracer, instances: list[tuple[Hypergraph, int]]) -> dict:
    mark = len(tr.spans)
    total = proper = 0
    for h, r in instances:
        st = tr.probe("oracle.greedy_success_exact", greedy_success_exact, h, r)
        tr.probe("oracle.is_r_colorable", is_r_colorable, h, r)
        tr.probe("oracle.count_proper_colorings", count_proper_colorings, h, r)
        total += st.total_orderings
        proper += st.proper_orderings
    greedy = tr.durations("oracle.greedy_success_exact", mark)
    return {
        "oracle.greedy_exact_s": sum(greedy),
        "oracle.colorable_ms": sum(tr.durations("oracle.is_r_colorable", mark)) * 1e3,
        "oracle.count_ms": sum(tr.durations("oracle.count_proper_colorings", mark)) * 1e3,
        "oracle.orderings_per_s": total / sum(greedy),
        "oracle.max_instance_s": max(greedy),
        "oracle.proper_frac": proper / total,
    }


def probe_bounds(tr: Tracer, ns: list[int], rs: list[int]) -> dict:
    """bound_table, then its cells replayed one function at a time."""
    mark = len(tr.spans)
    tr.probe("experiment.bound_table", bound_table, ns, rs)
    for n in ns:
        tr.probe("bounds.optimize_p", optimize_p, 1.0, n)
        for r in rs:
            tr.probe("bounds.max_k_rcol", max_k_rcol, n, r)
            tr.probe("bounds.max_degree_lll", max_degree_lll, n, r)
    return {
        "bounds.table_s": tr.median("experiment.bound_table", mark),
        "bounds.max_k_rcol_ms": tr.median("bounds.max_k_rcol", mark) * 1e3,
        "bounds.max_degree_lll_ms": tr.median("bounds.max_degree_lll", mark) * 1e3,
        "bounds.optimize_p_ms": tr.median("bounds.optimize_p", mark) * 1e3,
    }


def probe_pipeline(tr: Tracer, spec: PipelineSpec, seed: int, tmp: Path) -> dict:
    """A CLI pass, then `experiment` replayed in memory and one layer further."""
    mark = len(tr.spans)
    d = tmp / "probe-pipeline"
    path = str(d / "instance.hg")
    d.mkdir(parents=True, exist_ok=True)
    m, n, e = spec.instance
    commands = (
        ("cli.gen", ["gen", "random", "--m", str(m), "--n", str(n), "--edges", str(e),
                     "--seed", str(seed), "--out", path]),
        ("cli.experiment", ["experiment", "--in", path, "--r", str(spec.r), "--trials",
                            str(spec.trials), "--seed", str(seed), "--out", str(d / "exp")]),
        ("cli.bounds", ["bounds", "--n", spec.bounds_n, "--r", spec.bounds_r,
                        "--out", str(d / "bounds.csv"), "--plot", str(d / "bounds.svg")]),
    )
    for _ in range(REPEATS):
        for name, argv in commands:
            code, console = tr.probe(name, run_cli, argv)
            if code != 0:
                raise RuntimeError(f"{name} exited {code}: {console}")
        config = ExperimentConfig(
            source={"kind": "file", "path": path}, r=spec.r, trials=spec.trials, seed=seed)
        report = tr.probe("experiment.run_experiment", run_experiment, config)
        tr.probe("experiment.write_report_files", write_report_files, report, str(d / "replay"))
        h = read_hypergraph(path)
        tr.probe("montecarlo.monte_carlo", monte_carlo, h, spec.r, spec.trials, seed)
        tr.probe("oracle.greedy_success_exact", greedy_success_exact, h, spec.r)
        tr.probe("oracle.is_r_colorable", is_r_colorable, h, spec.r)

    def dur(name: str) -> float:
        return tr.median(name, mark)

    run_s = dur("experiment.run_experiment")
    write_s = dur("experiment.write_report_files")
    calls_s = sum(dur(x) for x in (
        "montecarlo.monte_carlo", "oracle.greedy_success_exact", "oracle.is_r_colorable"))
    return {
        "cli.gen_ms": dur("cli.gen") * 1e3,
        "cli.experiment_s": dur("cli.experiment"),
        "cli.bounds_s": dur("cli.bounds"),
        "cli.experiment_self_ms": (dur("cli.experiment") - run_s - write_s) * 1e3,
        "experiment.run_s": run_s,
        "experiment.self_ms": (run_s - calls_s) * 1e3,
        "experiment.write_ms": write_s * 1e3,
    }


def probe_layers(tr: Tracer, own: ProbeInputs, seed: int, tmp: Path) -> tuple[dict, dict]:
    """Every per-layer metric, and for each layer group whether it was
    probed on the workload's own inputs or on companion inputs."""
    metrics: dict[str, float] = {}
    source: dict[str, str] = {}

    def group(label: str, inputs, companion, fn):
        source[label] = "own" if inputs is not None else "companion"
        with tr.span(f"probe.{label}"):
            metrics.update(fn(inputs if inputs is not None else companion))

    companion_oracle = [(h, r) for _, h, r in fixed_suite()
                        if h.vertex_count <= COMPANION_ORACLE_MAX_VERTICES]
    group("montecarlo", own.mc, None, lambda x: probe_montecarlo(tr, *x, seed))
    group("io", own.io, None, lambda x: probe_io(tr, *x, tmp))
    group("oracle", own.oracle, companion_oracle, lambda x: probe_oracle(tr, x))
    group("bounds", own.bounds, COMPANION_BOUNDS, lambda x: probe_bounds(tr, *x))
    group("pipeline", own.pipeline, PIPELINE_SMOKE, lambda x: probe_pipeline(tr, x, seed, tmp))
    return metrics, source


# The suite's costliest instance, as fixed_suite() generates it: the
# Monte Carlo and IO probes of oracle_suite run on it.
SUITE_PROBE_INSTANCE = ((8, 5, 18), 1017)


def probe_inputs(wl: Workload, seed: int) -> ProbeInputs:
    if isinstance(wl, MonteCarloWorkload):
        s = wl.spec
        return ProbeInputs(mc=(wl.h, s.r, s.count_chains), io=(s.instance, INSTANCE_SEED))
    if isinstance(wl, OracleSuiteWorkload):
        h = gen_random_uniform(*SUITE_PROBE_INSTANCE[0], seed=SUITE_PROBE_INSTANCE[1])
        return ProbeInputs(mc=(h, 2, False), io=SUITE_PROBE_INSTANCE,
                           oracle=[(g, r) for _, g, r in wl.instances])
    if isinstance(wl, PipelineWorkload):
        s = wl.spec
        h = gen_random_uniform(*s.instance, seed=seed)
        return ProbeInputs(mc=(h, s.r, False), io=(s.instance, seed), oracle=[(h, s.r)],
                           bounds=(parse_int_list(s.bounds_n), parse_int_list(s.bounds_r)),
                           pipeline=s)
    raise TypeError(f"no probe inputs for {wl!r}")
