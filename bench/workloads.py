"""The four benchmark workloads.

Each workload is a closed loop with one client: it issues sequential calls
into hgcolor's public API and waits for each to return. A workload builds
its inputs from the benchmark seed, runs one fixed unit of work per pass,
and checks every output after the timed passes. The library only ever sees
the generated inputs.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import factorial
from pathlib import Path

import numpy as np

from hgcolor import (
    BirthTimeAssignment,
    IntervalPartition,
    classify_conflicts_by_interval,
    conflicting_chains,
    conflicting_pairs,
    count_proper_colorings,
    dumps_hypergraph,
    gen_random_uniform,
    greedy_color,
    greedy_success_exact,
    is_proper,
    is_r_colorable,
    monte_carlo,
    read_hypergraph,
    short_edges,
)
from hgcolor import cli
from hgcolor.experiment import (
    ExperimentConfig,
    bound_table_from_csv,
    bound_table_to_csv,
    report_from_json,
    run_experiment,
    strip_timestamp,
)
from hgcolor.montecarlo import default_p
from hgcolor.suite import fixed_suite

BENCH_DIR = Path(__file__).resolve().parent
PINS_PATH = BENCH_DIR / "oracle_pins.json"

# Monte Carlo instances are fixed (seed=1, as in the roadmap's baselines);
# the benchmark seed varies only the trial seeds of each call.
INSTANCE_SEED = 1


def derive_seed(seed: int, *keys: int) -> int:
    """A nonnegative library seed fixed by the bench seed and the keys (for
    example pass and call index), so a traced replay sees the same inputs."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0]) >> 1


def parse_int_list(text: str) -> list[int]:
    """'50:500:50' ranges or '2,3' lists, as the `bounds` command reads them."""
    if ":" in text:
        start, stop, step = (int(x) for x in text.split(":"))
        return list(range(start, stop + 1, step))
    return [int(x) for x in text.split(",")]


@dataclass(frozen=True)
class MCSpec:
    instance: tuple[int, int, int]  # (m, n, edges) of gen_random_uniform
    r: int
    trials: int  # per monte_carlo call
    calls: int  # per pass
    workers: int
    count_chains: bool
    recount_trials: int  # reference check: prefixes 1..k recounted trial by trial


@dataclass(frozen=True)
class PipelineSpec:
    instance: tuple[int, int, int]  # (m, n, edges) for `hgcolor gen random`
    r: int
    trials: int
    bounds_n: str
    bounds_r: str


class Workload:
    """Shared shape: `setup`, `run_pass`, `check`, `reference_checks`."""

    name: str
    item: str  # what items_per_s counts
    item_calls: tuple[str, ...]  # the calls whose time items_per_s divides by

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, k: int, rec) -> tuple[int, list]:
        """One fixed unit of work; returns (items done, outputs to check)."""
        raise NotImplementedError

    def check(self, output) -> str | None:
        """None when the output matches its reference, else the reason."""
        raise NotImplementedError

    def reference_checks(self) -> list[tuple[str, str | None]]:
        """Extra (label, failure-or-None) checks run once, untimed."""
        return []


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def draw_times(seed: int, i: int, v: int) -> list[float]:
    """Trial i's birth times, as the monte_carlo contract defines them."""
    return np.random.default_rng([seed, i]).random(v).tolist()


class MonteCarloWorkload(Workload):
    item = "Monte Carlo trials"
    item_calls = ("montecarlo.monte_carlo",)

    def __init__(self, name: str, seed: int, spec: MCSpec):
        self.name = name
        self.spec = spec
        self.seed = seed
        self.ref_seed = derive_seed(seed)

    def setup(self) -> None:
        s = self.spec
        self.h = gen_random_uniform(*s.instance, seed=INSTANCE_SEED)
        self.p = default_p(self.h)
        # warm-up: fills the instance's cached incidence
        monte_carlo(self.h, s.r, 1, 0, count_chains=s.count_chains)

    def _call(self, trials: int, seed: int, workers: int):
        s = self.spec
        return monte_carlo(
            self.h, s.r, trials, seed, count_chains=s.count_chains, workers=workers
        )

    def run_pass(self, k: int, rec) -> tuple[int, list]:
        s = self.spec
        outputs = []
        for j in range(s.calls):
            seed = derive_seed(self.seed, k, j)
            rep = rec.call("montecarlo.monte_carlo", self._call, s.trials, seed, s.workers)
            outputs.append((seed, rep))
        return s.trials * s.calls, outputs

    def check(self, output) -> str | None:
        seed, rep = output
        s = self.spec
        if rep is None:
            return f"monte_carlo(seed={seed}) raised"
        if rep.trials != s.trials or not 0 <= rep.successes <= s.trials:
            return f"seed {seed}: bad trial/success counts"
        if rep.estimate != rep.successes / rep.trials:
            return f"seed {seed}: estimate is not successes/trials"
        if rep.interval_counts is not None and sum(rep.interval_counts) != rep.total_conflicting_pairs:
            return f"seed {seed}: B/P/R counts do not sum to the pair total"
        if rep.chain_ceiling_trials:
            return f"seed {seed}: chain ceiling hit"
        if (rep.total_conflicting_chains is None) == s.count_chains:
            return f"seed {seed}: chain accounting missing or unexpected"
        return None

    def recount(self, seed: int, i: int) -> tuple[int, ...]:
        """Trial i of monte_carlo(seed) redone with the public per-trial
        functions: (success, pairs, short edges, B, P, R, chains)."""
        h, r, p = self.h, self.spec.r, self.p
        t = BirthTimeAssignment(draw_times(seed, i, h.vertex_count))
        success = int(is_proper(h, greedy_color(h, t, r).coloring)[0])
        bpr = (0, 0, 0)
        if r == 2:
            c = classify_conflicts_by_interval(h, t, IntervalPartition(p))
            bpr = (c.b, c.p, c.r)
        chains = len(conflicting_chains(h, t, r)) if self.spec.count_chains else 0
        return (success, len(conflicting_pairs(h, t)), len(short_edges(h, t, r, p)), *bpr, chains)

    def reference_checks(self) -> list[tuple[str, str | None]]:
        s, seed = self.spec, self.ref_seed
        rows = [self.recount(seed, i) for i in range(s.recount_trials)]
        out = []
        for j in range(1, s.recount_trials + 1):
            rep = self._call(j, seed, 1)
            got = (rep.successes, rep.total_conflicting_pairs, rep.total_short_edges,
                   *(rep.interval_counts or (0, 0, 0)), rep.total_conflicting_chains or 0)
            want = tuple(map(sum, zip(*rows[:j])))
            err = None if got == want else f"trials 0..{j - 1}: report {got} != recount {want}"
            out.append((f"recount of trials 0..{j - 1}", err))
        other = 2 if s.workers == 1 else 1
        a = self._call(s.trials, seed, s.workers)
        b = self._call(s.trials, seed, other)
        out.append((f"workers {s.workers} vs {other}",
                    None if a == b else "report depends on the worker count"))
        return out


# ---------------------------------------------------------------------------
# Exact oracles over fixed_suite()
# ---------------------------------------------------------------------------


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


class OracleSuiteWorkload(Workload):
    item = "orderings examined by greedy_success_exact"
    item_calls = ("oracle.greedy_success_exact",)

    def __init__(self, seed: int, max_vertices: int):
        self.name = "oracle_suite"
        self.seed = seed
        self.max_vertices = max_vertices
        self.pins = load_pins()

    def setup(self) -> None:
        # Relabel each instance by a seed-derived permutation and shuffle
        # the call order: every pinned answer is invariant under both.
        rng = np.random.default_rng(self.seed)
        entries = [
            (name, h.relabel(rng.permutation(h.vertex_count).tolist()), r)
            for name, h, r in fixed_suite()
            if h.vertex_count <= self.max_vertices
        ]
        self.instances = [entries[i] for i in rng.permutation(len(entries))]
        for _, h, r in self.instances:  # warm-up: validation and incidence
            is_r_colorable(h, r)

    def run_pass(self, k: int, rec) -> tuple[int, list]:
        outputs, items = [], 0
        for name, h, r in self.instances:
            g = rec.call("oracle.greedy_success_exact", greedy_success_exact, h, r)
            c = rec.call("oracle.is_r_colorable", is_r_colorable, h, r)
            n = rec.call("oracle.count_proper_colorings", count_proper_colorings, h, r)
            outputs += [(name, h, "greedy", g), (name, h, "colorable", c), (name, h, "count", n)]
            items += factorial(h.vertex_count)
        return items, outputs

    def check(self, output) -> str | None:
        name, h, kind, got = output
        pin = self.pins[name]
        if got is None:
            return f"{name}: {kind} raised"
        if kind == "greedy":
            ok = (got.total_orderings, got.proper_orderings) == (
                pin["total_orderings"], pin["proper_orderings"])
        elif kind == "colorable":
            colorable, witness = got
            ok = colorable == pin["colorable"] and (
                is_proper(h, witness)[0] and witness.r == pin["r"]
                if colorable else witness is None)
        else:
            ok = got == pin["proper_colorings"] and (got > 0) == pin["colorable"]
        return None if ok else f"{name}: {kind} result {got!r} disagrees with the pin"


# ---------------------------------------------------------------------------
# In-process CLI pipeline
# ---------------------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """hgcolor.cli.main with its console output captured."""
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        code = cli.main(argv)
    return code, sink.getvalue()


class PipelineWorkload(Workload):
    item = "CLI commands"
    item_calls = ("cli.gen", "cli.experiment", "cli.bounds")

    def __init__(self, seed: int, spec: PipelineSpec, tmp: Path):
        self.name = "pipeline_cli"
        self.spec = spec
        self.seed = seed
        self.tmp = tmp

    def setup(self) -> None:
        run_cli(["gen", "fano", "--out", str(self.tmp / "warmup.hg")])

    def run_pass(self, k: int, rec) -> tuple[int, list]:
        s = self.spec
        d = self.tmp / f"pass{k}"
        d.mkdir(parents=True, exist_ok=True)
        gen_seed, exp_seed = derive_seed(self.seed, k, 0), derive_seed(self.seed, k, 1)
        path = str(d / "instance.hg")
        m, n, e = s.instance
        gen = rec.call("cli.gen", run_cli, [
            "gen", "random", "--m", str(m), "--n", str(n), "--edges", str(e),
            "--seed", str(gen_seed), "--out", path])
        exp = rec.call("cli.experiment", run_cli, [
            "experiment", "--in", path, "--r", str(s.r), "--trials", str(s.trials),
            "--seed", str(exp_seed), "--out", str(d / "exp")])
        bnd = rec.call("cli.bounds", run_cli, [
            "bounds", "--n", s.bounds_n, "--r", s.bounds_r,
            "--out", str(d / "bounds.csv"), "--plot", str(d / "bounds.svg")])
        return 3, [("gen", d, gen_seed, gen), ("experiment", d, exp_seed, exp),
                   ("bounds", d, None, bnd)]

    def check(self, output) -> str | None:
        kind, d, seed, result = output
        if result is None:
            return f"{kind} raised"
        code, console = result
        if code != 0:
            return f"{kind} exited {code}: {console.strip()[-200:]}"
        s = self.spec
        path = d / "instance.hg"
        if kind == "gen":
            text = path.read_text()
            h = read_hypergraph(str(path))
            ok = h == gen_random_uniform(*s.instance, seed=seed) and dumps_hypergraph(h) == text
            return None if ok else "generated file does not round-trip"
        if kind == "experiment":
            written = report_from_json((d / "exp" / "report.json").read_text())
            config = ExperimentConfig(
                source={"kind": "file", "path": str(path)}, r=s.r, trials=s.trials, seed=seed)
            if strip_timestamp(written) != strip_timestamp(run_experiment(config)):
                return "report.json differs from an in-memory run_experiment"
            csv_lines = (d / "exp" / "report.csv").read_text().splitlines()
            return None if len(csv_lines) == 2 else "report.csv is not header + one row"
        text = (d / "bounds.csv").read_text()
        rows = bound_table_from_csv(text)
        cells = len(parse_int_list(s.bounds_n)) * len(parse_int_list(s.bounds_r))
        if bound_table_to_csv(rows) != text:
            return "bounds CSV does not round-trip"
        if len(rows) != cells or any(row.error for row in rows):
            return "bound table has missing or failed cells"
        svg = (d / "bounds.svg").read_text()
        return None if svg.startswith("<svg") else "bounds SVG missing"


# ---------------------------------------------------------------------------
# Sizes
# ---------------------------------------------------------------------------

MC_FULL = {
    # the paper's two-colour regime: n = 10, 1500 edges on 200 vertices
    "mc_paper": MCSpec((200, 10, 1500), r=2, trials=20, calls=10, workers=1,
                       count_chains=False, recount_trials=6),
    # chain enumeration at r = 3 through the fork pool
    "mc_chains": MCSpec((60, 5, 300), r=3, trials=125, calls=4, workers=2,
                        count_chains=True, recount_trials=8),
}
MC_SMOKE = {
    "mc_paper": MCSpec((40, 8, 200), r=2, trials=5, calls=2, workers=1,
                       count_chains=False, recount_trials=2),
    "mc_chains": MCSpec((20, 4, 40), r=3, trials=10, calls=2, workers=2,
                        count_chains=True, recount_trials=2),
}
PIPELINE_FULL = PipelineSpec((8, 3, 12), r=2, trials=200, bounds_n="50:500:50", bounds_r="2,3")
PIPELINE_SMOKE = PipelineSpec((6, 3, 8), r=2, trials=50, bounds_n="50:100:50", bounds_r="2")
ORACLE_MAX_VERTICES = {False: 8, True: 6}


def make_workload(name: str, seed: int, smoke: bool, tmp: Path) -> Workload:
    if name in MC_FULL:
        return MonteCarloWorkload(name, seed, (MC_SMOKE if smoke else MC_FULL)[name])
    if name == "oracle_suite":
        return OracleSuiteWorkload(seed, ORACLE_MAX_VERTICES[smoke])
    if name == "pipeline_cli":
        return PipelineWorkload(seed, PIPELINE_SMOKE if smoke else PIPELINE_FULL, tmp)
    raise ValueError(f"unknown workload {name!r}")
