"""hgcolor benchmark: four closed-loop workloads over the public API.

    python3 bench/run.py --workload mc_paper --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics. The run starts PROCESSES fresh
processes in turn; each sets the workload up, repeats its fixed pass of
public calls for its share of --seconds, and checks every output against
a reference outside the timed passes. Every time is scaled to a fixed
reference host speed (see REFERENCE_S). The samples are pooled and every
metric is printed with its unit.

--trace 1 runs each pass untraced and then traced in this process,
probes every layer, writes the spans to .bench_out/, and reports the
per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --workload all runs the four
workloads in turn. --smoke shrinks every input, for the benchmark's own
tests.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # this process's set-up time counts from here

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("mc_paper", "mc_chains", "oracle_suite", "pipeline_cli")
# A run measures in PROCESSES fresh processes, one after another, each for
# an equal share of --seconds, and pools their samples, so no single
# process's luck decides a run; each process also gives one set-up sample.
PROCESSES = 3
PASS_STRIDE = 1_000_000  # process i runs passes i*PASS_STRIDE, ...: distinct inputs
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
# The speed of the shared host drifts by 20% and more over tens of seconds,
# for every kind of work alike. So every end-to-end time is reported at a
# fixed reference speed: a time is divided by how much slower than
# REFERENCE_S per reference_loop (bench/layers.py) the host ran around it.
# REFERENCE_S is the loop's median time on the 2-vCPU Xeon virtual machine
# where the baseline was taken, so the figures read as seconds there.
REFERENCE_S = 0.0040
SETUP_REFS = 25  # reference loops timed right after set-up


def load_spec() -> dict:
    """BENCHMARK.json: the workloads and the metrics with their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_library() -> None:
    """Put the checkout's src/ first on the path; refuse any other hgcolor."""
    if not (SRC / "hgcolor" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'hgcolor'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import hgcolor

    if Path(hgcolor.__file__).resolve().parent != (SRC / "hgcolor").resolve():
        sys.exit(f"error: imported hgcolor from {hgcolor.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Statistics and context
# ---------------------------------------------------------------------------


def tail_latency(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest percentile that
    keeps TAIL_BEYOND samples above it; the maximum when there are too few."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def cpu_seconds() -> float:
    """User + system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    """Largest resident set of this process or any reaped child."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def git_hash() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def src_digest() -> str:
    """sha256 over src/ (path and bytes of each file), which identifies the
    code even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_context(args) -> dict:
    import numpy
    import scipy

    return {
        "git": git_hash(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------


def timed_loop(wl, seconds: float, recs: list, first_pass: int = 0) -> list[dict]:
    """Repeat the workload's pass for `seconds` (at least once), then check
    every output. Pass k uses the inputs of pass index first_pass + k and
    runs once per recorder in turn, so every recorder sees the same inputs
    under the same machine conditions; the turn order alternates from pass
    to pass, so whatever the first run leaves warm favours neither. One
    result per recorder.

    A Calibrated recorder's passes are scaled to the reference host speed:
    the time of its reference loops is taken out, and what is left is
    divided by the pass's slowdown (see Calibrated.slowdown)."""
    from layers import Calibrated

    loops = [{"walls": [], "cpus": [], "rates": [], "slowdowns": [], "outputs": []}
             for _ in recs]
    start = time.perf_counter()
    k = first_pass
    while k == first_pass or time.perf_counter() - start < seconds:
        turns = list(zip(recs, loops))
        for rec, loop in (turns if k % 2 == 0 else turns[::-1]):
            mark = len(rec.calls)
            ref_mark = len(rec.refs) if isinstance(rec, Calibrated) else 0
            c0, t0 = cpu_seconds(), time.perf_counter()
            with rec.span(f"pass.{wl.name}"):
                items, outs = wl.run_pass(k, rec)
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
            slow = 1.0
            if isinstance(rec, Calibrated):
                in_refs = sum(rec.refs[ref_mark:])
                wall, cpu = wall - in_refs, cpu - in_refs
                slow = rec.slowdown(mark, ref_mark, REFERENCE_S)
                loop["slowdowns"].append(slow)
            loop["walls"].append(wall / slow)
            loop["cpus"].append(cpu / slow)
            busy = sum(dt for name, dt in rec.calls[mark:] if name in wl.item_calls)
            loop["rates"].append(items * slow / busy)
            loop["outputs"] += outs
        k += 1
    for loop in loops:
        outputs = loop.pop("outputs")
        loop["calls"] = len(outputs)
        loop["failures"] = [f for f in map(wl.check, outputs) if f is not None]
    return loops


def workload_dir(name: str) -> Path:
    return OUT / f"tmp-{os.getpid()}-{name}"


def measure(name: str, args, index: int) -> dict:
    """One measuring process: set up, run the timed loop for `args.seconds`,
    check the outputs, and (in the first process) run the reference checks."""
    from layers import Calibrated, reference_loop
    from workloads import make_workload

    tmp = workload_dir(name)
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        wl = make_workload(name, args.seed, args.smoke, tmp)
        wl.setup()
        setup_raw_s = time.perf_counter() - T0
        setup_slowdown = statistics.median(
            reference_loop() for _ in range(SETUP_REFS)) / REFERENCE_S
        rec = Calibrated()
        [loop] = timed_loop(wl, args.seconds, [rec], first_pass=index * PASS_STRIDE)
        refs = wl.reference_checks() if index == 0 else []
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "setup_s": setup_raw_s / setup_slowdown,
        "setup_raw_s": setup_raw_s,
        "setup_slowdown": setup_slowdown,
        "slowdowns": loop["slowdowns"],
        "walls": loop["walls"],
        "cpus": loop["cpus"],
        "rates": loop["rates"],
        "latencies": [dt for _, dt in rec.calls],
        "failures": loop["failures"] + [f"{label}: {err}" for label, err in refs if err],
        "attempted": loop["calls"] + len(refs),
        "reference_checks": len(refs),
        "peak_rss_mib": peak_rss_mib(),
        "item": wl.item,
    }


def measure_in_child(name: str, args, index: int) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--measure", str(index),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", repr(args.seconds / PROCESSES)] + (["--smoke"] if args.smoke else [])
    # three of these must fit in the 180 s a run may take
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=55)
    if out.returncode != 0:
        raise RuntimeError(f"measuring process {index} of {name} failed:\n{out.stderr}")
    sys.stderr.write(out.stderr)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(name: str, parts: list[dict]) -> dict:
    """Pool the samples of the measuring processes into the end-to-end metrics."""
    walls = [x for p in parts for x in p["walls"]]
    latencies = [x for p in parts for x in p["latencies"]]
    tail, pct, beyond = tail_latency(latencies)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in parts),
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(x for p in parts for x in p["rates"]),
        "cpu_s": statistics.median(x for p in parts for x in p["cpus"]),
        "peak_rss_mib": max(p["peak_rss_mib"] for p in parts),
    }
    # printed with the metrics, as measured (not scaled to the reference
    # speed), and too noisy on a shared host to bound
    unbounded = {
        "call_p50_ms": statistics.median(latencies) * 1e3,
        "call_tail_ms": tail * 1e3,
    }
    detail = {
        "processes": len(parts),
        "passes": len(walls),
        "calls": len(latencies),
        "item": parts[0]["item"],
        "unbounded": unbounded,
        "call_tail_percentile": round(pct, 2),
        "call_tail_beyond": beyond,
        "setup_samples_s": [p["setup_s"] for p in parts],
        "setup_raw_samples_s": [p["setup_raw_s"] for p in parts],
        # how much slower than the reference speed the host ran this run
        "host_slowdown": statistics.median(x for p in parts for x in p["slowdowns"]),
        "reference_checks": sum(p["reference_checks"] for p in parts),
    }
    failures = [f for p in parts for f in p["failures"]]
    return result(name, metrics, detail, failures, sum(p["attempted"] for p in parts))


def traced(name: str, args, context: dict) -> dict:
    """Untraced and traced passes in this process, then the layer probes."""
    from layers import Recorder, Tracer, probe_inputs, probe_layers
    from workloads import make_workload

    tmp = workload_dir(name)
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        wl = make_workload(name, args.seed, args.smoke, tmp)
        wl.setup()
        tr = Tracer()
        plain, loop = timed_loop(wl, 2 * args.seconds, [Recorder(), tr])
        metrics, source = probe_layers(tr, probe_inputs(wl, args.seed), args.seed, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    metrics.update({
        "trace.untraced_wall_s": statistics.median(plain["walls"]),
        "trace.wall_s": statistics.median(loop["walls"]),
        # each pass ran untraced and then traced on the same inputs
        "trace.overhead_frac": statistics.median(
            t / u for u, t in zip(plain["walls"], loop["walls"])) - 1.0,
        "trace.spans": float(len(tr.spans)),
    })
    trace_path = OUT / f"trace-{name}-seed{args.seed}.json"
    tr.write(trace_path, dict(context, workload=name))
    detail = {"probe_inputs": source, "trace_file": str(trace_path.relative_to(ROOT)),
              "untraced_passes": len(plain["walls"]), "traced_passes": len(loop["walls"])}
    return result(name, metrics, detail, plain["failures"] + loop["failures"],
                  plain["calls"] + loop["calls"])


def result(name: str, metrics: dict, detail: dict, failures: list, attempted: int) -> dict:
    return {
        "workload": name,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "metrics": metrics,
        "detail": detail,
    }


UNBOUNDED_UNITS = {"call_p50_ms": "ms", "call_tail_ms": "ms"}


def report(res: dict, units: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    d = res["detail"]
    print(f"== {res['workload']} ==")
    lines = [(name, value, units[name]) for name, value in res["metrics"].items()]
    lines += [(name, value, UNBOUNDED_UNITS[name] + " *")
              for name, value in d.get("unbounded", {}).items()]
    for name, value, unit in lines:
        note = ""
        if name == "setup_s":
            note = f"median of {len(d['setup_samples_s'])} set-ups"
        elif name == "call_p50_ms":
            note = f"n={d['calls']} calls"
        elif name == "call_tail_ms":
            note = (f"p{d['call_tail_percentile']}, {d['call_tail_beyond']} of "
                    f"{d['calls']} calls beyond")
        elif name == "items_per_s":
            note = f"{d['item']}; median of {d['passes']} passes"
        elif name in ("wall_s", "cpu_s"):
            note = f"median of {d['passes']} passes in {d['processes']} processes"
        print(f"{name:32s} {value:14.6g} {unit:9s} {note}")
    print(f"{'failed_frac':32s} {res['failed_frac']:14.6g} {'fraction':9s} "
          f"{res['failed']} of {res['attempted']} calls and checks")
    if "unbounded" in d:
        print("(* printed only: no bound in BENCHMARK.json)")
    for f in res["failures"]:
        print(f"  FAILED {f}")
    print("detail " + json.dumps(d, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--measure", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    import_library()
    sys.path.insert(0, str(BENCH_DIR))
    names = NAMES if args.workload == "all" else (args.workload,)
    if args.measure is not None:
        print(json.dumps(measure(names[0], args, args.measure)))
        return 0
    context = run_context(args)
    if args.trace:
        results = [traced(name, args, context) for name in names]
    else:
        results = [summarize(name, [measure_in_child(name, args, i) for i in range(PROCESSES)])
                   for name in names]
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    for r in results:
        if sorted(r["metrics"]) != sorted(declared):
            sys.exit(f"error: {r['workload']} metrics differ from BENCHMARK.json")
        report(r, units)
    print("context " + json.dumps(context, sort_keys=True))
    single = len(results) == 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (name if single else f"{r['workload']}.{name}"): {"value": value, "unit": units[name]}
            for r in results for name, value in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
