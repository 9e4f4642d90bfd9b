"""Record a baseline: repeated runs of every workload, summarized.

    python3 bench/baseline.py --seeds 801-810 --out bench/baseline.json

Runs every workload of BENCHMARK.json once per seed, round robin, for its
run_seconds, exactly as `bench/run.py --trace 0` does, then one traced run
per workload on the first seed. Writes, per workload, each end-to-end
metric's values with their median, quartiles and spread (the distance
between the quartiles over the median), the printed-only call latencies
and the host slowdown likewise, and the traced run's per-layer metrics. Stops at the first run
whose outputs fail their checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def checked(res: dict, seed: int) -> dict:
    if not res["correct"]:
        sys.exit(f"error: {res['workload']} seed {seed} failed: {res['failures']}")
    return res


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last, for example 601-610")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    if last - first + 1 < 4:
        parser.error("--seeds needs at least four seeds for quartiles")
    spec = run.load_spec()
    run.import_library()

    def options(seed: int, trace: int) -> argparse.Namespace:
        return argparse.Namespace(seed=seed, seconds=float(spec["run_seconds"]),
                                  trace=trace, smoke=False)

    names = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for seed in range(first, last + 1):
        for name in names:
            opts = options(seed, 0)
            parts = [run.measure_in_child(name, opts, i) for i in range(run.PROCESSES)]
            runs[name].append(checked(run.summarize(name, parts), seed))

    context = run.run_context(options(first, 1))
    workloads = {}
    for name in names:
        traced = checked(run.traced(name, options(first, 1), context), first)
        workloads[name] = {
            "seeds": list(range(first, last + 1)),
            "end_to_end": {
                m["name"]: dict(summary([r["metrics"][m["name"]] for r in runs[name]]),
                                unit=m["unit"], bound=m["bound"])
                for m in spec["end_to_end"]
            },
            "printed_unbounded": {
                key: dict(summary([r["detail"]["unbounded"][key] for r in runs[name]]), unit=unit)
                for key, unit in run.UNBOUNDED_UNITS.items()
            },
            # how much slower than the reference speed the host ran each run
            "host_slowdown": summary([r["detail"]["host_slowdown"] for r in runs[name]]),
            "per_layer": {"seed": first, "probe_inputs": traced["detail"]["probe_inputs"],
                          "metrics": traced["metrics"]},
        }
    context = {k: v for k, v in context.items() if k not in ("seed", "trace", "smoke")}
    with open(args.out, "w") as fh:
        json.dump({"context": context, "workloads": workloads}, fh, indent=1)
        fh.write("\n")
    for name, entry in workloads.items():
        print(name, {k: round(v["spread"], 4) for k, v in entry["end_to_end"].items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
