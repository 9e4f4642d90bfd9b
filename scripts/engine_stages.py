#!/usr/bin/env python3
"""Time each stage of the Monte Carlo trial engine, interleaved in one process.

Every repetition draws a fresh batch of birth times (trial i from
default_rng([seed, i]), as monte_carlo draws them) and runs the engine on
it once, with each stage method that `run` calls timed where it is called.
Prints the median microseconds per trial of each stage and of the whole
`run`, and per batch the rows that have a pair, the rows the sweep reads
(the rows that can fail) and the rows that fail.

Example:
    python scripts/engine_stages.py --random 200 10 1500 --r 2 --batch 20
    python scripts/engine_stages.py --file h.txt --r 3 --chains
"""

import argparse
import time

import numpy as np

from hgcolor import gen_random_uniform, read_hypergraph
from hgcolor.montecarlo import _Column, _TrialEngine, _trial_generators, default_p

STAGES = ("_positions", "_edge_positions", "_meets", "_chains", "_certified", "_succeeds", "_spans")


def timed(method, spans):
    """`method`, appending the nanoseconds of each call to `spans`."""

    def call(*args):
        t0 = time.perf_counter_ns()
        result = method(*args)
        spans.append(time.perf_counter_ns() - t0)
        return result

    return call


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    source = ap.add_mutually_exclusive_group()
    source.add_argument("--random", type=int, nargs=3, metavar=("V", "N", "M"), default=[200, 10, 1500],
                        help="gen_random_uniform(V, N, M, seed=--instance-seed) (default 200 10 1500)")
    source.add_argument("--file", help="a hypergraph in the text format instead")
    ap.add_argument("--instance-seed", type=int, default=1)
    ap.add_argument("--r", type=int, default=2)
    ap.add_argument("--batch", type=int, help="trials per batch (default: the engine's own batch)")
    ap.add_argument("--reps", type=int, default=200)
    ap.add_argument("--seed", type=int, default=1, help="trial seed")
    ap.add_argument("--chains", action="store_true", help="count chains, as monte_carlo(count_chains=True)")
    args = ap.parse_args()
    if args.r < 2 or args.reps < 1 or (args.batch is not None and args.batch < 1):
        ap.error("need --r >= 2, --reps >= 1 and --batch >= 1")

    h = read_hypergraph(args.file) if args.file else gen_random_uniform(*args.random, seed=args.instance_seed)
    h.require_valid()
    engine = _TrialEngine(h, args.r, default_p(h), args.chains)
    ns = {}
    # instance attributes shadow the methods, so run calls the timed ones
    for name in STAGES:
        setattr(engine, name, timed(getattr(engine, name), ns.setdefault(name, [])))
    swept = []
    sweep = engine._succeeds

    def counted(edge_pos, closing, rows):
        swept.append(len(rows))
        return sweep(edge_pos, closing, rows)

    engine._succeeds = counted

    batch = args.batch or engine.batch
    times = np.empty((batch, h.vertex_count))
    ns["run"] = []
    paired = failed = 0
    for rep in range(args.reps):
        for row, gen in zip(times, _trial_generators(args.seed, rep * batch, (rep + 1) * batch)):
            gen.random(out=row)
        t0 = time.perf_counter_ns()
        out = engine.run(times)
        ns["run"].append(time.perf_counter_ns() - t0)
        paired += np.count_nonzero(out[:, _Column.PAIRS])
        failed += batch - np.count_nonzero(out[:, _Column.SUCCESS])

    print(f"{h.vertex_count} vertices, {h.edge_count} edges, r = {args.r}, chains {'on' if args.chains else 'off'}, "
          f"{batch} trials per batch, {args.reps} batches")
    print(f"{'stage':<16}{'us/trial':>10}")
    for name, spans in ns.items():
        if spans:
            print(f"{name:<16}{np.median(spans) / 1e3 / batch:>10.2f}")
    print(f"rows per batch: {paired / args.reps:.2f} with a pair, {sum(swept) / args.reps:.2f} swept, "
          f"{failed / args.reps:.2f} failed")


if __name__ == "__main__":
    main()
