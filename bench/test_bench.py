"""Smoke tests of the benchmark itself: python3 -m pytest bench -q

They run every workload at --smoke sizes for a fraction of a second.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_end_to_end_metric_is_printed_with_its_unit():
    proc = bench("--workload", "all", "--seed", "3", "--seconds", "0.2", "--smoke")
    out = result_of(proc)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    expected = {
        f"{w}.{m['name']}": m["unit"] for w in run.NAMES for m in SPEC["end_to_end"]
    }
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())
    for name in [m["name"] for m in SPEC["end_to_end"]] + list(run.UNBOUNDED_UNITS):
        assert f"\n{name} " in proc.stdout
    assert "failed_frac" in proc.stdout and '"git"' in proc.stdout


@pytest.mark.parametrize("workload", run.NAMES)
def test_traced_run_prints_every_per_layer_metric_and_writes_spans(workload):
    out = result_of(bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                          "--smoke", "--trace", "1"))
    assert out["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    trace = json.loads((ROOT / ".bench_out" / f"trace-{workload}-seed5.json").read_text())
    spans = trace["spans"]
    assert len(spans) == out["metrics"]["trace.spans"]["value"]
    assert {"id", "parent", "call", "name", "start", "end", "self"} <= set(spans[0])
    assert all(s["start"] <= s["end"] for s in spans)


def measured(workload: str) -> dict:
    """One in-process measuring process at --smoke sizes, summarized."""
    args = argparse.Namespace(workload=workload, seed=7, seconds=0.0, trace=0, smoke=True)
    return run.summarize(workload, [run.measure(workload, args, 0)])


def test_slowdown_pairs_each_call_with_the_reference_loops_around_it(monkeypatch):
    import layers

    rec = layers.Calibrated()
    rec.calls = [("a", 1.0), ("b", 3.0)]
    rec.refs = [2.0, 4.0]
    monkeypatch.setattr(layers, "reference_loop", lambda: 6.0)  # the closing loop
    # (1 * (2 + 4) / 2 + 3 * (4 + 6) / 2) / (1 + 3) = 4.5, over the reference 2
    assert rec.slowdown(0, 0, reference_s=2.0) == 2.25


def test_passes_are_scaled_to_the_reference_speed():
    part = run.measure("mc_paper", argparse.Namespace(
        workload="mc_paper", seed=7, seconds=0.0, trace=0, smoke=True), 0)
    assert len(part["walls"]) == len(part["slowdowns"]) >= 1
    assert all(s > 0 for s in part["slowdowns"]) and part["setup_slowdown"] > 0
    assert part["setup_s"] == part["setup_raw_s"] / part["setup_slowdown"]


def test_wrong_oracle_pin_counts_as_failed(monkeypatch):
    real = workloads.load_pins

    def wrong_pins():
        pins = real()
        pins["triangle_r2"]["proper_orderings"] += 1
        return pins

    monkeypatch.setattr(workloads, "load_pins", wrong_pins)
    result = measured("oracle_suite")
    assert not result["correct"]
    assert result["failed"] == 1  # the one pass's greedy result on triangle_r2
    assert result["failed_frac"] == 1 / result["attempted"]


def test_raising_call_counts_as_failed(monkeypatch, capsys):
    def broken(h, r):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads, "count_proper_colorings", broken)
    result = measured("oracle_suite")
    calls = result["detail"]["calls"]
    assert result["failed"] == calls // 3  # every count_proper_colorings call
    assert all("count raised" in f for f in result["failures"])
    assert "RuntimeError: injected" in capsys.readouterr().err


def test_wrong_recount_counts_as_failed(monkeypatch):
    real = workloads.MonteCarloWorkload.recount

    def wrong_recount(self, seed, i):
        success, pairs, *rest = real(self, seed, i)
        return (success, pairs + 1, *rest)

    monkeypatch.setattr(workloads.MonteCarloWorkload, "recount", wrong_recount)
    result = measured("mc_paper")
    assert not result["correct"]
    assert result["failed"] == workloads.MC_SMOKE["mc_paper"].recount_trials
    assert result["failed_frac"] > 0


def test_baseline_summarizes_every_metric(monkeypatch, tmp_path):
    import baseline

    def smoke(fn):
        def call(name, args, *rest):
            args.smoke = True
            return fn(name, args, *rest)
        return call

    monkeypatch.setattr(run, "load_spec", lambda: dict(
        SPEC, run_seconds=0.1, workloads=[{"name": "mc_chains", "why": "pool"}]))
    monkeypatch.setattr(run, "measure_in_child", smoke(run.measure_in_child))
    monkeypatch.setattr(run, "traced", smoke(run.traced))
    out = tmp_path / "baseline.json"
    assert baseline.main(["--seeds", "3-6", "--out", str(out)]) == 0
    [entry] = json.loads(out.read_text())["workloads"].values()
    assert entry["seeds"] == [3, 4, 5, 6]
    assert set(entry["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(len(v["values"]) == 4 and v["q1"] <= v["median"] <= v["q3"]
               for v in entry["end_to_end"].values())
    assert set(entry["per_layer"]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_fails_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "mc_paper", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
