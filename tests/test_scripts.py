"""Every script under scripts/ starts and prints its help; the two that
write CSVs run on small inputs and write the rows they promise, and the
engine stage timer prints every stage `run` calls."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hgcolor.suite import fixed_suite

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def run_script(name, *args, cwd=None):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [dict(zip(rows[0], row)) for row in rows[1:]]


def test_scripts_exist():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_help_exits_zero(script):
    proc = run_script(script.name, "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


def test_limit_scan_writes_its_rows(tmp_path):
    out = tmp_path / "limit.csv"
    proc = run_script("limit_scan.py", "--n", "1000", "10000", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    header, rows = read_csv(out)
    assert header == [
        "n", "k", "p_reference", "value_at_reference_p", "value_at_optimal_p",
        "limit", "excess_over_limit", "max_k_2col_ratio",
    ]
    assert [row["n"] for row in rows] == ["1000", "10000"]
    assert [row["value_at_optimal_p"] for row in rows] == ["1.440087", "1.357141"]
    assert {row["limit"] for row in rows} == {"0.980000"}


def test_mc_vs_oracle_writes_one_row_per_suite_instance(tmp_path):
    out = tmp_path / "suite.csv"
    proc = run_script("mc_vs_oracle.py", "--trials", "20", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    header, rows = read_csv(out)
    assert header == [
        "name", "vertices", "edges", "r", "exact", "mc_estimate",
        "wilson99_lo", "wilson99_hi", "inside", "equitable_estimate",
    ]
    expected = [[name, str(h.vertex_count), str(h.edge_count), str(r)] for name, h, r in fixed_suite()]
    assert [[row[key] for key in header[:4]] for row in rows] == expected
    for row in rows:
        assert 0.0 <= float(row["wilson99_lo"]) <= float(row["mc_estimate"]) <= float(row["wilson99_hi"]) <= 1.0
        assert row["inside"] in ("True", "False")


@pytest.mark.parametrize("chains", [[], ["--chains"]])
def test_engine_stages_times_every_stage(chains):
    proc = run_script("engine_stages.py", "--random", "40", "8", "200", "--r", "3", "--batch", "10",
                      "--reps", "3", *chains)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == f"40 vertices, 200 edges, r = 3, chains {'on' if chains else 'off'}, 10 trials per batch, 3 batches"
    stages = [line.split()[0] for line in lines[2:-1]]
    assert stages == ["_positions", "_edge_positions", "_meets", "_chains" if chains else "_certified",
                      "_succeeds", "_spans", "run"]
    assert all(float(line.split()[1]) > 0 for line in lines[2:-1])
    paired, swept, failed = (float(x.split()[0]) for x in lines[-1].removeprefix("rows per batch: ").split(", "))
    assert failed <= swept <= paired
