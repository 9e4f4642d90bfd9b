import json
import sys
from math import comb

import pytest

from hgcolor import Hypergraph, cli, experiment, gen_fano, loads_hypergraph, write_hypergraph
from hgcolor.cli import EXIT_BUDGET, EXIT_INVARIANT, EXIT_IO, EXIT_OK, build_parser, main
from hgcolor.oracle import DEFAULT_ORACLE_BUDGET

from conftest import naive_partition_count

TRIAL_SETTINGS = ("r", "trials", "seed", "p", "count_chains", "workers")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_fano_to_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "fano")
        assert code == EXIT_OK
        assert loads_hypergraph(out).edge_count == 7

    def test_complete_to_file(self, tmp_path, capsys):
        path = tmp_path / "c.hg"
        code, _, _ = run(capsys, "gen", "complete", "--m", "5", "--n", "3", "--out", str(path))
        assert code == EXIT_OK
        assert loads_hypergraph(path.read_text()).edge_count == 10

    def test_random_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.hg", tmp_path / "b.hg"
        run(capsys, "gen", "random", "--m", "8", "--n", "3", "--edges", "10", "--seed", "5", "--out", str(a))
        run(capsys, "gen", "random", "--m", "8", "--n", "3", "--edges", "10", "--seed", "5", "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_wide_edges_exceed_the_budget(self, tmp_path, capsys):
        # ten edges of five million vertices: few edges, but 5 * 10**7
        # vertex slots, refused before any edge is drawn
        path = tmp_path / "x.hg"
        code, _, err = run(
            capsys, "gen", "random", "--m", "10000000", "--n", "5000000", "--edges", "10", "--out", str(path)
        )
        assert code == EXIT_BUDGET
        assert "vertex slots" in err
        assert not path.exists()

    def test_many_vertices_exceed_the_budget(self, tmp_path, capsys):
        # one edge of 10**7 vertices fills the slot budget exactly, but each
        # edge draw may list all 4 * 10**8 vertices
        path = tmp_path / "x.hg"
        code, _, err = run(
            capsys, "gen", "random", "--m", "400000000", "--n", "10000000", "--edges", "1", "--out", str(path)
        )
        assert code == EXIT_BUDGET
        assert "400000000 vertices exceed budget" in err
        assert not path.exists()


class TestColor:
    def test_single_run(self, tmp_path, capsys):
        path = tmp_path / "f.hg"
        run(capsys, "gen", "fano", "--out", str(path))
        code, out, _ = run(capsys, "color", "--in", str(path), "--r", "3", "--seed", "1")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["proper"] is True
        assert len(payload["colors"]) == 7

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--p", "0.3"], "error: --p is the two-phase middle width; it needs --two-phase\n"),
            (["--seed", "-1"], "error: seed must be a nonnegative integer\n"),
        ],
        ids=["p-without-two-phase", "negative-seed"],
    )
    def test_bad_flags_rejected(self, tmp_path, capsys, flags, message):
        path = tmp_path / "f.hg"
        run(capsys, "gen", "fano", "--out", str(path))
        code, out, err = run(capsys, "color", "--in", str(path), "--r", "2", *flags)
        assert (code, out, err) == (EXIT_INVARIANT, "", message)

    def test_p_with_two_phase(self, tmp_path, capsys):
        path = tmp_path / "f.hg"
        run(capsys, "gen", "fano", "--out", str(path))
        code, out, _ = run(capsys, "color", "--in", str(path), "--r", "2", "--two-phase", "--p", "0.3")
        assert code == EXIT_OK
        assert len(json.loads(out)["colors"]) == 7


class TestMc:
    def test_json_report(self, tmp_path, capsys):
        path = tmp_path / "f.hg"
        run(capsys, "gen", "fano", "--out", str(path))
        code, out, _ = run(capsys, "mc", "--in", str(path), "--trials", "100", "--seed", "2")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["successes"] == 0
        assert payload["trials"] == 100

    def test_csv_report(self, tmp_path, capsys):
        path = tmp_path / "f.hg"
        run(capsys, "gen", "fano", "--out", str(path))
        code, out, _ = run(capsys, "mc", "--in", str(path), "--trials", "50", "--seed", "2", "--format", "csv")
        assert code == EXIT_OK
        import csv as _csv
        import io as _io

        rows = list(_csv.reader(_io.StringIO(out)))
        assert len(rows) == 2
        assert len(rows[0]) == len(rows[1])

    def test_chain_counts_past_ten_million_are_exact(self, tmp_path, capsys):
        # K_60 has C(60, 11), about 3.4e11, conflicting 10-chains in every order
        path = tmp_path / "k60.hg"
        run(capsys, "gen", "complete", "--m", "60", "--n", "2", "--out", str(path))
        code, out, err = run(capsys, "mc", "--in", str(path), "--r", "10", "--trials", "20",
                             "--count-chains")
        assert (code, err) == (EXIT_OK, "")
        report = json.loads(out)
        assert report["mean_conflicting_chains"] == comb(60, 11)
        assert report["chain_ceiling_trials"] == 0

    def test_chain_count_past_int64_is_flagged(self, tmp_path, capsys):
        # K_100 has about 6.6e25 conflicting 30-chains in every order: past
        # the exact range, so each trial is flagged and none is wrapped
        path = tmp_path / "k100.hg"
        run(capsys, "gen", "complete", "--m", "100", "--n", "2", "--out", str(path))
        code, out, err = run(capsys, "mc", "--in", str(path), "--r", "30", "--trials", "2",
                             "--count-chains")
        assert (code, err) == (EXIT_OK, "")
        report = json.loads(out)
        assert report["chain_ceiling_trials"] == 2
        assert report["total_conflicting_chains"] == 0
        assert report["mean_conflicting_chains"] is None


    @pytest.mark.parametrize("command", ["mc", "experiment"])
    def test_instance_without_vertices(self, tmp_path, capsys, command):
        path = tmp_path / "empty.hg"
        path.write_text("0 0\n")
        code, _, err = run(capsys, command, "--in", str(path), "--trials", "5", "--seed", "1",
                           "--out", str(tmp_path / "o"))
        assert (code, err) == (EXIT_OK, "")


class TestOracle:
    def test_fano(self, tmp_path, capsys):
        path = tmp_path / "f.hg"
        run(capsys, "gen", "fano", "--out", str(path))
        code, out, _ = run(capsys, "oracle", "--in", str(path), "--r", "2")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["colorable"] is False
        assert payload["orderings"]["proper"] == 0

    def test_budget_exit_code(self, tmp_path, capsys):
        path = tmp_path / "f.hg"
        run(capsys, "gen", "complete", "--m", "12", "--n", "2", "--out", str(path))
        code, _, err = run(capsys, "oracle", "--in", str(path), "--oracle-budget", "100")
        assert code == EXIT_BUDGET
        assert "budget" in err


    def test_search_past_the_recursion_limit_exits_3(self, tmp_path, capsys):
        path = tmp_path / "wide.hg"
        write_hypergraph(Hypergraph(1200, []), str(path))
        code, out, err = run(capsys, "oracle", "--in", str(path), "--oracle-budget", str(10**400))
        assert code == EXIT_BUDGET
        tail = f"on 1200 vertices nests deeper than Python's recursion limit ({sys.getrecursionlimit()}) allows"
        notes = [f"colorability search {tail}"] * 2 + [f"ordering census {tail}"]
        assert err == "".join(f"budget: {note}\n" for note in notes)
        assert json.loads(out) == {
            "colorable": None, "witness": None, "proper_colorings": None, "orderings": None,
            "colorable_note": notes[0], "count_note": notes[1], "ordering_note": notes[2],
        }

    def test_colorability_budget_hit_keeps_the_payload(self, tmp_path, capsys):
        # vertex 7 is blocked in every coloring: the search tries 1,644
        # assignments at r = 3 to refute it, the census 576
        path = tmp_path / "blocked.hg"
        write_hypergraph(Hypergraph(8, [(7,)]), str(path))
        code, out, err = run(capsys, "oracle", "--in", str(path), "--r", "3", "--oracle-budget", "1000")
        assert code == EXIT_BUDGET
        note = "colorability search exceeded budget 1000"
        assert err == f"budget: {note}\nbudget: {note}\n"
        assert json.loads(out) == {
            "colorable": None, "witness": None, "colorable_note": note,
            "proper_colorings": None, "count_note": note,
            "orderings": {"total": 40320, "proper": 0, "probability": "0/1"},
        }

    def test_one_color_exits_2_without_traceback(self, tmp_path, capsys):
        # r < 2 is refused before any search runs, so even at budget 0 no
        # search prints a budget: line ahead of the error
        path = tmp_path / "long.hg"
        write_hypergraph(Hypergraph(1200, [(1198, 1199)]), str(path))
        for flags in ([], ["--oracle-budget", "0"]):
            code, out, err = run(capsys, "oracle", "--in", str(path), "--r", "1", *flags)
            assert code == EXIT_INVARIANT
            assert err == "error: need r >= 2, got 1\n"
            assert out == ""


class TestExitCodes:
    @pytest.mark.parametrize("command", ["color", "mc", "oracle", "experiment"])
    def test_header_past_the_slot_budget_exits_3(self, tmp_path, capsys, command):
        # an 11-byte file may not make a command build ten million vertices
        path = tmp_path / "huge.hg"
        path.write_text("10000001 0\n")
        out = ["--out", str(tmp_path / "out")] if command == "experiment" else []
        code, stdout, err = run(capsys, command, "--in", str(path), *out)
        assert (code, stdout) == (EXIT_BUDGET, "")
        assert err == (
            "error: line 1: header declares 10000001 vertices, exceeding budget 10000000 vertex slots\n"
        )

    @pytest.mark.parametrize("command", ["color", "oracle"])
    def test_huge_color_count_ends_in_an_exit_code(self, tmp_path, capsys, command):
        # the greedy edge state cuts the colors at the largest degree + 1,
        # so r = 10^20 builds no 10^20-bit mask
        path = tmp_path / "f.hg"
        run(capsys, "gen", "fano", "--out", str(path))
        flags = ["--oracle-budget", "1000"] if command == "oracle" else []
        code, out, err = run(capsys, command, "--in", str(path), "--r", str(10**20), *flags)
        assert code in (EXIT_OK, EXIT_INVARIANT, EXIT_BUDGET)
        assert "Traceback" not in err
        payload = json.loads(out)
        if command == "color":
            assert payload["proper"] and payload["forced_vertices"] == []
        else:
            # colors past those already used are tried once, so the count
            # is exact within the budget
            assert (code, err) == (EXIT_OK, "")
            assert payload["proper_colorings"] == naive_partition_count(gen_fano(), 10**20)
            assert payload["colorable"] and payload["orderings"]["probability"] == "1/1"

    @pytest.mark.parametrize("command", ["gen", "oracle", "experiment"])
    def test_oracle_budget_is_no_variable(self, tmp_path, monkeypatch, capsys, command):
        path = tmp_path / "f.hg"
        run(capsys, "gen", "fano", "--out", str(path))
        flags = {"gen": ["fano"], "oracle": ["--in", str(path)],
                 "experiment": ["--in", str(path), "--trials", "5", "--out", str(tmp_path / "o")]}
        monkeypatch.setenv("HGCOLOR_ORACLE_BUDGET", "lots")
        code, out, err = run(capsys, command, *flags[command])
        assert (code, err) == (EXIT_OK, "")
        if command == "oracle":
            assert json.loads(out)["orderings"]["probability"] == "0/1"
        if command == "experiment":
            report = json.loads((tmp_path / "o" / "report.json").read_text())
            assert report["config"]["oracle_budget"] == DEFAULT_ORACLE_BUDGET
            assert report["oracle"]["within_budget"]

    @pytest.mark.parametrize("command", ["mc", "experiment"])
    def test_chain_ceiling_is_no_flag_and_no_variable(self, tmp_path, monkeypatch, capsys, command):
        path = tmp_path / "f.hg"
        run(capsys, "gen", "fano", "--out", str(path))
        flags = ["--in", str(path), "--trials", "5", "--count-chains", "--out", str(tmp_path / "o")]
        monkeypatch.setenv("HGCOLOR_CHAIN_CEILING", "lots")
        code, _, err = run(capsys, command, *flags)
        assert (code, err) == (EXIT_OK, "")
        with pytest.raises(SystemExit) as exc:
            main([command, *flags, "--chain-ceiling", "5"])
        assert exc.value.code == EXIT_INVARIANT
        assert "unrecognized arguments: --chain-ceiling 5" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["oracle", "experiment"])
    def test_negative_oracle_budget_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "f.hg"
        run(capsys, "gen", "fano", "--out", str(path))
        outdir = tmp_path / "o"
        flags = ["--in", str(path), "--r", "2", "--oracle-budget", "-5"]
        if command == "experiment":
            flags += ["--trials", "5", "--out", str(outdir)]
        code, out, err = run(capsys, command, *flags)
        assert code == EXIT_INVARIANT
        assert err == "error: the oracle budget must be nonnegative, got -5\n"
        assert out == ""
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--workers", "0"), ("--p", "1.5"), ("--oracle-budget", "-1")],
    )
    def test_bad_trial_setting_exits_2_before_making_out(self, tmp_path, monkeypatch, capsys, flag, value):
        def refuse(*args, **kwargs):
            raise AssertionError("monte_carlo ran on a bad setting")

        monkeypatch.setattr(experiment, "monte_carlo", refuse)
        path = tmp_path / "f.hg"
        run(capsys, "gen", "fano", "--out", str(path))
        outdir = tmp_path / "e"
        code, out, err = run(capsys, "experiment", "--in", str(path), "--r", "3", "--count-chains",
                             flag, value, "--out", str(outdir))
        assert code == EXIT_INVARIANT
        assert err.startswith("error: ") and out == ""
        assert not outdir.exists()

    def test_missing_file_is_io(self, capsys):
        code, _, err = run(capsys, "mc", "--in", "/nonexistent.hg", "--seed", "1")
        assert code == EXIT_IO

    def test_malformed_file_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.hg"
        path.write_text("3 1\n0 zebra 2\n")
        code, _, err = run(capsys, "mc", "--in", str(path), "--seed", "1")
        assert code == EXIT_IO
        assert "line 2" in err

    @pytest.mark.parametrize(
        "data, line",
        [(b"3 2\n0 1\n\xff 2\n", "line 3"), ("3 1\n0 1 2\n".encode("utf-16"), "line 1")],
        ids=["0xff-byte", "utf-16"],
    )
    def test_file_not_utf8_is_a_parse_error(self, tmp_path, capsys, data, line):
        path = tmp_path / "bad.hg"
        path.write_bytes(data)
        code, _, err = run(capsys, "mc", "--in", str(path), "--seed", "1")
        assert code == EXIT_IO
        assert f"{line}: byte 0xff is not UTF-8 text" in err

    @pytest.mark.parametrize(
        "text, line",
        [("\u0665 1\n0\n", "line 1"), ("3 1\n1_0 2\n", "line 2"), ("3 1\n+1 2\n", "line 2")],
        ids=["arabic-indic-digit", "underscore", "plus-sign"],
    )
    def test_token_not_ascii_decimal_is_a_parse_error(self, tmp_path, capsys, text, line):
        path = tmp_path / "bad.hg"
        path.write_bytes(text.encode("utf-8"))
        code, _, err = run(capsys, "mc", "--in", str(path), "--seed", "1")
        assert code == EXIT_IO
        assert err.startswith(f"error: {line}: non-integer token")

    @pytest.mark.parametrize(
        "text, message",
        [("-3 0\n", "negative vertex count -3"), ("3 1\n0 -1\n", "edge 0: index out of range (-1)")],
        ids=["header", "edge"],
    )
    def test_negative_value_reaches_the_instance_check(self, tmp_path, capsys, text, message):
        path = tmp_path / "neg.hg"
        path.write_text(text)
        assert run(capsys, "mc", "--in", str(path), "--seed", "1") == (EXIT_INVARIANT, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "exc, message",
        [
            (MemoryError(), "error: out of memory\n"),
            (MemoryError("Unable to allocate 22.4 GiB"), "error: Unable to allocate 22.4 GiB\n"),
        ],
        ids=["bare", "numpy"],
    )
    def test_memory_error_exits_3(self, tmp_path, monkeypatch, capsys, exc, message):
        # the callee raises; nothing is allocated for real
        def out_of_memory(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "monte_carlo", out_of_memory)
        path = tmp_path / "f.hg"
        write_hypergraph(Hypergraph(3, [(0, 1, 2)]), str(path))
        assert run(capsys, "mc", "--in", str(path), "--seed", "1") == (EXIT_BUDGET, "", message)

    def test_invalid_instance(self, tmp_path, capsys):
        path = tmp_path / "bad.hg"
        path.write_text("2 1\n0 5\n")
        code, _, err = run(capsys, "color", "--in", str(path), "--seed", "1")
        assert code == EXIT_INVARIANT
        assert "out of range" in err


class TestBounds:
    def test_csv_table(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "30,60", "--r", "2")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0].startswith("n,r,")
        assert len(lines) == 3

    def test_range_syntax_and_plot(self, tmp_path, capsys):
        csv_path, svg = tmp_path / "bounds.csv", tmp_path / "plot.svg"
        code, out, _ = run(
            capsys, "bounds", "--n", "30:90:30", "--r", "2,3", "--out", str(csv_path), "--plot", str(svg)
        )
        assert code == EXIT_OK and out == ""
        assert len(csv_path.read_text().splitlines()) == 1 + 3 * 2
        text = svg.read_text()
        assert text.startswith("<svg")
        for name in ("max_k_2col", "max_k_rcol r=2", "max_k_rcol r=3"):
            assert f">{name}</text>" in text

    @pytest.mark.parametrize(
        "n_range, values",
        [
            ("50:200:50", [50, 100, 150, 200]),
            ("200:50:-50", [200, 150, 100, 50]),
            ("200:60:-50", [200, 150, 100]),
            ("60:60:-1", [60]),
        ],
    )
    def test_range_includes_its_stop_either_way(self, capsys, n_range, values):
        code, out, _ = run(capsys, "bounds", "--n", n_range, "--r", "2")
        assert code == EXIT_OK
        assert [int(line.split(",")[0]) for line in out.splitlines()[1:]] == values

    def test_edge_size_below_two_rejected(self, capsys):
        code, out, err = run(capsys, "bounds", "--n", "1")
        assert code == EXIT_INVARIANT
        assert "n=1" in err and "Traceback" not in err
        assert out == ""

    def test_edge_size_past_float_range_rejected(self, tmp_path, capsys):
        # n / ln(n) cannot be formed as a float here
        csv_path = tmp_path / "bounds.csv"
        code, out, err = run(capsys, "bounds", "--n", str(10**400), "--out", str(csv_path))
        assert code == EXIT_BUDGET
        assert f"n={10**400}" in err and "Traceback" not in err
        assert out == "" and not csv_path.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n", "5:3"], "at least one n and one r"),
            (["--n", "50", "--r", "3:2"], "at least one n and one r"),
            (["--n", "50:500:50:7"], "start:stop or start:stop:step"),
            (["--n", "50:500:0"], "step must not be zero"),
            (["--n", "50", "--r", "2:3:0"], "step must not be zero"),
            # the only cell is an error cell, so the plot has no point
            (["--n", "2", "--r", "3"], "nothing to plot"),
        ],
    )
    def test_bad_range_rejected_before_writing(self, tmp_path, capsys, flags, message):
        csv_path, svg = tmp_path / "bounds.csv", tmp_path / "plot.svg"
        code, out, err = run(capsys, "bounds", *flags, "--out", str(csv_path), "--plot", str(svg))
        assert code == EXIT_INVARIANT
        assert message in err and "Traceback" not in err
        assert out == "" and not csv_path.exists() and not svg.exists()

    @pytest.mark.parametrize(
        "n", ["100000000000", "10000000000000000", "100000000000000000000", "10000000000000000000000"]
    )
    def test_huge_n_returns(self, capsys, n):
        # the bisections end between adjacent floats instead of looping
        code, out, err = run(capsys, "bounds", "--n", n, "--r", "2,3")
        assert code == EXIT_OK and err == ""
        rows = experiment.bound_table_from_csv(out)
        assert len(rows) == 2 and not any(row.error for row in rows)

    @pytest.mark.parametrize("r", ["0", "1"])
    def test_color_count_below_two_rejected(self, capsys, r):
        code, out, err = run(capsys, "bounds", "--n", "50", "--r", r)
        assert code == EXIT_INVARIANT
        assert f"r={r}" in err and "Traceback" not in err
        assert out == ""


class TestSharedFlags:
    def test_mc_and_experiment_parse_the_same_trial_settings(self):
        parser = build_parser()
        for flags in ([], ["--r", "3", "--trials", "9", "--seed", "4", "--p", "0.2",
                           "--count-chains", "--workers", "2"]):
            mc = vars(parser.parse_args(["mc", "--in", "x.hg", *flags]))
            exp = vars(parser.parse_args(["experiment", "--in", "x.hg", *flags]))
            assert {k: mc[k] for k in TRIAL_SETTINGS} == {k: exp[k] for k in TRIAL_SETTINGS}

    def test_experiment_has_no_plot_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["experiment", "--in", "x.hg", "--plot"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --plot" in capsys.readouterr().err

    def test_color_p_is_not_the_interval_width(self):
        args = build_parser().parse_args(["color", "--in", "x.hg", "--p", "0.3"])
        assert args.p == 0.3 and not hasattr(args, "trials")


class TestExperiment:
    def test_full_pipeline(self, tmp_path, capsys):
        inst = tmp_path / "f.hg"
        run(capsys, "gen", "fano", "--out", str(inst))
        outdir = tmp_path / "exp"
        code, out, _ = run(
            capsys,
            "experiment",
            "--in",
            str(inst),
            "--trials",
            "100",
            "--seed",
            "3",
            "--out",
            str(outdir),
        )
        assert code == EXIT_OK
        report = json.loads((outdir / "report.json").read_text())
        assert report["mc"]["successes"] == 0
        assert (outdir / "report.csv").exists()

    @pytest.mark.parametrize("n, r", [(1025, 2), (700, 3)])
    def test_wide_uniform_instance(self, tmp_path, capsys, n, r):
        inst = tmp_path / "c.hg"
        run(capsys, "gen", "complete", "--m", str(n), "--n", str(n), "--out", str(inst))
        outdir = tmp_path / "exp"
        code, _, err = run(capsys, "experiment", "--in", str(inst), "--r", str(r), "--oracle-budget", "0",
                           "--trials", "5", "--out", str(outdir))
        assert (code, err) == (EXIT_OK, "")
        report = json.loads((outdir / "report.json").read_text())
        assert report["bounds"]["k_coefficient"] is not None
        assert report["oracle"]["note"] == f"ordering census on {n} vertices exceeds budget 0"

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"source": {"kind": "fano"}, "r": 2, "trials": 60, "seed": 4}
            )
        )
        outdir = tmp_path / "exp2"
        code, _, _ = run(capsys, "experiment", "--config", str(cfg), "--out", str(outdir))
        assert code == EXIT_OK
        report = json.loads((outdir / "report.json").read_text())
        assert report["config"]["trials"] == 60

    def test_config_reports_go_only_under_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"source": {"kind": "fano"}, "trials": 20, "seed": 1}))
        code, out, _ = run(capsys, "experiment", "--config", str(cfg), "--out", "b")
        assert code == EXIT_OK
        assert "b/report.json" in out
        written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
        assert written == ["b/report.csv", "b/report.json", "cfg.json"]

    def test_unwritable_out_fails_before_computing(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("monte_carlo ran before the output directory was made")

        monkeypatch.setattr(experiment, "monte_carlo", refuse)
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"source": {"kind": "fano"}, "trials": 20, "seed": 1}))
        code, out, err = run(capsys, "experiment", "--config", str(cfg), "--out", str(blocker / "sub"))
        assert code == EXIT_IO
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""

    def test_byte_identical_reports_modulo_timestamp(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"source": {"kind": "fano"}, "trials": 30, "seed": 8})
        )
        outs = []
        for name in ("e1", "e2"):
            outdir = tmp_path / name
            run(capsys, "experiment", "--config", str(cfg), "--out", str(outdir))
            data = json.loads((outdir / "report.json").read_text())
            data.pop("timestamp")
            outs.append(json.dumps(data, sort_keys=True))
        assert outs[0] == outs[1]

    def test_config_with_a_chain_ceiling_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"source": {"kind": "fano"}, "trials": 5, "chain_ceiling": 10}))
        code, out, err = run(capsys, "experiment", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == EXIT_INVARIANT
        assert err == "error: unknown config fields: chain_ceiling\n" and out == ""
        assert not (tmp_path / "o").exists()

    def test_run_oracle_is_no_flag_and_no_field(self, tmp_path, capsys):
        path = tmp_path / "f.hg"
        run(capsys, "gen", "fano", "--out", str(path))
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--in", str(path), "--no-oracle", "--out", str(tmp_path / "o")])
        assert exc.value.code == EXIT_INVARIANT
        assert "unrecognized arguments: --no-oracle" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"source": {"kind": "fano"}, "trials": 5, "run_oracle": False}))
        code, out, err = run(capsys, "experiment", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert (code, out) == (EXIT_INVARIANT, "")
        assert err == "error: unknown config fields: run_oracle\n"
        assert not (tmp_path / "o").exists()

    def test_zero_oracle_budget_skips_the_census(self, tmp_path, capsys):
        path = tmp_path / "f.hg"
        run(capsys, "gen", "fano", "--out", str(path))
        outdir = tmp_path / "o"
        code, _, err = run(capsys, "experiment", "--in", str(path), "--trials", "5",
                           "--oracle-budget", "0", "--out", str(outdir))
        assert (code, err) == (EXIT_OK, "")
        report = json.loads((outdir / "report.json").read_text())
        assert report["oracle"] == {
            "within_budget": False, "colorable": None, "ordering_total": None, "ordering_proper": None,
            "exact_probability": None, "mc_inside_wilson99": None,
            "note": "ordering census exceeded budget 0",
        }
        assert report["mc"]["trials"] == 5 and not report["invariant_violations"]

    @pytest.mark.parametrize(
        "raw",
        [
            [1, 2],
            {"source": {"kind": "fano"}, "trails": 3},
            {"source": {"kind": "fano"}, "trials": "10"},
            {"source": {"kind": "fano"}, "trials": 10.5},
            {"source": {"kind": "complete", "m": 5}},
            {"source": {"kind": "complete", "m": "7", "n": 3}},
            {"source": {"kind": "random", "m": 8, "n": 3, "edges": "5"}},
            {"source": {"kind": "random", "m": 8, "n": 3, "edges": 5, "seed": "x"}},
            {"source": {"kind": "random", "m": 8.0, "n": 3, "edges": 5}},
            {"source": {"kind": "file", "path": 2}},
            {"source": {"kind": "random", "m": 8, "n": 3, "edges": 5, "sede": 3}},
        ],
        ids=[
            "list",
            "unknown-key",
            "str-trials",
            "float-trials",
            "missing-source-field",
            "str-complete-m",
            "str-random-edges",
            "str-random-seed",
            "float-random-m",
            "int-file-path",
            "unknown-source-field",
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        code, out, err = run(capsys, "experiment", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == EXIT_INVARIANT
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""
