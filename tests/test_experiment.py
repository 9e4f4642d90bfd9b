import json

import numpy as np
import pytest

from hgcolor.experiment import (
    ExperimentConfig,
    bound_table,
    bound_table_from_csv,
    bound_table_to_csv,
    report_from_json,
    report_to_csv,
    report_to_json,
    run_experiment,
    strip_timestamp,
    svg_plot,
)
from hgcolor import is_r_colorable, montecarlo, write_hypergraph
from hgcolor.bounds import (
    expected_conflicting_chains,
    expected_short_edges,
    prob_edge_short_exact,
    reference_p,
)
from hgcolor.suite import fixed_suite

from conftest import count_pools


class TestConfig:
    def test_json_round_trip(self):
        cfg = ExperimentConfig(source={"kind": "fano"}, r=2, trials=10, seed=3)
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    def test_requires_trials(self):
        with pytest.raises(ValueError):
            ExperimentConfig(source={"kind": "fano"}, trials=0, seed=1)

    def test_requires_source_kind(self):
        with pytest.raises(ValueError):
            ExperimentConfig(source={}, seed=1)

    @pytest.mark.parametrize(
        "raw, message",
        [
            ([1, 2], "JSON object, got list"),
            ({"source": {"kind": "fano"}, "trails": 3}, "unknown config fields: trails"),
            ({"trials": 3}, "needs a 'source' field"),
            ({"source": {"kind": "fano"}, "trials": "10"}, "'trials' must be an integer, got '10'"),
            ({"source": {"kind": "fano"}, "trials": 10.5}, "'trials' must be an integer, got 10.5"),
            ({"source": {"kind": "fano"}, "seed": 2.0}, "'seed' must be an integer, got 2.0"),
            ({"source": {"kind": "fano"}, "r": True}, "'r' must be an integer, got True"),
            ({"source": {"kind": "fano"}, "p": "0.3"}, "'p' must be a number"),
            ({"source": {"kind": "fano"}, "count_chains": 1}, "'count_chains' must be true or false"),
            ({"source": {"kind": "fano"}, "out_dir": 5, "plot": True}, "unknown config fields: out_dir"),
            ({"source": "fano"}, "'source' must be an object"),
            ({"source": {"kind": "complete", "m": "7", "n": 3}}, "source field 'm' must be an integer, got '7'"),
            ({"source": {"kind": "random", "m": 8, "n": 3, "edges": "5"}}, "source field 'edges' must be an integer"),
            ({"source": {"kind": "random", "m": 8, "n": 3, "edges": 5, "seed": "x"}}, "source field 'seed' must be"),
            ({"source": {"kind": "random", "m": 8, "n": 3, "edges": 5, "seed": True}}, "'seed' must be an integer, got True"),
            ({"source": {"kind": "random", "m": 8.0, "n": 3, "edges": 5}}, "source field 'm' must be an integer, got 8.0"),
            ({"source": {"kind": "file", "path": 2}}, "source field 'path' must be a string, got 2"),
            ({"source": {"kind": "random", "m": 8, "n": 3, "edges": 5, "sede": 3}}, "^unknown source fields: sede$"),
        ],
    )
    def test_malformed_json_rejected(self, raw, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_json(json.dumps(raw))

    def test_integral_source_values_stored_as_int(self):
        source = {"kind": "random", "m": np.int64(8), "n": np.uint8(3), "edges": 5}
        cfg = ExperimentConfig(source=source, trials=5)
        assert all(type(cfg.source[k]) is int for k in ("m", "n", "edges"))
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    def test_integral_values_accepted_as_int(self):
        cfg = ExperimentConfig(source={"kind": "fano"}, trials=np.int64(10), seed=np.uint8(3), p=np.float32(0.5))
        assert (cfg.trials, cfg.seed, cfg.p) == (10, 3, 0.5)
        assert type(cfg.trials) is int and type(cfg.p) is float
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    @pytest.mark.parametrize(
        "source, field",
        [({"kind": "complete", "m": 5}, "'n'"), ({"kind": "random", "m": 5, "n": 3}, "'edges'")],
    )
    def test_missing_source_field_named(self, source, field):
        cfg = ExperimentConfig(source=source, trials=5, seed=1)
        with pytest.raises(ValueError, match=f"{source['kind']} source needs field {field}"):
            run_experiment(cfg)


class TestRunExperiment:
    def test_validates_the_instance_once(self, monkeypatch):
        import hgcolor.experiment
        import hgcolor.hypergraph
        from hgcolor import validate

        calls = []

        def counting_validate(h):
            calls.append(h)
            return validate(h)

        # also the name a caller may have imported
        for module in (hgcolor.hypergraph, hgcolor.experiment):
            monkeypatch.setattr(module, "validate", counting_validate, raising=False)
        source = {"kind": "random", "m": 8, "n": 3, "edges": 12, "seed": 2}
        report = run_experiment(ExperimentConfig(source=source, r=2, trials=20, seed=1))
        assert report.invariant_violations == [] and len(calls) == 1

    def test_fano_oracle_and_mc_agree_on_zero(self):
        cfg = ExperimentConfig(source={"kind": "fano"}, r=2, trials=300, seed=5)
        report = run_experiment(cfg)
        assert report.invariant_violations == []
        assert report.mc["successes"] == 0
        assert report.oracle["colorable"] is False
        assert report.oracle["ordering_proper"] == 0
        assert report.oracle["mc_inside_wilson99"] is True

    def test_deterministic_modulo_timestamp(self):
        cfg = ExperimentConfig(
            source={"kind": "random", "m": 7, "n": 3, "edges": 9, "seed": 4},
            r=2,
            trials=200,
            seed=11,
        )
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert strip_timestamp(a) == strip_timestamp(b)

    def test_worker_count_does_not_change_numbers(self, monkeypatch):
        # batches of 50 trials (Fano's edge matrix holds 21 entries), and a
        # pool for every call that may use one
        pools = count_pools(monkeypatch)
        monkeypatch.setattr(montecarlo, "_BATCH_ELEMENTS", 21 * 50)
        base = dict(source={"kind": "fano"}, r=2, trials=240, seed=9)
        serial = run_experiment(ExperimentConfig(**base, workers=1))
        assert pools == []
        parallel = run_experiment(ExperimentConfig(**base, workers=8))
        assert pools == [4]
        a, b = strip_timestamp(serial), strip_timestamp(parallel)
        a["config"].pop("workers")
        b["config"].pop("workers")
        assert a == b

    def test_report_json_round_trip(self):
        cfg = ExperimentConfig(source={"kind": "fano"}, trials=50, seed=2)
        report = run_experiment(cfg)
        again = report_from_json(report_to_json(report))
        assert again == report

    def test_report_csv_has_metrics(self):
        cfg = ExperimentConfig(source={"kind": "fano"}, trials=50, seed=2)
        report = run_experiment(cfg)
        csv_text = report_to_csv(report)
        header, row = csv_text.strip().split("\n")
        assert "estimate" in header
        values = dict(zip(header.split(","), row.split(",")))
        assert values["trials"] == "50"
        assert values["oracle_probability"] == "0/1"

    def test_oracle_budget_note(self):
        cfg = ExperimentConfig(
            source={"kind": "fano"}, trials=20, seed=1, oracle_budget=10
        )
        report = run_experiment(cfg)
        assert report.oracle["within_budget"] is False
        assert "budget" in report.oracle["note"]

    def test_oracle_budget_note_is_the_oracles_message(self):
        from hgcolor import BudgetExceededError, gen_fano, greedy_success_exact

        cfg = ExperimentConfig(source={"kind": "fano"}, trials=20, seed=1, oracle_budget=10)
        with pytest.raises(BudgetExceededError) as exc:
            greedy_success_exact(gen_fano(), 2, 10)
        assert run_experiment(cfg).oracle["note"] == str(exc.value) == "ordering census exceeded budget 10"

    def test_colorability_is_read_off_the_census(self, monkeypatch):
        from hgcolor import oracle as oracle_module

        def no_search(*args, **kwargs):
            raise AssertionError("run_experiment ran the colorability search")

        monkeypatch.setattr(oracle_module, "_proper_colorings", no_search)
        cfg = ExperimentConfig(source={"kind": "complete", "m": 3, "n": 2}, trials=5, seed=1)
        oracle = run_experiment(cfg).oracle
        assert oracle["within_budget"] is True
        assert oracle["colorable"] is False
        assert oracle["exact_probability"] == "0/1"

    @pytest.mark.parametrize("h,r", [pytest.param(h, r, id=name) for name, h, r in fixed_suite()])
    def test_colorable_matches_the_colorability_oracle(self, tmp_path, h, r):
        path = tmp_path / "h.hg"
        write_hypergraph(h, str(path))
        cfg = ExperimentConfig(source={"kind": "file", "path": str(path)}, r=r, trials=5, seed=1)
        assert run_experiment(cfg).oracle["colorable"] == is_r_colorable(h, r)[0]

    @pytest.mark.parametrize("n, r", [(1025, 2), (1076, 2), (1100, 2), (700, 3)])
    def test_wide_uniform_instance(self, n, r):
        """One n-edge on n vertices: the expected counts take 1 / r^(n-2) at
        every r, and at r = 2 the two-color bound takes k = 1 / 2^(n-1)
        (2.0^(n-1) overflows a float from n = 1025), exact integer
        divisions. Where a coefficient is still a positive float the bounds
        it feeds are computed; where it rounds to 0.0 they stay null (at
        n = 1076 and r = 2 only k does)."""
        cfg = ExperimentConfig(
            source={"kind": "complete", "m": n, "n": n}, r=r, trials=5, seed=1, oracle_budget=0
        )
        report = run_experiment(cfg)
        bounds = report.bounds
        k_chains = 1 / r ** (n - 2)
        k = 1 / 2 ** (n - 1) if r == 2 else k_chains
        assert bounds["k_coefficient"] == k
        assert report.mc["successes"] == 5 and not report.invariant_violations
        for fields, coefficient in [
            (("expected_short_edges", "expected_conflicting_chains"), k_chains),
            (("best_p", "two_color_bound"), k if r == 2 else 0.0),
        ]:
            assert all((bounds[f] is None) == (not coefficient) for f in fields), fields
        if k:  # (at n = 1076 the short-edge bound underflows to 0.0)
            assert bounds["expected_short_edges"] > 0

    @pytest.mark.parametrize("instance", [(60, 5, 300), (200, 10, 1500)])
    @pytest.mark.parametrize("r", [2, 3])
    def test_expected_short_edges_count_every_edge(self, instance, r):
        """At every r the report's short-edge bound is over all m edges,
        m n ((1-p)/r)^(n-1), and so at least m times the exact chance that
        one edge is short."""
        m, n, edges = instance
        cfg = ExperimentConfig(
            source={"kind": "random", "m": m, "n": n, "edges": edges, "seed": 1},
            r=r, trials=20, seed=0, oracle_budget=0,
        )
        report = run_experiment(cfg)
        p = report.mc["p"]
        got = report.bounds["expected_short_edges"]
        assert got == pytest.approx(edges * n * ((1 - p) / r) ** (n - 1), rel=1e-12)
        assert got >= edges * prob_edge_short_exact(n, (1 - p) / r)


class TestBoundTable:
    def test_cells_satisfy_defining_inequalities(self):
        rows = bound_table([30, 100], [2, 3])
        for row in rows:
            assert row.error is None
            p = reference_p(row.n)
            total = expected_short_edges(
                row.max_k_rcol, row.n, row.r, p
            ) + expected_conflicting_chains(row.max_k_rcol, row.n, row.r, p)
            assert total < 1.0
            if row.r == 2:
                assert 0.5 <= row.ratio_2col <= 1.5

    def test_deterministic(self):
        assert bound_table([50], [2]) == bound_table([50], [2])

    def test_infeasible_cell_marked_but_table_completes(self):
        rows = bound_table([3, 100], [2])
        assert len(rows) == 2
        assert rows[0].error is not None  # LLL genuinely infeasible at n=3
        assert rows[1].error is None

    def test_csv_round_trip(self):
        rows = bound_table([30, 60], [2, 3])
        assert bound_table_from_csv(bound_table_to_csv(rows)) == rows

    def test_csv_round_trip_with_error_row(self):
        rows = bound_table([3, 100], [2, 3])
        assert any(row.error is not None for row in rows)
        assert bound_table_from_csv(bound_table_to_csv(rows)) == rows

    @pytest.mark.parametrize("r", [1, 0, -1])
    def test_color_count_below_two_rejected(self, r):
        with pytest.raises(ValueError, match=f"r >= 2, got r={r}"):
            bound_table([50], [2, r])


class TestSvg:
    def test_polyline_output(self):
        text = svg_plot({"a": [(0, 0), (1, 1)], "b": [(0, 1), (1, 0)]}, "demo")
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2
        assert "demo" in text

    def test_deterministic(self):
        s = {"curve": [(0, 0.5), (2, 0.25), (1, 1.0)]}
        assert svg_plot(s, "t") == svg_plot(s, "t")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            svg_plot({}, "t")
