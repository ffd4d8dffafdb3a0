"""Experiment framework and per-experiment shape assertions (quick mode)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments import available_experiments, run_experiment
from repro.experiments.base import ExperimentResult
from repro.experiments.table5 import analytic_probability


class TestFramework:
    def test_result_validates_row_width(self):
        with pytest.raises(ConfigurationError):
            ExperimentResult(
                experiment_id="x",
                title="t",
                paper_reference="r",
                columns=["a", "b"],
                rows=[[1]],
            )

    def test_render_contains_title_and_cells(self):
        result = ExperimentResult(
            experiment_id="x",
            title="My Table",
            paper_reference="Table 9",
            columns=["k", "v"],
            rows=[["alpha", 1.5]],
            notes="a note",
        )
        text = result.render()
        assert "My Table" in text
        assert "alpha" in text
        assert "a note" in text

    def test_row_dict(self):
        result = ExperimentResult(
            experiment_id="x",
            title="t",
            paper_reference="r",
            columns=["k", "v"],
            rows=[["a", 1], ["b", 2]],
        )
        assert result.row_dict("k")["b"] == ["b", 2]
        with pytest.raises(ConfigurationError):
            result.row_dict("missing")

    def test_registry_contains_every_paper_artifact(self):
        ids = available_experiments()
        for required in (
            "table2", "table4", "table5", "table6", "table7",
            "fig4", "fig5", "fig6", "fig7", "fig8",
            "random_policy", "stability", "defenses", "sidechannel",
            "online_detection",
        ):
            assert required in ids

    def test_package_docstring_lists_every_registered_id(self):
        import repro.experiments

        for experiment_id in available_experiments():
            assert f"``{experiment_id}``" in repro.experiments.__doc__, experiment_id

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("table99")

    def test_every_registered_run_is_keyword_only(self):
        # The spec compiler and the runner invoke entry points uniformly
        # as run(profile=..., seed=...); positional or extra parameters
        # would break that contract silently.
        import inspect

        from repro.experiments import registry

        for experiment_id in registry.available_experiments():
            runner = registry.experiment_runner(experiment_id)
            signature = inspect.signature(runner)
            parameters = dict(signature.parameters)
            assert set(parameters) == {"profile", "seed"}, experiment_id
            for parameter in parameters.values():
                assert parameter.kind is inspect.Parameter.KEYWORD_ONLY, (
                    f"{experiment_id}.run must be keyword-only, "
                    f"got {parameter.kind} for {parameter.name}"
                )
            assert parameters["profile"].default is None, experiment_id
            assert parameters["seed"].default == 0, experiment_id


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self, quick_result):
        return quick_result("table2")

    def test_lru_always_100(self, result):
        rows = result.row_dict("N")
        for n in (8, 9, 10):
            assert rows[n][1] == "100.0%"

    def test_surrogate_monotone_and_certain_at_10(self, result):
        rows = result.row_dict("N")
        values = [float(rows[n][3].rstrip("%")) for n in (8, 9, 10)]
        assert values[0] < values[1] < values[2]
        assert values[2] == 100.0

    def test_surrogate_near_paper_values(self, result):
        rows = result.row_dict("N")
        assert float(rows[8][3].rstrip("%")) == pytest.approx(68.8, abs=6.0)
        assert float(rows[9][3].rstrip("%")) == pytest.approx(81.7, abs=6.0)


class TestTable4:
    def test_latency_bands_match_paper(self, quick_result):
        result = quick_result("table4")
        _, l1, clean, dirty = result.rows[0]
        assert l1 == "4-5"
        low, high = map(int, clean.split("-"))
        assert 10 <= low and high <= 12
        low, high = map(int, dirty.split("-"))
        assert 21 <= low and high <= 24


class TestTable5:
    @pytest.fixture(scope="class")
    def result(self, quick_result):
        return quick_result("table5")

    def test_analytic_formula_paper_anchor(self):
        # Section 6.1: "approximately equal to 99.1% when d=3 and L=10".
        assert analytic_probability(8, 3, 10) == pytest.approx(0.991, abs=0.001)

    def test_probabilities_monotone_in_L(self, result):
        # Quick mode uses few trials, so allow Monte-Carlo wobble around
        # the monotone trend.
        for row in result.rows:
            values = [float(cell.rstrip("%")) for cell in row[2:]]
            assert all(b >= a - 6.0 for a, b in zip(values, values[1:]))
            assert values[-1] > values[0] - 3.0

    def test_uniform_matches_formula(self, result):
        uniform = next(r for r in result.rows if r[0] == "d=3" and r[1] == "uniform random")
        analytic = next(r for r in result.rows if r[0] == "d=3" and r[1] == "analytic")
        for measured, expected in zip(uniform[2:], analytic[2:]):
            assert float(measured.rstrip("%")) == pytest.approx(
                float(expected.rstrip("%")), abs=5.0
            )


class TestFig4:
    def test_median_steps_are_one_writeback_penalty(self, quick_result):
        result = quick_result("fig4")
        steps = [float(row[5]) for row in result.rows[1:]]
        for step in steps:
            assert 7.0 <= step <= 15.0

    def test_all_nine_levels_present(self, quick_result):
        result = quick_result("fig4")
        assert [row[0] for row in result.rows] == list(range(9))


class TestFig5:
    def test_trace_separation_grows_with_d(self, quick_result):
        result = quick_result("fig5")
        separations = [float(row[3]) for row in result.rows]
        assert separations[0] < separations[1] < separations[2]

    def test_traces_attached(self, quick_result):
        result = quick_result("fig5")
        assert "trace_d1" in result.series
        assert len(result.series["trace_d8"]) > 0


class TestFig6And8:
    def test_fig6_ber_rises_with_rate(self, quick_result):
        result = quick_result("fig6")
        # Compare the slowest and fastest rows for d=8 (last column).
        slowest = float(result.rows[-1][-1].rstrip("%"))
        fastest = float(result.rows[0][-1].rstrip("%"))
        assert fastest >= slowest - 1.0

    def test_fig8_reaches_4400kbps(self, quick_result):
        result = quick_result("fig8")
        rates = [float(row[1]) for row in result.rows]
        assert 4400.0 in rates


class TestFig7:
    def test_four_bands(self, quick_result):
        result = quick_result("fig7")
        assert [row[1] for row in result.rows] == [0, 3, 5, 8]
        medians = [float(row[2]) for row in result.rows]
        assert medians == sorted(medians)


class TestSideChannelExperiment:
    def test_all_scenarios_recover_most_bits(self, quick_result):
        result = quick_result("sidechannel")
        for row in result.rows:
            assert float(row[1].rstrip("%")) >= 90.0


class TestStabilityExperiment:
    def test_wb_stays_below_baselines_under_noise(self, quick_result):
        result = quick_result("stability")
        noise_row = next(r for r in result.rows if r[0] == "noise loads")
        wb = float(noise_row[1].rstrip("%"))
        lru = float(noise_row[2].rstrip("%"))
        pp = float(noise_row[3].rstrip("%"))
        assert wb < lru
        assert wb < pp


class TestOnlineDetection:
    @pytest.fixture(scope="class")
    def result(self, quick_result):
        return quick_result("online_detection")

    def test_stealth_claim_holds_online(self, result):
        # The paper's Section 7 claim in online form: at matched
        # bandwidth both detectors flag the LRU sender strictly more
        # often than the WB sender.
        assert result.params["stealth_holds"] is True
        rates = result.params["detection_rates"]
        for detector in ("monitor", "burst"):
            assert rates[detector]["lru"] > rates[detector]["wb"]

    def test_benign_fpr_reported(self, result):
        rates = result.params["detection_rates"]
        for detector in ("monitor", "burst"):
            assert 0.0 <= rates[detector]["benign"] <= 1.0
        assert "benign FPR" in result.columns

    def test_roc_series_attached(self, result):
        for detector in ("monitor", "burst"):
            thresholds = result.series[f"{detector}_roc_threshold"]
            fprs = result.series[f"{detector}_roc_benign_fpr"]
            assert len(thresholds) == len(fprs) > 2
            # FPR is monotone non-increasing in the threshold.
            assert all(b <= a for a, b in zip(fprs, fprs[1:]))

    def test_rows_cover_both_detectors(self, result):
        assert [row[0] for row in result.rows] == ["monitor", "burst"]
        assert all(row[-1] == "yes" for row in result.rows)


class TestExtensionsAndAblations:
    def test_3bit_more_fragile_than_2bit(self, quick_result):
        result = quick_result("extension_3bit")
        # At the fastest period the adjacent-level codec must not beat
        # the paper's non-adjacent scheme on BER.
        fastest = result.rows[0]
        assert float(fastest[4].rstrip("%")) >= float(fastest[2].rstrip("%"))

    def test_error_sources_fully_accounted(self, quick_result):
        result = quick_result("ablation_errors")
        rows = {row[0]: float(row[1].rstrip("%")) for row in result.rows}
        assert rows["all three removed"] == 0.0
        assert rows["baseline (all sources on)"] >= rows["all three removed"]

    def test_replacement_set_rule(self, quick_result):
        result = quick_result("ablation_replacement_set")
        rows = result.row_dict("L")
        # L=10 (the paper's choice) must be at least as clean as L=8 on
        # the E5-2650 surrogate.
        def ber(cell):
            return 100.0 if cell == "no signal" else float(cell.rstrip("%"))
        assert ber(rows[10][2]) <= ber(rows[8][2]) + 0.5
