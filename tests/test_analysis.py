"""Analysis layer: amortization, guideline, overfitting, runtime, reporting."""

import numpy as np
import pytest

from repro.analysis import (
    AMORTIZATION_RUNS,
    OverfitReport,
    Priority,
    Recommendation,
    RuntimeRow,
    SystemEnergyProfile,
    TaskRequirements,
    adherence_ranking,
    ascii_scatter,
    bootstrap_mean,
    cheapest_system,
    count_overfitting,
    crossover_point,
    early_stopping_saving,
    energy_vs_predictions,
    format_table,
    most_overfit_datasets,
    recommend,
    runtime_table,
    trillion_prediction_costs,
)


# --- amortization (Fig 4 / Table 4) ---------------------------------------- #
TABPFN = SystemEnergyProfile("TabPFN", execution_kwh=1e-5,
                             inference_kwh_per_instance=4e-10)
FLAML = SystemEnergyProfile("FLAML", execution_kwh=1e-3,
                            inference_kwh_per_instance=8e-13)
AUTOGLUON = SystemEnergyProfile("AutoGluon", execution_kwh=3e-3,
                                inference_kwh_per_instance=4e-11)


class TestAmortization:
    def test_total_energy_linear(self):
        assert TABPFN.total_kwh(0) == pytest.approx(1e-5)
        assert TABPFN.total_kwh(1e6) == pytest.approx(1e-5 + 4e-4)

    def test_negative_predictions_rejected(self):
        with pytest.raises(ValueError):
            TABPFN.total_kwh(-1)

    def test_tabpfn_cheapest_at_small_scale(self):
        """O2: below the crossover TabPFN wins."""
        assert cheapest_system([TABPFN, FLAML, AUTOGLUON], 100).system == \
            "TabPFN"

    def test_flaml_cheapest_at_large_scale(self):
        assert cheapest_system([TABPFN, FLAML, AUTOGLUON], 1e7).system == \
            "FLAML"

    def test_crossover_point_positive(self):
        n = crossover_point(TABPFN, FLAML)
        assert n is not None
        # at the crossover, totals are equal
        assert TABPFN.total_kwh(n) == pytest.approx(FLAML.total_kwh(n))

    def test_crossover_none_when_dominated(self):
        a = SystemEnergyProfile("a", 1e-5, 1e-12)
        b = SystemEnergyProfile("b", 1e-3, 1e-11)
        assert crossover_point(a, b) is None

    def test_crossover_none_when_parallel(self):
        a = SystemEnergyProfile("a", 1e-5, 1e-12)
        b = SystemEnergyProfile("b", 1e-3, 1e-12)
        assert crossover_point(a, b) is None

    def test_energy_vs_predictions_series(self):
        curves = energy_vs_predictions([TABPFN, FLAML], np.array([1e2, 1e5]))
        assert set(curves) == {"TabPFN", "FLAML"}
        assert curves["TabPFN"].shape == (2,)

    def test_trillion_costs_sorted_desc(self):
        rows = trillion_prediction_costs([TABPFN, FLAML, AUTOGLUON])
        assert rows[0].system == "TabPFN"        # steepest slope
        energies = [r.energy_kwh for r in rows]
        assert energies == sorted(energies, reverse=True)

    def test_trillion_costs_conversions(self):
        rows = trillion_prediction_costs([FLAML])
        row = rows[0]
        assert row.co2_kg == pytest.approx(row.energy_kwh * 0.222)
        assert row.cost_eur == pytest.approx(row.energy_kwh * 0.20)

    def test_empty_profiles_rejected(self):
        with pytest.raises(ValueError):
            cheapest_system([], 10)


# --- guideline (Fig 8) ------------------------------------------------------ #
class TestGuideline:
    def test_development_route(self):
        rec = recommend(TaskRequirements(
            search_budget_s=60, n_classes=2,
            expected_executions=AMORTIZATION_RUNS + 1,
            has_development_compute=True,
        ))
        assert rec.system == "CAML(tuned)"
        assert rec.tune_first

    def test_no_dev_compute_blocks_tuning_route(self):
        rec = recommend(TaskRequirements(
            search_budget_s=60, n_classes=2,
            expected_executions=10_000,
            has_development_compute=False,
        ))
        assert rec.system != "CAML(tuned)"

    def test_small_budget_few_classes_tabpfn(self):
        rec = recommend(TaskRequirements(search_budget_s=5, n_classes=8))
        assert rec.system == "TabPFN"

    def test_small_budget_many_classes_caml(self):
        rec = recommend(TaskRequirements(search_budget_s=5, n_classes=50))
        assert rec.system == "CAML"

    def test_priority_fast_inference_flaml(self):
        rec = recommend(TaskRequirements(
            search_budget_s=300, n_classes=2,
            priority=Priority.FAST_INFERENCE,
        ))
        assert rec.system == "FLAML"

    def test_priority_accuracy_autogluon(self):
        rec = recommend(TaskRequirements(
            search_budget_s=300, n_classes=2, priority=Priority.ACCURACY,
        ))
        assert rec.system == "AutoGluon"

    def test_priority_pareto_caml(self):
        rec = recommend(TaskRequirements(
            search_budget_s=300, n_classes=2, priority=Priority.PARETO,
        ))
        assert rec.system == "CAML"

    def test_invalid_requirements(self):
        with pytest.raises(ValueError):
            recommend(TaskRequirements(search_budget_s=0, n_classes=2))
        with pytest.raises(ValueError):
            recommend(TaskRequirements(search_budget_s=10, n_classes=1))


# --- overfitting (Table 6) --------------------------------------------------- #
class TestOverfitting:
    def test_count(self):
        short = {"a": 0.8, "b": 0.7, "c": 0.9}
        long = {"a": 0.85, "b": 0.6, "c": 0.89}
        rep = count_overfitting(short, long, system="X")
        assert rep.n_overfit == 2
        assert set(rep.overfit_datasets) == {"b", "c"}
        assert rep.fraction == pytest.approx(2 / 3)

    def test_tolerance(self):
        short = {"a": 0.80}
        long = {"a": 0.79}
        rep = count_overfitting(short, long, tolerance=0.05)
        assert rep.n_overfit == 0

    def test_no_common_datasets(self):
        with pytest.raises(ValueError):
            count_overfitting({"a": 1.0}, {"b": 1.0})

    def test_most_overfit(self):
        reports = [
            OverfitReport("s1", 2, 3, ("kc1", "cnae-9")),
            OverfitReport("s2", 1, 3, ("kc1",)),
        ]
        top = most_overfit_datasets(reports, top=1)
        assert top[0] == ("kc1", 2)

    def test_early_stopping_saving(self):
        assert early_stopping_saving(0.001, 0.005, 0.5) == pytest.approx(
            0.002
        )
        with pytest.raises(ValueError):
            early_stopping_saving(0.001, 0.005, 2.0)


# --- runtime (Table 7) -------------------------------------------------------- #
class _Rec:
    def __init__(self, system, configured, actual):
        self.system = system
        self.configured_seconds = configured
        self.actual_seconds = actual


class TestRuntime:
    def test_aggregation(self):
        rows = runtime_table([
            _Rec("CAML", 10, 10.4), _Rec("CAML", 10, 10.6),
            _Rec("AutoGluon", 10, 22.0),
        ])
        caml = next(r for r in rows if r.system == "CAML")
        assert caml.mean_actual_s == pytest.approx(10.5)
        assert caml.overrun_ratio == pytest.approx(1.05)

    def test_sorted_adherent_first(self):
        rows = runtime_table([
            _Rec("slow", 10, 50.0), _Rec("fast", 10, 10.0),
        ])
        assert rows[0].system == "fast"

    def test_adherence_ranking(self):
        rows = runtime_table([
            _Rec("a", 10, 20.0), _Rec("b", 10, 11.0),
        ])
        ranked = adherence_ranking(rows)
        assert ranked[0][0] == "b"

    def test_formatted(self):
        row = RuntimeRow("x", 10.0, 10.47, 0.05)
        assert "10.47" in row.formatted()


# --- reporting ----------------------------------------------------------------- #
class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["x", 1.0], ["yy", 2.345]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(l) == len(lines[0]) for l in lines)

    def test_format_table_nan_dash(self):
        text = format_table(["v"], [[float("nan")]])
        assert "-" in text.splitlines()[-1]

    def test_ascii_scatter_contains_markers(self):
        text = ascii_scatter(
            {"CAML": [(1.0, 0.5)], "TabPFN": [(2.0, 0.7)]},
        )
        assert "C" in text and "T" in text
        assert "legend" in text

    def test_ascii_scatter_gives_each_series_its_own_marker(self):
        # the three Auto* systems of Figure 3 share a first letter
        text = ascii_scatter(
            {"AutoGluon": [(1.0, 0.5)], "AutoSklearn1": [(2.0, 0.6)],
             "AutoSklearn2": [(3.0, 0.7)]},
        )
        legend = next(line for line in text.splitlines()
                      if line.startswith("legend: "))
        markers = [entry.split("=")[0]
                   for entry in legend[len("legend: "):].split(", ")]
        assert markers == ["A", "S", "2"]
        plotted = "".join(line[1:-1] for line in text.splitlines()
                          if line.startswith("|"))
        assert sorted(plotted.replace(" ", "")) == sorted("AS2")
        assert "overwritten cells: 0" in text

    def test_ascii_scatter_counts_overwritten_cells(self):
        text = ascii_scatter(
            {"AutoGluon": [(1.0, 0.5), (2.0, 0.9)],
             "AutoSklearn1": [(1.0, 0.5)],
             "AutoSklearn2": [(1.0, 0.5), (2.0, 0.9)]},
        )
        # (1, 0.5) is drawn over twice, (2, 0.9) once
        assert "overwritten cells: 3" in text

    def test_ascii_scatter_log_axis(self):
        text = ascii_scatter(
            {"a": [(1e-5, 0.1), (1e-1, 0.9)]}, logx=True,
        )
        assert "(log)" in text

    def test_ascii_scatter_empty(self):
        assert ascii_scatter({}) == "(no data)"

    def test_bootstrap_mean_close_to_mean(self):
        mu, sd = bootstrap_mean([1.0, 2.0, 3.0], n_boot=500)
        assert mu == pytest.approx(2.0, abs=0.2)
        assert sd > 0

    def test_bootstrap_mean_empty(self):
        mu, sd = bootstrap_mean([])
        assert np.isnan(mu) and np.isnan(sd)

    def test_bootstrap_mean_single_value(self):
        mu, sd = bootstrap_mean([5.0])
        assert mu == 5.0
        assert sd == 0.0
