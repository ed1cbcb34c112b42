"""Runner edge cases: failure records, GPU cells, system kwargs."""

import pytest

from repro.datasets import load_dataset
from repro.exceptions import BudgetBelowMinimumError
from repro.experiments import run_single
from repro.experiments.runner import baseline_record
from repro.runtime import CampaignExecutor, CellSpec, RetryPolicy
from repro.systems import CamlParameters


def test_system_kwargs_forwarded():
    ds = load_dataset("credit-g")
    params = CamlParameters(classifiers=["gaussian_nb"])
    rec = run_single(
        "CAML", ds, 10.0, seed=0, time_scale=0.004,
        system_kwargs={"params": params},
    )
    assert not rec.failed
    assert rec.balanced_accuracy > 0.5


def test_gpu_cell_records_flag():
    ds = load_dataset("credit-g")
    rec = run_single("TabPFN", ds, 10.0, seed=0, time_scale=0.004,
                     use_gpu=True)
    assert rec.used_gpu
    assert rec.inference_kwh_per_instance > 0


def test_multicore_cell_records_cores():
    ds = load_dataset("credit-g")
    rec = run_single("CAML", ds, 10.0, seed=0, time_scale=0.004, n_cores=4)
    assert rec.n_cores == 4


def test_budget_below_minimum_raises():
    ds = load_dataset("credit-g")
    with pytest.raises(ValueError, match="below"):
        run_single("TPOT", ds, 10.0, seed=0, time_scale=0.004)


def test_failure_record_scores_prior():
    ds = load_dataset("dionis")   # >10 classes after scaling
    rec = run_single("TabPFN", ds, 10.0, seed=0, time_scale=0.004)
    assert rec.failed
    assert rec.execution_kwh == 0.0
    # prior baseline on a 12-class problem: bacc ~ 1/12
    assert rec.balanced_accuracy < 0.3


def test_budget_below_minimum_is_typed_with_journalled_message():
    ds = load_dataset("credit-g")
    with pytest.raises(BudgetBelowMinimumError) as info:
        run_single("TPOT", ds, 10.0, seed=0, time_scale=0.004)
    # still a ValueError for existing callers, and the text is the skip
    # note journalled for the cell, so it must not drift
    assert isinstance(info.value, ValueError)
    assert str(info.value) == (
        "TPOT does not support budgets below 60.0s (got 10.0s) — same "
        "restriction as in the paper's Figure 3"
    )


def test_failure_record_keeps_cores_and_gpu():
    """An unsupported-task baseline is filed under the cores and GPU
    mode the cell ran at (Figure 5 groups records by ``n_cores``)."""
    ds = load_dataset("helena")   # >10 classes after scaling
    rec = run_single("TabPFN", ds, 10.0, seed=0, time_scale=0.004,
                     n_cores=4, use_gpu=True)
    assert rec.failed
    assert rec.n_cores == 4
    assert rec.used_gpu
    assert rec == baseline_record(
        "TabPFN", ds, 10.0, seed=0, n_cores=4, use_gpu=True,
        note=rec.note,
    )


def test_quarantine_record_is_the_runner_baseline(monkeypatch):
    import repro.experiments.runner as runner_mod

    def explode(*args, **kwargs):
        raise RuntimeError("injected worker crash")

    monkeypatch.setattr(runner_mod, "run_single", explode)
    spec = CellSpec(system="CAML", dataset="credit-g", budget_s=10.0,
                    seed=3, time_scale=0.004, n_cores=2, use_gpu=True)
    executor = CampaignExecutor(workers=1,
                                policy=RetryPolicy(max_retries=0))
    record = executor.run([spec]).records[0]
    assert record == baseline_record(
        "CAML", load_dataset("credit-g"), 10.0, seed=3, n_cores=2,
        use_gpu=True, note=record.note,
    )
    assert "quarantined" in record.note
