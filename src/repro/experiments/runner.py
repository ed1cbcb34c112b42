"""The benchmark grid executor (paper Sec 3.1/3.2).

Runs every (system, dataset, budget, seed) cell: fit under the budget,
measure execution energy, score balanced accuracy on the held-out test set,
and record modelled inference energy per instance.  TabPFN runs on datasets
with more than 10 classes are recorded as failures scored at the class-prior
baseline — mirroring how the unsupported datasets drag down TabPFN's average
in the paper's Figure 3.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.loaders import Dataset
from repro.exceptions import (
    BudgetBelowMinimumError,
    ConfigurationError,
    ReproError,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.results import ResultsStore, RunRecord
from repro.metrics.classification import balanced_accuracy_score
from repro.models.dummy import DummyClassifier
from repro.observability import trace_span
from repro.systems import make_system


def run_single(
    system_name: str,
    dataset: Dataset,
    budget_s: float,
    *,
    seed: int = 0,
    time_scale: float = 0.02,
    n_cores: int = 1,
    use_gpu: bool = False,
    system_kwargs: dict | None = None,
    energy_meter=None,
) -> RunRecord:
    """Execute one benchmark cell; failures degrade to the prior baseline.

    ``energy_meter`` is an optional :class:`~repro.energy.EnergyTracker`
    observing the fit region (the measurement channel the paper's
    CodeCarbon setup provides).  The recorded energy numbers stay the
    deterministic modelled ones regardless — the meter's only effect on
    the record is the ``energy_source`` flag: when the counter fails
    mid-read the tracker degrades to its model estimate and the record
    is tagged ``"estimated"`` instead of ``"measured"``, never a crash
    and never zero kWh.
    """
    kwargs = dict(system_kwargs or {})
    system = make_system(
        system_name, random_state=seed, time_scale=time_scale,
        n_cores=n_cores, use_gpu=use_gpu, **kwargs,
    )
    try:
        with trace_span("cell", system=system_name, dataset=dataset.name,
                        budget=budget_s, seed=seed):
            with trace_span("fit"):
                if energy_meter is not None:
                    energy_meter.start()
                try:
                    system.fit(
                        dataset.X_train, dataset.y_train,
                        budget_s=budget_s,
                        categorical_mask=dataset.categorical_mask,
                    )
                finally:
                    meter_report = (
                        energy_meter.stop()
                        if energy_meter is not None else None
                    )
            with trace_span("score"):
                acc = balanced_accuracy_score(
                    dataset.y_test, system.predict(dataset.X_test)
                )
            with trace_span("inference"):
                est = system.inference_estimate(1000)
        fr = system.fit_result_
        return RunRecord(
            system=system_name,
            dataset=dataset.name,
            configured_seconds=budget_s,
            seed=seed,
            balanced_accuracy=float(acc),
            execution_kwh=fr.execution_kwh,
            actual_seconds=fr.actual_seconds,
            inference_kwh_per_instance=est.kwh_per_instance,
            inference_seconds_per_instance=est.seconds / est.n_samples,
            n_ensemble_members=system.n_ensemble_members,
            n_evaluations=fr.n_evaluations,
            n_cores=n_cores,
            used_gpu=use_gpu,
            energy_source=(
                "estimated"
                if meter_report is not None
                and meter_report.source == "estimated"
                else "measured"
            ),
        )
    except BudgetBelowMinimumError:
        raise  # not a task failure: the cell simply doesn't exist
    except (ConfigurationError, ReproError, ValueError) as exc:
        # unsupported task (e.g. TabPFN with >10 classes): score the prior
        return baseline_record(
            system_name, dataset, budget_s, seed=seed, n_cores=n_cores,
            use_gpu=use_gpu, note=str(exc),
        )


def baseline_record(system_name: str, dataset: Dataset, budget_s: float,
                    *, seed: int, n_cores: int, use_gpu: bool,
                    note: str) -> RunRecord:
    """The failed cell's record: the class-prior baseline's test score,
    zero energy, and the cell's own cores and GPU mode.

    Unsupported tasks, quarantined cells and over-quota cells all
    record this, so downstream aggregation needs no extra case.
    """
    baseline = DummyClassifier().fit(dataset.X_train, dataset.y_train)
    acc = balanced_accuracy_score(
        dataset.y_test, baseline.predict(dataset.X_test)
    )
    return RunRecord(
        system=system_name,
        dataset=dataset.name,
        configured_seconds=budget_s,
        seed=seed,
        balanced_accuracy=float(acc),
        execution_kwh=0.0,
        actual_seconds=0.0,
        inference_kwh_per_instance=0.0,
        inference_seconds_per_instance=0.0,
        n_cores=n_cores,
        used_gpu=use_gpu,
        failed=True,
        note=note,
    )


def grid_cells(config: ExperimentConfig, *, n_cores: int = 1,
               use_gpu: bool = False,
               system_kwargs: dict[str, dict] | None = None) -> list:
    """Flatten a config into cell specs, preserving the historical loop
    order (datasets -> systems -> budgets -> runs) and seed schedule."""
    from repro.runtime import CellSpec

    system_kwargs = system_kwargs or {}
    return [
        CellSpec(
            system=system_name, dataset=ds_name, budget_s=budget,
            seed=config.base_seed + 1009 * run,
            time_scale=config.time_scale, n_cores=n_cores,
            use_gpu=use_gpu,
            system_kwargs=system_kwargs.get(system_name),
        )
        for ds_name in config.datasets
        for system_name in config.systems
        for budget in config.budgets
        for run in range(config.n_runs)
    ]


def run_grid(config: ExperimentConfig, *, n_cores: int = 1,
             use_gpu: bool = False, verbose: bool = False,
             system_kwargs: dict[str, dict] | None = None,
             workers: int = 1, shards: int = 1, cache_dir=None,
             resume: bool = False,
             journal_path=None, progress=None,
             telemetry: dict | None = None,
             trace: bool = False,
             trace_clock: str = "ticks",
             eval_store_dir=None) -> ResultsStore:
    """Run the full campaign described by ``config``.

    ``workers`` fans cells out over a process pool (``1`` = in-process
    serial execution with identical results), ``cache_dir`` enables the
    content-addressed result cache, and ``journal_path`` + ``resume``
    give crash-safe restart from the JSONL checkpoint log.  ``progress``
    is an optional callback receiving a
    :class:`repro.runtime.ProgressEvent` after every finished cell.
    ``telemetry``, when given, is filled in place with runtime health
    counters after the run: ``"cache"`` (hit/miss/write/corrupt stats),
    ``"pool_rebuilds"``, the merged ``"metrics"`` snapshot and — when
    tracing — the per-cell ``"spans"`` records.

    ``trace=True`` turns on the observability layer: every executed
    cell ships a span tree back to the parent and into the journal.
    ``trace_clock`` picks the worker span clock — ``"ticks"`` (default)
    is the deterministic counter, ``"wall"`` measures real durations
    (what ``repro grid --profile`` uses).  Tracing never changes
    results: cache keys, budgets and seeds are untouched.

    ``shards > 1`` runs the campaign under a fault-fenced
    :class:`repro.runtime.ShardCoordinator`: the grid is partitioned
    across ``shards`` shard groups (each with its own ``workers``-sized
    pool and journal segment) and the merged journal written to
    ``journal_path`` is bit-identical to the serial single-journal run.

    ``eval_store_dir`` turns on the evaluation store: every scored
    trial (config, validation score, charged budget, out-of-fold
    predictions) is written through to a
    :class:`repro.evalstore.EvalStore` at that path for zero-refit
    what-if ensembling, portfolio mining and Pareto queries
    (``repro whatif`` / ``repro pareto``).  Capture never changes
    results: the store digest is byte-identical for any worker/shard
    layout, and a captured run's records match an uncaptured one.
    """
    from repro.evalstore import EvalStore
    from repro.runtime import (
        CampaignExecutor,
        CampaignJournal,
        ResultCache,
        ShardCoordinator,
    )

    if resume and journal_path is None:
        raise ValueError("resume=True requires a journal_path")
    callback = progress
    if callback is None and verbose:
        def callback(event):
            print(event.render())

    cells = grid_cells(
        config, n_cores=n_cores, use_gpu=use_gpu,
        system_kwargs=system_kwargs,
    )
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    eval_store = (EvalStore(eval_store_dir)
                  if eval_store_dir is not None else None)
    if shards > 1:
        engine = ShardCoordinator(
            shards=shards, workers=workers, cache=cache,
            journal_path=journal_path, resume=resume,
            progress_callback=callback,
            trace=trace, trace_clock=trace_clock,
            eval_store=eval_store,
        )
    else:
        engine = CampaignExecutor(
            workers=workers, cache=cache,
            journal=(
                CampaignJournal(journal_path)
                if journal_path is not None else None
            ),
            resume=resume, progress_callback=callback,
            trace=trace, trace_clock=trace_clock,
            eval_store=eval_store,
        )
    store = engine.run(cells)
    if telemetry is not None:
        if cache is not None:
            telemetry["cache"] = cache.stats.as_dict()
        if eval_store is not None:
            telemetry["evalstore"] = eval_store.stats.as_dict()
        telemetry["pool_rebuilds"] = engine.pool_rebuilds
        telemetry["metrics"] = engine.metrics_snapshot()
        if shards > 1:
            telemetry["shards"] = dict(engine.tracker.shards)
            telemetry["fenced_commits"] = engine.merged.fenced_commits
            telemetry["dedup_commits"] = engine.merged.dedup_commits
        if trace:
            telemetry["spans"] = list(engine.cell_spans)
    return store
