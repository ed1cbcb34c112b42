"""Campaign runtime: cells, cache, journal, progress, executor."""

import json
import os
import time
from dataclasses import asdict

import pytest

from repro.datasets.loaders import load_dataset
from repro.experiments import ExperimentConfig, grid_cells, run_grid
from repro.experiments.results import RunRecord
from repro.faults import SEAM_CELL_ERROR, FailureRecord, FaultPlan
from repro.runtime import (
    CampaignExecutor,
    CampaignJournal,
    CellSpec,
    ResultCache,
    RetryPolicy,
)

#: cheap cells (sub-second each) shared across tests
FAST = dict(budget_s=10.0, seed=7, time_scale=0.004)


def _cells(systems=("TabPFN", "CAML"), datasets=("credit-g",)):
    return [
        CellSpec(system=s, dataset=d, **FAST)
        for d in datasets for s in systems
    ]


def _record(**over):
    base = dict(
        system="CAML", dataset="credit-g", configured_seconds=10.0,
        seed=7, balanced_accuracy=0.7, execution_kwh=1e-5,
        actual_seconds=0.1, inference_kwh_per_instance=1e-12,
        inference_seconds_per_instance=1e-6,
    )
    return RunRecord(**{**base, **over})


def _failure(message):
    return FailureRecord("RuntimeError", "cell", 1, message)


class TestCellSpec:
    def test_cache_key_is_stable(self):
        a = CellSpec("CAML", "credit-g", **FAST)
        b = CellSpec("CAML", "credit-g", **FAST)
        assert a.cache_key("fp") == b.cache_key("fp")

    @pytest.mark.parametrize("change", [
        {"system": "FLAML"},
        {"dataset": "kc1"},
        {"budget_s": 30.0},
        {"seed": 8},
        {"time_scale": 0.005},
        {"n_cores": 2},
        {"use_gpu": True},
        {"system_kwargs": {"population_size": 9}},
    ])
    def test_cache_key_covers_every_input(self, change):
        base = CellSpec("CAML", "credit-g", **FAST)
        other = CellSpec(**{**asdict(base), **change})
        assert base.cache_key("fp") != other.cache_key("fp")

    def test_cache_key_covers_dataset_fingerprint(self):
        spec = CellSpec("CAML", "credit-g", **FAST)
        assert spec.cache_key("fp-a") != spec.cache_key("fp-b")

    def test_kwargs_digest_is_order_independent(self):
        a = CellSpec("CAML", "credit-g", **FAST,
                     system_kwargs={"x": 1, "y": 2})
        b = CellSpec("CAML", "credit-g", **FAST,
                     system_kwargs={"y": 2, "x": 1})
        assert a.cache_key("fp") == b.cache_key("fp")


class TestDatasetFingerprint:
    def test_deterministic_across_materialisations(self):
        assert (load_dataset("credit-g").fingerprint()
                == load_dataset("credit-g").fingerprint())

    def test_differs_across_datasets_and_splits(self):
        base = load_dataset("credit-g").fingerprint()
        assert base != load_dataset("kc1").fingerprint()
        assert base != load_dataset(
            "credit-g", split_seed=1).fingerprint()

    def test_subsample_changes_fingerprint(self):
        ds = load_dataset("credit-g")
        assert ds.subsample(20, random_state=0).fingerprint() \
            != ds.fingerprint()


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" + "0" * 62, _record())
        assert cache.get("ab" + "0" * 62) == _record()
        assert cache.stats.hits == 1 and cache.stats.writes == 1

    def test_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ff" + "0" * 62) is None
        assert cache.stats.misses == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        cache.put(key, _record())
        next(tmp_path.glob("*/*.json")).write_text("{not json")
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1


class TestJournal:
    def test_replay_round_trips_records(self, tmp_path):
        path = tmp_path / "j.jsonl"
        record = _record()
        with CampaignJournal(path) as journal:
            journal.open_campaign(3)
            journal.record_cell(0, "k0", record)
            journal.record_skip(1, "k1", "below min budget")
            journal.record_failure(2, "k2", 1, _failure("boom"))
        state = CampaignJournal.load(path)
        assert state.n_cells == 3
        assert state.completed["k0"] == record
        assert state.skipped == {"k1"}
        assert state.failure_records() == [_failure("boom")]

    def test_torn_tail_is_tolerated(self, tmp_path, recwarn):
        path = tmp_path / "j.jsonl"
        record = _record()
        with CampaignJournal(path) as journal:
            journal.record_cell(0, "k0", record)
        with open(path, "a") as fh:
            fh.write('{"type": "cell", "index": 1, "key')   # crash artefact
        state = CampaignJournal.load(path)
        assert list(state.completed) == ["k0"]
        assert state.skipped_lines == 0     # a torn tail is not damage
        assert len(recwarn) == 0

    def test_merge_counts_torn_tails(self, tmp_path):
        from repro.runtime import merge_journals

        torn, whole = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for index, path in enumerate((torn, whole)):
            with CampaignJournal(path, shard=index) as journal:
                journal.record_cell(index, f"k{index}", _record(seed=index))
        with open(torn, "a") as fh:
            fh.write('{"type": "cell", "index": 2, "key')   # crash artefact
        merged = merge_journals([torn, whole])
        assert merged.torn_tails == 1
        assert merged.state.skipped_lines == 0
        assert sorted(merged.state.completed) == ["k0", "k1"]

    def test_corrupt_middle_line_is_skipped_with_warning(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.record_cell(0, "k0", _record())
            journal.record_cell(1, "k1", _record(seed=8))
            journal.record_cell(2, "k2", _record(seed=9))
        lines = path.read_text().splitlines()
        lines[1] = '{"type": "cell", "index": 1, "ke'   # mid-file damage
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="1 corrupt line"):
            state = CampaignJournal.load(path)
        # replay must NOT stop at the damage: k2 is still completed
        assert sorted(state.completed) == ["k0", "k2"]
        assert state.skipped_lines == 1

    def test_missing_file_loads_empty(self, tmp_path):
        assert len(CampaignJournal.load(tmp_path / "absent.jsonl")) == 0

    def test_load_is_the_merge_fold(self, tmp_path):
        """One replay rule set: the first commit by attempt wins, failures
        and spans come out in content order, metrics snapshots fold and
        ``n_cells`` is the largest header."""
        from repro.observability import MetricsRegistry, merge_snapshots
        from repro.runtime import canonical_state_bytes, merge_journals

        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("cells.executed").inc(2)
        second.counter("cells.executed").inc(1)
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.open_campaign(2)
            journal.record_failure(1, "k1", 1, _failure("boom"))
            journal.record_spans(1, "k1", 0, [])
            journal.record_cell(1, "k1", _record(seed=1), attempt=1)
            journal.record_failure(0, "k0", 1, _failure("bang"))
            journal.record_spans(0, "k0", 0, [])
            journal.record_cell(0, "k0", _record(seed=0), attempt=0)
            journal.record_metrics(first.snapshot())
            journal.open_campaign(3)
            journal.record_cell(1, "k1", _record(seed=99), attempt=0)
            journal.record_metrics(second.snapshot())
        state = CampaignJournal.load(path)
        assert state.n_cells == 3
        assert state.completed["k1"].seed == 99   # attempt 0 beats 1
        assert [e["index"] for e in state.failures] == [0, 1]
        assert [e["index"] for e in state.spans] == [0, 1]
        assert state.metrics == merge_snapshots(first.snapshot(),
                                                second.snapshot())
        folded = merge_journals([path]).state
        assert canonical_state_bytes(state) == canonical_state_bytes(folded)
        assert state.failures == folded.failures
        assert state.spans == folded.spans

    def test_malformed_record_does_not_shadow_a_valid_commit(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.record_event({"type": "cell", "index": 0, "key": "k0",
                                  "record": {"bogus": 1}, "attempt": 0})
            journal.record_cell(0, "k0", _record(), attempt=1)
            journal.open_campaign(1)
        with pytest.warns(UserWarning, match="1 corrupt line"):
            state = CampaignJournal.load(path)
        assert state.completed["k0"] == _record()


class TestExecutor:
    def test_warm_cache_rerun_executes_zero_cells(self, tmp_path):
        cells = _cells()
        cache = ResultCache(tmp_path / "cache")
        cold = CampaignExecutor(workers=1, cache=cache)
        cold_store = cold.run(cells)
        assert cold.tracker.executed == len(cells)
        warm = CampaignExecutor(workers=1, cache=cache)
        warm_store = warm.run(cells)
        assert warm.tracker.executed == 0
        assert warm.tracker.cached == len(cells)
        assert [asdict(r) for r in warm_store.records] \
            == [asdict(r) for r in cold_store.records]

    def test_below_min_budget_cell_is_skipped(self):
        cells = _cells(systems=("TabPFN", "TPOT"))   # TPOT needs >= 60s
        executor = CampaignExecutor(workers=1)
        store = executor.run(cells)
        assert [r.system for r in store.records] == ["TabPFN"]
        assert executor.tracker.skipped == 1
        assert executor.last_results[1] is None

    def test_crash_resume_completes_only_remaining(self, tmp_path):
        cells = _cells(datasets=("credit-g",
                                 "blood-transfusion-service-center"))
        reference = CampaignExecutor(workers=1).run(cells)
        journal_path = tmp_path / "campaign.jsonl"
        # simulate the crash: a first campaign only got through 2 cells
        CampaignExecutor(
            workers=1, journal=CampaignJournal(journal_path),
        ).run(cells[:2])
        resumed = CampaignExecutor(
            workers=1, journal=CampaignJournal(journal_path), resume=True,
        )
        store = resumed.run(cells)
        assert resumed.tracker.resumed == 2
        assert resumed.tracker.executed == len(cells) - 2
        assert [asdict(r) for r in store.records] \
            == [asdict(r) for r in reference.records]

    def test_quarantine_after_retries(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod

        calls = []

        def explode(*args, **kwargs):
            calls.append(1)
            raise RuntimeError("injected worker crash")

        monkeypatch.setattr(runner_mod, "run_single", explode)
        journal_path = tmp_path / "j.jsonl"
        executor = CampaignExecutor(
            workers=1, journal=CampaignJournal(journal_path),
            policy=RetryPolicy(max_retries=2),
        )
        store = executor.run(_cells(systems=("CAML",)))
        assert len(calls) == 3   # first try + 2 retries
        record = store.records[0]
        assert record.failed
        assert "quarantined" in record.note
        assert 0.0 <= record.balanced_accuracy <= 0.6   # prior baseline
        events = [json.loads(line) for line
                  in journal_path.read_text().splitlines()]
        assert sum(e["type"] == "failure" for e in events) == 3

    def test_faulted_cell_journals_one_failure_form(self, tmp_path):
        journal_path = tmp_path / "j.jsonl"
        CampaignExecutor(
            workers=1, journal=CampaignJournal(journal_path),
            policy=RetryPolicy(max_retries=1),
            fault_plan=FaultPlan.uniform(0, (SEAM_CELL_ERROR,), 1.0),
        ).run(_cells(systems=("CAML",)))
        failures = [event for event in map(
            json.loads, journal_path.read_text().splitlines())
            if event["type"] == "failure"]
        assert [event["attempt"] for event in failures] == [1, 2]
        for event in failures:
            assert set(event) == {"type", "index", "key", "attempt",
                                  "failure"}
            assert event["failure"]["attempt"] == event["attempt"]
            assert event["failure"]["seam"] == SEAM_CELL_ERROR

    @pytest.mark.parametrize("injected", [True, False])
    def test_error_outcome_carries_only_the_structured_failure(
            self, monkeypatch, injected):
        import repro.experiments.runner as runner_mod
        from repro.runtime.executor import _execute_cell

        def explode(*args, **kwargs):
            raise RuntimeError("injected worker crash")

        monkeypatch.setattr(runner_mod, "run_single", explode)
        plan = FaultPlan.uniform(0, (SEAM_CELL_ERROR,), 1.0)
        outcome = _execute_cell(
            _cells(systems=("CAML",))[0],
            fault_plan=plan.to_dict() if injected else None,
        )
        assert outcome["status"] == "error"
        assert "error" not in outcome and "faults" not in outcome
        failure = FailureRecord.from_dict(outcome["failure"])
        assert failure.injected is injected
        assert failure.error_type == (
            "InjectedFault" if injected else "RuntimeError")

    def test_progress_telemetry(self):
        events = []
        executor = CampaignExecutor(
            workers=1, progress_callback=events.append,
        )
        executor.run(_cells())
        assert [e.done for e in events] == [1, 2]
        final = events[-1]
        assert final.total == 2 and final.executed == 2
        assert final.execution_kwh > 0
        assert final.cells_per_second > 0
        assert sum(w.cells for w in final.workers.values()) == 2
        assert sum(w.execution_kwh for w in final.workers.values()) \
            == pytest.approx(final.execution_kwh)
        assert "cells/s" in final.render()

    def test_pooled_results_identical_to_serial(self):
        cells = _cells(datasets=("credit-g",
                                 "blood-transfusion-service-center"))
        serial = CampaignExecutor(workers=1).run(cells)
        pooled = CampaignExecutor(workers=2).run(cells)
        assert [asdict(r) for r in pooled.records] \
            == [asdict(r) for r in serial.records]

    def test_serial_retry_rejoins_the_back_of_the_queue(
            self, tmp_path, monkeypatch):
        """Serial runs requeue a failed cell behind the rest, like the
        pool does; the records still match a fault-free run."""
        import repro.experiments.runner as runner_mod

        cells = _cells()
        reference = CampaignExecutor(workers=1).run(cells)
        real = runner_mod.run_single
        tripped = []

        def fail_first_once(system, dataset, *args, **kwargs):
            if system == "TabPFN" and not tripped:
                tripped.append(system)
                raise RuntimeError("injected transient crash")
            return real(system, dataset, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "run_single", fail_first_once)
        journal_path = tmp_path / "j.jsonl"
        store = CampaignExecutor(
            workers=1, journal=CampaignJournal(journal_path),
            policy=RetryPolicy(max_retries=1),
        ).run(cells)
        events = [json.loads(line)
                  for line in journal_path.read_text().splitlines()]
        assert [(e["type"], e["index"]) for e in events[1:]] == [
            ("failure", 0), ("cell", 1), ("cell", 0),
        ]
        assert [asdict(r) for r in store.records] \
            == [asdict(r) for r in reference.records]

    def test_quarantine_note_survives_empty_error(self):
        from repro.runtime.executor import _Pending
        from repro.runtime.progress import ProgressTracker

        executor = CampaignExecutor(workers=1)
        executor.tracker = ProgressTracker(1)
        cells = _cells(systems=("CAML",))
        item = _Pending(0, cells[0], "k0", attempts=1)
        results = [None]
        # an exception with an empty message
        failure = FailureRecord.from_exception(
            RuntimeError(), seam="cell", attempt=1,
        )
        executor._quarantine(item, results, failure)
        assert results[0].failed
        assert "unknown error" in results[0].note


class TestPooledScheduler:
    """The completion-order streaming pool (workers>1).

    The monkeypatched ``run_single`` wrappers propagate into pool
    workers because ProcessPoolExecutor forks them lazily on first
    submit, after the patch is applied.
    """

    CELLS = dict(datasets=("credit-g",
                           "blood-transfusion-service-center"))

    def test_bit_identical_under_out_of_order_completion(
            self, monkeypatch):
        import repro.experiments.runner as runner_mod

        cells = _cells(**self.CELLS)
        serial = CampaignExecutor(workers=1).run(cells)

        real = runner_mod.run_single
        first = (cells[0].system, cells[0].dataset)

        def slow_first(system, dataset, *args, **kwargs):
            # the grid's first cell finishes LAST: every sibling
            # completes (and must commit) while it is still running
            if (system, dataset.name) == first:
                time.sleep(0.5)
            return real(system, dataset, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "run_single", slow_first)
        executor = CampaignExecutor(workers=2)
        pooled = executor.run(cells)
        assert [asdict(r) for r in pooled.records] \
            == [asdict(r) for r in serial.records]
        assert executor.pool_rebuilds == 0

    def test_timeout_quarantines_only_the_hung_cell(
            self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod

        cells = _cells(**self.CELLS)
        serial = CampaignExecutor(workers=1).run(cells)

        real = runner_mod.run_single
        hung = (cells[0].system, cells[0].dataset)

        def hang_first(system, dataset, *args, **kwargs):
            if (system, dataset.name) == hung:
                time.sleep(30.0)   # never finishes; killed at shutdown
            return real(system, dataset, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "run_single", hang_first)
        journal_path = tmp_path / "j.jsonl"
        cache = ResultCache(tmp_path / "cache")
        # the timeout must separate the hung cell from its siblings with
        # a wide margin in BOTH directions: far below the 30s hang, far
        # above a sibling's worst case on a loaded box
        executor = CampaignExecutor(
            workers=2, cache=cache,
            journal=CampaignJournal(journal_path),
            policy=RetryPolicy(max_retries=0, cell_timeout_s=2.0),
        )
        executor.run(cells)
        # only the hung cell was quarantined ...
        quarantined = executor.last_results[0]
        assert quarantined.failed
        assert "cell timeout" in quarantined.note
        # ... every sibling committed its real result to results,
        # cache and journal, with no pool rebuild
        for i in range(1, len(cells)):
            assert asdict(executor.last_results[i]) \
                == asdict(serial.records[i])
        assert executor.pool_rebuilds == 0
        assert len(cache) == len(cells)
        events = [json.loads(line) for line
                  in journal_path.read_text().splitlines()]
        committed = {e["index"] for e in events if e["type"] == "cell"}
        assert committed == set(range(len(cells)))
        assert sum(e["type"] == "failure" for e in events) == 1

    def test_all_workers_wedged_requeues_and_replaces_pool(
            self, monkeypatch):
        import repro.experiments.runner as runner_mod

        cells = _cells(**self.CELLS)
        serial = CampaignExecutor(workers=1).run(cells)

        real = runner_mod.run_single
        # both credit-g cells hang: with workers=2 they wedge every
        # worker while the blood-transfusion cells sit queued behind
        # them — the queued futures must be cancelled and requeued, not
        # left in flight forever (livelock)
        hung = {(c.system, c.dataset) for c in cells[:2]}

        def hang_first_two(system, dataset, *args, **kwargs):
            if (system, dataset.name) in hung:
                time.sleep(15.0)   # far past the deadline
            return real(system, dataset, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "run_single", hang_first_two)
        executor = CampaignExecutor(
            workers=2,
            policy=RetryPolicy(max_retries=0, cell_timeout_s=1.0),
        )
        executor.run(cells)
        for i in (0, 1):
            assert executor.last_results[i].failed
            assert "cell timeout" in executor.last_results[i].note
        # the queued cells ran to completion on the replacement pool
        for i in (2, 3):
            assert asdict(executor.last_results[i]) \
                == asdict(serial.records[i])
        assert executor.pool_rebuilds == 1
        # every pool worker — wedged or replacement — was killed and
        # reaped; none survives past the campaign
        for pid in executor.tracker.workers:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_warm_pool_survives_retries(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod

        cells = _cells(systems=("TabPFN", "CAML", "TabPFN"))
        serial = CampaignExecutor(workers=1).run(cells)

        real = runner_mod.run_single
        flag = tmp_path / "already-failed-once"

        def fail_caml_once(system, dataset, *args, **kwargs):
            if system == "CAML" and not flag.exists():
                flag.write_text("tripped")
                raise RuntimeError("injected transient crash")
            return real(system, dataset, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "run_single", fail_caml_once)
        executor = CampaignExecutor(
            workers=2,
            policy=RetryPolicy(max_retries=2),
        )
        store = executor.run(cells)
        # the retry ran in the SAME pool: no rebuild, and workers
        # report warm dataset-cache hits from their persistent caches
        assert executor.pool_rebuilds == 0
        assert [asdict(r) for r in store.records] \
            == [asdict(r) for r in serial.records]
        assert not any(r.failed for r in store.records)
        assert sum(s.warm_hits
                   for s in executor.tracker.workers.values()) >= 1

    def test_resume_skips_cells_after_corrupt_middle_line(
            self, tmp_path):
        cells = _cells(**self.CELLS)
        reference = CampaignExecutor(workers=1).run(cells)
        journal_path = tmp_path / "campaign.jsonl"
        CampaignExecutor(
            workers=1, journal=CampaignJournal(journal_path),
        ).run(cells)
        lines = journal_path.read_text().splitlines()
        # damage the SECOND completed cell (campaign header is line 0)
        lines[2] = lines[2][:25]
        journal_path.write_text("\n".join(lines) + "\n")
        resumed = CampaignExecutor(
            workers=1, journal=CampaignJournal(journal_path),
            resume=True,
        )
        with pytest.warns(UserWarning, match="corrupt line"):
            store = resumed.run(cells)
        # the cells journalled AFTER the damage still resume; only the
        # damaged cell re-executes
        assert resumed.tracker.resumed == len(cells) - 1
        assert resumed.tracker.executed == 1
        assert [asdict(r) for r in store.records] \
            == [asdict(r) for r in reference.records]


class TestRunGridIntegration:
    CONFIG = ExperimentConfig(
        systems=("TabPFN", "CAML"), datasets=("credit-g",),
        budgets=(10.0,), n_runs=2, time_scale=0.004,
    )

    def test_grid_cells_preserves_order_and_seeds(self):
        cells = grid_cells(self.CONFIG)
        assert [c.seed for c in cells] == [7, 1016, 7, 1016]
        assert [c.system for c in cells] \
            == ["TabPFN", "TabPFN", "CAML", "CAML"]

    def test_run_grid_with_cache_and_journal(self, tmp_path):
        store = run_grid(
            self.CONFIG, workers=1, cache_dir=tmp_path / "cache",
            journal_path=tmp_path / "j.jsonl",
        )
        assert len(store) == self.CONFIG.n_cells
        rerun = run_grid(
            self.CONFIG, workers=1, cache_dir=tmp_path / "cache",
            journal_path=tmp_path / "j2.jsonl",
        )
        assert [asdict(r) for r in rerun.records] \
            == [asdict(r) for r in store.records]

    def test_run_grid_fills_shared_telemetry_for_both_engines(
            self, tmp_path):
        shared = {"cache", "pool_rebuilds", "metrics", "spans"}
        serial: dict = {}
        run_grid(self.CONFIG, cache_dir=tmp_path / "c1",
                 telemetry=serial, trace=True)
        assert set(serial) == shared
        sharded: dict = {}
        run_grid(self.CONFIG, shards=2, cache_dir=tmp_path / "c2",
                 journal_path=tmp_path / "j.jsonl", telemetry=sharded,
                 trace=True)
        assert set(sharded) == shared | {"shards", "fenced_commits",
                                         "dedup_commits"}
        assert sharded["pool_rebuilds"] == serial["pool_rebuilds"] == 0
        assert set(sharded["shards"]) == {0, 1}

    def test_run_grid_resume_requires_journal(self):
        with pytest.raises(ValueError):
            run_grid(self.CONFIG, resume=True)
