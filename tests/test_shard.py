"""Fault-fenced shard coordinator: partition, quotas, leases, dedup."""

import warnings
from dataclasses import asdict, replace

import pytest

from repro.experiments.results import RunRecord
from repro.faults import (
    SEAM_LEASE_EXPIRE,
    SEAM_SHARD_DEATH,
    FaultPlan,
    SeamSpec,
)
from repro.runtime import (
    CampaignExecutor,
    CellSpec,
    ResultCache,
    ShardCoordinator,
    canonical_state_bytes,
    partition_cells,
)
from repro.runtime.shard import (
    ShardPolicy,
    coordinator_path,
    estimate_cell_joules,
    segment_path,
)

#: cheap cells (sub-second each) shared across tests
FAST = dict(budget_s=10.0, seed=7, time_scale=0.004)

#: a ShardPolicy that keeps the monitor snappy in tests
QUICK = dict(batch_size=2, lease_timeout_s=1.0, poll_interval_s=0.02)


def _cells(n=6, dataset="credit-g"):
    systems = ("CAML", "FLAML", "TabPFN")
    return [
        CellSpec(system=systems[i % 3], dataset=dataset,
                 **{**FAST, "seed": 7 + 1009 * (i // 3)})
        for i in range(n)
    ]


def _serial_reference(cells, journal_path):
    from repro.runtime import CampaignJournal

    executor = CampaignExecutor(
        workers=1, journal=CampaignJournal(journal_path),
    )
    executor.run(cells)
    state = CampaignJournal.load(journal_path)
    return canonical_state_bytes(state, mask_energy_source=True)


class TestPartition:
    def test_round_robin_is_deterministic_and_complete(self):
        parts = partition_cells(range(7), 3)
        assert parts == [[0, 3, 6], [1, 4], [2, 5]]
        assert sorted(i for p in parts for i in p) == list(range(7))

    def test_single_shard_gets_everything(self):
        assert partition_cells(range(4), 1) == [[0, 1, 2, 3]]

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            partition_cells(range(4), 0)

    def test_segment_and_coordinator_paths(self, tmp_path):
        base = tmp_path / "campaign.jsonl"
        assert segment_path(base, 2).name == "campaign.shard-2.jsonl"
        assert coordinator_path(base).name == "campaign.coordinator.jsonl"


class TestQuotaEstimate:
    def test_pure_function_of_the_spec(self):
        spec = CellSpec("CAML", "credit-g", **FAST)
        assert estimate_cell_joules(spec) == estimate_cell_joules(spec)
        assert estimate_cell_joules(spec) > 0.0

    def test_monotone_in_budget_and_cores(self):
        spec = CellSpec("CAML", "credit-g", **FAST)
        bigger = replace(spec, budget_s=30.0)
        wider = replace(spec, n_cores=4)
        assert estimate_cell_joules(bigger) > estimate_cell_joules(spec)
        assert estimate_cell_joules(wider) > estimate_cell_joules(spec)


class TestCoordinatorHappyPath:
    def test_bit_identical_to_serial_and_segments_on_disk(self, tmp_path):
        cells = _cells(6)
        ref = _serial_reference(cells, tmp_path / "reference.jsonl")

        merged_path = tmp_path / "campaign.jsonl"
        with ShardCoordinator(
            shards=3, workers=1, journal_path=merged_path,
            shard_policy=ShardPolicy(**QUICK),
        ) as coordinator:
            store = coordinator.run(cells)

        assert len(store) == 6
        merged = coordinator.merged
        assert merged.fenced_commits == 0
        state_bytes = canonical_state_bytes(
            merged.state, mask_energy_source=True,
        )
        assert state_bytes == ref
        # the merged journal replays to the same state it was built from
        from repro.runtime import CampaignJournal

        replayed = CampaignJournal.load(merged_path)
        assert canonical_state_bytes(
            replayed, mask_energy_source=True,
        ) == ref
        for sid in range(3):
            assert segment_path(merged_path, sid).exists()
        assert coordinator_path(merged_path).exists()

    def test_tracker_reports_per_shard_rows(self, tmp_path):
        with ShardCoordinator(
            shards=2, workers=1,
            journal_path=tmp_path / "campaign.jsonl",
            shard_policy=ShardPolicy(**QUICK),
        ) as coordinator:
            coordinator.run(_cells(4))
        rows = coordinator.tracker.shards
        assert set(rows) == {0, 1}
        assert sum(r.done for r in rows.values()) == 4
        assert all(r.state == "done" for r in rows.values())

    def test_shared_cache_dedups_cross_shard_duplicates(self, tmp_path):
        # the same 2 specs on both shards: whoever commits second hits
        # the cache's first-write-wins path instead of re-writing
        cells = _cells(2) * 2
        cache = ResultCache(tmp_path / "cache")
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no dedup_conflicts allowed
            with ShardCoordinator(
                shards=2, workers=1, cache=cache,
                journal_path=tmp_path / "campaign.jsonl",
                shard_policy=ShardPolicy(**QUICK),
            ) as coordinator:
                store = coordinator.run(cells)
        assert len(store) == 4
        stats = cache.stats
        assert stats.writes == 2
        assert stats.hits + stats.dedup_hits >= 2
        assert stats.dedup_conflicts == 0


class TestQuotas:
    def test_over_quota_cells_quarantine_deterministically(self, tmp_path):
        cells = _cells(4)
        one_cell = estimate_cell_joules(cells[0])
        with ShardCoordinator(
            shards=2, workers=1,
            journal_path=tmp_path / "campaign.jsonl",
            shard_policy=ShardPolicy(**QUICK),
            quotas={"default": one_cell * 2.5},
        ) as coordinator:
            store = coordinator.run(cells)

        assert len(store) == 4          # quarantined cells still resolve
        quarantined = coordinator.quarantined_quota
        assert len(quarantined) == 2    # 2.5 cell-budgets pay for 2 cells
        assert all(f.error_type == "QuotaExceeded" for f in quarantined)
        assert all(f.seam == "quota" for f in quarantined)
        failed = [r for r in store.records if r.failed]
        assert len(failed) == 2
        assert all("QuotaExceeded" in r.note for r in failed)

    def test_unlimited_tenants_are_untouched(self, tmp_path):
        with ShardCoordinator(
            shards=2, workers=1,
            journal_path=tmp_path / "campaign.jsonl",
            shard_policy=ShardPolicy(**QUICK),
            quotas={"someone-else": 0.0},
        ) as coordinator:
            store = coordinator.run(_cells(2))
        assert not coordinator.quarantined_quota
        assert not any(r.failed for r in store.records)


class TestFaultSeams:
    def test_shard_death_is_fenced_and_result_is_bit_identical(
            self, tmp_path):
        cells = _cells(8)
        ref = _serial_reference(cells, tmp_path / "reference.jsonl")
        plan = FaultPlan(seed=0, seams={
            SEAM_SHARD_DEATH: SeamSpec(rate=1.0, mode="one_shot"),
        })
        with ShardCoordinator(
            shards=3, workers=1, fault_plan=plan,
            journal_path=tmp_path / "campaign.jsonl",
            shard_policy=ShardPolicy(**QUICK),
        ) as coordinator:
            store = coordinator.run(cells)

        assert len(store) == 8
        assert coordinator.fault_counts.get(SEAM_SHARD_DEATH, 0) == 1
        assert coordinator.metrics.counter("shard.deaths").value >= 1
        assert coordinator.reassignments      # orphans were re-homed
        assert canonical_state_bytes(
            coordinator.merged.state, mask_energy_source=True,
        ) == ref

    def test_lease_expiry_resurrects_and_fences_stragglers(
            self, tmp_path):
        cells = _cells(8)
        ref = _serial_reference(cells, tmp_path / "reference.jsonl")
        plan = FaultPlan(seed=0, seams={
            SEAM_LEASE_EXPIRE: SeamSpec(rate=1.0, mode="one_shot"),
        })
        with ShardCoordinator(
            shards=2, workers=1, fault_plan=plan,
            journal_path=tmp_path / "campaign.jsonl",
            shard_policy=ShardPolicy(**QUICK),
        ) as coordinator:
            store = coordinator.run(cells)

        assert len(store) == 8
        assert coordinator.metrics.counter(
            "shard.lease_expiries").value >= 1
        assert coordinator.metrics.counter(
            "shard.resurrections").value >= 1
        assert canonical_state_bytes(
            coordinator.merged.state, mask_energy_source=True,
        ) == ref


class TestCacheDedupRace:
    def test_second_put_is_dropped_and_counted(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = RunRecord(
            system="CAML", dataset="credit-g", configured_seconds=10.0,
            seed=7, balanced_accuracy=0.7, execution_kwh=1e-5,
            actual_seconds=0.1, inference_kwh_per_instance=1e-12,
            inference_seconds_per_instance=1e-6,
        )
        cache.put("k", record)
        cache.put("k", record)                  # identical: silent dedup
        assert cache.stats.writes == 1
        assert cache.stats.dedup_hits == 1
        assert cache.stats.dedup_conflicts == 0
        assert asdict(cache.get("k")) == asdict(record)

    def test_conflicting_put_keeps_first_write_and_warns(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = RunRecord(
            system="CAML", dataset="credit-g", configured_seconds=10.0,
            seed=7, balanced_accuracy=0.7, execution_kwh=1e-5,
            actual_seconds=0.1, inference_kwh_per_instance=1e-12,
            inference_seconds_per_instance=1e-6,
        )
        cache.put("k", record)
        with pytest.warns(UserWarning, match="written twice"):
            cache.put("k", replace(record, balanced_accuracy=0.9))
        assert cache.stats.dedup_conflicts == 1
        assert cache.get("k").balanced_accuracy == 0.7

    def test_energy_source_divergence_is_not_a_conflict(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = RunRecord(
            system="CAML", dataset="credit-g", configured_seconds=10.0,
            seed=7, balanced_accuracy=0.7, execution_kwh=1e-5,
            actual_seconds=0.1, inference_kwh_per_instance=1e-12,
            inference_seconds_per_instance=1e-6,
            energy_source="measured",
        )
        cache.put("k", record)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache.put("k", replace(record, energy_source="estimated"))
        assert cache.stats.dedup_hits == 1
        assert cache.stats.dedup_conflicts == 0
