"""Campaign-level chaos: seeded fault-injection runs through the real
executor, and the invariants the `repro chaos` harness enforces."""

import warnings
from dataclasses import asdict

from repro.experiments import ExperimentConfig, grid_cells
from repro.faults import (
    SEAM_CELL_ERROR,
    SEAM_RAPL_READ,
    SEAM_SLOW_CELL,
    SEAM_WORKER_DEATH,
    FailureRecord,
    FaultPlan,
)
from repro.runtime import CampaignExecutor, CampaignJournal, RetryPolicy
from repro.runtime.chaos import run_chaos_campaign
from repro.runtime.executor import planned_worker_faults

#: a small serial-friendly grid: 1 system x 1 dataset x 4 runs
SMALL = ExperimentConfig(
    systems=("CAML",), datasets=("kc1",), budgets=(10.0,),
    n_runs=4, time_scale=0.004,
)


def _run_serial_chaos(plan: FaultPlan, journal_path=None):
    executor = CampaignExecutor(
        workers=1,
        journal=(CampaignJournal(journal_path)
                 if journal_path is not None else None),
        policy=RetryPolicy(max_retries=1),
        fault_plan=plan,
    )
    store = executor.run(grid_cells(SMALL))
    return executor, store


class TestWorkerFaultLedger:
    def test_follows_the_worker_check_order(self):
        every = FaultPlan.uniform(0, (SEAM_WORKER_DEATH, SEAM_SLOW_CELL,
                                      SEAM_CELL_ERROR, SEAM_RAPL_READ), 1.0)
        # death short-circuits every later seam
        assert planned_worker_faults(every, "k#a0") \
            == [(SEAM_WORKER_DEATH, "k#a0")]
        # a stall precedes an injected error, which blocks the RAPL probe
        alive = FaultPlan.uniform(0, (SEAM_SLOW_CELL, SEAM_CELL_ERROR,
                                      SEAM_RAPL_READ), 1.0)
        assert planned_worker_faults(alive, "k#a0") == [
            (SEAM_SLOW_CELL, "k#a0"), (SEAM_CELL_ERROR, "k#a0"),
        ]
        rapl = FaultPlan.uniform(0, (SEAM_RAPL_READ,), 1.0)
        assert planned_worker_faults(rapl, "k#a0") \
            == [(SEAM_RAPL_READ, "k#a0")]
        assert planned_worker_faults(FaultPlan(seed=0), "k#a0") == []

    def test_executor_ledger_is_the_function_over_its_keys(self):
        plan = FaultPlan.uniform(3, (SEAM_CELL_ERROR, SEAM_RAPL_READ), 0.5)
        executor, _ = _run_serial_chaos(plan)
        assert sorted(executor.fault_events) == sorted(
            event for key in executor._planned
            for event in planned_worker_faults(plan, key)
        )
        assert executor.fault_events


class TestSerialChaos:
    def test_same_seed_replays_identical_fault_sequence(self):
        ledgers, payloads = [], []
        for _ in range(2):
            plan = FaultPlan.uniform(
                3, (SEAM_CELL_ERROR, SEAM_RAPL_READ), 0.5,
            )
            executor, store = _run_serial_chaos(
                FaultPlan.from_json(plan.to_json())
            )
            ledgers.append(sorted(executor.fault_events))
            payloads.append([asdict(r) for r in store.records])
        assert ledgers[0] == ledgers[1]
        assert ledgers[0]   # rate 0.5 over 4+ keys must fire
        assert payloads[0] == payloads[1]

    def test_injected_errors_quarantine_with_structured_notes(self):
        plan = FaultPlan.uniform(0, (SEAM_CELL_ERROR,), 1.0)
        executor, store = _run_serial_chaos(plan)
        assert len(store) == 4
        assert all(r.failed for r in store.records)
        assert all(FailureRecord.is_structured_note(r.note)
                   for r in store.records)
        assert all("cell_error" in r.note for r in store.records)

    def test_rapl_faults_flag_survivors_as_estimated(self):
        plan = FaultPlan.uniform(0, (SEAM_RAPL_READ,), 1.0)
        _, chaotic = _run_serial_chaos(plan)
        _, reference = _run_serial_chaos(FaultPlan(seed=0))
        assert all(r.energy_source == "estimated"
                   for r in chaotic.records)
        assert all(r.energy_source == "measured"
                   for r in reference.records)
        for got, want in zip(chaotic.records, reference.records):
            masked = {k: v for k, v in asdict(got).items()
                      if k != "energy_source"}
            assert masked == {k: v for k, v in asdict(want).items()
                              if k != "energy_source"}

    def test_serial_worker_death_degrades_to_retryable_error(self):
        # without a pool there is no process to kill: the seam degrades
        # to an injected error outcome instead of taking the run down
        plan = FaultPlan.uniform(0, (SEAM_WORKER_DEATH,), 1.0)
        executor, store = _run_serial_chaos(plan)
        assert len(store) == 4
        assert all(r.failed for r in store.records)
        assert executor.fault_counts[SEAM_WORKER_DEATH] >= 4

    def test_journal_failures_carry_structured_payloads(self, tmp_path):
        plan = FaultPlan.uniform(0, (SEAM_CELL_ERROR,), 1.0)
        path = tmp_path / "chaos.jsonl"
        _run_serial_chaos(plan, journal_path=path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state = CampaignJournal.load(path)
        assert state.fault_plan == plan.to_dict()
        assert state.failures
        assert all(isinstance(e.get("failure"), dict)
                   for e in state.failures)
        assert all(r.injected and r.seam == SEAM_CELL_ERROR
                   for r in state.failure_records())


class TestChaosHarness:
    def test_pooled_chaos_campaign_holds_every_invariant(self, tmp_path):
        report = run_chaos_campaign(
            0, tmp_path, workers=2, delay_s=1.2, cell_timeout_s=0.6,
        )
        assert report.ok, report.render()
        assert report.n_cells == 20
        assert sum(report.fault_counts.values()) >= 2
        assert len(report.fault_counts) >= 4
        # the evaluation-store invariant rides along: corrupted store
        # entries must degrade to warned misses, never poison queries
        assert any(check.name == "store-corruption-degrades"
                   for check in report.checks)

    def test_cli_parser_wires_chaos(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["chaos", "--seeds", "0", "1", "--workers", "2"]
        )
        assert args.seeds == [0, 1]
        assert args.workers == 2
        assert args.func.__name__ == "_cmd_chaos"
