"""Fault-fenced multi-shard campaign coordination.

A :class:`ShardCoordinator` partitions one campaign's cell grid across
N *shards*.  Each shard is a thread owning a persistent
:class:`~repro.runtime.executor.CampaignExecutor` (its own warm worker
pool) and its own journal *segment* (``campaign.shard-<k>.jsonl``).
Because every cell is a pure function of its :class:`CellSpec` (budget
accounting runs on the simulated clock), the sharded campaign's merged
result is bit-identical to the serial single-journal reference — the
whole point of this module is keeping that true **under faults**:

Epoch-fenced leases
    Shards heartbeat lease records into their segments and an
    in-memory ``last_beat`` on the coordinator's injectable clock.
    The coordinator's monitor loop detects a dead shard (thread gone),
    a wedged shard (heartbeat stalled past ``lease_timeout_s``) or a
    torn segment, **fences** the shard's current epoch and reassigns
    its orphaned cells to survivors.  Fencing is always safe, never
    harmful: a falsely-fenced healthy shard keeps running, its
    under-the-old-epoch commits lose the merge to the reassigned
    copies' first-by-attempt wins, and it re-leases itself at
    ``epoch + 1`` before touching new work.  A wedged shard that wakes
    up behaves exactly like that straggler — it commits its stale
    batch under the fenced epoch (the double-commit the fence exists
    to absorb) and then resurrects.

Steal == recover
    Work-stealing pulls cells from the *tail* of the longest live
    queue through the same reassignment ledger a fence uses; an idle
    shard and a fence differ only in ``reason``.

Deterministic merge
    :func:`merge_journals` folds N segments (+ the coordinator's own
    journal) into one :class:`~repro.runtime.journal.JournalState`
    that is byte-identical regardless of shard count, completion
    order, steals or deaths.  Commits are grouped by cache key;
    non-fenced candidates always beat fenced ones; among candidates
    the winner is first-write-wins **by attempt** (then shard, then
    epoch — a total, order-independent tiebreak).  Fenced losers are
    counted as ``fenced_commits``, duplicate non-fenced commits as
    ``dedup_commits``.

Tenant quotas
    Admission control: each :class:`CellSpec` carries a ``tenant`` and
    the coordinator can hold per-tenant joules budgets.  The cost of a
    cell is a *deterministic* estimate (machine power x budget
    seconds — never a measurement, so admission cannot perturb
    results).  Over-quota cells are quarantined with a structured
    :class:`~repro.faults.FailureRecord` before any shard sees them.

Chaos seams: ``shard_death`` (the whole group dies mid-batch, no
cleanup), ``lease_expire`` (wedge past the lease, then straggle) and
``segment_torn`` (segment lines torn on write).  The headline chaos
invariant: kill a whole shard mid-campaign and the merged result still
bit-matches the fault-free serial reference.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field, replace as dc_replace
from pathlib import Path
from typing import Callable

from repro.datasets.loaders import load_dataset
from repro.energy.machines import DEFAULT_MACHINE, MachineProfile
from repro.experiments.results import ResultsStore, RunRecord
from repro.faults import (
    SEAM_LEASE_EXPIRE,
    SEAM_SEGMENT_TORN,
    SEAM_SHARD_DEATH,
    FailureRecord,
    FaultInjector,
    FaultPlan,
)
from repro.observability import MetricsRegistry, merge_snapshots
from repro.runtime.cells import CellSpec
from repro.runtime.executor import (
    CampaignExecutor,
    RetryPolicy,
    _baseline_record,
)
from repro.runtime.journal import (
    CampaignJournal,
    JournalState,
    iter_journal_events,
)
from repro.runtime.progress import ProgressTracker, WorkerStats
from repro.storage import write_atomic


# -- paths and partitioning ----------------------------------------------------
def segment_path(journal_path, shard: int) -> Path:
    """``campaign.jsonl`` -> ``campaign.shard-<k>.jsonl``."""
    path = Path(journal_path)
    suffix = path.suffix or ".jsonl"
    return path.with_name(f"{path.stem}.shard-{shard}{suffix}")


def coordinator_path(journal_path) -> Path:
    """``campaign.jsonl`` -> ``campaign.coordinator.jsonl`` (fences,
    reassignment ledger, quota quarantines, repairs — never torn)."""
    path = Path(journal_path)
    suffix = path.suffix or ".jsonl"
    return path.with_name(f"{path.stem}.coordinator{suffix}")


def partition_cells(indices, n_shards: int) -> list[list[int]]:
    """Deterministic round-robin partition of global cell indices."""
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    indices = list(indices)
    return [indices[k::n_shards] for k in range(n_shards)]


def estimate_cell_joules(spec: CellSpec,
                         machine: MachineProfile = DEFAULT_MACHINE) -> float:
    """Deterministic worst-case energy estimate for quota admission.

    Machine power at the cell's core count x the *configured* budget
    seconds — a pure function of the spec, so admission decisions are
    replayable and can never depend on a measurement.
    """
    cores = max(1, min(int(spec.n_cores), machine.n_cores))
    gpu = bool(spec.use_gpu and machine.gpu is not None)
    return machine.power(cores, gpu_active=gpu) * float(spec.budget_s)


# -- deterministic journal merge -----------------------------------------------
#: canonical event ordering in a merged journal (then per-event keys)
_EVENT_RANK = {
    "campaign": 0, "shards": 1, "fence": 2, "assign": 3,
    "cell": 4, "skip": 4, "failure": 5, "spans": 6, "lease": 7,
    "metrics": 8,
}


def _event_sort_key(event: dict):
    """A total, content-only order: merging is commutative because the
    final event sequence never depends on input file order."""
    shard = event.get("shard")
    return (
        _EVENT_RANK.get(event.get("type"), 9),
        int(event.get("index", -1)),
        str(event.get("key", "")),
        int(event.get("attempt", 0)),
        int(shard) if isinstance(shard, int) else -1,
        int(event.get("epoch", 0)),
        int(event.get("beat", -1)),
        int(event.get("fenced_shard", -1)),
        int(event.get("fenced_epoch", -1)),
        json.dumps(event, sort_keys=True),
    )


def _commit_rank(event: dict):
    """First-write-wins by attempt, then (shard, epoch) as the total
    tiebreak — pure content, no file positions."""
    shard = event.get("shard")
    return (
        int(event.get("attempt", 0)),
        int(shard) if isinstance(shard, int) else -1,
        int(event.get("epoch", 0)),
        json.dumps(event, sort_keys=True),
    )


def _is_fenced(event: dict, fenced: set) -> bool:
    shard = event.get("shard")
    if not isinstance(shard, int):
        return False   # coordinator/serial events are never fenced
    return (shard, int(event.get("epoch", 0))) in fenced


@dataclass
class MergedJournal:
    """The deterministic fold of N journal segments."""

    state: JournalState
    #: duplicate commits resolved against a fenced epoch
    fenced_commits: int = 0
    #: duplicate commits between live epochs (steal/straggler races)
    dedup_commits: int = 0
    #: the canonical event sequence (what :meth:`write` persists)
    events: list[dict] = field(default_factory=list)
    #: per-shard summary: epochs seen and heartbeat count
    shards: dict[int, dict] = field(default_factory=dict)
    #: fenced (shard, epoch) pairs recorded by the coordinator
    fenced_epochs: list[tuple[int, int]] = field(default_factory=list)

    def canonical_bytes(self) -> bytes:
        return "".join(
            json.dumps(event) + "\n" for event in self.events
        ).encode("utf-8")

    def write(self, path) -> Path:
        """Persist the canonical merged journal (atomically): the
        output replays through :meth:`CampaignJournal.load`, re-merges
        idempotently, and feeds ``repro trace``/``--resume``."""
        path = Path(path)
        write_atomic(path, self.canonical_bytes())
        return path


def canonical_state_bytes(state: JournalState, *,
                          mask_energy_source: bool = False) -> bytes:
    """A byte-stable projection of a journal state's *results*.

    This is the bit-identity witness: the sharded merge and the serial
    reference must produce equal bytes.  ``mask_energy_source`` drops
    the one field allowed to differ (RAPL vs model measurement channel
    — the same mask the cache dedup and chaos identity checks use).
    """
    completed = {}
    for key in sorted(state.completed):
        record = asdict(state.completed[key])
        if mask_energy_source:
            record.pop("energy_source", None)
        completed[key] = record
    doc = {
        "n_cells": state.n_cells,
        "completed": completed,
        "skipped": sorted(state.skipped),
    }
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def merge_journals(paths) -> MergedJournal:
    """Fold journal segments into one deterministic campaign journal.

    Properties (pinned by the Hypothesis suite in
    ``tests/test_shard_merge.py``):

    - **commutative**: any permutation of ``paths`` merges to the same
      canonical bytes;
    - **associative**: merging a written merge with the remaining
      segments equals merging everything at once (states equal;
      fenced/dedup counters are per-merge diagnostics and reset);
    - **idempotent**: re-merging a merged journal is a fixed point;
    - **tolerant**: a torn final line per segment is ignored, a
      corrupt middle line is counted in ``state.skipped_lines``.
    """
    all_events: list[dict] = []
    skipped_lines = 0
    for path in paths:
        events, skipped = iter_journal_events(path)
        skipped_lines += skipped
        all_events.extend(events)

    fenced: set[tuple[int, int]] = set()
    for event in all_events:
        if event.get("type") == "fence":
            fenced.add((int(event["fenced_shard"]),
                        int(event["fenced_epoch"])))

    state = JournalState()
    state.skipped_lines = skipped_lines
    merged = MergedJournal(state=state,
                           fenced_epochs=sorted(fenced))

    headers = [e for e in all_events if e.get("type") == "campaign"]
    if headers:
        n_cells = [h.get("n_cells") for h in headers
                   if h.get("n_cells") is not None]
        state.n_cells = max(n_cells) if n_cells else None
        plans = sorted(
            (h["fault_plan"] for h in headers if h.get("fault_plan")),
            key=lambda p: json.dumps(p, sort_keys=True),
        )
        state.fault_plan = plans[0] if plans else None
        header: dict = {"type": "campaign", "n_cells": state.n_cells}
        if state.fault_plan is not None:
            header["fault_plan"] = state.fault_plan
        merged.events.append(header)

    # -- resolve commits (cell + skip) per key --------------------------------
    commits: dict[str, list[dict]] = {}
    skips: dict[str, list[dict]] = {}
    rest: list[dict] = []
    for event in all_events:
        kind = event.get("type")
        if kind == "cell":
            if not isinstance(event.get("record"), dict) \
                    or "key" not in event:
                state.skipped_lines += 1   # parseable line, torn payload
                continue
            commits.setdefault(event["key"], []).append(event)
        elif kind == "skip":
            skips.setdefault(event["key"], []).append(event)
        elif kind == "campaign":
            continue
        else:
            rest.append(event)

    def resolve(candidates: list[dict]) -> dict | None:
        live = [c for c in candidates if not _is_fenced(c, fenced)]
        pool = live or candidates
        winner = min(pool, key=_commit_rank)
        merged.fenced_commits += sum(
            1 for c in candidates
            if c is not winner and _is_fenced(c, fenced)
        )
        merged.dedup_commits += sum(
            1 for c in candidates
            if c is not winner and not _is_fenced(c, fenced)
        )
        return winner

    winners: list[dict] = []
    for key, candidates in commits.items():
        winner = resolve(candidates)
        try:
            record = RunRecord(**winner["record"])
        except (KeyError, TypeError):
            state.skipped_lines += 1
            continue
        state.completed[key] = record
        winners.append(winner)
    for key, candidates in skips.items():
        if key in state.completed:
            # a skip racing a commit for the same key cannot happen for
            # pure cells; prefer the committed record, count the dup
            merged.dedup_commits += len(candidates)
            continue
        winners.append(resolve(candidates))
        state.skipped.add(key)

    metrics_snaps = []
    for event in rest:
        kind = event.get("type")
        if kind == "failure":
            state.failures.append(event)
        elif kind == "spans":
            state.spans.append(event)
        elif kind == "metrics":
            metrics_snaps.append(event.get("snapshot") or {})
        elif kind == "lease":
            shard = event.get("shard")
            if isinstance(shard, int):
                row = merged.shards.setdefault(
                    shard, {"epochs": set(), "beats": 0},
                )
                row["epochs"].add(int(event.get("epoch", 0)))
                row["beats"] += 1
    if metrics_snaps:
        folded: dict = {}
        for snap in metrics_snaps:
            folded = merge_snapshots(folded, snap)
        state.metrics = folded
    for row in merged.shards.values():
        row["epochs"] = sorted(row["epochs"])

    state.failures.sort(key=_event_sort_key)
    state.spans.sort(key=_event_sort_key)
    tail = [e for e in rest if e.get("type") != "metrics"]
    merged.events.extend(sorted(winners + tail, key=_event_sort_key))
    if state.metrics is not None:
        merged.events.append(
            {"type": "metrics", "snapshot": state.metrics}
        )
    return merged


# -- the coordinator -----------------------------------------------------------
@dataclass
class ShardPolicy:
    """Lease timing and batching knobs for a sharded campaign.

    ``clock``/``sleep`` default to the real monotonic clock and are
    referenced, not called, at import — tests inject fakes, and the
    simulated-budget invariant holds because lease liveness never
    feeds into any cell result.
    """

    batch_size: int = 2
    lease_timeout_s: float = 5.0
    poll_interval_s: float = 0.05
    #: how long a wedged shard waits to be fenced before straggling on
    #: regardless (fallback so a lone shard cannot deadlock)
    wedge_patience_s: float | None = None
    clock: Callable[[], float] = time.monotonic
    sleep: Callable[[float], None] = time.sleep

    def patience(self) -> float:
        if self.wedge_patience_s is not None:
            return self.wedge_patience_s
        return max(4.0 * self.lease_timeout_s, 1.0)


class _ShardRuntime:
    """Coordinator-side state for one shard group (lock-guarded)."""

    def __init__(self, sid: int, executor: CampaignExecutor,
                 journal: CampaignJournal,
                 injector: FaultInjector | None):
        self.id = sid
        self.executor = executor
        self.journal = journal
        self.segment_injector = injector
        self.epoch = 0
        self.state = "running"          # running | wedged | dead | done
        self.queue: deque[int] = deque()
        self.inflight: list[int] = []
        self.thread: threading.Thread | None = None
        self.last_beat = 0.0
        self.beats = 0
        self.batches = 0
        self.fence_event = threading.Event()

    def alive(self) -> bool:
        return self.thread is not None and self.thread.is_alive()


class ShardCoordinator:
    """Partition a cell grid across fault-fenced shard groups.

    ``workers`` is the pool size *per shard* (1 = in-thread serial
    execution, no subprocess pool).  ``quotas`` maps tenant name to a
    joules budget; omitted tenants are unlimited.  ``journal_path`` is
    the *merged* journal destination — segments live next to it; when
    None a temporary directory is used and removed on close.
    """

    def __init__(self, *, shards: int = 2, workers: int = 1,
                 cache=None, journal_path=None, resume: bool = False,
                 policy: RetryPolicy | None = None,
                 shard_policy: ShardPolicy | None = None,
                 fault_plan: FaultPlan | None = None,
                 trace: bool = False, trace_clock: str = "ticks",
                 quotas: dict[str, float] | None = None,
                 quota_machine: MachineProfile = DEFAULT_MACHINE,
                 progress_callback=None, eval_store=None):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.n_shards = shards
        self.workers = workers
        self.cache = cache
        #: shared evaluation store — one instance across all shards;
        #: first-write-wins puts make cross-shard overlap a dedup, not
        #: a conflict, so the merged store digest is layout-invariant
        self.eval_store = eval_store
        self.resume = resume
        self.policy = policy or RetryPolicy()
        self.shard_policy = shard_policy or ShardPolicy()
        self.fault_plan = fault_plan
        self.trace = trace
        self.trace_clock = trace_clock
        self.quotas = dict(quotas) if quotas else None
        self.quota_machine = quota_machine
        self.progress_callback = progress_callback

        self._tmp_dir: str | None = None
        if journal_path is None:
            self._tmp_dir = tempfile.mkdtemp(prefix="repro-shards-")
            journal_path = Path(self._tmp_dir) / "campaign.jsonl"
        self.journal_path = Path(journal_path)

        self.metrics = MetricsRegistry()
        self.tracker: ProgressTracker | None = None
        self.merged: MergedJournal | None = None
        self.last_results: list[RunRecord | None] = []
        #: reassignment ledger: every fence/steal/recover movement as
        #: ``{"index", "key", "from_shard", "from_epoch", "to_shard",
        #: "reason"}`` — the chaos audit asserts exactly-once per
        #: (index, from_shard, from_epoch)
        self.reassignments: list[dict] = []
        self.quarantined_quota: list[FailureRecord] = []

        self._lock = threading.RLock()
        self._shards: list[_ShardRuntime] = []
        self._fenced: set[tuple[int, int]] = set()
        self._parked: list[tuple[int, int, int, str]] = []
        self._done: dict[int, RunRecord | None] = {}
        self._cells: list[CellSpec] = []
        self._keys: list[str] = []
        self._coord: CampaignJournal | None = None
        self._injector = (FaultInjector(fault_plan)
                          if fault_plan is not None else None)
        self._closed = False

    # -- shard construction ----------------------------------------------------
    def _make_shard(self, sid: int) -> _ShardRuntime:
        injector = (FaultInjector(self.fault_plan)
                    if self.fault_plan is not None else None)
        journal = CampaignJournal(
            segment_path(self.journal_path, sid),
            shard=sid, torn_seam=SEAM_SEGMENT_TORN,
            fault_injector=injector,
        )
        # distinct jitter seed per shard: retries against one poisoned
        # dataset de-stampede instead of hammering it in lockstep
        policy = dc_replace(
            self.policy,
            jitter_seed=self.policy.jitter_seed * 1009 + sid + 1,
        )
        executor = CampaignExecutor(
            workers=self.workers, cache=self.cache, journal=journal,
            resume=False, policy=policy, fault_plan=self.fault_plan,
            trace=self.trace, trace_clock=self.trace_clock,
            persistent=True, eval_store=self.eval_store,
        )
        shard = _ShardRuntime(sid, executor, journal, injector)
        # executor progress doubles as a liveness heartbeat: a shard
        # grinding through a long batch must not look wedged
        executor.progress_callback = lambda event: self._beat(shard)
        return shard

    def _beat(self, shard: _ShardRuntime) -> None:
        with self._lock:
            if shard.state == "running":
                shard.last_beat = self.shard_policy.clock()

    # -- admission -------------------------------------------------------------
    def _admit(self, pending: list[int]) -> list[int]:
        """Per-tenant joules quotas, charged in deterministic index
        order; over-quota cells are quarantined before any shard runs."""
        if not self.quotas:
            return pending
        remaining = dict(self.quotas)
        admitted: list[int] = []
        for index in pending:
            spec = self._cells[index]
            budget = remaining.get(spec.tenant)
            if budget is None:
                admitted.append(index)
                continue
            cost = estimate_cell_joules(spec, self.quota_machine)
            if cost <= budget:
                remaining[spec.tenant] = budget - cost
                admitted.append(index)
                continue
            failure = FailureRecord(
                error_type="QuotaExceeded", seam="quota", attempt=0,
                message=(
                    f"tenant {spec.tenant!r} joules quota exhausted: "
                    f"cell needs ~{cost:.0f} J, {budget:.0f} J left"
                ),
            )
            self.quarantined_quota.append(failure)
            record = _baseline_record(
                spec, load_dataset(spec.dataset),
                failure.to_note(0),
            )
            key = self._keys[index]
            self._coord.record_failure(index, key, 0, failure=failure)
            self._coord.record_cell(index, key, record, attempt=0)
            self._done[index] = record
            self.metrics.counter("shard.quota_quarantined").inc()
            self.tracker.update(record=record, kind="executed",
                                label=spec.label())
        return admitted

    # -- reassignment (fence == steal == recover) ------------------------------
    def _record_assign(self, index: int, from_shard: int,
                       from_epoch: int, to_shard: int,
                       reason: str) -> None:
        entry = {
            "index": index, "key": self._keys[index],
            "from_shard": from_shard, "from_epoch": from_epoch,
            "to_shard": to_shard, "reason": reason,
        }
        self.reassignments.append(entry)
        self._coord.record_event({"type": "assign", **entry})
        self.metrics.counter("shard.reassigned_cells").inc()
        row = self.tracker.shard_stats(to_shard)
        if reason == "steal":
            row.stolen += 1
            self.metrics.counter("shard.steals").inc()
        else:
            row.reassigned_in += 1

    def _distribute(self, orphans: list[int], from_shard: int,
                    from_epoch: int, reason: str) -> None:
        targets = [s for s in self._shards
                   if s.id != from_shard and s.alive()
                   and s.state in ("running", "wedged")]
        if not targets:
            source = next((s for s in self._shards
                           if s.id == from_shard), None)
            if source is not None and source.alive() \
                    and source.state == "wedged":
                # the fenced shard is the only survivor: hand its
                # orphans back to its own NEXT epoch — the resurrected
                # shard re-runs them live, which is what turns the
                # straggler's old-epoch commits into provably fenced
                # duplicates instead of silent sole copies
                targets = [source]
            else:
                self._parked.extend(
                    (index, from_shard, from_epoch, reason)
                    for index in orphans
                )
                return
        for position, index in enumerate(orphans):
            target = targets[position % len(targets)]
            target.queue.append(index)
            self._record_assign(index, from_shard, from_epoch,
                                target.id, reason)

    def _fence(self, shard: _ShardRuntime, reason: str) -> bool:
        """Fence ``shard``'s current epoch (lock held).  Returns True
        when the shard's executor should be reaped (dead thread) —
        the caller closes it *outside* the lock."""
        self._fenced.add((shard.id, shard.epoch))
        self._coord.record_event({
            "type": "fence", "fenced_shard": shard.id,
            "fenced_epoch": shard.epoch, "reason": reason,
        })
        self.metrics.counter("shard.fences").inc()
        self.metrics.counter(f"shard.fences.{reason}").inc()
        orphans = [i for i in [*shard.inflight, *shard.queue]
                   if i not in self._done]
        shard.queue.clear()
        row = self.tracker.shard_stats(shard.id)
        reap = False
        if not shard.alive():
            shard.state = "dead"
            row.state = "dead"
            shard.inflight = []
            self.metrics.counter("shard.deaths").inc()
            reap = True
        else:
            shard.state = "wedged"
            row.state = "wedged"
            self.metrics.counter("shard.lease_expiries").inc()
            # the straggler clears its own inflight when it reports
            shard.fence_event.set()
        self._distribute(orphans, shard.id, shard.epoch, reason)
        return reap

    def _relearn_lease(self, shard: _ShardRuntime) -> None:
        """Resurrect a fenced-but-alive shard at the next epoch (lock
        held): commits from here on are live again."""
        shard.epoch += 1
        shard.journal.epoch = shard.epoch
        shard.state = "running"
        shard.last_beat = self.shard_policy.clock()
        row = self.tracker.shard_stats(shard.id)
        row.epoch = shard.epoch
        row.state = "running"
        shard.fence_event.clear()
        self.metrics.counter("shard.resurrections").inc()

    # -- the shard loop --------------------------------------------------------
    def _next_batch(self, shard: _ShardRuntime) -> list[int] | None:
        with self._lock:
            if (shard.id, shard.epoch) in self._fenced \
                    and shard.state in ("running", "wedged"):
                self._relearn_lease(shard)
            if not shard.queue:
                victim = max(
                    (s for s in self._shards
                     if s is not shard and s.alive() and s.queue
                     and s.state in ("running", "wedged")),
                    key=lambda s: len(s.queue), default=None,
                )
                if victim is not None:
                    take = min(self.shard_policy.batch_size,
                               len(victim.queue))
                    # steal from the TAIL so the victim keeps its
                    # next-up cells; reuse the fence reassignment path
                    stolen = [victim.queue.pop() for _ in range(take)]
                    for index in stolen:
                        self._record_assign(
                            index, victim.id, victim.epoch,
                            shard.id, "steal",
                        )
                    shard.queue.extend(stolen)
            if not shard.queue:
                return None
            batch = [shard.queue.popleft()
                     for _ in range(min(self.shard_policy.batch_size,
                                        len(shard.queue)))]
            shard.inflight = batch
            shard.batches += 1
            shard.last_beat = self.shard_policy.clock()
            return batch

    def _fire_shard_seam(self, seam: str, shard: _ShardRuntime) -> bool:
        """Consult a shard-level chaos seam, mid-campaign only (the
        shard must have committed at least one batch first so a death
        always orphans real progress)."""
        if self._injector is None or shard.batches < 2:
            return False
        with self._lock:
            return self._injector.fire(
                seam, f"shard-{shard.id}#e{shard.epoch}#b{shard.batches}",
            )

    def _shard_loop(self, shard: _ShardRuntime) -> None:
        with self._lock:
            shard.last_beat = self.shard_policy.clock()
            shard.beats += 1
            self.tracker.shard_stats(shard.id).beats = shard.beats
        shard.journal.record_lease(shard.beats, 0)
        while True:
            batch = self._next_batch(shard)
            if batch is None:
                with self._lock:
                    if shard.queue:
                        continue   # reassigned work raced the exit
                    if shard.state == "running":
                        shard.state = "done"
                        self.tracker.shard_stats(shard.id).state = "done"
                return
            if self._fire_shard_seam(SEAM_SHARD_DEATH, shard):
                # whole-group death: drop the batch on the floor, no
                # cleanup, no report — the monitor finds the corpse
                return
            if self._fire_shard_seam(SEAM_LEASE_EXPIRE, shard):
                self._wedge_and_straggle(shard, batch)
                continue
            self._execute_batch(shard, batch)

    def _wedge_and_straggle(self, shard: _ShardRuntime,
                            batch: list[int]) -> None:
        """The ``lease_expire`` seam body: stop heartbeating until
        fenced, then commit the stale batch under the OLD epoch —
        exactly the straggler double-commit fencing must absorb —
        and resurrect via the normal re-lease path in the next
        ``_next_batch``."""
        with self._lock:
            shard.state = "wedged"
            self.tracker.shard_stats(shard.id).state = "wedged"
        shard.fence_event.wait(timeout=self.shard_policy.patience())
        self._execute_batch(shard, batch, straggler=True)

    def _execute_batch(self, shard: _ShardRuntime, batch: list[int],
                       straggler: bool = False) -> None:
        pairs = [(index, self._cells[index]) for index in batch]
        results = shard.executor.run_indexed(pairs)
        with self._lock:
            for index in batch:
                self._report(shard, index, results.get(index))
            shard.inflight = []
            self._absorb_workers(shard)
            if not straggler and shard.state == "running":
                shard.last_beat = self.shard_policy.clock()
                shard.beats += 1
                self.tracker.shard_stats(shard.id).beats = shard.beats
                beat, done = shard.beats, len(self._done)
            else:
                beat = None
        if beat is not None:
            shard.journal.record_lease(beat, done)

    def _report(self, shard: _ShardRuntime, index: int,
                record: RunRecord | None) -> None:
        """First report wins (lock held): a straggler or a reassigned
        duplicate landing second is counted, never double-folded."""
        if index in self._done:
            self.metrics.counter("shard.duplicate_reports").inc()
            return
        self._done[index] = record
        spec = self._cells[index]
        kind = "executed" if record is not None else "skipped"
        self.tracker.update(
            record=record, kind=kind, label=spec.label(),
            shard=shard.id,
        )

    def _absorb_workers(self, shard: _ShardRuntime) -> None:
        """Fold the batch's per-worker stats into the campaign view
        (the executor's tracker resets every batch)."""
        tracker = shard.executor.tracker
        if tracker is None:
            return
        for pid, stats in tracker.workers.items():
            agg = self.tracker.workers.setdefault(pid, WorkerStats())
            agg.cells += stats.cells
            agg.failed += stats.failed
            agg.execution_kwh += stats.execution_kwh
            agg.warm_hits = max(agg.warm_hits, stats.warm_hits)

    # -- the monitor -----------------------------------------------------------
    def _monitor(self, total: int) -> None:
        policy = self.shard_policy
        while True:
            reap: list[_ShardRuntime] = []
            with self._lock:
                if len(self._done) >= total:
                    break
                now = policy.clock()
                for shard in self._shards:
                    if shard.state in ("dead", "done"):
                        continue
                    if (shard.id, shard.epoch) in self._fenced:
                        continue   # fenced once per epoch
                    thread_dead = not shard.alive()
                    stale = (now - shard.last_beat
                             > policy.lease_timeout_s)
                    if thread_dead and (shard.queue or shard.inflight):
                        if self._fence(shard, "shard_death"):
                            reap.append(shard)
                    elif thread_dead:
                        shard.state = "done"
                        self.tracker.shard_stats(shard.id).state = "done"
                    elif stale and (shard.inflight
                                    or shard.state == "wedged"):
                        self._fence(shard, "lease_expire")
                live = any(s.alive() for s in self._shards)
                if not live:
                    outstanding = [i for i in range(total)
                                   if i not in self._done]
                    if self._parked or outstanding:
                        self._spawn_recovery_shard(outstanding)
            for shard in reap:
                shard.executor.close()
            policy.sleep(policy.poll_interval_s)

    def _spawn_recovery_shard(self, outstanding: list[int]) -> None:
        """Every shard is gone but work remains: bring up a fresh
        shard group through the same reassignment ledger (lock held)."""
        parked, self._parked = self._parked, []
        claims = [claim for claim in parked
                  if claim[0] not in self._done]
        claimed = {index for index, *_ in claims}
        for index in outstanding:
            if index not in claimed:
                # a cell orphaned without a fence record (its shard
                # died before ever leasing it): recover from shard -1
                claims.append((index, -1, 0, "recover"))
                claimed.add(index)
        if not claims:
            return
        shard = self._make_shard(len(self._shards))
        self._shards.append(shard)
        for index, from_shard, from_epoch, reason in claims:
            shard.queue.append(index)
            self._record_assign(index, from_shard, from_epoch,
                                shard.id, reason)
        self.metrics.counter("shard.recovery_shards").inc()
        self._start(shard)

    def _start(self, shard: _ShardRuntime) -> None:
        shard.thread = threading.Thread(
            target=self._shard_loop, args=(shard,),
            name=f"repro-shard-{shard.id}", daemon=True,
        )
        shard.last_beat = self.shard_policy.clock()
        shard.thread.start()

    # -- orchestration ---------------------------------------------------------
    def run(self, cells) -> ResultsStore:
        self._cells = list(cells)
        total = len(self._cells)
        self.tracker = ProgressTracker(
            total, callback=self.progress_callback,
        )
        self._keys = [
            spec.cache_key(load_dataset(spec.dataset).fingerprint())
            for spec in self._cells
        ]
        self._coord = CampaignJournal(
            coordinator_path(self.journal_path)
        )
        try:
            return self._run_locked(total)
        finally:
            self.close()

    def _run_locked(self, total: int) -> ResultsStore:
        prior = self._prior_state()
        pending: list[int] = []
        for index, key in enumerate(self._keys):
            if key in prior.completed:
                self._done[index] = prior.completed[key]
                self.metrics.counter("cells.resumed").inc()
                self.tracker.update(
                    record=self._done[index], kind="resumed",
                    label=self._cells[index].label(),
                )
            elif key in prior.skipped:
                self._done[index] = None
                self.metrics.counter("cells.skipped").inc()
                self.tracker.update(
                    kind="skipped", label=self._cells[index].label(),
                )
            else:
                pending.append(index)

        plan_dict = (self.fault_plan.to_dict()
                     if self.fault_plan is not None else None)
        self._coord.open_campaign(total, fault_plan=plan_dict)
        pending = self._admit(pending)

        assignment = partition_cells(pending, self.n_shards)
        self._shards = [self._make_shard(k)
                        for k in range(self.n_shards)]
        for shard, indices in zip(self._shards, assignment):
            shard.queue.extend(indices)
        self._coord.record_event({
            "type": "shards", "n_shards": self.n_shards,
            "workers": self.workers,
            "assignment": {str(s.id): list(s.queue)
                           for s in self._shards},
        })
        for shard in self._shards:
            self._start(shard)

        self._monitor(total)
        for shard in self._shards:
            if shard.thread is not None:
                shard.thread.join(
                    timeout=self.shard_policy.patience() + 5.0,
                )
        for shard in self._shards:
            shard.executor.close()   # idempotent; also closes segments

        merged = self._merge_and_repair()
        self.merged = merged
        if self.trace:
            self._coord.record_metrics(self.metrics_snapshot())
        self._coord.close()
        merged.write(self.journal_path)
        self.last_results = [self._done.get(i) for i in range(total)]
        return ResultsStore(
            [r for r in self.last_results if r is not None]
        )

    def _prior_state(self) -> JournalState:
        if not self.resume:
            return JournalState()
        stem = self.journal_path.stem
        suffix = self.journal_path.suffix or ".jsonl"
        existing = sorted(self.journal_path.parent.glob(
            f"{stem}.shard-*{suffix}"
        ))
        coord = coordinator_path(self.journal_path)
        if coord.exists():
            existing.append(coord)
        if not existing and self.journal_path.exists():
            # only a merged journal survives (segments were pruned):
            # it replays like any other segment
            existing = [self.journal_path]
        if not existing:
            return JournalState()
        return merge_journals(existing).state

    def _merge_and_repair(self) -> MergedJournal:
        paths = [
            self._coord.path,
            *(s.journal.path for s in self._shards),
        ]
        merged = merge_journals(paths)
        repaired = 0
        for index, record in sorted(self._done.items()):
            key = self._keys[index]
            if key in merged.state.completed \
                    or key in merged.state.skipped:
                continue
            # a committed cell whose segment line was torn: re-append
            # from the in-memory record so the merged journal is whole
            if record is not None:
                self._coord.record_cell(index, key, record, attempt=0)
            else:
                self._coord.record_skip(
                    index, key, "repaired: torn segment line",
                )
            repaired += 1
        if repaired:
            self.metrics.counter("shard.repaired_commits").inc(repaired)
            merged = merge_journals(paths)
        self.metrics.counter("shard.fenced_commits").inc(
            merged.fenced_commits,
        )
        self.metrics.counter("shard.dedup_commits").inc(
            merged.dedup_commits,
        )
        return merged

    # -- teardown / views ------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            shard.executor.close()
        if self._coord is not None:
            self._coord.close()
        if self._tmp_dir is not None:
            shutil.rmtree(self._tmp_dir, ignore_errors=True)

    def metrics_snapshot(self) -> dict:
        """Campaign-wide metrics: coordinator + every shard executor's
        registry (+ the shared cache registry exactly once)."""
        snapshot = self.metrics.snapshot()
        for shard in self._shards:
            snapshot = merge_snapshots(
                snapshot, shard.executor.metrics.snapshot(),
            )
        if self.cache is not None:
            snapshot = merge_snapshots(
                snapshot, self.cache.stats.registry.snapshot(),
            )
        return snapshot

    @property
    def cell_spans(self) -> list[dict]:
        spans: list[dict] = []
        for shard in self._shards:
            spans.extend(shard.executor.cell_spans)
        spans.sort(key=_event_sort_key)
        return spans

    @property
    def fault_counts(self) -> dict[str, int]:
        """Fired injections per seam across the coordinator's shard
        seams and every segment's tear injector."""
        counts: dict[str, int] = {}
        injectors = [self._injector] + [
            s.segment_injector for s in self._shards
        ]
        for injector in injectors:
            if injector is None:
                continue
            for seam, _ in injector.event_keys():
                counts[seam] = counts.get(seam, 0) + 1
        for shard in self._shards:
            for seam, count in shard.executor.fault_counts.items():
                counts[seam] = counts.get(seam, 0) + count
        return counts

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
