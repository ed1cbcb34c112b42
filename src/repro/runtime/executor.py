"""The campaign executor: cache -> journal -> (pool of) workers.

``workers=1`` runs cells in-process, in order.  ``workers>1`` streams
cells through one persistent
:class:`~concurrent.futures.ProcessPoolExecutor`; because every cell is
a pure function of its :class:`CellSpec` (budget accounting runs on the
simulated clock), the pooled results are identical to the serial ones —
results are keyed by cell *index*, never by arrival order.

The pooled scheduler is completion-order streaming:

- submission is bounded (a small multiple of the worker count) so a
  multi-thousand-cell campaign never holds thousands of live futures;
- every finished cell is committed to cache + journal the moment it
  completes, regardless of where it sits in the grid — a slow first
  cell cannot widen the crash-loss window of cells that already ran;
- the pool persists across retries, so per-worker warm state
  (the ``load_dataset`` lru_cache) survives and is reported back as
  ``warm_hits`` in each outcome dict;
- per-cell deadlines are measured from a *worker-reported start
  timestamp* (posted on a multiprocessing queue the instant the cell
  begins executing), so queue wait never counts toward
  ``cell_timeout_s``;
- a timed-out cell is abandoned (its future is left running and its
  result discarded) and retried/quarantined without touching sibling
  in-flight futures; the pool is replaced only when it actually breaks
  (:class:`BrokenProcessPool`) or — as a last-resort liveness fallback —
  when every worker is wedged on an abandoned cell.

Failure handling, outermost to innermost:

- a budget below the system's minimum
  (:class:`~repro.exceptions.BudgetBelowMinimumError`) *skips* the cell
  (the cell does not exist in the grid, mirroring the paper's Figure 3);
- :func:`run_single` already degrades unsupported tasks to the
  class-prior baseline record;
- anything escaping that (worker crash, timeout, pickling trouble) is
  retried ``max_retries`` times, the cell rejoining the back of the
  queue at once each time, then *quarantined*: the cell is recorded
  as a failed prior-baseline record so one pathological cell cannot
  sink a multi-hour campaign.

Serial and pooled runs settle every finished attempt through one
method, :meth:`CampaignExecutor._settle`.

Per-cell timeouts are enforced in pooled mode only — a single-process
run has no supervisor to interrupt it.

Every handled failure travels as a structured
:class:`repro.faults.FailureRecord` (exception type, seam, attempt,
bounded message) through ``_note_failure``/``_quarantine`` and into the
journal.  A seeded :class:`repro.faults.FaultPlan` on the executor arms
deterministic chaos at the named seams (worker death, slow cells,
cell exceptions, RAPL loss, cache corruption, torn journal lines); the
plan's decisions are pure functions of (seed, seam, key), so the parent
accounts for every injection a worker will fire — including workers
that die before reporting — and the same seed replays the same fault
sequence.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue as queue_mod
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, replace
from typing import Callable

from repro.datasets.loaders import dataset_cache_hits, load_dataset
from repro.evalstore.capture import install_capture, uninstall_capture
from repro.exceptions import BudgetBelowMinimumError, RaplUnavailableError
from repro.experiments.results import ResultsStore, RunRecord
from repro.experiments.runner import baseline_record
from repro.faults import (
    SEAM_CELL_ERROR,
    SEAM_RAPL_READ,
    SEAM_SLOW_CELL,
    SEAM_WORKER_DEATH,
    FailureRecord,
    FaultInjector,
    FaultPlan,
)
from repro.observability import (
    MetricsRegistry,
    Tracer,
    get_registry,
    install_tracer,
    merge_snapshots,
    uninstall_tracer,
)
from repro.observability.tracing import CLOCK_WALL, make_span
from repro.runtime.cells import CellSpec
from repro.runtime.progress import ProgressTracker

#: how many futures may be in flight per *available* worker; 2 keeps a
#: submission queued behind every busy worker without ballooning memory
_INFLIGHT_PER_WORKER = 2


@dataclass
class RetryPolicy:
    """Bounded retries, then quarantine.

    A failed cell rejoins the back of the queue at once, ``max_retries``
    times, before it is quarantined.  ``clock`` is the monotonic source
    the pooled scheduler checks per-cell deadlines against; it defaults
    to the real ``time.monotonic`` (referenced, not called, so the
    executor stays wall-clock-free) and tests inject fakes to make
    timeout paths instant.

    ``poll_interval_s`` bounds how long the pooled scheduler blocks
    waiting for a completion when deadlines are armed — it is the
    resolution of timeout enforcement, not a busy-wait.
    """

    max_retries: int = 1
    cell_timeout_s: float | None = None
    clock: Callable[[], float] = time.monotonic
    poll_interval_s: float = 0.05


@dataclass
class _Pending:
    index: int
    spec: CellSpec
    key: str
    attempts: int = 0
    #: parent-side submission stamp (policy clock), for the queue-wait
    #: span/histogram; None while the cell sits in ``todo``
    submitted_at: float | None = None


#: worker-side start-event channel, installed by the pool initializer
_START_CHANNEL = None


def _init_worker(channel) -> None:
    global _START_CHANNEL
    # pool initializer: each worker binds its own copy of the parent's
    # start-event queue; the parent never reads this module global
    _START_CHANNEL = channel  # repro-lint: disable=GRN102  # per-worker channel


def _fault_key(spec: CellSpec, attempt: int) -> str:
    """The per-submission fault-decision key.

    Keyed by cell label *and* attempt so a retry of a faulted cell rolls
    fresh decisions — and so the parent can evaluate the same plan for
    the same submission and account for worker-side faults it never
    hears back about (a worker that ``os._exit``-ed mid-cell).
    """
    return f"{spec.label()}#a{attempt}"


def planned_worker_faults(plan: FaultPlan, key: str) -> list[tuple[str, str]]:
    """The worker-side faults the submission ``key`` fires under ``plan``.

    The worker acts on exactly this list in :func:`_execute_cell_inner`:
    death short-circuits the rest, a stall may precede an injected cell
    error, and an injected cell error prevents the RAPL probe.  A pure
    function of ``(plan, key)``, so the parent can account for faults a
    worker never reports and a journal-header plan replays the ledger.
    """
    if plan.decide(SEAM_WORKER_DEATH, key):
        return [(SEAM_WORKER_DEATH, key)]
    events = []
    if plan.decide(SEAM_SLOW_CELL, key):
        events.append((SEAM_SLOW_CELL, key))
    if plan.decide(SEAM_CELL_ERROR, key):
        events.append((SEAM_CELL_ERROR, key))
    elif plan.decide(SEAM_RAPL_READ, key):
        events.append((SEAM_RAPL_READ, key))
    return events


def _error_outcome(failure: FailureRecord) -> dict:
    return {
        "status": "error",
        "failure": failure.as_dict(),
        "pid": os.getpid(),
        "warm_hits": dataset_cache_hits(),
    }


def _execute_cell(spec: CellSpec, token: int | None = None,
                  fault_plan: dict | None = None,
                  attempt: int = 0, trace_mode: str | None = None,
                  capture: bool = False) -> dict:
    """Worker entry point (module-level so it pickles).

    Installs a :class:`Tracer` in the calling thread's slot when
    ``trace_mode`` is set (``"ticks"`` for the deterministic counter,
    ``"wall"`` for real durations via :func:`worker_now`), runs the
    cell, then ships the drained span trees back as ``outcome["spans"]``
    and the worker's metrics registry as ``outcome["metrics"]`` — dicts
    pickle through the pool, so the parent merges both without shared
    state.  Metrics are drained even when tracing is off: the registry
    counters (trial/cache instrumentation) are always-on telemetry.

    ``capture=True`` installs a per-thread
    :class:`~repro.evalstore.capture.TrialCapture` for the duration of
    the cell, and ships the drained trial payloads back as
    ``outcome["trials"]`` on success — the parent ingests them into the
    campaign's :class:`~repro.evalstore.store.EvalStore` only when the
    attempt actually commits, so retried/abandoned attempts never leak
    rows into the store.
    """
    tracer = None
    if trace_mode is not None:
        if trace_mode == CLOCK_WALL:
            from repro.runtime.progress import worker_now

            tracer = install_tracer(Tracer(clock=worker_now))
        else:
            tracer = install_tracer(Tracer())
    trial_capture = install_capture() if capture else None
    try:
        outcome = _execute_cell_inner(spec, token, fault_plan, attempt)
    finally:
        if trial_capture is not None:
            uninstall_capture()
        if tracer is not None:
            uninstall_tracer()
    if tracer is not None:
        outcome["spans"] = tracer.drain()
    if trial_capture is not None and outcome.get("status") == "ok":
        outcome["trials"] = trial_capture.drain()
    worker_metrics = get_registry().drain()
    if worker_metrics:
        outcome["metrics"] = worker_metrics
    return outcome


def _execute_cell_inner(spec: CellSpec, token: int | None,
                        fault_plan: dict | None, attempt: int) -> dict:
    """The cell body behind the tracing/metrics envelope.

    Never raises: outcomes are tagged dicts so the parent can separate
    'the cell is a skip' / 'the cell errored' from pool-level crashes.
    ``token`` identifies this submission; the worker echoes it on the
    start channel (with a :func:`worker_now` timestamp) so the parent
    can start the cell's deadline only once it is actually executing.

    ``fault_plan`` (a serialised :class:`FaultPlan`) arms the worker-side
    chaos seams for this submission: worker death (``os._exit`` mid-cell,
    pooled mode only — in serial mode it degrades to an injected error),
    a wall-clock stall designed to trip ``cell_timeout_s``, an exception
    in place of the cell function, and a failing RAPL read inside the
    energy meter.  Error outcomes carry a structured ``failure`` payload;
    the parent accounts the fired faults itself through
    :func:`planned_worker_faults`.
    """
    from repro.experiments.runner import run_single
    from repro.runtime.progress import worker_now

    if _START_CHANNEL is not None and token is not None:
        try:
            _START_CHANNEL.put((os.getpid(), token, worker_now()))
        except (OSError, ValueError):
            pass   # telemetry channel loss must never fail the cell
    energy_meter = None
    key = _fault_key(spec, attempt)
    if fault_plan is not None:
        plan = FaultPlan.from_dict(fault_plan)
        fired = {seam for seam, _ in planned_worker_faults(plan, key)}
        if SEAM_WORKER_DEATH in fired:
            if token is not None:
                os._exit(86)   # hard worker death: no cleanup, no result
            failure = FailureRecord(
                "InjectedFault", SEAM_WORKER_DEATH, attempt,
                f"injected worker death for {key} (serial mode)",
                injected=True,
            )
            return _error_outcome(failure)
        if SEAM_SLOW_CELL in fired:
            # chaos stalls the worker past ``cell_timeout_s``: the one
            # sanctioned fault stall, run only when a plan arms it
            time.sleep(plan.seams[SEAM_SLOW_CELL].delay_s)  # repro-lint: disable=GRN004
        if SEAM_CELL_ERROR in fired:
            failure = FailureRecord(
                "InjectedFault", SEAM_CELL_ERROR, attempt,
                f"injected cell error for {key}", injected=True,
            )
            return _error_outcome(failure)
        if plan.seams.get(SEAM_RAPL_READ) is not None:
            from repro.energy.tracker import EnergyTracker

            def lose_rapl():
                raise RaplUnavailableError(
                    f"injected RAPL counter loss for {key}"
                )

            # armed whenever the plan names the seam, fired or not: the
            # meter's energy span is part of the cell's traced tree
            energy_meter = EnergyTracker(
                fault_hook=lose_rapl if SEAM_RAPL_READ in fired else None
            )
    try:
        dataset = load_dataset(spec.dataset)
        record = run_single(
            spec.system, dataset, spec.budget_s,
            seed=spec.seed, time_scale=spec.time_scale,
            n_cores=spec.n_cores, use_gpu=spec.use_gpu,
            system_kwargs=spec.system_kwargs,
            energy_meter=energy_meter,
        )
    except BudgetBelowMinimumError as exc:
        return {"status": "skip", "note": str(exc), "pid": os.getpid(),
                "warm_hits": dataset_cache_hits()}
    except Exception as exc:
        return _error_outcome(
            FailureRecord.from_exception(exc, seam="cell", attempt=attempt)
        )
    return {"status": "ok", "record": asdict(record),
            "pid": os.getpid(), "warm_hits": dataset_cache_hits()}


class CampaignExecutor:
    """Runs a list of cells through cache, journal and workers."""

    def __init__(self, *, workers: int = 1, cache=None, journal=None,
                 resume: bool = False, policy: RetryPolicy | None = None,
                 progress_callback=None,
                 fault_plan: FaultPlan | None = None,
                 trace: bool = False, trace_clock: str = "ticks",
                 persistent: bool = False, eval_store=None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if trace_clock not in ("ticks", "wall"):
            raise ValueError("trace_clock must be 'ticks' or 'wall'")
        self.workers = workers
        self.cache = cache
        self.journal = journal
        #: optional :class:`~repro.evalstore.store.EvalStore`; when set,
        #: workers capture per-trial OOF payloads and the parent writes
        #: them through on commit (first-write-wins, so replays and
        #: shard overlap dedup instead of duplicating)
        self.eval_store = eval_store
        self._capture = eval_store is not None
        self.resume = resume
        self.policy = policy or RetryPolicy()
        self.progress_callback = progress_callback
        #: ``persistent=True`` is shard mode: the pool and the journal
        #: outlive each ``run``/``run_indexed`` call (warm workers serve
        #: many small batches) and the campaign header is the owner's
        #: job — call :meth:`close` when the shard is done
        self.persistent = persistent
        self._pool: ProcessPoolExecutor | None = None
        self._channel = None
        #: futures whose cell timed out; kept across batches in
        #: persistent mode because their workers stay wedged
        self._abandoned: set = set()
        #: submission tokens, unique across batches so a stale start
        #: report from an abandoned worker can never alias a new cell
        self._tokens = itertools.count()
        self.tracker: ProgressTracker | None = None
        self.last_results: list[RunRecord | None] = []
        #: campaign-wide metrics registry; worker snapshots merge here
        self.metrics = MetricsRegistry()
        #: tracing: None = off; otherwise the worker clock domain
        self.trace = trace
        self._trace_mode = trace_clock if trace else None
        #: one entry per traced cell attempt, mirroring the journal's
        #: ``spans`` records for in-process consumers (telemetry, tests)
        self.cell_spans: list[dict] = []
        #: seeded chaos plan; None = no injection anywhere
        self.fault_plan = fault_plan
        self._plan_dict = fault_plan.to_dict() if fault_plan else None
        #: parent-side ledger of planned worker-seam injections — the
        #: plan's decisions are pure, so the parent knows every fault a
        #: worker will fire even when the worker dies before reporting
        self.fault_events: list[tuple[str, str]] = []
        self._planned: set[str] = set()

    @property
    def pool_rebuilds(self) -> int:
        """Pool replacements after the initial pool (0 on a healthy
        campaign: timeouts alone never rebuild the pool).  Thin view
        over the ``executor.pool_rebuilds`` counter."""
        return int(self.metrics.counter("executor.pool_rebuilds").value)

    # -- observability bookkeeping ---------------------------------------------
    def _stamp(self) -> float | None:
        """A lifecycle timestamp on the policy clock, or None when
        tracing is off (the hooks then cost one None check each)."""
        return self.policy.clock() if self.trace else None

    def _absorb(self, outcome: dict) -> list[dict] | None:
        """Merge a worker outcome's metrics snapshot into the campaign
        registry and return its span trees (None when untraced)."""
        snapshot = outcome.get("metrics")
        if snapshot:
            self.metrics.merge(snapshot)
        return outcome.get("spans")

    def _emit_spans(self, item: _Pending, worker_spans, status: str, *,
                    submitted: float | None = None,
                    started: float | None = None,
                    finished: float | None = None) -> None:
        """Journal one submission attempt's lifecycle span tree.

        The parent-side root (``cell_lifecycle``) and its scheduling
        children run on the policy clock (``wall`` domain); the worker's
        own span trees — whatever clock they were taken on — nest under
        the ``execute`` child.  Every terminal path emits exactly one
        tree per attempt, so a traced journal accounts for timeouts and
        pool deaths as well as clean completions.
        """
        if self._trace_mode is None:
            return
        stamps = [s for s in (submitted, started, finished)
                  if s is not None]
        t0 = min(stamps) if stamps else 0.0
        t1 = max(stamps) if stamps else 0.0
        root = make_span("cell_lifecycle", t0, CLOCK_WALL, {
            "label": item.spec.label(), "index": item.index,
            "attempt": item.attempts, "status": status,
        })
        root["t1"] = t1
        if submitted is not None:
            submit = make_span("submit", submitted, CLOCK_WALL, {})
            root["children"].append(submit)
        if submitted is not None and started is not None:
            wait_span = make_span("queue_wait", submitted, CLOCK_WALL, {})
            wait_span["t1"] = max(started, submitted)
            root["children"].append(wait_span)
        # clamp: an injected fake policy clock can report a start stamp
        # "before" the submit stamp; sibling order must stay monotone
        if started is None:
            exec_t0 = t0
        elif submitted is None:
            exec_t0 = started
        else:
            exec_t0 = max(started, submitted)
        execute = make_span("execute", exec_t0, CLOCK_WALL, {})
        execute["t1"] = t1
        execute["children"] = list(worker_spans or [])
        root["children"].append(execute)
        commit = make_span("commit", t1, CLOCK_WALL, {})
        root["children"].append(commit)
        event = {"index": item.index, "key": item.key,
                 "attempt": item.attempts, "spans": [root]}
        self.cell_spans.append(event)
        if self.journal is not None:
            self.journal.record_spans(
                item.index, item.key, item.attempts, [root],
            )

    def metrics_snapshot(self) -> dict:
        """The campaign-wide metrics view: the executor's registry
        merged with the cache's (cache stats live on their own registry
        so ``ResultCache`` stays usable standalone)."""
        snapshot = self.metrics.snapshot()
        if self.cache is not None:
            snapshot = merge_snapshots(
                snapshot, self.cache.stats.registry.snapshot(),
            )
        return snapshot

    # -- fault bookkeeping -----------------------------------------------------
    def _arm_faults(self) -> None:
        """Arm the parent-side seams (cache payloads, journal lines)."""
        if self.fault_plan is None:
            return
        injector = FaultInjector(self.fault_plan)
        self._parent_injector = injector
        if self.cache is not None and self.cache.fault_injector is None:
            self.cache.fault_injector = injector
        if self.journal is not None \
                and self.journal.fault_injector is None:
            self.journal.fault_injector = injector
        if self.eval_store is not None \
                and self.eval_store.fault_injector is None:
            self.eval_store.fault_injector = injector

    def _plan_worker_faults(self, item: _Pending) -> None:
        """Account the worker-side faults this submission will fire,
        even for a worker that dies before it can report back."""
        if self.fault_plan is None:
            return
        key = _fault_key(item.spec, item.attempts)
        if key in self._planned:
            return   # a cancelled/requeued submission re-runs the same key
        self._planned.add(key)
        self.fault_events.extend(planned_worker_faults(self.fault_plan, key))

    @property
    def fault_counts(self) -> dict[str, int]:
        """Planned/fired injections per seam (parent + cache/journal)."""
        counts: dict[str, int] = {}
        events = list(self.fault_events)
        parent = getattr(self, "_parent_injector", None)
        if parent is not None:
            events.extend(parent.event_keys())
        for seam, _ in events:
            counts[seam] = counts.get(seam, 0) + 1
        return counts

    # -- orchestration ---------------------------------------------------------
    def run(self, cells) -> ResultsStore:
        results = self._run_pairs(list(enumerate(cells)))
        return ResultsStore(
            [r for r in self.last_results if r is not None]
        )

    def run_indexed(self, pairs) -> dict[int, RunRecord | None]:
        """Run ``(global_index, spec)`` pairs and return records keyed
        by those indices (``None`` = skipped cell).

        This is the shard-facing API: a shard executes an arbitrary
        slice of a campaign grid (plus anything it stole), and commits
        must carry the *global* cell index so its journal segment merges
        cleanly with every other shard's.
        """
        return self._run_pairs([(int(i), spec) for i, spec in pairs])

    def _run_pairs(self, pairs) -> dict[int, RunRecord | None]:
        results: dict[int, RunRecord | None] = {}
        self.tracker = ProgressTracker(
            len(pairs), callback=self.progress_callback
        )
        self._arm_faults()
        prior = self._load_prior_state()
        pending: list[_Pending] = []
        for index, spec in pairs:
            fingerprint = load_dataset(spec.dataset).fingerprint()
            key = spec.cache_key(fingerprint)
            if key in prior.completed:
                results[index] = prior.completed[key]
                self.metrics.counter("cells.resumed").inc()
                self.tracker.update(
                    record=results[index], kind="resumed",
                    label=spec.label(),
                )
                continue
            if key in prior.skipped:
                self.metrics.counter("cells.skipped").inc()
                self.tracker.update(kind="skipped", label=spec.label())
                continue
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                results[index] = cached
                self.metrics.counter("cells.cached").inc()
                self._journal_cell(index, key, cached)
                self.tracker.update(
                    record=cached, kind="cached", label=spec.label(),
                )
                continue
            pending.append(_Pending(index, spec, key))
        if pending:
            if self.workers == 1:
                self._run_serial(pending, results)
            else:
                self._run_pooled(pending, results)
        if self.journal is not None and not self.persistent:
            if self.trace:
                self.journal.record_metrics(self.metrics_snapshot())
            self.journal.close()
        #: positional view kept for execute_cells (None = skipped cell)
        self.last_results = [results.get(i) for i, _ in pairs]
        return {i: results.get(i) for i, _ in pairs}

    def _load_prior_state(self):
        from repro.runtime.journal import CampaignJournal, JournalState

        if self.resume and self.journal is not None:
            state = CampaignJournal.load(self.journal.path)
        else:
            state = JournalState()
        if self.journal is not None and not self.persistent:
            # persistent (shard) mode: the coordinator owns the segment
            # header; batches must not re-open the campaign
            self.journal.open_campaign(
                self.tracker.total, fault_plan=self._plan_dict,
            )
        return state

    # -- pool lifecycle --------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            if self._channel is None:
                self._channel = multiprocessing.Queue()
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker, initargs=(self._channel,),
            )
        return self._pool

    def close(self) -> None:
        """Release the persistent pool, start channel and journal.

        Idempotent; a non-persistent ``run`` already tears everything
        down itself, so this only matters for shard-owned executors.
        """
        if self._pool is not None:
            self._shutdown_pool(self._pool)
            self._pool = None
        if self._channel is not None:
            self._channel.close()
            self._channel.join_thread()
            self._channel = None
        self._abandoned.clear()
        if self.journal is not None:
            self.journal.close()

    # -- bookkeeping shared by both paths --------------------------------------
    def _journal_cell(self, index: int, key: str, record: RunRecord,
                      attempt: int = 0) -> None:
        if self.journal is not None:
            # segments stamp the commit attempt (merge resolves fenced
            # duplicates by it); serial journal bytes stay unchanged
            stamp = attempt if self.journal.shard is not None else None
            self.journal.record_cell(index, key, record, attempt=stamp)

    def _commit(self, item: _Pending, record: RunRecord,
                results, worker: int | None,
                warm_hits: int | None = None,
                trials: list[dict] | None = None) -> None:
        if self.cache is not None:
            self.cache.put(item.key, record)
        if self.eval_store is not None and trials:
            # only the committed attempt's trials persist: the store
            # stays a pure function of the grid, not of retry history
            self.eval_store.ingest(item.spec, item.key, trials)
        self._journal_cell(item.index, item.key, record, item.attempts)
        results[item.index] = record
        self.metrics.counter("cells.executed").inc()
        if warm_hits is not None:
            # high-water mark of per-worker dataset-cache warmth
            self.metrics.gauge("executor.warm_hits").set(warm_hits)
        self.tracker.update(
            record=record, kind="executed", worker=worker,
            label=item.spec.label(), warm_hits=warm_hits,
        )

    def _commit_skip(self, item: _Pending, note: str) -> None:
        if self.journal is not None:
            self.journal.record_skip(item.index, item.key, note)
        self.metrics.counter("cells.skipped").inc()
        self.tracker.update(kind="skipped", label=item.spec.label())

    def _note_failure(self, item: _Pending,
                      failure: FailureRecord) -> FailureRecord:
        """Count and journal one failed attempt; returns ``failure``
        stamped with the attempt number."""
        self.metrics.counter("cells.failed_attempts").inc()
        item.attempts += 1
        record = replace(failure, attempt=item.attempts)
        if self.journal is not None:
            self.journal.record_failure(
                item.index, item.key, item.attempts, record,
            )
        return record

    def _exhausted(self, item: _Pending) -> bool:
        return item.attempts > self.policy.max_retries

    def _quarantine(self, item: _Pending, results,
                    failure: FailureRecord,
                    worker: int | None = None) -> None:
        """Commit the prior-baseline record for a cell out of retries;
        ``failure`` is already stamped by :meth:`_note_failure`."""
        self.metrics.counter("cells.quarantined").inc()
        spec = item.spec
        baseline = baseline_record(
            spec.system, load_dataset(spec.dataset), spec.budget_s,
            seed=spec.seed, n_cores=spec.n_cores, use_gpu=spec.use_gpu,
            note=failure.to_note(item.attempts),
        )
        self._commit(item, baseline, results, worker)

    def _settle(self, item: _Pending, outcome: dict, results, todo,
                started: float | None = None) -> None:
        """Act on one finished attempt: commit an ``ok`` record, journal
        a ``skip``, or requeue/quarantine an ``error`` — the one place
        an outcome's status is read, for serial and pooled runs alike.

        ``started`` is the worker-reported start stamp (pooled only: a
        serial cell starts when it is submitted, so its span tree gets
        no ``queue_wait`` child).
        """
        spans = self._absorb(outcome)
        status = outcome["status"]
        self._emit_spans(
            item, spans, status,
            submitted=item.submitted_at, started=started,
            finished=self._stamp(),
        )
        if status == "ok":
            self._commit(
                item, RunRecord(**outcome["record"]), results,
                outcome.get("pid"), outcome.get("warm_hits"),
                trials=outcome.get("trials"),
            )
        elif status == "skip":
            self._commit_skip(item, outcome["note"])
        else:
            self._requeue_or_quarantine(
                item, results, todo,
                FailureRecord.from_dict(outcome["failure"]),
                outcome.get("pid"),
            )

    def _requeue_or_quarantine(self, item, results, todo, failure,
                               worker=None) -> None:
        """Journal a failed attempt, then send the cell to the back of
        ``todo`` for another try or, out of retries, quarantine it."""
        record = self._note_failure(item, failure)
        if self._exhausted(item):
            self._quarantine(item, results, record, worker)
        else:
            todo.append(item)

    # -- serial path (workers=1): in-process, cell by cell --------------------
    def _run_serial(self, pending: list[_Pending], results) -> None:
        todo: deque[_Pending] = deque(pending)
        while todo:
            item = todo.popleft()
            self._plan_worker_faults(item)
            item.submitted_at = self._stamp()
            outcome = _execute_cell(
                item.spec, None, self._plan_dict, item.attempts,
                self._trace_mode, self._capture,
            )
            self._settle(item, outcome, results, todo)

    # -- pooled path (workers>1): completion-order streaming ------------------
    def _run_pooled(self, pending: list[_Pending], results) -> None:
        """One persistent pool, harvested in completion order.

        State, per in-flight submission: a unique ``token`` (so start
        events and retries of the same cell never alias), the worker's
        reported start timestamp (absent while the cell is still queued),
        and the :class:`_Pending` it belongs to.  ``abandoned`` holds
        futures whose cell timed out — they keep running (a stuck worker
        cannot be interrupted without killing its siblings) but their
        eventual results are discarded and they no longer count toward
        pool capacity.
        """
        todo: deque[_Pending] = deque(pending)
        tokens = self._tokens
        pool = self._ensure_pool()
        channel = self._channel
        inflight: dict = {}   # future -> (token, item)
        starts: dict = {}     # token -> worker-reported start timestamp
        abandoned = self._abandoned
        try:
            while todo or inflight:
                abandoned -= {f for f in abandoned if f.done()}
                capacity = self.workers - len(abandoned)
                if capacity <= 0:
                    # every worker is wedged on an abandoned cell, so an
                    # unstarted future can never start.  cancel() only
                    # succeeds for pending submissions — the pool marks
                    # call-queue-buffered items RUNNING before a worker
                    # touches them — but with zero capacity a refusal
                    # that is not done() means exactly that: buffered
                    # behind a wedged worker, never to execute.
                    requeued = []
                    for future in list(inflight):
                        if future.cancel():
                            token, item = inflight.pop(future)
                            starts.pop(token, None)
                            requeued.append(item)
                    if any(f.done() for f in inflight):
                        # a wedged worker came back after all; requeue
                        # what was cancelled and harvest normally
                        requeued.sort(key=lambda it: it.index)
                        todo.extendleft(reversed(requeued))
                    else:
                        # nothing can make progress: requeue everything
                        # and replace the pool — the one case (besides
                        # a broken pool) where replacement is the only
                        # way forward
                        requeued.extend(
                            item for _, item in inflight.values()
                        )
                        inflight.clear()
                        starts.clear()
                        requeued.sort(key=lambda it: it.index)
                        todo.extendleft(reversed(requeued))
                        pool = self._replace_pool(channel)
                        abandoned.clear()
                        continue
                try:
                    self._top_up(pool, todo, inflight, tokens, capacity)
                    done = self._harvest_window(inflight, channel, starts)
                    for future in done:
                        token, item = inflight.pop(future)
                        started = starts.pop(token, None)
                        self._settle_future(future, item, results, todo,
                                            started)
                except BrokenProcessPool:
                    # the pool is dead — but futures that completed
                    # before the break still carry real results; commit
                    # them rather than re-running finished work
                    for future, (token, item) in list(inflight.items()):
                        if future.done() and not future.cancelled():
                            try:
                                self._settle_future(
                                    future, item, results, todo,
                                    starts.get(token),
                                )
                            except BrokenProcessPool:
                                pass   # _settle_future already requeued it
                        else:
                            self._settle_lost(
                                item, results, todo,
                                self._pool_death_failure(item),
                                started=starts.get(token),
                            )
                    inflight.clear()
                    starts.clear()
                    abandoned.clear()
                    pool = self._replace_pool(channel)
                    continue
                self._expire_deadlines(
                    inflight, starts, abandoned, results, todo
                )
        finally:
            if not self.persistent:
                self.close()

    def _replace_pool(self, channel) -> ProcessPoolExecutor:
        if self._pool is not None:
            self._shutdown_pool(self._pool)
        self.metrics.counter("executor.pool_rebuilds").inc()
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker, initargs=(channel,),
        )
        return self._pool

    @staticmethod
    def _shutdown_pool(pool) -> None:
        """Tear a pool down without waiting — and without leaking.

        ``shutdown(wait=False)`` alone leaves a wedged worker running
        forever; by the time a pool is discarded every cell still on
        one is abandoned, so the processes are killed outright (idle
        workers just exit) and briefly joined to reap them.
        """
        # grab the worker handles FIRST: shutdown() drops the pool's
        # _processes reference before it returns
        procs = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            try:
                proc.kill()
            except (AttributeError, OSError, ValueError):
                continue
            proc.join(timeout=1.0)

    def _top_up(self, pool, todo, inflight, tokens, capacity) -> None:
        """Bounded submission: keep a small backlog behind each free
        worker, in cell order (retries rejoin at the back of the queue)."""
        limit = _INFLIGHT_PER_WORKER * max(capacity, 0)
        while todo and len(inflight) < limit:
            item = todo.popleft()
            token = next(tokens)
            self._plan_worker_faults(item)
            item.submitted_at = self.policy.clock()
            try:
                future = pool.submit(
                    _execute_cell, item.spec, token,
                    self._plan_dict, item.attempts, self._trace_mode,
                    self._capture,
                )
            except BrokenProcessPool:
                # the pool died under us: put the cell back before the
                # rebuild, or it would silently fall out of the campaign
                todo.appendleft(item)
                raise
            inflight[future] = (token, item)

    def _harvest_window(self, inflight, channel, starts):
        """Block until at least one completion or one deadline tick."""
        if not inflight:
            return set()
        tick = (self.policy.poll_interval_s
                if self.policy.cell_timeout_s is not None else None)
        done, _ = wait(set(inflight), timeout=tick,
                       return_when=FIRST_COMPLETED)
        self._drain_starts(channel, inflight, starts)
        return done

    def _drain_starts(self, channel, inflight, starts) -> None:
        """Fold worker start reports into deadline + live telemetry."""
        labels = {token: item.spec.label()
                  for token, item in inflight.values()}
        while True:
            try:
                pid, token, stamp = channel.get_nowait()
            except queue_mod.Empty:
                return
            except (OSError, EOFError):
                return   # channel torn down mid-drain by a pool swap
            if token in labels:
                starts.setdefault(token, stamp)
                self.tracker.worker_started(pid, labels[token])

    @staticmethod
    def _pool_death_failure(item) -> FailureRecord:
        return FailureRecord(
            error_type="BrokenProcessPool", seam="pool",
            attempt=item.attempts + 1, message="worker process died",
        )

    def _settle_future(self, future, item, results, todo,
                       started: float | None = None) -> None:
        """Unwrap one completed future and settle its outcome (any
        terminal state but timeout).

        ``started`` is the worker-reported start stamp (same monotonic
        domain as the policy clock by default); together with the
        submission stamp it feeds the queue-wait histogram and the
        scheduling spans.
        """
        if started is not None and item.submitted_at is not None:
            # max() guards injected fake clocks, where the worker's real
            # monotonic stamp and the fake policy clock can disagree
            self.metrics.histogram("executor.queue_wait_seconds").observe(
                max(0.0, started - item.submitted_at)
            )
        try:
            outcome = future.result()
        except BrokenProcessPool:
            # mark this cell before the caller requeues the siblings
            self._settle_lost(item, results, todo,
                              self._pool_death_failure(item),
                              started=started)
            raise
        except Exception as exc:   # pickling trouble, pool teardown races
            self._settle_lost(
                item, results, todo,
                FailureRecord.from_exception(
                    exc, seam="submit", attempt=item.attempts + 1,
                ),
                started=started,
            )
            return
        self._settle(item, outcome, results, todo, started)

    def _settle_lost(self, item, results, todo, failure, *,
                     status: str = "pool_error",
                     started: float | None = None,
                     finished: float | None = None) -> None:
        """Settle an attempt that returned no outcome (pool death, a
        lost future, a timeout): its span tree, then requeue or
        quarantine."""
        self._emit_spans(
            item, None, status,
            submitted=item.submitted_at, started=started,
            finished=finished if finished is not None else self._stamp(),
        )
        self._requeue_or_quarantine(item, results, todo, failure)

    def _expire_deadlines(self, inflight, starts, abandoned, results,
                          todo) -> None:
        """Abandon cells whose *execution* (not queue wait) overran.

        The timed-out future keeps running — only its bookkeeping moves
        to ``abandoned`` — so sibling in-flight cells are untouched and
        the pool survives.
        """
        timeout = self.policy.cell_timeout_s
        if timeout is None:
            return
        now = self.policy.clock()
        for future in list(inflight):
            token, item = inflight[future]
            stamp = starts.get(token)
            if stamp is None or now - stamp <= timeout or future.done():
                continue
            del inflight[future]
            starts.pop(token, None)
            abandoned.add(future)
            self.metrics.counter("cells.timeouts").inc()
            self._settle_lost(
                item, results, todo,
                FailureRecord(
                    error_type="CellTimeout", seam="timeout",
                    attempt=item.attempts + 1,
                    message=(f"cell timeout: exceeded {timeout:g}s "
                             f"after start"),
                ),
                status="timeout", started=stamp, finished=now,
            )


def execute_cells(cells, *, workers: int = 1, cache=None, journal=None,
                  resume: bool = False, policy: RetryPolicy | None = None,
                  progress_callback=None,
                  fault_plan: FaultPlan | None = None,
                  trace: bool = False, trace_clock: str = "ticks",
                  ) -> list[RunRecord | None]:
    """Positional convenience: run ``cells`` and return one slot per
    cell, ``None`` where the cell was skipped.  Campaign drivers that
    need to pair records with the loop variables that produced them
    (labels, core counts, GPU modes) index into this instead of a
    flattened :class:`ResultsStore`."""
    executor = CampaignExecutor(
        workers=workers, cache=cache, journal=journal, resume=resume,
        policy=policy, progress_callback=progress_callback,
        fault_plan=fault_plan, trace=trace, trace_clock=trace_clock,
    )
    executor.run(cells)
    return executor.last_results
