"""Append-only JSONL checkpoint journal for crash-safe campaigns.

Every finished cell is appended as one JSON line; with ``durable=True``
(the default, and what the executor uses) each line is flushed and
``os.fsync``-ed before the executor moves on, so a worker or host crash
loses at most the in-flight line — resume never depends on OS buffering
luck.  ``durable=False`` trades that guarantee for fewer syncs when the
journal is only telemetry.  On resume the journal is replayed: completed
cells are folded straight into the results store and only the remainder
executes.  A torn final line (the crash artefact) is tolerated and
ignored on load.

Event types::

    {"type": "campaign", "n_cells": N, "fault_plan": {...}?}
    {"type": "cell", "index": i, "key": k, "record": {...}}
    {"type": "skip", "index": i, "key": k, "note": "..."}
    {"type": "failure", "index": i, "key": k, "attempt": n,
     "failure": {...}}
    {"type": "spans", "index": i, "key": k, "attempt": n,
     "spans": [span tree dicts]}
    {"type": "metrics", "snapshot": {...}}
    {"type": "lease", "beat": n, "done": d}          (shard segments only)

A journal opened with ``shard=<k>`` is a *shard segment*: every event it
appends is additionally stamped with ``"shard"`` and ``"epoch"`` (the
shard's current lease epoch, bumped on resurrection) so fenced-epoch
duplicates stay distinguishable.  Serial journals (``shard=None``) are
byte-for-byte what they always were.

Replay is one fold, :func:`merge_journals`, over one journal or many
segments; :meth:`CampaignJournal.load` is that fold over a single path.
Its rules hold for every reader:

- the first commit per cache key by (attempt, shard, epoch, content)
  wins, and commits under a fenced epoch lose to live ones;
- failures and spans come out in content order (event rank, index,
  key, attempt, ...), never file order;
- metrics snapshots are folded with
  :func:`~repro.observability.merge_snapshots`;
- ``n_cells`` is the largest header value and the fault plan the first
  header plan by content.

``spans`` and ``metrics`` are observability records (written only when
the executor runs with tracing enabled): span trees per executed cell
attempt and the final merged metrics snapshot.  Resume ignores both for
result replay — they are telemetry, never inputs — which is what keeps
a traced campaign's *results* bit-identical to an untraced one.

Failure events carry one structured ``failure`` payload (a
:class:`repro.faults.FailureRecord` dict: error type, seam, attempt,
bounded message).  Journals written before the taxonomy existed carry
only an ``error`` string instead; they replay fine —
:meth:`JournalState.failure_records` classifies that text on the fly.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import asdict, dataclass, field
from itertools import groupby
from operator import itemgetter
from pathlib import Path

from repro.experiments.results import MEASUREMENT_FIELDS, RunRecord
from repro.faults import SEAM_JOURNAL_TORN, FailureRecord, FaultInjector
from repro.observability import merge_snapshots
from repro.storage import write_atomic


def iter_journal_events(path) -> tuple[list[dict], int, bool]:
    """Leniently parse one JSONL journal into
    ``(events, skipped_lines, torn_tail)``.

    The tolerance contract of :func:`merge_journals` (and so of
    :meth:`CampaignJournal.load`): a torn *final* line (the
    crash/shard-death artefact) is dropped and reported as
    ``torn_tail``; a corrupt line anywhere earlier is counted in
    ``skipped_lines`` so the replay keeps going instead of truncating
    everything after the damage.
    """
    path = Path(path)
    if not path.exists():
        return [], 0, False
    lines = [line for line
             in path.read_text(encoding="utf-8").splitlines()
             if line.strip()]
    events: list[dict] = []
    skipped = 0
    for position, line in enumerate(lines):
        try:
            event = json.loads(line)
            event["type"]
        except (json.JSONDecodeError, KeyError, TypeError):
            if position == len(lines) - 1:
                return events, skipped, True   # crash mid-append
            skipped += 1
            continue
        events.append(event)
    return events, skipped, False


@dataclass
class JournalState:
    """What a replayed journal knows about an earlier (partial) run."""

    completed: dict[str, RunRecord] = field(default_factory=dict)
    skipped: set[str] = field(default_factory=set)
    failures: list[dict] = field(default_factory=list)
    n_cells: int | None = None
    #: the fault plan (as a dict) the recorded campaign ran under, if any
    fault_plan: dict | None = None
    #: corrupt lines skipped *before* the tail — anything beyond a torn
    #: final line means the file was damaged, not just cut short
    skipped_lines: int = 0
    #: replayed observability records: one ``spans`` event dict per
    #: traced cell attempt, byte-identical to what was appended, in
    #: content (index, then attempt) order
    spans: list[dict] = field(default_factory=list)
    #: every journalled ``metrics`` snapshot folded into one, if any
    metrics: dict | None = None

    def __len__(self) -> int:
        return len(self.completed)

    def failure_records(self) -> list[FailureRecord]:
        """Structured view of the replayed failure events (legacy string
        events are classified on the fly)."""
        out = []
        for event in self.failures:
            if isinstance(event.get("failure"), dict):
                out.append(FailureRecord.from_dict(event["failure"]))
            else:
                out.append(FailureRecord.from_error_text(
                    event.get("error", ""), seam="cell",
                    attempt=int(event.get("attempt", 0)),
                ))
        return out


class CampaignJournal:
    """Appender/replayer for one campaign's JSONL checkpoint file."""

    def __init__(self, path, *, durable: bool = True,
                 fault_injector: FaultInjector | None = None,
                 shard: int | None = None,
                 torn_seam: str = SEAM_JOURNAL_TORN):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.durable = durable
        #: chaos hook: when armed, an appended line may be written torn
        #: (truncated mid-JSON) to exercise the replay tolerance
        self.fault_injector = fault_injector
        #: shard id when this journal is one segment of a sharded
        #: campaign; every appended event then carries shard + epoch
        self.shard = shard
        #: the shard's current lease epoch; the coordinator bumps this
        #: on resurrection so straggler commits stay distinguishable
        self.epoch = 0
        #: which seam tears lines (segments use ``segment_torn`` so
        #: shard chaos composes with classic journal chaos)
        self.torn_seam = torn_seam
        self._fh = None

    # -- writing ---------------------------------------------------------------
    def _append(self, event: dict) -> None:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        if self.shard is not None:
            event = {**event, "shard": self.shard, "epoch": self.epoch}
        line = json.dumps(event)
        # the campaign header is exempt: it carries the fault plan that
        # makes the chaos run reproducible — tearing it would destroy
        # the provenance needed to audit the tear
        if self.fault_injector is not None \
                and event.get("type") != "campaign":
            key = (f"{event.get('type')}:"
                   f"{event.get('index', event.get('beat', '-'))}")
            line = self.fault_injector.corrupt(self.torn_seam, key, line)
        self._fh.write(line + "\n")
        self._fh.flush()
        if self.durable:
            os.fsync(self._fh.fileno())

    def open_campaign(self, n_cells: int,
                      fault_plan: dict | None = None) -> None:
        event = {"type": "campaign", "n_cells": n_cells}
        if fault_plan is not None:
            # the plan travels in the header so a journal is enough to
            # reproduce the exact injected-fault sequence
            event["fault_plan"] = fault_plan
        self._append(event)

    def record_cell(self, index: int, key: str, record: RunRecord,
                    attempt: int | None = None) -> None:
        event = {
            "type": "cell", "index": index, "key": key,
            "record": asdict(record),
        }
        if attempt is not None:
            # commit attempt stamp: merge resolves fenced duplicates
            # first-write-wins *by attempt*, not by file position
            event["attempt"] = attempt
        self._append(event)

    def record_skip(self, index: int, key: str, note: str) -> None:
        self._append({
            "type": "skip", "index": index, "key": key, "note": note,
        })

    def record_failure(self, index: int, key: str, attempt: int,
                       failure: FailureRecord) -> None:
        """Append one failed attempt's structured failure."""
        self._append({
            "type": "failure", "index": index, "key": key,
            "attempt": attempt, "failure": failure.as_dict(),
        })

    def record_spans(self, index: int, key: str, attempt: int,
                     spans: list[dict]) -> None:
        """Append one traced cell attempt's span trees."""
        self._append({
            "type": "spans", "index": index, "key": key,
            "attempt": attempt, "spans": spans,
        })

    def record_metrics(self, snapshot: dict) -> None:
        """Append the campaign's merged metrics snapshot."""
        self._append({"type": "metrics", "snapshot": snapshot})

    def record_lease(self, beat: int, done: int) -> None:
        """Append one shard heartbeat: the shard is alive, holds its
        epoch, and has committed ``done`` cells so far.  No timestamp —
        liveness is the coordinator's in-memory clock; the journalled
        beat is replayable provenance."""
        self._append({"type": "lease", "beat": beat, "done": done})

    def record_event(self, event: dict) -> None:
        """Append an arbitrary typed event (coordinator bookkeeping:
        fences, reassignments, shard roster)."""
        if "type" not in event:
            raise ValueError("journal events need a 'type'")
        self._append(event)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- replay ----------------------------------------------------------------
    @classmethod
    def load(cls, path) -> JournalState:
        """Replay a journal: :func:`merge_journals` over ``[path]``.

        A crash mid-append tears the last line — that is expected and
        silently ignored.  A corrupt line anywhere *earlier* is real
        damage; stopping the replay there would silently re-execute
        every later completed cell, so instead the bad line is skipped,
        counted on ``JournalState.skipped_lines`` and reported with a
        warning.
        """
        state = merge_journals([path]).state
        if state.skipped_lines:
            warnings.warn(
                f"journal {path} has {state.skipped_lines} corrupt "
                f"line(s) before the tail; the affected cells will "
                f"re-execute on resume",
                stacklevel=2,
            )
        return state


# -- the replay fold -----------------------------------------------------------
#: canonical event ordering in a merged journal (then per-event keys)
_EVENT_RANK = {
    "campaign": 0, "shards": 1, "fence": 2, "assign": 3,
    "cell": 4, "skip": 4, "failure": 5, "spans": 6, "lease": 7,
    "metrics": 8,
}


def _event_sort_key(event: dict):
    """Leading fields of the content-only event order; ties fall to the
    canonical JSON (see :func:`sort_events`)."""
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
    )


def _commit_rank(event: dict):
    """First-write-wins by attempt, then (shard, epoch); ties fall to the
    canonical JSON — pure content, no file positions."""
    shard = event.get("shard")
    return (
        int(event.get("attempt", 0)),
        int(shard) if isinstance(shard, int) else -1,
        int(event.get("epoch", 0)),
    )


def _content_sorted(events, lead) -> list[dict]:
    """``events`` sorted by ``lead(event)``, ties broken by canonical JSON.

    The order is that of the key ``lead(event) + (json.dumps(event,
    sort_keys=True),)``, but an event is serialised only when its
    leading fields tie with another event's: span events are large and
    rarely tie.
    """
    keyed = sorted(((lead(e), e) for e in events), key=itemgetter(0))
    ordered = []
    for _, group in groupby(keyed, key=itemgetter(0)):
        tied = [e for _, e in group]
        if len(tied) > 1:
            tied.sort(key=lambda e: json.dumps(e, sort_keys=True))
        ordered.extend(tied)
    return ordered


def sort_events(events) -> list[dict]:
    """A total, content-only order: merging is commutative because the
    final event sequence never depends on input file order."""
    return _content_sorted(events, _event_sort_key)


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
    #: inputs whose final line was torn (dropped, not damage)
    torn_tails: int = 0
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
    the :data:`~repro.experiments.results.MEASUREMENT_FIELDS` (RAPL vs
    model measurement channel — the same mask the cache dedup and chaos
    identity checks use).
    """
    completed = {}
    for key in sorted(state.completed):
        record = asdict(state.completed[key])
        if mask_energy_source:
            for name in MEASUREMENT_FIELDS:
                record.pop(name, None)
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
      fenced/dedup/torn counters are per-merge diagnostics and
      reset);
    - **idempotent**: re-merging a merged journal is a fixed point;
    - **tolerant**: a torn final line per segment is dropped and
      counted in ``torn_tails``; a corrupt middle line, or a parseable
      commit whose record payload is malformed, is counted in
      ``state.skipped_lines``.
    """
    all_events: list[dict] = []
    skipped_lines = 0
    torn_tails = 0
    for path in paths:
        events, skipped, torn = iter_journal_events(path)
        skipped_lines += skipped
        torn_tails += torn
        all_events.extend(events)

    fenced: set[tuple[int, int]] = set()
    for event in all_events:
        if event.get("type") == "fence":
            fenced.add((int(event["fenced_shard"]),
                        int(event["fenced_epoch"])))

    state = JournalState()
    state.skipped_lines = skipped_lines
    merged = MergedJournal(state=state, torn_tails=torn_tails,
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
    commits: dict[str, list[tuple[dict, RunRecord]]] = {}
    skips: dict[str, list[tuple[dict, None]]] = {}
    rest: list[dict] = []
    for event in all_events:
        kind = event.get("type")
        if kind == "cell":
            try:
                record = RunRecord(**event["record"])
                key = event["key"]
            except (KeyError, TypeError):
                state.skipped_lines += 1   # parseable line, torn payload
                continue
            commits.setdefault(key, []).append((event, record))
        elif kind == "skip":
            skips.setdefault(event["key"], []).append((event, None))
        elif kind != "campaign":
            rest.append(event)

    def resolve(candidates):
        if len(candidates) == 1:
            return candidates[0]
        pool = [c for c in candidates if not _is_fenced(c[0], fenced)] \
            or candidates
        first = _content_sorted([c[0] for c in pool], _commit_rank)[0]
        winner = next(c for c in pool if c[0] is first)
        for candidate in candidates:
            if candidate is winner:
                continue
            if _is_fenced(candidate[0], fenced):
                merged.fenced_commits += 1
            else:
                merged.dedup_commits += 1
        return winner

    winners: list[dict] = []
    for key, candidates in commits.items():
        event, record = resolve(candidates)
        state.completed[key] = record
        winners.append(event)
    for key, candidates in skips.items():
        if key in state.completed:
            # a skip racing a commit for the same key cannot happen for
            # pure cells; prefer the committed record, count the dup
            merged.dedup_commits += len(candidates)
            continue
        winners.append(resolve(candidates)[0])
        state.skipped.add(key)

    metrics_snaps = []
    for event in rest:
        kind = event.get("type")
        if kind == "metrics":
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

    ordered = sort_events(
        winners + [e for e in rest if e.get("type") != "metrics"])
    state.failures = [e for e in ordered if e.get("type") == "failure"]
    state.spans = [e for e in ordered if e.get("type") == "spans"]
    merged.events.extend(ordered)
    if state.metrics is not None:
        merged.events.append(
            {"type": "metrics", "snapshot": state.metrics}
        )
    return merged
