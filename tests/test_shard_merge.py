"""Property-based pins (hypothesis) on the deterministic journal merge.

``merge_journals`` is the heart of the sharded campaign's bit-identity
claim, so its algebra is pinned wholesale: merging is commutative over
segment order, associative over grouping, idempotent on its own output,
byte-stable across repeated runs, and tolerant of torn/corrupt lines.
"""

import json
import tempfile
from dataclasses import asdict
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentConfig, run_grid
from repro.experiments.results import RunRecord
from repro.runtime import canonical_state_bytes, merge_journals
from repro.runtime.journal import _commit_rank, _event_sort_key

MERGE_SETTINGS = settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _record(acc: float) -> dict:
    return asdict(RunRecord(
        system="CAML", dataset="credit-g", configured_seconds=10.0,
        seed=7, balanced_accuracy=acc, execution_kwh=1e-5,
        actual_seconds=0.1, inference_kwh_per_instance=1e-12,
        inference_seconds_per_instance=1e-6,
    ))


# -- a segment-set generator ---------------------------------------------------
# commits: (key, attempt, shard, epoch, segment, acc-milli)
_commits = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 3),
              st.integers(0, 2), st.integers(0, 3), st.integers(0, 999)),
    min_size=1, max_size=12,
)
#: keys 3-4 can collide with commits: a skip racing a commit resolves
#: to the committed record (pure cells make the race benign)
_skips = st.lists(
    st.tuples(st.integers(3, 7), st.integers(0, 3)), max_size=4,
)
_fences = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=3,
    unique=True,
)


@st.composite
def segment_sets(draw):
    """Synthesize 2-4 journal segments with duplicate commits, skips,
    fences and lease heartbeats spread across them."""
    n_segments = draw(st.integers(2, 4))
    events = [[{"type": "campaign", "n_cells": 8}]
              for _ in range(n_segments)]
    for key, attempt, shard, epoch, seg, acc in draw(_commits):
        events[seg % n_segments].append({
            "type": "cell", "index": key, "key": f"key-{key}",
            "record": _record(acc / 1000.0), "attempt": attempt,
            "shard": shard, "epoch": epoch,
        })
    for key, seg in draw(_skips):
        events[seg % n_segments].append({
            "type": "skip", "index": key, "key": f"key-{key}",
            "note": "budget does not exist", "shard": seg % n_segments,
            "epoch": 0,
        })
    for shard, epoch in draw(_fences):
        events[0].append({
            "type": "fence", "fenced_shard": shard,
            "fenced_epoch": epoch, "reason": "lease_expire",
        })
    for seg in range(n_segments):
        events[seg].append({
            "type": "lease", "beat": seg + 1, "done": 0,
            "shard": seg, "epoch": 0,
        })
    return events


def _write(tmp: Path, segments) -> list[Path]:
    paths = []
    for k, events in enumerate(segments):
        path = tmp / f"campaign.shard-{k}.jsonl"
        path.write_text(
            "".join(json.dumps(e) + "\n" for e in events),
            encoding="utf-8",
        )
        paths.append(path)
    return paths


class TestMergeAlgebra:
    @MERGE_SETTINGS
    @given(segments=segment_sets(), data=st.data())
    def test_commutative_over_segment_order(self, segments, data):
        with tempfile.TemporaryDirectory() as tmp:
            paths = _write(Path(tmp), segments)
            shuffled = data.draw(st.permutations(paths))
            a = merge_journals(paths)
            b = merge_journals(shuffled)
            assert a.canonical_bytes() == b.canonical_bytes()
            assert canonical_state_bytes(a.state) == \
                canonical_state_bytes(b.state)
            assert (a.fenced_commits, a.dedup_commits) == \
                (b.fenced_commits, b.dedup_commits)

    @MERGE_SETTINGS
    @given(segments=segment_sets(), split=st.integers(1, 3))
    def test_associative_over_grouping(self, segments, split):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            paths = _write(tmp, segments)
            split = min(split, len(paths) - 1)
            partial = merge_journals(paths[:split])
            partial_path = partial.write(tmp / "partial.jsonl")
            regrouped = merge_journals([partial_path, *paths[split:]])
            whole = merge_journals(paths)
            assert regrouped.canonical_bytes() == whole.canonical_bytes()

    @MERGE_SETTINGS
    @given(segments=segment_sets())
    def test_idempotent_on_own_output(self, segments):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            merged = merge_journals(_write(tmp, segments))
            again = merge_journals([merged.write(tmp / "merged.jsonl")])
            assert again.canonical_bytes() == merged.canonical_bytes()
            # duplicates were already resolved: a re-merge finds none
            assert again.fenced_commits == 0
            assert again.dedup_commits == 0

    @MERGE_SETTINGS
    @given(segments=segment_sets())
    def test_byte_stable_across_runs(self, segments):
        with tempfile.TemporaryDirectory() as tmp:
            paths = _write(Path(tmp), segments)
            assert merge_journals(paths).canonical_bytes() == \
                merge_journals(paths).canonical_bytes()

    @MERGE_SETTINGS
    @given(segments=segment_sets())
    def test_first_write_wins_by_attempt(self, segments):
        with tempfile.TemporaryDirectory() as tmp:
            merged = merge_journals(_write(Path(tmp), segments))
            commits = [e for seg in segments for e in seg
                       if e["type"] == "cell"]
            fenced = set(merged.fenced_epochs)
            for key, record in merged.state.completed.items():
                dupes = [e for e in commits if e["key"] == key]
                live = [e for e in dupes
                        if (e["shard"], e["epoch"]) not in fenced]
                pool = live or dupes
                best = min(e["attempt"] for e in pool)
                winner_accs = {e["record"]["balanced_accuracy"]
                               for e in pool if e["attempt"] == best}
                assert record.balanced_accuracy in winner_accs


class TestMergeTolerance:
    @MERGE_SETTINGS
    @given(segments=segment_sets(), data=st.data())
    def test_corrupt_middle_line_recovers_and_is_counted(
            self, segments, data):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            paths = _write(tmp, segments)
            victim = data.draw(
                st.sampled_from([p for p in paths
                                 if len(segments[paths.index(p)]) >= 3]))
            lines = victim.read_text().splitlines()
            hit = data.draw(st.integers(1, len(lines) - 2))
            lines[hit] = lines[hit][: len(lines[hit]) // 2] + '\x00{"torn":'
            victim.write_text("\n".join(lines) + "\n")

            damaged = merge_journals(paths)
            assert damaged.state.skipped_lines == 1
            # every key not on the corrupted line still resolves
            survivors = {
                e["key"] for k, seg in enumerate(segments)
                for i, e in enumerate(seg)
                if e["type"] in ("cell", "skip")
                and not (paths[k] == victim and i == hit)
            }
            resolved = (set(damaged.state.completed)
                        | damaged.state.skipped)
            assert survivors <= resolved

    @MERGE_SETTINGS
    @given(segments=segment_sets())
    def test_torn_tail_is_silently_ignored(self, segments):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            paths = _write(tmp, segments)
            reference = merge_journals(paths).canonical_bytes()
            with open(paths[0], "a", encoding="utf-8") as fh:
                fh.write('{"type": "cell", "index": 0, "rec')  # no \n
            torn = merge_journals(paths)
            assert torn.state.skipped_lines == 0
            assert torn.canonical_bytes() == reference


def _eager(lead):
    """The order key as it was written before ties were serialised
    lazily: every event dumped to canonical JSON up front."""
    return lambda e: lead(e) + (json.dumps(e, sort_keys=True),)


def test_traced_journal_fold_matches_the_eager_key(tmp_path):
    """The fold serialises an event only to break a tie in its leading
    fields; its event order and commit winners are still those of the
    eager ``(fields..., canonical JSON)`` key."""
    journal = tmp_path / "traced.jsonl"
    run_grid(ExperimentConfig(systems=("TabPFN", "CAML"),
                              datasets=("credit-g",), budgets=(10.0,),
                              n_runs=1, time_scale=0.004),
             journal_path=journal, trace=True)
    events = [json.loads(line) for line in journal.read_text().splitlines()]
    assert any(e["type"] == "spans" for e in events)
    # twins that tie every leading field: only the JSON tiebreak orders
    # them, and only it picks between the twin commits
    twins = []
    for event in events:
        if event["type"] in ("spans", "cell"):
            twin = json.loads(json.dumps(event))
            if event["type"] == "spans":
                twin["spans"] = []
            else:
                twin["record"]["balanced_accuracy"] = 0.5
            twins.append(twin)
    doubled = tmp_path / "doubled.jsonl"
    doubled.write_text("".join(json.dumps(e) + "\n"
                               for e in events + twins))

    merged = merge_journals([doubled])
    body = [e for e in merged.events
            if e["type"] not in ("campaign", "metrics")]
    assert body == sorted(body, key=_eager(_event_sort_key))
    assert sum(e["type"] == "spans" for e in body) == 2 * sum(
        e["type"] == "spans" for e in events)
    cells = [e for e in events + twins if e["type"] == "cell"]
    for key in {e["key"] for e in cells}:
        winner = min((e for e in cells if e["key"] == key),
                     key=_eager(_commit_rank))
        assert merged.state.completed[key] == RunRecord(**winner["record"])
    assert merged.dedup_commits == len(cells) // 2
