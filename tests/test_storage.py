"""The shared on-disk store contract, over all three stores.

``tests/goldens/store_tree/`` is a tiny store tree — two cell results,
three trials and one artifact — written by the code that predates the
shared storage module and committed as-is.  It pins the on-disk
format: the current code must read back the same records, the same
``EvalStore.digest()`` and the same artifact manifest, and writing the
same records into an empty root must give byte-identical files at
identical paths, so caches written by older code stay warm.

Never regenerate the tree to make a failure go away; a mismatch here
means existing stores on disk would go cold or read differently.

The tmp-file sweep runs over every store, and the first-write-wins
get/put primitive is pinned by a Hypothesis property under both the
cache's and the evaluation store's masking rule.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.evalstore import EvalStore, TrialRecord
from repro.experiments.results import RunRecord
from repro.faults import (
    SEAM_CACHE_CORRUPT,
    SEAM_STORE_CORRUPT,
    FaultInjector,
    FaultPlan,
    SeamSpec,
)
from repro.runtime import ResultCache
from repro.serving import ArtifactStore

GOLDENS = Path(__file__).parent / "goldens"
TREE = GOLDENS / "store_tree"


def _cell_key(label: str) -> str:
    return hashlib.sha256(label.encode()).hexdigest()


CELLS = {
    _cell_key("cell-a"): RunRecord(
        system="CAML", dataset="credit-g", configured_seconds=10.0,
        seed=7, balanced_accuracy=0.7123456789012345,
        execution_kwh=1.25e-5, actual_seconds=0.1,
        inference_kwh_per_instance=3.5e-12,
        inference_seconds_per_instance=1e-6,
    ),
    _cell_key("cell-b"): RunRecord(
        system="AutoGluon", dataset="kc1", configured_seconds=30.0,
        seed=2, balanced_accuracy=0.65, execution_kwh=4e-4,
        actual_seconds=22.5, inference_kwh_per_instance=1e-10,
        inference_seconds_per_instance=2e-5, n_ensemble_members=12,
        n_evaluations=9, note="overran", energy_source="estimated",
    ),
}

TRIALS = [
    TrialRecord(
        cell_key=_cell_key("cell-a"), trial_index=index,
        system="AutoSklearn1", dataset="credit-g", budget_s=30.0,
        seed=1, time_scale=0.005,
        config={"classifier": "forest", "n_estimators": 8 + index},
        config_digest=f"{index:012d}", val_score=0.6 + index / 7,
        charged_s=0.01 * (index + 1), kept=index != 1, n_train=40,
        classes=[0, 1], y_val=[0, 1, 1],
        oof=[[0.1 + index / 3, 0.9 - index / 3], [0.5, 0.5],
             [1 / 3, 2 / 3]],
    )
    for index in range(3)
]

#: a builtin-only payload, so its pickle bytes do not depend on numpy
ARTIFACT = {"label": 1, "weights": [0.25, 0.5, -1.0], "name": "golden"}
ARTIFACT_FIELDS = dict(
    system="CAML", variant="refit", dataset_fingerprint="cafe0123cafe0123",
    config_digest="0123456789abcdef", accuracy=0.875,
    inference_kwh_per_instance=2e-9, extra={"dataset": "credit-g"},
)


def write_tree(root: Path) -> None:
    """Write the golden records through the public store API."""
    cache = ResultCache(root / "cache")
    for key, record in CELLS.items():
        cache.put(key, record)
    store = EvalStore(root / "evalstore")
    for record in TRIALS:
        store.put(record)
    ArtifactStore(root / "artifacts").save(ARTIFACT, **ARTIFACT_FIELDS)


def _files(root: Path) -> dict[str, bytes]:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def _expected() -> dict:
    return json.loads((GOLDENS / "store_tree.json").read_text())


def _tree_copy(tmp_path: Path) -> Path:
    # opening a store may sweep its root: never point one at the
    # checked-in tree itself
    root = tmp_path / "tree"
    shutil.copytree(TREE, root)
    return root


class TestGoldenStoreTree:
    def test_cache_reads_the_same_records(self, tmp_path):
        cache = ResultCache(_tree_copy(tmp_path) / "cache")
        assert len(cache) == len(CELLS)
        for key, record in CELLS.items():
            assert cache.get(key) == record
        assert cache.stats.hits == len(CELLS)

    def test_evalstore_reads_the_same_records_and_digest(self, tmp_path):
        store = EvalStore(_tree_copy(tmp_path) / "evalstore")
        assert store.records() == sorted(
            TRIALS, key=lambda r: r.trial_index)
        assert store.keys() == sorted(r.key for r in TRIALS)
        assert store.digest() == _expected()["evalstore_digest"]

    def test_artifact_reads_the_same_manifest(self, tmp_path):
        store = ArtifactStore(_tree_copy(tmp_path) / "artifacts")
        manifest = _expected()["artifact_manifest"]
        assert [m.as_dict() for m in store.manifests()] == [manifest]
        loaded = store.load(manifest["artifact_id"])
        assert loaded.model == ARTIFACT
        assert loaded.manifest.as_dict() == manifest
        assert store.stats()["corrupt"] == 0

    def test_rewrite_is_byte_identical(self, tmp_path):
        write_tree(tmp_path / "fresh")
        assert _files(tmp_path / "fresh") == _files(TREE)


def _dead_pid() -> int:
    """A pid that is guaranteed not to name a live process."""
    proc = subprocess.Popen([sys.executable, "-c", ""])
    proc.wait()
    return proc.pid


#: per store: how to open it and how to write and read back one entry
STORES = {
    "cache": (
        ResultCache,
        lambda store: store.put(*next(iter(CELLS.items()))),
        lambda store: store.get(next(iter(CELLS))),
    ),
    "evalstore": (
        EvalStore,
        lambda store: store.put(TRIALS[0]),
        lambda store: store.get(TRIALS[0].key),
    ),
    "artifacts": (
        ArtifactStore,
        lambda store: store.save(ARTIFACT, **ARTIFACT_FIELDS),
        lambda store: store.load_manifest(
            _expected()["artifact_manifest"]["artifact_id"]),
    ),
}


@pytest.mark.parametrize("kind", sorted(STORES))
class TestTmpSweep:
    def test_orphaned_tmp_files_swept_on_init(self, tmp_path, kind):
        # a crash between the tmp write and os.replace strands the tmp
        # file forever (its pid never comes back)
        open_store, write, read = STORES[kind]
        first = open_store(tmp_path)
        write(first)
        entry = next(tmp_path.glob("*/*.json"))
        orphan = entry.with_suffix(f".tmp.{_dead_pid()}")
        orphan.write_text("half-written payload")
        reopened = open_store(tmp_path)
        assert not orphan.exists()
        assert read(reopened) is not None   # real entries untouched

    def test_live_owner_tmp_file_survives_init_sweep(self, tmp_path, kind):
        # a tmp file owned by a LIVE pid may be a concurrent campaign
        # mid-put; sweeping it would break that process's os.replace
        open_store, write, _ = STORES[kind]
        write(open_store(tmp_path))
        entry = next(tmp_path.glob("*/*.json"))
        live = entry.with_suffix(f".tmp.{os.getpid()}")
        live.write_text("someone else is mid-put")
        open_store(tmp_path)
        assert live.exists()

    def test_clear_removes_tmp_files(self, tmp_path, kind):
        # clear() is an explicit wipe: even live-owner tmp files go
        open_store, write, _ = STORES[kind]
        store = open_store(tmp_path)
        write(store)
        entry = next(tmp_path.glob("*/*.json"))
        orphan = entry.with_suffix(f".tmp.{os.getpid()}")
        orphan.write_text("half-written payload")
        store.clear()
        assert not orphan.exists()
        assert len(store) == 0
        assert list(tmp_path.glob("*/*")) == []


#: each JSON-record store with its corruption seam; the primitive under
#: it carries the store's masking rule
RECORD_STORES = {
    "cache": (ResultCache, SEAM_CACHE_CORRUPT),
    "evalstore": (EvalStore, SEAM_STORE_CORRUPT),
}
KEYS = [_cell_key(f"key-{i}") for i in range(2)]

#: (put?, key index, payload value, energy source, garble?); a small
#: key set and rare garbling make duplicate valid puts common
operations = st.lists(st.tuples(
    st.booleans(), st.integers(0, len(KEYS) - 1), st.integers(0, 1),
    st.sampled_from(["measured", "estimated"]),
    st.sampled_from([False, False, False, True]),
), max_size=30)


@pytest.mark.parametrize("kind", sorted(RECORD_STORES))
@settings(max_examples=100, deadline=None)
@given(ops=operations)
def test_first_valid_write_wins_and_counters_balance(kind, ops):
    open_store, seam = RECORD_STORES[kind]
    armed = FaultInjector(FaultPlan(seed=0, seams={
        seam: SeamSpec(rate=1.0),
    }))
    with tempfile.TemporaryDirectory() as root:
        files = open_store(Path(root))._files
        stored = {}   # key -> the first valid record, or None if garbled
        gets = puts = conflicts = corrupt_reads = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for is_put, index, value, source, garble in ops:
                key = KEYS[index]
                if not is_put:
                    gets += 1
                    got = files.get(key, dict)
                    if key in stored and stored[key] is None:
                        corrupt_reads += 1
                    assert got == stored.get(key)
                    continue
                puts += 1
                record = {"value": value, "energy_source": source}
                files.put(key, record, armed if garble else None)
                existing = stored.get(key)
                if existing is None:
                    stored[key] = None if garble else record
                else:
                    conflicts += garble or any(
                        existing[name] != record[name]
                        for name in record if name not in files.masked)
        stats = files.stats
        assert stats.hits + stats.misses == gets
        assert stats.writes + stats.dedup_hits == puts
        assert stats.dedup_conflicts == conflicts
        assert stats.dedup_conflicts <= stats.dedup_hits
        assert stats.corrupt == corrupt_reads
        assert len(armed.events) == sum(op[4] for op in ops if op[0])
