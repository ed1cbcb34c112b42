"""The content-addressed file store under every persisted result.

The result cache, the evaluation store and the artifact store keep one
entry per content key at ``root/<key[:2]>/<key><suffix>`` under one
on-disk contract — atomic writes, a dead-owner tmp sweep, unreadable
entry → counted and warned miss, first write wins — which lives here
and nowhere else (DESIGN.md, "Storage").  The stores are composed over
it, each keeping its own codec, corruption seam and warning texts.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import warnings
from pathlib import Path
from typing import Callable, TypeVar

from repro.faults import FaultInjector
from repro.observability import MetricsRegistry

T = TypeVar("T")

#: what keeps an existing entry from decoding: a torn or garbled
#: payload, a record that no longer fits its type, or a path that cannot
#: be read as a file (a directory, EACCES)
UNREADABLE = (ValueError, KeyError, TypeError, AttributeError, OSError)


def shard_path(root: Path, key: str, suffix: str = ".json") -> Path:
    return root / key[:2] / f"{key}{suffix}"


def entries(root: Path, suffix: str = ".json"):
    return root.glob(f"*/*{suffix}")


def write_atomic(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` through a tmp file + rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def clear(root: Path, suffixes: tuple[str, ...] = (".json",)) -> None:
    """Remove every entry and every tmp file: an explicit wipe takes
    live owners' tmp files too."""
    for suffix in suffixes:
        for entry in entries(root, suffix):
            entry.unlink(missing_ok=True)
    sweep_tmp(root, all_owners=True)


def _owner_alive(suffix: str) -> bool:
    """True when a tmp-file pid suffix names a live process.
    Unparseable suffixes count as dead (the file can only be junk)."""
    if not suffix.isdigit():
        return False
    pid = int(suffix)
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True   # e.g. EPERM: the process exists, just isn't ours
    return True


def sweep_tmp(root: Path, *, all_owners: bool = False) -> None:
    """Remove stranded ``*.tmp.<pid>`` files under ``root``'s shards:
    those of dead owners, or every one with ``all_owners``."""
    for orphan in root.glob("*/*.tmp.*"):
        if all_owners or not _owner_alive(orphan.name.rpartition(".")[2]):
            orphan.unlink(missing_ok=True)


def read_entry(path: Path, decode: Callable[[bytes], T],
               stats: StoreStats, warning: str) -> T | None:
    """``decode`` the bytes at ``path``; an unreadable entry is a
    counted, warned miss (``None``).

    ``FileNotFoundError`` propagates: each store counts an absent entry
    under its own name.  ``warning`` is formatted with ``path``.
    """
    try:
        return decode(path.read_bytes())
    except FileNotFoundError:
        raise
    except UNREADABLE:
        stats.record("corrupt")
        warnings.warn(warning.format(path=path), stacklevel=3)
        return None


def _counter(name: str) -> property:
    return property(lambda self: self.count(name))


class StoreStats:
    """Read-only view of one store's counters in a metrics registry.

    The counters live as named metrics (``<prefix>.hits`` etc.) in a
    :class:`~repro.observability.MetricsRegistry`, so campaign telemetry
    can merge them into one snapshot.  ``misses`` includes the
    ``corrupt`` reads; ``dedup_hits`` counts puts dropped because a
    valid entry already existed, ``dedup_conflicts`` those of them whose
    payload differed (a purity bug).
    """

    COUNTERS = ("hits", "misses", "writes", "corrupt", "dedup_hits",
                "dedup_conflicts")

    def __init__(self, prefix: str, registry: MetricsRegistry | None = None):
        self.prefix = prefix
        self.registry = registry if registry is not None \
            else MetricsRegistry()

    def count(self, name: str) -> int:
        return int(self.registry.counter(f"{self.prefix}.{name}").value)

    def record(self, name: str) -> None:
        self.registry.counter(f"{self.prefix}.{name}").inc()

    hits = _counter("hits")
    misses = _counter("misses")
    writes = _counter("writes")
    corrupt = _counter("corrupt")
    #: the cache's original name for ``corrupt``
    corrupt_entries = corrupt
    dedup_hits = _counter("dedup_hits")
    dedup_conflicts = _counter("dedup_conflicts")

    def as_dict(self) -> dict:
        return {name: self.count(name) for name in self.COUNTERS}


class RecordFiles:
    """``{"key", "record"}`` JSON documents, one file per key: the
    get/put half of the contract for the JSON-record stores.

    Each store supplies its record codec per call and, here, its
    corruption seam, the record fields masked from the dedup digest and
    its warning texts (``corrupt_warning`` is formatted with ``path``,
    ``conflict_warning`` with the 12-character ``key`` prefix).
    """

    def __init__(self, root: Path, stats: StoreStats, *, seam: str,
                 masked: tuple[str, ...] = (), corrupt_warning: str,
                 conflict_warning: str):
        self.root = root
        self.stats = stats
        self.seam = seam
        self.masked = masked
        self.corrupt_warning = corrupt_warning
        self.conflict_warning = conflict_warning
        root.mkdir(parents=True, exist_ok=True)
        # shard threads in one coordinator share one store object; the
        # lock makes the exists-check + replace in put() one atomic step
        # in-process (cross-process writers stay safe via os.replace)
        self._lock = threading.Lock()
        sweep_tmp(root)

    def get(self, key: str, decode: Callable[[dict], T]) -> T | None:
        """The decoded record under ``key``, or None (a counted miss)."""
        try:
            record = read_entry(
                shard_path(self.root, key),
                lambda payload: decode(json.loads(payload)["record"]),
                self.stats, self.corrupt_warning,
            )
        except FileNotFoundError:
            record = None
        self.stats.record("misses" if record is None else "hits")
        return record

    def put(self, key: str, record: dict,
            injector: FaultInjector | None = None) -> bool:
        """First write wins; returns True when bytes hit the disk.  An
        armed ``injector`` may garble the payload on the store's seam."""
        path = shard_path(self.root, key)
        payload = json.dumps({"key": key, "record": record})
        if injector is not None:
            payload = injector.corrupt(self.seam, key, payload)
        with self._lock:
            try:
                existing = self._digest(path.read_bytes())
            except OSError:
                existing = None
            # a missing or corrupt entry is (re)written
            if existing is not None:
                self.stats.record("dedup_hits")
                if existing != self._digest(payload):
                    self.stats.record("dedup_conflicts")
                    warnings.warn(
                        self.conflict_warning.format(key=key[:12]),
                        stacklevel=3,
                    )
                return False
            write_atomic(path, payload.encode())
            self.stats.record("writes")
            return True

    def _digest(self, payload: str | bytes) -> str | None:
        """Digest of a serialised entry's record with the masked fields
        dropped; None when the payload does not hold a record."""
        try:
            record = json.loads(payload)["record"]
            canon = json.dumps({name: value for name, value in record.items()
                                if name not in self.masked}, sort_keys=True)
        except UNREADABLE:
            return None
        return hashlib.sha256(canon.encode()).hexdigest()

    def keys(self) -> list[str]:
        return sorted(p.stem for p in entries(self.root))

    def __len__(self) -> int:
        return sum(1 for _ in entries(self.root))

    def clear(self) -> None:
        clear(self.root)
