"""Content-addressed on-disk cache of cell results.

Keys come from :meth:`CellSpec.cache_key` (dataset fingerprint + system
+ budget + seed + scaling + kwargs digest), so a warm cache turns a
re-run of the same campaign into pure I/O: zero cells execute.  The
on-disk contract (sharded layout, atomic writes, corrupt entry → warned
miss, first write wins) is :mod:`repro.storage`'s.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.experiments.results import RunRecord
from repro.faults import SEAM_CACHE_CORRUPT, FaultInjector
from repro.storage import RecordFiles, StoreStats


@dataclass
class ResultCache:
    """One :class:`RunRecord` per cell key, as a JSON-record store."""

    root: Path
    stats: StoreStats = field(default_factory=lambda: StoreStats("cache"))
    #: chaos hook: when armed, ``put`` may garble the payload bytes it
    #: writes (the ``cache_corrupt`` seam) so ``get`` detection is
    #: exercised under a seeded plan
    fault_injector: FaultInjector | None = None

    def __post_init__(self):
        self.root = Path(self.root)
        self._files = RecordFiles(
            self.root, self.stats, seam=SEAM_CACHE_CORRUPT,
            # two writers racing the same pure cell may legitimately
            # disagree only on the measurement channel (a RAPL fault on
            # one side)
            masked=("energy_source",),
            corrupt_warning="corrupt cache entry at {path} read as a miss "
                            "(the cell will re-execute)",
            conflict_warning="cache key {key}… was written twice with "
                             "different payloads; keeping the first write "
                             "(cells must be pure functions of their spec)",
        )

    def get(self, key: str) -> RunRecord | None:
        return self._files.get(key, lambda record: RunRecord(**record))

    def put(self, key: str, record: RunRecord) -> None:
        """First write wins; a duplicate whose payload differs beyond
        ``energy_source`` is warned as a ``dedup_conflicts``."""
        self._files.put(key, asdict(record), self.fault_injector)

    def __len__(self) -> int:
        return len(self._files)

    def clear(self) -> None:
        self._files.clear()
