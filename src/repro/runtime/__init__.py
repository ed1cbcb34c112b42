"""Campaign runtime: cached, journalled, parallel cell execution.

The benchmark grid is a bag of independent cells (system x dataset x
budget x seed).  This package turns the naive nested-loop runner into a
restartable campaign engine:

- :mod:`repro.runtime.cells` — the cell unit of work and its
  content-addressed cache key;
- :mod:`repro.runtime.cache` — an on-disk result cache so re-running a
  campaign only executes cells whose inputs changed;
- :mod:`repro.runtime.journal` — an append-only JSONL checkpoint log for
  crash-safe resume, and the one replay fold (``merge_journals``) that
  both resume and the shard merge read journals through;
- :mod:`repro.runtime.progress` — throughput/ETA/energy telemetry;
- :mod:`repro.runtime.executor` — the process-pool executor with
  per-cell retries and failure quarantine;
- :mod:`repro.runtime.shard` — the fault-fenced multi-shard
  coordinator (epoch-fenced leases, work stealing, tenant quotas),
  whose segments merge through the journal's fold.

Because every system charges a *simulated* clock (see
:mod:`repro.energy.train_cost`), a cell's result is a pure function of
its spec — which is what makes both the cache and ``workers=N``
bit-identical to the serial runner.
"""

from repro.runtime.cache import ResultCache
from repro.runtime.cells import CACHE_KEY_VERSION, CellSpec
from repro.runtime.executor import CampaignExecutor, RetryPolicy, execute_cells
from repro.runtime.journal import (
    CampaignJournal,
    JournalState,
    MergedJournal,
    canonical_state_bytes,
    merge_journals,
)
from repro.runtime.progress import (
    ProgressEvent,
    ProgressTracker,
    ShardStats,
)
from repro.runtime.shard import (
    ShardCoordinator,
    ShardPolicy,
    partition_cells,
)

__all__ = [
    "CACHE_KEY_VERSION",
    "CellSpec",
    "ResultCache",
    "CampaignJournal",
    "JournalState",
    "ProgressEvent",
    "ProgressTracker",
    "CampaignExecutor",
    "RetryPolicy",
    "execute_cells",
    "ShardStats",
    "ShardCoordinator",
    "ShardPolicy",
    "MergedJournal",
    "canonical_state_bytes",
    "merge_journals",
    "partition_cells",
]
