"""Run records and the results store."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis.reporting import bootstrap_mean


@dataclass
class RunRecord:
    """One (system, dataset, budget, seed) execution of the benchmark."""

    system: str
    dataset: str
    configured_seconds: float
    seed: int
    balanced_accuracy: float
    execution_kwh: float
    actual_seconds: float
    inference_kwh_per_instance: float
    inference_seconds_per_instance: float
    n_ensemble_members: int = 1
    n_evaluations: int = 0
    n_cores: int = 1
    used_gpu: bool = False
    failed: bool = False
    note: str = ""
    #: "measured" when the energy numbers come from the (simulated) RAPL
    #: counter; "estimated" when the counter failed mid-run and the
    #: model-based fallback produced them instead
    energy_source: str = "measured"


#: record fields that report *how* a number was measured rather than the
#: result itself; two runs of the same pure cell may differ only here,
#: so cache dedup, the merge's state bytes and chaos identity mask them
MEASUREMENT_FIELDS = ("energy_source",)


@dataclass
class ResultsStore:
    """A flat collection of run records with the aggregations the paper's
    figures need."""

    records: list[RunRecord] = field(default_factory=list)

    def add(self, record: RunRecord) -> None:
        self.records.append(record)

    def extend(self, records) -> None:
        self.records.extend(records)

    def __len__(self) -> int:
        return len(self.records)

    # -- filtering ------------------------------------------------------------
    def filter(self, *, system: str | None = None,
               dataset: str | None = None,
               budget: float | None = None,
               include_failed: bool = True) -> "ResultsStore":
        out = []
        for r in self.records:
            if system is not None and r.system != system:
                continue
            if dataset is not None and r.dataset != dataset:
                continue
            if budget is not None and r.configured_seconds != budget:
                continue
            if not include_failed and r.failed:
                continue
            out.append(r)
        return ResultsStore(out)

    @property
    def systems(self) -> list[str]:
        return sorted({r.system for r in self.records})

    @property
    def budgets(self) -> list[float]:
        return sorted({r.configured_seconds for r in self.records})

    @property
    def datasets(self) -> list[str]:
        return sorted({r.dataset for r in self.records})

    # -- aggregation ------------------------------------------------------------
    def mean_over_runs(self, attr: str, *, system: str,
                       budget: float | None = None) -> float:
        """Paper-style aggregate: average ``attr`` across datasets, where
        each dataset contributes its bootstrap mean over runs."""
        sub = self.filter(system=system, budget=budget)
        per_dataset = []
        for ds in sub.datasets:
            vals = [getattr(r, attr) for r in sub.filter(dataset=ds).records]
            vals = [v for v in vals if np.isfinite(v)]
            if vals:
                per_dataset.append(bootstrap_mean(vals)[0])
        return float(np.mean(per_dataset)) if per_dataset else float("nan")

    def dataset_scores(self, *, system: str,
                       budget: float) -> dict[str, float]:
        """dataset -> mean balanced accuracy (for Table 6 and the
        dataset-level analysis)."""
        sub = self.filter(system=system, budget=budget)
        return {
            ds: float(np.mean([
                r.balanced_accuracy
                for r in sub.filter(dataset=ds).records
            ]))
            for ds in sub.datasets
        }

    # -- persistence -------------------------------------------------------------
    def save(self, path) -> None:
        payload = [asdict(r) for r in self.records]
        Path(path).write_text(json.dumps(payload, indent=1))

    @classmethod
    def load(cls, path) -> "ResultsStore":
        payload = json.loads(Path(path).read_text())
        return cls([RunRecord(**row) for row in payload])
