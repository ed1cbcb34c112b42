"""The benchmark's four workloads.

Each workload has a set-up, which the runner repeats and times, and a
pass: one unit of measured work that the runner repeats for the run's
length.  A pass returns its operation counts, the digests of what it
produced and the end-to-end quality numbers; ``verify`` checks a pass's
outputs beyond those digests.

* ``askl-bo``: a ``run_grid`` campaign, AutoSklearn1 + CAML on credit-g,
  with the result cache, journal and evaluation store armed.
  Bayesian optimisation refits a random-forest surrogate on every
  ``ask``, so the ``hpo`` layer dominates; every scored trial is written
  through to the evaluation store, so this is the stores' write path.
* ``ag-stack``: AutoGluon on phoneme and kc1.  Its plan is sized by the
  budget, not the seed, and is almost all bagged and stacked tree fits;
  it asks no optimiser and writes no store records.
* ``serve-ensemble``: one AutoGluon export served under the loadtest
  with real feature rows and no joule target, so every request goes to
  the stacked ensemble.  The measured phase fits no model.
* ``store-replay``: the read path of the stores ``askl-bo`` writes: a
  warm ``run_grid`` rerun answered from the cache, a journal replay, and
  what-if ensembling, portfolio mining, the trial front and the store
  digest over a captured AutoSklearn2 campaign.

A pass is kept to a few seconds so that a run holds many of them: on a
small shared machine one pass's wall time varies by some 10%, and the
median over many passes is what keeps a run's figures steady.

The seeds that set how much work a pass does are pinned, and the
workload seed varies only what leaves that amount alone.  The number of
trials a Bayesian search makes swings with its seed (AutoSklearn1 on
credit-g makes 3 to 108 evaluations over seeds 0-7), so the campaign
workloads take the workload seed for the order in which they run their
cells and queries.  The serving cost follows the batches the
heavy-tailed arrival draw forms, so the stream's arrivals, row counts
and deadlines are pinned and the workload seed picks the feature rows
the requests carry.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.datasets.loaders import load_dataset
from repro.datasets.registry import get_spec
from repro.evalstore import EvalStore, mine_portfolio, trial_front, whatif_ensemble
from repro.experiments import ExperimentConfig, run_grid
from repro.metrics.classification import balanced_accuracy_score
from repro.runtime import CampaignJournal
from repro.serving import LoadProfile, generate_requests, prepare_artifacts, run_loadtest

JOULES_PER_KWH = 3.6e6
#: the pinned campaign seed (``ExperimentConfig.base_seed``)
CAMPAIGN_SEED = 0
#: the export seed for which the served ensemble is also the most
#: accurate variant (ensemble 0.925 > refit 0.913 > distilled 0.897)
EXPORT_SEED = 4
#: the pinned request-stream seed: arrivals, row counts and deadlines
STREAM_SEED = 0
#: served requests that are re-predicted directly and compared
N_CHECKED_REQUESTS = 8

SIZES = {
    "askl-bo": {
        "full": dict(systems=("AutoSklearn1", "CAML"),
                     datasets=("credit-g",), budgets=(30.0,),
                     time_scale=0.01),
        "tiny": dict(systems=("AutoSklearn1", "CAML"),
                     datasets=("credit-g",), budgets=(30.0,),
                     time_scale=0.002),
    },
    "ag-stack": {
        "full": dict(systems=("AutoGluon",), datasets=("phoneme", "kc1"),
                     budgets=(10.0,), time_scale=0.01),
        "tiny": dict(systems=("AutoGluon",), datasets=("credit-g",),
                     budgets=(10.0,), time_scale=0.002),
    },
    "serve-ensemble": {
        "full": dict(dataset="phoneme", budget_s=30.0, n_requests=200),
        "tiny": dict(dataset="credit-g", budget_s=10.0, n_requests=30),
    },
    "store-replay": {
        "full": dict(systems=("AutoSklearn2",),
                     datasets=("credit-g", "kc1"), budgets=(30.0,),
                     time_scale=0.005),
        "tiny": dict(systems=("AutoSklearn2",), datasets=("credit-g",),
                     budgets=(30.0,), time_scale=0.002),
    },
}


@dataclass
class PassOutput:
    """What one measured pass produced."""

    attempted: int
    failed: int
    digests: dict
    bal_acc: float
    joules_per_pred: float
    #: per-layer values read from the program's own reports
    layer: dict = field(default_factory=dict)
    #: kept for ``verify``; not part of the pass's result
    detail: dict = field(default_factory=dict)


def sha256_json(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def records_digest(records) -> str:
    """Order-independent digest of campaign run records."""
    return sha256_json(sorted(
        (asdict(r) for r in records),
        key=lambda d: (d["dataset"], d["system"], d["configured_seconds"],
                       d["seed"]),
    ))


def _counter(telemetry: dict, name: str) -> int:
    return int(telemetry.get("metrics", {}).get(name, {}).get("value", 0))


def _share(num: int, den: int) -> float:
    return num / den if den else 0.0


class Campaign:
    """A ``run_grid`` campaign with every store armed, fresh each pass."""

    def __init__(self, name: str, seed: int, size: str):
        spec = SIZES[name][size]
        rng = np.random.default_rng(seed)
        # the seed orders the cells; the cells themselves are pinned
        self.config = ExperimentConfig(
            systems=tuple(rng.permutation(spec["systems"]).tolist()),
            datasets=tuple(rng.permutation(spec["datasets"]).tolist()),
            budgets=spec["budgets"], n_runs=1,
            time_scale=spec["time_scale"], base_seed=CAMPAIGN_SEED,
        )
        self.name = name

    def setup(self, work_dir: Path, repeat: int) -> dict:
        """Generate the datasets; the first repeat fills the in-process
        cache the campaign reads, later ones regenerate them uncached."""
        for name in self.config.datasets:
            if repeat == 0:
                load_dataset(name)
            else:
                load_dataset(name, spec=get_spec(name))
        return {}

    def run(self, work_dir: Path) -> PassOutput:
        telemetry: dict = {}
        store = run_grid(
            self.config, workers=1, telemetry=telemetry,
            cache_dir=work_dir / "cache",
            journal_path=work_dir / "journal.jsonl",
            eval_store_dir=work_dir / "evalstore",
        )
        records = store.records
        n_cells = self.config.n_cells
        ok = sum(1 for r in records if not r.failed)
        cache = telemetry.get("cache", {})
        evalstore = telemetry.get("evalstore", {})
        return PassOutput(
            attempted=n_cells,
            failed=n_cells - ok,
            digests={"records": records_digest(records)},
            bal_acc=float(np.mean([r.balanced_accuracy for r in records])),
            joules_per_pred=float(np.mean(
                [r.inference_kwh_per_instance for r in records]
            )) * JOULES_PER_KWH,
            layer={
                "trials.evaluated": _counter(telemetry, "trials.evaluated"),
                "trials.failed": _counter(telemetry, "trials.failed"),
                "runtime.cache.hit_ratio": _share(
                    cache.get("hits", 0),
                    cache.get("hits", 0) + cache.get("misses", 0)),
                "evalstore.dedup_ratio": _share(
                    evalstore.get("dedup_hits", 0),
                    evalstore.get("writes", 0) + evalstore.get("dedup_hits", 0)),
            },
            detail={"work_dir": work_dir},
        )

    def verify(self, out: PassOutput) -> list[str]:
        """Adds the evaluation-store digest (a read, so outside the timed
        pass) and checks every record carries a score."""
        out.digests["evalstore"] = EvalStore(
            out.detail["work_dir"] / "evalstore").digest()
        if not 0.0 < out.bal_acc <= 1.0:
            return [f"mean balanced accuracy {out.bal_acc} out of range"]
        return []


class ServeEnsemble:
    """The loadtest over an exported AutoGluon stack."""

    name = "serve-ensemble"

    def __init__(self, seed: int, size: str):
        spec = SIZES[self.name][size]
        self.dataset = spec["dataset"]
        self.budget_s = spec["budget_s"]
        self.profile = LoadProfile(n_requests=spec["n_requests"])
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.artifacts = self.ds = self.X_pool = self.labels = None

    def setup(self, work_dir: Path, repeat: int) -> dict:
        artifacts, dropped, ds, _ = prepare_artifacts(
            work_dir, system="AutoGluon", dataset=self.dataset,
            budget_s=self.budget_s, seed=EXPORT_SEED,
        )
        if dropped:
            raise RuntimeError(f"artifacts failed verification: {dropped}")
        self.artifacts, self.ds = artifacts, ds
        # the seed picks the served rows: requests sample by index
        order = np.random.default_rng(self.seed).permutation(len(ds.X_test))
        self.X_pool = ds.X_test[order]
        self.labels = _row_labels(ds.X_test, ds.y_test)
        return {"artifacts": sha256_json(
            {v: a.manifest.artifact_id for v, a in artifacts.items()})}

    def run(self, work_dir: Path) -> PassOutput:
        report, responses = run_loadtest(
            self.artifacts, self.profile, seed=STREAM_SEED,
            X_pool=self.X_pool,
        )
        return PassOutput(
            attempted=report.n_requests,
            failed=report.n_timeout + report.n_rejected,
            digests={"report": hashlib.sha256(
                report.to_json().encode()).hexdigest()},
            bal_acc=0.0,
            joules_per_pred=report.joules_per_prediction,
            layer={
                "serving.queue_wait_sim_ms_mean":
                    report.queue_wait_mean_s * 1e3,
                "serving.sim_latency_p50_ms": report.latency_p50_s * 1e3,
                "serving.sim_latency_p99_ms": report.latency_p99_s * 1e3,
            },
            detail={"responses": responses, "report": report},
        )

    def verify(self, out: PassOutput) -> list[str]:
        """Served predictions must equal a direct ``predict`` on the same
        rows; the balanced accuracy is over every served row."""
        problems = []
        report = out.detail["report"]
        if set(report.variant_mix) != {"ensemble"}:
            problems.append(f"requests left the ensemble: {report.variant_mix}")
        requests = generate_requests(self.profile, X_pool=self.X_pool,
                                     random_state=STREAM_SEED)
        ok = [r for r in out.detail["responses"] if r.status == "ok"]
        picks = self.rng.choice(len(ok), size=min(N_CHECKED_REQUESTS, len(ok)),
                                replace=False)
        for i in picks:
            response = ok[int(i)]
            X = requests[response.request_id].X
            direct = self.artifacts[response.variant].predict(X)
            if not np.array_equal(direct, response.predictions):
                problems.append(
                    f"request {response.request_id}: served predictions "
                    f"differ from a direct predict")
        labels, y_true, y_pred = self.labels, [], []
        for response in ok:
            for row, pred in zip(requests[response.request_id].X,
                                 response.predictions):
                label = labels.get(row.tobytes())
                if label is not None:
                    y_true.append(label)
                    y_pred.append(pred)
        out.bal_acc = balanced_accuracy_score(np.asarray(y_true),
                                              np.asarray(y_pred))
        return problems


def _row_labels(X, y) -> dict:
    """Feature-row bytes -> label, leaving out rows whose label is
    ambiguous (the same features under two labels)."""
    labels: dict = {}
    for row, label in zip(np.asarray(X, dtype=float), y):
        key = row.tobytes()
        labels[key] = label if labels.get(key, label) == label else None
    return {k: v for k, v in labels.items() if v is not None}


class StoreReplay:
    """Read passes over a captured campaign, the way the CLI reads."""

    name = "store-replay"

    def __init__(self, seed: int, size: str):
        spec = SIZES[self.name][size]
        self.config = ExperimentConfig(
            systems=spec["systems"], datasets=spec["datasets"],
            budgets=spec["budgets"], n_runs=1,
            time_scale=spec["time_scale"], base_seed=CAMPAIGN_SEED,
        )
        self.rng = np.random.default_rng(seed)
        self.root = None

    def setup(self, work_dir: Path, repeat: int) -> dict:
        run_grid(self.config, workers=1, cache_dir=work_dir / "cache",
                 journal_path=work_dir / "journal.jsonl",
                 eval_store_dir=work_dir / "evalstore")
        self.root = work_dir
        return {"evalstore": EvalStore(work_dir / "evalstore").digest()}

    def run(self, work_dir: Path) -> PassOutput:
        root = self.root
        telemetry: dict = {}
        rerun = run_grid(self.config, workers=1, cache_dir=root / "cache",
                         telemetry=telemetry)
        journal = CampaignJournal.load(root / "journal.jsonl")
        store = EvalStore(root / "evalstore")
        records = store.records()
        cells = sorted({(r.dataset, r.system, float(r.budget_s), int(r.seed))
                        for r in records})
        whatifs = {}
        for i in self.rng.permutation(len(cells)):
            dataset, system, budget_s, seed = cells[int(i)]
            pool = store.query(dataset=dataset, system=system,
                               budget_s=budget_s, seed=seed, kept_only=True)
            whatifs[cells[int(i)]] = whatif_ensemble(pool).as_dict()
        portfolio = mine_portfolio(records, size=4)
        front = trial_front(records)
        store_digest = store.digest()

        misses = telemetry["cache"]["misses"]
        return PassOutput(
            attempted=self.config.n_cells,
            failed=misses,
            digests={
                "records": records_digest(rerun.records),
                "whatif": sha256_json({
                    "whatif": [whatifs[c] for c in cells],
                    "portfolio": portfolio.configs,
                    "front": [p.as_dict() for p in front],
                }),
                "evalstore": store_digest,
            },
            bal_acc=float(np.mean(
                [r.balanced_accuracy for r in rerun.records])),
            joules_per_pred=float(np.mean(
                [r.inference_kwh_per_instance for r in rerun.records]
            )) * JOULES_PER_KWH,
            layer={"runtime.cache.hit_ratio": _share(
                telemetry["cache"]["hits"],
                telemetry["cache"]["hits"] + misses)},
            detail={"journal": journal, "rerun": rerun},
        )

    def verify(self, out: PassOutput) -> list[str]:
        problems = []
        if out.failed:
            problems.append(f"warm rerun executed {out.failed} cell(s)")
        journal = out.detail["journal"]
        if len(journal.completed) != self.config.n_cells:
            problems.append(f"journal replays {len(journal.completed)} of "
                            f"{self.config.n_cells} cells")
        if records_digest(journal.completed.values()) \
                != out.digests["records"]:
            problems.append("warm rerun records differ from the journal's")
        return problems


def make(name: str, seed: int, size: str):
    if name in ("askl-bo", "ag-stack"):
        return Campaign(name, seed, size)
    if name == "serve-ensemble":
        return ServeEnsemble(seed, size)
    if name == "store-replay":
        return StoreReplay(seed, size)
    raise ValueError(f"unknown workload {name!r}")
