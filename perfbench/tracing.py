"""Layer tracing from outside the program.

``Tracer.install()`` replaces the public entry points of each layer of
``repro`` with thin wrappers that record one span per call: name, start,
end, parent span and an optional size.  Nothing under ``src/`` changes:
class methods are swapped on the class, and a module-level function is
swapped in its defining module *and* in every module that imported it by
name (``estimate_fit_seconds`` in ``repro.systems.base``,
``estimate_inference`` in ``repro.serving.server``, ``load_dataset`` in
``repro.runtime.executor`` and so on).  ``restore()`` puts every original
object back.

Spans stay in memory; ``LayerTotals.add`` folds one traced pass into
per-layer totals (calls, self seconds, busy seconds) and ``layer_metrics`` turns the
totals into the benchmark's per-layer metrics.  A span's self time is its
duration minus the durations of its direct children.

Boundaries sit at public entry points (a model's ``fit``/``predict``, a
store's ``put``/``get``), never at inner kernels such as ``tree.apply``,
which runs over a million times per 20k served requests.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
import sys
import threading

import numpy as np

#: (name, unit, better, what it should move) for every per-layer metric.
#: ``BENCHMARK.json`` lists the same names; the smoke test checks that.
PER_LAYER = [
    ("hpo.ask.calls", "count", "lower", "wall_s/cpu_s on askl-bo; flat elsewhere"),
    ("hpo.ask.self_s", "s", "lower", "wall_s/cpu_s on askl-bo; flat elsewhere"),
    ("hpo.ask.busy_s", "s", "lower", "wall_s/cpu_s on askl-bo; flat elsewhere"),
    ("hpo.surrogate_fit.calls", "count", "lower", "wall_s on askl-bo"),
    ("hpo.surrogate_fit.busy_s", "s", "lower", "wall_s/cpu_s on askl-bo"),
    ("hpo.surrogate_rows_mean", "rows", "lower", "wall_s on askl-bo"),
    *[
        (f"models.{family}.{op}.{kind}", unit, "lower",
         "fit: wall_s on askl-bo/ag-stack, setup_s on serve-ensemble; "
         "predict: ops_per_s on serve-ensemble")
        for family in ("tree", "forest", "boosting", "other")
        for op in ("fit", "predict")
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    ],
    ("models.fit.cells", "count", "lower", "wall_s on askl-bo/ag-stack"),
    ("ensemble.bagging.fit.self_s", "s", "lower", "wall_s on ag-stack"),
    ("ensemble.stacking.fit.self_s", "s", "lower", "wall_s on ag-stack"),
    ("ensemble.stacking.predict.self_s", "s", "lower", "ops_per_s on serve-ensemble"),
    ("ensemble.caruana.fit.self_s", "s", "lower", "wall_s on ag-stack/askl-bo"),
    ("ensemble.distill.busy_s", "s", "lower", "setup_s on serve-ensemble"),
    ("systems.search.self_s", "s", "lower", "wall_s on askl-bo"),
    ("systems.trial.calls", "count", "lower", "wall_s on askl-bo; bal_acc_mean"),
    ("systems.trial.self_s", "s", "lower", "wall_s on askl-bo"),
    ("systems.trial.failed", "count", "lower", "bal_acc_mean on askl-bo"),
    ("systems.trial.kept_ratio", "ratio", "higher", "bal_acc_mean on askl-bo"),
    ("systems.refit.busy_s", "s", "lower", "wall_s on askl-bo"),
    ("systems.score.busy_s", "s", "lower", "wall_s on askl-bo/ag-stack"),
    ("pipeline.fit.self_s", "s", "lower", "wall_s on askl-bo"),
    ("pipeline.predict.self_s", "s", "lower", "wall_s on askl-bo"),
    ("preprocessing.fit.self_s", "s", "lower", "wall_s on askl-bo"),
    ("preprocessing.transform.self_s", "s", "lower", "wall_s on askl-bo"),
    ("energy.estimate.calls", "count", "lower", "ops_per_s on serve-ensemble"),
    ("energy.estimate.self_s", "s", "lower", "ops_per_s on serve-ensemble"),
    ("evalstore.capture.calls", "count", "lower", "wall_s on askl-bo"),
    ("evalstore.capture.self_s", "s", "lower", "wall_s on askl-bo"),
    ("evalstore.put.self_s", "s", "lower", "wall_s on askl-bo"),
    ("evalstore.read.self_s", "s", "lower", "wall_s on store-replay"),
    ("evalstore.digest.self_s", "s", "lower", "wall_s on store-replay"),
    ("evalstore.whatif.calls", "count", "lower", "wall_s on store-replay"),
    ("evalstore.whatif.self_s", "s", "lower", "wall_s on store-replay"),
    ("evalstore.mine.self_s", "s", "lower", "wall_s on store-replay"),
    ("evalstore.dedup_ratio", "ratio", "higher", "wall_s on askl-bo"),
    ("runtime.cell.calls", "count", "lower", "wall_s on askl-bo/ag-stack"),
    ("runtime.cell.busy_s", "s", "lower", "wall_s on askl-bo/ag-stack"),
    ("runtime.cache.get.calls", "count", "lower", "wall_s on store-replay"),
    ("runtime.cache.get.self_s", "s", "lower", "wall_s on store-replay"),
    ("runtime.cache.put.calls", "count", "lower", "wall_s on askl-bo"),
    ("runtime.cache.put.self_s", "s", "lower", "wall_s on askl-bo"),
    ("runtime.cache.hit_ratio", "ratio", "higher", "wall_s on store-replay"),
    ("runtime.journal.append.self_s", "s", "lower", "wall_s on askl-bo"),
    ("runtime.journal.load.self_s", "s", "lower", "wall_s on store-replay"),
    ("serving.loop.self_s", "s", "lower", "ops_per_s on serve-ensemble"),
    ("serving.route.calls", "count", "lower", "ops_per_s on serve-ensemble"),
    ("serving.batches", "count", "lower", "ops_per_s on serve-ensemble"),
    ("serving.batch_rows_mean", "rows", "higher", "ops_per_s on serve-ensemble"),
    ("serving.predict_batch_ms_p50", "ms", "lower", "ops_per_s on serve-ensemble"),
    ("serving.predict_batch_ms_p90", "ms", "lower", "ops_per_s on serve-ensemble"),
    ("serving.queue_wait_sim_ms_mean", "ms", "lower", "simulated; repeats per seed"),
    ("serving.sim_latency_p50_ms", "ms", "lower", "simulated; repeats per seed"),
    ("serving.sim_latency_p99_ms", "ms", "lower", "simulated; repeats per seed"),
    ("serving.artifact_load.self_s", "s", "lower", "setup_s on serve-ensemble"),
    ("datasets.load.self_s", "s", "lower", "setup_s on every workload"),
    ("trials.evaluated", "count", "lower", "wall_s on askl-bo"),
    ("trials.failed", "count", "lower", "bal_acc_mean on askl-bo"),
    ("trace.spans", "count", "lower", "trace.overhead_pct"),
    ("trace.unattributed_share", "ratio", "lower", "none (coverage of the trace)"),
    ("trace.overhead_pct", "%", "lower", "none (cost of the trace)"),
]

#: per-layer metrics read from the program's own reports, not from spans
REPORTED = ("trials.evaluated", "trials.failed", "runtime.cache.hit_ratio",
            "evalstore.dedup_ratio", "serving.queue_wait_sim_ms_mean",
            "serving.sim_latency_p50_ms", "serving.sim_latency_p99_ms")

_MODEL_FAMILIES = {"tree": "tree", "forest": "forest", "boosting": "boosting"}
_ENSEMBLE_KINDS = {"bagging": "bagging", "stacking": "stacking",
                   "caruana": "caruana", "distillation": "distill"}
_ESTIMATOR_PACKAGES = ("repro.models.", "repro.ensemble.", "repro.pipeline.",
                       "repro.preprocessing.")
_FIT_OPS = {"fit": "fit", "refit": "fit"}
_PREDICT_OPS = {"predict": "predict", "predict_proba": "predict",
                "predict_with_std": "predict",
                "decision_function": "predict"}
_TRANSFORM_OPS = {"fit": "fit", "transform": "transform",
                  "fit_transform": "transform"}


def _estimator_layer(cls) -> str | None:
    """The layer prefix an estimator instance's spans are charged to."""
    parts = cls.__module__.split(".")
    if parts[0] != "repro" or len(parts) < 3:
        return None
    if parts[1] == "models":
        return "models." + _MODEL_FAMILIES.get(parts[2], "other")
    if parts[1] == "ensemble":
        return "ensemble." + _ENSEMBLE_KINDS.get(parts[2], parts[2])
    if parts[1] in ("pipeline", "preprocessing"):
        return parts[1]
    return None


def _fit_size(args, kwargs, result):
    X = args[1] if len(args) > 1 else kwargs.get("X")
    shape = np.shape(X)
    return (shape[0], shape[1]) if len(shape) == 2 else None


def _rows(args, kwargs, result):
    X = args[1] if len(args) > 1 else kwargs.get("X")
    return len(X)


def _trial_failed(args, kwargs, result):
    score, pipeline = result
    return int(pipeline is None or not score >= 0.0)


def _kept(args, kwargs, result):
    return int(bool(kwargs.get("kept")))


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory.

    ``spans`` holds ``[name, start, end, parent, size]`` lists in start
    order; ``parent`` is the index of the enclosing span or ``-1``.  Only
    calls on the installing thread are recorded.
    """

    def __init__(self, clock, extra_modules=()):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._thread = None
        self._extra_modules = list(extra_modules)
        self._imported = False

    # -- span recording --------------------------------------------------------
    def _wrap(self, fn, name, size=None):
        """``name`` is a string or a callable of the first argument."""
        tracer = self
        now = self.clock.now

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(args[0])
            stack, spans = tracer._stack, tracer.spans
            index = len(spans)
            span = [label, now(), None, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    span[4] = size(args, kwargs, result)
                return result
            finally:
                span[2] = now()
                stack.pop()

        return wrapper

    # -- patching ----------------------------------------------------------------
    def _patch_attr(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_method(self, cls, attr, name, size=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            new = type(raw)(self._wrap(raw.__func__, name, size))
        else:
            new = self._wrap(raw, name, size)
        self._patch_attr(cls, attr, new)

    def _patch_function(self, fn, name, size=None) -> None:
        """Swap ``fn`` everywhere a traced module holds it by name."""
        wrapper = self._wrap(fn, name, size)
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch_attr(module, attr, wrapper)

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if n == "repro" or n.startswith("repro.")] \
            + self._extra_modules

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._thread = threading.get_ident()
        if not self._imported:
            import_all()
            self._imported = True
        from repro.datasets import loaders
        from repro.energy import cost_model, train_cost
        from repro.evalstore import (
            EvalStore, TrialCapture, mine_portfolio, trial_front,
            whatif_ensemble,
        )
        from repro.experiments import runner
        from repro.ensemble.distillation import distill
        from repro.runtime import CampaignExecutor, CampaignJournal, ResultCache
        from repro.serving import (
            ArtifactStore, LoadedArtifact, PredictionServer, SLORouter,
            generate_requests, prepare_artifacts, run_loadtest,
        )
        from repro.systems import AutoGluonModel, AutoGluonSystem, AutoMLSystem
        from repro.systems.base import PipelineEvaluator
        from repro.systems.tabpfn import TabPFNSystem

        # estimators: the layer is read from the instance's class, so an
        # inherited ``ClassifierMixin.predict`` is charged to the caller
        for module in list(sys.modules.values()):
            mod_name = getattr(module, "__name__", "")
            if not mod_name.startswith(_ESTIMATOR_PACKAGES):
                continue
            ops = (_TRANSFORM_OPS if mod_name.startswith("repro.preprocessing.")
                   else {**_FIT_OPS, **_PREDICT_OPS})
            for cls in vars(module).values():
                if not inspect.isclass(cls) or cls.__module__ != mod_name:
                    continue
                for attr, op in ops.items():
                    if attr in cls.__dict__:
                        size = (_fit_size if op == "fit"
                                and mod_name.startswith("repro.models.")
                                else None)
                        self._patch_method(cls, attr, _estimator_namer(op),
                                           size)
        self._patch_function(distill, "ensemble.distill.fit")

        for module in self._modules():
            if getattr(module, "__name__", "").startswith("repro.hpo."):
                for cls in vars(module).values():
                    if inspect.isclass(cls) and "ask" in cls.__dict__ \
                            and cls.__module__ == module.__name__:
                        self._patch_method(cls, "ask", "hpo.ask")

        for cls in (AutoMLSystem, TabPFNSystem):
            self._patch_method(cls, "fit", "systems.search")
        for attr in ("predict", "predict_proba", "score"):
            self._patch_method(AutoMLSystem, attr, "systems.score")
        self._patch_method(PipelineEvaluator, "evaluate_config",
                           "systems.trial", _trial_failed)
        self._patch_method(PipelineEvaluator, "refit_on_all", "systems.refit")
        self._patch_method(AutoGluonSystem, "stack_refit_on_encoded",
                           "systems.refit")
        self._patch_method(AutoGluonModel, "refit", "systems.refit")
        for attr in ("predict", "predict_proba"):
            self._patch_method(AutoGluonModel, attr, "systems.model.predict")

        for fn in (train_cost.estimate_fit_seconds,
                   cost_model.estimate_inference,
                   cost_model.kwh_per_prediction):
            self._patch_function(fn, "energy.estimate")

        self._patch_method(TrialCapture, "record", "evalstore.capture", _kept)
        for attr in ("put", "ingest"):
            self._patch_method(EvalStore, attr, "evalstore.put")
        for attr in ("get", "keys", "records", "query"):
            self._patch_method(EvalStore, attr, "evalstore.read")
        self._patch_method(EvalStore, "digest", "evalstore.digest")
        self._patch_function(whatif_ensemble, "evalstore.whatif")
        for fn in (mine_portfolio, trial_front):
            self._patch_function(fn, "evalstore.mine")

        self._patch_function(runner.run_grid, "runtime.grid")
        self._patch_function(runner.run_single, "runtime.cell")
        self._patch_method(CampaignExecutor, "run", "runtime.executor")
        self._patch_method(ResultCache, "get", "runtime.cache.get")
        self._patch_method(ResultCache, "put", "runtime.cache.put")
        for attr in CampaignJournal.__dict__:
            if attr == "open_campaign" or attr.startswith("record_"):
                self._patch_method(CampaignJournal, attr,
                                   "runtime.journal.append")
        self._patch_method(CampaignJournal, "load", "runtime.journal.load")

        self._patch_method(PredictionServer, "process", "serving.loop")
        self._patch_method(SLORouter, "route", "serving.route")
        for attr in ("predict", "predict_proba"):
            self._patch_method(LoadedArtifact, attr,
                               "serving.predict_batch", _rows)
        self._patch_method(ArtifactStore, "load", "serving.artifact_load")
        self._patch_method(ArtifactStore, "save", "serving.export")
        self._patch_function(generate_requests, "serving.loadgen")
        self._patch_function(run_loadtest, "serving.loadtest")
        self._patch_function(prepare_artifacts, "serving.prepare")

        self._patch_function(loaders.load_dataset, "datasets.load")
        return self

    def restore(self) -> list[str]:
        """Put every original back; returns the attributes that did not
        end up holding their original object (empty on success)."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        self._stack.clear()
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in patches
                if owner.__dict__.get(attr) is not original]

    def take(self) -> list[list]:
        """Hand over the recorded spans and start an empty list."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        spans, self.spans = self.spans, []
        return spans


def _estimator_namer(op):
    cache: dict = {}

    def name(obj):
        cls = type(obj)
        label = cache.get(cls)
        if label is None:
            layer = _estimator_layer(cls) or "models.other"
            label = cache[cls] = f"{layer}.{op}"
        return label

    return name


def import_all() -> None:
    """Import every ``repro`` module, so each by-name import is patched."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.startswith(("repro.lint", "repro.__main__")):
            continue
        importlib.import_module(info.name)


def check_spans(spans) -> list[str]:
    """Problems with a span list: open spans, negative durations, or a
    child outside its parent's interval.  Empty means well-formed."""
    problems = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end is None or end < start:
            problems.append(f"span {i} ({name}) is open or negative")
            continue
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if parent >= i or start < p_start or end > p_end:
                problems.append(f"span {i} ({name}) escapes parent {parent}")
    return problems


class LayerTotals:
    """Per-span-name totals folded over traced passes.

    ``busy_s`` counts only the outermost span of a name, so a recursive
    or self-delegating call (``predict`` calling ``predict_proba``) is
    not counted twice.
    """

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.busy_s: dict[str, float] = {}
        self.sizes: dict[str, list] = {}
        self.batch_s: list[float] = []
        self.surrogate = [0, 0.0, 0]  # forest fits under hpo.ask: calls, s, rows
        self.root_s = 0.0
        self.n_spans = 0

    def add(self, spans) -> None:
        self.n_spans += len(spans)
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
            else:
                self.root_s += end - start
        for i, (name, start, end, parent, size) in enumerate(spans):
            duration = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_s[i]
            outermost = not _has_ancestor(spans, parent, name)
            if outermost:
                self.busy_s[name] = self.busy_s.get(name, 0.0) + duration
                if name == "serving.predict_batch":
                    self.batch_s.append(duration)
            if size is not None:
                self.sizes.setdefault(name, []).append(size)
            if name == "models.forest.fit" \
                    and _has_ancestor(spans, parent, "hpo.ask"):
                self.surrogate[0] += 1
                self.surrogate[1] += duration
                self.surrogate[2] += size[0]


def _has_ancestor(spans, index, name) -> bool:
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def layer_metrics(totals: LayerTotals, setup: LayerTotals, *,
                  n_passes: int, traced_wall_s: float,
                  untraced_pass_s: float, traced_pass_s: float,
                  extra: dict) -> dict:
    """The per-layer metrics, per traced pass, from the folded totals.

    ``setup`` holds one traced set-up, which is where datasets are
    generated and serving artifacts are loaded.  ``extra`` carries the
    values that come from the program's own reports (simulated serving
    latencies, cache and store counters, trial counters).
    """
    per = 1.0 / n_passes

    def calls(name):
        return totals.calls.get(name, 0) * per

    def self_s(name):
        return totals.self_s.get(name, 0.0) * per

    def busy_s(name):
        return totals.busy_s.get(name, 0.0) * per

    surrogate = totals.surrogate
    out = {
        "hpo.ask.calls": calls("hpo.ask"),
        "hpo.ask.self_s": self_s("hpo.ask"),
        "hpo.ask.busy_s": busy_s("hpo.ask"),
        "hpo.surrogate_fit.calls": surrogate[0] * per,
        "hpo.surrogate_fit.busy_s": surrogate[1] * per,
        "hpo.surrogate_rows_mean": _ratio(surrogate[2], surrogate[0]),
    }
    cells = 0
    for family in ("tree", "forest", "boosting", "other"):
        for op in ("fit", "predict"):
            name = f"models.{family}.{op}"
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_s"] = self_s(name)
        cells += sum(r * c for r, c in totals.sizes.get(f"models.{family}.fit", ()))
    out["models.fit.cells"] = cells * per
    for name in ("ensemble.bagging.fit", "ensemble.stacking.fit",
                 "ensemble.stacking.predict", "ensemble.caruana.fit",
                 "systems.search", "systems.trial", "pipeline.fit",
                 "pipeline.predict", "preprocessing.fit",
                 "preprocessing.transform", "energy.estimate",
                 "evalstore.capture", "evalstore.put", "evalstore.read",
                 "evalstore.digest", "evalstore.whatif", "evalstore.mine",
                 "runtime.cache.get", "runtime.cache.put",
                 "runtime.journal.append", "runtime.journal.load",
                 "serving.loop"):
        out[f"{name}.self_s"] = self_s(name)
    for name in ("systems.trial", "energy.estimate", "evalstore.capture",
                 "evalstore.whatif", "runtime.cell", "runtime.cache.get",
                 "runtime.cache.put"):
        out[f"{name}.calls"] = calls(name)
    for name in ("systems.refit", "systems.score", "runtime.cell"):
        out[f"{name}.busy_s"] = busy_s(name)
    out["ensemble.distill.busy_s"] = busy_s("ensemble.distill.fit")
    out["systems.trial.failed"] = sum(totals.sizes.get("systems.trial", ())) * per
    out["systems.trial.kept_ratio"] = _ratio(
        sum(totals.sizes.get("evalstore.capture", ())),
        totals.calls.get("evalstore.capture", 0))
    out["serving.route.calls"] = calls("serving.route")
    out["serving.batches"] = len(totals.batch_s) * per
    rows = totals.sizes.get("serving.predict_batch", ())
    out["serving.batch_rows_mean"] = float(np.mean(rows)) if rows else 0.0
    batch_ms = np.asarray(totals.batch_s) * 1e3
    for q in (50, 90):
        out[f"serving.predict_batch_ms_p{q}"] = (
            float(np.percentile(batch_ms, q)) if batch_ms.size else 0.0)
    out["serving.artifact_load.self_s"] = setup.self_s.get(
        "serving.artifact_load", 0.0)
    out["datasets.load.self_s"] = setup.self_s.get("datasets.load", 0.0)
    out.update(extra)
    out["trace.spans"] = totals.n_spans * per
    out["trace.unattributed_share"] = _ratio(
        max(traced_wall_s - totals.root_s, 0.0), traced_wall_s)
    out["trace.overhead_pct"] = (traced_pass_s / untraced_pass_s - 1.0) * 100.0
    for key, value in out.items():
        if not math.isfinite(value):
            raise ValueError(f"per-layer metric {key} is not finite")
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
