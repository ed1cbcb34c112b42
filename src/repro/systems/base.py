"""Common scaffolding for the six AutoML systems.

Budget semantics
----------------
Every system receives a *search budget* in paper-seconds (the paper runs
10s/30s/1m/5m).  Because the original grid burned 28 days of compute, budgets
are scaled: ``time_scale`` real seconds correspond to one budget second.  All
reported durations and energies are expressed back in budget time, so the
numbers are comparable with the paper's.  Each system keeps its own
*termination discipline* (Table 7): CAML adheres strictly, FLAML finishes the
evaluation it already started, AutoGluon plans a whole stack upfront and
overruns small budgets, ASKL runs un-budgeted ensembling after the search.

Parallelism (Fig 5) is modelled: a system declares its parallelisable
fraction; on ``n_cores`` the search loop receives Amdahl-scaled extra compute
inside the same wall budget and the energy meter charges the multi-core
power draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.energy.cost_model import InferenceEstimate, estimate_inference
from repro.energy.train_cost import estimate_fit_seconds
from repro.energy.machines import DEFAULT_MACHINE, MachineProfile, XEON_T4_MACHINE
from repro.energy.parallel import (
    amdahl_speedup,
    budget_bound_execution,
    parallel_execution,
)
from repro.evalstore.capture import active_capture
from repro.exceptions import (
    BudgetBelowMinimumError,
    BudgetExhaustedError,
    NotFittedError,
)
from repro.faults import SEAM_TRIAL_ERROR, FailureRecord
from repro.metrics.classification import balanced_accuracy_score
from repro.metrics.validation import train_test_split
from repro.observability import get_registry, trace_span
from repro.pipeline.spaces import build_pipeline
from repro.utils.rng import check_random_state


def _config_digest(config: dict) -> str:
    """Short stable digest of one pipeline configuration, for span
    attrs (the full config is too wide to journal per trial)."""
    import hashlib

    payload = repr(sorted(config.items()))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]

#: default real-seconds per budget-second; 0.02 makes a "5 min" run ~6 s.
DEFAULT_TIME_SCALE = 0.02


@dataclass(frozen=True)
class StrategyCard:
    """One row of the paper's Table 1."""

    system: str
    search_space: str
    search_init: str
    search: str
    ensembling: str


@dataclass
class FitResult:
    """Everything the benchmark harness needs from one AutoML run."""

    system: str
    configured_seconds: float
    actual_seconds: float
    execution_kwh: float
    n_evaluations: int
    best_val_score: float
    n_cores: int = 1
    used_gpu: bool = False
    info: dict = field(default_factory=dict)

    @property
    def overrun_ratio(self) -> float:
        if self.configured_seconds <= 0:
            return 1.0
        return self.actual_seconds / self.configured_seconds


class Deadline:
    """Budget bookkeeping in simulated (scaled) seconds.

    The clock is deterministic: it advances only when work is charged to it
    via :meth:`charge` — the modelled cost of a pipeline fit (see
    :mod:`repro.energy.train_cost`) — never by reading the wall clock.  The
    same seed therefore consumes the same budget on any machine under any
    load, which keeps the strict-adherence disciplines reproducible and
    lets the parallel campaign executor match the serial path bit for bit.
    """

    def __init__(self, real_budget: float):
        self.real_budget = real_budget
        self._consumed = 0.0

    def charge(self, seconds: float) -> None:
        """Advance the simulated clock by ``seconds`` of modelled work."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self._consumed += seconds

    def elapsed(self) -> float:
        return self._consumed

    def left(self) -> float:
        return self.real_budget - self._consumed

    def expired(self) -> bool:
        return self.left() <= 0


class PipelineEvaluator:
    """Train/validate candidate configurations under a deadline.

    Implements the per-evaluation knobs the development-stage tuner exposes
    (Table 5): hold-out fraction, training-set subsampling, per-evaluation
    time cap, resampled validation splits, and optional refit on
    train+validation after selection.
    """

    def __init__(self, X, y, *, holdout_fraction: float = 0.33,
                 resample_validation: bool = False,
                 sample_cap: int | None = None,
                 eval_time_cap: float | None = None,
                 categorical_mask=None, deadline: Deadline | None = None,
                 metric=balanced_accuracy_score, random_state=None,
                 sandbox: bool = False, fault_hook=None):
        if not 0.0 < holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in (0, 1)")
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(y)
        self.holdout_fraction = holdout_fraction
        self.resample_validation = resample_validation
        self.sample_cap = sample_cap
        self.eval_time_cap = eval_time_cap
        self.categorical_mask = categorical_mask
        #: every evaluation's modelled cost is charged to this clock
        self.deadline = deadline
        self.metric = metric
        self._rng = check_random_state(random_state)
        self._split_cache = None
        self.models: list[tuple[float, object]] = []  # (val score, pipeline)
        self.n_evaluations = 0
        #: trial-level sandbox: when True, a raising pipeline evaluation
        #: is recorded on :attr:`failures` as a structured failure and
        #: scored -1.0 — the budget it was charged stays spent, so a
        #: crash is never a silent win (and never aborts the search)
        self.sandbox = sandbox
        #: chaos seam: a callable run once per evaluation (after the
        #: cost is charged); raising simulates a crashing trial
        self.fault_hook = fault_hook
        self.failures: list[FailureRecord] = []

    def _split(self):
        if self.resample_validation or self._split_cache is None:
            seed = int(self._rng.integers(0, 2**31 - 1))
            self._split_cache = train_test_split(
                self.X, self.y, test_size=self.holdout_fraction,
                random_state=seed,
            )
        return self._split_cache

    def _subsample(self, X, y):
        if self.sample_cap is None or self.sample_cap >= len(y):
            return X, y
        from repro.hpo.successive_halving import stratified_subset

        idx = stratified_subset(y, self.sample_cap, self._rng)
        return X[idx], y[idx]

    def evaluate_config(self, config: dict, *, deadline: Deadline | None = None,
                        train_idx=None, keep: bool = True) -> tuple[float, object]:
        """Fit one configuration; returns (validation score, fitted pipeline).

        Raises :class:`BudgetExhaustedError` if the deadline is already gone
        before the evaluation starts (started evaluations run to completion,
        matching how FLAML and friends treat their budget).
        """
        if deadline is not None and deadline.expired():
            raise BudgetExhaustedError("no budget left for another evaluation")
        X_tr, X_val, y_tr, y_val = self._split()
        if train_idx is not None:
            X_tr, y_tr = X_tr[train_idx], y_tr[train_idx]
        X_tr, y_tr = self._subsample(X_tr, y_tr)
        # Charge the modelled cost up front: a fit that fails still consumed
        # budget, and charging before the attempt guarantees the simulated
        # clock advances even when the evaluation raises.
        fit_seconds = estimate_fit_seconds(
            config, len(y_tr), self.X.shape[1]
        )
        clock = deadline if deadline is not None else self.deadline
        if clock is not None:
            clock.charge(fit_seconds)
        with trace_span("trial") as span:
            if span is not None:
                span["attrs"]["digest"] = _config_digest(config)
                span["attrs"]["charged"] = float(fit_seconds)
            try:
                if self.fault_hook is not None:
                    self.fault_hook()
                pipeline = build_pipeline(
                    config,
                    n_features=self.X.shape[1],
                    categorical_mask=self.categorical_mask,
                    random_state=int(self._rng.integers(0, 2**31 - 1)),
                )
                pipeline.fit(X_tr, y_tr)
                if (self.eval_time_cap is not None
                        and fit_seconds > self.eval_time_cap):
                    # the evaluation ran over its cap: charge it but
                    # score as failure
                    self.n_evaluations += 1
                    get_registry().counter("trials.evaluated").inc()
                    return -1.0, pipeline
                score = self.metric(y_val, pipeline.predict(X_val))
            except Exception as exc:
                if not self.sandbox:
                    raise
                # the cost was charged before the attempt, so the crashed
                # evaluation stays paid for — recorded, scored -1.0, and
                # the search continues
                self.n_evaluations += 1
                registry = get_registry()
                registry.counter("trials.evaluated").inc()
                registry.counter("trials.failed").inc()
                if span is not None:
                    span["attrs"]["failed"] = True
                self.failures.append(FailureRecord.from_exception(
                    exc, seam=SEAM_TRIAL_ERROR, attempt=self.n_evaluations,
                ))
                return -1.0, None
            self.n_evaluations += 1
            get_registry().counter("trials.evaluated").inc()
            if keep:
                self.models.append((score, pipeline))
            capture = active_capture()
            if capture is not None:
                # write-through to the evaluation store: OOF predictions
                # are computed only while a capture is installed, never
                # consume RNG draws, and never touch the budget clock —
                # a captured run stays bit-identical to an uncaptured one
                capture.record(
                    config=config, val_score=float(score),
                    kept=bool(keep), charged_s=float(fit_seconds),
                    n_train=len(y_tr), classes=pipeline.classes_,
                    y_val=y_val, oof=pipeline.predict_proba(X_val),
                )
            return score, pipeline

    def refit_on_all(self, config: dict) -> object:
        """Refit a configuration on train+validation (the 'refit' AutoML
        parameter of Table 5)."""
        refit_seconds = estimate_fit_seconds(
            config, len(self.y), self.X.shape[1]
        )
        if self.deadline is not None:
            self.deadline.charge(refit_seconds)
        with trace_span("refit", digest=_config_digest(config),
                        charged=float(refit_seconds)):
            pipeline = build_pipeline(
                config,
                n_features=self.X.shape[1],
                categorical_mask=self.categorical_mask,
                random_state=int(self._rng.integers(0, 2**31 - 1)),
            )
            pipeline.fit(self.X, self.y)
            return pipeline

    def top_models(self, k: int) -> list[object]:
        ranked = sorted(self.models, key=lambda t: t[0], reverse=True)
        return [m for _, m in ranked[:k]]

    @property
    def best(self) -> tuple[float, object] | None:
        if not self.models:
            return None
        return max(self.models, key=lambda t: t[0])


class AutoMLSystem:
    """Abstract AutoML system.

    Subclasses implement :meth:`_search` (returning the deployable model and
    an info dict) and class attributes ``system_name``, ``min_budget_s``,
    ``parallel_fraction`` and ``budget_discipline``.
    """

    system_name: str = "abstract"
    #: smallest supported budget in paper seconds (ASKL: 30, TPOT: 60)
    min_budget_s: float = 0.0
    #: Amdahl fraction for the modelled multi-core path (Fig 5)
    parallel_fraction: float = 0.5
    #: free-text description of how the budget is honoured (Table 7)
    budget_discipline: str = "strict"
    #: True for systems that search until the budget expires (CAML, ASKL,
    #: FLAML, TPOT): on n cores they draw n-core power for the whole budget.
    #: False for plan-bound systems (AutoGluon): a fixed plan finishes
    #: faster on more cores, so multi-core *saves* energy (Fig 5 / O4).
    budget_bound: bool = True

    def __init__(self, *, machine: MachineProfile | None = None,
                 n_cores: int = 1, use_gpu: bool = False,
                 time_scale: float = DEFAULT_TIME_SCALE, random_state=None):
        if n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.machine = machine or (
            XEON_T4_MACHINE if use_gpu else DEFAULT_MACHINE
        )
        if use_gpu and self.machine.gpu is None:
            raise ValueError(f"machine {self.machine.name} has no GPU")
        self.n_cores = min(n_cores, self.machine.n_cores)
        self.use_gpu = use_gpu
        self.time_scale = time_scale
        self.random_state = random_state
        self.model_ = None
        self.fit_result_: FitResult | None = None

    # -- subclass hooks --------------------------------------------------------
    def _search(self, X, y, deadline: Deadline, categorical_mask,
                rng) -> tuple[object, dict]:
        raise NotImplementedError

    def strategy_card(self) -> StrategyCard:
        raise NotImplementedError

    # -- public API --------------------------------------------------------------
    def fit(self, X, y, budget_s: float = 60.0, *,
            categorical_mask=None) -> "AutoMLSystem":
        """Run the AutoML search for ``budget_s`` paper-seconds."""
        if budget_s < self.min_budget_s:
            raise BudgetBelowMinimumError(
                f"{self.system_name} does not support budgets below "
                f"{self.min_budget_s}s (got {budget_s}s) — same restriction "
                f"as in the paper's Figure 3"
            )
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError(f"X must be 2D, got {X.ndim}D")
        if len(X) != len(y):
            raise ValueError(
                f"X and y have inconsistent lengths: {len(X)} != {len(y)}"
            )
        rng = check_random_state(self.random_state)
        speedup = amdahl_speedup(self.parallel_fraction, self.n_cores)
        # n cores deliver `speedup`x the compute inside the same wall budget
        real_budget = budget_s * self.time_scale * speedup
        self._configured_budget_s = budget_s
        deadline = Deadline(real_budget)
        with trace_span("search", system=self.system_name,
                        budget=float(budget_s)) as span:
            model, info = self._search(
                X, y, deadline, categorical_mask, rng
            )
            if span is not None:
                span["attrs"]["charged"] = float(deadline.elapsed())
        # All work the search performed was charged to the simulated clock,
        # so the consumed budget is deterministic for a fixed seed.
        consumed_seconds = deadline.elapsed()
        if model is None:
            raise BudgetExhaustedError(
                f"{self.system_name} evaluated no pipeline within {budget_s}s"
            )
        self.model_ = model

        # Convert scaled simulated time back to budget time.  The
        # single-core work is the consumed charge; on n cores it occupied
        # consumed/speedup budget-seconds of wall time.
        single_core_budget_seconds = consumed_seconds / self.time_scale
        actual_seconds = consumed_seconds / self.time_scale / speedup
        if self.budget_bound:
            # the machine draws n-core power for the whole (busy) budget
            run = budget_bound_execution(
                single_core_budget_seconds / speedup, self.n_cores,
                self.parallel_fraction, self.machine,
            )
        else:
            run = parallel_execution(
                single_core_budget_seconds, self.n_cores,
                self.parallel_fraction, self.machine,
            )
        execution_kwh = run.kwh
        if self.use_gpu:
            execution_kwh, actual_seconds = self._gpu_execution_adjustment(
                execution_kwh, actual_seconds
            )
        self.fit_result_ = FitResult(
            system=self.system_name,
            configured_seconds=budget_s,
            actual_seconds=actual_seconds,
            execution_kwh=execution_kwh,
            n_evaluations=info.get("n_evaluations", 0),
            best_val_score=info.get("best_val_score", float("nan")),
            n_cores=self.n_cores,
            used_gpu=self.use_gpu,
            info=info,
        )
        return self

    def _gpu_execution_adjustment(self, kwh: float,
                                  seconds: float) -> tuple[float, float]:
        """Default GPU execution model: training stays on the CPU while the
        attached accelerator idles (most tabular models cannot use it), so
        energy grows and time barely moves — the AutoGluon row of Table 3."""
        gpu = self.machine.gpu
        idle_kwh = gpu.idle_watts * seconds / 3_600_000.0
        return kwh + idle_kwh + 0.25 * kwh, seconds * 1.0

    # -- prediction ----------------------------------------------------------
    def _require_model(self):
        if self.model_ is None:
            raise NotFittedError(f"{self.system_name} is not fitted")
        return self.model_

    def predict(self, X) -> np.ndarray:
        return self._require_model().predict(X)

    def predict_proba(self, X) -> np.ndarray:
        return self._require_model().predict_proba(X)

    def score(self, X, y) -> float:
        return balanced_accuracy_score(y, self.predict(X))

    # -- deployment variants --------------------------------------------------
    #: variant names in descending inference-cost order; the serving
    #: layer's SLO router walks them to trade accuracy for joules (O1)
    VARIANT_ENSEMBLE = "ensemble"
    VARIANT_REFIT = "refit"
    VARIANT_DISTILLED = "distilled"

    def deployment_variants(self, X=None, y=None, *,
                            random_state=None) -> dict:
        """Deployable models of the fitted search winner, keyed by
        variant name.

        ``ensemble`` is the deployed model exactly as searched.
        ``refit`` is the fast-inference collapse (the preset the paper's
        Figure 6 studies): a model exposing ``refit`` (AutoGluon's
        refit_full) is deep-copied and collapsed on ``X``/``y``;
        otherwise a multi-member ensemble falls back to its
        highest-weighted single member.  Single-model winners omit it
        because it would alias ``ensemble``.  ``distilled`` trains a
        small student on the winner's soft labels over ``X`` (paper
        Sec 5 / ref [17]) and is only produced when reference rows are
        supplied.

        The returned dict is insertion-ordered from most to least
        inference-hungry, which is the accuracy order the serving
        router assumes.
        """
        import copy

        model = self._require_model()
        variants: dict[str, object] = {self.VARIANT_ENSEMBLE: model}
        members = getattr(model, "ensemble_members", None)
        if hasattr(model, "refit") and X is not None and y is not None:
            refit = copy.deepcopy(model)
            refit.refit(np.asarray(X, dtype=float), np.asarray(y))
            variants[self.VARIANT_REFIT] = refit
        elif members is not None and len(members) > 1:
            weights = getattr(model, "weights_", None)
            best = int(np.argmax(weights)) if weights is not None else 0
            variants[self.VARIANT_REFIT] = members[best]
        if X is not None and hasattr(model, "predict_proba"):
            from repro.ensemble.distillation import distill

            variants[self.VARIANT_DISTILLED] = distill(
                model, np.asarray(X, dtype=float),
                random_state=random_state,
            )
        return variants

    # -- inference-energy accounting -----------------------------------------
    def inference_estimate(self, n_samples: int) -> InferenceEstimate:
        """Modelled energy/time to predict ``n_samples`` rows with the
        deployed model on this system's machine."""
        return estimate_inference(
            self._require_model(), n_samples, self.machine,
            use_gpu=self.use_gpu,
        )

    def inference_kwh_per_instance(self, batch: int = 1000) -> float:
        return self.inference_estimate(batch).kwh_per_instance

    @property
    def n_ensemble_members(self) -> int:
        model = self._require_model()
        members = getattr(model, "ensemble_members", None)
        return len(members) if members else 1

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(machine={self.machine.name!r}, "
            f"n_cores={self.n_cores}, use_gpu={self.use_gpu})"
        )
