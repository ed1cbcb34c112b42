"""Thread-local trial capture: how evaluations reach the store.

The systems layer cannot depend on the campaign runtime (the layer DAG
points the other way), so write-through works like tracing does: the
executor installs a :class:`TrialCapture` around each cell execution,
the :class:`~repro.systems.base.PipelineEvaluator` records every scored
trial into whatever capture is active (a single ``None`` check when
off), and the drained capture travels back to the parent inside the
outcome dict, where the committed attempt's trials are stamped with
the cell identity and ingested into the :class:`EvalStore`.

The slot is *thread*-local, like the tracer's: a sharded coordinator with ``workers=1`` executes cells in-thread from
several shard threads of one process, and a shared slot would
interleave concurrent cells' trials (corrupting the store digest's
layout-invariance).  Pool workers are single-threaded, so thread-local
degrades to process-local there.

Capture never consumes RNG draws and never touches the budget clock —
``predict_proba`` on the validation split is deterministic — so a
captured campaign is bit-identical to an uncaptured one.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.evalstore.records import config_digest


class TrialCapture:
    """Accumulates raw trial dicts for one cell execution."""

    def __init__(self):
        self.trials: list[dict] = []

    def record(self, *, config: dict, val_score: float, kept: bool,
               charged_s: float, n_train: int, classes, y_val,
               oof) -> None:
        """One scored evaluation; arrays are converted to plain lists
        so the dict pickles through the pool and serialises to JSON
        without carrying dtype state."""
        self.trials.append({
            "trial_index": len(self.trials),
            "config": dict(config),
            "config_digest": config_digest(config),
            "val_score": float(val_score),
            "kept": bool(kept),
            "charged_s": float(charged_s),
            "n_train": int(n_train),
            "classes": np.asarray(classes).tolist(),
            "y_val": np.asarray(y_val).tolist(),
            "oof": np.asarray(oof, dtype=float).tolist(),
        })

    def drain(self) -> list[dict]:
        trials, self.trials = self.trials, []
        return trials


#: the thread-local capture slot (the tracer-slot pattern: each
#: executing thread installs its own, the parent never reads another
#: thread's slot)
_SLOT = threading.local()  # repro-lint: disable=GRN102  # per-thread capture slot


def install_capture(capture: TrialCapture | None = None) -> TrialCapture:
    capture = capture or TrialCapture()
    _SLOT.capture = capture
    return capture


def uninstall_capture() -> None:
    _SLOT.capture = None


def active_capture() -> TrialCapture | None:
    return getattr(_SLOT, "capture", None)
