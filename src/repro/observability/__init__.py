"""Campaign observability: tracing spans, metrics, and span reports.

The paper is a *measurement* study — its claims rest on knowing where
time and energy go inside each AutoML system.  This package is the
instrumentation layer the rest of the stack threads through:

- :mod:`repro.observability.tracing` — lightweight hierarchical spans.
  A per-thread :class:`Tracer` with an *injected* clock (default: a
  deterministic tick counter, so GRN004 stays clean and span trees are
  reproducible under the simulated budget clock) records one tree per
  cell: ``cell`` → ``fit`` → ``search`` → ``trial``/``ensemble``/
  ``refit``, plus the executor's ``submit``/``queue_wait``/``execute``/
  ``commit`` scheduling spans.
- :mod:`repro.observability.metrics` — named counters, gauges and
  fixed-bucket numpy-backed histograms with snapshot/merge semantics,
  so per-worker registries fold into one campaign view.
- :mod:`repro.observability.report` — pure functions over serialised
  span dicts: tree rendering, per-phase rollups and the ``--profile``
  self-time table.

The layer sits at the bottom of the GRN002 DAG (ranked with ``faults``)
so runtime, energy, systems and experiments can all import it; it
imports nothing above ``utils``.  Tracing is OFF by default and every
hook is a no-op until a tracer is installed — instrumentation must
never perturb results (the determinism-matrix test pins this).
"""

from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    get_registry,
    merge_snapshots,
    reset_registry,
)
from repro.observability.report import (
    iter_spans,
    phase_rollup,
    profile_rows,
    render_span_tree,
    self_seconds,
)
from repro.observability.tracing import (
    CLOCK_SIM,
    CLOCK_TICKS,
    CLOCK_WALL,
    Tracer,
    current_span,
    get_tracer,
    install_tracer,
    make_span,
    trace_span,
    uninstall_tracer,
    validate_span_tree,
)

__all__ = [
    "CLOCK_SIM",
    "CLOCK_TICKS",
    "CLOCK_WALL",
    "Tracer",
    "make_span",
    "trace_span",
    "current_span",
    "install_tracer",
    "uninstall_tracer",
    "get_tracer",
    "validate_span_tree",
    "MetricsRegistry",
    "merge_snapshots",
    "get_registry",
    "reset_registry",
    "DEFAULT_BUCKETS",
    "iter_spans",
    "self_seconds",
    "render_span_tree",
    "phase_rollup",
    "profile_rows",
]
