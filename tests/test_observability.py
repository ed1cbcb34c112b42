"""The observability layer: tracer, metrics registry, reports, and the
end-to-end contracts — spans journalled per cell, queue-wait histogram
populated under a pool, and the non-negotiable one: tracing never
changes campaign results (bit-identity across worker counts and across
tracing on/off).
"""

import json
import threading
from dataclasses import asdict

import pytest

from repro.experiments import ExperimentConfig, run_grid
from repro.observability import (
    MetricsRegistry,
    Tracer,
    get_tracer,
    install_tracer,
    iter_spans,
    merge_snapshots,
    phase_rollup,
    profile_rows,
    render_span_tree,
    self_seconds,
    trace_span,
    uninstall_tracer,
    validate_span_tree,
)

MINI = ExperimentConfig(
    systems=("TabPFN", "CAML"),
    datasets=("credit-g",),
    budgets=(10.0,),
    n_runs=1,
    time_scale=0.004,
)


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    uninstall_tracer()
    yield
    uninstall_tracer()


# --------------------------------------------------------------------------- #
# tracer unit behaviour
# --------------------------------------------------------------------------- #
class TestTracer:
    def test_hooks_are_noops_without_tracer(self):
        assert get_tracer() is None
        with trace_span("anything", key="value") as span:
            assert span is None

    def test_tick_clock_spans_are_deterministic(self):
        def run_once():
            tracer = install_tracer(Tracer())
            with trace_span("outer", system="X"):
                with trace_span("inner"):
                    pass
                with trace_span("inner"):
                    pass
            roots = tracer.drain()
            uninstall_tracer()
            return roots

        assert run_once() == run_once()

    def test_nesting_and_attrs(self):
        tracer = install_tracer(Tracer())
        with trace_span("outer") as outer:
            with trace_span("inner", digest="abc") as inner:
                assert inner["attrs"]["digest"] == "abc"
        (root,) = tracer.drain()
        assert root is outer
        assert root["children"] == [inner]
        assert validate_span_tree(root) == []

    def test_close_rejects_non_innermost(self):
        tracer = Tracer()
        outer = tracer.open("outer")
        tracer.open("inner")
        with pytest.raises(ValueError):
            tracer.close(outer)

    def test_drain_closes_dangling_spans(self):
        tracer = install_tracer(Tracer())
        with pytest.raises(RuntimeError):
            with trace_span("outer"):
                tracer.open("leaked")   # never closed: exception path
                raise RuntimeError("boom")
        roots = tracer.drain()
        assert len(roots) == 1
        assert validate_span_tree(roots[0]) == []

    def test_tracer_slot_is_per_thread(self):
        """Two threads trace at once (an in-thread sharded campaign):
        each thread's spans land only in its own tracer."""
        barrier = threading.Barrier(2)
        drained: dict[str, list] = {}

        def traced(name):
            tracer = install_tracer(Tracer())
            try:
                barrier.wait(timeout=10)   # both tracers installed
                with trace_span("cell", owner=name):
                    barrier.wait(timeout=10)   # both roots open at once
                    with trace_span("fit", owner=name):
                        barrier.wait(timeout=10)
            finally:
                uninstall_tracer()
            drained[name] = tracer.drain()

        threads = [threading.Thread(target=traced, args=(name,))
                   for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert get_tracer() is None   # this thread never installed one
        assert sorted(drained) == ["a", "b"]
        for name, roots in drained.items():
            assert len(roots) == 1
            assert [(s["name"], s["attrs"]["owner"])
                    for s, _ in iter_spans(roots[0])] \
                == [("cell", name), ("fit", name)]

    def test_wall_clock_tracer_tags_domain(self):
        fake = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(fake)))
        with tracer.span("timed"):
            pass
        (root,) = tracer.drain()
        assert root["clock"] == "wall"
        assert root["t1"] > root["t0"]


# --------------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_gauge_histogram_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(7.5)
        hist = registry.histogram("h", (1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(99.0)
        snap = registry.snapshot()
        assert snap["c"] == {"type": "counter", "value": 3.0}
        assert snap["g"] == {"type": "gauge", "value": 7.5}
        assert snap["h"]["counts"] == [1, 1, 1]
        assert snap["h"]["count"] == 3

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(TypeError):
            registry.gauge("name")

    def test_drain_prevents_double_counting(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        first = registry.drain()
        second = registry.drain()
        assert first["c"]["value"] == 2.0
        assert second == {}

    def test_merge_adds_counters_and_maxes_gauges(self):
        a = MetricsRegistry()
        a.counter("c").inc(2)
        a.gauge("g").set(5)
        b = MetricsRegistry()
        b.counter("c").inc(3)
        b.gauge("g").set(4)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert merged["c"]["value"] == 5.0
        assert merged["g"]["value"] == 5.0

    def test_histogram_edge_mismatch_raises(self):
        a = MetricsRegistry()
        a.histogram("h", (1.0,)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("h", (2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            merge_snapshots(a.snapshot(), b.snapshot())


# --------------------------------------------------------------------------- #
# reports
# --------------------------------------------------------------------------- #
def _demo_tree():
    tracer = install_tracer(Tracer())
    with trace_span("cell", system="CAML", dataset="credit-g"):
        with trace_span("fit"):
            with trace_span("trial", charged=2.0):
                pass
            with trace_span("trial", charged=1.0):
                pass
        with trace_span("score"):
            pass
    (root,) = tracer.drain()
    uninstall_tracer()
    return root


class TestReports:
    def test_self_seconds_subtracts_same_clock_children(self):
        root = _demo_tree()
        for span, _ in iter_spans(root):
            assert self_seconds(span) >= 0.0

    def test_render_names_every_span(self):
        text = render_span_tree(_demo_tree())
        for name in ("cell", "fit", "trial", "score"):
            assert name in text
        assert "system=CAML" in text

    def test_phase_rollup_prefers_charged_shares(self):
        rows = phase_rollup([_demo_tree()])
        by_phase = {r["phase"]: r for r in rows}
        # all the charged budget lives on the trials, so trial share = 1
        assert by_phase["trial"]["charged_s"] == pytest.approx(3.0)
        assert by_phase["trial"]["share"] == pytest.approx(1.0)
        assert by_phase["score"]["share"] == pytest.approx(0.0)

    def test_profile_rows_sorted_by_self_time(self):
        rows = profile_rows([_demo_tree()])
        self_times = [r["self_s"] for r in rows]
        assert self_times == sorted(self_times, reverse=True)
        assert sum(r["share"] for r in rows) == pytest.approx(1.0)


# --------------------------------------------------------------------------- #
# end-to-end: spans through the executor and journal
# --------------------------------------------------------------------------- #
class TestTracedCampaign:
    def test_serial_trace_journals_spans_per_cell(self, tmp_path):
        journal_path = tmp_path / "j.jsonl"
        telemetry = {}
        store = run_grid(
            MINI, journal_path=journal_path, trace=True,
            telemetry=telemetry,
        )
        events = [json.loads(line)
                  for line in journal_path.read_text().splitlines()]
        spans_events = [e for e in events if e["type"] == "spans"]
        executed = {e["index"] for e in events if e["type"] == "cell"}
        assert {e["index"] for e in spans_events} == executed
        assert len(store) == len(executed)
        for event in spans_events:
            for root in event["spans"]:
                assert validate_span_tree(root) == []
                names = [s["name"] for s, _ in iter_spans(root)]
                assert names[0] == "cell_lifecycle"
                assert "cell" in names      # worker tree nested inside
                assert "trial" in names or "fit" in names
        # the merged metrics snapshot is journalled too
        metrics_events = [e for e in events if e["type"] == "metrics"]
        assert len(metrics_events) == 1
        assert "cells.executed" in metrics_events[0]["snapshot"]
        assert telemetry["metrics"]["trials.evaluated"]["value"] > 0

    def test_sharded_in_thread_spans_stay_with_their_cell(self, tmp_path):
        """Shard threads trace concurrently in one process: every spans
        event must hold exactly one worker root, the ``cell`` span of
        the cell its index committed."""
        journal_path = tmp_path / "j.jsonl"
        config = ExperimentConfig(
            systems=("CAML", "FLAML"), datasets=("credit-g", "kc1"),
            budgets=(10.0,), n_runs=2, time_scale=0.004,
        )
        run_grid(config, shards=2, workers=1, trace=True,
                 journal_path=journal_path)
        events = [json.loads(line)
                  for line in journal_path.read_text().splitlines()]
        records = {e["index"]: e["record"]
                   for e in events if e["type"] == "cell"}
        spans_events = [e for e in events if e["type"] == "spans"]
        assert {e["index"] for e in spans_events} == set(records)
        for event in spans_events:
            (root,) = event["spans"]
            (execute,) = [child for child in root["children"]
                          if child["name"] == "execute"]
            (cell,) = execute["children"]
            record = records[event["index"]]
            assert cell["name"] == "cell"
            assert [cell["attrs"][k] for k in ("system", "dataset", "seed")] \
                == [record["system"], record["dataset"], record["seed"]]

    def test_untraced_journal_has_no_observability_records(self, tmp_path):
        journal_path = tmp_path / "j.jsonl"
        run_grid(MINI, journal_path=journal_path)
        kinds = {json.loads(line)["type"]
                 for line in journal_path.read_text().splitlines()}
        assert "spans" not in kinds
        assert "metrics" not in kinds

    def test_pooled_trace_fills_queue_wait_histogram(self, tmp_path):
        telemetry = {}
        run_grid(
            MINI, workers=2, trace=True, telemetry=telemetry,
            journal_path=tmp_path / "j.jsonl",
        )
        hist = telemetry["metrics"]["executor.queue_wait_seconds"]
        assert hist["type"] == "histogram"
        assert hist["count"] > 0
        spans = telemetry["spans"]
        assert spans, "pooled traced run must report cell spans"
        for event in spans:
            root = event["spans"][0]
            child_names = [c["name"] for c in root["children"]]
            assert "queue_wait" in child_names
            assert "execute" in child_names

    def test_energy_span_tags_measurement_source(self):
        from repro.datasets import load_dataset
        from repro.energy.tracker import EnergyTracker
        from repro.experiments import run_single

        tracer = install_tracer(Tracer())
        run_single("TabPFN", load_dataset("credit-g"), 10.0,
                   seed=7, time_scale=0.004,
                   energy_meter=EnergyTracker())
        roots = tracer.drain()
        energy = [s for root in roots for s, _ in iter_spans(root)
                  if s["name"] == "energy"]
        assert len(energy) == 1
        assert energy[0]["attrs"]["source"] in ("measured", "estimated")
        assert energy[0]["attrs"]["kwh"] > 0


# --------------------------------------------------------------------------- #
# determinism matrix: tracing must never change results
# --------------------------------------------------------------------------- #
def _records_payload(store):
    return [asdict(r) for r in sorted(
        store.records,
        key=lambda r: (r.system, r.dataset, r.configured_seconds, r.seed),
    )]


class TestDeterminismMatrix:
    @pytest.fixture(scope="class")
    def reference(self):
        """Untraced serial baseline, one per seed."""
        out = {}
        for seed in (7, 19, 403):
            config = ExperimentConfig(
                systems=("TabPFN", "CAML"), datasets=("credit-g",),
                budgets=(10.0,), n_runs=1, time_scale=0.004,
                base_seed=seed,
            )
            out[seed] = _records_payload(run_grid(config))
        return out

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("seed", [7, 19, 403])
    def test_traced_run_matches_untraced_reference(
            self, reference, workers, seed):
        config = ExperimentConfig(
            systems=("TabPFN", "CAML"), datasets=("credit-g",),
            budgets=(10.0,), n_runs=1, time_scale=0.004,
            base_seed=seed,
        )
        traced = run_grid(config, workers=workers, trace=True)
        assert _records_payload(traced) == reference[seed]

    def test_traced_and_untraced_journals_agree_modulo_spans(
            self, tmp_path):
        paths = {name: tmp_path / f"{name}.jsonl"
                 for name in ("traced", "plain")}
        run_grid(MINI, journal_path=paths["traced"], trace=True)
        run_grid(MINI, journal_path=paths["plain"])

        def result_events(path):
            return [json.loads(line)
                    for line in path.read_text().splitlines()
                    if json.loads(line)["type"] not in ("spans", "metrics")]

        assert result_events(paths["traced"]) \
            == result_events(paths["plain"])
