"""Smoke check of the benchmark's own code.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload at its tiny size, untraced and traced, each in a
fresh process as the benchmark is run, and checks that the printed
metrics are exactly the ones ``BENCHMARK.json`` names.  In-process, it
checks that the tracer puts every object it wrapped back and that the
spans of a traced pass nest inside their parents.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    info, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_workload_prints_its_metrics(workload, trace, section):
    info, result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], info["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert info["env"]["seed"] == 0 and info["env"]["nproc"] >= 1


def test_per_layer_table_matches_benchmark_json():
    sys.path.insert(0, str(HERE))
    import tracing

    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] \
        == [(name, unit, better) for name, unit, better, _ in tracing.PER_LAYER]


def _attributes() -> dict:
    """Every attribute of every ``repro`` module and class, by identity."""
    seen = {}
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            seen[(mod_name, attr)] = value
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    seen[(mod_name, attr, cattr)] = cvalue
    return seen


def test_tracer_restores_originals_and_nests_spans(tmp_path):
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads
    from repro.utils.timer import WallClock

    workload = workloads.make("askl-bo", 0, "tiny")

    def run_once(work_dir):
        workload.setup(work_dir, 0)
        (work_dir / "pass").mkdir(parents=True)
        return workload.run(work_dir / "pass")

    tracer = tracing.Tracer(WallClock(), [workloads])
    tracing.import_all()
    run_once(tmp_path / "warm")  # lets lazily set module state settle
    before = _attributes()
    tracer.install()
    try:
        out = run_once(tmp_path / "traced")
    finally:
        assert tracer.restore() == []
    after = _attributes()
    assert out.failed == 0
    changed = [key for key, value in before.items()
               if after.get(key) is not value]
    assert changed == []

    spans = tracer.take()
    assert tracing.check_spans(spans) == []
    names = {span[0] for span in spans}
    assert {"runtime.grid", "hpo.ask", "models.tree.fit",
            "evalstore.put", "datasets.load"} <= names
    # a child that outlives its parent is reported
    bad = [["a", 0.0, 1.0, -1, None], ["b", 0.5, 1.5, 0, None]]
    assert tracing.check_spans(bad)
