"""Speed bench — histogram-binned tree kernels vs the exact builders.

Fits the tree family (DT, RF, ET, GBM) twice on the same synthetic
table — once with the exact sort-based split search, once with the
histogram-binned builder — and records fits/s, rows/s and cells/s plus
the binned-vs-exact prediction agreement into ``BENCH_models.json``.
Prediction throughput on the held-out rows is recorded for the
ensembles (RF/ET/GBM, through the flat forest descent) and for kNN, the
inference-bound member of the zoo (through the blocked pairwise kernel).
The RF's probabilities must equal the sum of its trees' probabilities,
added in tree order, bit for bit.

``REPRO_BENCH_SMOKE=1`` shrinks the grid for CI; the committed artefact
comes from a full local run, where the binned RF/GBM fits clear 5x.
The CI gate only asserts the conservative 2x floor.
"""

import os

import numpy as np
from conftest import emit, write_bench_json

from repro.analysis.reporting import format_table
from repro.datasets import make_classification
from repro.models import (
    DecisionTreeClassifier,
    ExtraTreesClassifier,
    GradientBoostingClassifier,
    KNeighborsClassifier,
    RandomForestClassifier,
)
from repro.utils.timer import Stopwatch, WallClock

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
N_ROWS = 3_000 if SMOKE else 20_000
N_TEST = 1_000 if SMOKE else 4_000
N_FEATURES = 20 if SMOKE else 40
N_CLASSES = 3
N_TREES = 10 if SMOKE else 30
MAX_BINS = 255
SEED = 0
#: binned split search may tie-break differently than the exact scan, so
#: "equal predictions" is agreement on held-out rows, not bit identity
MIN_AGREEMENT = 0.9
#: conservative CI floor; local full runs show >=5x for RF/GBM
MIN_SPEEDUP = 2.0


def _models():
    return [
        ("DT", lambda b: DecisionTreeClassifier(
            max_depth=12, random_state=SEED, binning=b)),
        ("RF", lambda b: RandomForestClassifier(
            n_estimators=N_TREES, random_state=SEED, binning=b)),
        ("ET", lambda b: ExtraTreesClassifier(
            n_estimators=N_TREES, random_state=SEED, binning=b)),
        ("GBM", lambda b: GradientBoostingClassifier(
            n_estimators=N_TREES, max_depth=3, random_state=SEED,
            binning=b)),
    ]


def _run_models_bench():
    X, y = make_classification(
        N_ROWS + N_TEST, N_FEATURES, N_CLASSES, class_sep=1.2,
        nonlinearity=0.3, random_state=SEED,
    )
    X, Xt = X[:N_ROWS], X[N_ROWS:]
    y, yt = y[:N_ROWS], y[N_ROWS:]
    results = {}
    for name, make in _models():
        with Stopwatch(WallClock()) as w_exact:
            exact = make(None).fit(X, y)
        with Stopwatch(WallClock()) as w_binned:
            binned = make(MAX_BINS).fit(X, y)
        with Stopwatch(WallClock()) as w_pred:
            pred_e = exact.predict(Xt)
        pred_b = binned.predict(Xt)
        t_e, t_b = w_exact.elapsed, w_binned.elapsed
        if name == "RF":
            by_tree = sum(t.predict_proba(Xt) for t in exact.estimators_)
            assert np.array_equal(exact.predict_proba(Xt),
                                  by_tree / N_TREES), \
                "RF probabilities must be its trees' sum in tree order"
        results[name] = {
            "acc_binned": round(float((pred_b == yt).mean()), 4),
            "acc_exact": round(float((pred_e == yt).mean()), 4),
            "agreement": round(float((pred_e == pred_b).mean()), 4),
            "binned_s": round(t_b, 3),
            "cells_per_s": round(N_ROWS * N_FEATURES / t_b, 1),
            "exact_s": round(t_e, 3),
            "fits_per_s": round(1.0 / t_b, 4),
            "rows_per_s": round(N_ROWS / t_b, 1),
            "speedup": round(t_e / t_b, 2),
        }
        if name != "DT":
            results[name]["predict_rows_per_s"] = round(
                len(Xt) / w_pred.elapsed, 1)
    # kNN: all the cost is inference through the blocked pairwise kernel
    knn = KNeighborsClassifier(n_neighbors=5)
    with Stopwatch(WallClock()) as w_fit:
        knn.fit(X, y)
    with Stopwatch(WallClock()) as w_pred:
        pred = knn.predict(Xt)
    results["kNN"] = {
        "acc": round(float((pred == yt).mean()), 4),
        "fit_s": round(w_fit.elapsed, 3),
        "fits_per_s": round(1.0 / max(w_fit.elapsed, 1e-9), 1),
        "predict_rows_per_s": round(len(Xt) / w_pred.elapsed, 1),
        "predict_s": round(w_pred.elapsed, 3),
    }
    return results


def test_speed_models(benchmark):
    results = benchmark.pedantic(_run_models_bench, rounds=1, iterations=1)
    path = write_bench_json("BENCH_models.json", {
        "config": {
            "max_bins": MAX_BINS,
            "n_classes": N_CLASSES,
            "n_features": N_FEATURES,
            "n_rows": N_ROWS,
            "n_trees": N_TREES,
            "smoke": SMOKE,
        },
        "models": results,
    })
    rows = [
        [name, f"{r['exact_s']:.2f}", f"{r['binned_s']:.2f}",
         f"{r['speedup']:.1f}x", f"{r['agreement']:.3f}",
         f"{r['rows_per_s']:,.0f}", f"{r['fits_per_s']:.2f}"]
        for name, r in results.items() if name != "kNN"
    ]
    knn = results["kNN"]
    emit(f"Model-zoo fit speed — n={N_ROWS:,}, d={N_FEATURES}, "
         f"{N_TREES} trees, {MAX_BINS} bins\n\n"
         + format_table(
             ["model", "exact s", "binned s", "speedup", "agree",
              "rows/s", "fits/s"], rows)
         + "\n\npredict rows/s: " + ", ".join(
             f"{name} {results[name]['predict_rows_per_s']:,.0f}"
             for name in ("RF", "ET", "GBM", "kNN"))
         + f"\nkNN fit {knn['fit_s']:.3f}s\nwrote {path}")
    for name in ("RF", "GBM"):
        r = results[name]
        assert r["speedup"] >= MIN_SPEEDUP, \
            f"{name} binned fit must stay >={MIN_SPEEDUP}x the exact fit"
        assert r["agreement"] >= MIN_AGREEMENT, \
            f"{name} binned predictions must track the exact builder"
    assert results["ET"]["agreement"] >= 0.8  # random-splitter tolerance
    assert abs(results["DT"]["acc_exact"]
               - results["DT"]["acc_binned"]) < 0.05
