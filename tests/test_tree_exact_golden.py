"""Golden digests of exact-mode trees.

Every campaign digest (BO surrogates, AutoGluon bags, the stores built
from them) rests on the exact split search, so its output is pinned
bit for bit: the sha256 of each fitted tree's flat arrays
``(feature, threshold, left, right, value, depth)`` over a fixed grid
of fits.  The grid covers both criteria (entropy also at 10 classes),
the regressor, both splitters, every ``max_features`` form the
campaigns use, weighted fits with zero weights, tie-heavy integer
columns, ``min_samples_leaf`` 1 and 2, and the ensembles built on the
trees, including a BO-surrogate-shaped forest.

A mismatch means a tree changed; never regenerate the golden to make a
failure go away.
"""

import hashlib
import itertools

import numpy as np

from repro.datasets import make_classification
from repro.models import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    ExtraTreesClassifier,
    GradientBoostingClassifier,
    RandomForestClassifier,
    RandomForestRegressor,
)

N_ROWS = 120
MAX_FEATURES = (None, "sqrt", 0.8)


def _tree_digest(trees) -> str:
    h = hashlib.sha256()
    for tree in trees:
        t = tree.tree_
        for arr in (t.feature, t.threshold, t.left, t.right, t.value,
                    t.depth):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _datasets():
    rng = np.random.default_rng(7)
    X, y = make_classification(N_ROWS, 7, 3, class_sep=1.0,
                               nonlinearity=0.4, random_state=3)
    # integer columns with four levels: most cuts tie on value and many
    # candidate partitions tie on gain
    Xt = rng.integers(0, 4, (N_ROWS, 6)).astype(float)
    yt = (Xt[:, 0] + Xt[:, 1] + rng.integers(0, 2, N_ROWS)) % 3
    # ten classes: most nodes miss some classes, which is where the
    # entropy of the non-zero proportions regroups numpy's pairwise sum
    Xm = rng.normal(size=(N_ROWS, 6))
    ym = (np.floor(4 * Xm[:, 0] + 3 * Xm[:, 1]) % 10).astype(int)
    yr = np.sin(2 * X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.normal(size=N_ROWS)
    yrt = Xt[:, 0] * Xt[:, 2] + rng.normal(size=N_ROWS).round(1)
    # a few inexact decimal weights, a quarter of them zero: tied gains
    # are common, so any change in summation order shows
    w = rng.choice([0.0, 0.1, 0.2, 0.3, 0.7], N_ROWS,
                   p=[0.25, 0.2, 0.2, 0.2, 0.15])
    return {
        "clf": {"cont": (X, y), "ties": (Xt, yt), "ten": (Xm, ym)},
        "reg": {"cont": (X, yr), "ties": (Xt, yrt)},
        "weights": w,
    }


def _tree_grid(data):
    w = data["weights"]
    grid = itertools.product(("best", "random"), MAX_FEATURES,
                             (False, True), (1, 2))
    for splitter, mf, weighted, leaf in grid:
        tag = f"{splitter}-mf{mf}-{'w' if weighted else 'u'}-leaf{leaf}"
        sw = w if weighted else None
        for crit in ("gini", "entropy"):
            for name, (X, y) in data["clf"].items():
                model = DecisionTreeClassifier(
                    criterion=crit, splitter=splitter, max_features=mf,
                    min_samples_leaf=leaf, random_state=11)
                yield (f"dt-{crit}-{name}-{tag}",
                       [model.fit(X, y, sample_weight=sw)])
        for name, (X, y) in data["reg"].items():
            model = DecisionTreeRegressor(
                splitter=splitter, max_features=mf, min_samples_leaf=leaf,
                random_state=11)
            yield f"dtr-{name}-{tag}", [model.fit(X, y, sample_weight=sw)]


def _limit_and_ensemble_grid(data):
    X, y = data["clf"]["cont"]
    Xr, yr = data["reg"]["cont"]
    # the leaf budget makes the depth-first expansion order visible
    yield "dt-limits", [DecisionTreeClassifier(
        max_depth=4, max_leaf_nodes=6, max_features="sqrt",
        random_state=5).fit(X, y)]
    yield "dtr-limits", [DecisionTreeRegressor(
        max_depth=3, min_samples_split=10, max_features=0.8,
        random_state=5).fit(Xr, yr)]
    # extra-trees on decimal weights and four-level columns: whole trees
    # hinge on gains that tie up to how each side's weight is summed
    for seed, crit in ((0, "entropy"), (27, "gini")):
        rng = np.random.default_rng(seed)
        Xw = rng.integers(0, 4, (N_ROWS, 6)).astype(float)
        yw = (Xw[:, 0] + Xw[:, 1] + rng.integers(0, 2, N_ROWS)) % 3
        ww = rng.choice([0.0, 0.1, 0.2, 0.3, 0.7], N_ROWS)
        yield f"dt-{crit}-random-decimal-weights", [DecisionTreeClassifier(
            criterion=crit, splitter="random", random_state=seed,
        ).fit(Xw, yw, sample_weight=ww)]
    rf = RandomForestClassifier(n_estimators=6, random_state=2).fit(X, y)
    yield "rf", rf.estimators_
    et = ExtraTreesClassifier(n_estimators=6, random_state=2).fit(X, y)
    yield "et", et.estimators_
    gbm = GradientBoostingClassifier(n_estimators=4, max_depth=3,
                                     random_state=2).fit(X, y)
    yield "gbm", [t for stage in gbm.stages_ for t in stage]
    # the BO surrogate: 16 trees on ~20 observed configurations
    surrogate = RandomForestRegressor(
        n_estimators=16, min_samples_leaf=2, max_features=0.8,
        random_state=9).fit(Xr[:20], yr[:20])
    yield "bo-surrogate", surrogate.estimators_


def test_exact_tree_digests_match_golden(golden):
    data = _datasets()
    digests = {
        name: _tree_digest(trees)
        for grid in (_tree_grid, _limit_and_ensemble_grid)
        for name, trees in grid(data)
    }
    golden("tree_exact.json", {"digests": digests})
