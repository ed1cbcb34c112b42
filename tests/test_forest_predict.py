"""The flat forest descent against the per-tree loops it replaced.

The oracle below is prediction as it was before every ensemble's trees
were descended together: one tree at a time, each walked level by level
on its own node arrays, its outputs added to the ensemble's accumulator
in tree order.  Every ensemble must reproduce it bit for bit, on empty,
tiny, 1-D and multi-block batches, and predicting must leave the fitted
model's pickle unchanged (the descent caches nothing on it).
"""

import pickle

import numpy as np
import pytest

from repro.models import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    ExtraTreesClassifier,
    GradientBoostingClassifier,
    RandomForestClassifier,
    RandomForestRegressor,
)
from repro.models.binning import FeatureBinner
from repro.models.tree import _SCAN_BLOCK_ELEMENTS

#: enough rows that a 20-tree ensemble descends in at least 3 blocks
N_MANY = 20_000


def _reference_apply(tree_, X, binned=False):
    """The one-tree level-wise descent."""
    threshold = tree_.bin_threshold if binned else tree_.threshold
    nodes = np.zeros(X.shape[0], dtype=np.int64)
    active = tree_.feature[nodes] != -1
    while np.any(active):
        idx = np.flatnonzero(active)
        cur = nodes[idx]
        go_left = X[idx, tree_.feature[cur]] <= threshold[cur]
        nodes[idx] = np.where(go_left, tree_.left[cur], tree_.right[cur])
        active[idx] = tree_.feature[nodes[idx]] != -1
    return nodes


def _rows(X):
    X = np.asarray(X, dtype=float)
    return X.reshape(-1, 1) if X.ndim == 1 else X


def _tree_value(tree, X):
    return tree.tree_.value[_reference_apply(tree.tree_, _rows(X))]


def _reference_forest_proba(rf, X):
    X = _rows(X)
    k = len(rf.classes_)
    out = np.zeros((X.shape[0], k))
    for tree in rf.estimators_:
        proba = _tree_value(tree, X)
        if proba.shape[1] == k:
            out += proba
        else:
            for j, code in enumerate(tree.classes_):
                out[:, int(code)] += proba[:, j]
    return out / len(rf.estimators_)


def _reference_tree_predictions(reg, X):
    return np.stack([_tree_value(t, X)[:, 0] for t in reg.estimators_])


def _reference_gbm_proba(gbm, X):
    X = _rows(X)
    raw = np.tile(gbm.init_raw_, (X.shape[0], 1))
    for stage in gbm.stages_:
        for c, tree in enumerate(stage):
            raw[:, c] += gbm.learning_rate * _tree_value(tree, X)[:, 0]
    raw -= raw.max(axis=1, keepdims=True)
    e = np.exp(raw)
    return e / e.sum(axis=1, keepdims=True)


def _reference_ada_proba(ada, X):
    X = _rows(X)
    k = len(ada.classes_)
    votes = np.zeros((X.shape[0], k))
    for tree, alpha in zip(ada.estimators_, ada.estimator_weights_):
        proba = np.zeros_like(votes)
        local = _tree_value(tree, X)
        for j, c in enumerate(tree.classes_):
            proba[:, int(c)] = local[:, j]
        votes += alpha * proba
    total = votes.sum(axis=1, keepdims=True)
    return votes / np.maximum(total, 1e-12)


def _classification(n=300, d=4, seed=0):
    """Three classes, the middle one a single row, so bootstraps can miss
    it and a tree's columns must be scattered, not just padded."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = np.where(X[:, 0] + 0.5 * X[:, 1] > 0, 2, 0)
    y[0] = 1
    return X, y


def _batches(d, seed=1):
    rng = np.random.default_rng(seed)
    return {
        "0 rows": np.empty((0, d)),
        "1 row": rng.normal(size=(1, d)),
        "2 rows": rng.normal(size=(2, d)),
        "many rows": rng.normal(size=(N_MANY, d)),
    }


CLASSIFIERS = {
    "rf": lambda: RandomForestClassifier(n_estimators=20, max_depth=8,
                                         random_state=0),
    "et": lambda: ExtraTreesClassifier(n_estimators=20, max_depth=8,
                                       bootstrap=True, random_state=0),
    "gbm": lambda: GradientBoostingClassifier(n_estimators=8, max_depth=3,
                                              random_state=0),
    "ada": lambda: AdaBoostClassifier(n_estimators=20, max_depth=2,
                                      random_state=2),
}
ORACLES = {"rf": _reference_forest_proba, "et": _reference_forest_proba,
           "gbm": _reference_gbm_proba, "ada": _reference_ada_proba}


def _trees(model):
    if hasattr(model, "stages_"):
        return [t for stage in model.stages_ for t in stage]
    return model.estimators_


@pytest.fixture(scope="module")
def classifiers():
    X, y = _classification()
    return {name: make().fit(X, y) for name, make in CLASSIFIERS.items()}


@pytest.fixture(scope="module")
def regressor():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(150, 3))
    y = X[:, 0] - 2 * X[:, 2] + 0.1 * rng.normal(size=150)
    return RandomForestRegressor(n_estimators=20, max_depth=8,
                                 max_features=0.8, random_state=0).fit(X, y)


class TestEnsemblesMatchPerTreeLoop:
    @pytest.mark.parametrize("name", sorted(CLASSIFIERS))
    @pytest.mark.parametrize("batch", ["0 rows", "1 row", "2 rows",
                                       "many rows"])
    def test_classifier_proba(self, classifiers, name, batch):
        model = classifiers[name]
        X = _batches(4)[batch]
        expected = ORACLES[name](model, X)
        assert np.array_equal(model.predict_proba(X), expected)

    @pytest.mark.parametrize("name", ["rf", "et", "ada"])
    def test_bootstrap_misses_a_class(self, classifiers, name):
        model = classifiers[name]
        k = len(model.classes_)
        assert any(len(t.classes_) < k for t in model.estimators_)
        X = _batches(4)["2 rows"]
        assert np.array_equal(model.predict_proba(X),
                              ORACLES[name](model, X))

    @pytest.mark.parametrize("name", sorted(CLASSIFIERS))
    def test_many_rows_span_three_blocks(self, classifiers, name):
        per_block = _SCAN_BLOCK_ELEMENTS // N_MANY
        assert len(_trees(classifiers[name])) > 2 * per_block

    @pytest.mark.parametrize("batch", ["0 rows", "1 row", "2 rows",
                                       "many rows"])
    def test_regressor_predict_and_std(self, regressor, batch):
        X = _batches(3)[batch]
        preds = _reference_tree_predictions(regressor, X)
        assert len(regressor.estimators_) > 2 * (
            _SCAN_BLOCK_ELEMENTS // N_MANY)
        assert np.array_equal(regressor.predict(X), preds.mean(axis=0))
        mu, sd = regressor.predict_with_std(X)
        assert np.array_equal(mu, preds.mean(axis=0))
        assert np.array_equal(sd, preds.std(axis=0))

    def test_one_dimensional_input(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=90)
        y = np.where(x > 0.2, 2, 0)
        y[0] = 1
        q = rng.normal(size=7)
        for name, make in CLASSIFIERS.items():
            model = make().fit(x.reshape(-1, 1), y)
            assert np.array_equal(model.predict_proba(q),
                                  ORACLES[name](model, q)), name
        reg = RandomForestRegressor(n_estimators=9, random_state=0)
        reg.fit(x, x**2)
        preds = _reference_tree_predictions(reg, q)
        assert np.array_equal(reg.predict(q), preds.mean(axis=0))

    @pytest.mark.parametrize("name", sorted(CLASSIFIERS))
    def test_predict_leaves_pickle_unchanged(self, name):
        X, y = _classification(seed=3)
        model = CLASSIFIERS[name]().fit(X, y)
        before = pickle.dumps(model)
        model.predict_proba(X)
        assert pickle.dumps(model) == before

    def test_regressor_predict_leaves_pickle_unchanged(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(80, 3))
        reg = RandomForestRegressor(n_estimators=6, random_state=0)
        reg.fit(X, X[:, 0])
        before = pickle.dumps(reg)
        reg.predict(X)
        reg.predict_with_std(X)
        assert pickle.dumps(reg) == before


class TestSingleTree:
    @pytest.mark.parametrize("batch", ["0 rows", "1 row", "2 rows",
                                       "many rows"])
    def test_classifier_and_regressor_predict(self, batch):
        X_fit, y = _classification(n=200)
        X = _batches(4)[batch]
        clf = DecisionTreeClassifier(random_state=0).fit(X_fit, y)
        assert np.array_equal(clf.predict_proba(X), _tree_value(clf, X))
        reg = DecisionTreeRegressor(max_depth=6, random_state=0)
        reg.fit(X_fit, X_fit[:, 0] * X_fit[:, 1])
        assert np.array_equal(reg.predict(X), _tree_value(reg, X)[:, 0])

    @pytest.mark.parametrize("batch", ["0 rows", "1 row", "2 rows",
                                       "many rows"])
    def test_predict_binned(self, batch):
        X_fit, _ = _classification(n=300)
        binner = FeatureBinner(32).fit(X_fit)
        reg = DecisionTreeRegressor(max_depth=6, random_state=0)
        reg.fit_binned(binner.transform(X_fit), X_fit[:, 0] - X_fit[:, 3],
                       binner.edges_)
        X = _batches(4)[batch]
        Xb = (binner.transform(X) if len(X)
              else np.empty((0, 4), dtype=np.uint8))
        leaves = _reference_apply(reg.tree_, Xb, binned=True)
        assert np.array_equal(reg.predict_binned(Xb),
                              reg.tree_.value[leaves][:, 0])

    def test_apply_binned_needs_a_binned_fit(self):
        X, y = _classification()
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y.astype(float))
        with pytest.raises(ValueError):
            tree.tree_.apply_binned(np.zeros((2, 4), dtype=np.uint8))

    def test_one_dimensional_input(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=60)
        tree = DecisionTreeRegressor(random_state=0).fit(x, np.sin(x))
        q = rng.normal(size=5)
        assert np.array_equal(tree.predict(q), _tree_value(tree, q)[:, 0])
