import numpy as np
import pytest

from repro.exceptions import NotFittedError
from repro.metrics import balanced_accuracy_score
from repro.models import DecisionTreeClassifier, DecisionTreeRegressor
from repro.models import tree as tree_module


class TestClassifier:
    def test_fits_separable_data(self, split_binary):
        X_tr, X_te, y_tr, y_te = split_binary
        tree = DecisionTreeClassifier(random_state=0).fit(X_tr, y_tr)
        assert balanced_accuracy_score(y_te, tree.predict(X_te)) > 0.75

    def test_perfect_on_training_without_depth_limit(self, binary_data):
        X, y = binary_data
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert tree.score(X, y) == pytest.approx(1.0)

    def test_max_depth_respected(self, binary_data):
        X, y = binary_data
        tree = DecisionTreeClassifier(max_depth=3, random_state=0).fit(X, y)
        assert tree.get_depth() <= 3

    def test_min_samples_leaf(self, binary_data):
        X, y = binary_data
        tree = DecisionTreeClassifier(min_samples_leaf=30,
                                      random_state=0).fit(X, y)
        leaves = tree.tree_.apply(X)
        _, counts = np.unique(leaves, return_counts=True)
        assert counts.min() >= 30

    def test_max_leaf_nodes(self, binary_data):
        X, y = binary_data
        tree = DecisionTreeClassifier(max_leaf_nodes=4,
                                      random_state=0).fit(X, y)
        assert np.sum(tree.tree_.feature == -1) <= 4

    def test_proba_rows_sum_to_one(self, split_multiclass):
        X_tr, X_te, y_tr, _ = split_multiclass
        tree = DecisionTreeClassifier(max_depth=4, random_state=0)
        proba = tree.fit(X_tr, y_tr).predict_proba(X_te)
        assert proba.shape == (len(X_te), 4)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_predictions_are_known_classes(self, split_multiclass):
        X_tr, X_te, y_tr, _ = split_multiclass
        tree = DecisionTreeClassifier(max_depth=4, random_state=0)
        preds = tree.fit(X_tr, y_tr).predict(X_te)
        assert set(preds).issubset(set(np.unique(y_tr)))

    def test_string_labels_supported(self):
        X = np.array([[0.0], [1.0], [0.1], [0.9]])
        y = np.array(["cat", "dog", "cat", "dog"])
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert set(tree.predict(X)) == {"cat", "dog"}

    def test_entropy_criterion(self, split_binary):
        X_tr, X_te, y_tr, y_te = split_binary
        tree = DecisionTreeClassifier(criterion="entropy",
                                      random_state=0).fit(X_tr, y_tr)
        assert balanced_accuracy_score(y_te, tree.predict(X_te)) > 0.75

    def test_random_splitter_works(self, split_binary):
        X_tr, X_te, y_tr, y_te = split_binary
        tree = DecisionTreeClassifier(splitter="random",
                                      random_state=0).fit(X_tr, y_tr)
        assert balanced_accuracy_score(y_te, tree.predict(X_te)) > 0.6

    def test_max_features_sqrt(self, binary_data):
        X, y = binary_data
        tree = DecisionTreeClassifier(max_features="sqrt",
                                      random_state=0).fit(X, y)
        assert tree.score(X, y) > 0.8

    def test_constant_features_yield_single_leaf(self):
        X = np.ones((20, 3))
        y = np.array([0, 1] * 10)
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert np.sum(tree.tree_.feature == -1) == 1

    def test_single_class(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        y = np.zeros(10, dtype=int)
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert np.all(tree.predict(X) == 0)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict_proba(np.zeros((2, 2)))

    def test_inference_flops_scale_with_samples(self, binary_data):
        X, y = binary_data
        tree = DecisionTreeClassifier(max_depth=5, random_state=0).fit(X, y)
        assert tree.inference_flops(200) == 2 * tree.inference_flops(100)

    def test_deterministic_given_seed(self, binary_data):
        X, y = binary_data
        p1 = DecisionTreeClassifier(max_features="sqrt",
                                    random_state=3).fit(X, y).predict(X)
        p2 = DecisionTreeClassifier(max_features="sqrt",
                                    random_state=3).fit(X, y).predict(X)
        assert np.array_equal(p1, p2)


class TestRegressor:
    def _data(self, rng):
        X = rng.uniform(-2, 2, (300, 2))
        y = np.sin(X[:, 0]) + 0.5 * X[:, 1]
        return X, y

    def test_fits_smooth_function(self, rng):
        X, y = self._data(rng)
        reg = DecisionTreeRegressor(max_depth=8).fit(X, y)
        assert reg.score(X, y) > 0.9

    def test_depth_limits_fit(self, rng):
        X, y = self._data(rng)
        shallow = DecisionTreeRegressor(max_depth=2).fit(X, y).score(X, y)
        deep = DecisionTreeRegressor(max_depth=10).fit(X, y).score(X, y)
        assert deep > shallow

    def test_constant_target(self):
        X = np.arange(10.0).reshape(-1, 1)
        y = np.full(10, 3.0)
        reg = DecisionTreeRegressor().fit(X, y)
        assert np.allclose(reg.predict(X), 3.0)

    def test_predict_shape(self, rng):
        X, y = self._data(rng)
        reg = DecisionTreeRegressor(max_depth=4).fit(X, y)
        assert reg.predict(X[:7]).shape == (7,)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros((3, 1)), np.zeros(4))


def _tree_arrays(model):
    t = model.tree_
    return [t.feature, t.threshold, t.left, t.right, t.value, t.depth]


class TestExactFeatureBlocks:
    """The exact search scans a node's candidate features in blocks sized
    by ``_SCAN_BLOCK_ELEMENTS``; a one-feature block must grow the same
    tree as one block holding every feature."""

    @staticmethod
    def _duplicated_columns():
        rng = np.random.default_rng(4)
        base = rng.integers(0, 5, (150, 3)).astype(float)
        # columns 3-5 repeat 0-2: every gain ties between the two copies
        X = np.hstack([base, base])
        y = (base[:, 0] + base[:, 1] + rng.integers(0, 2, 150)) % 3
        return X, y

    @pytest.mark.parametrize("make", [
        lambda: DecisionTreeClassifier(random_state=0),
        lambda: DecisionTreeClassifier(criterion="entropy",
                                       max_features=4, random_state=0),
        lambda: DecisionTreeClassifier(splitter="random", random_state=0),
        lambda: DecisionTreeRegressor(min_samples_leaf=2, random_state=0),
    ])
    def test_one_feature_blocks_grow_the_same_tree(self, make, monkeypatch):
        X, y = self._duplicated_columns()
        whole = make().fit(X, y)
        monkeypatch.setattr(tree_module, "_SCAN_BLOCK_ELEMENTS", 1)
        blocked = make().fit(X, y)
        for a, b in zip(_tree_arrays(whole), _tree_arrays(blocked)):
            np.testing.assert_array_equal(a, b)

    def test_tied_copies_resolve_to_the_first_column(self, monkeypatch):
        X, y = self._duplicated_columns()
        monkeypatch.setattr(tree_module, "_SCAN_BLOCK_ELEMENTS", 1)
        for make in (DecisionTreeClassifier, DecisionTreeRegressor):
            tree = make(random_state=0).fit(X, y).tree_
            used = set(tree.feature[tree.feature >= 0].tolist())
            assert used and used <= {0, 1, 2}
