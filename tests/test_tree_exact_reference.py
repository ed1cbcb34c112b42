"""The batched exact split search against the per-feature scan it replaced.

The reference below is the exact search as it was before it was
batched: one candidate feature at a time, a 1-D sort and prefix scan
each, and one ``rng.uniform`` draw per feature for random splits.  It is
kept as the oracle: on random tables, both must grow bit-identical trees
from the same random state.
"""

import numpy as np
import pytest

from repro.models import DecisionTreeClassifier, DecisionTreeRegressor
from repro.models.tree import _TINY


class _PerFeatureScan:
    """Mixin replacing the batched ``_best_split`` by the reference."""

    def _best_split(self, XT, idx, y_node, w_node, parent, k, rng):
        n_features = XT.shape[0]
        features = (rng.choice(n_features, size=k, replace=False)
                    if k < n_features else np.arange(n_features))
        best_gain, best = 1e-12, None
        n_node = len(idx)
        min_leaf = self.min_samples_leaf
        for feat in features:
            values = XT[feat, idx]
            if self.splitter == "random":
                lo, hi = values.min(), values.max()
                if hi <= lo:
                    continue
                thr = rng.uniform(lo, hi)
                mask = values <= thr
                n_left = int(mask.sum())
                if n_left < min_leaf or n_node - n_left < min_leaf:
                    continue
                gain = self._split_gain_for_mask(y_node, mask, w_node)
                if gain > best_gain:
                    best_gain = gain
                    best = (int(feat), float(thr), idx[mask], idx[~mask])
                continue
            order = np.argsort(values, kind="stable")
            v_sorted = values[order]
            diff = np.flatnonzero(v_sorted[1:] > v_sorted[:-1]) + 1
            cuts = diff[(diff >= min_leaf) & (diff <= n_node - min_leaf)]
            if len(cuts) == 0:
                continue
            gains = self._gains_1d(y_node[order], cuts, n_node,
                                   None if w_node is None
                                   else w_node[order])
            j = int(np.argmax(gains))
            if gains[j] > best_gain:
                cut = int(cuts[j])
                thr = 0.5 * (v_sorted[cut - 1] + v_sorted[cut])
                best_gain = float(gains[j])
                best = (int(feat), float(thr), idx[order[:cut]],
                        idx[order[cut:]])
        return best


class ReferenceClassifier(_PerFeatureScan, DecisionTreeClassifier):
    def _impurity_1d(self, counts):
        p = counts / counts.sum()
        if self.criterion == "entropy":
            nz = p[p > 0]
            return float(-np.sum(nz * np.log2(nz)))
        return float(1.0 - np.sum(p**2))

    def _node_impurity(self, y_node, w_node=None):
        if w_node is None:
            return self._impurity_1d(
                np.bincount(y_node, minlength=self._n_classes))
        cw = np.bincount(y_node, weights=w_node, minlength=self._n_classes)
        return 0.0 if cw.sum() <= 0 else self._impurity_1d(cw)

    def _gains_1d(self, y_sorted, cuts, n_node, w_sorted):
        onehot = np.zeros((n_node, self._n_classes))
        onehot[np.arange(n_node), y_sorted] = 1.0
        if w_sorted is not None:
            onehot *= w_sorted[:, None]
        cum = np.cumsum(onehot, axis=0)
        left = cum[cuts - 1]
        total = cum[-1]
        right = total - left
        if w_sorted is None:
            n_left = cuts.astype(float)
            n_right = n_node - n_left
            n_total = float(n_node)
        else:
            n_left = np.maximum(left.sum(axis=1), _TINY)
            n_right = np.maximum(right.sum(axis=1), _TINY)
            n_total = max(float(total.sum()), _TINY)
        if self.criterion == "entropy":
            def _h(counts, n):
                p = counts / n[:, None]
                with np.errstate(divide="ignore", invalid="ignore"):
                    logp = np.where(p > 0, np.log2(np.maximum(p, 1e-300)),
                                    0.0)
                return -np.sum(p * logp, axis=1)
            imp_left, imp_right = _h(left, n_left), _h(right, n_right)
        else:
            imp_left = 1.0 - np.sum((left / n_left[:, None]) ** 2, axis=1)
            imp_right = 1.0 - np.sum((right / n_right[:, None]) ** 2, axis=1)
        parent = self._node_impurity(y_sorted, w_sorted)
        return parent - (n_left * imp_left + n_right * imp_right) / n_total

    def _split_gain_for_mask(self, y_node, mask, w_node=None):
        _imp = self._node_impurity
        parent = _imp(y_node, w_node)
        left, right = y_node[mask], y_node[~mask]
        if w_node is None:
            child = (len(left) * _imp(left, None)
                     + len(right) * _imp(right, None)) / len(y_node)
        else:
            wl, wr = w_node[mask], w_node[~mask]
            n_l, n_r = wl.sum(), wr.sum()
            child = (n_l * _imp(left, wl) + n_r * _imp(right, wr)) \
                / max(n_l + n_r, _TINY)
        return parent - child


class ReferenceRegressor(_PerFeatureScan, DecisionTreeRegressor):
    def _node_impurity(self, y_node, w_node=None):
        if len(y_node) == 0:
            return 0.0
        if w_node is None:
            return float(np.var(y_node))
        total = w_node.sum()
        if total <= 0:
            return 0.0
        mean = np.dot(w_node, y_node) / total
        return float(np.dot(w_node, (y_node - mean) ** 2) / total)

    def _gains_1d(self, y_sorted, cuts, n_node, w_sorted):
        if w_sorted is None:
            cum = np.cumsum(y_sorted)
            cum2 = np.cumsum(y_sorted**2)
            n_left = cuts.astype(float)
            n_right = n_node - n_left
            n_total = float(n_node)
        else:
            cumw = np.cumsum(w_sorted)
            cum = np.cumsum(w_sorted * y_sorted)
            cum2 = np.cumsum(w_sorted * y_sorted**2)
            n_left = np.maximum(cumw[cuts - 1], _TINY)
            n_right = np.maximum(cumw[-1] - n_left, _TINY)
            n_total = max(float(cumw[-1]), _TINY)
        sum_left, sum2_left = cum[cuts - 1], cum2[cuts - 1]
        sum_right, sum2_right = cum[-1] - sum_left, cum2[-1] - sum2_left
        var_left = sum2_left / n_left - (sum_left / n_left) ** 2
        var_right = sum2_right / n_right - (sum_right / n_right) ** 2
        parent = self._node_impurity(y_sorted, w_sorted)
        return parent - (n_left * var_left + n_right * var_right) / n_total


def _random_case(seed):
    """A random table and tree configuration: continuous, tie-heavy or
    mixed columns, 2-12 classes, optional zero-including weights."""
    r = np.random.default_rng(seed)
    n, d = int(r.integers(4, 200)), int(r.integers(1, 10))
    X = r.normal(size=(n, d))
    layout = seed % 3
    if layout == 1:
        X = r.integers(0, int(r.integers(2, 6)), (n, d)).astype(float)
    elif layout == 2:
        X[:, ::2] = np.round(X[:, ::2])
    w = None
    if r.random() < 0.4:
        w = r.choice([0.0, 0.1, 0.3, 0.7, 1.5], n)
        w[0] = 1.0
    params = {
        "splitter": "random" if r.random() < 0.3 else "best",
        "max_features": [None, "sqrt", 0.8, 0.5][int(r.integers(0, 4))],
        "min_samples_leaf": int(r.choice([1, 1, 2, 3])),
        "max_depth": None if r.random() < 0.7 else int(r.integers(1, 6)),
        "max_leaf_nodes": None if r.random() < 0.8
        else int(r.integers(2, 10)),
        "random_state": seed,
    }
    n_classes = int(r.choice([2, 3, 5, 9, 12]))
    y_cls = (np.floor(2 * X[:, 0] + r.normal(size=n)) % n_classes) \
        .astype(int)
    y_reg = X[:, 0] ** 2 + r.normal(size=n)
    return X, y_cls, y_reg, w, params


def _arrays(model):
    t = model.tree_
    return [t.feature, t.threshold, t.left, t.right, t.value, t.depth]


@pytest.mark.parametrize("seed", range(40))
def test_batched_scan_grows_the_reference_trees(seed):
    X, y_cls, y_reg, w, params = _random_case(seed)
    pairs = [
        (DecisionTreeClassifier, ReferenceClassifier, y_cls,
         {"criterion": "entropy" if seed % 2 else "gini"}),
        (DecisionTreeRegressor, ReferenceRegressor, y_reg, {}),
    ]
    for batched, reference, y, extra in pairs:
        got = batched(**params, **extra).fit(X, y, sample_weight=w)
        want = reference(**params, **extra).fit(X, y, sample_weight=w)
        for a, b in zip(_arrays(got), _arrays(want)):
            np.testing.assert_array_equal(a, b)
