"""CART decision trees (classification and regression), pure numpy.

These trees are the workhorse of the whole reproduction: they power the
random forests, extra-trees, gradient boosting, the AutoGluon portfolio and
the random-forest surrogate inside Bayesian optimization.  Two split-search
kernels share one builder skeleton (preallocated flat node arrays plus an
explicit work stack, after ivalice's ``_Tree``/``_Stack``):

- the **exact** kernel (``binning=None``, the default) grows the tree
  depth-first and, per node, scans all candidate features at once: one
  stable row-wise argsort of the ``(features, rows)`` value matrix,
  row-wise prefix sums, gains at every cut with non-candidate cuts masked
  to ``-inf``, and the first best cut of the first best feature.  Every
  reduction runs row by row over C-contiguous rows, which numpy sums
  exactly like the 1-D vector a one-feature-at-a-time scan would, so the
  trees are bit-identical to that scan.  The builder stays depth-first
  because each node draws its feature subset (``rng.choice``) when it is
  expanded: batching a whole level would reorder those draws, and so
  every tree, whenever ``max_features`` is below the feature count;
- the **histogram** kernel (``binning=<max_bins>``) quantizes features once
  per fit into at most 255 ordinal codes (:class:`~repro.models.binning.
  FeatureBinner`) and searches splits via binned class-count/moment prefix
  scans.  The stack is drained in level batches and every node of a level
  is histogrammed by a single flat ``bincount`` keyed on ``(node, feature
  slot, bin, class)``, so the per-node Python overhead that dominates deep
  trees is amortized over the whole level.

Binned trees still store real-valued thresholds, so prediction runs on raw
matrices; ensembles reuse one shared binned matrix across all their trees
at fit time (see ``forest.py`` / ``boosting.py``).  Every prediction, one
tree's or a whole ensemble's, is one descent (:func:`_descend`): a block
of trees' node arrays is concatenated into one flat table and every
(tree, row) pair walks it together, one level per step.  Ensembles
(:func:`forest_leaf_values`) descend blocks of at most
``_SCAN_BLOCK_ELEMENTS`` pairs and add the per-tree outputs in tree
order, as a loop over the trees would, so predictions are bit-identical
to it.  The table is rebuilt on every call and nothing is cached on the
model: fitted models pickle to the same bytes before and after a
predict.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import BaseEstimator, ClassifierMixin, RegressorMixin
from repro.models.binning import FeatureBinner
from repro.utils.rng import check_random_state
from repro.utils.validation import (
    check_is_fitted,
    check_sample_weight,
    check_X_y,
)

_LEAF = -1
#: initial node/stack capacity; arrays double on demand
_INITIAL_CAPACITY = 64
#: denominators are clamped here so empty/zero-weight partitions score an
#: impurity of 0 instead of dividing by zero (their gain is masked anyway)
_TINY = 1e-300
#: per-level histogram tensors are chunked to at most this many elements
_HIST_CHUNK_ELEMENTS = 2**23
#: exact scans take a node's features in blocks of at most this many
#: (feature, row[, class]) elements: 1 MiB per float64 temporary keeps a
#: block's working set in a core's L2 cache.  Blocks sized to the
#: histogram budget above made 20k-row nodes about 25% slower than a scan
#: of one feature at a time; at this size they are about 10% faster.
#: Forest prediction descends at most this many (tree, row) pairs at once.
_SCAN_BLOCK_ELEMENTS = 2**17


class _Tree:
    """Flat preallocated-array representation of a fitted binary tree."""

    __slots__ = ("feature", "threshold", "bin_threshold", "left", "right",
                 "value", "depth", "n_nodes", "max_depth_", "binned")

    def __init__(self, value_width: int = 1,
                 capacity: int = _INITIAL_CAPACITY):
        capacity = max(int(capacity), 1)
        self.feature = np.full(capacity, _LEAF, dtype=np.int64)
        self.threshold = np.zeros(capacity, dtype=np.float64)
        self.bin_threshold = np.full(capacity, _LEAF, dtype=np.int64)
        self.left = np.full(capacity, _LEAF, dtype=np.int64)
        self.right = np.full(capacity, _LEAF, dtype=np.int64)
        self.value = np.zeros((capacity, max(int(value_width), 1)))
        self.depth = np.zeros(capacity, dtype=np.int64)
        self.n_nodes = 0
        self.max_depth_ = 0
        self.binned = False

    def _reserve(self, n_extra: int) -> None:
        need = self.n_nodes + n_extra
        cap = len(self.feature)
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        for name in ("feature", "threshold", "bin_threshold", "left",
                     "right", "depth"):
            old = getattr(self, name)
            grown = np.empty(cap, dtype=old.dtype)
            grown[: self.n_nodes] = old[: self.n_nodes]
            setattr(self, name, grown)
        grown_value = np.empty((cap, self.value.shape[1]))
        grown_value[: self.n_nodes] = self.value[: self.n_nodes]
        self.value = grown_value

    def add_node(self, value: np.ndarray, depth: int = 0) -> int:
        self._reserve(1)
        node = self.n_nodes
        self.n_nodes += 1
        self.feature[node] = _LEAF
        self.threshold[node] = 0.0
        self.bin_threshold[node] = _LEAF
        self.left[node] = _LEAF
        self.right[node] = _LEAF
        self.value[node] = value
        self.depth[node] = depth
        if depth > self.max_depth_:
            self.max_depth_ = depth
        return node

    def add_nodes(self, values: np.ndarray, depths: np.ndarray) -> np.ndarray:
        """Append a batch of leaves at once; returns their node ids."""
        m = len(depths)
        self._reserve(m)
        ids = self.n_nodes + np.arange(m)
        self.n_nodes += m
        self.feature[ids] = _LEAF
        self.threshold[ids] = 0.0
        self.bin_threshold[ids] = _LEAF
        self.left[ids] = _LEAF
        self.right[ids] = _LEAF
        self.value[ids] = values
        self.depth[ids] = depths
        if m and int(depths.max()) > self.max_depth_:
            self.max_depth_ = int(depths.max())
        return ids

    def finalize(self) -> None:
        """Trim the preallocated arrays to the fitted node count."""
        n = self.n_nodes
        self.feature = self.feature[:n]
        self.threshold = self.threshold[:n]
        self.bin_threshold = self.bin_threshold[:n]
        self.left = self.left[:n]
        self.right = self.right[:n]
        self.value = self.value[:n]
        self.depth = self.depth[:n]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf id per row: the one-tree case of :func:`_descend`."""
        return _descend([self], X)[0]

    def apply_binned(self, Xb: np.ndarray) -> np.ndarray:
        """Leaf ids for a pre-quantized code matrix (training-time fast
        path for boosting: the shared binned matrix is descended on
        integer bin thresholds instead of re-comparing raw floats)."""
        if not self.binned:
            raise ValueError(
                "apply_binned requires a tree fitted with binning enabled"
            )
        return _descend([self], Xb, binned=True)[0]

    def max_depth(self) -> int:
        """Depth of the deepest node, tracked during construction —
        O(1), never a per-call walk (``repro.serving`` prices every
        request through ``inference_flops``)."""
        return self.max_depth_


def _descend(tables, X, binned=False) -> np.ndarray:
    """Leaf of every (tree, row) pair, as a ``(trees, rows)`` matrix of
    node ids into the trees' concatenated node arrays.

    The trees become one flat node table (one ``concatenate`` per array,
    child links shifted by their tree's root offset) and all pairs
    descend it together, one level per step; a pair leaves the frontier
    once it reaches a leaf.  ``binned`` descends a code matrix on the
    integer bin thresholds instead of the real ones.
    """
    sizes = np.array([t.n_nodes for t in tables], dtype=np.int64)
    roots = np.cumsum(sizes) - sizes
    shift = np.repeat(roots, sizes)
    feature = np.concatenate([t.feature for t in tables])
    threshold = np.concatenate([t.bin_threshold if binned else t.threshold
                                for t in tables])
    left = np.concatenate([t.left for t in tables]) + shift
    right = np.concatenate([t.right for t in tables]) + shift
    n = X.shape[0]
    leaves = np.repeat(roots, n)
    pair = np.flatnonzero(feature[leaves] != _LEAF)
    node = leaves[pair]
    row = pair % max(n, 1)
    while pair.size:
        go_left = X[row, feature[node]] <= threshold[node]
        node = np.where(go_left, left[node], right[node])
        inner = feature[node] != _LEAF
        leaves[pair[~inner]] = node[~inner]
        pair, node, row = pair[inner], node[inner], row[inner]
    return leaves.reshape(len(tables), n)


def _class_values(tree, n_classes: int) -> np.ndarray:
    """A classifier tree's leaf values on the ensemble's class codes
    ``0..n_classes-1``: a bootstrap can miss a class, and its column
    then reads 0."""
    value = tree.tree_.value
    if value.shape[1] == n_classes:
        return value
    out = np.zeros((len(value), n_classes))
    out[:, tree.classes_.astype(np.int64)] = value
    return out


def forest_leaf_values(trees, X, n_classes=None):
    """Each fitted tree's leaf values for every row of ``X``, in tree
    order: yields one ``(rows, width)`` array per tree.

    Trees are descended together in blocks of at most
    ``_SCAN_BLOCK_ELEMENTS`` (tree, row) pairs, so the working set stays
    bounded however many trees or rows there are.  With ``n_classes``
    the trees are classifiers over the ensemble's class codes (see
    :func:`_class_values`).  Nothing is cached: the flat table is built
    per call and the trees are left untouched.
    """
    tables = [t.tree_ for t in trees]
    values = [t.tree_.value if n_classes is None
              else _class_values(t, n_classes) for t in trees]
    step = max(1, _SCAN_BLOCK_ELEMENTS // max(X.shape[0], 1))
    for t0 in range(0, len(trees), step):
        leaves = _descend(tables[t0:t0 + step], X)
        yield from np.concatenate(values[t0:t0 + step])[leaves]


def forest_inference_flops(trees, n_samples: int) -> float:
    """~3 ops per level descended per sample, summed tree by tree."""
    return float(sum(3.0 * n_samples * max(1, t.tree_.max_depth_)
                     for t in trees))


def as_rows(X) -> np.ndarray:
    """``X`` as a float matrix, a 1-D input read as one feature column."""
    X = np.asarray(X, dtype=float)
    return X.reshape(-1, 1) if X.ndim == 1 else X


class _Stack:
    """Preallocated LIFO of (node, start, end, depth) work items over the
    in-place-partitioned row-index array (ivalice's ``_Stack``).  The
    binned builder pushes both children of every split and drains the
    whole stack per iteration, which makes each drained batch exactly one
    tree level."""

    __slots__ = ("node", "start", "end", "depth", "ptr")

    def __init__(self, capacity: int = _INITIAL_CAPACITY):
        capacity = max(int(capacity), 1)
        self.node = np.zeros(capacity, dtype=np.int64)
        self.start = np.zeros(capacity, dtype=np.int64)
        self.end = np.zeros(capacity, dtype=np.int64)
        self.depth = np.zeros(capacity, dtype=np.int64)
        self.ptr = -1

    def _reserve(self, n_extra: int) -> None:
        need = self.ptr + 1 + n_extra
        cap = len(self.node)
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        for name in ("node", "start", "end", "depth"):
            old = getattr(self, name)
            grown = np.empty(cap, dtype=np.int64)
            grown[: self.ptr + 1] = old[: self.ptr + 1]
            setattr(self, name, grown)

    def push(self, node: int, start: int, end: int, depth: int) -> None:
        self._reserve(1)
        self.ptr += 1
        self.node[self.ptr] = node
        self.start[self.ptr] = start
        self.end[self.ptr] = end
        self.depth[self.ptr] = depth

    def push_many(self, nodes, starts, ends, depths) -> None:
        m = len(nodes)
        self._reserve(m)
        sl = slice(self.ptr + 1, self.ptr + 1 + m)
        self.node[sl] = nodes
        self.start[sl] = starts
        self.end[sl] = ends
        self.depth[sl] = depths
        self.ptr += m

    def pop(self) -> tuple[int, int, int, int]:
        p = self.ptr
        self.ptr -= 1
        return (int(self.node[p]), int(self.start[p]),
                int(self.end[p]), int(self.depth[p]))

    def drain(self):
        """Pop every pending item at once (one level batch)."""
        m = self.ptr + 1
        out = (self.node[:m].copy(), self.start[:m].copy(),
               self.end[:m].copy(), self.depth[:m].copy())
        self.ptr = -1
        return out

    def __bool__(self) -> bool:
        return self.ptr >= 0


def _resolve_max_features(max_features, n_features: int) -> int:
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if max_features == "log2":
        return max(1, int(np.log2(n_features))) if n_features > 1 else 1
    if isinstance(max_features, float):
        return max(1, min(n_features, int(max_features * n_features)))
    if isinstance(max_features, (int, np.integer)):
        return max(1, min(n_features, int(max_features)))
    raise ValueError(f"invalid max_features: {max_features!r}")


def _first_max(gains) -> int:
    """Index of the first highest entry, NaN never winning: the choice of
    a strict ``>`` scan that visits the entries in order."""
    r = int(gains.argmax())
    if np.isnan(gains[r]):  # argmax stops at the first NaN
        r = int(np.argmax(np.where(np.isnan(gains), -np.inf, gains)))
    return r


def _variance(y):
    """``np.var`` along the last axis by the same operations (pairwise
    mean, then pairwise mean of squared deviations), so bit-equal to it,
    without its Python-level overhead on the many tiny nodes."""
    n = y.shape[-1]
    dev = y - y.sum(axis=-1, keepdims=True) / n
    return (dev * dev).sum(axis=-1) / n


def _weighted_variance(y, w):
    """Weighted variance along the last axis, 0 where there is no weight.

    Means are BLAS dots, ``w @ y / sum(w)``: a stacked ``(1, n) @ (n, 1)``
    matmul runs the same dot per row as ``np.dot`` on one vector.
    """
    total = w.sum(axis=-1)
    safe = np.where(total > 0, total, 1.0)

    def _dot(a, b):
        return (a[..., None, :] @ b[..., :, None])[..., 0, 0]

    mean = _dot(w, y) / safe
    var = _dot(w, (y - mean[..., None]) ** 2) / safe
    return np.where(total > 0, var, 0.0)


def _entropy(p):
    """Entropy in bits along the last axis over the entries ``> 0``.

    Bit-equal to ``-np.sum(q * np.log2(q))`` over the compacted 1-D
    vector ``q = p[p > 0]``: dropping zeros regroups numpy's pairwise
    sum once a row has eight or more entries, so each row's non-zeros
    are packed to its front and summed as one contiguous run.
    """
    nz = p > 0
    q = np.take_along_axis(p, np.argsort(~nz, axis=-1, kind="stable"),
                           axis=-1)
    run = np.arange(p.shape[-1]) < nz.sum(axis=-1)[..., None]
    q = np.where(run, q, 1.0)
    return -(q * np.log2(q)).sum(axis=-1, where=run)


class _BaseDecisionTree(BaseEstimator):
    """Shared builder skeleton; subclasses define impurity and leaf values.

    ``binning=None`` runs the exact sort-based split search (bit-identical
    to the historical builder); an integer ``binning`` in ``[2, 255]``
    quantizes features once and searches splits over histogram prefix
    scans.  ``min_samples_split`` / ``min_samples_leaf`` always count
    *rows*, not weight, so the binned builder's leaf guarantees are
    independent of ``sample_weight``.
    """

    def __init__(self, max_depth=None, min_samples_split=2,
                 min_samples_leaf=1, max_features=None, max_leaf_nodes=None,
                 splitter="best", random_state=None, binning=None):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_leaf_nodes = max_leaf_nodes
        self.splitter = splitter
        self.random_state = random_state
        self.binning = binning

    # -- subclass hooks ----------------------------------------------------
    def _leaf_value(self, y_node, w_node=None) -> np.ndarray:
        raise NotImplementedError

    def _prefix_gains(self, y_sorted, w_sorted=None):
        """Impurity gain of the split after every prefix of each row.

        ``y_sorted`` / ``w_sorted`` are ``(features, n)`` matrices holding
        the node's targets / weights in each feature's stable sort order;
        returns ``(features, n - 1)`` gains, entry ``c - 1`` scoring the
        cut between sorted positions ``c - 1`` and ``c``.  The parent
        impurity is taken per row over that row's order, as the gain
        formulas always have (weighted sums depend on summation order).
        """
        raise NotImplementedError

    def _mask_gains(self, y_node, w_node, go_left, n_left, parent):
        """Impurity gain per row of the ``(features, n)`` boolean
        partition ``go_left`` of the node (random splitter)."""
        raise NotImplementedError

    def _node_impurity(self, y_node, w_node=None) -> float:
        raise NotImplementedError

    def _node_impurities_batch(self, y_rows, w_rows, block, n_blocks):
        """Impurity of ``n_blocks`` nodes at once (rows grouped by the
        sorted ``block`` id vector)."""
        raise NotImplementedError

    def _binned_splits_batch(self, sub, y_rows, w_rows, block, sizes,
                             impurities, n_bins, rng):
        """Best (slot, bin boundary, gain) per node for one level chunk.

        ``sub`` is the gathered ``(rows, candidate slots)`` code matrix,
        ``block`` the node id per row.  Gain is ``-inf`` for nodes with no
        admissible split."""
        raise NotImplementedError

    def _leaf_values_batch(self, y_sel, w_sel, child, n_children):
        """Leaf value matrix for ``n_children`` fresh leaves at once
        (rows grouped by the ``child`` id vector)."""
        raise NotImplementedError

    def _hist_width(self) -> int:
        """Trailing histogram dimension, for chunk-size budgeting."""
        raise NotImplementedError

    # -- fitting -----------------------------------------------------------
    def _fit_arrays(self, X: np.ndarray, y: np.ndarray,
                    sample_weight=None) -> None:
        w = check_sample_weight(sample_weight, X.shape[0])
        rng = check_random_state(self.random_state)
        if self.binning is not None:
            binner = FeatureBinner(self.binning).fit(X)
            self._fit_binned_arrays(binner.transform(X), y,
                                    binner.edges_, rng, w)
        else:
            self._fit_exact_arrays(X, y, rng, w)
        self.n_features_in_ = X.shape[1]

    def _fit_exact_arrays(self, X, y, rng, w) -> None:
        n_samples = X.shape[0]
        k = _resolve_max_features(self.max_features, X.shape[1])
        max_depth = self.max_depth if self.max_depth is not None else np.inf
        # one contiguous row per feature, so every node gathers its
        # (features, rows) scan matrix with row-contiguous reads
        XT = np.ascontiguousarray(X.T)

        root_value = np.atleast_1d(self._leaf_value(y, w))
        tree = _Tree(value_width=root_value.shape[0])
        self.tree_ = tree
        root = tree.add_node(root_value, 0)
        # Stack of (node_id, row_indices, depth); depth-first expansion.
        stack = [(root, np.arange(n_samples), 0)]
        n_leaves = 1
        max_leaves = self.max_leaf_nodes or np.inf
        while stack:
            node, idx, depth = stack.pop()
            if (
                depth >= max_depth
                or len(idx) < self.min_samples_split
                or len(idx) < 2 * self.min_samples_leaf
                or n_leaves + 1 > max_leaves
            ):
                continue
            y_node = y[idx]
            w_node = None if w is None else w[idx]
            parent = self._node_impurity(y_node, w_node)
            if parent <= 1e-12:
                continue
            split = self._best_split(XT, idx, y_node, w_node, parent, k, rng)
            if split is None:
                continue
            feat, thr, left_idx, right_idx = split
            tree.feature[node] = feat
            tree.threshold[node] = thr
            left = tree.add_node(np.atleast_1d(self._leaf_value(
                y[left_idx], None if w is None else w[left_idx])), depth + 1)
            right = tree.add_node(np.atleast_1d(self._leaf_value(
                y[right_idx], None if w is None else w[right_idx])), depth + 1)
            tree.left[node] = left
            tree.right[node] = right
            n_leaves += 1  # replaced one leaf with two
            stack.append((left, left_idx, depth + 1))
            stack.append((right, right_idx, depth + 1))
        tree.finalize()

    def _fit_binned_arrays(self, Xb, y, edges, rng, w) -> None:
        n_samples, n_features = Xb.shape
        k = _resolve_max_features(self.max_features, n_features)
        max_depth = self.max_depth if self.max_depth is not None else np.inf
        n_bins = max((len(e) for e in edges), default=0) + 1

        root_value = np.atleast_1d(self._leaf_value(y, w))
        tree = _Tree(value_width=root_value.shape[0])
        tree.binned = True
        self.tree_ = tree
        root = tree.add_node(root_value, 0)
        if n_bins < 2 or n_samples < 2:
            tree.finalize()
            return
        # padded (feature, bin) -> threshold lookup, gathered per split
        edge_table = np.zeros((n_features, n_bins - 1))
        for j, e in enumerate(edges):
            edge_table[j, : len(e)] = e
        # One shared row-index array, partitioned in place: each work item
        # owns the contiguous segment [start, end).
        indices = np.arange(n_samples)
        stack = _Stack()
        stack.push(root, 0, n_samples, 0)
        n_leaves = 1
        max_leaves = float(self.max_leaf_nodes or np.inf)
        min_leaf = self.min_samples_leaf
        min_split = max(self.min_samples_split, 2 * min_leaf, 2)
        while stack:
            nodes, starts, ends, depths = stack.drain()
            sizes = ends - starts
            live = (depths < max_depth) & (sizes >= min_split)
            if n_leaves + 1 > max_leaves or not live.any():
                continue
            nodes, starts, ends, depths, sizes = (
                nodes[live], starts[live], ends[live],
                depths[live], sizes[live])
            # Largest nodes first: similar-size nodes then share a chunk,
            # so rank compression can shrink the histogram width of the
            # small-node chunks; it also makes heavy nodes the priority
            # order once the max_leaf_nodes budget runs out.
            order = np.argsort(-sizes, kind="stable")
            nodes, starts, ends, depths, sizes = (
                nodes[order], starts[order], ends[order],
                depths[order], sizes[order])
            segs = [indices[s:e] for s, e in zip(starts, ends)]
            rows = np.concatenate(segs)
            block = np.repeat(np.arange(len(nodes)), sizes)
            y_rows = y[rows]
            w_rows = None if w is None else w[rows]
            imp = self._node_impurities_batch(y_rows, w_rows, block,
                                              len(nodes))
            live = imp > 1e-12
            if not live.any():
                continue
            if not live.all():
                keep = live[block]
                rows, y_rows = rows[keep], y_rows[keep]
                w_rows = None if w is None else w_rows[keep]
                nodes, starts, ends, depths, sizes, imp = (
                    nodes[live], starts[live], ends[live], depths[live],
                    sizes[live], imp[live])
                block = np.repeat(np.arange(len(nodes)), sizes)
            n_level = len(nodes)
            if k < n_features:
                # one feature subset per node, sampled without replacement
                feats = np.argsort(rng.random((n_level, n_features)),
                                   axis=1)[:, :k]
                sub = Xb[rows[:, None], feats[block]]
            else:
                feats = None  # slots are features: skip the index gather
                sub = Xb[rows]
            nb = min(n_bins, int(sub.max()) + 1)
            if nb < 2:
                continue
            slot = np.empty(n_level, dtype=np.int64)
            tcut = np.empty(n_level, dtype=np.int64)
            gain = np.empty(n_level)
            row_off = np.concatenate(([0], np.cumsum(sizes)))
            bounds = _chunk_bounds(sizes, k * self._hist_width(), nb,
                                   _HIST_CHUNK_ELEMENTS)
            for b0, b1 in zip(bounds[:-1], bounds[1:]):
                r0, r1 = row_off[b0], row_off[b1]
                sub_c = sub[r0:r1]
                block_c = block[r0:r1] - b0
                nb_c, dec = nb, None
                if self.splitter == "best" and int(sizes[b0]) < nb:
                    # small-node chunk: occupied bins << nb, so re-code
                    # to dense local ranks and scan a narrow histogram
                    # (random splits keep global bins: their cut draw is
                    # uniform over the bin *range*, not occupied bins)
                    sub_c, nb_c, codes_u, gstart = _rank_compress(
                        sub_c, block_c, b1 - b0, k, nb)
                    dec = (codes_u, gstart)
                if nb_c < 2:
                    slot[b0:b1] = 0
                    tcut[b0:b1] = 0
                    gain[b0:b1] = -np.inf
                    continue
                s_c, t_c, g_c = self._binned_splits_batch(
                    sub_c, y_rows[r0:r1],
                    None if w_rows is None else w_rows[r0:r1],
                    block_c, sizes[b0:b1], imp[b0:b1], nb_c, rng)
                if dec is not None:
                    codes_u, gstart = dec
                    t_c = codes_u[gstart[np.arange(b1 - b0) * k + s_c]
                                  + t_c]
                slot[b0:b1] = s_c
                tcut[b0:b1] = t_c
                gain[b0:b1] = g_c
            do_split = gain > 1e-12
            if np.isfinite(max_leaves):
                # batch order is the priority order once the leaf budget
                # runs out (the exact path's depth-first analogue)
                do_split &= (n_leaves + np.cumsum(do_split)) <= max_leaves
            chosen = np.flatnonzero(do_split)
            n_leaves += len(chosen)
            if len(chosen) == 0:
                continue
            # partition every split segment into [left | right] in place
            go_left = (np.take_along_axis(
                sub, slot[block][:, None], axis=1)[:, 0] <= tcut[block])
            in_split = do_split[block]
            rows_s = rows[in_split]
            go_s = go_left[in_split]
            block_s = block[in_split]
            pos = np.concatenate([np.arange(s, e) for s, e in
                                  zip(starts[chosen], ends[chosen])])
            # stable sort on (node, side) keeps original row order within
            # each child, matching the exact builder's boolean indexing
            perm = np.argsort(2 * block_s + (~go_s), kind="stable")
            indices[pos] = rows_s[perm]
            n_left_node = np.bincount(
                block_s, weights=go_s, minlength=n_level)[chosen]
            mids = starts[chosen] + n_left_node.astype(np.int64)
            # children: interleaved (left, right) ids with batched values
            inv = np.full(n_level, -1, dtype=np.int64)
            inv[chosen] = np.arange(len(chosen))
            child = 2 * inv[block_s] + (~go_s)
            values = self._leaf_values_batch(
                y_rows[in_split],
                None if w_rows is None else w_rows[in_split],
                child, 2 * len(chosen))
            kid_depths = np.repeat(depths[chosen] + 1, 2)
            kids = tree.add_nodes(values, kid_depths)
            left_ids, right_ids = kids[0::2], kids[1::2]
            feat_sel = (slot[chosen] if feats is None
                        else feats[chosen, slot[chosen]])
            tree.feature[nodes[chosen]] = feat_sel
            tree.threshold[nodes[chosen]] = edge_table[feat_sel,
                                                       tcut[chosen]]
            tree.bin_threshold[nodes[chosen]] = tcut[chosen]
            tree.left[nodes[chosen]] = left_ids
            tree.right[nodes[chosen]] = right_ids
            stack.push_many(left_ids, starts[chosen], mids,
                            depths[chosen] + 1)
            stack.push_many(right_ids, mids, ends[chosen],
                            depths[chosen] + 1)
        tree.finalize()

    # -- split search: exact kernel ----------------------------------------
    def _best_split(self, XT, idx, y_node, w_node, parent, k, rng):
        """Best ``(feature, threshold, left rows, right rows)`` of one node,
        or ``None``.

        The node's candidate features are scanned together as the rows of
        a ``(features, node rows)`` matrix, in blocks that keep the
        ``(features, rows[, classes])`` temporaries under
        ``_SCAN_BLOCK_ELEMENTS``.  Every feature's gains and its first
        best cut come from one batched scan; the node keeps the first
        feature with the highest gain, carried across blocks by a strict
        ``>`` exactly like a scan one feature at a time.  ``parent`` is
        the node impurity over ``y_node`` in row order.
        """
        n_features = XT.shape[0]
        features = (
            rng.choice(n_features, size=k, replace=False)
            if k < n_features
            else np.arange(n_features)
        )
        n_node = len(idx)
        min_leaf = self.min_samples_leaf
        step = max(1, _SCAN_BLOCK_ELEMENTS // (n_node * self._hist_width()))
        cut = np.arange(1, n_node)
        # cuts leaving at least min_samples_leaf rows on each side
        inner = (cut >= min_leaf) & (cut <= n_node - min_leaf)
        best_gain = 1e-12
        best = None
        for f0 in range(0, len(features), step):
            feats = features[f0:f0 + step]
            values = XT[feats[:, None], idx]
            if self.splitter == "random":
                # one uniform draw per feature with a value range, in
                # feature order: the same doubles a per-feature loop draws
                lo, hi = values.min(axis=1), values.max(axis=1)
                ok = hi > lo
                thr = lo.copy()
                if ok.any():
                    thr[ok] = rng.uniform(lo[ok], hi[ok])
                go = values <= thr[:, None]
                n_left = go.sum(axis=1)
                valid = (ok & (n_left >= min_leaf)
                         & (n_node - n_left >= min_leaf))
                gains = np.full(len(feats), -np.inf)
                if valid.any():
                    gains[valid] = self._mask_gains(
                        y_node, w_node, go[valid], n_left[valid], parent)
                r = _first_max(gains)
                if gains[r] > best_gain:
                    best_gain = float(gains[r])
                    best = (int(feats[r]), float(thr[r]), idx[go[r]],
                            idx[~go[r]])
                continue
            order = np.argsort(values, axis=1, kind="stable")
            rows = np.arange(len(feats))
            v_sorted = values[rows[:, None], order]
            gains = self._prefix_gains(
                y_node[order], None if w_node is None else w_node[order])
            # candidate cuts: inner ones where the value changes
            gains[~((v_sorted[:, 1:] > v_sorted[:, :-1]) & inner)] = -np.inf
            j = gains.argmax(axis=1)
            per_feature = gains[rows, j]
            r = _first_max(per_feature)
            if per_feature[r] > best_gain:
                c = int(j[r]) + 1
                thr = 0.5 * (v_sorted[r, c - 1] + v_sorted[r, c])
                best_gain = float(per_feature[r])
                best = (int(feats[r]), float(thr), idx[order[r, :c]],
                        idx[order[r, c:]])
        return best

    # -- prediction helpers ------------------------------------------------
    def get_depth(self) -> int:
        check_is_fitted(self, "tree_")
        return self.tree_.max_depth()

    def inference_flops(self, n_samples: int) -> float:
        check_is_fitted(self, "tree_")
        return forest_inference_flops([self], n_samples)


def _random_bin_cuts(nl_all, sizes, min_leaf, rng):
    """Draw one bin boundary per (node, slot) uniformly from each slot's
    occupied bin range; returns (t, n_left, valid)."""
    lo = (nl_all > 0).argmax(axis=2)
    hi = (nl_all < sizes[:, None, None]).sum(axis=2)
    has_range = hi > lo
    t = lo + rng.integers(0, np.maximum(hi - lo, 1))
    n_left = np.take_along_axis(nl_all, t[..., None], axis=2)[..., 0]
    valid = (has_range & (n_left >= min_leaf)
             & (sizes[:, None] - n_left >= min_leaf))
    return t, n_left, valid


def _chunk_bounds(sizes, per_cell, nb, budget):
    """Node-range chunk boundaries sized to the histogram tensor.

    ``sizes`` must be descending: the first node of each chunk bounds the
    rank-compressed histogram width, so chunks of small nodes pack many
    more nodes under the same element ``budget`` than the global width
    ``nb`` would allow.
    """
    bounds = [0]
    n = len(sizes)
    neg = -sizes
    while bounds[-1] < n:
        b0 = bounds[-1]
        width = min(nb, int(sizes[b0]))
        step = max(1, budget // max(1, per_cell * width))
        b1 = min(n, b0 + step)
        # break the chunk where node sizes halve: the tail nodes then
        # get their own chunk whose compressed width is at most half
        b1 = min(b1, b0 + int(np.searchsorted(
            neg[b0:b1], -(width // 2), side="right")))
        bounds.append(max(b1, b0 + 1))
    return bounds


def _rank_compress(sub_c, block_c, n_blocks, k, nb):
    """Re-code each (node, slot) column to dense ranks of its occupied
    bins.

    Deep levels hold many small nodes whose rows occupy only a handful
    of the ``nb`` global bins; compressing to local ranks shrinks the
    split-scan histogram width from ``nb`` to at most the largest node
    size.  Rank order preserves bin order, so ``rank <= t_local`` is the
    same partition as ``code <= decode(t_local)``.  Returns the re-coded
    matrix, the local width, the per-unique global bin ids, and the
    group-start offsets that decode ``(node, slot, t_local)`` back to a
    global bin.
    """
    key = ((block_c * k)[:, None] + np.arange(k)).ravel()
    flat = key * np.int64(nb) + sub_c.ravel()
    uniq, inv = np.unique(flat, return_inverse=True)
    gstart = np.searchsorted(uniq // nb, np.arange(n_blocks * k))
    local = (inv - gstart[key]).astype(np.uint8).reshape(sub_c.shape)
    width = int(np.diff(np.append(gstart, len(uniq))).max())
    return local, width, (uniq % nb).astype(np.int64), gstart


class DecisionTreeClassifier(_BaseDecisionTree, ClassifierMixin):
    """CART classifier with gini or entropy impurity."""

    def __init__(self, criterion="gini", max_depth=None, min_samples_split=2,
                 min_samples_leaf=1, max_features=None, max_leaf_nodes=None,
                 splitter="best", random_state=None, binning=None):
        super().__init__(max_depth=max_depth,
                         min_samples_split=min_samples_split,
                         min_samples_leaf=min_samples_leaf,
                         max_features=max_features,
                         max_leaf_nodes=max_leaf_nodes,
                         splitter=splitter, random_state=random_state,
                         binning=binning)
        self.criterion = criterion

    def fit(self, X, y, sample_weight=None):
        X, y = check_X_y(X, y)
        codes = self._encode_labels(y)
        self._n_classes = len(self.classes_)
        self._fit_arrays(X, codes, sample_weight)
        return self

    def fit_binned(self, Xb, y, edges, sample_weight=None):
        """Fit from a pre-quantized code matrix and its bin ``edges``
        (the shared-forest fast path: quantize once, fit many trees)."""
        Xb = np.asarray(Xb)
        codes = self._encode_labels(np.asarray(y))
        self._n_classes = len(self.classes_)
        w = check_sample_weight(sample_weight, Xb.shape[0])
        rng = check_random_state(self.random_state)
        self._fit_binned_arrays(Xb, codes, edges, rng, w)
        self.n_features_in_ = Xb.shape[1]
        return self

    def _leaf_value(self, y_node, w_node=None) -> np.ndarray:
        if w_node is None:
            counts = np.bincount(
                y_node, minlength=self._n_classes).astype(float)
        else:
            counts = np.bincount(
                y_node, weights=w_node, minlength=self._n_classes)
            if counts.sum() <= 0:  # all-zero-weight node: fall back to rows
                counts = np.bincount(
                    y_node, minlength=self._n_classes).astype(float)
        total = counts.sum()
        return counts / total if total else counts

    def _node_impurity(self, y_node, w_node=None) -> float:
        if w_node is None:
            p = np.bincount(y_node, minlength=self._n_classes) \
                / max(len(y_node), 1)
            return float(self._impurities(p))
        return float(self._mass_impurities(np.bincount(
            y_node, weights=w_node, minlength=self._n_classes)))

    def _impurities(self, p):
        """Impurity of each class-proportion vector on the last axis."""
        if self.criterion == "entropy":
            return _entropy(p)
        return 1.0 - (p**2).sum(axis=-1)

    def _mass_impurities(self, cw):
        """Impurity of each class-weight vector on the last axis; 0 where
        the vector holds no weight."""
        mass = cw.sum(axis=-1)
        safe = np.where(mass > 0, mass, 1.0)[..., None]
        return np.where(mass > 0, self._impurities(cw / safe), 0.0)

    def _prefix_gains(self, y_sorted, w_sorted=None) -> np.ndarray:
        n_node = y_sorted.shape[1]
        onehot = (y_sorted[..., None]
                  == np.arange(self._n_classes)).astype(np.float64)
        if w_sorted is not None:
            onehot *= w_sorted[..., None]
        cum = np.cumsum(onehot, axis=1)
        left = cum[:, :-1]                  # class mass left of each cut
        total = cum[:, -1]                  # equals a bincount in row order
        right = total[:, None] - left
        if w_sorted is None:
            n_left = np.arange(1, n_node, dtype=np.float64)
            n_right = n_node - n_left
            n_total = float(n_node)
            parent = self._impurities(total / n_node)
        else:
            n_left = np.maximum(left.sum(axis=-1), _TINY)
            n_right = np.maximum(right.sum(axis=-1), _TINY)
            n_total = np.maximum(total.sum(axis=-1), _TINY)[:, None]
            parent = self._mass_impurities(total)
        if self.criterion == "entropy":
            def _h(counts, n):
                p = counts / n[..., None]
                with np.errstate(divide="ignore", invalid="ignore"):
                    logp = np.where(p > 0, np.log2(np.maximum(p, 1e-300)),
                                    0.0)
                return -(p * logp).sum(axis=-1)
            imp_left = _h(left, n_left)
            imp_right = _h(right, n_right)
        else:
            imp_left = 1.0 - ((left / n_left[..., None]) ** 2).sum(axis=-1)
            imp_right = 1.0 - ((right / n_right[..., None]) ** 2).sum(axis=-1)
        child = (n_left * imp_left + n_right * imp_right) / n_total
        return parent[:, None] - child

    def _mask_gains(self, y_node, w_node, go_left, n_left, parent):
        kc = self._n_classes
        m, n_node = go_left.shape
        side = (~go_left).astype(np.int64)          # 0 = left, 1 = right
        # one keyed bincount counts both sides of every row; weighted
        # buckets accumulate in row order, like a bincount per side
        key = ((2 * np.arange(m)[:, None] + side) * kc + y_node).ravel()
        if w_node is None:
            counts = np.bincount(key, minlength=2 * m * kc) \
                .reshape(m, 2, kc)
            sizes = np.stack([n_left, n_node - n_left], axis=1)
            imp = self._impurities(counts / sizes[..., None])
            child = (sizes[:, 0] * imp[:, 0] + sizes[:, 1] * imp[:, 1]) \
                / n_node
            return parent - child
        cw = np.bincount(key, weights=np.broadcast_to(w_node, (m, n_node))
                         .ravel(), minlength=2 * m * kc).reshape(m, 2, kc)
        imp = self._mass_impurities(cw)
        # side weights are pairwise sums over each side's rows in row
        # order: pack each side into one contiguous run per row
        w_packed = w_node[np.argsort(side, axis=1, kind="stable")]
        first = np.arange(n_node) < n_left[:, None]
        n_l = w_packed.sum(axis=1, where=first)
        n_r = w_packed.sum(axis=1, where=~first)
        child = (n_l * imp[:, 0] + n_r * imp[:, 1]) \
            / np.maximum(n_l + n_r, _TINY)
        return parent - child

    # -- batched histogram kernel ------------------------------------------
    def _hist_width(self) -> int:
        return self._n_classes

    def _node_impurities_batch(self, y_rows, w_rows, block, n_blocks):
        kc = self._n_classes
        key = block * kc + y_rows
        if w_rows is None:
            cc = np.bincount(key, minlength=n_blocks * kc) \
                .reshape(n_blocks, kc).astype(np.float64)
        else:
            cc = np.bincount(key, weights=w_rows,
                             minlength=n_blocks * kc).reshape(n_blocks, kc)
        total = np.maximum(cc.sum(axis=1), _TINY)
        p = cc / total[:, None]
        if self.criterion == "entropy":
            with np.errstate(divide="ignore", invalid="ignore"):
                h = np.where(p > 0, p * np.log2(np.maximum(p, 1e-300)), 0.0)
            return -h.sum(axis=1)
        return 1.0 - (p**2).sum(axis=1)

    def _gains_from_class_counts(self, left, right, parent):
        """Impurity gain for left/right class-count tensors whose last
        axis is the class axis; ``parent`` is the per-node impurity."""
        w_l = left.sum(axis=-1)
        w_r = right.sum(axis=-1)
        w_t = np.maximum(w_l + w_r, _TINY)
        shape = (-1,) + (1,) * (left.ndim - 2)
        if self.criterion != "entropy":
            # weighted-gini child reduces to 1 - (sum c_l^2/w_l +
            # sum c_r^2/w_r)/W: no probability tensors needed
            sq_l = (left**2).sum(axis=-1) / np.maximum(w_l, _TINY)
            sq_r = (right**2).sum(axis=-1) / np.maximum(w_r, _TINY)
            child = 1.0 - (sq_l + sq_r) / w_t
            return parent.reshape(shape) - child
        p_l = left / np.maximum(w_l, _TINY)[..., None]
        p_r = right / np.maximum(w_r, _TINY)[..., None]
        with np.errstate(divide="ignore", invalid="ignore"):
            imp_l = -np.sum(np.where(
                p_l > 0, p_l * np.log2(np.maximum(p_l, 1e-300)), 0.0),
                axis=-1)
            imp_r = -np.sum(np.where(
                p_r > 0, p_r * np.log2(np.maximum(p_r, 1e-300)), 0.0),
                axis=-1)
        child = (w_l * imp_l + w_r * imp_r) / w_t
        return parent.reshape(shape) - child

    def _binned_splits_batch(self, sub, y_rows, w_rows, block, sizes,
                             impurities, n_bins, rng):
        kc = self._n_classes
        n_rows, k = sub.shape
        n_blocks = len(sizes)
        min_leaf = self.min_samples_leaf
        slotkey = (block * k)[:, None] + np.arange(k)
        if self.splitter == "random":
            # extra-trees: bin-count histogram to locate occupied ranges,
            # then class moments only at the drawn boundaries
            keyb = (slotkey * n_bins + sub).ravel()
            counts = np.bincount(keyb, minlength=n_blocks * k * n_bins) \
                .reshape(n_blocks, k, n_bins)
            nl_all = counts.cumsum(axis=2)[:, :, :-1]
            t, _, valid = _random_bin_cuts(nl_all, sizes, min_leaf, rng)
            go = sub <= t[block]
            keyc = (slotkey * kc + y_rows[:, None]).ravel()
            go_w = go.ravel().astype(np.float64)
            if w_rows is not None:
                go_w = go_w * np.repeat(w_rows, k)
                tot = np.bincount(block * kc + y_rows, weights=w_rows,
                                  minlength=n_blocks * kc) \
                    .reshape(n_blocks, kc)
            else:
                tot = np.bincount(block * kc + y_rows,
                                  minlength=n_blocks * kc) \
                    .reshape(n_blocks, kc).astype(np.float64)
            left = np.bincount(keyc, weights=go_w,
                               minlength=n_blocks * k * kc) \
                .reshape(n_blocks, k, kc)
            right = tot[:, None, :] - left
            gains = self._gains_from_class_counts(left, right, impurities)
            gains = np.where(valid, gains, -np.inf)
            slot = gains.argmax(axis=1)
            ar = np.arange(n_blocks)
            return slot, t[ar, slot], gains[ar, slot]
        # Flat (node, slot, bin, class) histogram in one bincount pass.
        key = ((slotkey * n_bins + sub) * kc + y_rows[:, None]).ravel()
        size = n_blocks * k * n_bins * kc
        counts = np.bincount(key, minlength=size) \
            .reshape(n_blocks, k, n_bins, kc)
        n_left = counts.sum(axis=3).cumsum(axis=2)[:, :, :-1]
        if w_rows is None:
            tot = np.bincount(block * kc + y_rows,
                              minlength=n_blocks * kc) \
                .reshape(n_blocks, kc).astype(np.float64)
            wc = counts.astype(np.float64)
            # unweighted: the weighted mass *is* the exact row count
            w_l = n_left.astype(np.float64)
        else:
            tot = np.bincount(block * kc + y_rows, weights=w_rows,
                              minlength=n_blocks * kc).reshape(n_blocks, kc)
            wc = np.bincount(key, weights=np.repeat(w_rows, k),
                             minlength=size).reshape(n_blocks, k, n_bins, kc)
            w_l = wc.sum(axis=3).cumsum(axis=2)[:, :, :-1]
        left = np.cumsum(wc, axis=2, out=wc)[:, :, :-1, :]
        if self.criterion != "entropy":
            # gini via the sum-of-squares identity: child impurity is
            # 1 - (sum c_l^2/w_l + sum c_r^2/w_r)/W, and the right-side
            # square expands to sum T^2 - 2 sum T*c_l + sum c_l^2 so the
            # right-count tensor is never materialized
            sq_l = np.einsum("abcd,abcd->abc", left, left)
            cross = np.einsum("ad,abcd->abc", tot, left)
            tot2 = np.einsum("ad,ad->a", tot, tot)[:, None, None]
            sq_r = tot2 - 2.0 * cross + sq_l
            w_t = np.maximum(tot.sum(axis=1), _TINY)[:, None, None]
            w_r = w_t - w_l
            child = 1.0 - (sq_l / np.maximum(w_l, _TINY)
                           + sq_r / np.maximum(w_r, _TINY)) / w_t
            gains = impurities[:, None, None] - child
        else:
            right = tot[:, None, None, :] - left
            gains = self._gains_from_class_counts(left, right, impurities)
        valid = ((n_left >= min_leaf)
                 & (sizes[:, None, None] - n_left >= min_leaf))
        gains = np.where(valid, gains, -np.inf)
        n_cuts = n_bins - 1
        flat = gains.reshape(n_blocks, k * n_cuts)
        best = flat.argmax(axis=1)
        slot, t = np.divmod(best, n_cuts)
        return slot, t, flat[np.arange(n_blocks), best]

    def _leaf_values_batch(self, y_sel, w_sel, child, n_children):
        kc = self._n_classes
        key = child * kc + y_sel
        cc = np.bincount(key, minlength=n_children * kc) \
            .reshape(n_children, kc).astype(np.float64)
        use = cc
        if w_sel is not None:
            wc = np.bincount(key, weights=w_sel,
                             minlength=n_children * kc) \
                .reshape(n_children, kc)
            # all-zero-weight children fall back to plain row counts
            use = np.where(wc.sum(axis=1)[:, None] > 0, wc, cc)
        total = np.maximum(use.sum(axis=1), _TINY)
        return use / total[:, None]

    def predict_proba(self, X) -> np.ndarray:
        check_is_fitted(self, "tree_")
        return self.tree_.value[self.tree_.apply(as_rows(X))]


class DecisionTreeRegressor(_BaseDecisionTree, RegressorMixin):
    """CART regressor minimising within-node variance (MSE criterion)."""

    def fit(self, X, y, sample_weight=None):
        X = as_rows(X)
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y length mismatch")
        self._fit_arrays(X, y, sample_weight)
        return self

    def fit_binned(self, Xb, y, edges, sample_weight=None):
        """Fit from a pre-quantized code matrix and its bin ``edges``
        (boosting reuses one binned matrix across rounds and classes)."""
        Xb = np.asarray(Xb)
        y = np.asarray(y, dtype=float).ravel()
        w = check_sample_weight(sample_weight, Xb.shape[0])
        rng = check_random_state(self.random_state)
        self._fit_binned_arrays(Xb, y, edges, rng, w)
        self.n_features_in_ = Xb.shape[1]
        return self

    def _leaf_value(self, y_node, w_node=None) -> np.ndarray:
        if w_node is not None:
            total = w_node.sum()
            if total > 0:
                return np.asarray([float(np.dot(w_node, y_node) / total)])
        # np.mean's arithmetic (pairwise sum, one division), minus its
        # Python overhead on the many tiny nodes
        return np.asarray([float(y_node.sum() / len(y_node))])

    def _node_impurity(self, y_node, w_node=None) -> float:
        if len(y_node) == 0:
            return 0.0
        if w_node is None:
            return float(_variance(y_node))
        return float(_weighted_variance(y_node, w_node))

    def _prefix_gains(self, y_sorted, w_sorted=None) -> np.ndarray:
        n_node = y_sorted.shape[1]
        if w_sorted is None:
            cum = np.cumsum(y_sorted, axis=1)
            cum2 = np.cumsum(y_sorted**2, axis=1)
            n_left = np.arange(1, n_node, dtype=np.float64)
            n_right = n_node - n_left
            n_total = float(n_node)
            parent = _variance(y_sorted)
        else:
            cumw = np.cumsum(w_sorted, axis=1)
            cum = np.cumsum(w_sorted * y_sorted, axis=1)
            cum2 = np.cumsum(w_sorted * y_sorted**2, axis=1)
            n_left = np.maximum(cumw[:, :-1], _TINY)
            n_right = np.maximum(cumw[:, -1:] - n_left, _TINY)
            n_total = np.maximum(cumw[:, -1:], _TINY)
            parent = _weighted_variance(y_sorted, w_sorted)
        sum_left = cum[:, :-1]
        sum2_left = cum2[:, :-1]
        sum_right = cum[:, -1:] - sum_left
        sum2_right = cum2[:, -1:] - sum2_left
        var_left = sum2_left / n_left - (sum_left / n_left) ** 2
        var_right = sum2_right / n_right - (sum_right / n_right) ** 2
        child = (n_left * var_left + n_right * var_right) / n_total
        return parent[:, None] - child

    def _mask_gains(self, y_node, w_node, go_left, n_left, parent):
        # the weighted side means are BLAS dots over ragged row subsets,
        # which no batched call reproduces bit for bit: score each row
        return np.array([self._split_gain_for_mask(y_node, mask, w_node)
                         for mask in go_left])

    def _split_gain_for_mask(self, y_node, mask, w_node=None) -> float:
        parent = self._node_impurity(y_node, w_node)
        left, right = y_node[mask], y_node[~mask]
        if w_node is None:
            child = (
                len(left) * np.var(left) + len(right) * np.var(right)
            ) / len(y_node)
        else:
            wl, wr = w_node[mask], w_node[~mask]
            n_l, n_r = wl.sum(), wr.sum()
            child = (
                n_l * self._node_impurity(left, wl)
                + n_r * self._node_impurity(right, wr)
            ) / max(n_l + n_r, _TINY)
        return parent - float(child)

    # -- batched histogram kernel ------------------------------------------
    def _hist_width(self) -> int:
        return 3  # count, weight and first-moment histograms

    def _node_impurities_batch(self, y_rows, w_rows, block, n_blocks):
        if w_rows is None:
            cnt = np.maximum(np.bincount(block, minlength=n_blocks), 1)
            s1 = np.bincount(block, weights=y_rows, minlength=n_blocks)
            s2 = np.bincount(block, weights=y_rows * y_rows,
                             minlength=n_blocks)
            return np.maximum(s2 / cnt - (s1 / cnt) ** 2, 0.0)
        wt = np.maximum(np.bincount(block, weights=w_rows,
                                    minlength=n_blocks), _TINY)
        s1 = np.bincount(block, weights=w_rows * y_rows, minlength=n_blocks)
        s2 = np.bincount(block, weights=w_rows * y_rows * y_rows,
                         minlength=n_blocks)
        return np.maximum(s2 / wt - (s1 / wt) ** 2, 0.0)

    @staticmethod
    def _variance_gain(w_l, w_r, s1_l, s1_r, w_t, s1_t):
        """Variance-reduction gain from first moments only: the
        sum-of-squares term is constant across cuts of a node, so
        ``gain = (s1_l^2/w_l + s1_r^2/w_r - S1^2/W) / W``."""
        score = (s1_l * s1_l / np.maximum(w_l, _TINY)
                 + s1_r * s1_r / np.maximum(w_r, _TINY))
        base = s1_t * s1_t / np.maximum(w_t, _TINY)
        return (score - base) / np.maximum(w_t, _TINY)

    def _binned_splits_batch(self, sub, y_rows, w_rows, block, sizes,
                             impurities, n_bins, rng):
        n_rows, k = sub.shape
        n_blocks = len(sizes)
        min_leaf = self.min_samples_leaf
        slotkey = (block * k)[:, None] + np.arange(k)
        base_w = w_rows if w_rows is not None else None
        if base_w is None:
            w_t = np.bincount(block, minlength=n_blocks).astype(np.float64)
            s1_t = np.bincount(block, weights=y_rows, minlength=n_blocks)
        else:
            w_t = np.bincount(block, weights=base_w, minlength=n_blocks)
            s1_t = np.bincount(block, weights=base_w * y_rows,
                               minlength=n_blocks)
        if self.splitter == "random":
            keyb = (slotkey * n_bins + sub).ravel()
            counts = np.bincount(keyb, minlength=n_blocks * k * n_bins) \
                .reshape(n_blocks, k, n_bins)
            nl_all = counts.cumsum(axis=2)[:, :, :-1]
            t, _, valid = _random_bin_cuts(nl_all, sizes, min_leaf, rng)
            go = sub <= t[block]
            mw = go.astype(np.float64) if base_w is None \
                else go * base_w[:, None]
            flat_slot = slotkey.ravel()
            msize = n_blocks * k
            w_l = np.bincount(flat_slot, weights=mw.ravel(),
                              minlength=msize).reshape(n_blocks, k)
            s1_l = np.bincount(flat_slot,
                               weights=(mw * y_rows[:, None]).ravel(),
                               minlength=msize).reshape(n_blocks, k)
            gains = self._variance_gain(
                w_l, w_t[:, None] - w_l, s1_l, s1_t[:, None] - s1_l,
                w_t[:, None], s1_t[:, None])
            gains = np.where(valid, gains, -np.inf)
            slot = gains.argmax(axis=1)
            ar = np.arange(n_blocks)
            return slot, t[ar, slot], gains[ar, slot]
        keyb = (slotkey * n_bins + sub).ravel()
        size = n_blocks * k * n_bins
        counts = np.bincount(keyb, minlength=size) \
            .reshape(n_blocks, k, n_bins)
        y_rep = np.repeat(y_rows, k)
        if base_w is None:
            weight = counts.astype(np.float64)
            s1 = np.bincount(keyb, weights=y_rep,
                             minlength=size).reshape(n_blocks, k, n_bins)
        else:
            w_rep = np.repeat(base_w, k)
            weight = np.bincount(keyb, weights=w_rep,
                                 minlength=size).reshape(n_blocks, k, n_bins)
            s1 = np.bincount(keyb, weights=w_rep * y_rep,
                             minlength=size).reshape(n_blocks, k, n_bins)
        n_left = counts.cumsum(axis=2)[:, :, :-1]
        w_l = weight.cumsum(axis=2)[:, :, :-1]
        s1_l = s1.cumsum(axis=2)[:, :, :-1]
        w_t3 = w_t[:, None, None]
        s1_t3 = s1_t[:, None, None]
        gains = self._variance_gain(
            w_l, w_t3 - w_l, s1_l, s1_t3 - s1_l, w_t3, s1_t3)
        valid = ((n_left >= min_leaf)
                 & (sizes[:, None, None] - n_left >= min_leaf))
        gains = np.where(valid, gains, -np.inf)
        n_cuts = n_bins - 1
        flat = gains.reshape(n_blocks, k * n_cuts)
        best = flat.argmax(axis=1)
        slot, t = np.divmod(best, n_cuts)
        return slot, t, flat[np.arange(n_blocks), best]

    def _leaf_values_batch(self, y_sel, w_sel, child, n_children):
        cnt = np.maximum(np.bincount(child, minlength=n_children), 1)
        s1 = np.bincount(child, weights=y_sel, minlength=n_children)
        if w_sel is None:
            return (s1 / cnt)[:, None]
        wsum = np.bincount(child, weights=w_sel, minlength=n_children)
        ws1 = np.bincount(child, weights=w_sel * y_sel, minlength=n_children)
        vals = np.where(wsum > 0, ws1 / np.maximum(wsum, _TINY), s1 / cnt)
        return vals[:, None]

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "tree_")
        return self.tree_.value[self.tree_.apply(as_rows(X))][:, 0]

    def predict_binned(self, Xb) -> np.ndarray:
        """Predict on a pre-quantized code matrix (training-time path
        for boosting; requires a binned fit)."""
        check_is_fitted(self, "tree_")
        leaves = self.tree_.apply_binned(np.asarray(Xb))
        return self.tree_.value[leaves][:, 0]
