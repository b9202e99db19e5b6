"""Multi-output gradient-boosted regression trees on (x, y) locations.

Each output dimension gets its own sequence of depth-limited trees fitted
to squared-error residuals; all outputs share one hyperparameter set and
one global parameter budget. The budget is what keeps the UE-side models
lightweight, so it is enforced during training, not checked after.

Counting rule (frozen): 2 parameters per internal node (feature id +
threshold), 1 per leaf, 1 per output base prediction.

Training fits each boosting round for all outputs at once, level by level,
as XGBoost and LightGBM grow trees: an output's tree depends only on that
output's residuals, so the trees of a block of outputs grow together, one
vectorized step per tree level. The trees are then taken in output order,
and training stops at the first tree that would push the parameter count
past the budget, also partway through a round, so that low-index outputs
hold one tree more than the rest. That is the intended allocation: the
budget is a hard cap, filled greedily in round and output order.

The fit gives the trees of a recursive per-tree trainer (the tests keep
one as the reference) node for node and bit for bit, because it keeps that
trainer's arithmetic:
- a node's split sums are sequential cumulative sums over its rows in the
  feature's sorted order, restarting at every node (the rows of a padded
  node x position matrix);
- node means and the parent sse are `np.sum` over the node's rows in the
  first feature's order. numpy sums pairwise in an order set by the
  length, so each node is summed alone, all in one `np.add.reduceat` over
  the level's values with a 0.0 put in front of every node: `reduceat`
  copies a segment's first value (the 0.0) to the output and hands the
  rest to the pairwise loop, and `np.sum` of a float64 slice is likewise
  the identity 0.0 plus that loop's sum of all its values;
- node ids are in preorder: node, left subtree, right subtree;
- a later feature wins only if its sse is lower by more than 1e-15, and
  within a feature the lowest threshold wins ties.
"""

import logging
import numbers
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .fileio import load_npz, save_npz

log = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1

# Node arrays of `Tree`, in constructor order, with their dtypes.
_NODE_FIELDS = (("feature", int), ("threshold", float), ("left", int), ("right", int),
                ("value", float))
# Arrays of the packed layout with their dtypes; model files store them
# under these names.
_LAYOUT = (("tree_outputs", int), ("tree_sizes", int)) + tuple(
    ("node_" + name, dtype) for name, dtype in _NODE_FIELDS)
# Prediction walks rows in chunks of at most this many (row, tree) cells, so
# the walk's temporaries stay about 0.5 MB each whatever the batch size.
_CHUNK_CELLS = 1 << 16


@dataclass(frozen=True)
class TrainConfig:
    tree_count: int = 50
    max_depth: int = 3
    learning_rate: float = 0.3
    min_samples_leaf: int = 2
    budget_parameters: int = 2048

    def __post_init__(self):
        for name, low in (("tree_count", 0), ("max_depth", 1), ("min_samples_leaf", 1)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if not (isinstance(self.learning_rate, numbers.Real) and 0.0 < self.learning_rate <= 1.0):
            raise ValueError(f"learning_rate must be in (0, 1], got {self.learning_rate!r}")


class Tree:
    """One regression tree stored as flat node arrays.

    Node n: feature[n] >= 0 means internal with threshold[n] and children
    left[n]/right[n] (x[feature] <= threshold goes left); feature[n] == -1
    means leaf with value[n].
    """

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=int)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=int)
        self.right = np.asarray(right, dtype=int)
        self.value = np.asarray(value, dtype=float)


def _read_only(a, dtype):
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


class TreeEnsembleModel:
    """Per-output boosted tree ensembles with a shared global budget.

    All trees live in one packed, read-only node layout (`layout`): the node
    arrays of every tree concatenated in fit order, with `tree_outputs[i]`
    the output and `tree_sizes[i]` the node count of tree i. Child ids are
    local to their tree and always greater than their parent's id, as the
    preorder that `train` writes gives them. The layout is built once, at
    construction, and `trees` is a tuple of views into it, so the trees a
    caller sees are always the trees prediction evaluates.

    Prediction walks every tree at once, one level per step, over a
    (rows x trees) node matrix, through a child table built with the layout
    in which a leaf is its own child, so a tree that reached a leaf stays
    there. Each output then adds `learning_rate * leaf value` of its trees
    in fit order, so results are bit-identical to walking the trees one at
    a time and summing them per output.
    """

    def __init__(self, base_prediction, trees=(), learning_rate: float = 0.3,
                 output_dimension: int = 1, role: str = "coupled"):
        trees = tuple(trees)
        layout = {"tree_outputs": [dim for dim, _ in trees],
                  "tree_sizes": [len(t.feature) for _, t in trees]}
        for name, dtype in _NODE_FIELDS:
            layout["node_" + name] = (np.concatenate([getattr(t, name) for _, t in trees])
                                      if trees else np.zeros(0, dtype=dtype))
        self._build(base_prediction, layout, learning_rate, output_dimension, role)

    @classmethod
    def from_layout(cls, base_prediction, layout, learning_rate: float, output_dimension: int,
                    role: str) -> "TreeEnsembleModel":
        """Model over an already packed layout, as `save_model` writes it."""
        model = cls.__new__(cls)
        model._build(base_prediction, layout, learning_rate, output_dimension, role)
        return model

    def _build(self, base_prediction, layout, learning_rate, output_dimension, role):
        self.base_prediction = base_prediction
        self.learning_rate = learning_rate
        self.output_dimension = output_dimension
        self.role = role
        self._layout = {key: _read_only(layout[key], dtype) for key, dtype in _LAYOUT}
        outputs, sizes = self._layout["tree_outputs"], self._layout["tree_sizes"]
        feature = self._layout["node_feature"]
        n_nodes = len(feature)
        if (outputs.ndim != 1 or sizes.shape != outputs.shape or np.any(sizes < 1)
                or int(sizes.sum()) != n_nodes
                or any(self._layout["node_" + name].shape != (n_nodes,)
                       for name, _ in _NODE_FIELDS)):
            raise ValueError("tree_sizes do not match the node arrays")
        if np.any((outputs < 0) | (outputs >= output_dimension)):
            raise ValueError(f"tree output index outside [0, {output_dimension})")
        if np.any(feature < -1):
            raise ValueError("node feature ids must be >= -1")
        self._starts = np.cumsum(sizes) - sizes
        inner = feature >= 0
        offset = np.repeat(self._starts, sizes)
        parent = (np.arange(n_nodes) - offset)[inner]
        size = np.repeat(sizes, sizes)[inner]
        for side in ("node_left", "node_right"):
            child = self._layout[side][inner]
            if np.any((child <= parent) | (child >= size)):
                raise ValueError("child node ids must point forward inside their tree")
        # child[2n + go_left]: the global id of node n's right or left child;
        # a leaf points to itself, so a walk that reaches it stays there
        own = np.arange(n_nodes)
        self._child = _read_only(np.stack(
            [np.where(inner, offset + self._layout["node_right"], own),
             np.where(inner, offset + self._layout["node_left"], own)], axis=1).ravel(), int)
        self._root_feature = _read_only(feature[self._starts], int)
        self._root_threshold = _read_only(self._layout["node_threshold"][self._starts], float)
        used = np.sort(feature[inner])
        self._features = tuple(used[np.diff(used, prepend=-1) > 0].tolist())
        self._depth = int(self._tree_depths().max(initial=0))
        # Round of a tree = number of earlier trees on its output; one round
        # holds at most one tree per output.
        by_output = np.argsort(outputs, kind="stable")
        sorted_outputs = outputs[by_output]
        first = np.r_[True, sorted_outputs[1:] != sorted_outputs[:-1]]
        position = np.arange(len(outputs))
        self._round = np.empty(len(outputs), dtype=int)
        self._round[by_output] = position - np.maximum.accumulate(np.where(first, position, 0))
        self._round_count = int(self._round.max(initial=-1)) + 1
        self._trees = None

    def _tree_depths(self) -> np.ndarray:
        """Longest root-to-leaf path of every tree, from one walk of all
        trees' internal nodes, a level per step."""
        feature = self._layout["node_feature"]
        depths = np.zeros(len(self._starts), dtype=int)
        tree, node, level = np.arange(len(self._starts)), self._starts, 0
        while len(node):
            inner = feature[node] >= 0
            tree, node = tree[inner], node[inner]
            level += 1
            depths[tree] = level
            node = self._child[np.concatenate([2 * node, 2 * node + 1])]
            tree = np.concatenate([tree, tree])
        return depths

    @property
    def layout(self):
        """The packed node layout: read-only arrays keyed by their file names."""
        return MappingProxyType(self._layout)

    @property
    def trees(self) -> tuple:
        """(output index, Tree) pairs in fit order; each Tree views the layout."""
        if self._trees is None:
            ends = self._starts + self._layout["tree_sizes"]
            self._trees = tuple(
                (int(dim), Tree(*(self._layout["node_" + name][a:b] for name, _ in _NODE_FIELDS)))
                for dim, a, b in zip(self._layout["tree_outputs"], self._starts, ends))
        return self._trees

    def predict(self, location) -> np.ndarray:
        return self.predict_batch(np.asarray(location, dtype=float).reshape(1, -1))[0]

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Base plus `learning_rate * leaf value` of every tree, clipped to
        [0, 1]. The contributions go into a (rows, 1 + round, output) grid
        whose slot 0 holds the base and whose empty cells hold -0.0, which
        adds exactly nothing to any float; one `np.add.accumulate` along the
        round axis then adds them one after another, so each output gets its
        trees' contributions in fit order, as a per-tree loop would add them."""
        X = np.asarray(X, dtype=float)
        out = np.empty((X.shape[0], self.output_dimension))
        value, outputs = self._layout["node_value"], self._layout["tree_outputs"]
        grid = (1 + self._round_count, self.output_dimension)
        step = max(1, _CHUNK_CELLS // max(1, len(outputs), grid[0] * grid[1]))
        for lo in range(0, X.shape[0], step):
            leaves = self._leaves(X[lo:lo + step])
            padded = np.full((len(leaves),) + grid, -0.0)
            padded[:, 0] = self.base_prediction
            padded[:, 1 + self._round, outputs] = self.learning_rate * value[leaves]
            out[lo:lo + step] = np.add.accumulate(padded, axis=1)[:, -1]
        return np.clip(out, 0.0, 1.0)

    def _leaves(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id (into the layout) of every (row, tree) cell.

        Every tree advances one level per step, over a (rows x trees) node
        matrix: `x <= threshold` picks the child `child[2 * node + go_left]`,
        and a tree that reached a leaf loops on it. The root level reads
        each tree's root feature and threshold as (trees,) vectors."""
        feature, threshold = self._layout["node_feature"], self._layout["node_threshold"]
        node, f, t = self._starts, self._root_feature, self._root_threshold
        for level in range(self._depth):
            if level:
                f, t = feature[node], threshold[node]
            # the row's value of its node's feature; a leaf's pick is unused
            x = X[:, self._features[-1], None]
            for k in self._features[:-1]:
                x = np.where(f == k, X[:, k, None], x)
            node = self._child[2 * node + (x <= t)]
        return np.broadcast_to(node, (X.shape[0], len(self._starts)))

    def depth_histogram(self) -> dict[int, int]:
        """Number of trees of each depth, by ascending depth."""
        counts = np.bincount(self._tree_depths())
        return {depth: n for depth, n in enumerate(counts.tolist()) if n}


def param_count(model: TreeEnsembleModel) -> int:
    internal = int(np.count_nonzero(model.layout["node_feature"] >= 0))
    return model.output_dimension + 2 * internal + (len(model.layout["node_feature"]) - internal)


def _node_sums(a, starts):
    """`np.sum` of each node's slice of `a`, the nodes lying back to back
    from `starts`, bit for bit, as the module docstring explains."""
    return np.add.reduceat(np.insert(a, starts, 0.0), starts + np.arange(len(starts)))


def _best_splits(x, r, starts, lengths, min_leaf):
    """Best split of every node: (found, sse, feature, threshold).

    Row f of `x` and `r` holds the values of feature f and the residuals,
    node after node in that feature's sorted order, and is padded by at
    least the longest node; node k starts at `starts[k]`. A feature's
    candidate thresholds are the midpoints between distinct neighbouring
    values that leave at least `min_leaf` rows on either side; its best
    has the lowest sse, and the lowest threshold among equal ones. The
    lowest feature with a candidate wins unless a later one beats it by
    more than 1e-15. Nodes are padded to the longest of their group, and
    the cumulative sums run along each padded row, so they restart at
    every node as a per-node `np.cumsum` does. Each sse term is computed as
    the per-node formula computes it, in the same order."""
    features = len(x)
    found = np.zeros(len(starts), dtype=bool)
    best_sse, threshold = np.zeros(len(starts)), np.zeros(len(starts))
    feature = np.full(len(starts), -1)
    by_length = np.argsort(-lengths, kind="stable")
    # views of every run of `width` values, from which each group is copied
    width = max(2, int(lengths.max(initial=0)))
    x_windows = np.lib.stride_tricks.sliding_window_view(x, width, axis=-1)
    r_windows = np.lib.stride_tricks.sliding_window_view(r, width, axis=-1)
    sorted_lengths = lengths[by_length]
    lo = 0
    while lo < len(by_length):
        width = max(2, int(sorted_lengths[lo]))
        # about _CHUNK_CELLS / 2 cells, as the search keeps five arrays of a
        # group's size, and no node shorter than half the width
        hi = min(lo + max(1, _CHUNK_CELLS // (2 * features * width)),
                 lo + int(np.searchsorted(-sorted_lengths[lo:], -(width // 2), side="right")))
        group = by_length[lo:max(hi, lo + 1)]
        lo += len(group)
        v = x_windows[:, starts[group], :width]                # (feature, node, position)
        res = r_windows[:, starts[group], :width]
        n = lengths[group][:, None].astype(float)
        i = np.arange(1.0, width)                              # left sizes
        right = n - i
        too_small = (i < min_leaf) | (right < max(min_leaf, 1))
        np.maximum(right, 1.0, out=right)      # no division by zero in padding
        cs = np.cumsum(res, axis=2)
        cs2 = np.cumsum(np.square(res, out=res), axis=2)
        f_ix, k_ix = np.arange(features)[:, None, None], np.arange(len(group))[:, None]
        last = lengths[group][:, None] - 1
        total, total2 = cs[:, k_ix, last], cs2[:, k_ix, last]
        cs, cs2 = cs[..., :-1], cs2[..., :-1]
        split_sse = np.square(cs)                              # left: cs2 - cs ** 2 / i
        split_sse /= i
        np.subtract(cs2, split_sse, out=split_sse)
        right_sse = np.subtract(total, cs, out=cs)             # right: (total2 - cs2)
        np.square(right_sse, out=right_sse)                    #   - (total - cs) ** 2 / right
        right_sse /= right
        np.subtract(total2, cs2, out=cs2)
        split_sse += np.subtract(cs2, right_sse, out=cs2)
        invalid = (v[..., :-1] >= v[..., 1:]) | too_small
        np.copyto(split_sse, np.inf, where=invalid)
        pos = np.argmin(split_sse, axis=2)[..., None]
        sse = split_sse[f_ix, k_ix, pos][..., 0]
        midpoint = ((v[f_ix, k_ix, pos] + v[f_ix, k_ix, pos + 1]) / 2.0)[..., 0]
        ok = np.isfinite(sse)                  # the sse of a valid split is finite
        for f in range(features):
            take = ok[f] & (~found[group] | (sse[f] < best_sse[group] - 1e-15))
            chosen = group[take]
            best_sse[chosen], threshold[chosen] = sse[f, take], midpoint[f, take]
            feature[chosen] = f
            found[group] |= ok[f]
    return found, best_sse, feature, threshold


def _fit_trees(X, orders, residual, config: TrainConfig):
    """One tree per row of `residual` (trees x rows of X, C-contiguous), all
    fitted together, level by level.

    A node is a set of rows. Each level keeps, per feature, the rows of all
    its nodes in one flat array, node after node, each node's rows in that
    feature's sorted order. A node's value is the mean of its residuals in
    the first feature's order; it splits at its best split (`_best_splits`)
    if that lowers its sse by more than 1e-12 * max(1, sse).

    Returns the trees' node arrays, packed tree after tree with each tree in
    preorder (node, left subtree, right subtree), the trees' node counts
    and internal-node counts, and the leaf value of every (tree, row)."""
    trees, n = residual.shape
    min_leaf = config.min_samples_leaf
    x_flat = np.ascontiguousarray(X.T).ravel()  # feature f, row j at f * n + j
    r_flat = residual.ravel()                   # tree c, row j at c * n + j
    tree = np.arange(trees)                     # the tree of every node of the level
    lengths = np.full(trees, n)
    rows = [np.tile(o, trees) for o in orders]
    leaf_value = np.empty(trees * n)
    levels = []
    for depth in range(config.max_depth + 1):
        total = int(lengths.sum())
        starts = np.cumsum(lengths) - lengths
        node = np.repeat(np.arange(len(lengths)), lengths)
        at = tree[node] * n
        # per feature, the residuals in node order, padded for `_best_splits`;
        # x below holds the feature values in the same layout
        r = np.empty((len(rows), total + max(2, int(lengths.max()))))
        r[:, total:] = 0.0
        for f, rows_f in enumerate(rows):
            r[f, :total] = r_flat[at + rows_f]
        mean = _node_sums(r[0, :total], starts) / lengths
        leaf_value[at + rows[0]] = mean[node]  # the next level overwrites split nodes
        feature = np.full(len(lengths), -1)
        threshold = np.zeros(len(lengths))
        split = np.zeros(len(lengths), dtype=bool)
        if depth < config.max_depth:
            tried = np.nonzero(lengths >= 2 * min_leaf)[0]
            parent_sse = _node_sums((r[0, :total] - mean[node]) ** 2, starts)[tried]
            x = np.empty_like(r)
            x[:, total:] = 0.0
            for f, rows_f in enumerate(rows):
                x[f, :total] = x_flat[f * n + rows_f]
            found, sse, best_feature, best_threshold = _best_splits(
                x, r, starts[tried], lengths[tried], min_leaf)
            gain = found & ~(sse >= parent_sse - 1e-12 * np.maximum(1.0, parent_sse))
            split[tried[gain]] = True
            feature[tried[gain]] = best_feature[gain]
            threshold[tried[gain]] = best_threshold[gain]
        levels.append((tree, mean, feature, threshold, split))
        if not np.any(split):
            break
        # the k-th split node's children are nodes k (left) and K + k (right)
        # of the next level, K the number of splits; masks keep the row order.
        # The last level needs the rows in the first feature's order only.
        if depth + 1 == config.max_depth:
            rows = rows[:1]
        kept = split[node]
        of = node[kept]
        for f, rows_f in enumerate(rows):
            rows_f = rows_f[kept]
            go_left = x_flat[feature[of] * n + rows_f] <= threshold[of]
            rows[f] = np.concatenate([rows_f[go_left], rows_f[~go_left]])
        # every feature's order holds the same rows per node
        left = np.bincount((np.cumsum(split) - 1)[of[go_left]], minlength=int(split.sum()))
        tree = np.concatenate([tree[split], tree[split]])
        lengths = np.concatenate([left, lengths[split] - left])
    return _preorder(levels, trees) + (leaf_value.reshape(trees, n),)


def _preorder(levels, trees):
    """The node arrays of `_fit_trees`' levels, packed tree after tree in
    preorder, and each tree's node and internal-node counts."""
    sizes = [np.ones(len(levels[-1][0]), dtype=int)]     # subtree sizes, bottom up
    for *_, split in reversed(levels[:-1]):
        below, k = sizes[0], int(split.sum())
        size = np.ones(len(split), dtype=int)
        size[split] += below[:k] + below[k:]
        sizes.insert(0, size)
    ids = np.zeros(trees, dtype=int)                    # preorder ids, top down
    parts = []
    for depth, (tree, mean, feature, threshold, split) in enumerate(levels):
        left, right = np.full(len(split), -1), np.full(len(split), -1)
        if np.any(split):
            left[split] = ids[split] + 1
            right[split] = left[split] + sizes[depth + 1][:int(split.sum())]
        parts.append((tree, ids, feature, threshold, left, right, mean))
        ids = np.concatenate([left[split], right[split]])
    tree, ids, *arrays = (np.concatenate(a) for a in zip(*parts))
    tree_sizes = sizes[0]
    place = (np.cumsum(tree_sizes) - tree_sizes)[tree] + ids
    nodes = {}
    for (name, _), values in zip(_NODE_FIELDS, arrays):
        nodes[name] = np.empty_like(values)
        nodes[name][place] = values
    internal = np.bincount(tree[arrays[0] >= 0], minlength=trees)
    return nodes, tree_sizes, internal


def _boosted_layout(X, Y, base, config: TrainConfig):
    """The packed layout of the boosted trees, in fit order.

    Every round fits one tree per output on the current residuals, skipping
    outputs whose residuals are all below 1e-12 and trees without a split,
    and training stops the moment the next tree would push the parameter
    count past the budget, also partway through a round. The trees of a
    round depend only on their own output's residuals, so blocks of outputs
    are fitted at once, and the block's trees are then taken in output
    order. A block spans about `_CHUNK_CELLS` (feature, row, output) cells,
    the size of the fit's largest temporaries."""
    n, d = Y.shape
    orders = [np.argsort(X[:, f], kind="stable") for f in range(X.shape[1])]
    pred = np.tile(base, (n, 1))
    used = d
    pieces = []
    block = max(1, _CHUNK_CELLS // (X.shape[1] * n))  # (feature, row, output) cells
    for _ in range(config.tree_count):
        for lo in range(0, d, block):
            dims = np.arange(lo, min(lo + block, d))
            residual = (Y[:, dims] - pred[:, dims]).T
            active = ~(np.max(np.abs(residual), axis=1) < 1e-12)
            if not np.any(active):
                continue
            dims, residual = dims[active], residual[active]
            nodes, sizes, internal, leaf_value = _fit_trees(X, orders, residual, config)
            cost = np.where(internal > 0, sizes + internal, 0)
            fits = used + np.cumsum(cost) <= config.budget_parameters
            kept = (internal > 0) & fits
            pred[:, dims[kept]] += config.learning_rate * leaf_value[kept].T
            used += int(cost[kept].sum())
            in_kept = np.repeat(kept, sizes)
            pieces.append((dims[kept], sizes[kept],
                           *(nodes[name][in_kept] for name, _ in _NODE_FIELDS)))
            if not np.all(fits):
                return _pack(pieces)
    return _pack(pieces)


def _pack(pieces):
    """The layout (`_LAYOUT` keys) of the concatenated pieces, empty if none."""
    layout = {key: np.zeros(0, dtype=dtype) for key, dtype in _LAYOUT}
    if pieces:
        layout = {key: np.concatenate(arrays) for (key, _), arrays in zip(_LAYOUT, zip(*pieces))}
    return layout


def train(X, Y, config: TrainConfig, role: str = "coupled") -> TreeEnsembleModel:
    """Greedy per-output boosting under a global parameter budget.

    Rows are lexicographically sorted by location first, so the fit does not
    depend on input row order.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if len(X) == 0:
        raise ValueError("empty training data")
    if len(X) != len(Y):
        raise ValueError("inputs and targets must have the same length")
    d = Y.shape[1]
    if config.budget_parameters < d:
        raise ValueError(f"budget {config.budget_parameters} cannot hold {d} base predictions")

    sort = np.lexsort((X[:, 1], X[:, 0]))
    X, Y = X[sort], Y[sort]
    base = Y.mean(axis=0)
    return TreeEnsembleModel.from_layout(base, _boosted_layout(X, Y, base, config),
                                         config.learning_rate, d, role)


def kfold_tune(X, Y, grid: list[TrainConfig], fold_assignments: np.ndarray) -> TrainConfig:
    """Grid point with the lowest mean validation MSE over folds; ties break
    toward smaller parameter count, then earlier grid position."""
    if not grid:
        raise ValueError("hyperparameter grid must be nonempty")
    if len(grid) == 1:
        return grid[0]
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    folds = sorted(set(np.asarray(fold_assignments).tolist()))  # np.unique loads numpy.ma
    best = None
    for gi, cfg in enumerate(grid):
        mses, params = [], []
        for f in folds:
            val = fold_assignments == f
            model = train(X[~val], Y[~val], cfg)
            mses.append(float(np.mean((model.predict_batch(X[val]) - Y[val]) ** 2)))
            params.append(param_count(model))
        key = (float(np.mean(mses)), float(np.mean(params)), gi)
        if best is None or key < best[0]:
            best = (key, cfg)
        log.debug("grid point %d: val MSE %.6g, mean params %.1f", gi, key[0], key[1])
    (mse, params, gi), cfg = best
    log.info("chose grid point %d of %d: val MSE %.6g, mean params %.1f", gi, len(grid), mse,
             params)
    return cfg


def save_model(model: TreeEnsembleModel, path: str) -> None:
    save_npz(path, {
        "base_prediction": model.base_prediction,
        "learning_rate": np.array([model.learning_rate]),
        "output_dimension": np.array([model.output_dimension]),
        "role": np.array([model.role]),
        **model.layout,
    }, MODEL_FORMAT_VERSION)


def load_model(path: str) -> TreeEnsembleModel:
    arrays = load_npz(path, "model", MODEL_FORMAT_VERSION,
                      ("base_prediction", "learning_rate", "output_dimension", "role")
                      + tuple(key for key, _ in _LAYOUT))
    try:
        return TreeEnsembleModel.from_layout(
            arrays["base_prediction"], {key: arrays[key] for key, _ in _LAYOUT},
            learning_rate=float(arrays["learning_rate"][0]),
            output_dimension=int(arrays["output_dimension"][0]), role=str(arrays["role"][0]))
    except ValueError as exc:
        raise ValueError(f"bad model file {path!r}: {exc}") from exc
