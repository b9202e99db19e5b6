"""Multi-output gradient-boosted regression trees on (x, y) locations.

Each output dimension gets its own sequence of depth-limited trees fitted
to squared-error residuals; all outputs share one hyperparameter set and
one global parameter budget. The budget is what keeps the UE-side models
lightweight, so it is enforced during training, not checked after.

Counting rule (frozen): 2 parameters per internal node (feature id +
threshold), 1 per leaf, 1 per output base prediction.
"""

import logging
import os
import tempfile
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

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
        if self.tree_count < 0 or self.max_depth < 1:
            raise ValueError("tree_count must be >= 0 and max_depth >= 1")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ValueError("learning_rate must be in (0, 1]")


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

    @property
    def num_internal(self) -> int:
        return int(np.sum(self.feature >= 0))

    @property
    def num_leaves(self) -> int:
        return int(np.sum(self.feature < 0))

    @property
    def param_cost(self) -> int:
        return 2 * self.num_internal + self.num_leaves

    @property
    def depth(self) -> int:
        def walk(n):
            if self.feature[n] < 0:
                return 0
            return 1 + max(walk(self.left[n]), walk(self.right[n]))
        return walk(0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=int)
        active = self.feature[node] >= 0
        while np.any(active):
            idx = np.nonzero(active)[0]
            n = node[idx]
            go_left = X[idx, self.feature[n]] <= self.threshold[n]
            node[idx] = np.where(go_left, self.left[n], self.right[n])
            active = self.feature[node] >= 0
        return self.value[node]


def _best_split(X, residual, order, min_leaf):
    """Best (feature, threshold, sse) over midpoint thresholds; ties go to
    the lower feature index, then the lower threshold."""
    n = order[0].shape[0]
    best = None
    for f in range(X.shape[1]):
        o = order[f]
        v = X[o, f]
        r = residual[o]
        cs = np.cumsum(r)
        cs2 = np.cumsum(r * r)
        total, total2 = cs[-1], cs2[-1]
        i = np.arange(1, n)          # left sizes
        valid = (v[:-1] < v[1:]) & (i >= min_leaf) & (n - i >= min_leaf)
        if not np.any(valid):
            continue
        left_sse = cs2[:-1] - cs[:-1] ** 2 / i
        right_sse = (total2 - cs2[:-1]) - (total - cs[:-1]) ** 2 / (n - i)
        sse = np.where(valid, left_sse + right_sse, np.inf)
        pos = int(np.argmin(sse))
        if best is None or sse[pos] < best[2] - 1e-15:
            best = (f, (v[pos] + v[pos + 1]) / 2.0, float(sse[pos]))
    return best


def _fit_tree(X, residual, order, config: TrainConfig):
    """Fit one tree. Also returns the leaf id of every training row, taken
    from the fit's own partition, which uses the same `<=` test as
    `Tree.predict`."""
    feature, threshold, left, right, value = [], [], [], [], []
    leaf_of_row = np.empty(X.shape[0], dtype=int)

    def build(order_node, depth):
        node_id = len(feature)
        leaf_of_row[order_node[0]] = node_id  # children, built later, overwrite
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        r = residual[order_node[0]]
        value.append(float(np.mean(r)))
        n = r.shape[0]
        if depth >= config.max_depth or n < 2 * config.min_samples_leaf:
            return node_id
        parent_sse = float(np.sum((r - np.mean(r)) ** 2))
        split = _best_split(X, residual, order_node, config.min_samples_leaf)
        if split is None or split[2] >= parent_sse - 1e-12 * max(1.0, parent_sse):
            return node_id
        f, thr, _ = split
        go_left = X[:, f] <= thr
        left_orders = [o[go_left[o]] for o in order_node]
        right_orders = [o[~go_left[o]] for o in order_node]
        feature[node_id] = f
        threshold[node_id] = thr
        left[node_id] = build(left_orders, depth + 1)
        right[node_id] = build(right_orders, depth + 1)
        return node_id

    build(order, 0)
    return Tree(feature, threshold, left, right, value), leaf_of_row


def _read_only(a, dtype):
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


class TreeEnsembleModel:
    """Per-output boosted tree ensembles with a shared global budget.

    All trees live in one packed, read-only node layout (`layout`): the node
    arrays of every tree concatenated in fit order, with `tree_outputs[i]`
    the output and `tree_sizes[i]` the node count of tree i. Child ids are
    local to their tree and always greater than their parent's id, as
    `_fit_tree` writes them. The layout is built once, at construction, and
    `trees` is a tuple of views into it, so the trees a caller sees are
    always the trees prediction evaluates.

    Prediction walks every tree at once, one level per step, over a
    (rows x trees) node matrix; a tree that reached a leaf stays there.
    Each output then adds `learning_rate * leaf value` of its trees in fit
    order, so results are bit-identical to summing `Tree.predict` per tree.
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
        parent = (np.arange(n_nodes) - np.repeat(self._starts, sizes))[inner]
        size = np.repeat(sizes, sizes)[inner]
        for side in ("node_left", "node_right"):
            child = self._layout[side][inner]
            if np.any((child <= parent) | (child >= size)):
                raise ValueError("child node ids must point forward inside their tree")
        self._depth = self._max_depth()
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

    def _max_depth(self) -> int:
        """Longest root-to-leaf path over all trees."""
        feature, left, right = (self._layout[k] for k in ("node_feature", "node_left",
                                                          "node_right"))
        starts, nodes, depth = self._starts, self._starts, 0
        while True:
            inner = feature[nodes] >= 0
            if not np.any(inner):
                return depth
            starts, nodes = starts[inner], nodes[inner]
            starts = np.concatenate([starts, starts])
            nodes = starts + np.concatenate([left[nodes], right[nodes]])
            depth += 1

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
        [0, 1]. The contributions go into a (rows, round, output) grid
        padded with -0.0, which adds exactly nothing to any float, and the
        rounds are added one after another: each output thus gets its trees'
        contributions in fit order, as a per-tree loop would add them."""
        X = np.asarray(X, dtype=float)
        out = np.tile(self.base_prediction, (X.shape[0], 1))
        value, outputs = self._layout["node_value"], self._layout["tree_outputs"]
        grid = (self._round_count, self.output_dimension)
        step = max(1, _CHUNK_CELLS // max(1, len(outputs), grid[0] * grid[1]))
        for lo in range(0, X.shape[0], step):
            rows = slice(lo, lo + step)
            leaves = self._leaves(X[rows])
            padded = np.full((len(leaves),) + grid, -0.0)
            padded[:, self._round, outputs] = self.learning_rate * value[leaves]
            for r in range(grid[0]):
                out[rows] += padded[:, r]
        return np.clip(out, 0.0, 1.0)

    def _leaves(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id (into the layout) of every (row, tree) cell."""
        feature, threshold, left, right = (
            self._layout[k] for k in ("node_feature", "node_threshold", "node_left",
                                      "node_right"))
        starts = self._starts
        row = np.arange(X.shape[0])[:, None]
        node = np.broadcast_to(starts, (X.shape[0], len(starts)))
        for _ in range(self._depth):
            f = feature[node]
            go_left = X[row, f] <= threshold[node]
            child = starts + np.where(go_left, left[node], right[node])
            node = np.where(f >= 0, child, node)
        return node

    def depth_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for _, tree in self.trees:
            d = tree.depth
            hist[d] = hist.get(d, 0) + 1
        return hist


def param_count(model: TreeEnsembleModel) -> int:
    internal = int(np.count_nonzero(model.layout["node_feature"] >= 0))
    return model.output_dimension + 2 * internal + (len(model.layout["node_feature"]) - internal)


def _boosted_trees(X, Y, base, config: TrainConfig):
    """(output, tree) pairs in fit order. Rounds fit one tree per output on
    the current residuals, and stop the moment the next tree would push the
    parameter count past the budget."""
    d = Y.shape[1]
    order = [np.argsort(X[:, f], kind="stable") for f in range(X.shape[1])]
    pred = np.tile(base, (len(X), 1))
    used = d
    for _ in range(config.tree_count):
        for dim in range(d):
            residual = Y[:, dim] - pred[:, dim]
            if np.max(np.abs(residual)) < 1e-12:
                continue
            tree, leaf_of_row = _fit_tree(X, residual, order, config)
            if tree.num_internal == 0:
                continue  # no useful split left for this output
            if used + tree.param_cost > config.budget_parameters:
                return
            yield dim, tree
            used += tree.param_cost
            pred[:, dim] += config.learning_rate * tree.value[leaf_of_row]


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
    return TreeEnsembleModel(base, _boosted_trees(X, Y, base, config),
                             learning_rate=config.learning_rate, output_dimension=d, role=role)


def training_loss_curve(X, Y, config: TrainConfig) -> np.ndarray:
    """Per-round training MSE (diagnostic; mirrors train())."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    losses = []
    for rounds in range(1, config.tree_count + 1):
        cfg = TrainConfig(tree_count=rounds, max_depth=config.max_depth,
                          learning_rate=config.learning_rate,
                          min_samples_leaf=config.min_samples_leaf,
                          budget_parameters=config.budget_parameters)
        m = train(X, Y, cfg)
        losses.append(float(np.mean((m.predict_batch(X) - Y) ** 2)))
    return np.array(losses)


def kfold_tune(X, Y, grid: list[TrainConfig], fold_assignments: np.ndarray) -> TrainConfig:
    """Grid point with the lowest mean validation MSE over folds; ties break
    toward smaller parameter count, then earlier grid position."""
    if not grid:
        raise ValueError("hyperparameter grid must be nonempty")
    if len(grid) == 1:
        return grid[0]
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    folds = np.unique(fold_assignments)
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
    return best[1]


def save_model(model: TreeEnsembleModel, path: str) -> None:
    arrays = {
        "format_version": np.array([MODEL_FORMAT_VERSION]),
        "base_prediction": model.base_prediction,
        "learning_rate": np.array([model.learning_rate]),
        "output_dimension": np.array([model.output_dimension]),
        "role": np.array([model.role]),
        **model.layout,
    }
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".npz.tmp")
    os.close(fd)
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_model(path: str) -> TreeEnsembleModel:
    try:
        with open(path, "rb") as fh, np.load(fh) as data:
            arrays = {name: data[name] for name in data.files}
    except Exception as exc:
        raise ValueError(f"cannot read model file {path!r}: {exc}") from exc
    if "format_version" not in arrays or arrays["format_version"][0] != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model file version in {path!r}")
    try:
        return TreeEnsembleModel.from_layout(
            arrays["base_prediction"], {key: arrays[key] for key, _ in _LAYOUT},
            learning_rate=float(arrays["learning_rate"][0]),
            output_dimension=int(arrays["output_dimension"][0]), role=str(arrays["role"][0]))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad model file {path!r}: {exc}") from exc
