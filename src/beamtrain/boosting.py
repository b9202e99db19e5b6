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
  feature's sorted order, restarting at every node (each row of the split
  search's padded (feature, node, position) blocks is summed on its own);
- node means and the parent sse are `np.sum` over the node's rows in the
  first feature's order. numpy sums pairwise in an order set by the
  length, so each node is summed alone, all in one `np.add.reduceat` over
  a copy of the level's values with a 0.0 slot in front of every node
  (the parent sse squares the deviations in that copy, then zeroes the
  slots again): `reduceat` copies a segment's first value (the slot) to
  the output and hands the rest to the pairwise loop, and `np.sum` of a
  float64 slice is likewise the identity 0.0 plus that loop's sum;
- node ids are in preorder: node, left subtree, right subtree;
- a later feature wins only if its sse is lower by more than 1e-15, and
  within a feature the lowest threshold wins ties.

The equality holds only while every candidate sse is finite. Where the
squared residuals overflow (residuals of about 1e200), the split search
drops the inf and NaN sse values and the node gets no split, while the
reference may split on a NaN. Throughput ratios in [0, 1] never get there.
`train` rejects a non-finite input or target outright.
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
    preorder that `train` writes gives them. The constructor takes the
    layout as `train` builds it and model files store it, checks it and
    keeps a read-only copy; `trees` is a tuple of views into that copy, so
    the trees a caller sees are always the trees prediction evaluates.

    A layout that is not a tree (a node listed as a child twice, or by no
    parent) is rejected. Prediction walks every tree at once, one level per
    step, over a (rows x trees) node matrix, through walk tables built with
    the layout in level-major order: the roots in tree order, then level by
    level each internal node's left and right child, so siblings are
    adjacent. In them a leaf is its own right child behind a NaN threshold,
    so a tree that reached a leaf stays there. Each output then adds
    `learning_rate * leaf value` of its trees in fit order, so results are
    bit-identical to walking the trees one at a time and summing them per
    output.
    """

    def __init__(self, base_prediction, layout, learning_rate: float, output_dimension: int,
                 role: str):
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
        left, right = (np.where(inner, offset + self._layout[side], -1)
                       for side in ("node_left", "node_right"))
        parents = np.bincount(np.r_[left[inner], right[inner]], minlength=n_nodes)
        parents[self._starts] += 1          # a root has none, every other node one
        if np.any(parents != 1):
            raise ValueError("the nodes are not a tree: a node has no parent or two")
        # Level-major order: the roots in tree order, then level after level
        # each internal node's left and right child, in the order of the level
        # above, so that siblings are adjacent and left = right - 1.
        levels, tree_of = [self._starts], np.repeat(np.arange(len(sizes)), sizes)
        self._tree_depths = np.zeros(len(sizes), dtype=int)
        while len(levels[-1]):
            self._tree_depths[tree_of[levels[-1]]] = len(levels) - 1
            split = levels[-1][inner[levels[-1]]]
            levels.append(np.stack([left[split], right[split]], axis=1).ravel())
        order = np.concatenate(levels)
        rank = np.empty(n_nodes, dtype=int)
        rank[order] = np.arange(n_nodes)
        # the walk tables, in that order: a leaf is its own right child and has
        # a NaN threshold, which no `x <=` passes, so a walk stays on it
        self._right = _read_only(np.where(inner[order], rank[right[order]], np.arange(n_nodes)),
                                 int)
        self._threshold = _read_only(
            np.where(inner, self._layout["node_threshold"], np.nan)[order], float)
        self._feature = _read_only(feature[order],
                                   np.min_scalar_type(-int(feature.max(initial=0)) - 1))
        self._value = _read_only(learning_rate * self._layout["node_value"][order], float)
        used = np.sort(feature[inner])
        self._features = tuple(used[np.diff(used, prepend=-1) > 0].tolist())
        self._depth = int(self._tree_depths.max(initial=0))
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
        [0, 1]. The contributions go into a (1 + round, rows, output) grid
        whose slot 0 holds the base and whose empty cells hold -0.0, which
        adds exactly nothing to any float. A loop then adds the rounds to
        slot 0 one after another, so each output gets its trees'
        contributions in fit order, as a per-tree loop would add them;
        `np.add.reduce` over the rounds would not, as it may sum pairwise."""
        X = np.asarray(X, dtype=float)
        out = np.empty((X.shape[0], self.output_dimension))
        outputs = self._layout["tree_outputs"]
        cells = (1 + self._round_count) * self.output_dimension
        step = max(1, _CHUNK_CELLS // max(1, len(outputs), cells))
        for lo in range(0, X.shape[0], step):
            leaves = self._leaves(X[lo:lo + step])
            grid = np.full((1 + self._round_count, len(leaves), self.output_dimension), -0.0)
            grid[0] = self.base_prediction
            grid[1 + self._round, :, outputs] = self._value[leaves].T
            for contributions in grid[1:]:
                grid[0] += contributions
            out[lo:lo + step] = grid[0]
        return np.clip(out, 0.0, 1.0)

    def _leaves(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id (into the level-major walk tables) of every (row,
        tree) cell.

        Every tree advances one level per step, over a (rows x trees) node
        matrix: `node = right[node] - (x <= threshold)` goes to the left or
        the right child, and a tree that reached a leaf stays on it (its
        own right child, behind a NaN threshold). The walk starts on the
        first (trees,) entries, the roots."""
        node = np.arange(len(self._starts))
        for _ in range(self._depth):
            f = self._feature[node]
            # the row's value of its node's feature; a leaf's pick is unused
            x = X[:, self._features[-1], None]
            for k in self._features[:-1]:
                x = np.where(f == k, X[:, k, None], x)
            node = self._right[node] - (x <= self._threshold[node])
        return np.broadcast_to(node, (X.shape[0], len(self._starts)))

    def depth_histogram(self) -> dict[int, int]:
        """Number of trees of each depth, by ascending depth."""
        counts = np.bincount(self._tree_depths)
        return {depth: n for depth, n in enumerate(counts.tolist()) if n}


def param_count(model: TreeEnsembleModel) -> int:
    internal = int(np.count_nonzero(model.layout["node_feature"] >= 0))
    return model.output_dimension + 2 * internal + (len(model.layout["node_feature"]) - internal)


def _node_stats(a, starts, lengths, sse):
    """Each node's mean and, if `sse`, sum of squared deviations from it, the
    nodes lying back to back in `a` from `starts`; see the module docstring."""
    slots = starts + np.arange(len(starts))
    slotted = np.insert(a, starts, 0.0)
    mean = np.add.reduceat(slotted, slots) / lengths
    if not sse:
        return mean, None
    slotted -= np.repeat(mean, lengths + 1)
    np.square(slotted, out=slotted)
    slotted[slots] = 0.0
    return mean, np.add.reduceat(slotted, slots)


def _best_splits(x, r, starts, lengths, min_leaf):
    """Best split of every node: (sse, feature, threshold), feature -1 if none.

    Row f of `x` and `r` holds the values of feature f and the residuals,
    node after node in that feature's sorted order, and is padded by at
    least the longest node; node k starts at `starts[k]`. A feature's
    candidate thresholds are the midpoints between distinct neighbouring
    values (one boolean step mask, `x[:, :-1] >= x[:, 1:]`, marks the
    others) that leave at least `min_leaf` rows on either side; its best
    has the lowest sse, and the lowest threshold among equal ones. The
    lowest feature with a candidate wins unless a later one beats it by
    more than 1e-15. A group is the next nodes by length up to the cell
    cap, one (feature, node, position) block padded to its longest node;
    the cumulative sums run along each row, so they restart at every node
    as a per-node `np.cumsum` does, and the last position, which leaves no
    row on the right, is masked like the padding. Each sse term is computed
    as the per-node formula computes it, in the same order."""
    features = len(x)
    best_sse, threshold = np.zeros(len(starts)), np.zeros(len(starts))
    feature = np.full(len(starts), -1)
    by_length = np.argsort(-lengths, kind="stable")
    # views of every run of `width` residuals and of `width` steps
    width = max(2, int(lengths.max(initial=0)))
    r_windows, step_windows = (np.lib.stride_tricks.as_strided(
        a, (features, a.shape[1] - width + 1, width), a.strides + a.strides[1:],
        writeable=False) for a in (r, x[:, :-1] >= x[:, 1:]))
    lo = 0
    while lo < len(by_length):
        width = max(2, int(lengths[by_length[lo]]))
        # the next nodes by length, about _CHUNK_CELLS / 2 cells, as the
        # search keeps five arrays of a group's size
        group = by_length[lo:lo + max(1, _CHUNK_CELLS // (2 * features * width))]
        lo += len(group)
        res = r_windows[:, starts[group], :width]              # (feature, node, position)
        i = np.arange(1.0, width + 1)                          # left sizes
        right = lengths[group][:, None].astype(float) - i  # <= 0 at the last position
        too_small = (i < min_leaf) | (right < max(min_leaf, 1))
        np.maximum(right, 1.0, out=right)      # no division by zero in padding
        cs = np.cumsum(res, axis=2)
        cs2 = np.cumsum(np.square(res, out=res), axis=2)
        f_ix, k_ix = np.arange(features)[:, None, None], np.arange(len(group))[:, None]
        last = lengths[group][:, None] - 1
        total, total2 = cs[:, k_ix, last], cs2[:, k_ix, last]
        split_sse = np.square(cs)                              # left: cs2 - cs ** 2 / i
        split_sse /= i
        np.subtract(cs2, split_sse, out=split_sse)
        right_sse = np.subtract(total, cs, out=cs)             # right: (total2 - cs2)
        np.square(right_sse, out=right_sse)                    #   - (total - cs) ** 2 / right
        right_sse /= right
        np.subtract(total2, cs2, out=cs2)
        split_sse += np.subtract(cs2, right_sse, out=cs2)
        invalid = step_windows[:, starts[group], :width] | too_small
        np.copyto(split_sse, np.inf, where=invalid)
        pos = np.argmin(split_sse, axis=2)[..., None]
        sse = split_sse[f_ix, k_ix, pos][..., 0]
        at = starts[group][:, None] + pos                      # pos in the rows of x
        midpoint = ((x[f_ix, at] + x[f_ix, at + 1]) / 2.0)[..., 0]
        ok = np.isfinite(sse)                  # the sse of a valid split is finite
        for f in range(features):
            take = ok[f] & ((feature[group] < 0) | (sse[f] < best_sse[group] - 1e-15))
            chosen = group[take]
            best_sse[chosen], threshold[chosen] = sse[f, take], midpoint[f, take]
            feature[chosen] = f
    return best_sse, feature, threshold


def _fit_trees(X, orders, residual, config: TrainConfig):
    """One tree per row of `residual` (trees x rows of X, C-contiguous), all
    fitted together, level by level.

    A node is a set of cells: cell `tree * n + row` is a row of a tree and
    its index into the flat residuals. Each level keeps, per feature, the
    cells of all its nodes in one flat array, node after node, each node's
    cells in that feature's sorted order. A node's value is the mean of its
    residuals in the first feature's order; it splits at its best split
    (`_best_splits`) if that lowers its sse by more than 1e-12 * max(1, sse).

    Returns the trees' node arrays, packed tree after tree with each tree in
    preorder (node, left subtree, right subtree), the trees' node counts
    and internal-node counts, and the leaf value of every (tree, row)."""
    trees, n = residual.shape
    size = trees * n
    x_all = np.tile(X.T, trees)                 # feature f, cell c at [f, c]
    cells = [(np.arange(0, size, n)[:, None] + o).ravel() for o in orders]
    tree, lengths = np.arange(trees), np.full(trees, n)  # each node's tree and cell count
    leaf_value = np.empty(size)
    levels = []
    for depth in range(config.max_depth + 1):
        total = int(lengths.sum())
        starts = np.cumsum(lengths) - lengths
        node = np.repeat(np.arange(len(lengths)), lengths)
        # per feature, the residuals and feature values in node order, padded
        # for `_best_splits`; the ids are in range, so mode="clip" only skips a copy
        r, x = np.empty((2, len(cells), total + max(2, int(lengths.max()))))
        r[:, total:] = x[:, total:] = 0.0
        for f, cells_f in enumerate(cells):
            np.take(residual, cells_f, out=r[f, :total], mode="clip")
        mean, parent_sse = _node_stats(r[0, :total], starts, lengths, depth < config.max_depth)
        feature, threshold = np.full(len(lengths), -1), np.zeros(len(lengths))
        if depth < config.max_depth:
            tried = np.nonzero(lengths >= 2 * config.min_samples_leaf)[0]
            for f, cells_f in enumerate(cells):
                np.take(x_all[f], cells_f, out=x[f, :total], mode="clip")
            sse, best_feature, best_threshold = _best_splits(
                x, r, starts[tried], lengths[tried], config.min_samples_leaf)
            parent_sse = parent_sse[tried]
            gain = (best_feature >= 0) & ~(sse >= parent_sse - 1e-12 * np.maximum(1.0, parent_sse))
            feature[tried[gain]] = best_feature[gain]
            threshold[tried[gain]] = best_threshold[gain]
        split = feature >= 0
        levels.append((tree, mean, feature, threshold, split))
        if not np.any(split):
            leaf_value[cells[0]] = mean[node]
            break
        kept = split[node]
        leaf_value[cells[0][~kept]] = mean[node[~kept]]   # the cells of unsplit nodes
        # the k-th split node's children are nodes k (left) and K + k (right)
        # of the next level, K the number of splits; masks keep the cell order.
        # The last level needs the cells in the first feature's order only.
        if depth + 1 == config.max_depth:
            cells = cells[:1]
        of = node[kept]
        at, below = feature[of] * size, threshold[of]
        for f, cells_f in enumerate(cells):
            cells_f = cells_f[kept]
            go_left = np.take(x_all, at + cells_f) <= below
            cells[f] = np.concatenate([cells_f[go_left], cells_f[~go_left]])
        # every feature's order holds the same cells per node
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
    by_place = np.argsort(place)
    nodes = {name: values[by_place] for (name, _), values in zip(_NODE_FIELDS, arrays)}
    internal = np.bincount(tree[arrays[0] >= 0], minlength=trees)
    return nodes, tree_sizes, internal


def _boosted_layout(X, Y, sort, base, config: TrainConfig):
    """The packed layout of the boosted trees, in fit order, fitted to the
    rows `Y[sort]` at the locations `X` (already sorted); each block of
    outputs is read as `Y[sort, lo:hi]`, so no sorted copy of `Y` is made.

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
    pred = np.repeat(base[:, None], n, axis=1)      # output-major: output k in row k
    used = d
    pieces = [tuple(np.zeros(0, dtype) for _, dtype in _LAYOUT)]  # an empty layout
    block = max(1, _CHUNK_CELLS // (X.shape[1] * n))  # (feature, row, output) cells
    for _ in range(config.tree_count):
        for lo in range(0, d, block):
            dims = np.arange(lo, min(lo + block, d))
            # C-contiguous, as `_fit_trees` reads it
            residual = Y[sort, lo:lo + block].T - pred[dims]
            active = ~(np.max(np.abs(residual), axis=1) < 1e-12)
            if not np.any(active):
                continue
            dims, residual = dims[active], residual[active]
            nodes, sizes, internal, leaf_value = _fit_trees(X, orders, residual, config)
            cost = np.where(internal > 0, sizes + internal, 0)
            fits = used + np.cumsum(cost) <= config.budget_parameters
            kept = (internal > 0) & fits
            pred[dims[kept]] += config.learning_rate * leaf_value[kept]
            used += int(cost[kept].sum())
            in_kept = np.repeat(kept, sizes)
            pieces.append((dims[kept], sizes[kept],
                           *(nodes[name][in_kept] for name, _ in _NODE_FIELDS)))
            if not np.all(fits):
                return _pack(pieces)
    return _pack(pieces)


def _pack(pieces):
    """The layout (`_LAYOUT` keys) of the concatenated pieces."""
    return {key: np.concatenate(arrays) for (key, _), arrays in zip(_LAYOUT, zip(*pieces))}


def train(X, Y, config: TrainConfig, role: str = "coupled") -> TreeEnsembleModel:
    """Greedy per-output boosting under a global parameter budget.

    Rows are lexicographically sorted by location first, so the fit does not
    depend on input row order. The caller's `Y` is read in that order, never
    copied whole: only the base takes a transient sorted copy, freed before
    the fit. A non-finite `X` or `Y` raises a ValueError naming it.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if len(X) == 0:
        raise ValueError("empty training data")
    if len(X) != len(Y):
        raise ValueError("inputs and targets must have the same length")
    for name, a in (("X", X), ("Y", Y)):
        if not np.isfinite(a).all():
            raise ValueError(f"{name} holds a non-finite value")
    d = Y.shape[1]
    if config.budget_parameters < d:
        raise ValueError(f"budget {config.budget_parameters} cannot hold {d} base predictions")

    sort = np.lexsort((X[:, 1], X[:, 0]))
    base = Y[sort].mean(axis=0)
    return TreeEnsembleModel(base, _boosted_layout(X[sort], Y, sort, base, config),
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
        return TreeEnsembleModel(
            arrays["base_prediction"], {key: arrays[key] for key, _ in _LAYOUT},
            learning_rate=float(arrays["learning_rate"][0]),
            output_dimension=int(arrays["output_dimension"][0]), role=str(arrays["role"][0]))
    except ValueError as exc:
        raise ValueError(f"bad model file {path!r}: {exc}") from exc
