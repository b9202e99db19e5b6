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

Prediction does not walk the trees: it reads exact per-output step tables,
compiled once per model by walking every table cell through its output's
trees (see `TreeEnsembleModel`), so that ranking the beams of one UE is
one binary search per feature and one gather.
"""

import logging
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .fileio import check, check_fields, integer, load_npz, real, save_npz

log = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1

# Node arrays of `Tree`, in constructor order, with their dtypes.
_NODE_FIELDS = (("feature", int), ("threshold", float), ("left", int), ("right", int),
                ("value", float))
# Arrays of the packed layout with their dtypes; model files store them
# under these names.
_LAYOUT = (("tree_outputs", int), ("tree_sizes", int)) + tuple(
    ("node_" + name, dtype) for name, dtype in _NODE_FIELDS)
# Prediction gathers chunks of at most this many (row, output) cells, and
# training fits blocks of about this many (feature, row, output) cells, so
# that their temporaries stay small whatever the batch or corpus size.
_CHUNK_CELLS = 1 << 16

_COUNT = integer(0)   # also a model's output_dimension
_TRAIN_RULES = {"tree_count": _COUNT, "max_depth": integer(1), "learning_rate": real("(0, 1]"),
                "min_samples_leaf": integer(1), "budget_parameters": _COUNT}


@dataclass(frozen=True)
class TrainConfig:
    tree_count: int = 50
    max_depth: int = 3
    learning_rate: float = 0.3
    min_samples_leaf: int = 2
    budget_parameters: int = 2048

    def __post_init__(self):
        check_fields(self, _TRAIN_RULES)


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


@dataclass(frozen=True)
class StepTables:
    """A model's predictions as exact step functions of the features its
    trees split on, one table per output; see `TreeEnsembleModel`."""
    features: tuple       # the feature ids the trees split on, ascending
    cuts: tuple           # per feature: all outputs' sorted distinct thresholds
    below: tuple          # per feature: (cuts + 1, outputs) interval of each output
    strides: tuple        # per feature: each output's flat-index step per interval
    offsets: np.ndarray   # each output's first cell in `values`
    values: np.ndarray    # the clipped prediction of every cell, flat

    @property
    def cells(self) -> int:
        return len(self.values)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (*self.cuts, *self.below, *self.strides, self.offsets,
                                      self.values))


class TreeEnsembleModel:
    """Per-output boosted tree ensembles with a shared global budget.

    All trees live in one packed, read-only node layout (`layout`): the node
    arrays of every tree concatenated in fit order, with `tree_outputs[i]`
    the output and `tree_sizes[i]` the node count of tree i. Child ids are
    local to their tree and always greater than their parent's id, as the
    preorder that `train` writes gives them. The constructor takes the
    layout as `train` builds it and model files store it, checks it and
    keeps a read-only copy; `trees` is a tuple of views into that copy, so
    the trees a caller sees are always the trees prediction evaluates. A
    layout that is not a tree (a node listed as a child twice, or by no
    parent) or that has a NaN threshold on an internal node is rejected, as
    are a base and a learning rate that would make predictions NaN.

    Prediction reads `step_tables`, compiled from the layout on first use
    and kept, as the layout never changes. On a feature f, an output's trees
    compare x[f] with the output's sorted distinct thresholds a_0 < ... <
    a_{m-1}, which cut the line into m + 1 intervals (a_{k-1}, a_k], the
    last holding everything above a_{m-1} and NaN, which no `x <=` passes.
    Every point of an interval takes the same branch at every node of those
    trees, so an output's prediction is constant on each cell of the
    product of its intervals, Π_f (m_f + 1) cells. The tables keep, per
    feature, the cuts (the sorted distinct thresholds of all outputs, -0.0
    and 0.0 being one) and `below`, whose entry [g, o] counts output o's
    thresholds among the first g cuts. A row's interval on f is then
    `below[searchsorted(cuts, x)]`: the count of the thresholds below x,
    which are those `x <=` fails; NaN sorts past every cut, into the last
    interval. One gather reads the row's cells. The compile walks each cell
    through the output's trees by integers: a node whose threshold is the
    output's a_j has rank j, and the x of interval k pass its `x <= a_j`
    exactly when k <= j. A cell holds the base plus `learning_rate * leaf
    value` of those trees, added in fit order as a per-tree loop adds them,
    clipped to [0, 1]. So predictions are bit-identical to walking the
    trees one at a time.
    """

    def __init__(self, base_prediction, layout, learning_rate: float, output_dimension: int,
                 role: str):
        check("output_dimension", output_dimension, _COUNT)
        if not (np.shape(base_prediction) == (output_dimension,)
                and np.all(np.isfinite(base_prediction))):
            raise ValueError(f"base_prediction must be a finite ({output_dimension},) array")
        check("learning_rate", learning_rate, _TRAIN_RULES["learning_rate"])
        self.base_prediction = _read_only(base_prediction, float)
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
        # the internal nodes, and the first node of their tree and of the next
        inner = np.flatnonzero(feature >= 0)
        if np.any(np.isnan(self._layout["node_threshold"][inner])):
            raise ValueError("an internal node has a NaN threshold")
        ends = np.cumsum(sizes)
        tree = np.searchsorted(ends, inner, side="right")
        start, end = (ends - sizes)[tree], ends[tree]
        parents = np.zeros(n_nodes, dtype=int)
        parents[ends - sizes] = 1           # a root has none, every other node one
        for side in ("node_left", "node_right"):
            child = self._layout[side][inner] + start
            if np.any((child <= inner) | (child >= end)):
                raise ValueError("child node ids must point forward inside their tree")
            parents += np.bincount(child, minlength=n_nodes)
        if np.any(parents != 1):
            raise ValueError("the nodes are not a tree: a node has no parent or two")
        self._trees = self._step_tables = None

    @property
    def layout(self):
        """The packed node layout: read-only arrays keyed by their file names."""
        return MappingProxyType(self._layout)

    @property
    def trees(self) -> tuple:
        """(output index, Tree) pairs in fit order; each Tree views the layout."""
        if self._trees is None:
            sizes = self._layout["tree_sizes"]
            ends = np.cumsum(sizes)
            self._trees = tuple(
                (int(dim), Tree(*(self._layout["node_" + name][a:b] for name, _ in _NODE_FIELDS)))
                for dim, a, b in zip(self._layout["tree_outputs"], ends - sizes, ends))
        return self._trees

    @property
    def step_tables(self) -> StepTables:
        """The read-only step tables that prediction reads, compiled on
        first use."""
        if self._step_tables is None:
            self._step_tables = _compile(self._layout, self.base_prediction, self.learning_rate,
                                         self.output_dimension)
        return self._step_tables

    def predict(self, location) -> np.ndarray:
        return self.predict_batch(np.asarray(location, dtype=float).reshape(1, -1))[0]

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Each row's cell of each output's step table. On every feature one
        binary search of the cuts finds each row's `below` entry, each
        output's interval; the intervals, times the strides, plus the
        offsets index one gather. Rows go in chunks of at most
        `_CHUNK_CELLS` (row, output) cells."""
        X = np.asarray(X, dtype=float)
        tables = self.step_tables
        at = [np.searchsorted(cuts, X[:, f]) for f, cuts in zip(tables.features, tables.cuts)]
        out = np.empty((X.shape[0], self.output_dimension))
        step = max(1, _CHUNK_CELLS // max(1, self.output_dimension))
        for lo in range(0, X.shape[0], step):
            flat = tables.offsets
            for g, below, strides in zip(at, tables.below, tables.strides):
                flat = flat + below[g[lo:lo + step]] * strides
            out[lo:lo + step] = tables.values[flat]
        return out

    def depth_histogram(self) -> dict[int, int]:
        """Number of trees of each depth, by ascending depth."""
        counts = np.bincount(_children(self._layout)[1])
        return {depth: n for depth, n in enumerate(counts.tolist()) if n}


def _children(layout):
    """Each node's children, as layout indices, and each tree's depth. From
    node n, `x <= threshold` goes to the left child, `child[2n + 1]`, and
    the rest to the right one, `child[2n]`; a leaf is its own child."""
    sizes, inner = layout["tree_sizes"], layout["node_feature"] >= 0
    starts = np.cumsum(sizes) - sizes
    child = np.repeat(np.arange(len(inner)), 2).reshape(-1, 2)
    offset = np.repeat(starts, sizes)[inner]
    child[inner, 0] = layout["node_right"][inner] + offset
    child[inner, 1] = layout["node_left"][inner] + offset
    # level by level from the roots: the nodes of a level and their trees
    level, tree, depths, depth = starts, np.arange(len(sizes)), np.zeros(len(sizes), int), 0
    while len(level):
        depths[tree] = depth
        split = inner[level]
        level, tree, depth = child[level[split]].ravel(), np.repeat(tree[split], 2), depth + 1
    return child.ravel(), depths


def _grids(m):
    """Flat-index strides (feature, item) and cell counts (item,) of grids
    of m + 1 intervals per feature, m being (feature, item) threshold
    counts; the last feature's stride is 1."""
    steps = np.ones((len(m) + 1, m.shape[1]), dtype=int)
    for f in reversed(range(len(m))):
        steps[f] = steps[f + 1] * (m[f] + 1)
    return steps[1:], steps[0]


def _compile(layout, base, learning_rate, d) -> StepTables:
    """The step tables of a layout; see `TreeEnsembleModel`.

    The output tables lie by falling tree count, so the outputs that have
    an r-th tree hold a prefix of the cells: round r walks that prefix
    through those trees on the layout as stored, as `node = child[2 * node
    + (k <= rank[node])]` with k the cell's interval on the node's feature
    (`_children`, `_thresholds`), and adds the leaf values to it, so that
    every cell adds its trees in fit order. A model that splits on no
    feature is compiled as if on one feature without thresholds."""
    outputs = layout["tree_outputs"]
    per_output = np.bincount(outputs, minlength=d)      # trees per output
    by_count = np.argsort(-per_output, kind="stable")   # table position -> output
    features, cuts, below, rank = _thresholds(layout, d)
    counts = np.array([b[-1] for b in below], dtype=int)  # (features, outputs)
    strides, cells = _grids(counts)
    sizes = cells[by_count]                             # cell counts by table position
    ends = np.cumsum(sizes)
    # each cell's output and, per feature, interval index
    output = np.repeat(by_count, sizes)
    local = np.arange(len(output)) - np.repeat(ends - sizes, sizes)
    interval = np.empty((len(counts), len(output)), dtype=int)
    for row, m, stride in zip(interval, counts, strides):
        row[:] = local // stride[output] % (m + 1)[output]
    del local                   # freed before the walk, whose temporaries set the peak
    child, depths = _children(layout)
    pick = np.zeros(max(features, default=0) + 2, dtype=int)  # feature -> its row's start
    pick[list(features)] = np.arange(len(features)) * len(output)
    pick = pick[layout["node_feature"]]
    # the trees' roots output by output, each output's in fit order
    starts = np.cumsum(layout["tree_sizes"]) - layout["tree_sizes"]
    roots, first = starts[np.argsort(outputs, kind="stable")], np.cumsum(per_output) - per_output
    values = np.repeat(np.asarray(base, dtype=float)[by_count], sizes)
    for r in range(per_output.max(initial=0)):
        n = ends[np.count_nonzero(per_output > r) - 1]
        node, column = roots[first[output[:n]] + r], np.arange(n)   # the r-th trees' roots
        for _ in range(int(depths.max(initial=0))):
            node = child[2 * node + (np.take(interval, pick[node] + column) <= rank[node])]
        values[:n] += learning_rate * layout["node_value"][node]
    np.clip(values, 0.0, 1.0, out=values)
    offsets = np.empty(d, dtype=int)
    offsets[by_count] = ends - sizes
    n = len(features)
    return StepTables(features, tuple(_read_only(c, float) for c in cuts[:n]),
                      tuple(_read_only(b, b.dtype) for b in below[:n]),
                      tuple(_read_only(s, int) for s in strides[:n]),
                      _read_only(offsets, int), _read_only(values, float))


def _thresholds(layout, d):
    """The feature ids the trees split on and, per feature, the sorted
    distinct thresholds of all outputs (the cuts) and the (cuts + 1,
    outputs) counts of each output's thresholds among the first g cuts, in
    the smallest unsigned dtype; and each node's rank: the number of its
    output's distinct thresholds on its feature below its own, -1 on a
    leaf. -0.0 and 0.0 are one threshold. Without features, one feature
    without thresholds."""
    node_feature = layout["node_feature"]
    node_output = np.repeat(layout["tree_outputs"].astype(np.min_scalar_type(d)),
                            layout["tree_sizes"])
    inner = node_feature >= 0
    features = (tuple(np.flatnonzero(np.bincount(node_feature[inner])).tolist())
                if np.any(inner) else ())
    cuts, below, rank = [], [], np.full(len(node_feature), -1)
    for f in features:
        nodes = np.flatnonzero(node_feature == f)
        # the nodes by threshold, then by output (a stable sort on the small
        # output ids is a radix sort); then the distinct ones, and each
        # output's distinct ones
        a, output = layout["node_threshold"][nodes], node_output[nodes]
        order = np.argsort(a)
        cut = a[order]
        cuts.append(cut[np.concatenate(([True], cut[1:] != cut[:-1]))])
        order = order[np.argsort(output[order], kind="stable")]
        a, output = a[order], output[order]
        first = np.concatenate(([True], (output[1:] != output[:-1]) | (a[1:] != a[:-1])))
        a, output = a[first], output[first]
        # a 1 just past each output's thresholds' cuts, summed down the cuts
        # in the table's own dtype
        count = np.zeros((len(cuts[-1]) + 1, d),
                         dtype=np.min_scalar_type(np.bincount(output).max()))
        count[np.searchsorted(cuts[-1], a) + 1, output] = 1
        below.append(np.add.accumulate(count, axis=0, dtype=count.dtype, out=count))
        rank[nodes] = below[-1][np.searchsorted(cuts[-1], layout["node_threshold"][nodes]),
                                node_output[nodes]]
    if not features:
        cuts, below = [np.zeros(0)], [np.zeros((1, d), np.uint8)]
    return features, cuts, below, rank


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
