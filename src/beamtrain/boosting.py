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

Splits are searched on histograms, as in LightGBM and XGBoost's `hist`
method. Each fit bins every feature once, over its own rows (`_bins`): a
feature of few distinct values, such as the lane, gets one bin per value,
and any other gets row-count quantile bins. A node's candidate splits are
the boundaries after the bins it occupies, and its threshold lies between
the values of the fit's rows on either side, so that its training rows
split by `x <= threshold` exactly as by bin; prediction never sees a bin.
Where every bin is one value, the search sees every split that an exact
search over sorted values sees.

The fit sees a row only through its bins, so the rows that share a bin on
every feature, an occupied cell, fall in the same node of every tree.
Training therefore runs on cells (`_bin_cells`): every split and every leaf
depends on the rows only through each cell's row count w, residual sum S
and squared sum Q, as XGBoost and LightGBM build histograms from weighted
sums. The targets are read once, a column block at a time, into the
(cells, outputs) tables S and Q, and each kept tree moves them by its step
per cell, so no per-row prediction is held.

The fit gives the trees of a recursive per-tree cell trainer
(`train_cell_reference` in tests/reference_boosting.py) node for node and
bit for bit, because it keeps that trainer's arithmetic:
- every sum over cells, a node's row count, residual sum and sum of
  squares and a (node, bin) histogram cell alike, is an `np.bincount` over
  all the block's (cell, tree) entries, which adds its weights one after
  another in input order; a node's entries lie in cell order among them,
  so each sum adds the node's cells in the order the per-node trainer adds
  them;
- the cumulative sums along the bins and the split scores are the same
  elementwise operations, per node, and so are the updates of S and Q;
- node ids are in preorder: node, left subtree, right subtree;
- within a feature the lowest bin wins ties, and a later feature wins only
  if its score is higher by more than 1e-15.
A row-by-row trainer adds the same rows in another grouping, so it splits
alike but where two splits tie in exact arithmetic, and its leaf values
differ in the last bits.

Where the squared residuals overflow (residuals of about 1e200), a node's
sse is inf or NaN and it does not split. Throughput ratios in [0, 1] never
get there. `train` rejects a non-finite input or target outright.

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
# a model file's keys (`fileio.load_npz`): D outputs, T trees, M nodes
MODEL_SCHEMA = {"base_prediction": "f D", "learning_rate": "f 1", "output_dimension": "i 1",
                "role": "U 1", "tree_outputs": "i T", "tree_sizes": "i T", "node_feature": "i M",
                "node_threshold": "f M", "node_left": "i M", "node_right": "i M",
                "node_value": "f M"}
# a `Tree`'s node arrays, each kept in the layout and a model file as `node_<name>`
NODE_ARRAYS = ("feature", "threshold", "left", "right", "value")
# a model file's scalar keys, and the packed layout's keys and dtypes (see
# `TreeEnsembleModel`)
_SCALAR_KEYS = ("learning_rate", "output_dimension", "role")
_LAYOUT = {key: float if MODEL_SCHEMA[key][0] == "f" else int
           for key in ("tree_outputs", "tree_sizes", *("node_" + name for name in NODE_ARRAYS))}
# Prediction gathers chunks of at most this many (row, output) cells, so
# that its temporaries stay small whatever the batch size. Training reads
# its targets in blocks of about this many (row, output) values, and fits
# the trees of about this many (feature, bin cell, output) entries at once
# (`_boosted_layout`): a level's entry arrays (node ids, and per feature the
# keys) are that large, and its (node, bin) tables at most that large.
_CHUNK_CELLS = 1 << 16

_TRAIN_RULES = {"tree_count": integer(0), "max_depth": integer(1), "learning_rate": real("(0, 1]"),
                "min_samples_leaf": integer(1), "budget_parameters": integer(0)}


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

    __slots__ = NODE_ARRAYS

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
    trees split on, one table per output, each a run of the flat `values`.
    A location's cell of every output is the sum over the features of the
    row of `rows` that its binary search of `cuts` picks (`_cells`); see
    `TreeEnsembleModel`."""
    features: tuple       # the feature ids the trees split on, ascending
    cuts: tuple           # per feature: all outputs' sorted distinct thresholds
    rows: tuple           # per feature: (cuts + 1, outputs) flat-index steps;
                          # without features, one (1, outputs) table of first cells
    values: np.ndarray    # the clipped prediction of every cell, flat

    @property
    def cells(self) -> int:
        return len(self.values)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (*self.cuts, *self.rows, self.values))


class TreeEnsembleModel:
    """Per-output boosted tree ensembles with a shared global budget.

    All trees live in one packed, read-only node layout (`layout`): the node
    arrays of every tree concatenated in fit order, with `tree_outputs[i]`
    the output and `tree_sizes[i]` the node count of tree i. Child ids are
    local to their tree and always greater than their parent's id, as the
    preorder that `train` writes gives them. The constructor trusts its
    makers, `train` and `load_model`, and keeps a read-only copy of the
    layout; `trees` is a tuple of views into that copy, so the trees a
    caller sees are always the trees prediction evaluates. The output
    count, `output_dimension`, is the length of `base_prediction`.

    Prediction reads `step_tables`, compiled from the layout on first use
    and kept, as the layout never changes. On a feature f, an output's trees
    compare x[f] with the output's sorted distinct thresholds a_0 < ... <
    a_{m-1}, which cut the line into m + 1 intervals (a_{k-1}, a_k], the
    last holding everything above a_{m-1} and NaN, which no `x <=` passes.
    Every point of an interval takes the same branch at every node of those
    trees, so an output's prediction is constant on each cell of the
    product of its intervals, Π_f (m_f + 1) cells, the last feature varying
    fastest, so that its cells are one run of the flat `values`. The tables
    keep, per feature, the cuts (the sorted distinct thresholds of all
    outputs, -0.0 and 0.0 being one) and a row table whose entry [g, o] is
    output o's flat-index step past the first g cuts: the count of o's
    thresholds among them, which is o's interval, times o's stride on f
    (its cells per interval), plus, on the first feature, o's first cell.
    A location's row on f is `rows[searchsorted(cuts, x)]`, whose count is
    that of the thresholds below x, which are those `x <=` fails; NaN sorts
    past every cut, into the last interval, and a +inf threshold is a cut
    like any other. The rows of its features add up to the flat index of
    each output's cell, and one gather reads the cells. A model that splits
    on no feature has no features and one (1, outputs) row table, each
    output's one cell. `predict` (one location) and `predict_batch` (rows)
    share this index rule (`_cells`), after checking the input width
    against the feature ids (`tables_for`).
    The compile walks each cell through the output's trees by integers: a
    node whose threshold is the output's a_j has rank j, and the x of
    interval k pass its `x <= a_j` exactly when k <= j. A cell holds the
    base plus `learning_rate * leaf value` of those trees, added in fit
    order as a per-tree loop adds them, clipped to [0, 1]. So predictions
    are bit-identical to walking the trees one at a time (`tree_predict` in
    tests/reference_boosting.py), NaN, ±inf, -0.0 and threshold-valued
    inputs included.

    A table's size follows from the thresholds. The lane's 4 values give at
    most 5 distinct thresholds, and the cuts on y stay near the fit's bins,
    as a threshold lies between two bins and only the rows a node occupies
    move it. A model that split two features finely would need the product
    of both counts per output. The row tables take 8 bytes per (cut,
    output) entry, so they grow with the cuts but not with the cells.
    """

    def __init__(self, base_prediction, layout, learning_rate: float, role: str):
        self.base_prediction = _read_only(base_prediction, float)
        self.output_dimension = len(self.base_prediction)
        self.learning_rate, self.role = learning_rate, role
        self._layout = {key: _read_only(layout[key], dtype) for key, dtype in _LAYOUT.items()}
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
                (int(dim), Tree(*(self._layout["node_" + name][a:b] for name in NODE_ARRAYS)))
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

    def tables_for(self, width: int) -> StepTables:
        """The step tables, for inputs of `width` columns: a feature id past
        them raises a ValueError naming `node_feature`, its largest id and
        the width (the model file does not record the width)."""
        tables = self.step_tables
        if tables.features and tables.features[-1] >= width:
            raise ValueError(f"node_feature must be below the input width {width}, got "
                             f"feature {tables.features[-1]}")
        return tables

    def predict(self, location) -> np.ndarray:
        """One location's row of `predict_batch`, bit for bit, by the same
        index rule (`_cells`) with no batch around it. A `location` that is
        not 1-D raises a ValueError naming its shape."""
        x = np.asarray(location, dtype=float)
        if x.ndim != 1:
            raise ValueError(f"location must be 1-D, got shape {x.shape}")
        tables = self.tables_for(len(x))
        return tables.values[_cells(tables, x)]

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Each row's cell of each output's step table (`_cells`). Rows go in
        chunks of at most `_CHUNK_CELLS` (row, output) cells. An `X` that is
        not 2-D raises a ValueError naming its shape."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        tables = self.tables_for(X.shape[1])
        out = np.empty((X.shape[0], self.output_dimension))
        step = max(1, _CHUNK_CELLS // max(1, self.output_dimension))
        for lo in range(0, X.shape[0], step):
            out[lo:lo + step] = tables.values[_cells(tables, X[lo:lo + step])]
        return out

    def depth_histogram(self) -> dict[int, int]:
        """Number of trees of each depth, by ascending depth."""
        counts = np.bincount(_children(self._layout)[1])
        return {depth: n for depth, n in enumerate(counts.tolist()) if n}


def _cells(tables: StepTables, X) -> np.ndarray:
    """The flat `values` index of each output's cell at X, a location
    (width,) or rows (n, width): per feature, one binary search of the cuts
    picks a row of its row table, and the rows add up. Without features it
    is the one row of each output's cell, which broadcasts. The cost of a
    row does not grow with the thresholds per output, and a feature that no
    tree splits on is never read. A location's step is a view of a table's
    row, which the sum copies, and the steps of rows are a gather, which
    the later steps add into in place."""
    if not tables.features:
        return tables.rows[0][0]
    flat = None
    for f, cuts, rows in zip(tables.features, tables.cuts, tables.rows):
        step = rows[cuts.searchsorted(X[..., f])]
        if flat is None:
            flat = step
        elif flat.flags.writeable:
            flat += step
        else:
            flat = flat + step
    return flat


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
    every cell adds its trees in fit order. The row tables are built last,
    from the threshold counts (`_thresholds`), the strides and the runs'
    starts. A model that splits on no feature is compiled as if on one
    feature without thresholds, whose one row holds the runs' starts."""
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
    del interval                # freed before the row tables are built
    # per feature, each output's interval times its stride, plus its first
    # cell on the first feature
    rows = [np.multiply(b, s, dtype=np.intp) for b, s in zip(below, strides)]
    rows[0][:, by_count] += ends - sizes
    for table in (*cuts, *rows, values):
        table.flags.writeable = False
    n = len(features)
    return StepTables(features, tuple(cuts[:n]), tuple(rows[:max(n, 1)]), values)


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
        a, output = layout["node_threshold"][nodes], node_output[nodes]
        cut = a[np.argsort(a)]
        cuts.append(cut[np.concatenate(([True], cut[1:] != cut[:-1]))])
        at = np.searchsorted(cuts[-1], a)
        # a mark just past each output's thresholds' cuts; marking a cell
        # twice leaves one mark, so an output's repeated thresholds count
        # once. Summed down the cuts in the smallest dtype that holds them
        seen = np.zeros((len(cuts[-1]) + 1, d), dtype=bool)
        seen[at + 1, output] = True
        below.append(np.cumsum(seen, axis=0, dtype=np.min_scalar_type(seen.sum(axis=0).max())))
        rank[nodes] = below[-1][at, output]
    if not features:
        cuts, below = [np.zeros(0)], [np.zeros((1, d), np.uint8)]
    return features, cuts, below, rank


def param_count(model: TreeEnsembleModel) -> int:
    internal = int(np.count_nonzero(model.layout["node_feature"] >= 0))
    return model.output_dimension + 2 * internal + (len(model.layout["node_feature"]) - internal)


def _bins(X):
    """Each feature's bins over the fit's rows: per feature, each row's bin
    and each bin's lowest and highest value, bins numbered in value order.

    A feature of at most `cap` distinct values gets one bin per value. Any
    other gets row-count quantile bins: a value goes to bin `rank * cap //
    n`, its first row's rank in the sorted column, so that equal values
    share a bin; bins no value reaches are dropped. The floor of 32 bins
    keeps a small fit at one bin per value up to 32 values, so that a 2-row
    fit can still split."""
    n = len(X)
    cap = min(256, max(32, n // 4))
    bins = []
    for x in X.T:
        order = np.argsort(x, kind="stable")
        v = x[order]
        # each distinct value's first sorted row, its group and whether it
        # starts a bin; then each bin's first sorted row
        first = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
        group = first * cap // n if len(first) > cap else np.arange(len(first))
        start = np.concatenate(([True], group[1:] != group[:-1]))
        b = np.empty(n, dtype=np.intp)
        b[order] = np.repeat(np.cumsum(start) - 1, np.diff(np.append(first, n)))
        edges = first[start]
        bins.append((b, v[edges], v[np.append(edges[1:], n) - 1]))
    return bins


def _bin_cells(bins):
    """The occupied cells of the fit's rows: each row's cell, each cell's
    row count (as floats, the weights of the fit's bincounts) and the
    cells' `bins`, per feature each cell's bin and the bin ends. A cell is
    one bin on every feature; cells are numbered by their key, the bins as
    the digits of one number, feature 0 the most significant. With the
    scene's 4 lanes and at most 256 bins of y, a fit has at most 1024 cells
    however many rows it has, so the fit's time stops growing with the
    corpus."""
    key = np.zeros(len(bins[0][0]), dtype=np.intp)
    for b, lo, _ in bins:
        key = key * len(lo) + b
    _, first, cell, count = np.unique(key, return_index=True, return_inverse=True,
                                      return_counts=True)
    return cell, count.astype(float), [(b[first], lo, hi) for b, lo, hi in bins]


def _best_splits(bins, node, s, w, m, min_leaf):
    """Best split of every node 0..m-1 from its histograms: (score,
    feature, bin, threshold, keys), feature -1 if none.

    `node` holds each (cell, tree) entry's node, (cells, trees), and `s`
    and `w` each entry's residual sum and row count, flat in that order. On
    a feature of `width` bins, entry keys `node * width + bin` index one
    (node, bin) table, so one bincount of the keys weighted by `w` counts
    every node's rows per bin and one weighted by `s` sums their residuals.
    Along the bins, the cumulative sums give the left side of a split after
    each bin, and the split that maximises S_l^2 / n_l + S_r^2 / n_r is the
    best; it must follow a bin that the node occupies and leave `min_leaf`
    rows on either side. The lowest bin wins ties, and a later feature wins
    only by more than 1e-15. The threshold is the midpoint between the
    chosen bin's highest value and the lowest value of the next bin the node
    occupies, or the lower value where the midpoint rounds up to the
    higher, so that `x <= threshold` splits the node's rows as the bins do. A
    feature of one bin gives no split and no keys."""
    best, threshold = np.full(m, -np.inf), np.zeros(m)
    feature, cut = np.full(m, -1), np.zeros(m, dtype=np.intp)
    keys = []
    for f, (b, lo, hi) in enumerate(bins):
        width = len(lo)
        keys.append((node * width + b[:, None]).ravel() if width > 1 else None)
        if width < 2:
            continue
        count = np.bincount(keys[f], weights=w, minlength=m * width).reshape(m, width)
        left_s = np.bincount(keys[f], weights=s, minlength=m * width).reshape(m, width)
        left_n = np.cumsum(count, axis=1)
        np.cumsum(left_s, axis=1, out=left_s)
        right_n, right_s = left_n[:, -1:] - left_n, left_s[:, -1:] - left_s
        score = np.square(left_s) / np.maximum(left_n, 1)
        score += np.square(right_s) / np.maximum(right_n, 1)
        score[(count == 0) | (left_n < min_leaf) | (right_n < max(min_leaf, 1))] = -np.inf
        at = np.argmax(score, axis=1)
        best_s = score[np.arange(m), at]
        k = np.flatnonzero(np.isfinite(best_s) & ((feature < 0) | (best_s > best + 1e-15)))
        after = np.argmax((count[k] > 0) & (np.arange(width) > at[k, None]), axis=1)
        mid = hi[at[k]] / 2.0 + lo[after] / 2.0            # no overflow near 1.8e308
        best[k], feature[k], cut[k] = best_s[k], f, at[k]
        threshold[k] = np.where(mid < lo[after], mid, hi[at[k]])
    return best, feature, cut, threshold, keys


def _fit_trees(bins, w, S, Q, config: TrainConfig):
    """One tree per column of `S`, all fitted together, level by level, on
    the fit's cells: `bins` holds each cell's bin per feature (`_bin_cells`),
    `w` each cell's row count, and `S` and `Q` (cells x trees) the residual
    sum and the sum of squared residuals of each (cell, tree).

    Every (cell, tree) entry keeps its node id; a level's nodes are 1..m-1,
    and node 0 holds the entries of nodes that stopped, so no array is ever
    compacted. The entries lie cell by cell, tree after tree within a cell,
    so consecutive entries of a bincount belong to different trees and its
    adds do not wait on one another, as along one node's run of entries.
    Per node, bincounts of the entries weighted by `w`, `S` and `Q` give
    the row count, the residual sum and the sum of squares, which give the
    node's value (the mean) and its sse, `sq - sum * mean`. A node
    splits at its best split (`_best_splits`) if that lowers its sse by
    more than 1e-12 * max(1, sse). The k-th split node's children are nodes
    k (left) and K + k (right) of the next level, K the number of splits,
    and each entry's next node is a gather at its keys from a (node, bin)
    child table per feature that holds 0 for nodes that split on another
    feature or not at all. An entry's leaf value is added at the level
    where its node stops, from a per-node table that holds -0.0 elsewhere
    (`v + -0.0` is `v` for every v, signed zeros included).

    Returns the trees' node arrays, packed tree after tree with each tree in
    preorder (node, left subtree, right subtree), the trees' node counts
    and internal-node counts, and the leaf value of every (cell, tree)."""
    n, trees = S.shape
    node = np.tile(np.arange(1, trees + 1), (n, 1))
    s, q, weight = np.ravel(S), np.ravel(Q), np.repeat(w, trees)
    tree = np.arange(trees)                     # the tree of each node 1..m-1
    leaf_value = np.full(trees * n, -0.0)
    levels = []
    for depth in range(config.max_depth + 1):
        m = len(tree) + 1
        flat = node.ravel()
        total = np.bincount(flat, weights=s, minlength=m)
        mean = total / np.maximum(np.bincount(flat, weights=weight, minlength=m), 1)
        feature, threshold = np.full(m, -1), np.zeros(m)
        if depth < config.max_depth:
            score, best, cut, best_threshold, keys = _best_splits(
                bins, node, s, weight, m, config.min_samples_leaf)
            sse = np.bincount(flat, weights=q, minlength=m) - total * mean
            split = (best >= 0) & (score - total * mean > 1e-12 * np.maximum(1.0, sse))
            split[0] = False
            feature[split], threshold[split] = best[split], best_threshold[split]
        split = feature >= 0
        levels.append((tree, mean[1:], feature[1:], threshold[1:], split[1:]))
        stop = np.where(split, -0.0, mean)
        stop[0] = -0.0
        leaf_value += stop[flat]
        if not np.any(split):
            break
        at = np.flatnonzero(split)
        left = np.zeros(m, dtype=np.intp)
        left[at] = np.arange(1, len(at) + 1)
        node = 0
        for f, key in enumerate(keys):
            on = at[feature[at] == f]
            if len(on):
                child = np.zeros((m, len(bins[f][1])), dtype=np.intp)
                child[on] = left[on, None] + len(at) * (np.arange(child.shape[1]) > cut[on, None])
                node = node + child.ravel()[key].reshape(n, trees)
        tree = np.concatenate([tree[split[1:]], tree[split[1:]]])
    return _preorder(levels, trees) + (leaf_value.reshape(n, trees),)


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
    nodes = {name: values[by_place] for name, values in zip(NODE_ARRAYS, arrays)}
    internal = np.bincount(tree[arrays[0] >= 0], minlength=trees)
    return nodes, tree_sizes, internal


def _cell_tables(Y, rows, cell, cells):
    """The base predictions and the (cells, outputs) tables of the targets
    `Y[rows]`, the rows lying in `cell` of `cells`: per cell, the sum S of
    its rows' residuals, the targets less the base, and the sum Q of their
    squares, each adding the cell's rows in row order.

    The targets are read once, a column block at a time as `Y[rows,
    lo:hi]`; a non-finite block raises a ValueError naming `Y`. The base is
    each block's mean, which adds the rows one after another as the whole
    array's mean does; a block is at least two columns wide, as a
    one-column mean adds pairwise."""
    n, d = len(rows), Y.shape[1]
    base, S, Q = np.empty(d), np.empty((cells, d)), np.empty((cells, d))
    width = max(2, _CHUNK_CELLS // n)
    for lo in range(0, d, width):
        lo = max(0, min(lo, d - 2))
        hi = min(lo + width, d)
        residual = Y[rows, lo:hi]
        if not np.isfinite(residual).all():
            raise ValueError("Y holds a non-finite value")
        base[lo:hi] = residual.mean(axis=0)
        residual -= base[lo:hi]
        keys = (cell[:, None] * (hi - lo) + np.arange(hi - lo)).ravel()
        for table, weights in ((S, residual), (Q, np.square(residual))):
            table[:, lo:hi] = np.bincount(keys, weights=weights.ravel(),
                                          minlength=cells * (hi - lo)).reshape(cells, hi - lo)
    return base, S, Q


def _boosted_layout(X, Y, rows, config: TrainConfig):
    """The base predictions and the packed layout of the boosted trees, in
    fit order, fitted to the targets `Y[rows]` at the locations `X` (both
    already sorted).

    Every output is fitted in every round. One whose residuals are all
    below 1e-12, such as an output of constant targets, cannot clear the
    1e-12 split floor (its gain is at most n * 1e-24), so it gets no tree
    and spends no parameter.

    The features are binned once, on these rows (`_bins`), and the rows are
    mapped once to their occupied cells (`_bin_cells`), whose row counts w
    and target tables S and Q (`_cell_tables`) are all the fit reads. Every
    round fits one tree per output on them, skipping trees without a split,
    and training stops the moment the next tree would push the parameter
    count past the budget, also partway through a round. After each kept
    tree, S and Q take its step per cell, δ = learning_rate * leaf value: Q
    -= (2S - wδ)δ with S before the update, then S -= wδ. The trees of a
    round depend only on their own output's residuals, so blocks of outputs
    are fitted at once, and the block's trees are then taken in output
    order. A block spans about `_CHUNK_CELLS` entries, counting per tree the
    larger of its (feature, cell) entries and the (node, bin) cells of its
    deepest level, 2^max_depth nodes on the widest feature's bins."""
    n, d = len(rows), Y.shape[1]
    cell, w, bins = _bin_cells(_bins(X))
    cells = len(w)
    base, S, Q = _cell_tables(Y, rows, cell, cells)
    used = d
    pieces = [tuple(np.zeros(0, dtype) for dtype in _LAYOUT.values())]  # an empty layout
    size = max(X.shape[1] * cells, 2**config.max_depth * max(len(lo) for _, lo, _ in bins))
    block = max(1, _CHUNK_CELLS // size)
    log.debug("fit: %d rows in %d cells, %d outputs per block", n, cells, min(block, d))
    for _ in range(config.tree_count):
        for lo in range(0, d, block):
            hi = min(lo + block, d)
            nodes, sizes, internal, leaf_value = _fit_trees(bins, w, S[:, lo:hi], Q[:, lo:hi],
                                                            config)
            cost = np.where(internal > 0, sizes + internal, 0)
            fits = used + np.cumsum(cost) <= config.budget_parameters
            kept = (internal > 0) & fits
            dims = np.arange(lo, hi)[kept]
            delta = config.learning_rate * leaf_value[:, kept]
            step = w[:, None] * delta
            Q[:, dims] -= (2 * S[:, dims] - step) * delta
            S[:, dims] -= step
            used += int(cost[kept].sum())
            in_kept = np.repeat(kept, sizes)
            pieces.append((dims, sizes[kept], *(nodes[name][in_kept] for name in NODE_ARRAYS)))
            if not np.all(fits):
                return base, _pack(pieces)
    return base, _pack(pieces)


def _pack(pieces):
    """The layout (`_LAYOUT` keys) of the concatenated pieces."""
    return {key: np.concatenate(arrays) for key, arrays in zip(_LAYOUT, zip(*pieces))}


def train(X, Y, config: TrainConfig, role: str = "coupled", rows=None) -> TreeEnsembleModel:
    """Greedy per-output boosting under a global parameter budget, on the
    (rows, outputs) targets `Y[rows]` at the locations `X`, one location
    per row; `rows` are row indices of `Y`, all of its rows by default. A
    `Y` of another shape raises a ValueError naming it.

    Rows are lexicographically sorted by location first, on every column of
    `X`, so the fit does not depend on the order of rows at distinct
    locations (rows at one location keep their order). The caller's `Y` is
    read at the rows, a column block at a time, and never copied whole, so
    that `train(X, Y, config, rows=r)` is `train(X, Y[r], config)` bit for
    bit. A non-finite `X` or `Y[rows]` raises a ValueError naming it, `Y`
    as `_cell_tables` reads it, before any tree is fitted."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError(f"Y must be 2-D, got shape {Y.shape}")
    rows = np.arange(len(Y)) if rows is None else np.asarray(rows, dtype=np.intp)
    if len(X) == 0:
        raise ValueError("empty training data")
    if len(X) != len(rows):
        raise ValueError("inputs and targets must have the same length")
    if not np.isfinite(X).all():
        raise ValueError("X holds a non-finite value")
    d = Y.shape[1]
    if config.budget_parameters < d:
        raise ValueError(f"budget {config.budget_parameters} cannot hold {d} base predictions")

    sort = np.lexsort(X.T[::-1])
    base, layout = _boosted_layout(X[sort], Y, rows[sort], config)
    return TreeEnsembleModel(base, layout, config.learning_rate, role)


def kfold_tune(X, Y, grid: list[TrainConfig], fold_assignments: np.ndarray,
               rows=None) -> TrainConfig:
    """Grid point with the lowest mean validation MSE over folds, on the
    (rows, outputs) targets `Y[rows]` at the locations `X` (`train`'s
    `rows`, whose first fold fit rejects any other `Y` before an error is
    scored); ties break toward smaller parameter count, then earlier grid
    position."""
    if not grid:
        raise ValueError("hyperparameter grid must be nonempty")
    if len(grid) == 1:
        return grid[0]
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    rows = np.arange(len(Y)) if rows is None else np.asarray(rows, dtype=np.intp)
    folds = sorted(set(np.asarray(fold_assignments).tolist()))  # np.unique loads numpy.ma
    best = None
    for gi, cfg in enumerate(grid):
        mses, params = [], []
        for f in folds:
            val = fold_assignments == f
            model = train(X[~val], Y, cfg, rows=rows[~val])
            mses.append(float(np.mean((model.predict_batch(X[val]) - Y[rows[val]]) ** 2)))
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
    save_npz(path, {"base_prediction": model.base_prediction,
                    **{key: np.array([getattr(model, key)]) for key in _SCALAR_KEYS},
                    **model.layout}, MODEL_FORMAT_VERSION)


def load_model(path: str) -> TreeEnsembleModel:
    """Read a model written by `save_model`: MODEL_SCHEMA, a learning rate in
    (0, 1], `base_prediction` of length `output_dimension` (zero outputs
    are legal), and a layout of trees: tree sizes of at least 1 that sum to
    the node count, tree outputs in [0, D), feature ids of at least -1, and
    child ids that point forward inside their tree and give each node but a
    root one parent. A ValueError names the file and the key.

    The schema keeps every float finite, as a NaN threshold has no place in
    the sorted thresholds and a NaN leaf value, base or learning rate makes
    predictions NaN, and every id an integer, as a float feature id would
    be truncated. The file does not record the input width, so a feature id
    past it loads and fails at prediction (`tables_for`)."""
    data, sizes = load_npz(path, "model", MODEL_FORMAT_VERSION, MODEL_SCHEMA)
    model = TreeEnsembleModel(data["base_prediction"], data, data["learning_rate"][0].item(),
                              data["role"][0].item())
    layout, d, n = model.layout, data["output_dimension"][0].item(), sizes["M"]
    where, tree_sizes = f"model file {path!r}: ", layout["tree_sizes"]
    check("learning_rate", model.learning_rate, _TRAIN_RULES["learning_rate"], where)
    check("base_prediction", model.output_dimension,
          (lambda v: v == d, f"of length output_dimension = {d}"), where)
    check("tree_sizes", tree_sizes, (lambda v: np.all(v >= 1) and v.sum() == n,
                                 f"at least 1 and sum to the {n} nodes"), where)
    check("tree_outputs", layout["tree_outputs"],
          (lambda v: np.all((v >= 0) & (v < d)), f"in [0, {d})"), where)
    check("node_feature", layout["node_feature"], (lambda v: np.all(v >= -1), ">= -1"), where)
    # the internal nodes, and the first node of their tree and of the next
    inner = np.flatnonzero(layout["node_feature"] >= 0)
    ends = np.cumsum(tree_sizes)
    tree = np.searchsorted(ends, inner, side="right")
    start, end = (ends - tree_sizes)[tree], ends[tree]
    listed, once = np.zeros(n, dtype=int), np.ones(n, dtype=int)
    once[ends - tree_sizes] = 0                      # a root is no node's child
    for side in ("node_left", "node_right"):
        child = layout[side][inner] + start
        check(side, layout[side], (lambda v: np.all((child > inner) & (child < end)),
                                   "forward of its node inside its tree"), where)
        listed += np.bincount(child, minlength=n)
    for node in np.flatnonzero(listed != once)[:1]:
        raise ValueError(f"{where}node_left and node_right must list each node but a root "
                         f"once, got node {node} listed {listed[node]} times")
    return model
