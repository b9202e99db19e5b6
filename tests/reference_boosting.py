"""Per-tree boosting trainers, kept as the references that the
round-at-once fit in `beamtrain.boosting` is held to.

All fit one tree per (round, output) with a recursive builder that
searches one node at a time:
- `train_cell_reference` searches the node's histograms over the fit's
  bins (`histogram_bins`, `_histogram_split`) on the occupied bin cells,
  with the cells' row counts as weights and per-cell residual sums and
  squared sums that each tree's step updates (`cell_tables`), as
  `boosting.train` does; the fit is held to it tree for tree and bit for
  bit;
- `train_histogram_reference` runs the same search on the rows, each a
  cell of weight 1, and keeps per-row residuals. It adds the same rows in
  another grouping, so the fit gives its split features and thresholds,
  but where two splits tie in exact arithmetic, and its leaf values to
  within rounding;
- `train_reference` searches every midpoint between distinct values in
  sorted order (`_best_split`), the exact search. Where every feature has
  no more distinct values than bins, the bins are the values and the fit
  gives its split features and thresholds.

`tree_predict` walks one `Tree` at a time, the reference for the
step-table prediction of `TreeEnsembleModel`, and `model_from_trees` packs
a list of (output, Tree) pairs into a model.
"""

import numpy as np

from beamtrain.boosting import NODE_ARRAYS, TrainConfig, Tree, TreeEnsembleModel


def internal_count(tree: Tree) -> int:
    return int(np.sum(tree.feature >= 0))


def tree_param_cost(tree: Tree) -> int:
    """2 parameters per internal node, 1 per leaf."""
    return 2 * internal_count(tree) + int(np.sum(tree.feature < 0))


def tree_depth(tree: Tree) -> int:
    def walk(n):
        if tree.feature[n] < 0:
            return 0
        return 1 + max(walk(tree.left[n]), walk(tree.right[n]))
    return walk(0)


def model_from_trees(base_prediction, trees, learning_rate: float,
                     role: str = "coupled") -> TreeEnsembleModel:
    """The model of (output, Tree) pairs in fit order: their node arrays
    concatenated into one packed layout."""
    layout = {"tree_outputs": [dim for dim, _ in trees],
              "tree_sizes": [len(tree.feature) for _, tree in trees]}
    for name in NODE_ARRAYS:
        layout["node_" + name] = (np.concatenate([getattr(tree, name) for _, tree in trees])
                                  if trees else [])
    return TreeEnsembleModel(base_prediction, layout, learning_rate, role)


def tree_predict(tree: Tree, X: np.ndarray) -> np.ndarray:
    node = np.zeros(X.shape[0], dtype=int)
    active = tree.feature[node] >= 0
    while np.any(active):
        idx = np.nonzero(active)[0]
        n = node[idx]
        go_left = X[idx, tree.feature[n]] <= tree.threshold[n]
        node[idx] = np.where(go_left, tree.left[n], tree.right[n])
        active = tree.feature[node] >= 0
    return tree.value[node]


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


def fit_tree(X, residual, order, config: TrainConfig):
    """Fit one tree. Also returns the leaf id of every training row, taken
    from the fit's own partition, which uses the same `<=` test as
    `tree_predict`."""
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


def sequential_sum(a):
    """0.0 plus the values one after another, in order."""
    return np.add.accumulate(np.concatenate(([0.0], a)))[-1]


def histogram_bins(X):
    """Per feature: each row's bin and each bin's lowest and highest value.
    Bins follow the sorted distinct values: with at most `cap` of them,
    one bin each; else value v, first reached at rank i of the sorted
    column, goes to group `i * cap // n`, and the groups that hold values
    are the bins, in order."""
    n = len(X)
    cap = min(256, max(32, n // 4))
    bins = []
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        values = X[order, f]
        first = [i for i in range(n) if i == 0 or values[i] != values[i - 1]]
        group = [i * cap // n if len(first) > cap else k for k, i in enumerate(first)]
        row_bin, lo, hi = np.empty(n, dtype=int), [], []
        for k, i in enumerate(first):
            if k == 0 or group[k] != group[k - 1]:
                lo.append(values[i])
                hi.append(values[i])
            end = first[k + 1] if k + 1 < len(first) else n
            hi[-1] = values[end - 1]
            row_bin[order[i:end]] = len(lo) - 1
        bins.append((row_bin, np.array(lo), np.array(hi)))
    return bins


def _histogram_split(bins, residual, rows, min_leaf, weights=None):
    """Best (feature, threshold, score) of the node of the ascending `rows`
    over the histograms of `bins`: per bin, the row count (the sum of the
    rows' `weights`, 1 each by default) and the residual sum, added row after
    row; a split after bin j scores S_l^2 / n_l + S_r^2 / n_r and needs a
    row in bin j and `min_leaf` counted rows on either side. The
    first best bin of a feature wins, a later feature only by more than
    1e-15; the threshold is the midpoint of bin j's highest value and the
    next occupied bin's lowest, halves added so that it cannot overflow, or
    bin j's highest where the midpoint rounds up to the next value."""
    weights = np.ones(len(residual)) if weights is None else weights
    best = None
    for f, (row_bin, lo, hi) in enumerate(bins):
        width = len(lo)
        if width < 2:
            continue
        count, sums = np.zeros(width), np.zeros(width)
        np.add.at(count, row_bin[rows], weights[rows])
        np.add.at(sums, row_bin[rows], residual[rows])
        left_n, left_s = np.cumsum(count), np.cumsum(sums)
        right_n, right_s = left_n[-1] - left_n, left_s[-1] - left_s
        score = (np.square(left_s) / np.maximum(left_n, 1)
                 + np.square(right_s) / np.maximum(right_n, 1))
        valid = (count > 0) & (left_n >= min_leaf) & (right_n >= max(min_leaf, 1))
        score = np.where(valid, score, -np.inf)
        j = int(np.argmax(score))
        if np.isfinite(score[j]) and (best is None or score[j] > best[2] + 1e-15):
            after = j + 1 + int(np.argmax(count[j + 1:] > 0))
            mid = hi[j] / 2.0 + lo[after] / 2.0
            best = (f, mid if mid < lo[after] else hi[j], score[j])
    return best


def fit_histogram_tree(X, bins, residual, config: TrainConfig, weights=None, squares=None):
    """Fit one tree by histogram split search. A node's value is its
    residual sum, added row after row, over its row count, the sum of its
    rows' `weights` (1 each by default); it splits if its best split raises
    S^2 / n by more than 1e-12 * max(1, sse), its sse being the sum of
    `squares` (the squared residuals by default) less sum * mean. Also
    returns the leaf id of every training row, taken from the `<=`
    partition that `tree_predict` uses."""
    weights = np.ones(len(residual)) if weights is None else weights
    squares = np.square(residual) if squares is None else squares
    feature, threshold, left, right, value = [], [], [], [], []
    leaf_of_row = np.empty(X.shape[0], dtype=int)

    def build(rows, depth):
        node_id = len(feature)
        leaf_of_row[rows] = node_id  # children, built later, overwrite
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        total = sequential_sum(residual[rows])
        mean = total / sequential_sum(weights[rows])
        value.append(mean)
        if depth >= config.max_depth:
            return node_id
        sse = sequential_sum(squares[rows]) - total * mean
        split = _histogram_split(bins, residual, rows, config.min_samples_leaf, weights)
        if split is None or not split[2] - total * mean > 1e-12 * np.maximum(1.0, sse):
            return node_id
        f, thr, _ = split
        go_left = X[rows, f] <= thr
        feature[node_id] = f
        threshold[node_id] = thr
        left[node_id] = build(rows[go_left], depth + 1)
        right[node_id] = build(rows[~go_left], depth + 1)
        return node_id

    build(np.arange(X.shape[0]), 0)
    return Tree(feature, threshold, left, right, value), leaf_of_row


def boosted_trees(X, Y, base, config: TrainConfig, fit):
    """(output, tree) pairs in fit order. Rounds fit one tree per output on
    the current residuals with `fit(residual)`, and stop the moment the next
    tree would push the parameter count past the budget."""
    d = Y.shape[1]
    pred = np.tile(base, (len(X), 1))
    used = d
    for _ in range(config.tree_count):
        for dim in range(d):
            residual = Y[:, dim] - pred[:, dim]
            if np.max(np.abs(residual)) < 1e-12:
                continue
            tree, leaf_of_row = fit(residual)
            if internal_count(tree) == 0:
                continue  # no useful split left for this output
            if used + tree_param_cost(tree) > config.budget_parameters:
                return
            yield dim, tree
            used += tree_param_cost(tree)
            pred[:, dim] += config.learning_rate * tree.value[leaf_of_row]


def cell_tables(X, Y, base):
    """The occupied bin cells of the sorted rows `X`: the rows that share a
    bin (`histogram_bins`) on every feature. Cells go in the order of their
    bins, feature 0 first. Returns each cell's first row, its row count,
    the cells' bins (each cell's bin per feature, and the bin ends) and,
    per (cell, output), the sum of the rows' residuals `Y - base` and the
    sum of their squares, each added row after row."""
    bins = histogram_bins(X)
    members = {}
    for row in range(len(X)):
        members.setdefault(tuple(int(b[row]) for b, _, _ in bins), []).append(row)
    rows = [members[key] for key in sorted(members)]
    residual = Y - base
    S, Q = (np.array([np.add.accumulate(np.vstack([np.zeros(Y.shape[1]), a[r]]))[-1]
                      for r in rows]) for a in (residual, np.square(residual)))
    first = np.array([r[0] for r in rows])
    return (first, np.array([float(len(r)) for r in rows]),
            [(b[first], lo, hi) for b, lo, hi in bins], S, Q)


def boosted_cell_trees(X, Y, base, config: TrainConfig):
    """(output, tree) pairs in fit order, fitted on the cells of
    `cell_tables` at their first row's location. Rounds fit one tree per
    output on the cells' row counts w, residual sums S and squared sums Q,
    and stop the moment the next tree would push the parameter count past
    the budget. After each kept tree, the output's S and Q take its step
    δ = learning_rate * leaf value per cell: Q -= (2S - wδ)δ with S before
    the update, then S -= wδ."""
    first, w, bins, S, Q = cell_tables(X, Y, base)
    used = Y.shape[1]
    for _ in range(config.tree_count):
        for dim in range(Y.shape[1]):
            tree, leaf_of_cell = fit_histogram_tree(X[first], bins, S[:, dim], config, w,
                                                    Q[:, dim])
            if internal_count(tree) == 0:
                continue  # no useful split left for this output
            if used + tree_param_cost(tree) > config.budget_parameters:
                return
            yield dim, tree
            used += tree_param_cost(tree)
            delta = config.learning_rate * tree.value[leaf_of_cell]
            step = w * delta
            Q[:, dim] -= (2 * S[:, dim] - step) * delta
            S[:, dim] -= step


def train_reference(X, Y, config: TrainConfig, role: str = "coupled") -> TreeEnsembleModel:
    """`boosting.train` on the exact per-node split search."""
    def fit(X):
        order = [np.argsort(X[:, f], kind="stable") for f in range(X.shape[1])]
        return lambda residual: fit_tree(X, residual, order, config)
    return _train(X, Y, config, role, lambda X, Y, base: boosted_trees(X, Y, base, config, fit(X)))


def train_histogram_reference(X, Y, config: TrainConfig,
                              role: str = "coupled") -> TreeEnsembleModel:
    """`boosting.train` on the per-node histogram split search, over bins
    of the sorted rows, row by row."""
    def fit(X):
        bins = histogram_bins(X)
        return lambda residual: fit_histogram_tree(X, bins, residual, config)
    return _train(X, Y, config, role, lambda X, Y, base: boosted_trees(X, Y, base, config, fit(X)))


def train_cell_reference(X, Y, config: TrainConfig, role: str = "coupled") -> TreeEnsembleModel:
    """`boosting.train` on the per-node histogram split search over the
    occupied bin cells of the sorted rows (`boosted_cell_trees`)."""
    return _train(X, Y, config, role,
                  lambda X, Y, base: boosted_cell_trees(X, Y, base, config))


def _train(X, Y, config, role, boosted):
    """Greedy per-output boosting under a global parameter budget, the
    (output, tree) pairs given by `boosted(X, Y, base)` on the sorted rows.

    Rows are lexicographically sorted by location first, so the fit does not
    depend on input row order.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if len(X) == 0:
        raise ValueError("empty training data")
    if len(X) != len(Y):
        raise ValueError("inputs and targets must have the same length")
    d = Y.shape[1]
    if config.budget_parameters < d:
        raise ValueError(f"budget {config.budget_parameters} cannot hold {d} base predictions")

    sort = np.lexsort(X.T[::-1])
    X, Y = X[sort], Y[sort]
    base = Y.mean(axis=0)
    return model_from_trees(base, list(boosted(X, Y, base)), config.learning_rate, role)
