"""The per-tree boosting trainer, kept as the reference that the
round-at-once fit in `beamtrain.boosting` is held to, tree for tree.

It fits one tree per (round, output) with a recursive builder that calls
`_best_split` once per node; `train_reference` is `boosting.train` built on
it. `tree_predict` walks one `Tree` at a time, the reference for the packed
prediction of `TreeEnsembleModel`.
"""

import numpy as np

from beamtrain.boosting import TrainConfig, Tree, TreeEnsembleModel


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


def boosted_trees(X, Y, base, config: TrainConfig):
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
            tree, leaf_of_row = fit_tree(X, residual, order, config)
            if internal_count(tree) == 0:
                continue  # no useful split left for this output
            if used + tree_param_cost(tree) > config.budget_parameters:
                return
            yield dim, tree
            used += tree_param_cost(tree)
            pred[:, dim] += config.learning_rate * tree.value[leaf_of_row]


def train_reference(X, Y, config: TrainConfig, role: str = "coupled") -> TreeEnsembleModel:
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
    return TreeEnsembleModel(base, boosted_trees(X, Y, base, config),
                             learning_rate=config.learning_rate, output_dimension=d, role=role)
