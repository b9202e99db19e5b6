import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import beamtrain
from beamtrain import boosting
from beamtrain.boosting import (TrainConfig, Tree, TreeEnsembleModel, kfold_tune, load_model,
                                param_count, save_model, train)
from reference_boosting import (fit_tree, internal_count, train_reference, tree_depth,
                                tree_param_cost, tree_predict)


def _grid_data(n=64, d=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 100, size=(n, 2))
    Y = np.stack([np.sin(X[:, 0] / 20 + k) * 0.3 + 0.5 for k in range(d)], axis=1)
    return X, Y


def test_constant_targets_use_base_only():
    X, _ = _grid_data()
    Y = np.full((len(X), 3), 0.7)
    model = train(X, Y, TrainConfig(tree_count=10))
    assert len(model.trees) == 0
    assert np.allclose(model.predict_batch(X), 0.7)
    assert param_count(model) == 3


def test_memorizes_small_dataset():
    X, Y = _grid_data(n=24, d=2)
    cfg = TrainConfig(tree_count=400, max_depth=4, learning_rate=0.5,
                      budget_parameters=100000)
    model = train(X, Y, cfg)
    mse = np.mean((model.predict_batch(X) - Y) ** 2)
    assert mse < 1e-3


def test_budget_enforced_during_training():
    X, Y = _grid_data(n=80, d=1024, seed=1)
    cfg = TrainConfig(tree_count=50, max_depth=3, learning_rate=0.5,
                      budget_parameters=2048)
    model = train(X, Y, cfg)
    assert param_count(model) <= 2048
    # the budget runs out after 46 trees of the first round
    assert _layout_bytes(model) == _layout_bytes(train_reference(X, Y, cfg))


def test_budget_below_outputs_raises():
    X, Y = _grid_data(d=8)
    with pytest.raises(ValueError):
        train(X, Y, TrainConfig(budget_parameters=4))
    with pytest.raises(ValueError):
        train(np.zeros((0, 2)), np.zeros((0, 2)), TrainConfig())


def test_param_count_examples():
    # a single stump: 1 internal node (2 params) + 2 leaves = 4
    stump = Tree(feature=[0, -1, -1], threshold=[0.5, 0, 0],
                 left=[1, -1, -1], right=[2, -1, -1], value=[0, 0.2, 0.8])
    assert tree_param_cost(stump) == 4
    assert tree_depth(stump) == 1
    X = np.array([[0.0, 0.0], [1.0, 0.0]])
    model = train(X, np.array([[0.0], [1.0]]),
                  TrainConfig(tree_count=1, max_depth=1, learning_rate=1.0,
                              min_samples_leaf=1))
    assert len(model.trees) == 1
    assert param_count(model) == 1 + 4  # base + stump


def test_tree_predict_routing():
    stump = Tree(feature=[1, -1, -1], threshold=[10.0, 0, 0],
                 left=[1, -1, -1], right=[2, -1, -1], value=[0, -1.0, 1.0])
    X = np.array([[0.0, 5.0], [0.0, 10.0], [0.0, 10.5]])
    assert np.array_equal(tree_predict(stump, X), [-1.0, -1.0, 1.0])


def _training_losses(X, Y, config):
    """Training MSE of fits with 1, 2, ..., config.tree_count rounds."""
    return [float(np.mean((train(X, Y, replace(config, tree_count=t)).predict_batch(X) - Y) ** 2))
            for t in range(1, config.tree_count + 1)]


def test_training_loss_monotone():
    X, Y = _grid_data(n=40, d=1, seed=2)
    losses = _training_losses(X, Y, TrainConfig(tree_count=8, learning_rate=0.3,
                                                budget_parameters=10000))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_row_permutation_invariance():
    X, Y = _grid_data(n=50, d=2, seed=3)
    cfg = TrainConfig(tree_count=5, budget_parameters=10000)
    base = train(X, Y, cfg)
    perm = np.random.default_rng(4).permutation(len(X))
    shuffled = train(X[perm], Y[perm], cfg)
    probe = np.random.default_rng(5).uniform(0, 100, size=(20, 2))
    assert np.array_equal(base.predict_batch(probe), shuffled.predict_batch(probe))


def test_predictions_clipped_to_unit_interval():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    Y = np.array([[0.0], [0.0], [1.0], [1.0]])
    model = train(X, Y, TrainConfig(tree_count=30, learning_rate=1.0,
                                    min_samples_leaf=1, budget_parameters=10000))
    pred = model.predict_batch(np.array([[-50.0, 0.0], [50.0, 0.0]]))
    assert np.all(pred >= 0.0) and np.all(pred <= 1.0)


def test_kfold_single_point_short_circuits():
    cfg = TrainConfig(tree_count=3)
    assert kfold_tune(None, None, [cfg], None) is cfg
    with pytest.raises(ValueError):
        kfold_tune(None, None, [], None)


def test_kfold_prefers_richer_model_when_underfitting():
    X, Y = _grid_data(n=120, d=1, seed=6)
    folds = np.arange(len(X)) % 4
    weak = TrainConfig(tree_count=1, max_depth=1, budget_parameters=10000)
    strong = TrainConfig(tree_count=60, max_depth=3, learning_rate=0.3,
                         budget_parameters=10000)
    assert kfold_tune(X, Y, [weak, strong], folds) == strong


def test_kfold_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma, about 1.5 MB of RSS; numpy 1.x imports it
    # with numpy itself, so the test checks only that the call adds no import
    code = ("import sys; import numpy as np\n"
            "before = 'numpy.ma' in sys.modules\n"
            "from beamtrain.boosting import TrainConfig, kfold_tune\n"
            "X = np.arange(40.0).reshape(20, 2)\n"
            "grid = [TrainConfig(tree_count=t, budget_parameters=1000) for t in (1, 2)]\n"
            "kfold_tune(X, X[:, :1] / 40.0, grid, np.arange(20) % 2)\n"
            "print('numpy.ma' in sys.modules and not before)")
    src = os.path.dirname(os.path.dirname(beamtrain.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "False"


def test_kfold_deterministic():
    X, Y = _grid_data(n=60, d=2, seed=7)
    folds = np.arange(len(X)) % 3
    grid = [TrainConfig(tree_count=t, budget_parameters=10000) for t in (2, 8)]
    assert kfold_tune(X, Y, grid, folds) == kfold_tune(X, Y, grid, folds)


def test_model_roundtrip(tmp_path):
    X, Y = _grid_data(n=40, d=3, seed=8)
    model = train(X, Y, TrainConfig(tree_count=6, budget_parameters=10000),
                  role="decoupled_ue")
    path = str(tmp_path / "m.npz")
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.role == "decoupled_ue"
    assert loaded.output_dimension == 3
    assert param_count(loaded) == param_count(model)
    probe = np.random.default_rng(9).uniform(0, 100, size=(10, 2))
    assert np.array_equal(loaded.predict_batch(probe), model.predict_batch(probe))


def test_model_bad_file(tmp_path):
    bad = tmp_path / "bad.npz"
    for content in (b"garbage", b"PK\x03\x04" + bytes(36)):  # the second looks like a cut npz
        bad.write_bytes(content)
        with pytest.raises(ValueError):
            load_model(str(bad))


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        TrainConfig(max_depth=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    for name, value in (("min_samples_leaf", 0), ("min_samples_leaf", -2), ("tree_count", -1),
                        ("max_depth", 2.5), ("tree_count", "3"), ("learning_rate", "0.3")):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            TrainConfig(**{name: value})
    assert TrainConfig(min_samples_leaf=1, tree_count=0).min_samples_leaf == 1


def test_model_file_without_trees_loads(tmp_path):
    # files store empty node arrays as float64, as np.array([]) makes them
    path = str(tmp_path / "empty.npz")
    np.savez_compressed(path, format_version=np.array([1]), base_prediction=np.array([0.25, 0.5]),
                        learning_rate=np.array([0.3]), output_dimension=np.array([2]),
                        role=np.array(["decoupled_ue"]), tree_outputs=np.array([], dtype=int),
                        tree_sizes=np.array([], dtype=int),
                        **{"node_" + n: np.array([]) for n in
                           ("feature", "threshold", "left", "right", "value")})
    model = load_model(path)
    assert len(model.trees) == 0 and param_count(model) == 2
    assert np.array_equal(model.predict_batch(np.zeros((3, 2))), [[0.25, 0.5]] * 3)


@pytest.mark.parametrize("key, value", [
    ("tree_sizes", [3, 3]),       # more nodes claimed than stored
    ("tree_outputs", [5]),        # output index past output_dimension
    ("node_left", [0, -1, -1]),   # child pointing back at its parent
    ("node_right", [7, -1, -1]),   # child outside its tree
])
def test_model_file_with_bad_layout_rejected(tmp_path, key, value):
    arrays = dict(format_version=np.array([1]), base_prediction=np.array([0.5]),
                  learning_rate=np.array([0.3]), output_dimension=np.array([1]),
                  role=np.array(["coupled"]), tree_outputs=np.array([0]),
                  tree_sizes=np.array([3]), node_feature=np.array([0, -1, -1]),
                  node_threshold=np.array([0.5, 0, 0]), node_left=np.array([1, -1, -1]),
                  node_right=np.array([2, -1, -1]), node_value=np.array([0, 0.2, 0.8]))
    arrays[key] = np.array(value)
    path = str(tmp_path / "bad.npz")
    np.savez_compressed(path, **arrays)
    with pytest.raises(ValueError, match="bad model file"):
        load_model(path)


# ------------------------------------------------ packed prediction vs tree_predict

# Inputs and thresholds share one coarse grid, so `x <= threshold` ties occur.
_GRID = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
# Inputs also hold NaN, which goes right at every internal node, and +-inf.
_INPUTS = _GRID | st.sampled_from([np.nan, np.inf, -np.inf])


@st.composite
def _trees(draw):
    """A random tree of depth 0-6 (depth 0 is a lone leaf) in preorder,
    splitting on features 0-2; a node below the root splits with
    probability 3/4, so that rows reach the deep levels."""
    depth = draw(st.integers(0, 6))
    feature, threshold, left, right, value = [], [], [], [], []

    def build(level):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(draw(st.floats(-1.0, 1.0)))
        if level < depth and (level == 0 or draw(st.integers(0, 3)) > 0):
            feature[node] = draw(st.integers(0, 2))
            threshold[node] = draw(_GRID)
            left[node] = build(level + 1)
            right[node] = build(level + 1)
        return node

    build(0)
    return Tree(feature, threshold, left, right, value)


@st.composite
def _ensembles(draw):
    d = draw(st.integers(1, 5))
    trees = draw(st.lists(st.tuples(st.integers(0, d - 1), _trees()), max_size=12))
    base = np.array(draw(st.lists(st.floats(-0.5, 1.5), min_size=d, max_size=d)))
    learning_rate = draw(st.floats(0.05, 1.0))
    return TreeEnsembleModel(base, trees, learning_rate, d), trees


def _reference_predict(model, trees, X):
    out = np.tile(model.base_prediction, (X.shape[0], 1))
    for dim, tree in trees:
        out[:, dim] += model.learning_rate * tree_predict(tree, X)
    return np.clip(out, 0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(_ensembles(),
       hnp.arrays(float, st.tuples(st.sampled_from([0, 1, 2, 9]), st.just(3)), elements=_INPUTS),
       st.sampled_from([1, 5, boosting._CHUNK_CELLS]))
def test_packed_prediction_matches_per_tree_reference(ensemble, X, chunk_cells):
    model, trees = ensemble
    with mock.patch.object(boosting, "_CHUNK_CELLS", chunk_cells):
        batch = model.predict_batch(X)
        rows = [model.predict(x) for x in X]
    expected = _reference_predict(model, trees, X)
    assert batch.shape == expected.shape
    assert batch.tobytes() == expected.tobytes()
    for x_row, row in zip(batch, rows):
        assert row.tobytes() == x_row.tobytes()


@settings(max_examples=100, deadline=None)
@given(_ensembles())
def test_depth_histogram_matches_tree_depths(ensemble):
    model, trees = ensemble
    depths = Counter(tree_depth(tree) for _, tree in trees)
    assert model.depth_histogram() == depths
    assert list(model.depth_histogram()) == sorted(depths)
    assert model._depth == max(depths, default=0)


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(float, st.tuples(st.integers(4, 40), st.just(2)), elements=_GRID),
       st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3))
def test_fit_leaf_rows_match_tree_predict(X, seed, max_depth, min_leaf):
    residual = np.random.default_rng(seed).normal(size=len(X))
    order = [np.argsort(X[:, f], kind="stable") for f in range(2)]
    tree, leaf_of_row = fit_tree(X, residual, order,
                                 TrainConfig(max_depth=max_depth, min_samples_leaf=min_leaf))
    assert np.all(tree.feature[leaf_of_row] == -1)
    assert np.array_equal(tree.value[leaf_of_row], tree_predict(tree, X))


def test_hand_built_model_trees_are_read_only():
    stump = Tree(feature=[0, -1, -1], threshold=[0.5, 0, 0],
                 left=[1, -1, -1], right=[2, -1, -1], value=[0, 0.2, 0.8])
    # output 0 has no tree, so it keeps its base bit for bit, sign of zero included
    model = TreeEnsembleModel(np.array([-0.0, 0.3]), [(1, stump)], 1.0, 2)
    X = np.array([[0.0, 0.0], [1.0, 0.0]])
    expected = _reference_predict(model, [(1, stump)], X).tobytes()
    assert model.predict_batch(X).tobytes() == expected
    stump.value[:] = 0.0  # the model holds its own copy of the nodes
    assert model.predict_batch(X).tobytes() == expected
    with pytest.raises(AttributeError):
        model.trees.append((0, stump))
    with pytest.raises(AttributeError):
        model.trees = []
    with pytest.raises(ValueError):
        model.trees[0][1].value[1] = 5.0
    with pytest.raises(ValueError):
        model.layout["node_threshold"][0] = 9.0
    with pytest.raises(TypeError):
        model.layout["node_value"] = np.zeros(3)
    assert model.predict_batch(X).tobytes() == expected


def test_walk_tables_are_read_only():
    leaf = Tree(feature=[-1], threshold=[0.0], left=[-1], right=[-1], value=[0.1])
    stump = Tree(feature=[1, -1, -1], threshold=[0.5, 0, 0],
                 left=[1, -1, -1], right=[2, -1, -1], value=[0, 0.2, 0.8])
    model = TreeEnsembleModel(np.array([0.05]), [(0, leaf), (0, stump)], 1.0, 1)
    # child[2n + go_left] holds global node ids, and a leaf is its own child
    assert model._child.tolist() == [0, 0, 3, 2, 2, 2, 3, 3]
    assert model._root_feature.tolist() == [-1, 1]
    assert model._root_threshold.tolist() == [0.0, 0.5]
    for table in (model._child, model._root_feature, model._root_threshold):
        with pytest.raises(ValueError):
            table[0] = 1
    X = np.array([[9.0, 0.5], [9.0, np.nan]])
    assert model.predict_batch(X).tolist() == [[0.05 + 0.1 + 0.2], [0.05 + 0.1 + 0.8]]


def test_budget_stop_mid_round_predicts_with_held_trees(tmp_path):
    X, Y = _grid_data(n=60, d=32, seed=10)
    model = train(X, Y, TrainConfig(tree_count=10, max_depth=3, learning_rate=0.5,
                                    budget_parameters=1000))
    per_output = Counter(dim for dim, _ in model.trees)
    # the budget ran out partway through a round: low outputs got one more tree
    assert len(set(per_output.values())) == 2
    extra = [dim for dim in range(32) if per_output[dim] == max(per_output.values())]
    assert extra == list(range(len(extra)))
    assert param_count(model) == 32 + sum(tree_param_cost(t) for _, t in model.trees) <= 1000
    assert _layout_bytes(model) == _layout_bytes(train_reference(X, Y, TrainConfig(
        tree_count=10, max_depth=3, learning_rate=0.5, budget_parameters=1000)))
    probe = np.random.default_rng(11).uniform(0, 100, size=(25, 2))
    expected = _reference_predict(model, model.trees, probe)
    assert model.predict_batch(probe).tobytes() == expected.tobytes()
    path = str(tmp_path / "m.npz")
    save_model(model, path)
    assert load_model(path).predict_batch(probe).tobytes() == expected.tobytes()


# ---------------------------------------------------- node sums vs per-node np.sum

# Node lengths on both sides of the boundaries of numpy's pairwise sum: the
# plain loop below 8 values, the 8-way unrolled blocks of up to 128 and the
# 8192 values of a ufunc buffer.
_NODE_LENGTHS = st.sampled_from([1, 7, 8, 9, 127, 128, 129, 8192, 8193]) | st.integers(1, 300)
# What a node holds: only -0.0, signed zeros, or values of mixed exponents
# around 1, 1e300 or 1e-300 (their squares overflow or underflow), with
# some signed zeros among them.
_NODE_KINDS = st.sampled_from(["-0.0", "+-0.0", 1.0, 1e300, 1e-300])


def _node_values(rng, n, kind):
    if kind == "-0.0":
        return np.full(n, -0.0)
    signed_zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    if kind == "+-0.0":
        return signed_zeros
    values = kind * rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-4, 5, n)
    return np.where(rng.random(n) < 0.1, signed_zeros, values)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_NODE_LENGTHS, _NODE_KINDS), min_size=1, max_size=6),
       st.integers(0, 2**32 - 1), st.data())
def test_node_sums_equal_per_node_sums(nodes, seed, data):
    """Both `_node_sums` calls of `_fit_trees` equal the reference trainer's
    per-node `np.sum`/`np.mean` byte for byte: the means over every node,
    and the parent sse over a subset of them."""
    rng = np.random.default_rng(seed)
    lengths = np.array([n for n, _ in nodes])
    a = np.concatenate([_node_values(rng, n, kind) for n, kind in nodes])
    starts = np.cumsum(lengths) - lengths
    slices = [a[s:s + n] for s, n in zip(starts, lengths)]
    sums = boosting._node_sums(a, starts)
    assert sums.dtype == np.float64
    assert sums.tobytes() == np.array([np.add.reduce(v) for v in slices]).tobytes()
    mean = sums / lengths
    assert mean.tobytes() == np.array([np.mean(v) for v in slices]).tobytes()
    tried = np.nonzero(data.draw(hnp.arrays(bool, len(nodes))))[0]
    with np.errstate(over="ignore"):   # squares of values near 1e300 are inf
        sse = boosting._node_sums((a - np.repeat(mean, lengths)) ** 2, starts)[tried]
        expected = np.array([np.sum((slices[k] - np.mean(slices[k])) ** 2) for k in tried])
    assert sse.tobytes() == expected.astype(float).tobytes()


# ------------------------------------------ round-at-once fit vs the per-tree trainer

# Residual pool: repeated values, signed zeros and order-sensitive sums.
_RESIDUALS = st.sampled_from([0.0, -0.0, 0.25, -0.5, 1.0]) | st.floats(-1.0, 1.0)
# Inputs with value ties, and two neighbouring floats whose midpoint rounds
# to the lower one, so that a row can sit exactly on a threshold.
_FIT_GRID = st.sampled_from([0.0, 0.5, 1.0, float(np.nextafter(1.0, 2.0)), 1.5, 2.0, 3.0])


def _layout_bytes(model):
    return {key: (a.dtype.str, a.tobytes()) for key, a in model.layout.items()}


@st.composite
def _training_sets(draw):
    """X on a coarse grid (`_FIT_GRID`), 1-40 outputs, some of them constant
    (all-zero residuals), and budgets that often run out partway through a
    round."""
    n, d = draw(st.integers(1, 30)), draw(st.integers(1, 40))
    X = draw(hnp.arrays(float, (n, 2), elements=_FIT_GRID))
    Y = draw(hnp.arrays(float, (n, d), elements=st.sampled_from([0.0, 0.5, 1.0])
                        | st.floats(0.0, 1.0)))
    constant = draw(hnp.arrays(bool, d))
    Y[:, constant] = Y[0, constant]
    config = TrainConfig(tree_count=draw(st.integers(1, 6)), max_depth=draw(st.integers(1, 4)),
                         learning_rate=draw(st.sampled_from([0.3, 1.0]) | st.floats(0.05, 1.0)),
                         min_samples_leaf=draw(st.integers(1, 3)),
                         budget_parameters=d + draw(st.integers(0, 25 * d)))
    return X, Y, config


@settings(max_examples=300, deadline=None)
@given(_training_sets(), st.sampled_from([1, 37, boosting._CHUNK_CELLS]))
def test_round_fit_matches_per_tree_reference(data, chunk_cells):
    X, Y, config = data
    with mock.patch.object(boosting, "_CHUNK_CELLS", chunk_cells):
        model = train(X, Y, config)
    reference = train_reference(X, Y, config)
    assert _layout_bytes(model) == _layout_bytes(reference)
    assert model.base_prediction.tobytes() == reference.base_prediction.tobytes()
    assert model.predict_batch(X).tobytes() == reference.predict_batch(X).tobytes()


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(float, st.tuples(st.integers(1, 40), st.just(2)), elements=_FIT_GRID),
       st.data(), st.integers(1, 4), st.integers(1, 3), st.sampled_from([1, 37, 65536]))
def test_level_fit_matches_per_tree_reference(X, data, max_depth, min_leaf, chunk_cells):
    """Every tree and every row's leaf value (the in-sample update of the
    next round) equal the recursive per-tree fit, also for unsorted rows."""
    columns = data.draw(st.integers(1, 12))
    residual = data.draw(hnp.arrays(float, (len(X), columns), elements=_RESIDUALS))
    residual[:, data.draw(hnp.arrays(bool, columns))] = 0.0
    config = TrainConfig(max_depth=max_depth, min_samples_leaf=min_leaf)
    orders = [np.argsort(X[:, f], kind="stable") for f in range(2)]
    with mock.patch.object(boosting, "_CHUNK_CELLS", chunk_cells):
        nodes, sizes, internal, leaf_value = boosting._fit_trees(
            X, orders, np.ascontiguousarray(residual.T), config)
    ends = np.cumsum(sizes)
    assert ends[-1] == len(nodes["feature"])
    for c in range(columns):
        tree, leaf_of_row = fit_tree(X, residual[:, c], orders, config)
        for name in ("feature", "threshold", "left", "right", "value"):
            got = nodes[name][ends[c] - sizes[c]:ends[c]]
            assert (got.dtype, got.tobytes()) == (getattr(tree, name).dtype,
                                                  getattr(tree, name).tobytes())
        assert internal[c] == internal_count(tree)
        assert leaf_value[c].tobytes() == tree.value[leaf_of_row].tobytes()
