from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from beamtrain import boosting
from beamtrain.boosting import (TrainConfig, Tree, TreeEnsembleModel, _fit_tree, kfold_tune,
                                load_model, param_count, save_model, train,
                                training_loss_curve)


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
    assert stump.param_cost == 4
    assert stump.depth == 1
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
    assert np.array_equal(stump.predict(X), [-1.0, -1.0, 1.0])


def test_training_loss_monotone():
    X, Y = _grid_data(n=40, d=1, seed=2)
    losses = training_loss_curve(X, Y, TrainConfig(tree_count=8, learning_rate=0.3,
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


# ------------------------------------------------ packed prediction vs Tree.predict

# Inputs and thresholds share one coarse grid, so `x <= threshold` ties occur.
_GRID = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])


@st.composite
def _trees(draw):
    """A random tree of depth 0-4 (depth 0 is a lone leaf) in preorder."""
    depth = draw(st.integers(0, 4))
    feature, threshold, left, right, value = [], [], [], [], []

    def build(level):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(draw(st.floats(-1.0, 1.0)))
        if level < depth and (level == 0 or draw(st.booleans())):
            feature[node] = draw(st.integers(0, 1))
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
        out[:, dim] += model.learning_rate * tree.predict(X)
    return np.clip(out, 0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(_ensembles(),
       hnp.arrays(float, st.tuples(st.sampled_from([0, 1, 2, 9]), st.just(2)), elements=_GRID),
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
@given(hnp.arrays(float, st.tuples(st.integers(4, 40), st.just(2)), elements=_GRID),
       st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3))
def test_fit_leaf_rows_match_tree_predict(X, seed, max_depth, min_leaf):
    residual = np.random.default_rng(seed).normal(size=len(X))
    order = [np.argsort(X[:, f], kind="stable") for f in range(2)]
    tree, leaf_of_row = _fit_tree(X, residual, order,
                                  TrainConfig(max_depth=max_depth, min_samples_leaf=min_leaf))
    assert np.all(tree.feature[leaf_of_row] == -1)
    assert np.array_equal(tree.value[leaf_of_row], tree.predict(X))


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


def test_budget_stop_mid_round_predicts_with_held_trees(tmp_path):
    X, Y = _grid_data(n=60, d=32, seed=10)
    model = train(X, Y, TrainConfig(tree_count=10, max_depth=3, learning_rate=0.5,
                                    budget_parameters=1000))
    per_output = Counter(dim for dim, _ in model.trees)
    # the budget ran out partway through a round: low outputs got one more tree
    assert len(set(per_output.values())) == 2
    extra = [dim for dim in range(32) if per_output[dim] == max(per_output.values())]
    assert extra == list(range(len(extra)))
    assert param_count(model) == 32 + sum(t.param_cost for _, t in model.trees) <= 1000
    probe = np.random.default_rng(11).uniform(0, 100, size=(25, 2))
    expected = _reference_predict(model, model.trees, probe)
    assert model.predict_batch(probe).tobytes() == expected.tobytes()
    path = str(tmp_path / "m.npz")
    save_model(model, path)
    assert load_model(path).predict_batch(probe).tobytes() == expected.tobytes()
