import logging
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import beamtrain
from beamtrain import boosting
from beamtrain.boosting import (NODE_ARRAYS, TrainConfig, Tree, kfold_tune, load_model,
                                param_count, save_model, train)
from conftest import draws
from reference_boosting import (_histogram_split, fit_histogram_tree, fit_tree, histogram_bins,
                                internal_count, model_from_trees, sequential_sum,
                                train_cell_reference, train_histogram_reference, train_reference,
                                tree_depth, tree_param_cost, tree_predict)


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
    assert len(model.trees) == 46
    assert _layout_bytes(model) == _layout_bytes(train_cell_reference(X, Y, cfg))
    _assert_splits_as_row_form(model, train_histogram_reference(X, Y, cfg))


def test_budget_below_outputs_raises():
    X, Y = _grid_data(d=8)
    with pytest.raises(ValueError):
        train(X, Y, TrainConfig(budget_parameters=4))
    with pytest.raises(ValueError):
        train(np.zeros((0, 2)), np.zeros((0, 2)), TrainConfig())


@pytest.mark.parametrize("name", ["X", "Y"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_train_rejects_non_finite_inputs_before_sorting(name, bad):
    """X is checked before the rows are sorted, and Y as `_cell_tables`
    reads it, before any tree is fitted."""
    data = dict(zip("XY", _grid_data()))
    data[name][5, 1] = bad
    first = (np, "lexsort") if name == "X" else (boosting, "_fit_trees")
    with mock.patch.object(*first, side_effect=AssertionError(f"{first[1]} ran")), \
            pytest.raises(ValueError, match=f"^{name} holds a non-finite value$"):
        train(data["X"], data["Y"], TrainConfig())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_train_rejects_a_non_finite_target_in_its_last_column_block(bad):
    """64 rows at 128 cells per block read the 9 outputs in five blocks of
    two columns, the last one shifted back to columns 7 and 8."""
    X, Y = _grid_data(d=9)
    Y[40, 8] = bad
    with mock.patch.object(boosting, "_CHUNK_CELLS", 128), \
            mock.patch.object(boosting, "_fit_trees", side_effect=AssertionError("_fit_trees ran")), \
            pytest.raises(ValueError, match="^Y holds a non-finite value$"):
        train(X, Y, TrainConfig())


def test_train_holds_no_sorted_copy_of_the_targets():
    """`train` reads the caller's Y in sorted order, block by block, and
    never copies it whole for the fit: on a 4 MiB Y the traced peak stays
    below one Y more plus a fixed 8 MiB. The fit holds the two (cells,
    outputs) tables S and Q (the 1024 rows lie in 701 cells here, so each
    is 2.7 MiB) and one block's fit temporaries. A sorted copy of Y, 4 MiB
    more, would exceed the bound."""
    rng = np.random.default_rng(3)
    n, d = 1024, 512
    X = np.column_stack([rng.choice([1.75, 5.25, 8.75, 12.25], n), rng.uniform(0, 100, n)])
    Y = rng.uniform(size=(n, d))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        train(X, Y, TrainConfig(tree_count=2, max_depth=3, budget_parameters=10**6))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert Y.nbytes == 4 * 2**20
    assert peak < Y.nbytes + 8 * 2**20



def test_small_fits_size_their_blocks_by_their_split_tables():
    """Below 128 rows the 32-bin floor makes a level's (node, bin) tables
    larger than a tree's (feature, row) cells, and blocks are sized by the
    larger of the two: a 24-row, 1024-output, 3-round fit peaks at or below
    the 6.7 MiB of the exact split search (9.5 MiB when blocks counted only
    the rows). Block size does not change the fit, so the layout is the
    same at other `_CHUNK_CELLS`."""
    rng = np.random.default_rng(0)
    X, Y = rng.uniform(0, 100, size=(24, 2)), rng.uniform(size=(24, 1024))
    config = TrainConfig(tree_count=3, max_depth=3, budget_parameters=10**9)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        layout = train(X, Y, config).layout
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 6.7 * 2**20
    for cells in (2**10, 2**13, 2**20):
        with mock.patch.object(boosting, "_CHUNK_CELLS", cells):
            other = train(X, Y, config).layout
        assert {k: v.tobytes() for k, v in other.items()} == {
            k: v.tobytes() for k, v in layout.items()}

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


def test_train_and_kfold_tune_take_targets_of_rows_and_outputs():
    """Targets are (rows, outputs), one column per output. Given the
    (n,) targets of the underfitting grid above, `kfold_tune` scored its
    (n_val, 1) predictions against (n_val,) targets, an (n_val, n_val)
    error, and chose the weak grid point; now its first fold fit raises."""
    X, Y = _grid_data(n=120, d=1, seed=6)
    folds = np.arange(len(X)) % 4
    weak = TrainConfig(tree_count=1, max_depth=1, budget_parameters=10000)
    strong = TrainConfig(tree_count=60, max_depth=3, learning_rate=0.3,
                         budget_parameters=10000)
    for bad in (Y[:, 0], Y[:, :, None]):
        message = rf"^Y must be 2-D, got shape {re.escape(str(bad.shape))}$"
        with pytest.raises(ValueError, match=message):
            train(X, bad, strong)
        with pytest.raises(ValueError, match=message):
            kfold_tune(X, bad, [weak, strong], folds)


@pytest.mark.parametrize("shape", [(10,), (10, 0), (10, 2, 1)])
def test_train_and_kfold_tune_take_locations_of_rows_and_columns(shape):
    """Locations are (rows, width) with at least one column, as in
    `predict_batch`. Before the check, these shapes failed in `len`, in
    `np.lexsort` and in a concatenation, with errors that named no `X`.
    `kfold_tune` fails in its first fold fit, naming the fold's shape."""
    X = np.arange(np.prod(shape), dtype=float).reshape(shape)
    Y = np.ones((10, 2))
    grid = [TrainConfig(tree_count=t, budget_parameters=1000) for t in (1, 2)]
    with mock.patch.object(np, "lexsort", side_effect=AssertionError("lexsort ran")):
        for fit, rows in ((lambda: train(X, Y, grid[0]), 10),
                          (lambda: kfold_tune(X, Y, grid, np.arange(10) % 2), 5)):
            got = re.escape(str((rows, *shape[1:])))
            with pytest.raises(ValueError, match=rf"^X must be 2-D with at least one "
                                                 rf"column, got shape {got}$"):
                fit()


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


def test_output_count_is_the_length_of_the_base(tmp_path):
    """A model's output count is its base's length, and its file records
    it (a file whose count disagrees is rejected by
    `test_model_file_with_bad_base_rate_or_outputs_rejected`)."""
    model = model_from_trees(np.array([0.25, 0.5, 0.75]), [], 0.3)
    assert model.output_dimension == 3
    path = str(tmp_path / "m.npz")
    save_model(model, path)
    with np.load(path) as npz:
        assert npz["output_dimension"].tolist() == [3]


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
                        ("max_depth", 2.5), ("tree_count", "3"), ("learning_rate", "0.3"),
                        ("budget_parameters", -5), ("budget_parameters", 1.5),
                        ("tree_count", True), ("learning_rate", True)):
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
    with pytest.raises(ValueError, match=rf"^model file '.*bad\.npz': {key} must be"):
        load_model(path)


@pytest.mark.parametrize("key, value, message", [
    ("base_prediction", [0.5, np.nan], "base_prediction must be finite floats of shape (D,), got "
                                       "nan at (1,) in float64 of shape (2,)"),
    ("base_prediction", [0.5, np.inf], "base_prediction must be finite floats of shape (D,), got "
                                       "inf at (1,) in float64 of shape (2,)"),
    ("base_prediction", [0.5], "base_prediction must be of length output_dimension = 2, got 1"),
    ("base_prediction", [[0.5, 0.5]], "base_prediction must be finite floats of shape (D,), got "
                                      "float64 of shape (1, 2)"),
    ("learning_rate", [np.inf], "learning_rate must be finite floats of shape (1,), got inf at "
                                "(0,) in float64 of shape (1,)"),
    ("learning_rate", [np.nan], "learning_rate must be finite floats of shape (1,), got nan at "
                                "(0,) in float64 of shape (1,)"),
    ("learning_rate", [0.0], "learning_rate must be in (0, 1], got 0.0"),
    ("learning_rate", [1.5], "learning_rate must be in (0, 1], got 1.5"),
    ("output_dimension", [-1], "base_prediction must be of length output_dimension = -1, "
                               "got 2"),
    ("node_value", "nan leaf", "node_value must be finite floats of shape (M,), got nan at "),
    ("node_feature", "floats", "node_feature must be integers of shape (M,), got float64 of "
                               "shape "),
])
def test_model_file_with_bad_base_rate_or_outputs_rejected(tmp_path, key, value, message):
    """A NaN or infinite base, learning rate or leaf value would give NaN
    predictions, which every ranking puts last, and float feature ids would
    be truncated to integers; each fails naming the file and the key."""
    X, Y = _grid_data(n=30, d=2, seed=4)
    path = str(tmp_path / "m.npz")
    save_model(train(X, Y, TrainConfig(tree_count=2, budget_parameters=10000)), path)
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    if value == "nan leaf":
        arrays[key][np.flatnonzero(arrays["node_feature"] < 0)[0]] = np.nan
    elif value == "floats":
        arrays[key] = arrays[key].astype(float)
    else:
        arrays[key] = np.array(value)
    np.savez_compressed(path, **arrays)
    with pytest.raises(ValueError, match=f"^model file '.*m\\.npz': {re.escape(message)}"):
        load_model(path)


@pytest.mark.parametrize("feature, left, right", [
    ([0, 0, -1, -1], [1, 2, -1, -1], [1, 3, -1, -1]),     # node 1 listed twice by node 0
    ([0, -1, -1, -1], [1, -1, -1, -1], [2, -1, -1, -1]),  # node 3 has no parent
])
def test_model_file_with_non_tree_layout_rejected(tmp_path, feature, left, right):
    path = str(tmp_path / "bad.npz")
    np.savez_compressed(path, format_version=np.array([1]), base_prediction=np.array([0.5]),
                        learning_rate=np.array([0.3]), output_dimension=np.array([1]),
                        role=np.array(["coupled"]), tree_outputs=np.array([0]),
                        tree_sizes=np.array([4]), node_feature=np.array(feature),
                        node_threshold=np.array([0.5, 0.5, 0, 0]), node_left=np.array(left),
                        node_right=np.array(right), node_value=np.array([0, 0, 0.2, 0.8]))
    with pytest.raises(ValueError, match="^model file .*: node_left and node_right must list "
                                         "each node but a root once, got node [13] listed [02] "
                                         "times$"):
        load_model(path)


def test_model_file_with_nan_threshold_rejected(tmp_path):
    """A NaN threshold on an internal node has no place in an output's
    sorted thresholds, and `train` never writes one, on a leaf either: every
    float of a model file must be finite."""
    X, Y = _grid_data(n=30, d=2, seed=4)
    path = str(tmp_path / "m.npz")
    save_model(train(X, Y, TrainConfig(tree_count=2, budget_parameters=10000)), path)
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    assert load_model(path).predict_batch(X).shape == Y.shape
    for node in (np.flatnonzero(arrays["node_feature"] >= 0)[-1],
                 np.flatnonzero(arrays["node_feature"] < 0)[0]):
        np.savez_compressed(path, **{**arrays, "node_threshold": np.where(
            np.arange(len(arrays["node_threshold"])) == node, np.nan, arrays["node_threshold"])})
        with pytest.raises(ValueError, match=rf"^model file .*: node_threshold must be finite "
                                             rf"floats of shape \(M,\), got nan at \({node},\)"):
            load_model(path)


def _full_trees(trees, depth, outputs, seed):
    """The layout of `trees` full trees of `depth` in preorder, splitting on
    features 0 and 1 at thresholds of a 64-value grid, spread over the
    outputs round by round."""
    rng = np.random.default_rng(seed)
    left, right = [], []

    def build(level):
        node = len(left)
        left.append(-1)
        right.append(-1)
        if level < depth:
            left[node] = build(level + 1)
            right[node] = build(level + 1)
        return node

    build(0)
    left, right = np.array(left), np.array(right)
    inner = np.tile(left >= 0, trees)
    return {"tree_outputs": np.arange(trees) % outputs, "tree_sizes": np.full(trees, len(left)),
            "node_feature": np.where(inner, rng.integers(0, 2, inner.size), -1),
            "node_threshold": np.where(inner, rng.integers(0, 64, inner.size) / 4.0, 0.0),
            "node_left": np.tile(left, trees), "node_right": np.tile(right, trees),
            "node_value": rng.uniform(-0.1, 0.1, inner.size)}


def test_model_construction_stays_near_the_layout_size():
    """The constructor keeps a copy of the layout and checks it with a few
    node-length temporaries; the child table and the ranks are built only
    when the step tables are compiled. On 45,000 nodes its traced peak stays
    below twice the layout; building the child table in the constructor as
    well goes past it."""
    layout = _full_trees(3000, 3, 256, seed=1)
    size = sum(a.nbytes for a in layout.values())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        model = boosting.TreeEnsembleModel(np.full(256, 0.5), layout, 0.3, "coupled")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert size == 45000 * 40 + 3000 * 16
    assert peak < 2 * size
    assert model._step_tables is None


# ------------------------------------------------ packed prediction vs tree_predict

# Inputs and thresholds share one coarse grid, so `x <= threshold` ties occur.
_GRID = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
# Thresholds also hold -0.0, which ties with 0.0, and +-inf, which an
# output's interval list holds like any other value.
_THRESHOLDS = _GRID | st.sampled_from([-0.0, np.inf, -np.inf])
# Inputs also hold NaN, which goes right at every internal node, +-inf and
# -0.0.
_INPUTS = _GRID | st.sampled_from([np.nan, np.inf, -np.inf, -0.0])


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
            threshold[node] = draw(_THRESHOLDS)
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
    return model_from_trees(base, trees, learning_rate), trees


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
    assert boosting._children(model.layout)[1].tolist() == [tree_depth(tree) for _, tree in trees]


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(float, st.tuples(st.integers(4, 40), st.just(2)), elements=_GRID),
       st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3))
def test_fit_leaf_rows_match_tree_predict(X, seed, max_depth, min_leaf):
    residual = np.random.default_rng(seed).normal(size=len(X))
    order = [np.argsort(X[:, f], kind="stable") for f in range(2)]
    config = TrainConfig(max_depth=max_depth, min_samples_leaf=min_leaf)
    for tree, leaf_of_row in (fit_tree(X, residual, order, config),
                              fit_histogram_tree(X, histogram_bins(X), residual, config)):
        assert np.all(tree.feature[leaf_of_row] == -1)
        assert np.array_equal(tree.value[leaf_of_row], tree_predict(tree, X))


def test_hand_built_model_trees_are_read_only():
    stump = Tree(feature=[0, -1, -1], threshold=[0.5, 0, 0],
                 left=[1, -1, -1], right=[2, -1, -1], value=[0, 0.2, 0.8])
    # output 0 has no tree, so it keeps its base bit for bit, sign of zero included
    model = model_from_trees(np.array([-0.0, 0.3]), [(1, stump)], 1.0)
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


@pytest.mark.parametrize("compile_first", [False, True])
def test_model_keeps_its_own_base_prediction(compile_first):
    """A write into the caller's base array after construction changes
    nothing, whether or not the step tables were compiled before it."""
    stump = Tree(feature=[0, -1, -1], threshold=[0.5, 0, 0],
                 left=[1, -1, -1], right=[2, -1, -1], value=[0, 0.2, 0.8])
    base = np.array([0.25, 0.5])
    model = model_from_trees(base, [(1, stump)], 0.5)
    X = np.array([[0.0, 0.0], [1.0, 0.0]])
    expected = _reference_predict(model, [(1, stump)], X).tobytes()
    if compile_first:
        model.step_tables
    base[:] = np.nan
    assert model.predict_batch(X).tobytes() == expected
    assert model.base_prediction.tolist() == [0.25, 0.5]
    with pytest.raises(ValueError):
        model.base_prediction[0] = 1.0


def test_child_and_step_tables_of_a_hand_built_model():
    leaf = Tree(feature=[-1], threshold=[0.0], left=[-1], right=[-1], value=[0.1])
    stump = Tree(feature=[1, -1, -1], threshold=[0.5, 0, 0],
                 left=[1, -1, -1], right=[2, -1, -1], value=[0, 0.2, 0.8])
    # a root on feature 0 with a leaf left and a stump on feature 1 right
    deep = Tree(feature=[0, -1, 1, -1, -1], threshold=[1.0, 0, 0.5, 0, 0],
                left=[1, -1, 3, -1, -1], right=[2, -1, 4, -1, -1], value=[0, 0.3, 0, 0.4, 0.5])
    model = model_from_trees(np.array([0.05]), [(0, leaf), (0, stump), (0, deep)], 0.5)
    # the trees lie at layout nodes 0, 1-3 and 4-8; node n's right child is
    # child[2n] and its left child child[2n + 1], and a leaf is its own child
    child, depths = boosting._children(model.layout)
    assert child.tolist() == [0, 0, 3, 2, 2, 2, 3, 3, 6, 5, 5, 5, 8, 7, 7, 7, 8, 8]
    assert depths.tolist() == [0, 1, 2]
    # the output has one threshold on each feature, so every internal node
    # has rank 0 (no threshold below its own) and every leaf rank -1
    rank = boosting._thresholds(model.layout, 1)[-1]
    assert rank.tolist() == [-1, 0, -1, -1, 0, -1, 0, -1, -1]
    # one output with one threshold on each feature: 2 x 2 cells, feature 1
    # the faster; a cell adds the three trees' values in fit order
    tables = model.step_tables
    assert tables.features == (0, 1)
    assert [c.tolist() for c in tables.cuts] == [[1.0], [0.5]]
    # rows[g] holds the output's flat-index step at and after cut g - 1:
    # none of its thresholds lies below a row up to the cut, one above it,
    # and an interval spans 2 cells on feature 0 and 1 on feature 1; the
    # output's cells start at 0
    assert [r.tolist() for r in tables.rows] == [[[0], [2]], [[0], [1]]]
    assert [r.dtype for r in tables.rows] == [np.intp, np.intp]
    assert tables.cells == 4
    assert tables.values.tolist() == [0.05 + 0.05 + stump + deep for stump, deep in (
        (0.1, 0.15), (0.4, 0.15), (0.1, 0.2), (0.4, 0.25))]
    for table in (*tables.cuts, *tables.rows, tables.values):
        with pytest.raises(ValueError):
            table[0] = 1
    assert model.step_tables is tables
    X = np.array([[9.0, 0.5], [9.0, np.nan], [0.0, 0.0]])
    assert model.predict_batch(X).tolist() == [
        [0.05 + 0.05 + 0.1 + 0.2], [0.05 + 0.05 + 0.4 + 0.25], [0.05 + 0.05 + 0.1 + 0.15]]


@settings(max_examples=100, deadline=None)
@given(_ensembles())
def test_child_table_and_ranks_hold_the_trees(ensemble):
    """Following the child table from each root rebuilds the tree, every leaf
    is its own child, and a node's rank counts its output's distinct
    thresholds on its feature below its own (-1 on a leaf)."""
    model, trees = ensemble
    layout = model.layout
    child, _ = boosting._children(layout)
    rank = boosting._thresholds(layout, model.output_dimension)[-1]
    leaves = np.flatnonzero(layout["node_feature"] < 0)
    assert np.all(child.reshape(-1, 2)[leaves] == leaves[:, None])
    assert np.all(rank[leaves] == -1)

    def same(node, tree, i):                    # the layout's subtree = the tree's
        if tree.feature[i] < 0:
            return layout["node_feature"][node] < 0 and layout["node_value"][node] == tree.value[i]
        return (layout["node_feature"][node] == tree.feature[i]
                and layout["node_threshold"][node] == tree.threshold[i]
                and same(child[2 * node + 1], tree, tree.left[i])
                and same(child[2 * node], tree, tree.right[i]))

    roots = np.cumsum(layout["tree_sizes"]) - layout["tree_sizes"]
    assert all(same(root, tree, 0) for root, (_, tree) in zip(roots, trees))
    # per output and feature, the distinct thresholds as Python floats, a
    # set in which -0.0 and 0.0 are one
    own = {}
    for output, tree in trees:
        for f, t in zip(tree.feature, tree.threshold):
            if f >= 0:
                own.setdefault((output, f), set()).add(float(t))
    node_output = np.repeat(layout["tree_outputs"], layout["tree_sizes"])
    for node in np.flatnonzero(layout["node_feature"] >= 0):
        t = layout["node_threshold"][node]
        key = (node_output[node], layout["node_feature"][node])
        assert rank[node] == sum(a < t for a in own[key])


@settings(max_examples=100, deadline=None)
@given(_ensembles())
def test_step_tables_hold_each_outputs_sorted_distinct_thresholds(ensemble):
    """Per feature, the cuts are the sorted distinct thresholds of all the
    trees' nodes on that feature (-0.0 and 0.0 are one, +-inf are
    thresholds like any other), and each output's column of the row table
    steps by its stride exactly at its own sorted distinct thresholds: its
    entry g is the stride times the count of those among the first g cuts,
    plus the output's first cell on the first feature. So
    `rows[searchsorted(cuts, x)]` counts the thresholds that `x <=` fails,
    NaN failing all of them. An output's table has one cell per product of
    its intervals, the last feature's stride being 1 and each earlier one
    the cells of the later features' intervals, and the outputs' tables
    are contiguous runs that cover the cells once."""
    model, trees = ensemble
    tables = model.step_tables
    d = model.output_dimension
    used = sorted({f for _, tree in trees for f in tree.feature[tree.feature >= 0].tolist()})
    assert tables.features == tuple(used)
    assert len(tables.cuts) == len(used) and len(tables.rows) == max(1, len(used))
    own = [[sorted({float(t) for dim, tree in trees if dim == output
                    for t in tree.threshold[tree.feature == f]})
            for output in range(d)] for f in used]
    intervals = np.array([[len(a) + 1 for a in per_output] for per_output in own],
                         dtype=int).reshape(len(used), d)
    cells = np.prod(intervals, axis=0)
    assert tables.cells == cells.sum()
    first = tables.rows[0][0]
    order = np.argsort(first, kind="stable")
    assert np.array_equal(np.sort(first), np.cumsum(cells[order]) - cells[order])
    probes = [np.nan, np.inf, -np.inf, -0.0, 0.0, 0.25, 1.0, 1.25, 3.0, 3.5]
    for f, (cuts, rows, per_output) in enumerate(zip(tables.cuts, tables.rows, own)):
        assert cuts.tolist() == sorted(set().union(*per_output))
        assert np.all(cuts[1:] > cuts[:-1])
        assert rows.shape == (len(cuts) + 1, d) and rows.dtype == np.intp
        stride = np.prod(intervals[f + 1:], axis=0)
        start = first if f == 0 else np.zeros(d, dtype=int)
        for output, a in enumerate(per_output):
            below = [0] + [sum(t <= c for t in a) for c in cuts]
            assert rows[:, output].tolist() == [start[output] + stride[output] * n for n in below]
            for x in probes + cuts.tolist():
                assert rows[np.searchsorted(cuts, x), output] == (
                    start[output] + stride[output] * sum(not x <= t for t in a))


def _interval_counts(tables):
    """(features, outputs): each output's threshold count per feature, the
    steps of its column of the row table."""
    return np.array([np.count_nonzero(np.diff(rows, axis=0), axis=0)
                     for rows in tables.rows[:len(tables.features)]],
                    dtype=int).reshape(len(tables.features), tables.rows[0].shape[1])


def _assert_cells_hold_the_walk(model, trees, outputs, intervals, width):
    """The cells of `outputs` at the (cells, features) interval indices
    `intervals` hold, bit for bit, the clipped base plus the fit-order sum
    of `learning_rate * tree_predict` of the output's trees at the cell's
    representative point: a_k on interval k, NaN on the last and on the
    features the trees never split on. a_k is the cut at which the
    output's column of the row table steps for the (k + 1)-th time, and a
    cell's flat index is the sum of the output's rows at its point's cuts,
    the last row at NaN. Returns the cells' flat indices."""
    tables = model.step_tables
    columns = np.arange(len(outputs))
    flat = np.zeros(len(outputs), dtype=np.intp) if tables.features else tables.rows[0][0, outputs]
    points = np.full((len(outputs), width), np.nan)
    for f, cuts, rows, k in zip(tables.features, tables.cuts, tables.rows, intervals.T):
        # each output's steps among the first g cuts
        steps = np.cumsum(np.diff(rows[:, outputs], axis=0, prepend=rows[:1, outputs]) != 0,
                          axis=0)
        past = np.argmax(steps > k, axis=0)                  # 0 on the last interval
        inside = k < steps[-1]
        points[:, f] = np.where(inside, cuts[past - 1], np.nan)
        flat = flat + rows[np.where(inside, past - 1, len(cuts)), outputs]
    expected = _reference_predict(model, trees, points)[columns, outputs]
    assert tables.values[flat].tobytes() == expected.tobytes()
    return flat


@settings(max_examples=100, deadline=None)
@given(_ensembles())
def test_every_step_table_cell_holds_the_walk_at_its_point(ensemble):
    """Cell by cell, every output's table holds its trees' walk at the
    cell's representative point, and the outputs' cells cover the table
    once."""
    model, trees = ensemble
    tables = model.step_tables
    counts = _interval_counts(tables)
    outputs, intervals = [], []
    for output in range(model.output_dimension):
        grid = np.array(list(product(*(range(m + 1) for m in counts[:, output]))),
                        dtype=int, ndmin=2)
        outputs += [output] * len(grid)
        intervals.append(grid)
    flat = _assert_cells_hold_the_walk(model, trees, np.array(outputs),
                                       np.concatenate(intervals), 3)
    assert sorted(flat.tolist()) == list(range(tables.cells))


def test_step_table_cells_of_many_outputs_and_rounds_hold_the_walk():
    """A seeded sample of the cells of 256 outputs with 11 or 12 depth-3
    trees each, so that the compile's rounds run over shrinking prefixes."""
    model = boosting.TreeEnsembleModel(np.full(256, 0.5), _full_trees(3000, 3, 256, seed=1),
                                       0.3, "coupled")
    tables = model.step_tables
    rng = np.random.default_rng(1)
    outputs = rng.integers(0, 256, 2000)
    intervals = np.stack([rng.integers(0, m[outputs] + 1) for m in _interval_counts(tables)],
                         axis=1)
    assert tables.features == (0, 1)
    _assert_cells_hold_the_walk(model, model.trees, outputs, intervals, 2)

@settings(max_examples=100, deadline=None)
@given(_ensembles(), st.integers(1, 3),
       hnp.arrays(float, st.tuples(st.sampled_from([0, 1, 7]), st.just(3)), elements=_INPUTS),
       st.sampled_from([1, 5, boosting._CHUNK_CELLS]))
def test_packed_prediction_ignores_unused_columns(ensemble, spare, X, chunk_cells):
    """Columns past the features the trees split on change nothing."""
    model, trees = ensemble
    wide = np.column_stack([X, np.full((len(X), spare), np.nan)])
    with mock.patch.object(boosting, "_CHUNK_CELLS", chunk_cells):
        batch = model.predict_batch(wide)
    assert batch.tobytes() == _reference_predict(model, trees, X).tobytes()


@settings(max_examples=300, deadline=None)
@given(_ensembles(), st.integers(0, 2), hnp.arrays(float, st.just(3), elements=_INPUTS))
def test_one_row_prediction_is_the_batch_row(ensemble, spare, x):
    """`predict` on one location gives the bytes of `predict_batch`'s row
    for it: on inputs on the thresholds, NaN, +-inf and -0.0, with unused
    columns past the features, and for models that split on no feature."""
    model, _ = ensemble
    x = np.concatenate([x, np.full(spare, np.nan)])
    expected = model.predict_batch(x[None])[0]
    for location in (x, x.tolist()):
        row = model.predict(location)
        assert row.shape == expected.shape and row.tobytes() == expected.tobytes()


def test_one_row_prediction_takes_one_location():
    """`predict` flattened its input, so that four rows gave the outputs of
    the first row's cells; an input that is not 1-D raises a ValueError
    naming `location` and its shape, also for a model without features."""
    X, Y = _grid_data(d=3)
    for model in (train(X, Y, TrainConfig(tree_count=3)), model_from_trees(np.zeros(2), [], 0.3)):
        for location, shape in ((X[:4], (4, 2)), (X[:1], (1, 2)), (3.0, ())):
            with pytest.raises(ValueError, match=re.escape(f"location must be 1-D, got shape {shape}")):
                model.predict(location)


def test_batch_prediction_takes_rows():
    """`predict_batch` takes (rows, width) locations; any other shape raises
    a ValueError naming `X` and its shape (a 1-D `X` raised IndexError),
    also for a model without features."""
    X, Y = _grid_data(d=3)
    for model in (train(X, Y, TrainConfig(tree_count=3)), model_from_trees(np.zeros(2), [], 0.3)):
        for bad in (X[0], X[None], 3.0):
            with pytest.raises(ValueError, match=re.escape(
                    f"X must be 2-D, got shape {np.shape(bad)}")):
                model.predict_batch(bad)


def test_one_row_prediction_of_models_without_features():
    """A model without trees, without outputs, or of lone leaves predicts
    from a location of any width, none included, the row of its batch."""
    leaf = Tree(feature=[-1], threshold=[0.0], left=[-1], right=[-1], value=[0.5])
    for model in (model_from_trees(np.zeros(0), [], 0.3),
                  model_from_trees(np.array([-0.5, 0.25, 1.5]), [], 0.3),
                  model_from_trees(np.array([0.125, -0.0]), [(0, leaf), (0, leaf)], 0.5)):
        assert model.step_tables.features == ()
        for x in (np.zeros(0), np.array([np.nan]), np.array([-0.0, np.inf])):
            expected = model.predict_batch(x[None])[0]
            assert expected.shape == (model.output_dimension,)
            assert model.predict(x).tobytes() == expected.tobytes()


def test_prediction_names_a_feature_past_the_input_width():
    """A model that splits on a feature past its input's columns raises a
    ValueError naming node_feature, its largest id and the width, on one
    row and on a batch, empty or not; wider inputs predict."""
    stump = Tree(feature=[2, -1, -1], threshold=[0.5, 0, 0],
                 left=[1, -1, -1], right=[2, -1, -1], value=[0, 0.2, 0.8])
    low = Tree(feature=[0, -1, -1], threshold=[0.5, 0, 0],
               left=[1, -1, -1], right=[2, -1, -1], value=[0, 0.1, 0.3])
    model = model_from_trees(np.array([0.25, 0.5]), [(0, low), (1, stump)], 0.5)
    message = r"^node_feature must be below the input width 2, got feature 2$"
    for predict, X in ((model.predict, np.zeros(2)), (model.predict_batch, np.zeros((3, 2))),
                       (model.predict_batch, np.zeros((0, 2)))):
        with pytest.raises(ValueError, match=message):
            predict(X)
    assert model.predict(np.ones(3)).tolist() == [0.25 + 0.15, 0.5 + 0.4]
    assert model.predict_batch(np.ones((2, 4))).tolist() == [[0.25 + 0.15, 0.5 + 0.4]] * 2


def test_step_tables_of_models_without_trees_or_splits():
    """A model without trees has one cell per output, its clipped base, and
    one without outputs predicts empty rows; an output without a tree keeps
    one cell, its clipped base, next to the cells of outputs with trees; a
    tree that is a lone leaf adds its value to every cell."""
    X = np.array([[0.0, 1.0], [np.nan, np.inf], [-0.0, -np.inf]])
    no_outputs = model_from_trees(np.zeros(0), [], 0.3)
    assert no_outputs.step_tables.cells == 0 and no_outputs.predict_batch(X).shape == (3, 0)
    empty = model_from_trees(np.array([-0.5, 0.25, 1.5]), [], 0.3)
    assert empty.step_tables.features == () and empty.step_tables.cells == 3
    assert empty.step_tables.values.tolist() == [0.0, 0.25, 1.0]
    assert [r.tolist() for r in empty.step_tables.rows] == [[[0, 1, 2]]]
    assert empty.predict_batch(X).tolist() == [[0.0, 0.25, 1.0]] * 3
    leaf = Tree(feature=[-1], threshold=[0.0], left=[-1], right=[-1], value=[0.5])
    stump = Tree(feature=[1, -1, -1], threshold=[0.5, 0, 0],
                 left=[1, -1, -1], right=[2, -1, -1], value=[0, 0.2, 0.8])
    trees = [(2, leaf), (0, stump), (2, leaf)]
    model = model_from_trees(np.array([0.125, -0.0, 0.25]), trees, 0.5)
    tables = model.step_tables
    assert tables.features == (1,) and tables.cuts[0].tolist() == [0.5]
    # output 2 (two trees) holds cell 0, output 0 (one tree) cells 1 and 2,
    # stepping by 1 at its threshold, and output 1 (no tree) cell 3
    assert tables.rows[0].tolist() == [[1, 3, 0], [2, 3, 0]]
    assert tables.cells == 2 + 1 + 1
    assert tables.values[tables.rows[0][0, 1]].tobytes() == np.float64(-0.0).tobytes()
    assert model.predict_batch(X).tobytes() == _reference_predict(model, trees, X).tobytes()
    only_leaves = model_from_trees(np.array([0.125]), [(0, leaf)] * 2, 0.5)
    assert only_leaves.step_tables.features == ()
    assert only_leaves.predict_batch(X).tolist() == [[0.125 + 0.25 + 0.25]] * 3


def test_rounds_are_added_in_fit_order():
    # one output and nine lone-leaf trees, one per round; numpy's pairwise
    # sum of these values gives 2.0, the sequential sum 0.25
    values = [1e16, 1.0, 1.0, -1e16, 0.25, 0.0, 0.0, 0.0, 0.0]
    trees = [(0, Tree(feature=[-1], threshold=[0.0], left=[-1], right=[-1], value=[v]))
             for v in values]
    model = model_from_trees(np.array([0.0]), trees, 1.0)
    expected = 0.0
    for v in values:
        expected += v
    assert expected == 0.25 and np.sum([0.0] + values) == 2.0
    assert model.predict(np.zeros(2)).tolist() == [expected]
    assert model.predict_batch(np.zeros((1, 2))).tolist() == [[expected]]
    assert model.predict_batch(np.zeros((3, 2))).tolist() == [[expected]] * 3


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
    config = TrainConfig(tree_count=10, max_depth=3, learning_rate=0.5, budget_parameters=1000)
    assert _layout_bytes(model) == _layout_bytes(train_cell_reference(X, Y, config))
    _assert_splits_as_row_form(model, train_histogram_reference(X, Y, config))
    probe = np.random.default_rng(11).uniform(0, 100, size=(25, 2))
    expected = _reference_predict(model, model.trees, probe)
    assert model.predict_batch(probe).tobytes() == expected.tobytes()
    path = str(tmp_path / "m.npz")
    save_model(model, path)
    assert load_model(path).predict_batch(probe).tobytes() == expected.tobytes()


# ------------------------------------------------ bins and node sums vs the references

# Row counts on both sides of the bin cap's bounds: 32 bins up to 131 rows,
# n // 4 from 132 rows and 256 from 1024 rows.
_ROW_COUNTS = st.sampled_from([1, 2, 7, 8, 33, 131, 132, 1027]) | st.integers(1, 300)
# What a tree's residuals hold: only -0.0, signed zeros, or values of mixed
# exponents around 1, 1e300 or 1e-300 (their squares overflow or
# underflow), with some signed zeros among them.
_NODE_KINDS = st.sampled_from(["-0.0", "+-0.0", 1.0, 1e300, 1e-300])


def _node_values(rng, n, kind):
    if kind == "-0.0":
        return np.full(n, -0.0)
    signed_zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    if kind == "+-0.0":
        return signed_zeros
    values = kind * rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-4, 5, n)
    return np.where(rng.random(n) < 0.1, signed_zeros, values)


def _column(rng, n, pool, distinct):
    """n values: about half from `pool`, the rest from `distinct` values
    spread over [-1, 1]."""
    spread = rng.choice(np.linspace(-1.0, 1.0, max(1, distinct)), n)
    return np.where(rng.random(n) < 0.5, rng.choice(pool, n), spread)


@settings(max_examples=150, deadline=None)
@given(_ROW_COUNTS, st.integers(1, 2000), st.integers(0, 2**32 - 1))
def test_bins_match_the_reference_bins(n, distinct, seed):
    """`_bins` gives every feature the reference's row bins and bin ends:
    a lane of 4 values, a constant column, and a coordinate with ties,
    signed zeros and 1-2000 other values, so that both one bin per value
    and quantile bins occur. Bins are numbered in value order, every bin
    holds a row, and a bin's ends hold its rows."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.choice([1.75, 5.25, 8.75, 12.25], n), np.full(n, 0.5),
                         _column(rng, n, [-0.0, 0.0, 0.5, float(np.nextafter(0.5, 1.0))],
                                 distinct)])
    cap = min(256, max(32, n // 4))
    for (b, lo, hi), (ref_b, ref_lo, ref_hi), x in zip(boosting._bins(X), histogram_bins(X), X.T):
        assert b.tolist() == ref_b.tolist()
        assert (lo.tobytes(), hi.tobytes()) == (ref_lo.tobytes(), ref_hi.tobytes())
        values = len(set(x.tolist()))
        assert len(lo) == values if values <= cap else len(lo) <= cap
        assert np.all(np.bincount(b, minlength=len(lo)) > 0)
        assert np.all(lo[b] <= x) and np.all(x <= hi[b]) and np.all(hi[:-1] < lo[1:])


@settings(max_examples=150, deadline=None)
@given(st.lists(_NODE_KINDS, min_size=1, max_size=6), _ROW_COUNTS, st.integers(0, 2**32 - 1),
       st.integers(1, 3))
def test_node_stats_equal_per_node_sums(kinds, n, seed, max_depth):
    """In a level fit on n cells of 1-7 rows each, every node's value is
    the sum of its cells' residual sums, added cell after cell from 0.0,
    over its row count, byte for byte, and every cell's leaf value is its
    leaf's value, signed zeros included: the bincounts over all entries add
    each node's residual sums in cell order. The cells of a node are those
    that reach it by `x <= threshold`."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.choice([1.75, 5.25, 8.75, 12.25], n), rng.uniform(20.0, 80.0, n)])
    residual = np.column_stack([_node_values(rng, n, kind) for kind in kinds])
    w = rng.integers(1, 8, n).astype(float)
    config = TrainConfig(max_depth=max_depth, min_samples_leaf=1)
    with np.errstate(over="ignore", invalid="ignore"):   # squares of values near 1e300 are inf
        nodes, sizes, _, leaf_value = boosting._fit_trees(boosting._bins(X), w, residual,
                                                          np.square(residual), config)
        expected = []
        ends = np.cumsum(sizes)
        for c in range(len(kinds)):
            tree = Tree(*(nodes[name][ends[c] - sizes[c]:ends[c]] for name in NODE_ARRAYS))
            stack = [(0, np.arange(n))]
            while stack:
                i, rows = stack.pop()
                mean = sequential_sum(residual[rows, c]) / sequential_sum(w[rows])
                expected.append((tree.value[i].tobytes(), np.float64(mean).tobytes()))
                if tree.feature[i] < 0:
                    expected.append((leaf_value[rows, c].tobytes(),
                                     np.full(len(rows), mean).tobytes()))
                else:
                    go_left = X[rows, tree.feature[i]] <= tree.threshold[i]
                    stack += [(tree.left[i], rows[go_left]), (tree.right[i], rows[~go_left])]
    assert all(got == want for got, want in expected)


# ------------------------------------------ round-at-once fit vs the per-tree trainers
# Residual pool: repeated values, signed zeros and order-sensitive sums.
_RESIDUALS = st.sampled_from([0.0, -0.0, 0.25, -0.5, 1.0]) | st.floats(-1.0, 1.0)
# Inputs with value ties, and three neighbouring floats: the midpoint of the
# first two rounds to the lower one, so that a row can sit exactly on a
# threshold, and that of the last two to the higher one, where the
# threshold falls back to the lower one.
_ONE_UP = float(np.nextafter(1.0, 2.0))
_FIT_GRID = st.sampled_from([0.0, 0.5, 1.0, _ONE_UP, float(np.nextafter(_ONE_UP, 2.0)), 1.5,
                             2.0, 3.0])


def _layout_bytes(model):
    return {key: (a.dtype.str, a.tobytes()) for key, a in model.layout.items()}


def _assert_splits_as_row_form(model, reference, tolerance=1e-14):
    """The fit on cells gives the row-form reference's trees node for node,
    thresholds included, and its base bit for bit; its leaf values add the
    rows in another grouping and lie within `tolerance` of the reference's."""
    for key in ("tree_outputs", "tree_sizes", "node_feature", "node_threshold", "node_left",
                "node_right"):
        assert np.array_equal(model.layout[key], reference.layout[key]), key
    assert np.allclose(model.layout["node_value"], reference.layout["node_value"], rtol=0.0,
                       atol=tolerance)
    assert model.base_prediction.tobytes() == reference.base_prediction.tobytes()


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
    reference = train_cell_reference(X, Y, config)
    assert _layout_bytes(model) == _layout_bytes(reference)
    assert model.base_prediction.tobytes() == reference.base_prediction.tobytes()
    assert model.predict_batch(X).tobytes() == reference.predict_batch(X).tobytes()


@st.composite
def _paper_shaped_sets(draw):
    """Training sets shaped like the paper's: 150-1200 rows, a lane column
    of 4 values and a continuous coordinate along the road, so that the
    coordinate gets quantile bins, and 1-20 smooth outputs in [0, 1] with
    noise; the budget holds about 1-4 trees per output."""
    n, d = draw(st.integers(150, 1200)), draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.column_stack([rng.choice([1.75, 5.25, 8.75, 12.25], n), rng.uniform(20.0, 80.0, n)])
    phase = rng.uniform(0.0, 2 * np.pi, d)
    Y = 0.5 + 0.3 * np.sin(X[:, 1:] / rng.uniform(2.0, 20.0, d) + phase) * (X[:, :1] / 12.25)
    Y = np.clip(Y + rng.normal(0.0, 0.05, (n, d)), 0.0, 1.0)
    config = TrainConfig(tree_count=draw(st.integers(1, 3)), max_depth=draw(st.integers(3, 4)),
                         learning_rate=draw(st.sampled_from([0.3, 0.5])),
                         min_samples_leaf=draw(st.integers(1, 3)),
                         budget_parameters=d * draw(st.integers(25, 90)))
    return X, Y, config


@settings(max_examples=150, deadline=None)
@given(_paper_shaped_sets(), st.sampled_from([37, boosting._CHUNK_CELLS]))
def test_paper_shaped_fit_matches_per_tree_reference(data, chunk_cells):
    X, Y, config = data
    with mock.patch.object(boosting, "_CHUNK_CELLS", chunk_cells):
        model = train(X, Y, config)
    reference = train_cell_reference(X, Y, config)
    assert _layout_bytes(model) == _layout_bytes(reference)
    assert model.base_prediction.tobytes() == reference.base_prediction.tobytes()
    _assert_splits_as_row_form(model, train_histogram_reference(X, Y, config))


@st.composite
def _celled_sets(draw):
    """Training sets of many rows per bin cell: 2-200 rows on 1-4 lanes and
    1-8 coordinates, with 1-12 outputs of continuous targets in [0, 1], read
    at `rows` of a target array of up to 50 rows more. The learning rate
    stays below 1: a rate of 1 zeroes each leaf's residual sum exactly, so
    that later splits of its rows tie exactly, and the cell and row forms
    round those ties apart (the cell reference holds the fit at 1)."""
    n, d = draw(st.integers(2, 200)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lanes = rng.choice([1.75, 5.25, 8.75, 12.25], draw(st.integers(1, 4)), replace=False)
    X = np.column_stack([rng.choice(lanes, n),
                         rng.choice(rng.uniform(20.0, 80.0, draw(st.integers(1, 8))), n)])
    Y = rng.uniform(size=(n + draw(st.integers(0, 50)), d))
    rows = rng.permutation(len(Y))[:n]
    config = TrainConfig(tree_count=draw(st.integers(1, 5)), max_depth=draw(st.integers(1, 4)),
                         learning_rate=draw(st.sampled_from([0.3, 0.5]) | st.floats(0.05, 0.9)),
                         min_samples_leaf=draw(st.integers(1, 3)),
                         budget_parameters=d + draw(st.integers(0, 40 * d)))
    return X, Y, rows, config


@settings(max_examples=draws(150), deadline=None)
@given(_celled_sets())
def test_cell_fit_splits_as_the_row_form_reference(data):
    """Where many rows share each cell, the fit on cells gives the trees of
    the row-by-row histogram trainer node for node, with leaf values within
    1e-12, although it adds each node's rows by cells."""
    X, Y, rows, config = data
    _assert_splits_as_row_form(train(X, Y[rows], config),
                               train_histogram_reference(X, Y[rows], config), 1e-12)


@settings(max_examples=draws(150), deadline=None)
@given(_celled_sets())
def test_train_on_rows_equals_train_on_their_copy(data):
    """`train(X, Y, config, rows=r)` reads the targets at r in place and
    gives `train(X, Y[r], config)` bit for bit, base included."""
    X, Y, rows, config = data
    model, copied = train(X, Y, config, rows=rows), train(X, Y[rows], config)
    assert _layout_bytes(model) == _layout_bytes(copied)
    assert model.base_prediction.tobytes() == copied.base_prediction.tobytes()


@st.composite
def _located_sets(draw):
    """2-60 rows at distinct locations of 1-3 columns, every column but the
    last drawn from 1-3 values, so that rows often tie on all of them, 1-4
    outputs of continuous targets, and a permutation of the rows."""
    n, width, d = draw(st.integers(2, 60)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.column_stack([*(rng.choice(rng.uniform(0.0, 100.0, draw(st.integers(1, 3))), n)
                           for _ in range(width - 1)), rng.permutation(n) * 2.5])
    config = TrainConfig(tree_count=draw(st.integers(1, 4)), max_depth=draw(st.integers(1, 3)),
                         min_samples_leaf=draw(st.integers(1, 3)),
                         budget_parameters=d + draw(st.integers(0, 40 * d)))
    return X, rng.uniform(size=(n, d)), rng.permutation(n), config


@settings(max_examples=draws(100), deadline=None)
@given(_located_sets())
def test_fit_does_not_depend_on_row_order_for_any_location_width(data):
    """`train` sorts the rows on every location column, so permuting rows
    at distinct locations leaves the layout and the base bit for bit (the
    sort read two columns: one column raised IndexError, and rows tied on
    those two were fitted in input order)."""
    X, Y, perm, config = data
    model, permuted = train(X, Y, config), train(X[perm], Y[perm], config)
    assert _layout_bytes(model) == _layout_bytes(permuted)
    assert model.base_prediction.tobytes() == permuted.base_prediction.tobytes()


@settings(max_examples=draws(60), deadline=None)
@given(_celled_sets(), st.data())
def test_train_checks_the_targets_at_its_rows_as_it_reads_them(data, pick):
    """Read in blocks of a few columns, a non-finite target at any row of
    `rows`, in any column, is rejected before any tree is fitted, and one
    in a row outside `rows` leaves the model unchanged."""
    X, Y, rows, config = data
    row, column = pick.draw(st.integers(0, len(Y) - 1)), pick.draw(st.integers(0, Y.shape[1] - 1))
    with mock.patch.object(boosting, "_CHUNK_CELLS", pick.draw(st.sampled_from([1, 37, 400]))):
        clean = train(X, Y, config, rows=rows)
        Y[row, column] = pick.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        if row in rows:
            with mock.patch.object(boosting, "_fit_trees",
                                   side_effect=AssertionError("_fit_trees ran")), \
                    pytest.raises(ValueError, match="^Y holds a non-finite value$"):
                train(X, Y, config, rows=rows)
        else:
            model = train(X, Y, config, rows=rows)
            assert _layout_bytes(model) == _layout_bytes(clean)
            assert model.base_prediction.tobytes() == clean.base_prediction.tobytes()


def test_an_output_of_constant_targets_gets_no_tree_and_spends_no_budget():
    """In one block beside outputs that split, an output whose targets are
    all 0.7 gets no tree and spends no parameter past its base: its
    residuals, 0.7 less the mean of 60 of them, are about 4e-16, and a split
    of residuals below 1e-12 gains less than the 1e-12 split floor, so no
    fit needs to skip it. The other outputs get the trees that they get
    without it, bit for bit, also where the budget stops the fit partway
    through a round."""
    X, Y = _grid_data(n=60, d=6, seed=13)
    config = TrainConfig(tree_count=10, max_depth=3, learning_rate=0.5, budget_parameters=300)
    alone = train(X, Y, config)
    blocks, fit = [], boosting._fit_trees

    def counting(bins, w, S, Q, config):
        blocks.append(S.shape[1])
        return fit(bins, w, S, Q, config)

    with mock.patch.object(boosting, "_fit_trees", counting):
        model = train(X, np.insert(Y, 3, 0.7, axis=1), replace(config, budget_parameters=301))
    assert blocks == [7, 7, 7]     # three rounds, all seven outputs in one block
    assert 0 < abs(0.7 - model.base_prediction[3]) < 1e-12
    outputs = alone.layout["tree_outputs"]
    assert Counter(outputs.tolist()) == {0: 3, 1: 2, 2: 2, 3: 2, 4: 2, 5: 2}
    assert model.layout["tree_outputs"].tolist() == (outputs + (outputs >= 3)).tolist()
    for key in list(boosting._LAYOUT)[1:]:
        assert model.layout[key].tobytes() == alone.layout[key].tobytes()
    assert param_count(model) == param_count(alone) + 1


def test_cell_tables_hold_each_rounds_residual_sums_and_squares():
    """The S and Q that each round's fit reads are, cell by cell, the sums
    of the rows' residuals after the trees of the rounds before, and of
    their squares, to within rounding: each kept tree's step updates them
    in place of per-row residuals. 90 rows on 4 lanes and 11 coordinates
    share 37 cells; all 3 outputs fit in one block, one call per round."""
    X, Y = _grid_data(n=90, d=3, seed=14)
    X = np.column_stack([np.array([1.75, 5.25, 8.75, 12.25])[np.arange(90) % 4],
                         np.round(X[:, 1] / 10.0) * 10.0])
    config = TrainConfig(tree_count=4, max_depth=2, learning_rate=0.5, budget_parameters=10**4)
    seen, fit = [], boosting._fit_trees

    def recording(bins, w, S, Q, config):
        seen.append((S.copy(), Q.copy()))
        return fit(bins, w, S, Q, config)

    with mock.patch.object(boosting, "_fit_trees", recording):
        model = train(X, Y, config)
    sort = np.lexsort(X.T[::-1])
    cell, w, _ = boosting._bin_cells(boosting._bins(X[sort]))
    residual = Y[sort] - model.base_prediction
    rounds = Counter()
    trees = [(dim, rounds.update([dim]) or rounds[dim], tree) for dim, tree in model.trees]
    assert len(seen) == 4 and len(model.trees) == 4 * 3 and len(w) == 37
    for r, (S, Q) in enumerate(seen, start=1):
        for table, values in ((S, residual), (Q, np.square(residual))):
            sums = np.column_stack([np.bincount(cell, weights=v) for v in values.T])
            assert np.allclose(table, sums, rtol=0.0, atol=1e-12)
        for dim, tree_round, tree in trees:
            if tree_round == r:
                residual[:, dim] -= config.learning_rate * tree_predict(tree, X[sort])


def test_fit_logs_its_rows_cells_and_block_width(caplog):
    """Each fit logs at debug level its row count, its occupied bin cells
    and the outputs it fits at once: 100 rows on 2 lanes and 5 coordinates
    lie in 10 cells, and all 3 outputs fit in one block."""
    X = np.column_stack([np.repeat([1.75, 5.25], 50), np.tile(np.arange(5.0), 20)])
    Y = np.column_stack([np.sin(X[:, 1] + k) for k in range(3)])
    with caplog.at_level(logging.DEBUG, logger="beamtrain.boosting"):
        train(X, Y, TrainConfig(tree_count=2))
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("DEBUG", "fit: 100 rows in 10 cells, 3 outputs per block")]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 600), st.integers(1, 2000), st.integers(1, 4), st.integers(1, 8),
       st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_best_splits_match_per_node_reference(n, distinct, trees, per_tree, seed, min_leaf):
    """One level's `_best_splits` gives every node the (score, feature,
    threshold) of the per-node histogram search, byte for byte: 1-8 nodes
    per tree over the interleaved entries of 1-4 trees, each node's cells
    scattered over the fit's cells, each cell of 1-7 rows, a lane column of
    4 values, a coordinate with ties, signed zeros and neighbouring floats,
    and residual sums with ties and signed zeros."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.choice([1.75, 5.25, 8.75, 12.25], n),
                         _column(rng, n, [-0.0, 0.0, 0.5, 1.0, _ONE_UP,
                                          float(np.nextafter(_ONE_UP, 2.0))], distinct)])
    residual = np.column_stack([_column(rng, n, [-0.0, 0.0, 0.25, -0.5], 2000)
                                for _ in range(trees)])
    w = rng.integers(1, 8, n).astype(float)
    # node k belongs to tree k % trees
    node = rng.integers(0, per_tree, (n, trees)) * trees + np.arange(trees)
    m = trees * per_tree
    bins = boosting._bins(X)
    score, feature, _, threshold, _ = boosting._best_splits(
        bins, node, residual.ravel(), np.repeat(w, trees), m, min_leaf)
    for k in range(m):
        rows = np.flatnonzero(node[:, k % trees] == k)
        expected = _histogram_split(histogram_bins(X), residual[:, k % trees], rows, min_leaf, w)
        if expected is None:
            assert feature[k] == -1
        else:
            assert (feature[k], threshold[k].tobytes(), score[k].tobytes()) == (
                expected[0], np.float64(expected[1]).tobytes(), np.float64(expected[2]).tobytes())


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(float, st.tuples(st.integers(1, 40), st.just(2)), elements=_FIT_GRID),
       st.data(), st.integers(1, 4), st.integers(1, 3))
def test_level_fit_matches_per_tree_reference(X, data, max_depth, min_leaf):
    """Every tree and every cell's leaf value (the step of the next round)
    equal the recursive per-tree histogram fit on the same cells, also for
    unsorted cells: cells of 1-7 rows, each with a residual sum and a sum
    of squares."""
    columns = data.draw(st.integers(1, 12))
    residual = data.draw(hnp.arrays(float, (len(X), columns), elements=_RESIDUALS))
    residual[:, data.draw(hnp.arrays(bool, columns))] = 0.0
    w = data.draw(hnp.arrays(float, len(X), elements=st.sampled_from([1.0, 2.0, 3.0, 7.0])))
    squares = np.square(residual) / w[:, None] + data.draw(
        hnp.arrays(float, (len(X), columns), elements=st.sampled_from([0.0, 0.25, 1.0])))
    config = TrainConfig(max_depth=max_depth, min_samples_leaf=min_leaf)
    nodes, sizes, internal, leaf_value = boosting._fit_trees(boosting._bins(X), w, residual,
                                                             squares, config)
    ends = np.cumsum(sizes)
    assert ends[-1] == len(nodes["feature"])
    for c in range(columns):
        tree, leaf_of_cell = fit_histogram_tree(X, histogram_bins(X), residual[:, c], config, w,
                                               squares[:, c])
        for name in ("feature", "threshold", "left", "right", "value"):
            got = nodes[name][ends[c] - sizes[c]:ends[c]]
            assert (got.dtype, got.tobytes()) == (getattr(tree, name).dtype,
                                                  getattr(tree, name).tobytes())
        assert internal[c] == internal_count(tree)
        assert leaf_value[:, c].tobytes() == tree.value[leaf_of_cell].tobytes()


def test_best_splits_give_no_split_where_the_sse_overflows():
    """Residuals of +-1e200 square to inf, so the root's sse is inf and no
    split can lower it by more than the gain rule's 1e-12 * sse: the fit
    and the per-tree histogram reference both leave the root a leaf, and
    neither raises."""
    X = np.column_stack([[1.75, 1.75, 5.25, 5.25, 8.75, 8.75], np.arange(6.0)])
    residual = np.array([1e200, -1e200] * 3)
    config = TrainConfig(min_samples_leaf=1)
    with np.errstate(over="ignore", invalid="ignore"):
        nodes, sizes, internal, _ = boosting._fit_trees(boosting._bins(X), np.ones(6),
                                                         residual[:, None],
                                                         np.square(residual)[:, None], config)
        tree, _ = fit_histogram_tree(X, histogram_bins(X), residual, config)
    assert (sizes.tolist(), internal.tolist(), nodes["feature"].tolist()) == ([1], [0], [-1])
    assert tree.feature.tolist() == [-1]


def test_thresholds_of_extreme_values_split_rows_as_their_bins():
    """The midpoint of -1.7e308 and -1e308 is -1.35e308, not the -inf that
    their sum overflows to, so every training cell's in-sample leaf value
    (from the bins) is the value `tree_predict` reaches (by thresholds)."""
    X = np.column_stack([np.zeros(4), [-1.7e308, -1e308, 1e308, 1.7e308]])
    residual = np.array([[1.0], [0.0], [0.5], [0.25]])
    config = TrainConfig(max_depth=2, min_samples_leaf=1)
    nodes, _, _, leaf_value = boosting._fit_trees(boosting._bins(X), np.ones(4), residual,
                                                  np.square(residual), config)
    tree = Tree(*(nodes[name] for name in NODE_ARRAYS))
    assert np.all(np.isfinite(tree.threshold))
    assert -1.7e308 <= tree.threshold[0] < -1e308
    assert leaf_value[:, 0].tolist() == tree_predict(tree, X).tolist()
    reference, _ = fit_histogram_tree(X, histogram_bins(X), residual[:, 0], config)
    assert tree.threshold.tobytes() == reference.threshold.tobytes()


# ------------------------------------------ histogram fit vs the exact split search

def test_fit_gives_the_exact_search_where_bins_are_values():
    """Where no feature has more distinct values than bins (at most
    min(256, n // 4)), every bin is one value, so the histogram search
    sees every split the exact search sees: a 3000-row, 16-output,
    20-round fit splits on the exact per-tree trainer's features at its
    thresholds, and its predictions agree to 1e-12. Only the order of the
    sums differs."""
    rng = np.random.default_rng(12)
    n, d = 3000, 16
    X = np.column_stack([rng.choice([1.75, 5.25, 8.75, 12.25], n),
                         20.0 + 0.25 * rng.integers(0, 240, n)])
    phase = rng.uniform(0.0, 2 * np.pi, d)
    Y = np.clip(0.5 + 0.3 * np.sin(X[:, 1:] / rng.uniform(2.0, 20.0, d) + phase)
                + rng.normal(0.0, 0.05, (n, d)), 0.0, 1.0)
    config = TrainConfig(tree_count=20, max_depth=3, learning_rate=0.5, budget_parameters=10**6)
    model, exact = train(X, Y, config), train_reference(X, Y, config)
    assert [len(b[1]) for b in boosting._bins(X)] == [4, 240]
    assert len(model.trees) == len(exact.trees) == 20 * d
    for key in ("tree_outputs", "tree_sizes", "node_feature", "node_threshold", "node_left",
                "node_right"):
        assert np.array_equal(model.layout[key], exact.layout[key])
    assert np.allclose(model.predict_batch(X), exact.predict_batch(X), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 8))
def test_constant_column_and_few_rows_fit(n):
    """A constant column is one bin and gives no split; it raises no error
    at any row count, and with 1-7 rows the fit is the exact search's."""
    X = np.column_stack([np.full(n, 3.0), np.arange(n, dtype=float)])
    Y = (np.arange(n)[:, None] % np.array([2, 3]) == 0).astype(float)
    config = TrainConfig(tree_count=3, max_depth=2, learning_rate=1.0, min_samples_leaf=1,
                         budget_parameters=1000)
    model = train(X, Y, config)
    assert not np.any(model.layout["node_feature"] == 0)
    assert _layout_bytes(model) == _layout_bytes(train_cell_reference(X, Y, config))
    _assert_splits_as_row_form(model, train_histogram_reference(X, Y, config))
    exact = train_reference(X, Y, config)
    for key in ("tree_outputs", "node_feature", "node_threshold"):
        assert np.array_equal(model.layout[key], exact.layout[key])
    assert (len(model.trees) > 0) == (n > 1)
