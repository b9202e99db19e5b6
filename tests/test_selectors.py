import logging
import os
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import beamtrain
from beamtrain.fileio import load_npz
from beamtrain.harness import decoupled_split
from beamtrain.selectors import (PLAN_FORMAT_VERSION, PLAN_SCHEMA, BeamPairSet, DecoupledSets,
                                 distinct_row_count, kmeans, overhead_bits, save_plan,
                                 select_bs_coverage, select_coupled,
                                 select_decoupled_no_location, select_decoupled_with_location,
                                 top_k_stable)
from conftest import draws
from reference_selectors import kmeans_reference, select_bs_coverage_reference


class _Const:
    """Predictor returning a fixed vector regardless of location."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def predict(self, location):
        return self.values


def test_top_k_stable_matches_sort_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        scores = rng.uniform(0, 1, size=32)
        k = int(rng.integers(1, 32))
        got = top_k_stable(scores, k)
        expected = sorted(range(32), key=lambda j: (-scores[j], j))[:k]
        assert list(got) == expected


def test_top_k_ties_go_to_lower_index():
    assert list(top_k_stable(np.array([0.5, 0.9, 0.9, 0.1]), 2)) == [1, 2]
    assert list(top_k_stable(np.zeros(5), 3)) == [0, 1, 2]


def test_select_coupled_top_pairs_and_nesting():
    scores = np.array([0.1, 0.9, 0.3, 0.9, 0.2, 0.8])
    model = _Const(scores)
    small = select_coupled(model, (0, 0), 2, num_beamformers=3)
    large = select_coupled(model, (0, 0), 4, num_beamformers=3)
    assert list(small.flat_indices) == [1, 3]
    assert set(small.flat_indices) <= set(large.flat_indices)
    with pytest.raises(ValueError):
        select_coupled(model, (0, 0), 7, 3)


def test_selection_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    scores = rng.uniform(0, 1, size=24)
    a = select_coupled(_Const(scores), (0, 0), 6, 4)
    b = select_coupled(_Const(scores ** 3 + 2.0), (0, 0), 6, 4)
    assert np.array_equal(a.flat_indices, b.flat_indices)


def test_overhead_bits():
    assert overhead_bits(1, 10, 16) == 40.0
    assert overhead_bits(1, 1, 16) == 4.0
    assert overhead_bits(2, 10, 16) == 0.0
    assert overhead_bits(3, 128, 16) == 0.0
    with pytest.raises(ValueError):
        overhead_bits(1, 10, 12)  # not a power of two
    with pytest.raises(ValueError):
        overhead_bits(4, 10, 16)


def test_decoupled_with_location_orders_and_sizes():
    model_f = _Const([0.2, 0.8, 0.5, 0.9])
    model_w = _Const([0.4, 0.1])
    sets = select_decoupled_with_location(model_f, model_w, (0, 0), num_w=2, num_f=3)
    assert list(sets.s_w) == [0, 1]
    assert list(sets.s_f) == [3, 1, 2]
    with pytest.raises(ValueError):
        select_decoupled_with_location(model_f, model_w, (0, 0), num_w=3, num_f=2)


def test_kmeans_single_cluster_is_mean():
    X = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 6.0]])
    centroids, assignments = kmeans(X, 1, seed=0)
    assert np.allclose(centroids[0], X.mean(axis=0))
    assert np.all(assignments == 0)


def test_kmeans_logs_its_iterations(caplog):
    X = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 6.0], [5.0, 6.0]])
    with caplog.at_level(logging.INFO, logger="beamtrain.selectors"):
        kmeans(X, 1, seed=0)
        kmeans(X, 2, seed=0)
    messages = [r.getMessage() for r in caplog.records]
    # one cluster: the first iteration assigns every point, the second finds
    # the fixpoint
    assert messages[0] == "kmeans: 1 clusters, 2 Lloyd iterations"
    assert messages[1].startswith("kmeans: 2 clusters, ")


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(2)
    blobs = [rng.normal(c, 0.3, size=(30, 2)) for c in ((0, 0), (50, 0), (0, 50))]
    X = np.vstack(blobs)
    centroids, assignments = kmeans(X, 3, seed=1)
    # every blob maps to exactly one cluster
    labels = [set(assignments[i * 30:(i + 1) * 30]) for i in range(3)]
    assert all(len(s) == 1 for s in labels)
    assert len(set.union(*labels)) == 3
    for blob in blobs:
        mean = blob.mean(axis=0)
        assert min(np.linalg.norm(centroids - mean, axis=1)) < 0.5


def test_kmeans_deterministic_and_validates():
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 10, size=(40, 2))
    a = kmeans(X, 4, seed=7)
    b = kmeans(X, 4, seed=7)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    with pytest.raises(ValueError):
        kmeans(np.zeros((5, 2)), 2)  # only one distinct point


# ten rows on repeated locations whose first cluster of three empties in the
# second Lloyd iteration (test_kmeans_example_reseeds_an_empty_cluster)
_RESEEDING_ROWS = [[5, 7], [1, 7], [8, 1], [5, 7], [9, 1], [8, 1], [9, 2], [5, 1], [7, 8], [8, 1]]


# coordinates whose sums round, so that another summation order would show
_COORDINATES = st.integers(0, 9) | st.integers(-10 ** 4, 10 ** 4).map(lambda v: v / 7)


@settings(max_examples=draws(300), deadline=None)
@given(locations=st.lists(st.tuples(_COORDINATES, _COORDINATES), min_size=1,
                          max_size=12).flatmap(
           lambda points: st.lists(st.sampled_from(points), min_size=1, max_size=60)),
       clusters=st.integers(1, 8), seed=st.integers(0, 2 ** 16))
@example(locations=_RESEEDING_ROWS, clusters=3, seed=5)
def test_kmeans_matches_per_cluster_reference(locations, clusters, seed):
    """`kmeans` equals the per-cluster masked-mean reference bit for bit,
    on repeated locations and on more clusters than natural groups."""
    X = np.array(locations, dtype=float)
    clusters = min(clusters, distinct_row_count(X))
    centroids, assignments = kmeans(X, clusters, seed=seed)
    want_centroids, want_assignments = kmeans_reference(X, clusters, seed=seed)
    assert centroids.tobytes() == want_centroids.tobytes()
    assert assignments.tolist() == want_assignments.tolist()


def test_kmeans_example_reseeds_an_empty_cluster():
    reseeded = []
    kmeans_reference(np.array(_RESEEDING_ROWS, dtype=float), 3, seed=5, reseeded=reseeded)
    assert reseeded == [(2, 0)]


def test_kmeans_rejects_locations_not_of_two_columns():
    for X in (np.arange(6.0), np.zeros((6, 1)), np.zeros((6, 3))):
        with pytest.raises(ValueError, match="locations must be"):
            kmeans(X, 1)


def test_distinct_row_count_matches_unique_rows():
    rng = np.random.default_rng(9)
    for n in (1, 2, 7, 60):
        X = rng.integers(0, 3, size=(n, 2)).astype(float)  # repeated rows
        X[rng.random(n) < 0.2, 1] = -0.0
        assert distinct_row_count(X) == len(np.unique(X, axis=0))
    assert distinct_row_count(np.zeros((0, 2))) == 0
    assert distinct_row_count(np.zeros((5, 2))) == 1


def test_plan_leaves_numpy_ma_unloaded():
    # np.unique(..., axis=0) imports numpy.ma, about 1.5 MB of RSS; numpy 1.x
    # imports it with numpy itself, so the test checks only that the call adds no import
    code = ("import sys, types; import numpy as np\n"
            "before = 'numpy.ma' in sys.modules\n"
            "from beamtrain.harness import ExperimentConfig, build_coverage_plan\n"
            "rng = np.random.default_rng(0)\n"
            "split = types.SimpleNamespace(train_rows=np.arange(60))\n"
            "build_coverage_plan(ExperimentConfig(cluster_count=4), rng.integers(0, 9, (80, 2)),\n"
            "                    rng.random((80, 64)), split)\n"
            "print('numpy.ma' in sys.modules and not before)")
    src = os.path.dirname(os.path.dirname(beamtrain.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "False"


def _one_cluster_table(rows):
    """The k-th-best table of a one-cluster plan over `rows`: [k-1, j] is
    the share of the rows that rank beam j k-th."""
    return select_bs_coverage(np.zeros((len(rows), 2)), rows, num_clusters=1,
                              n_bs=rows.shape[1]).prob_tables[0]


def test_kth_best_table_worked_example():
    # two rows; beam 2 is best in both, second best splits between 0 and 1
    rows = np.array([[0.5, 0.2, 0.9], [0.1, 0.6, 0.8]])
    table = _one_cluster_table(rows)
    assert np.allclose(table, [[0.0, 0.0, 1.0], [0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])


def test_kth_best_table_ranking_ties_to_lower_index():
    rows = np.array([[0.7, 0.7, 0.1]])
    assert np.allclose(_one_cluster_table(rows), np.eye(3))


def test_coverage_plan_rejects_an_empty_cluster(monkeypatch):
    """A clustering that leaves a cluster without rows gives it no k-th-best
    table: the plan raises, and `harness.build_coverage_plan` reports it
    under the cluster count."""
    monkeypatch.setattr("beamtrain.selectors.kmeans",
                        lambda X, num_clusters, seed=0: (np.zeros((num_clusters, 2)),
                                                         np.array([0, 0, 2])))
    with pytest.raises(ValueError, match="^empty cluster$"):
        select_bs_coverage(np.arange(6.0).reshape(3, 2), np.eye(3), num_clusters=3, n_bs=2)


def test_coverage_worked_example_two_clusters():
    # cluster A (3 rows, weight 0.75) always ranks beam 3 first;
    # cluster B (1 row, weight 0.25) ranks beam 9 first.
    locations = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [100.0, 100.0]])
    rows = np.zeros((4, 12))
    rows[:3, 3] = 1.0
    rows[:3, 5] = 0.5
    rows[3, 9] = 1.0
    rows[3, 1] = 0.5
    plan = select_bs_coverage(locations, rows, num_clusters=2, n_bs=2, seed=0)
    assert list(plan.selected_beams) == [3, 9]
    assert np.isclose(plan.significances.sum(), 1.0)
    assert sorted(plan.significances) == [0.25, 0.75]


def test_coverage_prefix_consistency_and_full_exhaustion():
    rng = np.random.default_rng(4)
    locations = rng.uniform(0, 100, size=(60, 2))
    rows = rng.uniform(0, 1, size=(60, 16))
    full = select_bs_coverage(locations, rows, num_clusters=4, n_bs=16, seed=2)
    assert sorted(full.selected_beams) == list(range(16))
    for n in (1, 3, 8):
        partial = select_bs_coverage(locations, rows, num_clusters=4, n_bs=n, seed=2)
        assert np.array_equal(partial.selected_beams, full.selected_beams[:n])
        assert np.array_equal(full.prefix(n).selected_beams, full.selected_beams[:n])
    with pytest.raises(ValueError):
        full.prefix(17)
    with pytest.raises(ValueError):
        select_bs_coverage(locations, rows, num_clusters=4, n_bs=17)


@pytest.mark.parametrize("rank_cells", [1, 37, 16 * 60])
def test_coverage_plan_ranked_in_blocks_is_the_one_block_plan(rank_cells):
    """Ranking the rows a block at a time, one row or a few, changes no
    byte of the plan."""
    rng = np.random.default_rng(9)
    locations = rng.uniform(0, 100, size=(150, 2))
    rows = rng.integers(0, 4, size=(150, 16)) / 4.0        # many ties
    whole = select_bs_coverage(locations, rows, num_clusters=5, n_bs=16, seed=3)
    with mock.patch.object(beamtrain.selectors, "_RANK_CELLS", rank_cells):
        blocks = select_bs_coverage(locations, rows, num_clusters=5, n_bs=16, seed=3)
    for key in PLAN_SCHEMA:
        assert getattr(blocks, key).tobytes() == getattr(whole, key).tobytes()


def test_no_location_selection_ignores_ue_position():
    rng = np.random.default_rng(5)
    locations = rng.uniform(0, 100, size=(30, 2))
    rows = rng.uniform(0, 1, size=(30, 8))
    plan = select_bs_coverage(locations, rows, num_clusters=3, n_bs=4, seed=1)
    model_w = _Const([0.3, 0.9, 0.1, 0.5])
    a = select_decoupled_no_location(model_w, (10.0, 20.0), 2, plan)
    b = select_decoupled_no_location(model_w, (90.0, 150.0), 2, plan)
    assert np.array_equal(a.s_f, plan.selected_beams)
    assert np.array_equal(a.s_f, b.s_f)
    assert list(a.s_w) == [1, 3]


def test_negative_set_sizes_raise_naming_the_argument():
    """A negative set size would cut a ranking from its end: k = -1 of 1024
    scores would keep 1023 of them, and a plan's prefix(-1) would drop its
    last beam. Every selector rejects it with a ValueError that names the
    argument, before it predicts; a size of 0 stays legal and selects
    nothing."""
    rng = np.random.default_rng(7)
    scores = rng.uniform(0, 1, size=1024)
    for case in (scores, scores[:16], np.stack([scores] * 3)):
        with pytest.raises(ValueError, match=r"^k must be at least 0, got -1$"):
            top_k_stable(case, -1)
        assert top_k_stable(case, 0).shape == case.shape[:-1] + (0,)
    pairs, model_f, model_w = _Const(scores), _Const(scores[:64]), _Const(scores[:16])
    with pytest.raises(ValueError, match=r"^n_pairs must be at least 0, got -1$"):
        select_coupled(pairs, (0, 0), -1, 64)
    assert len(select_coupled(pairs, (0, 0), 0, 64).flat_indices) == 0
    for num_w, num_f, name in ((-3, 4, "num_w"), (4, -1, "num_f")):
        with pytest.raises(ValueError, match=rf"^{name} must be at least 0, got -\d$"):
            select_decoupled_with_location(model_f, model_w, (0, 0), num_w, num_f)
    sets = select_decoupled_with_location(model_f, model_w, (0, 0), 0, 0)
    assert len(sets.s_w) == len(sets.s_f) == 0
    locations = rng.uniform(0, 100, size=(30, 2))
    plan = select_bs_coverage(locations, rng.uniform(0, 1, size=(30, 8)), 3, n_bs=8, seed=1)
    with pytest.raises(ValueError, match=r"^n_bs must be at least 0, got -1$"):
        plan.prefix(-1)
    with pytest.raises(ValueError, match=r"^n_bs must be at least 0, got -1$"):
        select_bs_coverage(locations, rng.uniform(0, 1, size=(30, 8)), 3, n_bs=-1, seed=1)
    with pytest.raises(ValueError, match=r"^num_w must be at least 0, got -2$"):
        select_decoupled_no_location(model_w, (0, 0), -2, plan)
    assert len(plan.prefix(0).selected_beams) == 0
    assert len(select_decoupled_no_location(model_w, (0, 0), 0, plan).s_w) == 0


def test_plan_prefix_keeps_the_plans_arrays():
    """A prefix shares every array of its plan but the cut beam list."""
    rng = np.random.default_rng(8)
    plan = select_bs_coverage(rng.uniform(0, 100, size=(30, 2)), rng.uniform(0, 1, size=(30, 8)),
                              3, n_bs=8, seed=1)
    cut = plan.prefix(5)
    for key in ("centroids", "assignments", "significances", "prob_tables"):
        assert getattr(cut, key) is getattr(plan, key)
    assert cut.selected_beams.tolist() == plan.selected_beams[:5].tolist()


def _load_plan(path):
    """A plan file read against its schema; no command reads one."""
    return load_npz(path, "plan", PLAN_FORMAT_VERSION, PLAN_SCHEMA)


def test_plan_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    locations = rng.uniform(0, 100, size=(40, 2))
    rows = rng.uniform(0, 1, size=(40, 8))
    plan = select_bs_coverage(locations, rows, num_clusters=3, n_bs=8, seed=3)
    path = str(tmp_path / "plan.npz")
    save_plan(plan, path)
    loaded, _ = _load_plan(path)
    assert np.array_equal(loaded["selected_beams"], plan.selected_beams)
    assert np.allclose(loaded["prob_tables"], plan.prob_tables)
    assert np.allclose(loaded["significances"], plan.significances)
    with open(path + ".csv") as fh:
        assert fh.readline().strip() == "selection_order,beam_index"
    bad = tmp_path / "bad.npz"
    for content in (b"nope", b"PK\x03\x04" + bytes(36)):  # the second looks like a cut npz
        bad.write_bytes(content)
        with pytest.raises(ValueError):
            _load_plan(str(bad))


def _plan_arrays(**changes):
    """A valid one-cluster, two-beam plan archive, with `changes` applied."""
    arrays = dict(format_version=np.array([1]), centroids=np.array([[1.0, 2.0]]),
                  assignments=np.array([0, 0, 0]), significances=np.array([1.0]),
                  prob_tables=np.array([[[0.5, 0.5], [0.5, 0.5]]]),
                  selected_beams=np.array([1, 0]))
    arrays.update({key: np.array(value) for key, value in changes.items()})
    return arrays


# the explicit ids keep each case's name from when this list also held the
# range and distinct checks of a plan loader that no longer exists
@pytest.mark.parametrize("key, value", [
    pytest.param("selected_beams", [0.0, 1.0], id="selected_beams-value3"),  # not beam indices
    pytest.param("prob_tables", [[0.5, 0.5]], id="prob_tables-value4"),      # not (C, B, B)
    pytest.param("prob_tables", np.zeros((1, 2, 3)), id="prob_tables-value5"),
    pytest.param("centroids", [[1.0, 2.0, 3.0]], id="centroids-value6"),
    # two centroids for one cluster
    pytest.param("centroids", [[1.0, 2.0], [3.0, 4.0]], id="centroids-value7"),
    pytest.param("significances", [0.5, 0.5], id="significances-value8"),
    pytest.param("assignments", [[0, 0]], id="assignments-value10"),
])
def test_load_plan_rejects_inconsistent_arrays(tmp_path, key, value):
    """A plan file read against its schema: a failure names the file and
    the key, or the key that set the size that the failing key's shape
    breaks."""
    path = str(tmp_path / "plan.npz")
    np.savez_compressed(path, **_plan_arrays())
    assert _load_plan(path)[0]["selected_beams"].tolist() == [1, 0]
    np.savez_compressed(path, **_plan_arrays(**{key: value}))
    with pytest.raises(ValueError, match=rf"^plan file '.*plan\.npz': (\w+ must be .*\b)?"
                                         rf"{key}\b"):
        _load_plan(path)


@pytest.mark.parametrize("key, value, message", [
    ("significances", [np.nan], "significances must be finite floats of shape (C,), got nan at "
                                "(0,) in float64 of shape (1,) (C = 1 from centroids)"),
    ("centroids", [[1.0, np.inf]], "centroids must be finite floats of shape (C, 2), got inf "
                                   "at (0, 1) in float64 of shape (1, 2)"),
    ("prob_tables", [[[0.5, 0.5], [0.5, np.nan]]],
     "prob_tables must be finite floats of shape (C, B, B), got nan at (0, 1, 1) in float64 of "
     "shape (1, 2, 2) (C = 1 from centroids)"),
])
def test_load_plan_rejects_a_non_finite_value(tmp_path, key, value, message):
    """A NaN significance or another non-finite float fails naming the file,
    the key and where the value lies."""
    path = str(tmp_path / "plan.npz")
    np.savez_compressed(path, **_plan_arrays(**{key: value}))
    with pytest.raises(ValueError, match=f"^plan file '.*plan\\.npz': {re.escape(message)}$"):
        _load_plan(path)


def test_beam_pair_set_helpers():
    s = BeamPairSet(flat_indices=np.array([5, 0, 130]), num_beamformers=64)
    d = DecoupledSets(s_w=np.array([0, 1]), s_f=np.array([3, 4, 5]))


# ------------------------------------------------- nesting as the budget grows


@settings(max_examples=300, deadline=None)
@given(n_b=st.integers(1, 2048), grow=st.integers(0, 2048), s_w=st.integers(1, 64),
       num_beamformers=st.integers(1, 256))
def test_decoupled_split_nested_as_budget_grows(n_b, grow, s_w, num_beamformers):
    small = decoupled_split(n_b, s_w, num_beamformers)
    large = decoupled_split(n_b + grow, s_w, num_beamformers)
    for (w, f), budget in ((small, n_b), (large, n_b + grow)):
        assert 1 <= w <= s_w and 1 <= f <= num_beamformers
        assert w * f <= budget
    assert small[0] <= large[0] and small[1] <= large[1]


# Few score levels per batch, so that ties straddle the k-th value: 0.0 and
# -0.0 tie, and NaN ranks last.
_LEVELS = st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -1.0, np.inf, np.nan])
                   | st.floats(0.0, 1.0), min_size=1, max_size=6)


@settings(max_examples=draws(300), deadline=None)
@given(levels=_LEVELS, rows=st.integers(1, 12),
       width=st.sampled_from([1, 16, 64, 255, 256, 300, 1024]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_top_k_stable_rows_match_the_stable_argsort_prefix(levels, rows, width, seed, data):
    """The top k of each row of a batch is the prefix of its stable
    descending argsort, for every k from 1 to the width; batches of at
    least 256 columns, k at most half the width, take them from a
    partition."""
    k = data.draw(st.integers(1, width))
    rng = np.random.default_rng(seed)
    scores = np.array(levels)[rng.integers(0, len(levels), (rows, width))]
    expected = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    got = top_k_stable(scores, k)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_top_k_stable_rows_tied_across_the_kth_value():
    """Rows whose k-th value is tied with values on both sides of it, is
    -0.0 among 0.0, or is NaN keep the lowest-index ties, as a stable sort
    does."""
    rng = np.random.default_rng(3)
    scores = rng.choice([0.0, 0.5, 1.0], size=(10, 512))
    scores[1] = 0.5
    scores[2] = np.where(rng.random(512) < 0.5, -0.0, 0.0)
    scores[3, :412] = np.nan           # the k-th value is NaN from k = 101 on
    scores[3, 412:] = 1.0
    scores[4, rng.random(512) < 0.75] = np.nan
    for k in (0, 1, 100, 128, 200, 256):
        expected = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        assert np.array_equal(top_k_stable(scores, k), expected)


@settings(max_examples=draws(300), deadline=None)
@given(levels=_LEVELS, rows=st.integers(2, 12), width=st.sampled_from([255, 256, 300, 1024]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_top_k_stable_batch_rows_equal_the_one_row_calls(levels, rows, width, seed, data):
    """Each row of a batch ranks as that row alone does, in values and
    dtype: whether a row takes the batch route or the one-row route (ties
    across its k-th value, a NaN k-th value), its ranking does not depend
    on the rows beside it."""
    k = data.draw(st.integers(0, width // 2) | st.integers(0, width))
    rng = np.random.default_rng(seed)
    scores = np.array(levels)[rng.integers(0, len(levels), (rows, width))]
    got = top_k_stable(scores, k)
    assert got.shape == (rows, k)
    for row, top in zip(scores, got):
        alone = top_k_stable(row, k)
        assert top.dtype == alone.dtype and np.array_equal(top, alone)


@settings(max_examples=draws(300), deadline=None)
@given(levels=_LEVELS, width=st.sampled_from([255, 256, 1024]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_top_k_stable_one_row_matches_the_stable_argsort_prefix(levels, width, seed, data):
    """The top k of a single row is the prefix of its stable descending
    argsort, in values and dtype, for every k from 0 to the width; rows of
    at least 256 scores, k at most half of them, take it from a partition."""
    k = data.draw(st.integers(0, width // 2) | st.integers(0, width))
    rng = np.random.default_rng(seed)
    scores = np.array(levels)[rng.integers(0, len(levels), width)]
    expected = np.argsort(-scores, kind="stable")[:k]
    got = top_k_stable(scores, k)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_top_k_stable_one_row_tied_across_the_kth_value():
    """A single row whose k-th value is tied with values on both sides of
    it, is -0.0 among 0.0, or is NaN, or that holds NaN past its k-th
    value, keeps the lowest-index ties, as a stable sort does; the
    partition serves rows of 256 scores or more, k at most half of them."""
    rng = np.random.default_rng(4)
    rows = [rng.choice([0.0, 0.5, 1.0], size=512), np.full(512, 0.5),
            np.where(rng.random(512) < 0.5, -0.0, 0.0),
            np.concatenate([np.full(412, np.nan), np.ones(100)]),  # NaN k-th from k = 101
            np.where(rng.random(512) < 0.75, np.nan, rng.choice([0.0, 1.0], size=512))]
    for scores in rows:
        for k in (0, 1, 100, 101, 128, 200, 256, 257, 512):
            with mock.patch("numpy.partition", wraps=np.partition) as partition:
                got = top_k_stable(scores, k)
            assert partition.called == (0 < k <= 256)
            expected = np.argsort(-scores, kind="stable")[:k]
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
    assert not np.isnan(rows[4][top_k_stable(rows[4], 16)]).any()


@settings(max_examples=300, deadline=None)
@given(scores=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, -1.0]) | st.floats(-2.0, 2.0),
                       min_size=1, max_size=40),
       data=st.data())
def test_top_k_stable_nested_as_k_grows(scores, data):
    k = data.draw(st.integers(0, len(scores)))
    larger = data.draw(st.integers(k, len(scores)))
    assert np.array_equal(top_k_stable(scores, k), top_k_stable(scores, larger)[:k])


# up to 24 beams: past 16 elements numpy's default sort is no insertion sort, so an
# unstable candidate sort would show
@settings(max_examples=draws(100), deadline=None)
@given(seed=st.integers(0, 2 ** 16), rows=st.integers(1, 40), beams=st.integers(1, 24),
       levels=st.sampled_from([(0.0, 1.0), (0.0, 0.5, 1.0), (0.0,)]),
       clusters=st.integers(1, 5), significance=st.booleans(), data=st.data())
def test_coverage_plan_matches_per_rank_reference(seed, rows, beams, levels, clusters,
                                                  significance, data):
    rng = np.random.default_rng(seed)
    # few distinct locations and ATR values, so clusters repeat rows and ranks tie
    locations = rng.integers(0, 6, size=(rows, 2)).astype(float)
    atr = rng.choice(levels, size=(rows, beams))
    clusters = min(clusters, distinct_row_count(locations))
    n_bs = data.draw(st.integers(1, beams))
    got = select_bs_coverage(locations, atr, num_clusters=clusters, n_bs=n_bs, seed=seed,
                             use_significance=significance)
    want = select_bs_coverage_reference(locations, atr, num_clusters=clusters, n_bs=n_bs,
                                        seed=seed, use_significance=significance)
    assert got.prob_tables.tobytes() == want.prob_tables.tobytes()
    assert got.significances.tobytes() == want.significances.tobytes()
    assert got.selected_beams.dtype == want.selected_beams.dtype
    assert got.selected_beams.tolist() == want.selected_beams.tolist()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), rows=st.integers(4, 40), beams=st.integers(2, 12),
       clusters=st.integers(1, 4), ties=st.booleans(), significance=st.booleans(),
       data=st.data())
def test_coverage_plan_nested_as_budget_grows(seed, rows, beams, clusters, ties, significance,
                                              data):
    rng = np.random.default_rng(seed)
    locations = rng.uniform(0, 100, size=(rows, 2))
    atr = rng.integers(0, 3, size=(rows, beams)) / 2.0 if ties else rng.uniform(0, 1, (rows, beams))
    n = data.draw(st.integers(0, beams))
    larger = data.draw(st.integers(n, beams))
    plan = select_bs_coverage(locations, atr, num_clusters=clusters, n_bs=larger, seed=seed,
                              use_significance=significance)
    small = select_bs_coverage(locations, atr, num_clusters=clusters, n_bs=n, seed=seed,
                               use_significance=significance)
    assert len(plan.selected_beams) == larger
    assert np.array_equal(small.selected_beams, plan.selected_beams[:n])
    assert np.array_equal(plan.prefix(n).selected_beams, small.selected_beams)
    assert np.array_equal(plan.prefix(larger).prefix(n).selected_beams, small.selected_beams)
