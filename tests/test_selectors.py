import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrain.harness import decoupled_split
from beamtrain.selectors import (BeamPairSet, DecoupledSets, kmeans,
                                 kth_best_probability, load_plan, overhead_bits, save_plan,
                                 select_bs_coverage, select_coupled,
                                 select_decoupled_no_location,
                                 select_decoupled_with_location, top_k_stable)


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
    assert sets.num_pairs == 6
    with pytest.raises(ValueError):
        select_decoupled_with_location(model_f, model_w, (0, 0), num_w=3, num_f=2)


def test_kmeans_single_cluster_is_mean():
    X = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 6.0]])
    centroids, assignments = kmeans(X, 1, seed=0)
    assert np.allclose(centroids[0], X.mean(axis=0))
    assert np.all(assignments == 0)


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


def test_kth_best_probability_worked_example():
    # two rows; beam 2 is best in both, second best splits between 0 and 1
    rows = np.array([[0.5, 0.2, 0.9], [0.1, 0.6, 0.8]])
    p1 = kth_best_probability(rows, 1)
    p2 = kth_best_probability(rows, 2)
    assert np.allclose(p1, [0.0, 0.0, 1.0])
    assert np.allclose(p2, [0.5, 0.5, 0.0])
    assert np.allclose(kth_best_probability(rows, 3), [0.5, 0.5, 0.0])
    with pytest.raises(ValueError):
        kth_best_probability(rows, 4)
    with pytest.raises(ValueError):
        kth_best_probability(np.zeros((0, 3)), 1)


def test_kth_best_probability_ranking_ties_to_lower_index():
    rows = np.array([[0.7, 0.7, 0.1]])
    assert np.allclose(kth_best_probability(rows, 1), [1.0, 0.0, 0.0])
    assert np.allclose(kth_best_probability(rows, 2), [0.0, 1.0, 0.0])


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


def test_plan_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    locations = rng.uniform(0, 100, size=(40, 2))
    rows = rng.uniform(0, 1, size=(40, 8))
    plan = select_bs_coverage(locations, rows, num_clusters=3, n_bs=8, seed=3)
    path = str(tmp_path / "plan.npz")
    csv_path = str(tmp_path / "plan.csv")
    save_plan(plan, path, csv_path=csv_path)
    loaded = load_plan(path)
    assert np.array_equal(loaded.selected_beams, plan.selected_beams)
    assert np.allclose(loaded.prob_tables, plan.prob_tables)
    assert np.allclose(loaded.significances, plan.significances)
    with open(csv_path) as fh:
        assert fh.readline().strip() == "selection_order,beam_index"
    bad = tmp_path / "bad.npz"
    for content in (b"nope", b"PK\x03\x04" + bytes(36)):  # the second looks like a cut npz
        bad.write_bytes(content)
        with pytest.raises(ValueError):
            load_plan(str(bad))


def test_beam_pair_set_helpers():
    s = BeamPairSet(flat_indices=np.array([5, 0, 130]), num_beamformers=64)
    assert s.budget == 3
    d = DecoupledSets(s_w=np.array([0, 1]), s_f=np.array([3, 4, 5]))
    assert d.num_pairs == 6


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


@settings(max_examples=300, deadline=None)
@given(scores=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, -1.0]) | st.floats(-2.0, 2.0),
                       min_size=1, max_size=40),
       data=st.data())
def test_top_k_stable_nested_as_k_grows(scores, data):
    k = data.draw(st.integers(0, len(scores)))
    larger = data.draw(st.integers(k, len(scores)))
    assert np.array_equal(top_k_stable(scores, k), top_k_stable(scores, larger)[:k])


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
