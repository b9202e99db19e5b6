import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrain.metrics import avg_throughput_ratio, misalignment_probability, prefix_tables
from beamtrain.selectors import BeamPairSet, DecoupledSets


def test_full_sets_give_perfect_metrics():
    rng = np.random.default_rng(0)
    tr = rng.uniform(0, 1, size=(10, 12))
    tr[np.arange(10), rng.integers(12, size=10)] = 1.0
    sets = [BeamPairSet(np.arange(12), 4)] * 10
    assert avg_throughput_ratio(tr, sets, 4) == pytest.approx(1.0)
    assert misalignment_probability(tr, sets, 4) == 0.0


def test_misalignment_counts_missing_argmax():
    tr = np.array([[0.2, 1.0, 0.5, 0.1],
                   [1.0, 0.3, 0.2, 0.9]])
    sets = [BeamPairSet(np.array([1]), 2), BeamPairSet(np.array([3]), 2)]
    assert misalignment_probability(tr, sets, 2) == 0.5
    assert avg_throughput_ratio(tr, sets, 2) == pytest.approx((1.0 + 0.9) / 2)


def test_decoupled_sets_expand_to_pair_grid():
    # |W|=2, |F|=3; S_w={1}, S_f={0,2} -> pairs {3, 5}
    tr = np.array([[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]])
    sets = [DecoupledSets(s_w=np.array([1]), s_f=np.array([0, 2]))]
    assert avg_throughput_ratio(tr, sets, 3) == pytest.approx(0.6)
    assert misalignment_probability(tr, sets, 3) == 0.0
    sets = [DecoupledSets(s_w=np.array([0]), s_f=np.array([0, 1, 2]))]
    assert misalignment_probability(tr, sets, 3) == 1.0
    assert avg_throughput_ratio(tr, sets, 3) == pytest.approx(0.3)


def test_plain_iterables_accepted():
    tr = np.array([[0.5, 1.0, 0.25]])
    assert avg_throughput_ratio(tr, [[0, 2]], 3) == pytest.approx(0.5)
    assert misalignment_probability(tr, [[0, 2]], 3) == 1.0


def test_argmax_tie_resolves_to_lowest_index():
    tr = np.array([[1.0, 1.0, 0.2]])
    assert misalignment_probability(tr, [[0]], 3) == 0.0
    assert misalignment_probability(tr, [[1]], 3) == 1.0


def test_length_mismatch_raises():
    tr = np.zeros((3, 4))
    with pytest.raises(ValueError):
        misalignment_probability(tr, [[0]], 2)
    with pytest.raises(ValueError):
        avg_throughput_ratio(tr, [[0]], 2)


@st.composite
def _evaluations(draw):
    """A TR matrix over a |W| x |F| grid and random orderings per row: of
    all pairs (scenario 1), of W and of F (scenario 2), and one shared F
    list that may be shorter than |F| (scenario 3). Entries come from a
    small pool of values, so rows tie, also on their maximum; the pool
    holds arbitrary floats, so sums depend on the order of addition."""
    n = draw(st.integers(1, 20))
    num_w, num_f = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    pool = [0.0, 1.0] + draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    tr = np.array(draw(st.lists(st.lists(st.sampled_from(pool), min_size=num_w * num_f,
                                         max_size=num_w * num_f),
                                min_size=n, max_size=n)))

    def orderings(size):
        return np.array([draw(st.permutations(range(size))) for _ in range(n)], dtype=int)

    shared_f = np.array(draw(st.permutations(range(num_f))), dtype=int)
    shared_f = shared_f[:draw(st.integers(1, num_f))]
    return (tr, num_w, num_f, orderings(num_w * num_f), orderings(num_w),
            orderings(num_f), shared_f)


@settings(max_examples=300, deadline=None)
@given(_evaluations())
def test_prefix_tables_equal_per_row_metrics(case):
    """R_T bit for bit and P_m exactly, for every prefix size of every
    scenario's orderings."""
    tr, num_w, num_f, pair_order, w_order, f_order, shared_f = case
    n = len(tr)
    r_t, p_m = prefix_tables(tr[:, None, :], [0], pair_order)
    assert r_t.shape == p_m.shape == (1, num_w * num_f)
    for k in range(1, num_w * num_f + 1):
        sets = [BeamPairSet(pair_order[r, :k], num_f) for r in range(n)]
        assert r_t[0, k - 1] == avg_throughput_ratio(tr, sets, num_f)
        assert p_m[0, k - 1] == misalignment_probability(tr, sets, num_f)
    grid = tr.reshape(n, num_w, num_f)
    for f_lists in (f_order, shared_f):
        r_t, p_m = prefix_tables(grid, w_order, f_lists)
        assert r_t.shape == p_m.shape == (num_w, f_lists.shape[-1])
        f_rows = np.broadcast_to(f_lists, (n, f_lists.shape[-1]))
        for i in range(1, num_w + 1):
            for j in range(1, f_lists.shape[-1] + 1):
                sets = [DecoupledSets(s_w=w_order[r, :i], s_f=f_rows[r, :j]) for r in range(n)]
                assert r_t[i - 1, j - 1] == avg_throughput_ratio(tr, sets, num_f)
                assert p_m[i - 1, j - 1] == misalignment_probability(tr, sets, num_f)


@settings(max_examples=200, deadline=None)
@given(_evaluations())
def test_prefix_tables_monotone(case):
    tr, num_w, num_f, pair_order, w_order, f_order, shared_f = case
    grid = tr.reshape(len(tr), num_w, num_f)
    for r_t, p_m in (prefix_tables(tr[:, None, :], [0], pair_order),
                     prefix_tables(grid, w_order, f_order),
                     prefix_tables(grid, w_order, shared_f)):
        for axis in (0, 1):
            assert np.all(np.diff(r_t, axis=axis) >= 0.0)
            assert np.all(np.diff(p_m, axis=axis) <= 0.0)
        assert np.all((0.0 <= r_t) & (r_t <= 1.0))
        assert np.all((0.0 <= p_m) & (p_m <= 1.0))


def test_prefix_tables_need_rows():
    with pytest.raises(ValueError):
        prefix_tables(np.zeros((0, 2, 3)), [0, 1], [0, 1, 2])
