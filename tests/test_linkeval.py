import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamtrain.arrays import ArrayGeometry, dft_codebook
from beamtrain.channel import (ChannelRealization, default_bs_geometry, default_ue_geometry,
                               path_responses, paths_to_channel)
from beamtrain.linkeval import sweep_all, sweep_responses
from beamtrain.scene import SceneConfig
from conftest import draws
from reference_linkeval import (pair_index, sweep_paths, sweep_per_subcarrier, throughput_ratio,
                               unflatten_pair)
from reference_arrays import unit_from_angles
from reference_scene import TracedPath, paths_table


def per_pair_rate(channel: ChannelRealization, combiner: np.ndarray, beamformer: np.ndarray,
                  sigma2: float, rng: np.random.Generator | None = None) -> float:
    """Average rate over subcarriers for one (combiner, beamformer) pair:
    the per-pair definition that `sweep_all` is checked against.

    Deterministic mode (default) uses the noise-free effective SNR
    |w^* H[k] f|^2 / sigma2. With `rng`, the measured-power estimator
    |y|^2 - sigma2 is used instead, clamped at zero.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    H = channel.matrices
    w = np.asarray(combiner)
    f = np.asarray(beamformer)
    if w.shape[0] != H.shape[1] or f.shape[0] != H.shape[2]:
        raise ValueError("combiner/beamformer dimensions do not match the channel")
    proj = np.einsum("i,kij,j->k", w.conj(), H, f)
    if rng is None:
        snr = np.abs(proj) ** 2 / sigma2
    else:
        noise = rng.normal(size=(H.shape[0], H.shape[1])) + 1j * rng.normal(size=(H.shape[0], H.shape[1]))
        noise *= np.sqrt(sigma2 / 2.0)
        y = proj + noise @ w.conj()
        snr = np.maximum(np.abs(y) ** 2 - sigma2, 0.0) / sigma2
    return float(np.mean(np.log2(1.0 + snr)))


def _channel(H):
    H = np.asarray(H, dtype=complex)
    return ChannelRealization(matrices=H)


def test_unit_snr_gives_rate_one():
    # w^* H f = 1 for w = f = e_0, sigma2 = 1 -> log2(2)
    K = 3
    H = np.zeros((K, 2, 2), dtype=complex)
    H[:, 0, 0] = 1.0
    w = np.array([1.0, 0.0])
    f = np.array([1.0, 0.0])
    assert per_pair_rate(_channel(H), w, f, 1.0) == pytest.approx(1.0, abs=1e-12)
    H[:, 0, 0] = np.sqrt(3.0)
    assert per_pair_rate(_channel(H), w, f, 1.0) == pytest.approx(2.0, abs=1e-12)


def test_per_pair_rate_matches_term_oracle():
    rng = np.random.default_rng(0)
    K = 2
    H = rng.normal(size=(K, 2, 2)) + 1j * rng.normal(size=(K, 2, 2))
    w = rng.normal(size=2) + 1j * rng.normal(size=2)
    f = rng.normal(size=2) + 1j * rng.normal(size=2)
    sigma2 = 0.37
    expected = sum(np.log2(1 + abs(w.conj() @ H[k] @ f) ** 2 / sigma2) for k in range(K)) / K
    assert per_pair_rate(_channel(H), w, f, sigma2) == pytest.approx(expected, abs=1e-12)


def test_per_pair_rate_dimension_mismatch():
    H = np.zeros((2, 2, 3), dtype=complex)
    with pytest.raises(ValueError):
        per_pair_rate(_channel(H), np.ones(3), np.ones(3), 1.0)


def test_per_pair_rate_stochastic_mode_clamps():
    H = np.zeros((64, 2, 2), dtype=complex)  # pure noise channel
    rng = np.random.default_rng(1)
    rate = per_pair_rate(_channel(H), np.array([1.0, 0]), np.array([1.0, 0]), 1.0, rng=rng)
    assert rate >= 0.0  # negative power estimates clamp to zero SNR


def test_sweep_all_default_sizes():
    ue_g, bs_g = ArrayGeometry(4, 4), ArrayGeometry(8, 8)
    W, F = dft_codebook(ue_g, "ue"), dft_codebook(bs_g, "bs")
    rng = np.random.default_rng(2)
    H = rng.normal(size=(2, 16, 64)) + 1j * rng.normal(size=(2, 16, 64))
    rates = sweep_all(_channel(H), W, F, 1.0)
    assert rates.shape == (1024,)
    # spot-check the flattening order against per_pair_rate
    for i, j in [(0, 0), (3, 17), (15, 63)]:
        expected = per_pair_rate(_channel(H), W.beams[i], F.beams[j], 1.0)
        assert rates[pair_index(i, j, 64)] == pytest.approx(expected, abs=1e-12)


def test_sweep_all_zero_channel():
    ue_g, bs_g = ArrayGeometry(2, 2), ArrayGeometry(2, 2)
    W, F = dft_codebook(ue_g, "ue"), dft_codebook(bs_g, "bs")
    assert np.all(sweep_all(_channel(np.zeros((2, 4, 4))), W, F, 1.0) == 0)


def test_throughput_ratio_basics():
    rates = np.array([1.0, 2.0, 4.0, 8.0])
    assert throughput_ratio(rates, range(4)) == 1.0
    assert throughput_ratio(rates, [3]) == 1.0
    assert throughput_ratio(rates, [1]) == pytest.approx(0.25)
    assert throughput_ratio(np.zeros(4), [0]) == 1.0
    with pytest.raises(ValueError):
        throughput_ratio(rates, [])


def test_throughput_ratio_monotone_and_scale_invariant():
    rng = np.random.default_rng(3)
    rates = rng.uniform(0, 5, size=32)
    subset = [4, 9, 20]
    superset = subset + [1, 30]
    assert throughput_ratio(rates, subset) <= throughput_ratio(rates, superset)
    assert throughput_ratio(rates * 7.5, subset) == pytest.approx(throughput_ratio(rates, subset))
    assert 0.0 <= throughput_ratio(rates, subset) <= 1.0


def test_rate_invariant_under_global_phase():
    rng = np.random.default_rng(4)
    H = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    w = rng.normal(size=4) + 1j * rng.normal(size=4)
    f = rng.normal(size=4) + 1j * rng.normal(size=4)
    base = per_pair_rate(_channel(H), w, f, 0.5)
    rotated = per_pair_rate(_channel(H), w * np.exp(1j * 0.7), f * np.exp(-1j * 1.3), 0.5)
    assert rotated == pytest.approx(base, abs=1e-12)


def test_pair_index_roundtrip():
    for n in range(1024):
        i, j = unflatten_pair(n, 64)
        assert pair_index(i, j, 64) == n


def _setup(bs_shape, ue_shape, subcarriers):
    scene = dataclasses.replace(SceneConfig(), subcarrier_count=subcarriers)
    bs_g = default_bs_geometry(scene, *bs_shape)
    ue_g = default_ue_geometry(scene, *ue_shape)
    return scene, bs_g, ue_g, dft_codebook(ue_g, "ue"), dft_codebook(bs_g, "bs")


# the default 8x8 / 4x4 arrays, and criterion 1's 2x4 / 2x2 arrays with K = 4
_SETUPS = (_setup((8, 8), (4, 4), 64), _setup((2, 4), (2, 2), 4))
# subcarrier counts that fold 3 times (64), stop early (4) or never fold (1, 3, 5)
_K_SETUPS = tuple(_setup((2, 4), (2, 2), K) for K in (1, 3, 4, 5, 64))


def _unit(azimuth, elevation):
    """A path direction tuple from world-frame angles."""
    return tuple(unit_from_angles(azimuth, elevation).tolist())


_DIRECTIONS = st.builds(_unit, st.floats(-np.pi, np.pi), st.floats(-np.pi / 2, np.pi / 2))


def _paths(magnitudes, min_size=0, max_size=4):
    return st.lists(st.builds(
        lambda magnitude, phase, departure, arrival, delay: TracedPath(
            complex_gain=magnitude * np.exp(1j * phase), departure=departure, arrival=arrival,
            delay=delay),
        magnitude=magnitudes, phase=st.floats(-np.pi, np.pi),
        departure=_DIRECTIONS, arrival=_DIRECTIONS, delay=st.floats(0.0, 2e-6)),
        min_size=min_size, max_size=max_size)


_PATHS = _paths(st.floats(1e-8, 1e-3))
# gains whose |g|^2 / sigma2 lies in [1e36, 1e40]: a product of 8
# subcarriers' (1 + SNR) can pass the float range
_STRONG = np.sqrt(SceneConfig().sigma2) * 1e20
_STRONG_PATHS = _paths(st.floats(1e-2 * _STRONG, _STRONG), min_size=2)


def _responses(setup, paths):
    """`sweep_responses`'s arguments for one UE's path tuples."""
    scene, bs_g, ue_g, W, F = setup
    table = paths_table(paths)
    return (table.gain, *path_responses(table, bs_g, ue_g, scene), W, F, scene.sigma2)


def _row_scale(rates, paths, sigma2):
    """The scale that a row's rate errors are relative to: its peak rate.
    Only nearly opposite paths that cancel can bring the peak below a
    thousandth of its bound log2(1 + (sum_p |g_p|)^2 / sigma2); there,
    rounding in either route is of the size of the terms before they
    cancel, so the bound sets the scale."""
    bound = np.log2(1.0 + sum(abs(p.complex_gain) for p in paths) ** 2 / sigma2)
    return max(float(np.max(rates)), 1e-3 * bound)


_WEAK_PATH = TracedPath(complex_gain=1e-8 * np.exp(1.0625j),
                        departure=_unit(1.11655941683716, 1.11655941683716),
                        arrival=_unit(1.11655941683716, 1.11655941683716), delay=0.0)


@settings(max_examples=draws(150), deadline=None)
@given(setup=st.sampled_from(_SETUPS), paths=_PATHS)
# a weak single path at SNR about 3e-5: log2(1 + snr) rounds 1 + snr to
# about 1e-16 absolute, which the two routes did differently (1.5e-11 of
# the peak), where log1p keeps full relative precision
@example(setup=_SETUPS[0], paths=[_WEAK_PATH])
def test_sweep_paths_matches_dense_sweep(setup, paths):
    scene, bs_g, ue_g, W, F = setup
    dense = sweep_all(paths_to_channel(paths_table(paths), bs_g, ue_g, scene), W, F, scene.sigma2)
    rates = sweep_paths(paths, W, F, bs_g, ue_g, scene)
    assert rates.shape == dense.shape == (W.num_beams * F.num_beams,)
    if not paths:
        assert np.all(rates == 0.0) and np.all(dense == 0.0)  # the UE is dropped
        return
    assert np.max(np.abs(rates - dense)) <= 1e-12 * _row_scale(dense, paths, scene.sigma2)


@settings(max_examples=draws(150), deadline=None)
@given(setup=st.sampled_from(_SETUPS + _K_SETUPS), paths=_PATHS)
def test_sweep_responses_matches_one_log_per_subcarrier(setup, paths):
    """The folded route (up to 8 subcarriers per log) and the single-path
    route equal the per-subcarrier log1p reference to within 1e-12 of the
    row's peak, for every path count and for subcarrier counts where the
    folding stops early or never runs."""
    args = _responses(setup, paths)
    reference = sweep_per_subcarrier(*args)
    rates = sweep_responses(*args)
    assert np.max(np.abs(rates - reference)) <= 1e-12 * _row_scale(reference, paths,
                                                                   setup[0].sigma2)


@settings(max_examples=draws(150), deadline=None)
@given(setup=st.sampled_from(_SETUPS + _K_SETUPS),
       paths=_paths(st.floats(1e-8, 1e-3) | st.floats(1e-2 * _STRONG, _STRONG), 1, 1))
def test_single_path_rows_match_one_log_per_subcarrier(setup, paths):
    """One path has the same SNR on every subcarrier, so its row takes one
    log per pair; it equals the per-subcarrier reference to within 1e-12
    of the peak, weak or strong."""
    args = _responses(setup, paths)
    reference = sweep_per_subcarrier(*args)
    assert np.max(np.abs(sweep_responses(*args) - reference)) <= 1e-12 * np.max(reference)


def _resolved_pairs(gains, a_ue, a_bs, phases, combiners, beamformers, sigma2):
    """The pairs whose projection keeps three digits on every subcarrier:
    |sum_p t_p[k]| >= 1e-3 sum_p |t_p[k]| for the paths' terms t_p[k].
    Elsewhere the paths cancel, and at strong gains the rounding of either
    route is of the size of what is left."""
    u = a_ue @ combiners.beams.conj().T
    v = a_bs.conj() @ beamformers.beams.T
    pairs = (u[:, :, None] * v[:, None, :]).reshape(len(gains), -1)
    terms = (phases * gains)[:, :, None] * pairs[None]  # (K, P, pairs)
    return np.all(np.abs(terms.sum(axis=1)) >= 1e-3 * np.abs(terms).sum(axis=1), axis=0)


@settings(max_examples=draws(150), deadline=None)
@given(setup=st.sampled_from(_SETUPS + _K_SETUPS), paths=_STRONG_PATHS)
def test_sweep_responses_is_finite_at_snr_near_1e40(setup, paths):
    """At SNRs up to about 1e40, where the product of 8 subcarriers'
    (1 + SNR) can pass the float range, the rates stay finite with no
    overflow or invalid-value warning, and every pair whose paths do not
    cancel equals the per-subcarrier reference to within 1e-12 of the
    row's peak."""
    args = _responses(setup, paths)
    reference = sweep_per_subcarrier(*args)
    with np.errstate(over="raise", invalid="raise"):
        rates = sweep_responses(*args)
    assert np.isfinite(rates).all()
    error = np.abs(rates - reference)[_resolved_pairs(*args)]
    assert np.max(error, initial=0.0) <= 1e-12 * np.max(reference)


def test_sweep_responses_recomputes_a_row_whose_group_product_overflows():
    """Two equal paths without delay have the same SNR, near 4e40 at the
    peak pair, on all 64 subcarriers, so the product of a group of 8
    subcarriers' (1 + SNR), 2^(8 * rate), is past the float range. The row
    is recomputed with one log per subcarrier: finite, and equal to the
    reference to within 1e-12 of its peak."""
    setup = _SETUPS[0]
    path = TracedPath(complex_gain=_STRONG * np.exp(0.4j), departure=_unit(0.3, -0.2),
                      arrival=_unit(0.5, 0.4), delay=0.0)
    args = _responses(setup, [path, path])
    reference = sweep_per_subcarrier(*args)
    assert 8 * np.max(reference) > np.log2(np.finfo(float).max)
    with np.errstate(over="raise", invalid="raise"):
        rates = sweep_responses(*args)
    assert np.isfinite(rates).all()
    assert np.max(np.abs(rates - reference)) <= 1e-12 * np.max(reference)


@settings(max_examples=30, deadline=None)
@given(setup=st.sampled_from(_SETUPS), paths=_PATHS)
def test_sweep_responses_writes_into_out(setup, paths):
    """With `out=` a row of a larger array, the rates land in that row and
    the row is returned; its bytes equal those of the allocating call, and
    the other rows are untouched."""
    args = _responses(setup, paths)
    W, F = setup[3:]
    corpus = np.full((3, W.num_beams * F.num_beams), np.nan)
    row = corpus[1]
    assert sweep_responses(*args, out=row) is row
    assert row.tobytes() == sweep_responses(*args).tobytes()
    assert np.isnan(corpus[[0, 2]]).all()
