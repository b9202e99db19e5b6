import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrain.arrays import ArrayGeometry, dft_codebook
from beamtrain.channel import (ChannelRealization, default_bs_geometry, default_ue_geometry,
                               paths_to_channel)
from beamtrain.linkeval import (RateRow, pair_index, sweep_all, sweep_paths, throughput_ratio,
                                unflatten_pair)
from beamtrain.scene import PathComponent, SceneConfig


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
    return ChannelRealization(ue_location=np.zeros(2), matrices=H, snapshot_id=0)


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
    row = sweep_all(_channel(H), W, F, 1.0)
    assert row.rates.shape == (1024,)
    # spot-check the flattening order against per_pair_rate
    for i, j in [(0, 0), (3, 17), (15, 63)]:
        expected = per_pair_rate(_channel(H), W.beams[i], F.beams[j], 1.0)
        assert row.rates[pair_index(i, j, 64)] == pytest.approx(expected, abs=1e-12)


def test_sweep_all_zero_channel():
    ue_g, bs_g = ArrayGeometry(2, 2), ArrayGeometry(2, 2)
    W, F = dft_codebook(ue_g, "ue"), dft_codebook(bs_g, "bs")
    row = sweep_all(_channel(np.zeros((2, 4, 4))), W, F, 1.0)
    assert np.all(row.rates == 0)


def test_throughput_ratio_basics():
    rates = np.array([1.0, 2.0, 4.0, 8.0])
    row = RateRow(location=np.zeros(2), rates=rates, snapshot_id=0)
    assert throughput_ratio(row, range(4)) == 1.0
    assert throughput_ratio(row, [3]) == 1.0
    assert throughput_ratio(row, [1]) == pytest.approx(0.25)
    assert throughput_ratio(RateRow(np.zeros(2), np.zeros(4), 0), [0]) == 1.0
    with pytest.raises(ValueError):
        throughput_ratio(row, [])


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

_ANGLES = st.tuples(st.floats(-np.pi, np.pi), st.floats(-np.pi / 2, np.pi / 2))
_PATHS = st.lists(st.builds(
    lambda magnitude, phase, aod, aoa, delay: PathComponent(
        complex_gain=magnitude * np.exp(1j * phase), aod=aod, aoa=aoa, delay=delay),
    magnitude=st.floats(1e-8, 1e-3), phase=st.floats(-np.pi, np.pi),
    aod=_ANGLES, aoa=_ANGLES, delay=st.floats(0.0, 2e-6)), max_size=4)


@settings(max_examples=150, deadline=None)
@given(setup=st.sampled_from(_SETUPS), paths=_PATHS)
def test_sweep_paths_matches_dense_sweep(setup, paths):
    scene, bs_g, ue_g, W, F = setup
    dense = sweep_all(paths_to_channel(paths, bs_g, ue_g, scene), W, F, scene.sigma2).rates
    rates = sweep_paths(paths, W, F, bs_g, ue_g, scene)
    assert rates.shape == dense.shape == (W.num_beams * F.num_beams,)
    if not paths:
        assert np.all(rates == 0.0) and np.all(dense == 0.0)  # the UE is dropped
        return
    # Errors are relative to the row's peak rate. Only nearly opposite paths
    # that cancel can bring the peak below a thousandth of its bound
    # log2(1 + (sum_p |g_p|)^2 / sigma2); there, rounding in either route is
    # of the size of the terms before they cancel, so the bound sets the scale.
    bound = np.log2(1.0 + sum(abs(p.complex_gain) for p in paths) ** 2 / scene.sigma2)
    scale = max(float(np.max(dense)), 1e-3 * bound)
    assert np.max(np.abs(rates - dense)) <= 1e-12 * scale
