import dataclasses

import numpy as np
import pytest

from beamtrain.arrays import dft_codebook, nearest_beam_index, steering_vector, world_to_local_angles
from beamtrain.channel import (channel_for_ue, default_bs_geometry, default_ue_geometry,
                               load_channels, paths_to_channel, save_channels)
from beamtrain.linkeval import sweep_all
from beamtrain.scene import PathComponent, SceneConfig, generate_snapshot
from reference_scene import angles_world as _angles_world


@pytest.fixture
def cfg():
    return SceneConfig()


def _los_path(cfg, ue_xyz):
    bs = cfg.bs_position
    ue = np.asarray(ue_xyz, dtype=float)
    d = float(np.linalg.norm(ue - bs))
    lam = 299792458.0 / cfg.carrier_frequency
    gain = lam / (4 * np.pi * d) * np.exp(-2j * np.pi * d / lam)
    return PathComponent(complex_gain=gain, aod=_angles_world(ue - bs),
                         aoa=_angles_world(bs - ue), delay=d / 299792458.0)


def test_empty_paths_give_zero_channel(cfg):
    ch = paths_to_channel([], default_bs_geometry(cfg), default_ue_geometry(cfg), cfg)
    assert np.all(ch.matrices == 0)
    assert ch.matrices.shape == (cfg.subcarrier_count, 16, 64)


def test_zero_delay_path_is_flat_across_subcarriers(cfg):
    p = dataclasses.replace(_los_path(cfg, (5.0, 50.0, 1.5)), delay=0.0)
    ch = paths_to_channel([p], default_bs_geometry(cfg), default_ue_geometry(cfg), cfg)
    for k in range(1, cfg.subcarrier_count):
        assert np.allclose(ch.matrices[k], ch.matrices[0])


def test_two_path_channel_matches_direct_sum_oracle(cfg):
    cfg4 = dataclasses.replace(cfg, subcarrier_count=4)
    bs_g, ue_g = default_bs_geometry(cfg4), default_ue_geometry(cfg4)
    p1 = _los_path(cfg4, (3.0, 40.0, 1.5))
    p2 = dataclasses.replace(_los_path(cfg4, (9.0, 90.0, 1.5)),
                             complex_gain=0.3j * _los_path(cfg4, (9.0, 90.0, 1.5)).complex_gain)
    ch = paths_to_channel([p1, p2], bs_g, ue_g, cfg4)

    def unit(az, el):
        return np.array([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)])

    for k in range(4):
        expected = np.zeros((16, 64), dtype=complex)
        for p in (p1, p2):
            a_bs = steering_vector(bs_g, *world_to_local_angles(bs_g, unit(*p.aod)),
                                   cfg4.carrier_frequency)
            a_ue = steering_vector(ue_g, *world_to_local_angles(ue_g, unit(*p.aoa)),
                                   cfg4.carrier_frequency)
            expected += (p.complex_gain
                         * np.exp(-2j * np.pi * k * cfg4.subcarrier_spacing * p.delay)
                         * np.outer(a_ue, a_bs.conj()))
        assert np.allclose(ch.matrices[k], expected, atol=1e-18)


def test_channel_rank_bounded_by_path_count(cfg):
    snap = generate_snapshot(cfg, 17)
    from beamtrain.scene import trace_paths
    for idx in snap.ue_indices[:3]:
        paths = trace_paths(snap, idx, cfg)
        ch = channel_for_ue(snap, idx, default_bs_geometry(cfg), default_ue_geometry(cfg), cfg)
        for k in (0, cfg.subcarrier_count - 1):
            rank = np.linalg.matrix_rank(ch.matrices[k], tol=1e-12)
            assert rank <= max(len(paths), 0) + (0 if paths else 0)


def test_energy_decreases_with_distance(cfg):
    bs_g, ue_g = default_bs_geometry(cfg), default_ue_geometry(cfg)
    near = paths_to_channel([_los_path(cfg, (5.0, np.sqrt(20.0 ** 2 - 100.0), 1.5))],
                            bs_g, ue_g, cfg)
    far = paths_to_channel([_los_path(cfg, (5.0, 200.0, 1.5))], bs_g, ue_g, cfg)
    assert np.sum(np.abs(near.matrices) ** 2) > np.sum(np.abs(far.matrices) ** 2)


def test_single_los_best_pair_is_nearest_steering(cfg):
    bs_g, ue_g = default_bs_geometry(cfg), default_ue_geometry(cfg)
    W, F = dft_codebook(ue_g, "ue"), dft_codebook(bs_g, "bs")
    rng = np.random.default_rng(5)
    for _ in range(20):
        ue = np.array([rng.uniform(0, cfg.street_width),
                       rng.uniform(20, cfg.street_length), 1.5])
        ch = paths_to_channel([_los_path(cfg, ue)], bs_g, ue_g, cfg, ue_location=ue[:2])
        row = sweep_all(ch, W, F, cfg.sigma2)
        i, j = divmod(int(np.argmax(row.rates)), 64)
        az, el = world_to_local_angles(bs_g, ue - cfg.bs_position)
        assert j == nearest_beam_index(bs_g, np.sin(el), np.cos(el) * np.sin(az))
        az, el = world_to_local_angles(ue_g, cfg.bs_position - ue)
        assert i == nearest_beam_index(ue_g, np.sin(el), np.cos(el) * np.sin(az))


def test_channel_determinism(cfg):
    bs_g, ue_g = default_bs_geometry(cfg), default_ue_geometry(cfg)
    snap_a = generate_snapshot(cfg, 23)
    snap_b = generate_snapshot(cfg, 23)
    idx = snap_a.ue_indices[0]
    ch_a = channel_for_ue(snap_a, idx, bs_g, ue_g, cfg)
    ch_b = channel_for_ue(snap_b, idx, bs_g, ue_g, cfg)
    assert np.array_equal(ch_a.matrices, ch_b.matrices)


def test_channel_bundle_roundtrip(tmp_path, cfg):
    bs_g, ue_g = default_bs_geometry(cfg), default_ue_geometry(cfg)
    snap = generate_snapshot(cfg, 31)
    channels = [channel_for_ue(snap, i, bs_g, ue_g, cfg) for i in snap.ue_indices[:2]]
    path = str(tmp_path / "ch.npz")
    index = str(tmp_path / "ch.csv")
    save_channels(channels, path, index_csv=index, path_counts=[3, 2])
    loaded = load_channels(path)
    assert len(loaded) == 2
    for a, b in zip(channels, loaded):
        assert np.array_equal(a.matrices, b.matrices)
        assert a.snapshot_id == b.snapshot_id
    with open(index) as fh:
        assert fh.readline().strip() == "snapshot_id,ue_index,x,y,path_count"


def test_channel_bundle_bad_file(tmp_path):
    bad = tmp_path / "bad.npz"
    for content in (b"not a zipfile", b"PK\x03\x04" + bytes(36)):  # the second looks like a cut npz
        bad.write_bytes(content)
        with pytest.raises(ValueError):
            load_channels(str(bad))
