import dataclasses

import numpy as np
import pytest

from beamtrain.arrays import dft_codebook, steering_vector
from beamtrain.channel import (channel_for_ue, default_bs_geometry, default_ue_geometry,
                               path_responses, paths_to_channel)
from beamtrain.linkeval import sweep_all
from beamtrain.scene import SceneConfig, generate_snapshot, trace_paths
from reference_arrays import nearest_beam_index, world_to_local
from reference_scene import TracedPath, paths_table, unit_world


@pytest.fixture
def cfg():
    return SceneConfig()


def _geometries(cfg):
    """The paper's 8x8 BS and 4x4 UE arrays in the scene `cfg`."""
    return default_bs_geometry(cfg, 8, 8), default_ue_geometry(cfg, 4, 4)


def _los_path(cfg, ue_xyz):
    bs = cfg.bs_position
    ue = np.asarray(ue_xyz, dtype=float)
    d = float(np.linalg.norm(ue - bs))
    lam = 299792458.0 / cfg.carrier_frequency
    gain = lam / (4 * np.pi * d) * np.exp(-2j * np.pi * d / lam)
    return TracedPath(complex_gain=gain, departure=unit_world(ue - bs),
                      arrival=unit_world(bs - ue), delay=d / 299792458.0)


def test_empty_paths_give_zero_channel(cfg):
    ch = paths_to_channel(paths_table([]), *_geometries(cfg), cfg)
    assert np.all(ch.matrices == 0)
    assert ch.matrices.shape == (cfg.subcarrier_count, 16, 64)


def test_zero_delay_path_is_flat_across_subcarriers(cfg):
    p = _los_path(cfg, (5.0, 50.0, 1.5))._replace(delay=0.0)
    ch = paths_to_channel(paths_table([p]), *_geometries(cfg), cfg)
    for k in range(1, cfg.subcarrier_count):
        assert np.allclose(ch.matrices[k], ch.matrices[0])


def test_two_path_channel_matches_direct_sum_oracle(cfg):
    cfg4 = dataclasses.replace(cfg, subcarrier_count=4)
    bs_g, ue_g = _geometries(cfg4)
    p1 = _los_path(cfg4, (3.0, 40.0, 1.5))
    p2 = _los_path(cfg4, (9.0, 90.0, 1.5))
    p2 = p2._replace(complex_gain=0.3j * p2.complex_gain)
    ch = paths_to_channel(paths_table([p1, p2]), bs_g, ue_g, cfg4)

    for k in range(4):
        expected = np.zeros((16, 64), dtype=complex)
        for p in (p1, p2):
            a_bs = steering_vector(bs_g, world_to_local(bs_g, p.departure))
            a_ue = steering_vector(ue_g, world_to_local(ue_g, p.arrival))
            expected += (p.complex_gain
                         * np.exp(-2j * np.pi * k * cfg4.subcarrier_spacing * p.delay)
                         * np.outer(a_ue, a_bs.conj()))
        assert np.allclose(ch.matrices[k], expected, atol=1e-18)


def test_channel_rank_bounded_by_path_count(cfg):
    snap = generate_snapshot(cfg, 17)
    for idx in snap.ue_indices[:3]:
        table = trace_paths(snap, idx, cfg)
        ch = channel_for_ue(snap, idx, *_geometries(cfg), cfg)
        for k in (0, cfg.subcarrier_count - 1):
            rank = np.linalg.matrix_rank(ch.matrices[k], tol=1e-12)
            assert rank <= len(table.ue)


def test_energy_decreases_with_distance(cfg):
    bs_g, ue_g = _geometries(cfg)
    near = paths_to_channel(paths_table([_los_path(cfg, (5.0, np.sqrt(20.0 ** 2 - 100.0), 1.5))]),
                            bs_g, ue_g, cfg)
    far = paths_to_channel(paths_table([_los_path(cfg, (5.0, 200.0, 1.5))]), bs_g, ue_g, cfg)
    assert np.sum(np.abs(near.matrices) ** 2) > np.sum(np.abs(far.matrices) ** 2)


def test_single_los_best_pair_is_nearest_steering(cfg):
    bs_g, ue_g = _geometries(cfg)
    W, F = dft_codebook(ue_g, "ue"), dft_codebook(bs_g, "bs")
    rng = np.random.default_rng(5)
    for _ in range(20):
        ue = np.array([rng.uniform(0, cfg.street_width),
                       rng.uniform(20, cfg.street_length), 1.5])
        ch = paths_to_channel(paths_table([_los_path(cfg, ue)]), bs_g, ue_g, cfg)
        i, j = divmod(int(np.argmax(sweep_all(ch, W, F, cfg.sigma2))), 64)
        d = world_to_local(bs_g, ue - cfg.bs_position)
        assert j == nearest_beam_index(bs_g, d[2], d[1])
        d = world_to_local(ue_g, cfg.bs_position - ue)
        assert i == nearest_beam_index(ue_g, d[2], d[1])


def test_channel_determinism(cfg):
    bs_g, ue_g = _geometries(cfg)
    snap_a = generate_snapshot(cfg, 23)
    snap_b = generate_snapshot(cfg, 23)
    idx = snap_a.ue_indices[0]
    ch_a = channel_for_ue(snap_a, idx, bs_g, ue_g, cfg)
    ch_b = channel_for_ue(snap_b, idx, bs_g, ue_g, cfg)
    assert np.array_equal(ch_a.matrices, ch_b.matrices)


def test_steering_vectors_do_not_depend_on_the_carrier(cfg):
    """Elements sit half a wavelength apart at any carrier, so one path
    table gives the same steering vectors bit for bit at 28 and 60 GHz;
    only the subcarrier phases read the scene."""
    snap = generate_snapshot(cfg, 3)
    table = trace_paths(snap, snap.ue_indices[0], cfg)
    cfg60 = dataclasses.replace(cfg, carrier_frequency=60e9)
    a_ue, a_bs, _ = path_responses(table, *_geometries(cfg), cfg)
    a_ue60, a_bs60, _ = path_responses(table, *_geometries(cfg60), cfg60)
    assert len(table.ue) and a_ue.tobytes() == a_ue60.tobytes()
    assert a_bs.tobytes() == a_bs60.tobytes()
