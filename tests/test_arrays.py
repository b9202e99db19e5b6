import numpy as np
import pytest

from beamtrain.arrays import ArrayGeometry, dft_codebook, rotation_from_boresight, steering_vector
from reference_arrays import (beam_direction_cosines, nearest_beam_index, unit_from_angles,
                              world_to_local)


def test_boresight_steering_2x2():
    g = ArrayGeometry(2, 2)
    a = steering_vector(g, [1.0, 0.0, 0.0])
    assert np.allclose(a, 0.5)


def test_steering_unit_norm():
    g = ArrayGeometry(8, 8)
    rng = np.random.default_rng(3)
    for _ in range(20):
        az, el = rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi / 2, np.pi / 2)
        assert abs(np.linalg.norm(steering_vector(g, unit_from_angles(az, el))) - 1.0) < 1e-9


def test_endfire_1x2_half_wavelength():
    g = ArrayGeometry(1, 2)
    a = steering_vector(g, [0.0, 1.0, 0.0])  # direction cosine along columns = 1
    expected = np.array([1.0, np.exp(-1j * np.pi)]) / np.sqrt(2)
    assert np.allclose(a, expected, atol=1e-12)


def test_steering_continuity():
    g = ArrayGeometry(8, 8)
    a0 = steering_vector(g, unit_from_angles(0.3, 0.1))
    a1 = steering_vector(g, unit_from_angles(0.3 + 1e-8, 0.1 + 1e-8))
    assert np.linalg.norm(a1 - a0) < 1e-6


@pytest.mark.parametrize("rows,cols,kind,expected", [(8, 8, "bs", 64), (4, 4, "ue", 16)])
def test_codebook_sizes(rows, cols, kind, expected):
    cb = dft_codebook(ArrayGeometry(rows, cols), kind)
    assert cb.num_beams == expected


def test_default_geometries_give_1024_pairs():
    bs = dft_codebook(ArrayGeometry(8, 8), "bs")
    ue = dft_codebook(ArrayGeometry(4, 4), "ue")
    assert bs.num_beams * ue.num_beams == 1024


@pytest.mark.parametrize("rows,cols", [(2, 2), (4, 4), (8, 8), (3, 5)])
def test_codebook_orthonormal(rows, cols):
    cb = dft_codebook(ArrayGeometry(rows, cols), "bs")
    gram = cb.beams @ cb.beams.conj().T
    assert np.abs(gram - np.eye(cb.num_beams)).max() < 1e-9
    assert np.abs(np.linalg.norm(cb.beams, axis=1) - 1.0).max() < 1e-9


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        ArrayGeometry(0, 4)
    with pytest.raises(ValueError):
        ArrayGeometry(2, 2, orientation=np.diag([1.0, 1.0, -1.0]))  # det -1


def test_nearest_beam_matches_inner_product_argmax():
    g = ArrayGeometry(4, 4)
    cb = dft_codebook(g, "ue")
    rng = np.random.default_rng(7)
    for _ in range(50):
        az = rng.uniform(-np.pi, np.pi)
        el = rng.uniform(-np.pi / 2, np.pi / 2)
        a = steering_vector(g, unit_from_angles(az, el))
        by_product = int(np.argmax(np.abs(cb.beams.conj() @ a)))
        u_row, u_col = np.sin(el), np.cos(el) * np.sin(az)
        predicted = nearest_beam_index(g, u_row, u_col)
        assert by_product == predicted


def test_beam_direction_cosines_align_with_beams():
    g = ArrayGeometry(4, 8)
    cb = dft_codebook(g, "bs")
    dirs = beam_direction_cosines(g)
    for m in range(cb.num_beams):
        u_row, u_col = dirs[m]
        if u_row ** 2 + u_col ** 2 > 1.0:
            continue  # beam points outside the visible region
        el = np.arcsin(u_row)
        az = np.arcsin(np.clip(u_col / max(np.cos(el), 1e-12), -1, 1))
        a = steering_vector(g, unit_from_angles(az, el))
        # a beam responds fully to its own steering direction
        assert abs(abs(cb.beams[m].conj() @ a) - 1.0) < 1e-9


def test_rotation_and_world_to_local_roundtrip():
    boresight = np.array([0.0, 0.8, -0.6])
    R = rotation_from_boresight(boresight)
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
    assert np.isclose(np.linalg.det(R), 1.0)
    g = ArrayGeometry(2, 2, orientation=R)
    d = world_to_local(g, boresight)
    # azimuth arctan2(d_y, d_x) and elevation arcsin(d_z) both 0
    assert d[0] > 0.0 and abs(d[1]) < 1e-12 and abs(d[2]) < 1e-12
