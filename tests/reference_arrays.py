"""Beam-direction helpers that only the tests use: the steering direction
of each DFT beam, the beam nearest a direction, one world direction in an
array's local frame, and the unit vector of an (azimuth, elevation) pair."""

import numpy as np

from beamtrain.arrays import ArrayGeometry


def beam_direction_cosines(geometry: ArrayGeometry) -> np.ndarray:
    """Per-beam (u_row, u_col) steering directions, wrapped into [-1, 1).

    Valid for half-wavelength spacing where DFT beam m points at the
    direction cosine 2m/N (mod 2).
    """
    def grid(n):
        u = 2.0 * np.arange(n) / n
        return np.where(u >= 1.0, u - 2.0, u)

    u_row = grid(geometry.rows)
    u_col = grid(geometry.cols)
    rr, cc = np.meshgrid(u_row, u_col, indexing="ij")
    return np.stack([rr.reshape(-1), cc.reshape(-1)], axis=1)


def nearest_beam_index(geometry: ArrayGeometry, u_row: float, u_col: float) -> int:
    """Index of the DFT beam whose steering direction is nearest in wrapped
    direction-cosine distance (per axis; the 2-D response factorizes)."""
    m_r = int(np.round(u_row * geometry.rows / 2.0)) % geometry.rows
    m_c = int(np.round(u_col * geometry.cols / 2.0)) % geometry.cols
    return m_r * geometry.cols + m_c


def world_to_local(geometry: ArrayGeometry, direction_world) -> np.ndarray:
    """The unit vector in the array-local frame of a nonzero world direction:
    (boresight, column, row) direction cosines."""
    direction = np.asarray(direction_world, dtype=float)
    return direction / np.linalg.norm(direction) @ geometry.orientation


def unit_from_angles(azimuth, elevation) -> np.ndarray:
    """(cos(el)cos(az), cos(el)sin(az), sin(el)): the unit vector of an
    azimuth and elevation, stacked on a last axis of size 3."""
    return np.stack([np.cos(elevation) * np.cos(azimuth),
                     np.cos(elevation) * np.sin(azimuth),
                     np.sin(elevation)], axis=-1)
