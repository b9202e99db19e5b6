"""Frequency-selective MIMO channel assembly from traced paths."""

from dataclasses import dataclass

import numpy as np

from .arrays import ArrayGeometry, rotation_from_boresight, steering_vector
from .scene import PathTable, SceneConfig, SceneSnapshot, trace_paths


@dataclass(frozen=True)
class ChannelRealization:
    """Per-UE channel: K complex matrices of shape (UE elements, BS elements)."""
    matrices: np.ndarray      # (K, n_ue, n_bs) complex


def default_bs_geometry(config: SceneConfig, rows: int, cols: int) -> ArrayGeometry:
    """BS array on the wall at the origin, boresight down-tilted along the
    street; the tilt aims at lane level mid-region."""
    tilt = float(np.arctan(config.bs_height / (config.street_length / 2.0)))
    boresight = np.array([0.0, np.cos(tilt), -np.sin(tilt)])
    return ArrayGeometry(rows=rows, cols=cols,
                         orientation=rotation_from_boresight(boresight))


def default_ue_geometry(config: SceneConfig, rows: int, cols: int) -> ArrayGeometry:
    """Roof-mounted UE array: boresight up, rows along the vehicle heading."""
    orientation = np.array([
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0],
    ])  # local x -> world z (up), local y -> world x, local z -> world y (heading)
    return ArrayGeometry(rows=rows, cols=cols, orientation=orientation)


def path_responses(table: PathTable, bs_geometry: ArrayGeometry,
                   ue_geometry: ArrayGeometry, config: SceneConfig):
    """Array responses and subcarrier phases of every path of a path table.

    Returns (a_ue, a_bs, phases): the unit-norm steering vectors a_ue (P, n_ue)
    and a_bs (P, n_bs) toward each path's world-frame arrival and departure
    directions, turned into each array's local frame, and phases (K, P) with
    phases[k, p] = exp(-2j pi k df tau_p). This is the one place where the
    world frame of the paths meets the frames of the arrays. Each path's
    responses are computed elementwise, so a row does not depend on the
    other rows of the table.
    """
    a_bs = steering_vector(bs_geometry, table.departure @ bs_geometry.orientation)
    a_ue = steering_vector(ue_geometry, table.arrival @ ue_geometry.orientation)
    k = np.arange(config.subcarrier_count)[:, None]
    phases = np.exp(-2j * np.pi * k * config.subcarrier_spacing * table.delay)
    return a_ue, a_bs, phases


def dense_channel(gains, a_ue, a_bs, phases) -> np.ndarray:
    """H[k] = sum_p gains[p] * phases[k, p] * a_ue[p] a_bs[p]^*, accumulated
    path by path: (K, n_ue, n_bs)."""
    H = np.zeros((phases.shape[0], a_ue.shape[1], a_bs.shape[1]), dtype=complex)
    for n, gain in enumerate(gains):
        H += phases[:, n, None, None] * (gain * np.outer(a_ue[n], a_bs[n].conj()))[None, :, :]
    return H


def paths_to_channel(table: PathTable, bs_geometry: ArrayGeometry,
                     ue_geometry: ArrayGeometry, config: SceneConfig) -> ChannelRealization:
    """H[k] = sum_p gain_p * exp(-2j pi k df tau_p) * a_ue(arrival_p) a_bs(departure_p)^*
    over the rows of a path table."""
    a_ue, a_bs, phases = path_responses(table, bs_geometry, ue_geometry, config)
    return ChannelRealization(matrices=dense_channel(table.gain, a_ue, a_bs, phases))


def channel_for_ue(snapshot: SceneSnapshot, ue_index: int, bs_geometry: ArrayGeometry,
                   ue_geometry: ArrayGeometry, config: SceneConfig) -> ChannelRealization:
    """`paths_to_channel` of the UE's `trace_paths`: the dense route, which
    the rate sweep is held to."""
    return paths_to_channel(trace_paths(snapshot, ue_index, config), bs_geometry, ue_geometry,
                            config)
