"""Frequency-selective MIMO channel assembly from traced paths."""

import csv
from dataclasses import dataclass

import numpy as np

from .arrays import ArrayGeometry, local_angles, rotation_from_boresight, steering_vector
from .fileio import atomic_write, save_npz
from .scene import PathComponent, PathTable, SceneConfig, SceneSnapshot, trace_paths

CHANNEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ChannelRealization:
    """Per-UE channel: K complex matrices of shape (UE elements, BS elements)."""
    ue_location: np.ndarray   # (x, y) meters
    matrices: np.ndarray      # (K, n_ue, n_bs) complex
    snapshot_id: int
    ue_index: int = -1

    @property
    def num_subcarriers(self) -> int:
        return self.matrices.shape[0]


def default_bs_geometry(config: SceneConfig, rows: int = 8, cols: int = 8,
                        tilt: float | None = None) -> ArrayGeometry:
    """BS array on the wall at the origin, boresight down-tilted along the
    street; default tilt aims at lane level mid-region."""
    if tilt is None:
        tilt = float(np.arctan(config.bs_height / (config.street_length / 2.0)))
    boresight = np.array([0.0, np.cos(tilt), -np.sin(tilt)])
    return ArrayGeometry(rows=rows, cols=cols,
                         orientation=rotation_from_boresight(boresight),
                         reference_position=config.bs_position)


def default_ue_geometry(config: SceneConfig, rows: int = 4, cols: int = 4) -> ArrayGeometry:
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
    angles, turned into each array's local frame, and phases (K, P) with
    phases[k, p] = exp(-2j pi k df tau_p). This is the one place where the
    angle conventions of the paths meet those of the arrays. Each path's
    responses are computed elementwise, so a row does not depend on the
    other rows of the table.
    """
    fc = config.carrier_frequency
    a_bs = steering_vector(bs_geometry, *local_angles(bs_geometry, _unit_from_angles(table.aod)), fc)
    a_ue = steering_vector(ue_geometry, *local_angles(ue_geometry, _unit_from_angles(table.aoa)), fc)
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


def paths_to_channel(paths: list[PathComponent], bs_geometry: ArrayGeometry,
                     ue_geometry: ArrayGeometry, config: SceneConfig,
                     ue_location=(0.0, 0.0), snapshot_id: int = 0,
                     ue_index: int = -1) -> ChannelRealization:
    """H[k] = sum_p gain_p * exp(-2j pi k df tau_p) * a_ue(aoa_p) a_bs(aod_p)^*."""
    table = PathTable.from_paths(paths)
    a_ue, a_bs, phases = path_responses(table, bs_geometry, ue_geometry, config)
    return ChannelRealization(ue_location=np.asarray(ue_location, dtype=float),
                              matrices=dense_channel(table.gain, a_ue, a_bs, phases),
                              snapshot_id=snapshot_id, ue_index=ue_index)


def channel_for_ue(snapshot: SceneSnapshot, ue_index: int, bs_geometry: ArrayGeometry,
                   ue_geometry: ArrayGeometry, config: SceneConfig) -> ChannelRealization:
    paths = trace_paths(snapshot, ue_index, config)
    return paths_to_channel(paths, bs_geometry, ue_geometry, config,
                            ue_location=snapshot.ue_location(ue_index),
                            snapshot_id=snapshot.snapshot_id, ue_index=ue_index)


def _unit_from_angles(angles: np.ndarray) -> np.ndarray:
    """Unit vectors of the rows of an (N, 2) array of (azimuth, elevation)."""
    azimuth, elevation = angles[:, 0], angles[:, 1]
    return np.stack([np.cos(elevation) * np.cos(azimuth),
                     np.cos(elevation) * np.sin(azimuth),
                     np.sin(elevation)], axis=1)


def save_channels(channels: list[ChannelRealization], path: str, index_csv: str | None = None,
                  path_counts: list[int] | None = None) -> None:
    """Versioned binary bundle plus an optional human-readable index CSV."""
    arrays = {
        "format_version": np.array([CHANNEL_FORMAT_VERSION]),
        "snapshot_ids": np.array([c.snapshot_id for c in channels]),
        "ue_indices": np.array([c.ue_index for c in channels]),
        "locations": np.array([c.ue_location for c in channels]),
        "matrices": np.array([c.matrices for c in channels]),
    }
    save_npz(path, arrays)
    if index_csv is not None:
        counts = path_counts if path_counts is not None else [-1] * len(channels)
        with atomic_write(index_csv, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["snapshot_id", "ue_index", "x", "y", "path_count"])
            for c, n in zip(channels, counts):
                writer.writerow([c.snapshot_id, c.ue_index,
                                 "%.9g" % c.ue_location[0], "%.9g" % c.ue_location[1], n])


def load_channels(path: str) -> list[ChannelRealization]:
    try:
        with open(path, "rb") as fh, np.load(fh) as npz:
            data = {name: npz[name] for name in npz.files}
    except Exception as exc:
        raise ValueError(f"cannot read channel file {path!r}: {exc}") from exc
    if "format_version" not in data or data["format_version"][0] != CHANNEL_FORMAT_VERSION:
        raise ValueError(f"unsupported channel file version in {path!r}")
    return [
        ChannelRealization(ue_location=data["locations"][i], matrices=data["matrices"][i],
                           snapshot_id=int(data["snapshot_ids"][i]),
                           ue_index=int(data["ue_indices"][i]))
        for i in range(len(data["snapshot_ids"]))
    ]
