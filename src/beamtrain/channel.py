"""Frequency-selective MIMO channel assembly from traced paths."""

import csv
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .arrays import ArrayGeometry, rotation_from_boresight, steering_vector, world_to_local_angles
from .scene import PathComponent, SceneConfig, SceneSnapshot, trace_paths

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


def path_responses(paths: list[PathComponent], bs_geometry: ArrayGeometry,
                   ue_geometry: ArrayGeometry, config: SceneConfig):
    """Array responses and subcarrier phases of every traced path.

    Returns (a_ue, a_bs, phases): the unit-norm steering vectors a_ue (P, n_ue)
    and a_bs (P, n_bs) toward each path's world-frame arrival and departure
    angles, turned into each array's local frame, and phases (K, P) with
    phases[k, p] = exp(-2j pi k df tau_p). This is the one place where the
    angle conventions of the paths meet those of the arrays.
    """
    a_ue = np.empty((len(paths), ue_geometry.num_elements), dtype=complex)
    a_bs = np.empty((len(paths), bs_geometry.num_elements), dtype=complex)
    for n, p in enumerate(paths):
        az, el = world_to_local_angles(bs_geometry, _unit_from_angles(*p.aod))
        a_bs[n] = steering_vector(bs_geometry, az, el, config.carrier_frequency)
        az, el = world_to_local_angles(ue_geometry, _unit_from_angles(*p.aoa))
        a_ue[n] = steering_vector(ue_geometry, az, el, config.carrier_frequency)
    k = np.arange(config.subcarrier_count)[:, None]
    delays = np.array([p.delay for p in paths], dtype=float)
    phases = np.exp(-2j * np.pi * k * config.subcarrier_spacing * delays)
    return a_ue, a_bs, phases


def paths_to_channel(paths: list[PathComponent], bs_geometry: ArrayGeometry,
                     ue_geometry: ArrayGeometry, config: SceneConfig,
                     ue_location=(0.0, 0.0), snapshot_id: int = 0,
                     ue_index: int = -1) -> ChannelRealization:
    """H[k] = sum_p gain_p * exp(-2j pi k df tau_p) * a_ue(aoa_p) a_bs(aod_p)^*."""
    K = config.subcarrier_count
    n_ue, n_bs = ue_geometry.num_elements, bs_geometry.num_elements
    H = np.zeros((K, n_ue, n_bs), dtype=complex)
    a_ue, a_bs, phases = path_responses(paths, bs_geometry, ue_geometry, config)
    for n, p in enumerate(paths):
        H += phases[:, n, None, None] * (p.complex_gain * np.outer(a_ue[n], a_bs[n].conj()))[None, :, :]
    return ChannelRealization(ue_location=np.asarray(ue_location, dtype=float),
                              matrices=H, snapshot_id=snapshot_id, ue_index=ue_index)


def channel_for_ue(snapshot: SceneSnapshot, ue_index: int, bs_geometry: ArrayGeometry,
                   ue_geometry: ArrayGeometry, config: SceneConfig) -> ChannelRealization:
    paths = trace_paths(snapshot, ue_index, config)
    return paths_to_channel(paths, bs_geometry, ue_geometry, config,
                            ue_location=snapshot.ue_location(ue_index),
                            snapshot_id=snapshot.snapshot_id, ue_index=ue_index)


def _unit_from_angles(azimuth: float, elevation: float) -> np.ndarray:
    return np.array([
        np.cos(elevation) * np.cos(azimuth),
        np.cos(elevation) * np.sin(azimuth),
        np.sin(elevation),
    ])


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
    _atomic_savez(path, arrays)
    if index_csv is not None:
        counts = path_counts if path_counts is not None else [-1] * len(channels)
        tmp = index_csv + ".tmp"
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["snapshot_id", "ue_index", "x", "y", "path_count"])
            for c, n in zip(channels, counts):
                writer.writerow([c.snapshot_id, c.ue_index,
                                 "%.9g" % c.ue_location[0], "%.9g" % c.ue_location[1], n])
        os.replace(tmp, index_csv)


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


def _atomic_savez(path: str, arrays: dict) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".npz.tmp")
    os.close(fd)
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
