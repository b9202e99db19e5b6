"""Randomized street snapshots and geometric multipath tracing.

The street runs along the +y axis with the base station at the origin
(antenna height on a wall). Two building walls parallel to the road and the
metal side panels of buses act as first-order specular reflectors (image
method); bus bounding boxes act as blockers. Cars carry roof-mounted UEs.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .arrays import SPEED_OF_LIGHT, wavelength

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SceneConfig:
    lane_count: int = 4
    lane_width: float = 3.5
    street_length: float = 160.0
    bs_height: float = 10.0
    wall_clearance: float = 2.0          # wall distance beyond the outer lanes
    wall_height: float = 20.0
    min_gap: float = 2.0
    max_gap: float = 12.0
    bus_fraction: float = 0.2
    ue_fraction: float = 0.37            # probability that a car in the RoI is a UE
    car_dims: tuple = (1.75, 4.5, 1.5)   # width, length, height (m)
    bus_dims: tuple = (2.5, 12.0, 3.8)
    roi_y_min: float = 20.0
    carrier_frequency: float = 28e9
    subcarrier_count: int = 64
    subcarrier_spacing: float = 120e3
    noise_power: float | None = None     # None -> reference-SNR default
    wall_reflection: float = 0.5         # amplitude coefficients
    bus_reflection: float = 0.7
    blockage_margin: float = 0.2         # bus box inflation (m)
    reference_snr_db: float = 25.0       # peak post-beamforming SNR at 30 m
    reference_distance: float = 30.0

    @property
    def bs_position(self) -> np.ndarray:
        return np.array([0.0, 0.0, self.bs_height])

    @property
    def street_width(self) -> float:
        return self.lane_count * self.lane_width

    @property
    def wall_x(self) -> tuple[float, float]:
        return (-self.wall_clearance, self.street_width + self.wall_clearance)

    @property
    def region_of_interest(self) -> tuple[float, float, float, float]:
        """(x_min, x_max, y_min, y_max) of admissible UE locations."""
        return (0.0, self.street_width, self.roi_y_min, self.street_length)

    @property
    def sigma2(self) -> float:
        """Noise power; defaults so an unblocked UE at the reference distance
        sees the configured peak post-beamforming SNR."""
        if self.noise_power is not None:
            return self.noise_power
        lam = wavelength(self.carrier_frequency)
        amp = lam / (4.0 * np.pi * self.reference_distance)
        return amp ** 2 / 10.0 ** (self.reference_snr_db / 10.0)


@dataclass(frozen=True)
class Vehicle:
    kind: str                 # "car" or "bus"
    center: tuple             # (x, y, z) of the body center, z = height/2
    dims: tuple               # (width, length, height)
    heading: float = np.pi / 2  # along +y


@dataclass(frozen=True)
class SceneSnapshot:
    vehicles: tuple
    ue_indices: tuple         # indices into `vehicles` of cars acting as UEs
    snapshot_id: int
    rng_seed: object

    def ue_position(self, ue_index: int, config: SceneConfig) -> np.ndarray:
        v = self.vehicles[ue_index]
        return np.array([v.center[0], v.center[1], v.dims[2]])  # roof mount

    def ue_location(self, ue_index: int) -> np.ndarray:
        v = self.vehicles[ue_index]
        return np.array([v.center[0], v.center[1]])


@dataclass(frozen=True)
class PathComponent:
    """One propagation path; angles are world-frame (azimuth, elevation) of
    the departure direction at the BS and arrival-source direction at the UE."""
    complex_gain: complex
    aod: tuple
    aoa: tuple
    delay: float
    kind: str = "los"         # "los", "wall", "bus"


def generate_snapshot(config: SceneConfig, seed, snapshot_id: int = 0) -> SceneSnapshot:
    """Place vehicles lane by lane with uniform inter-vehicle gaps; cars in
    the region of interest become UEs with probability ue_fraction."""
    if config.street_length < config.min_gap + config.car_dims[1]:
        raise ValueError("street too short to place any vehicle")
    rng = np.random.default_rng(seed)
    vehicles = []
    for lane in range(config.lane_count):
        lane_x = (lane + 0.5) * config.lane_width
        cursor = 0.0
        while True:
            gap = rng.uniform(config.min_gap, config.max_gap)
            is_bus = rng.random() < config.bus_fraction
            dims = config.bus_dims if is_bus else config.car_dims
            y_center = cursor + gap + dims[1] / 2.0
            if y_center + dims[1] / 2.0 > config.street_length:
                break
            vehicles.append(Vehicle(
                kind="bus" if is_bus else "car",
                center=(lane_x, y_center, dims[2] / 2.0),
                dims=dims,
            ))
            cursor = y_center + dims[1] / 2.0
    x0, x1, y0, y1 = config.region_of_interest
    ue_indices = []
    for idx, v in enumerate(vehicles):
        if v.kind != "car":
            continue
        inside = x0 <= v.center[0] <= x1 and y0 <= v.center[1] <= y1
        if inside and rng.random() < config.ue_fraction:
            ue_indices.append(idx)
    return SceneSnapshot(vehicles=tuple(vehicles), ue_indices=tuple(ue_indices),
                         snapshot_id=snapshot_id, rng_seed=seed)


def _bus_boxes(snapshot: SceneSnapshot, margin: float) -> np.ndarray:
    """(lo, hi) corners of every bus box inflated by `margin`, in vehicle
    order: shape (buses, 2, 3)."""
    buses = [v for v in snapshot.vehicles if v.kind == "bus"]
    centers = np.array([v.center for v in buses], dtype=float).reshape(-1, 3)
    half = np.array([v.dims for v in buses], dtype=float).reshape(-1, 3) / 2.0 + margin
    return np.stack([centers - half, centers + half], axis=1)


def _blocked(p0, p1, boxes, exclude: int | None = None) -> bool:
    """Slab test of the segment p0 -> p1 against all boxes at once.

    `boxes` holds (lo, hi) corner pairs, shape (B, 2, 3); box `exclude` is
    skipped. On an axis the segment is parallel to (|d| < 1e-12) a box is
    missed unless p0 lies within its slab; on every other axis the segment
    parameter is clipped to the slab's [t0, t1], and a box is hit when the
    clipped part of [0, 1] is not empty.
    """
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 2, 3)
    lo, hi = boxes[:, 0], boxes[:, 1]
    d = p1 - p0
    flat = np.abs(d) < 1e-12
    step = np.where(flat, 1.0, d)
    t0 = (lo - p0) / step
    t1 = (hi - p0) / step
    t_min = np.where(flat, 0.0, np.minimum(t0, t1)).max(axis=1, initial=0.0)
    t_max = np.where(flat, 1.0, np.maximum(t0, t1)).min(axis=1, initial=1.0)
    hit = (t_min <= t_max) & np.all(~flat | ((lo <= p0) & (p0 <= hi)), axis=1)
    if exclude is not None:
        hit[exclude] = False
    return bool(hit.any())


def _angles_world(direction: np.ndarray) -> tuple[float, float]:
    d = direction / np.linalg.norm(direction)
    return (float(np.arctan2(d[1], d[0])), float(np.arcsin(np.clip(d[2], -1.0, 1.0))))


def _make_path(bs: np.ndarray, ue: np.ndarray, first_hop: np.ndarray,
               last_hop: np.ndarray, total_dist: float, refl_amp: float,
               lam: float, kind: str) -> PathComponent:
    amp = refl_amp * lam / (4.0 * np.pi * total_dist)
    gain = amp * np.exp(-2j * np.pi * total_dist / lam)
    return PathComponent(
        complex_gain=complex(gain),
        aod=_angles_world(first_hop - bs),
        aoa=_angles_world(last_hop - ue),
        delay=total_dist / SPEED_OF_LIGHT,
        kind=kind,
    )


def trace_paths(snapshot: SceneSnapshot, ue_index: int, config: SceneConfig) -> list[PathComponent]:
    """LOS plus first-order specular reflections off the two building walls
    and off bus side panels, with bus bounding-box blockage. May be empty."""
    if ue_index not in snapshot.ue_indices:
        raise ValueError(f"vehicle {ue_index} is not a UE in this snapshot")
    bs = config.bs_position
    ue = snapshot.ue_position(ue_index, config)
    lam = wavelength(config.carrier_frequency)
    boxes = _bus_boxes(snapshot, config.blockage_margin)
    paths: list[PathComponent] = []

    if not _blocked(bs, ue, boxes):
        dist = float(np.linalg.norm(ue - bs))
        paths.append(_make_path(bs, ue, ue, bs, dist, 1.0, lam, "los"))

    for wall_x in config.wall_x:
        p = _reflection_point(bs, ue, wall_x)
        if p is None:
            continue
        if not (0.0 <= p[1] <= config.street_length and 0.0 <= p[2] <= config.wall_height):
            continue
        if _blocked(bs, p, boxes) or _blocked(p, ue, boxes):
            continue
        total = float(np.linalg.norm(p - bs) + np.linalg.norm(ue - p))
        paths.append(_make_path(bs, ue, p, p, total, config.wall_reflection, lam, "wall"))

    bus_idx = -1
    for v in snapshot.vehicles:
        if v.kind != "bus":
            continue
        bus_idx += 1
        cx, cy, _ = v.center
        w, length, height = v.dims
        for panel_x in (cx - w / 2.0, cx + w / 2.0):
            outward = np.sign(panel_x - cx)
            if np.sign(bs[0] - panel_x) != outward or np.sign(ue[0] - panel_x) != outward:
                continue
            p = _reflection_point(bs, ue, panel_x)
            if p is None:
                continue
            if not (abs(p[1] - cy) <= length / 2.0 and 0.0 <= p[2] <= height):
                continue
            if _blocked(bs, p, boxes, exclude=bus_idx) or _blocked(p, ue, boxes, exclude=bus_idx):
                continue
            total = float(np.linalg.norm(p - bs) + np.linalg.norm(ue - p))
            paths.append(_make_path(bs, ue, p, p, total, config.bus_reflection, lam, "bus"))
    return paths


def _reflection_point(bs: np.ndarray, ue: np.ndarray, plane_x: float) -> np.ndarray | None:
    """Specular point on the vertical plane x = plane_x (image method)."""
    image = bs.copy()
    image[0] = 2.0 * plane_x - bs[0]
    d = ue - image
    if abs(d[0]) < 1e-12:
        return None
    t = (plane_x - image[0]) / d[0]
    if not (0.0 < t < 1.0):
        return None
    return image + t * d
