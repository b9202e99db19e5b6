"""The per-vehicle snapshot generator and the per-UE scalar path tracer,
kept as the references that `beamtrain.scene` is held to: the generator's
vehicle arrays and UEs exactly, and the per-snapshot path table path for
path and bit for bit.

`generate_snapshot_reference` places one `Vehicle` at a time and draws one
UE flag per car in the region of interest with its own scalar draw.

`trace_paths` traces one UE: LOS, then one image-method reflection per
building wall and per bus side panel, each tested for blockage segment by
segment with the scalar slab test `segment_hits_box`, one box at a time.
It returns one `TracedPath` tuple per path; `paths_table` stacks them into
the package's `PathTable`.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from beamtrain.arrays import SPEED_OF_LIGHT, wavelength
from beamtrain.scene import PATH_KINDS, PathTable, SceneConfig, SceneSnapshot, _bus_boxes


@dataclass(frozen=True)
class Vehicle:
    kind: str                 # "car" or "bus"
    center: tuple             # (x, y, z) of the body center, z = height/2
    dims: tuple               # (width, length, height)


class TracedPath(NamedTuple):
    """One propagation path; `departure` and `arrival` are world-frame unit
    vectors from the BS toward the first hop and from the UE toward the last
    hop."""
    complex_gain: complex
    departure: tuple
    arrival: tuple
    delay: float
    kind: str = "los"         # "los", "wall", "bus"


def paths_table(paths) -> PathTable:
    """The path table of one UE's `TracedPath` tuples; its `ue` column is -1."""
    return PathTable(ue=np.full(len(paths), -1),
                     kind=np.array([PATH_KINDS.index(p.kind) for p in paths], dtype=int),
                     gain=np.array([p.complex_gain for p in paths], dtype=complex),
                     delay=np.array([p.delay for p in paths], dtype=float),
                     departure=np.array([p.departure for p in paths], dtype=float).reshape(-1, 3),
                     arrival=np.array([p.arrival for p in paths], dtype=float).reshape(-1, 3))


def generate_snapshot_reference(config: SceneConfig, seed, snapshot_id: int = 0) -> SceneSnapshot:
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
    return SceneSnapshot(center=np.array([v.center for v in vehicles], dtype=float).reshape(-1, 3),
                         dims=np.array([v.dims for v in vehicles], dtype=float).reshape(-1, 3),
                         is_bus=np.array([v.kind == "bus" for v in vehicles], dtype=bool),
                         ue_indices=tuple(ue_indices), snapshot_id=snapshot_id)


def segment_hits_box(p0, p1, lo, hi) -> bool:
    """Scalar slab test for a segment against one axis-aligned box."""
    d = p1 - p0
    t_min, t_max = 0.0, 1.0
    for ax in range(3):
        if abs(d[ax]) < 1e-12:
            if p0[ax] < lo[ax] or p0[ax] > hi[ax]:
                return False
            continue
        t0 = (lo[ax] - p0[ax]) / d[ax]
        t1 = (hi[ax] - p0[ax]) / d[ax]
        if t0 > t1:
            t0, t1 = t1, t0
        t_min = max(t_min, t0)
        t_max = min(t_max, t1)
        if t_min > t_max:
            return False
    return True


def blocked(p0, p1, boxes, exclude=None) -> bool:
    """Whether any box but box `exclude` blocks the segment p0 -> p1."""
    for i, (lo, hi) in enumerate(boxes):
        if i == exclude:
            continue
        if segment_hits_box(p0, p1, lo, hi):
            return True
    return False


def unit_world(direction: np.ndarray) -> tuple[float, float, float]:
    """The unit vector of a nonzero world-frame direction."""
    return tuple(float(v) for v in direction / np.linalg.norm(direction))


def make_path(bs: np.ndarray, ue: np.ndarray, first_hop: np.ndarray,
              last_hop: np.ndarray, total_dist: float, refl_amp: float,
              lam: float, kind: str) -> TracedPath:
    amp = refl_amp * lam / (4.0 * np.pi * total_dist)
    gain = amp * np.exp(-2j * np.pi * total_dist / lam)
    return TracedPath(
        complex_gain=complex(gain),
        departure=unit_world(first_hop - bs),
        arrival=unit_world(last_hop - ue),
        delay=total_dist / SPEED_OF_LIGHT,
        kind=kind,
    )


def reflection_point(bs: np.ndarray, ue: np.ndarray, plane_x: float) -> np.ndarray | None:
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


def trace_paths(snapshot: SceneSnapshot, ue_index: int,
                config: SceneConfig) -> list[TracedPath]:
    """LOS plus first-order specular reflections off the two building walls
    and off bus side panels, with bus bounding-box blockage. May be empty."""
    if ue_index not in snapshot.ue_indices:
        raise ValueError(f"vehicle {ue_index} is not a UE in this snapshot")
    bs = config.bs_position
    ue = np.array([*snapshot.center[ue_index, :2], snapshot.dims[ue_index, 2]])  # roof mount
    lam = wavelength(config.carrier_frequency)
    boxes = _bus_boxes(snapshot, config.blockage_margin)
    paths: list[TracedPath] = []

    if not blocked(bs, ue, boxes):
        dist = float(np.linalg.norm(ue - bs))
        paths.append(make_path(bs, ue, ue, bs, dist, 1.0, lam, "los"))

    for wall_x in config.wall_x:
        p = reflection_point(bs, ue, wall_x)
        if p is None:
            continue
        if not (0.0 <= p[1] <= config.street_length and 0.0 <= p[2] <= config.wall_height):
            continue
        if blocked(bs, p, boxes) or blocked(p, ue, boxes):
            continue
        total = float(np.linalg.norm(p - bs) + np.linalg.norm(ue - p))
        paths.append(make_path(bs, ue, p, p, total, config.wall_reflection, lam, "wall"))

    buses = zip(snapshot.center[snapshot.is_bus].tolist(), snapshot.dims[snapshot.is_bus].tolist())
    for bus_idx, ((cx, cy, _), (w, length, height)) in enumerate(buses):
        for panel_x in (cx - w / 2.0, cx + w / 2.0):
            outward = np.sign(panel_x - cx)
            if np.sign(bs[0] - panel_x) != outward or np.sign(ue[0] - panel_x) != outward:
                continue
            p = reflection_point(bs, ue, panel_x)
            if p is None:
                continue
            if not (abs(p[1] - cy) <= length / 2.0 and 0.0 <= p[2] <= height):
                continue
            if blocked(bs, p, boxes, exclude=bus_idx) or blocked(p, ue, boxes, exclude=bus_idx):
                continue
            total = float(np.linalg.norm(p - bs) + np.linalg.norm(ue - p))
            paths.append(make_path(bs, ue, p, p, total, config.bus_reflection, lam, "bus"))
    return paths
