"""The per-UE scalar path tracer, kept as the reference that the
per-snapshot path table of `beamtrain.scene` is held to, path for path and
bit for bit.

`trace_paths` traces one UE: LOS, then one image-method reflection per
building wall and per bus side panel, each tested for blockage segment by
segment with the scalar slab test `segment_hits_box`, one box at a time.
"""

import numpy as np

from beamtrain.arrays import SPEED_OF_LIGHT, wavelength
from beamtrain.scene import PathComponent, SceneConfig, SceneSnapshot, _bus_boxes


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


def angles_world(direction: np.ndarray) -> tuple[float, float]:
    d = direction / np.linalg.norm(direction)
    return (float(np.arctan2(d[1], d[0])), float(np.arcsin(np.clip(d[2], -1.0, 1.0))))


def make_path(bs: np.ndarray, ue: np.ndarray, first_hop: np.ndarray,
              last_hop: np.ndarray, total_dist: float, refl_amp: float,
              lam: float, kind: str) -> PathComponent:
    amp = refl_amp * lam / (4.0 * np.pi * total_dist)
    gain = amp * np.exp(-2j * np.pi * total_dist / lam)
    return PathComponent(
        complex_gain=complex(gain),
        aod=angles_world(first_hop - bs),
        aoa=angles_world(last_hop - ue),
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
