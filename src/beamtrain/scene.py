"""Randomized street snapshots and geometric multipath tracing.

The street runs along the +y axis with the base station at the origin
(antenna height on a wall). Two building walls parallel to the road and the
metal side panels of buses act as first-order specular reflectors (image
method); bus bounding boxes act as blockers. Cars carry roof-mounted UEs.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .arrays import SPEED_OF_LIGHT, direction_angles, row_norms, wavelength

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


PATH_KINDS = ("los", "wall", "bus")


@dataclass(frozen=True)
class PathTable:
    """The traced paths of one snapshot as arrays, one row per path.

    Rows are grouped by UE in ascending vehicle index. Within a UE they run
    LOS, then the walls in `wall_x` order, then bus side panels in vehicle
    order, each bus's `cx - w/2` panel before its `cx + w/2` panel: the
    order of the per-UE path lists.
    """
    ue: np.ndarray      # (P,) vehicle index of the path's UE
    kind: np.ndarray    # (P,) index into PATH_KINDS
    gain: np.ndarray    # (P,) complex gain
    delay: np.ndarray   # (P,) seconds
    aod: np.ndarray     # (P, 2) world-frame (azimuth, elevation) at the BS
    aoa: np.ndarray     # (P, 2) world-frame (azimuth, elevation) at the UE

    @classmethod
    def from_paths(cls, paths) -> "PathTable":
        """A table of one UE's path list; its `ue` column is -1."""
        return cls(ue=np.full(len(paths), -1),
                   kind=np.array([PATH_KINDS.index(p.kind) for p in paths], dtype=int),
                   gain=np.array([p.complex_gain for p in paths], dtype=complex),
                   delay=np.array([p.delay for p in paths], dtype=float),
                   aod=np.array([p.aod for p in paths], dtype=float).reshape(-1, 2),
                   aoa=np.array([p.aoa for p in paths], dtype=float).reshape(-1, 2))

    def paths(self) -> list[PathComponent]:
        return [PathComponent(complex_gain=g, aod=tuple(d), aoa=tuple(a), delay=t,
                              kind=PATH_KINDS[k])
                for g, d, a, t, k in zip(self.gain.tolist(), self.aod.tolist(),
                                         self.aoa.tolist(), self.delay.tolist(),
                                         self.kind.tolist())]

    def ue_rows(self, ue_indices) -> list[slice]:
        """The row slice of each UE in `ue_indices`; empty for a UE without
        paths."""
        starts = np.searchsorted(self.ue, ue_indices, side="left").tolist()
        ends = np.searchsorted(self.ue, ue_indices, side="right").tolist()
        return [slice(s, e) for s, e in zip(starts, ends)]


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


def _segments_blocked(p0, p1, boxes, exclude) -> np.ndarray:
    """Slab test of every segment p0[s] -> p1[s] against every box at once.

    `p0` and `p1` are (S, 3), `boxes` holds (lo, hi) corner pairs, shape
    (B, 2, 3), and segment s skips box exclude[s] (-1 skips none). On an axis
    a segment is parallel to (|d| < 1e-12) a box is missed unless p0 lies
    within its slab; on every other axis the segment parameter is clipped to
    the slab's [t0, t1], and a box is hit when the clipped part of [0, 1] is
    not empty. Returns (S,) bool: whether any box blocks each segment.
    """
    lo, hi = boxes[None, :, 0], boxes[None, :, 1]
    p0 = p0[:, None, :]
    d = p1[:, None, :] - p0
    flat = np.abs(d) < 1e-12
    step = np.where(flat, 1.0, d)
    t0 = (lo - p0) / step
    t1 = (hi - p0) / step
    t_min = np.where(flat, 0.0, np.minimum(t0, t1)).max(axis=2, initial=0.0)
    t_max = np.where(flat, 1.0, np.maximum(t0, t1)).min(axis=2, initial=1.0)
    hit = (t_min <= t_max) & np.all(~flat | ((lo <= p0) & (p0 <= hi)), axis=2)
    hit &= np.arange(len(boxes)) != np.asarray(exclude)[:, None]
    return hit.any(axis=1)


def _trace(snapshot: SceneSnapshot, ue_indices, config: SceneConfig) -> PathTable:
    """Path table of the given UEs (in the given order): LOS plus
    first-order specular reflections (image method) off the two building
    walls and off bus side panels, with bus bounding-box blockage.

    Every step runs on all (UE, candidate path) pairs at once with the same
    float operations, in the same order, as a per-UE scalar tracer, so each
    row equals that tracer's path bit for bit.
    """
    bs = config.bs_position
    lam = wavelength(config.carrier_frequency)
    boxes = _bus_boxes(snapshot, config.blockage_margin)
    ue = np.array([snapshot.ue_position(i, config) for i in ue_indices], dtype=float).reshape(-1, 3)
    buses = [v for v in snapshot.vehicles if v.kind == "bus"]
    bus_center = np.array([v.center for v in buses], dtype=float).reshape(-1, 3)
    bus_dims = np.array([v.dims for v in buses], dtype=float).reshape(-1, 3)
    n_walls = len(config.wall_x)

    # reflection planes x = plane_x: the walls, then each bus's two panels;
    # per panel the bus index, centre and dims, repeated for both panels
    cx, w = bus_center[:, 0], bus_dims[:, 0]
    plane_x = np.concatenate([config.wall_x, np.stack([cx - w / 2.0, cx + w / 2.0], axis=1).ravel()])
    owner = np.repeat(np.arange(len(buses)), 2)
    center, dims = bus_center[owner], bus_dims[owner]

    # image method for all (UE, plane) pairs: the BS mirrored in the plane,
    # and the point where the image -> UE line crosses it
    image_x = 2.0 * plane_x - bs[0]
    dx = ue[:, 0, None] - image_x
    crosses = np.abs(dx) >= 1e-12
    t = (plane_x - image_x) / np.where(crosses, dx, 1.0)
    crosses &= (0.0 < t) & (t < 1.0)
    py = bs[1] + t * (ue[:, 1, None] - bs[1])
    pz = bs[2] + t * (ue[:, 2, None] - bs[2])
    point = np.stack([image_x + t * dx, py, pz], axis=2)
    on_wall = ((0.0 <= py) & (py <= config.street_length)
               & (0.0 <= pz) & (pz <= config.wall_height))[:, :n_walls]
    panel_x = plane_x[n_walls:]
    outward = np.sign(panel_x - center[:, 0])
    on_panel = ((np.sign(bs[0] - panel_x) == outward)
                & (np.sign(ue[:, 0, None] - panel_x) == outward)
                & (np.abs(py[:, n_walls:] - center[:, 1]) <= dims[:, 1] / 2.0)
                & (0.0 <= pz[:, n_walls:]) & (pz[:, n_walls:] <= dims[:, 2]))
    ue_of, plane_of = np.nonzero(crosses & np.concatenate([on_wall, on_panel], axis=1))
    p = point[ue_of, plane_of]
    exclude = np.concatenate([np.full(n_walls, -1), owner])[plane_of]

    # one slab test: every LOS segment, then both legs of every reflection
    n_ue, n_refl = len(ue), len(p)
    blocked = _segments_blocked(
        np.concatenate([np.broadcast_to(bs, ue.shape), np.broadcast_to(bs, p.shape), p]),
        np.concatenate([ue, p, ue[ue_of]]),
        boxes, np.concatenate([np.full(n_ue, -1), exclude, exclude]))
    keep = np.zeros((n_ue, 1 + len(plane_x)), dtype=bool)
    keep[:, 0] = ~blocked[:n_ue]
    keep[ue_of, 1 + plane_of] = ~(blocked[n_ue:n_ue + n_refl] | blocked[n_ue + n_refl:])

    # kept paths in (UE, LOS, planes) order; an LOS path departs toward the
    # UE and arrives from the BS, a reflection departs and arrives via p
    hop = np.zeros((n_ue, 1 + len(plane_x), 3))
    hop[:, 0] = ue
    hop[ue_of, 1 + plane_of] = p
    rows_ue, col = np.nonzero(keep)
    los = col == 0
    departure = hop[rows_ue, col] - bs
    arrival = np.where(los[:, None], bs, hop[rows_ue, col]) - ue[rows_ue]
    dist_out = row_norms(departure)
    dist_in = row_norms(arrival)
    total = np.where(los, dist_out, dist_out + dist_in)
    refl_amp = np.concatenate([[1.0], np.full(n_walls, config.wall_reflection),
                               np.full(len(panel_x), config.bus_reflection)])[col]
    amp = refl_amp * lam / (4.0 * np.pi * total)
    # exp(-2j pi total / lam) with the phase formed as in scalar complex
    # arithmetic: real part +0.0, imaginary part (-2 pi total) / lam
    phase = np.zeros(len(total), dtype=complex)
    phase.imag = -2.0 * np.pi * total / lam
    return PathTable(
        ue=np.asarray(ue_indices, dtype=int)[rows_ue],
        kind=np.where(los, 0, np.where(col <= n_walls, 1, 2)),
        gain=amp * np.exp(phase),
        delay=total / SPEED_OF_LIGHT,
        aod=np.stack(direction_angles(departure / dist_out[:, None]), axis=1),
        aoa=np.stack(direction_angles(arrival / dist_in[:, None]), axis=1),
    )


def trace_snapshot(snapshot: SceneSnapshot, config: SceneConfig) -> PathTable:
    """The path table of every UE of the snapshot. A UE whose paths are all
    blocked has no rows."""
    return _trace(snapshot, sorted(set(snapshot.ue_indices)), config)


def trace_paths(snapshot: SceneSnapshot, ue_index: int, config: SceneConfig) -> list[PathComponent]:
    """One UE's paths as a list: its rows of the path table. May be empty."""
    if ue_index not in snapshot.ue_indices:
        raise ValueError(f"vehicle {ue_index} is not a UE in this snapshot")
    return _trace(snapshot, [ue_index], config).paths()
