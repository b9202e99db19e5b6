"""Randomized street snapshots and geometric multipath tracing.

The street runs along the +y axis with the base station at the origin
(antenna height on a wall). Two building walls parallel to the road and the
metal side panels of buses act as first-order specular reflectors (image
method); bus bounding boxes act as blockers. Cars carry roof-mounted UEs.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .arrays import SPEED_OF_LIGHT, row_norms, wavelength
from .fileio import check, check_fields, integer, listof, real

log = logging.getLogger(__name__)

# lengths (m) and frequencies (Hz) stay at most 1e12, as at 1e300 the
# geometry or the noise power leaves the float range; wall_clearance 0
# starts the wall path at the BS, lane_width 0 stacks the lanes, and
# 10 ** (reference_snr_db / 10) must stay finite
_POSITIVE = real("(0, 1e12]")
_SCENE_RULES = {
    **dict.fromkeys(("lane_width", "street_length", "bs_height", "wall_clearance", "wall_height",
                     "subcarrier_spacing", "reference_distance"), _POSITIVE),
    "carrier_frequency": real("[1e6, 1e12]"),  # a radio carrier, with a finite wavelength
    # resource bounds: the rate stage's time and memory grow with both
    "lane_count": integer(1, 64),
    "subcarrier_count": integer(1, 4096),
    **dict.fromkeys(("min_gap", "max_gap"), real("[0, 1e12]")),
    **dict.fromkeys(("bus_fraction", "ue_fraction", "wall_reflection", "bus_reflection"),
                    real("[0, 1]")),
    **dict.fromkeys(("car_dims", "bus_dims"), listof(_POSITIVE, range(3, 4))),  # w, l, h
    **dict.fromkeys(("roi_y_min", "blockage_margin"), real("(-inf, inf)")),
    "noise_power": (lambda v: v is None or _POSITIVE[0](v), f"None or {_POSITIVE[1]}"),
    "reference_snr_db": real("[-300, 300]"),
}


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

    def __post_init__(self):
        check_fields(self, _SCENE_RULES)
        check("max_gap", self.max_gap, real(f"[{self.min_gap}, 1e12]"))
        # one car must fit, and each vehicle moves its lane's cursor on by at
        # least min_gap + the shortest length, so a lane holds at most 100000
        shortest = self.min_gap + min(self.car_dims[1], self.bus_dims[1])
        check("street_length", self.street_length,
              real(f"[{self.min_gap + self.car_dims[1]}, {100_000 * shortest}]"))
        # a bus box deflated by half its smallest side turns inside out
        check("blockage_margin", self.blockage_margin, real(f"({-min(self.bus_dims) / 2}, inf)"))
        # like reference_snr_db, noise_power keeps the peak SNR in [-300, 300] dB
        if self.noise_power is not None:
            check("noise_power", self.noise_power,
                  real(f"[{self.reference_gain / 1e30}, {self.reference_gain * 1e30}]"))

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
        return self.reference_gain / 10.0 ** (self.reference_snr_db / 10.0)

    @property
    def reference_gain(self) -> float:
        """Power gain of an unblocked path at the reference distance."""
        return (wavelength(self.carrier_frequency) / (4.0 * np.pi * self.reference_distance)) ** 2


@dataclass(frozen=True)
class SceneSnapshot:
    """The vehicles of one snapshot as arrays, one row per vehicle in
    placement order (lane by lane, then along the lane)."""
    center: np.ndarray        # (V, 3) body centre (x, y, z), z = height/2
    dims: np.ndarray          # (V, 3) width, length, height
    is_bus: np.ndarray        # (V,) bool: a bus, else a car
    ue_indices: tuple         # vehicle indices of the cars acting as UEs
    snapshot_id: int

    def ue_location(self, ue_index: int) -> np.ndarray:
        return self.center[ue_index, :2].copy()


PATH_KINDS = ("los", "wall", "bus")


@dataclass(frozen=True)
class PathTable:
    """The traced paths of one snapshot as arrays, one row per path.

    Rows are grouped by UE in ascending vehicle index. Within a UE they run
    LOS, then the walls in `wall_x` order, then bus side panels in vehicle
    order, each bus's `cx - w/2` panel before its `cx + w/2` panel.
    """
    ue: np.ndarray          # (P,) vehicle index of the path's UE
    kind: np.ndarray        # (P,) index into PATH_KINDS
    gain: np.ndarray        # (P,) complex gain
    delay: np.ndarray       # (P,) seconds
    departure: np.ndarray   # (P, 3) world-frame unit vector from the BS to the first hop
    arrival: np.ndarray     # (P, 3) world-frame unit vector from the UE to the last hop

    def ue_rows(self, ue_indices) -> list[slice]:
        """The row slice of each UE in `ue_indices`; empty for a UE without
        paths."""
        starts = np.searchsorted(self.ue, ue_indices, side="left").tolist()
        ends = np.searchsorted(self.ue, ue_indices, side="right").tolist()
        return [slice(s, e) for s, e in zip(starts, ends)]


def generate_snapshot(config: SceneConfig, seed, snapshot_id: int = 0) -> SceneSnapshot:
    """Place vehicles lane by lane with uniform inter-vehicle gaps; cars in
    the region of interest become UEs with probability ue_fraction.

    The draws are frozen: per lane a gap then a bus flag for each vehicle
    (and for the one that no longer fits), then one UE flag per car in the
    region of interest, in vehicle order. Those flags are one
    `rng.random(k)` draw, which gives the same k numbers as k scalar draws.
    A change to that order changes every corpus.
    """
    rng = np.random.default_rng(seed)
    placed = []   # (lane x, y centre, is bus) per vehicle
    for lane in range(config.lane_count):
        lane_x = (lane + 0.5) * config.lane_width
        cursor = 0.0
        while True:
            gap = rng.uniform(config.min_gap, config.max_gap)
            is_bus = rng.random() < config.bus_fraction
            length = (config.bus_dims if is_bus else config.car_dims)[1]
            y_center = cursor + gap + length / 2.0
            if y_center + length / 2.0 > config.street_length:
                break
            placed.append((lane_x, y_center, is_bus))
            cursor = y_center + length / 2.0
    placed = np.array(placed, dtype=float).reshape(-1, 3)
    is_bus = placed[:, 2] == 1.0
    dims = np.where(is_bus[:, None], np.array(config.bus_dims, dtype=float),
                    np.array(config.car_dims, dtype=float))
    center = np.stack([placed[:, 0], placed[:, 1], dims[:, 2] / 2.0], axis=1)
    x0, x1, y0, y1 = config.region_of_interest
    x, y = center[:, 0], center[:, 1]
    roi_cars = np.flatnonzero(~is_bus & (x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1))
    ue_indices = roi_cars[rng.random(len(roi_cars)) < config.ue_fraction]
    return SceneSnapshot(center=center, dims=dims, is_bus=is_bus,
                         ue_indices=tuple(ue_indices.tolist()), snapshot_id=snapshot_id)


def _bus_boxes(snapshot: SceneSnapshot, margin: float) -> np.ndarray:
    """(lo, hi) corners of every bus box inflated by `margin`, in vehicle
    order: shape (buses, 2, 3)."""
    centers = snapshot.center[snapshot.is_bus]
    half = snapshot.dims[snapshot.is_bus] / 2.0 + margin
    return np.stack([centers - half, centers + half], axis=1)


def _segments_blocked(p0, p1, boxes, exclude) -> np.ndarray:
    """Slab test (Williams et al., J. Graphics Tools 2005) of every segment
    p0[s] -> p1[s] against every box at once.

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
    walls and off bus side panels, with bus bounding-box blockage. A bus
    does not block the legs of a path off its own panels.

    Every step runs on all (UE, candidate path) pairs at once with the same
    float operations, in the same order, as a per-UE scalar tracer, so each
    row equals that tracer's path bit for bit.
    """
    bs = config.bs_position
    lam = wavelength(config.carrier_frequency)
    boxes = _bus_boxes(snapshot, config.blockage_margin)
    # UEs are roof-mounted: at the car's (x, y) and its height
    idx = np.asarray(ue_indices, dtype=int)
    ue = np.column_stack([snapshot.center[idx, :2], snapshot.dims[idx, 2]])
    bus_center, bus_dims = snapshot.center[snapshot.is_bus], snapshot.dims[snapshot.is_bus]
    n_walls = len(config.wall_x)

    # reflection planes x = plane_x: the walls, then each bus's two panels;
    # per panel the bus index, centre and dims, repeated for both panels
    cx, w = bus_center[:, 0], bus_dims[:, 0]
    plane_x = np.concatenate([config.wall_x, np.stack([cx - w / 2.0, cx + w / 2.0], axis=1).ravel()])
    owner = np.repeat(np.arange(len(bus_center)), 2)
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
        departure=departure / dist_out[:, None],
        arrival=arrival / dist_in[:, None],
    )


def trace_snapshot(snapshot: SceneSnapshot, config: SceneConfig) -> PathTable:
    """The path table of every UE of the snapshot. A UE whose paths are all
    blocked has no rows."""
    return _trace(snapshot, sorted(set(snapshot.ue_indices)), config)


def trace_paths(snapshot: SceneSnapshot, ue_index: int, config: SceneConfig) -> PathTable:
    """One UE's rows of the path table. May be empty."""
    if ue_index not in snapshot.ue_indices:
        raise ValueError(f"vehicle {ue_index} is not a UE in this snapshot")
    return _trace(snapshot, [ue_index], config)
