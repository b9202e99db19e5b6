import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrain.scene import (PATH_KINDS, SceneConfig, SceneSnapshot, _bus_boxes, _segments_blocked,
                             generate_snapshot, trace_paths, trace_snapshot)
from reference_scene import blocked as _blocked_reference
from reference_scene import generate_snapshot_reference
from reference_scene import reflection_point, segment_hits_box
from reference_scene import trace_paths as trace_paths_reference


def _blocked(p0, p1, boxes, exclude=None) -> bool:
    """The array slab test for one segment."""
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 2, 3)
    return bool(_segments_blocked(p0[None], p1[None], boxes,
                                  [-1 if exclude is None else exclude])[0])


def _roof(snap, ue):
    """The roof-mounted antenna position of vehicle `ue`."""
    return np.array([*snap.center[ue, :2], snap.dims[ue, 2]])


def _assert_same_snapshot(a, b):
    """Every field of the two snapshots is equal, arrays bit for bit and
    in dtype."""
    for f in dataclasses.fields(SceneSnapshot):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert type(x) is type(y), f.name
        assert np.asarray(x).dtype == np.asarray(y).dtype, f.name
        assert np.array_equal(x, y), f.name


def test_snapshot_determinism():
    cfg = SceneConfig()
    a = generate_snapshot(cfg, 123, snapshot_id=5)
    b = generate_snapshot(cfg, 123, snapshot_id=5)
    assert [f.name for f in dataclasses.fields(SceneSnapshot)] == [
        "center", "dims", "is_bus", "ue_indices", "snapshot_id"]
    _assert_same_snapshot(a, b)
    assert a.snapshot_id == 5 and len(a.is_bus) > 0 and a.ue_indices


@pytest.mark.parametrize("key,value", [
    *(pytest.param("wall_clearance", v, id=str(v))
      for v in (0.0, -1.0, float("nan"), float("inf"))),
    ("carrier_frequency", 0.0), ("carrier_frequency", -28e9),
    ("carrier_frequency", float("nan")), ("carrier_frequency", float("inf")),
    ("subcarrier_count", 0), ("subcarrier_count", -1), ("subcarrier_count", 2.5),
    ("reference_snr_db", float("nan")), ("reference_snr_db", float("inf")),
    ("reference_snr_db", -float("inf")), ("reference_snr_db", 1e308),
    ("street_length", 6.0), ("street_length", float("inf")), ("street_length", float("nan")),
    ("lane_count", 0), ("lane_count", -2), ("lane_count", 2.5),
    ("lane_width", 0.0), ("lane_width", -3.5), ("lane_width", float("nan")),
    ("lane_width", float("inf")),
    ("max_gap", 1.0), ("max_gap", float("nan")),
    ("min_gap", -1.0), ("min_gap", float("nan")),
    ("car_dims", (1.75, 0.0, 1.5)), ("car_dims", (-1.75, 4.5, 1.5)),
    ("car_dims", (1.75, 4.5, float("nan"))), ("car_dims", (1.75, 4.5)),
    ("bus_dims", (2.5, -12.0, 3.8)), ("bus_dims", (0.0, 12.0, 3.8)),
    ("bus_dims", (2.5, float("inf"), 3.8)),
    ("bs_height", -10.0), ("wall_height", -5.0), ("subcarrier_spacing", -120e3),
    ("wall_reflection", 3.0), ("bus_reflection", -0.1), ("bus_fraction", 1.5),
    ("ue_fraction", -0.1), ("roi_y_min", float("nan")), ("roi_y_min", float("inf")),
    ("blockage_margin", -5.0),
    ("lane_count", True), ("lane_width", "3.5"), ("car_dims", 4.5),
    # more than 100000 vehicles of 2 m gap + 4.5 m car a lane
    ("street_length", 650_001.0),
    # values at which the corpus stage's floats overflow or underflow
    ("lane_width", 1e300), ("bs_height", 1e300),
    ("carrier_frequency", 5e-324), ("carrier_frequency", 1e300),
    # values at which the rate stage would exhaust memory or time
    ("subcarrier_count", 10**9), ("lane_count", 10**7),
])
def test_config_rejects_degenerate_wall_clearance(key, value):
    """A physical key that no scene can use fails at construction, with an
    error naming the key."""
    with pytest.raises(ValueError, match=f"^{key} must be"):
        SceneConfig(**{key: value})


def test_zero_bus_fraction_gives_only_cars():
    cfg = dataclasses.replace(SceneConfig(), bus_fraction=0.0)
    snap = generate_snapshot(cfg, 1)
    assert len(snap.is_bus) > 0 and not snap.is_bus.any()


def test_vehicles_stay_in_lane_and_do_not_overlap():
    cfg = SceneConfig()
    snap = generate_snapshot(cfg, 9)
    by_lane = {}
    for center, dims in zip(snap.center.tolist(), snap.dims.tolist()):
        by_lane.setdefault(center[0], []).append((center, dims))
    assert len(by_lane) == cfg.lane_count
    for lane_x, vehicles in by_lane.items():
        lane = lane_x / cfg.lane_width - 0.5
        assert abs(lane - round(lane)) < 1e-9
        spans = sorted((center[1] - dims[1] / 2, center[1] + dims[1] / 2)
                       for center, dims in vehicles)
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert lo >= hi  # ordered along the lane, no overlap


def test_ues_are_cars_inside_roi():
    cfg = SceneConfig()
    snap = generate_snapshot(cfg, 4)
    x0, x1, y0, y1 = cfg.region_of_interest
    assert snap.ue_indices
    for idx in snap.ue_indices:
        x, y, _ = snap.center[idx]
        assert not snap.is_bus[idx]
        assert x0 <= x <= x1 and y0 <= y <= y1


def test_corpus_size_500_seeds():
    cfg = SceneConfig()
    total = sum(len(generate_snapshot(cfg, seed).ue_indices) for seed in range(500))
    assert total >= 5000


def test_too_short_street_raises():
    """A street too short for one car after the smallest gap is rejected by
    the config, which generate_snapshot then trusts."""
    with pytest.raises(ValueError, match="^street_length must be"):
        dataclasses.replace(SceneConfig(), street_length=3.0)
    # a lane of nanometre cars without gaps would place about 1.6e11 of them
    with pytest.raises(ValueError, match="^street_length must be"):
        SceneConfig(car_dims=(1.75, 1e-9, 1.5), bus_fraction=0.0, min_gap=0.0, max_gap=1e-9)
    # the shortest street allowed: min_gap 2 m + a 4.5 m car
    assert generate_snapshot(SceneConfig(street_length=6.5), 0).center.shape[1] == 3


_STREETS = st.builds(
    SceneConfig,
    lane_count=st.integers(1, 5), lane_width=st.sampled_from([2.5, 3.5, 4.25]),
    # 6 m is the shortest street every drawn min_gap allows (1.5 m + a
    # 4.5 m car); short streets hold a few vehicles, some lanes none
    street_length=st.one_of(st.floats(6.0, 20.0), st.floats(20.0, 200.0)),
    min_gap=st.floats(0.5, 1.5), max_gap=st.floats(1.5, 12.0),
    bus_fraction=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    ue_fraction=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    roi_y_min=st.floats(0.0, 60.0))


@settings(max_examples=300, deadline=None)
@given(cfg=_STREETS, seed=st.integers(0, 2 ** 32 - 1))
def test_generator_matches_per_vehicle_reference(cfg, seed):
    """The array generator places the vehicles of the per-vehicle reference
    bit for bit, picks the same UEs and leaves the RNG at the same draw:
    the single UE draw takes one number per car in the region of interest,
    like the reference's scalar draws."""
    rng, rng_reference = np.random.default_rng(seed), np.random.default_rng(seed)
    _assert_same_snapshot(generate_snapshot(cfg, rng, snapshot_id=3),
                          generate_snapshot_reference(cfg, rng_reference, snapshot_id=3))
    assert rng.random() == rng_reference.random()


def _car(cfg, x, y):
    return ((x, y, cfg.car_dims[2] / 2.0), cfg.car_dims, False)


def _bus(cfg, x, y):
    return ((x, y, cfg.bus_dims[2] / 2.0), cfg.bus_dims, True)


def _snapshot_with(vehicles, ue_indices):
    """A snapshot of the given (center, dims, is_bus) vehicles."""
    center, dims, is_bus = zip(*vehicles)
    return SceneSnapshot(center=np.array(center, dtype=float), dims=np.array(dims, dtype=float),
                         is_bus=np.array(is_bus, dtype=bool), ue_indices=tuple(ue_indices),
                         snapshot_id=0)


def test_clear_los_yields_los_plus_two_wall_reflections():
    cfg = dataclasses.replace(SceneConfig(), bus_fraction=0.0)
    snap = generate_snapshot(cfg, 2)
    table = trace_paths(snap, snap.ue_indices[0], cfg)
    assert sorted(PATH_KINDS[k] for k in table.kind) == ["los", "wall", "wall"]


def test_bus_straddling_los_blocks_it():
    cfg = SceneConfig()
    car = _car(cfg, 1.75, 100.0)
    # bus just ahead of the car, tall enough to cut the descending sight line
    bus = _bus(cfg, 1.6, 90.0)
    snap = _snapshot_with([car, bus], [0])
    table = trace_paths(snap, 0, cfg)
    assert PATH_KINDS.index("los") not in table.kind


def test_wall_reflection_matches_image_source_oracle():
    cfg = SceneConfig()
    snap = _snapshot_with([_car(cfg, 7.0, 80.0)], [0])
    table = trace_paths(snap, 0, cfg)
    left_wall = np.flatnonzero(table.kind == PATH_KINDS.index("wall"))[0]

    # independent image-source computation for the x = -2 wall
    bs = cfg.bs_position
    ue = np.array([7.0, 80.0, cfg.car_dims[2]])
    image = np.array([2 * (-2.0) - bs[0], bs[1], bs[2]])
    dist = np.linalg.norm(ue - image)
    assert abs(table.delay[left_wall] - dist / 299792458.0) < 1e-15
    # reflection point from similar triangles, then departure/arrival directions
    t = (-2.0 - image[0]) / (ue[0] - image[0])
    point = image + t * (ue - image)
    dep = point - bs
    assert np.allclose(table.departure[left_wall], dep / np.linalg.norm(dep), atol=1e-12)
    arr = point - ue
    assert np.allclose(table.arrival[left_wall], arr / np.linalg.norm(arr), atol=1e-12)
    lam = 299792458.0 / cfg.carrier_frequency
    assert abs(abs(table.gain[left_wall]) - cfg.wall_reflection * lam / (4 * np.pi * dist)) < 1e-18


def test_reflection_delays_exceed_los():
    cfg = dataclasses.replace(SceneConfig(), bus_fraction=0.3)
    snap = generate_snapshot(cfg, 11)
    for idx in snap.ue_indices:
        table = trace_paths(snap, idx, cfg)
        los = table.delay[table.kind == PATH_KINDS.index("los")]
        if len(los):
            assert np.all(table.delay >= los[0] - 1e-15)


def test_segment_box_blockage():
    boxes = [(np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0]))]
    assert _blocked(np.array([-5.0, 0.0, 0.0]), np.array([5.0, 0.0, 0.0]), boxes)
    assert not _blocked(np.array([-5.0, 5.0, 0.0]), np.array([5.0, 5.0, 0.0]), boxes)
    assert not _blocked(np.array([-5.0, 0.0, 0.0]), np.array([5.0, 0.0, 0.0]), boxes, exclude=0)


def test_reflection_point_on_plane():
    bs = np.array([0.0, 0.0, 10.0])
    ue = np.array([7.0, 60.0, 1.5])
    p = reflection_point(bs, ue, -2.0)
    assert abs(p[0] - (-2.0)) < 1e-12
    # mirror law: normal components flip, tangential components match
    u_in = (p - bs) / np.linalg.norm(p - bs)
    u_out = (ue - p) / np.linalg.norm(ue - p)
    assert np.isclose(u_in[0], -u_out[0])
    assert np.allclose(u_in[1:], u_out[1:])


# coordinates on a half-metre grid make segments parallel to an axis, points
# on box faces and degenerate boxes common; free floats cover the rest
_COORD = st.one_of(st.integers(-6, 6).map(lambda i: i / 2.0), st.floats(-4.0, 4.0))
_POINT = st.tuples(_COORD, _COORD, _COORD).map(np.array)
# per-axis offsets of the segment end, including |d| below and above 1e-12
_OFFSET = st.one_of(st.sampled_from([0.0, 5e-13, -5e-13, 2e-12]), _COORD)
# box sizes include zero and, as a negative blockage margin can give, negative
_SIZE = st.tuples(*[st.one_of(st.just(0.0), st.floats(-1.0, 3.0))] * 3).map(np.array)


@settings(max_examples=500, deadline=None)
@given(p0=_POINT, offset=st.tuples(_OFFSET, _OFFSET, _OFFSET), data=st.data())
def test_blocked_matches_scalar_slab_test(p0, offset, data):
    p1 = p0 + np.array(offset)
    # boxes anywhere, and boxes around a point of the segment's line before
    # its start, on it, or past its end
    corner = st.one_of(_POINT, st.floats(-2.0, 3.0).map(lambda s: p0 + s * (p1 - p0) - 0.5))
    raw = data.draw(st.lists(st.tuples(corner, _SIZE), max_size=5))
    boxes = np.array([(lo, lo + size) for lo, size in raw]).reshape(-1, 2, 3)
    exclude = data.draw(st.one_of(st.none(), st.integers(0, len(raw) - 1)) if raw else st.none())
    assert _blocked(p0, p1, boxes, exclude) == _blocked_reference(p0, p1, boxes, exclude)
    for b in range(len(boxes)):
        assert _blocked(p0, p1, boxes[b:b + 1]) == segment_hits_box(p0, p1, *boxes[b])
    # one call for the segment, its reverse and the midpoint legs, each with
    # every exclude: the same answers as segment by segment
    mid = (p0 + p1) / 2.0
    legs = [(p0, p1), (p1, p0), (p0, mid), (mid, p1)]
    excludes = [None, *range(len(boxes))]
    cases = [(a, b, e) for a, b in legs for e in excludes]
    got = _segments_blocked(np.array([a for a, _, _ in cases]), np.array([b for _, b, _ in cases]),
                            boxes, [-1 if e is None else e for _, _, e in cases])
    assert got.tolist() == [_blocked_reference(a, b, boxes, e) for a, b, e in cases]


def _path_bits(path):
    floats = (path.complex_gain.real, path.complex_gain.imag, path.delay, *path.departure,
              *path.arrival)
    return (path.kind, *(float(v).hex() for v in floats))


def _table_bits(table, rows=slice(None)):
    """_path_bits of the table's rows, read from the arrays themselves."""
    return [(PATH_KINDS[table.kind[n]],
             *(float(v).hex() for v in (table.gain[n].real, table.gain[n].imag, table.delay[n],
                                        *table.departure[n], *table.arrival[n])))
            for n in range(len(table.ue))[rows]]


def _assert_table_matches_reference(snap, cfg):
    """The snapshot's path table holds every UE's reference paths, bit for
    bit and in order, and nothing else; each UE's own table agrees."""
    table = trace_snapshot(snap, cfg)
    rows = table.ue_rows(snap.ue_indices)
    assert sum(r.stop - r.start for r in rows) == len(table.ue)
    for ue, r in zip(snap.ue_indices, rows):
        expected = [_path_bits(p) for p in trace_paths_reference(snap, ue, cfg)]
        assert np.all(table.ue[r] == ue)
        assert _table_bits(table, r) == expected
        per_ue = trace_paths(snap, ue, cfg)
        assert np.all(per_ue.ue == ue)
        assert _table_bits(per_ue) == expected
    return table


@pytest.mark.parametrize("bus_fraction,seed", [(0.2, 1), (0.2, 2), (0.5, 3), (0.8, 4)])
def test_trace_paths_same_as_with_scalar_slab_test(bus_fraction, seed):
    """The path table gives the path lists of the per-UE reference tracer
    and its per-box scalar slab test, bit for bit, and the bus boxes are
    the per-vehicle corners."""
    cfg = dataclasses.replace(SceneConfig(), bus_fraction=bus_fraction)
    snaps = [generate_snapshot(cfg, seed * 100 + i, snapshot_id=i) for i in range(6)]
    for snap in snaps:
        buses = np.flatnonzero(snap.is_bus)
        boxes = _bus_boxes(snap, cfg.blockage_margin)
        assert boxes.shape == (len(buses), 2, 3)
        for bus, (lo, hi) in zip(buses, boxes):
            center, dims = snap.center[bus].tolist(), snap.dims[bus].tolist()
            half = np.array([dims[0] / 2.0, dims[1] / 2.0, dims[2] / 2.0]) + cfg.blockage_margin
            assert np.array_equal(lo, np.asarray(center) - half)
            assert np.array_equal(hi, np.asarray(center) + half)
    fast = [_table_bits(trace_paths(s, u, cfg)) for s in snaps for u in s.ue_indices]
    slow = [[_path_bits(p) for p in trace_paths_reference(s, u, cfg)]
            for s in snaps for u in s.ue_indices]
    assert fast == slow
    assert sum(map(len, fast)) > 0
    for snap in snaps:
        _assert_table_matches_reference(snap, cfg)


_SCENES = st.builds(
    SceneConfig,
    lane_count=st.integers(1, 5), lane_width=st.sampled_from([2.5, 3.5, 4.25]),
    street_length=st.floats(40.0, 200.0), bs_height=st.sampled_from([4.0, 10.0, 22.5]),
    wall_clearance=st.floats(0.0, 5.0, exclude_min=True), wall_height=st.floats(3.0, 30.0),
    min_gap=st.floats(0.5, 3.0), max_gap=st.floats(3.0, 12.0),
    bus_fraction=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    ue_fraction=st.one_of(st.just(0.0), st.floats(0.3, 1.0)),
    roi_y_min=st.floats(0.0, 30.0), blockage_margin=st.floats(-0.5, 1.5),
    wall_reflection=st.floats(0.1, 1.0), bus_reflection=st.floats(0.1, 1.0))


def _onto_wall_ends(snap, cfg, ue):
    """cfg with the street length or wall height moved onto a wall
    reflection point of `ue`, so that the point sits on the wall's end; a
    point nearer the BS than the shortest street the config allows is
    skipped."""
    bs = cfg.bs_position
    ue_xyz = _roof(snap, ue)
    for wall_x in cfg.wall_x:
        p = reflection_point(bs, ue_xyz, wall_x)
        if p is not None and p[1] >= cfg.min_gap + cfg.car_dims[1] and p[2] > 0.0:
            return dataclasses.replace(cfg, street_length=float(p[1]), wall_height=float(p[2]))
    return cfg


def _onto_panel_ends(snap, cfg, ue, bus):
    """snap with the bus's length and height set so that a panel reflection
    point of `ue` sits on the panel's end and top edge."""
    center, dims = snap.center[bus].tolist(), snap.dims[bus].tolist()
    bs, ue_xyz = cfg.bs_position, _roof(snap, ue)
    for panel_x in (center[0] - dims[0] / 2.0, center[0] + dims[0] / 2.0):
        outward = np.sign(panel_x - center[0])
        if np.sign(bs[0] - panel_x) != outward or np.sign(ue_xyz[0] - panel_x) != outward:
            continue   # the panel faces away from the BS or the UE
        p = reflection_point(bs, ue_xyz, panel_x)
        if p is None or p[2] <= 0.0:
            continue
        moved_center, moved_dims = snap.center.copy(), snap.dims.copy()
        moved_dims[bus] = (dims[0], 2.0 * abs(float(p[1]) - center[1]), float(p[2]))
        moved_center[bus, 2] = moved_dims[bus, 2] / 2.0
        return dataclasses.replace(snap, center=moved_center, dims=moved_dims)
    return snap


def test_reflections_on_wall_and_panel_ends_are_kept():
    """A reflection point exactly on the end of a wall or a bus panel
    (`<=` on every bound) gives a path."""
    car, bus = _car(SceneConfig(), 5.25, 70.0), _bus(SceneConfig(), 12.25, 90.0)
    cfg = _onto_wall_ends(_snapshot_with([car], [0]), SceneConfig(), 0)
    snap = _onto_panel_ends(_snapshot_with([car, bus], [0]), cfg, 0, 1)
    assert not np.array_equal(snap.dims[1], bus[1]) and cfg != SceneConfig()
    table = _assert_table_matches_reference(snap, cfg)
    assert sorted(PATH_KINDS[k] for k in table.kind) == ["bus", "los", "wall"]


# a wall clearance of about 1e-275 m puts a reflection point onto the BS:
# both routes then divide a zero-length leg by its zero norm alike
@pytest.mark.filterwarnings("ignore:.*encountered in divide:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(cfg=_SCENES, seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_path_table_matches_reference_tracer(cfg, seed, data):
    """Random streets: any bus fraction, snapshots without buses or UEs,
    fully blocked UEs, and reflection points on wall and panel ends."""
    snap = generate_snapshot(cfg, seed)
    if snap.ue_indices and data.draw(st.booleans()):
        ue = data.draw(st.sampled_from(snap.ue_indices))
        cfg = _onto_wall_ends(snap, cfg, ue)
        buses = np.flatnonzero(snap.is_bus).tolist()
        if buses:
            snap = _onto_panel_ends(snap, cfg, ue, data.draw(st.sampled_from(buses)))
    table = _assert_table_matches_reference(snap, cfg)
    assert table.gain.dtype == complex
    assert table.departure.shape == table.arrival.shape == (len(table.ue), 3)


def test_path_table_edge_snapshots():
    """No UE, no bus, and every UE fully blocked by one huge bus box."""
    cfg = SceneConfig()
    empty = _snapshot_with([_car(cfg, 1.75, 50.0)], [])
    table = _assert_table_matches_reference(empty, cfg)
    assert len(table.ue) == 0 and table.departure.shape == table.arrival.shape == (0, 3)
    no_bus = dataclasses.replace(cfg, bus_fraction=0.0)
    snap = generate_snapshot(no_bus, 3)
    assert len(_assert_table_matches_reference(snap, no_bus).ue) == 3 * len(snap.ue_indices)
    walled = dataclasses.replace(cfg, blockage_margin=500.0)
    snap = generate_snapshot(dataclasses.replace(cfg, bus_fraction=0.5), 5)
    assert snap.is_bus.any() and snap.ue_indices
    table = _assert_table_matches_reference(snap, walled)
    assert len(table.ue) == 0
    assert all(r.start == r.stop for r in table.ue_rows(snap.ue_indices))
