import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrain import scene
from beamtrain.scene import (SceneConfig, _blocked, _bus_boxes, _reflection_point,
                             generate_snapshot, trace_paths)


def test_snapshot_determinism():
    cfg = SceneConfig()
    a = generate_snapshot(cfg, 123, snapshot_id=5)
    b = generate_snapshot(cfg, 123, snapshot_id=5)
    assert a == b


def test_zero_bus_fraction_gives_only_cars():
    cfg = dataclasses.replace(SceneConfig(), bus_fraction=0.0)
    snap = generate_snapshot(cfg, 1)
    assert all(v.kind == "car" for v in snap.vehicles)


def test_vehicles_stay_in_lane_and_do_not_overlap():
    cfg = SceneConfig()
    snap = generate_snapshot(cfg, 9)
    by_lane = {}
    for v in snap.vehicles:
        by_lane.setdefault(v.center[0], []).append(v)
    assert len(by_lane) == cfg.lane_count
    for lane_x, vehicles in by_lane.items():
        lane = lane_x / cfg.lane_width - 0.5
        assert abs(lane - round(lane)) < 1e-9
        spans = sorted((v.center[1] - v.dims[1] / 2, v.center[1] + v.dims[1] / 2)
                       for v in vehicles)
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert lo >= hi  # ordered along the lane, no overlap


def test_ues_are_cars_inside_roi():
    cfg = SceneConfig()
    snap = generate_snapshot(cfg, 4)
    x0, x1, y0, y1 = cfg.region_of_interest
    assert snap.ue_indices
    for idx in snap.ue_indices:
        v = snap.vehicles[idx]
        assert v.kind == "car"
        assert x0 <= v.center[0] <= x1 and y0 <= v.center[1] <= y1


def test_corpus_size_500_seeds():
    cfg = SceneConfig()
    total = sum(len(generate_snapshot(cfg, seed).ue_indices) for seed in range(500))
    assert total >= 5000


def test_too_short_street_raises():
    cfg = dataclasses.replace(SceneConfig(), street_length=3.0)
    with pytest.raises(ValueError):
        generate_snapshot(cfg, 0)


def _snapshot_with(cfg, vehicles, ue_indices):
    snap = generate_snapshot(cfg, 0)
    return dataclasses.replace(snap, vehicles=tuple(vehicles), ue_indices=tuple(ue_indices))


def test_clear_los_yields_los_plus_two_wall_reflections():
    cfg = dataclasses.replace(SceneConfig(), bus_fraction=0.0)
    snap = generate_snapshot(cfg, 2)
    paths = trace_paths(snap, snap.ue_indices[0], cfg)
    kinds = sorted(p.kind for p in paths)
    assert kinds == ["los", "wall", "wall"]


def test_bus_straddling_los_blocks_it():
    from beamtrain.scene import Vehicle
    cfg = SceneConfig()
    car = Vehicle(kind="car", center=(1.75, 100.0, 0.75), dims=cfg.car_dims)
    # bus just ahead of the car, tall enough to cut the descending sight line
    bus = Vehicle(kind="bus", center=(1.6, 90.0, 1.9), dims=cfg.bus_dims)
    snap = _snapshot_with(cfg, [car, bus], [0])
    paths = trace_paths(snap, 0, cfg)
    assert all(p.kind != "los" for p in paths)


def test_wall_reflection_matches_image_source_oracle():
    from beamtrain.scene import Vehicle
    cfg = SceneConfig()
    car = Vehicle(kind="car", center=(7.0, 80.0, 0.75), dims=cfg.car_dims)
    snap = _snapshot_with(cfg, [car], [0])
    paths = trace_paths(snap, 0, cfg)
    left_wall = [p for p in paths if p.kind == "wall"][0]

    # independent image-source computation for the x = -2 wall
    bs = cfg.bs_position
    ue = np.array([7.0, 80.0, cfg.car_dims[2]])
    image = np.array([2 * (-2.0) - bs[0], bs[1], bs[2]])
    dist = np.linalg.norm(ue - image)
    assert abs(left_wall.delay - dist / 299792458.0) < 1e-15
    # reflection point from similar triangles, then departure/arrival angles
    t = (-2.0 - image[0]) / (ue[0] - image[0])
    point = image + t * (ue - image)
    dep = point - bs
    expected_aod = (np.arctan2(dep[1], dep[0]), np.arcsin(dep[2] / np.linalg.norm(dep)))
    assert np.allclose(left_wall.aod, expected_aod, atol=1e-12)
    arr = point - ue
    expected_aoa = (np.arctan2(arr[1], arr[0]), np.arcsin(arr[2] / np.linalg.norm(arr)))
    assert np.allclose(left_wall.aoa, expected_aoa, atol=1e-12)
    lam = 299792458.0 / cfg.carrier_frequency
    assert abs(abs(left_wall.complex_gain) - cfg.wall_reflection * lam / (4 * np.pi * dist)) < 1e-18


def test_reflection_delays_exceed_los():
    cfg = dataclasses.replace(SceneConfig(), bus_fraction=0.3)
    snap = generate_snapshot(cfg, 11)
    for idx in snap.ue_indices:
        paths = trace_paths(snap, idx, cfg)
        los = [p for p in paths if p.kind == "los"]
        if not los:
            continue
        for p in paths:
            assert p.delay >= los[0].delay - 1e-15


def test_segment_box_blockage():
    boxes = [(np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0]))]
    assert _blocked(np.array([-5.0, 0.0, 0.0]), np.array([5.0, 0.0, 0.0]), boxes)
    assert not _blocked(np.array([-5.0, 5.0, 0.0]), np.array([5.0, 5.0, 0.0]), boxes)
    assert not _blocked(np.array([-5.0, 0.0, 0.0]), np.array([5.0, 0.0, 0.0]), boxes, exclude=0)


def test_reflection_point_on_plane():
    bs = np.array([0.0, 0.0, 10.0])
    ue = np.array([7.0, 60.0, 1.5])
    p = _reflection_point(bs, ue, -2.0)
    assert abs(p[0] - (-2.0)) < 1e-12
    # mirror law: normal components flip, tangential components match
    u_in = (p - bs) / np.linalg.norm(p - bs)
    u_out = (ue - p) / np.linalg.norm(ue - p)
    assert np.isclose(u_in[0], -u_out[0])
    assert np.allclose(u_in[1:], u_out[1:])


def _segment_hits_box(p0, p1, lo, hi) -> bool:
    """Scalar slab test for a segment against one axis-aligned box: the
    reference for the array version in `scene._blocked`."""
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


def _blocked_reference(p0, p1, boxes, exclude=None) -> bool:
    for i, (lo, hi) in enumerate(boxes):
        if i == exclude:
            continue
        if _segment_hits_box(p0, p1, lo, hi):
            return True
    return False


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
        assert _blocked(p0, p1, boxes[b:b + 1]) == _segment_hits_box(p0, p1, *boxes[b])


def _path_bits(path):
    floats = (path.complex_gain.real, path.complex_gain.imag, path.delay, *path.aod, *path.aoa)
    return (path.kind, *(float(v).hex() for v in floats))


@pytest.mark.parametrize("bus_fraction,seed", [(0.2, 1), (0.2, 2), (0.5, 3), (0.8, 4)])
def test_trace_paths_same_as_with_scalar_slab_test(monkeypatch, bus_fraction, seed):
    """The array slab test gives the path lists of the per-box scalar loop,
    bit for bit, and the bus boxes are the per-vehicle corners."""
    cfg = dataclasses.replace(SceneConfig(), bus_fraction=bus_fraction)
    snaps = [generate_snapshot(cfg, seed * 100 + i, snapshot_id=i) for i in range(6)]
    for snap in snaps:
        buses = [v for v in snap.vehicles if v.kind == "bus"]
        boxes = _bus_boxes(snap, cfg.blockage_margin)
        assert boxes.shape == (len(buses), 2, 3)
        for v, (lo, hi) in zip(buses, boxes):
            half = np.array([v.dims[0] / 2.0, v.dims[1] / 2.0, v.dims[2] / 2.0]) + cfg.blockage_margin
            assert np.array_equal(lo, np.asarray(v.center) - half)
            assert np.array_equal(hi, np.asarray(v.center) + half)
    fast = [[_path_bits(p) for p in trace_paths(s, u, cfg)] for s in snaps for u in s.ue_indices]
    monkeypatch.setattr(scene, "_blocked", _blocked_reference)
    slow = [[_path_bits(p) for p in trace_paths(s, u, cfg)] for s in snaps for u in s.ue_indices]
    assert fast == slow
    assert sum(map(len, fast)) > 0
