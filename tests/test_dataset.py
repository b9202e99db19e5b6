import dataclasses
import json
import logging
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from beamtrain import dataset as dataset_module
from beamtrain import harness
from beamtrain.arrays import dft_codebook
from beamtrain.channel import channel_for_ue, default_bs_geometry, default_ue_geometry
from beamtrain.dataset import (Rows, build_rate_dataset, load_dataset, save_dataset, split_dataset,
                               to_atr, to_throughput_ratios)
from beamtrain.linkeval import sweep_all
from beamtrain.scene import SceneConfig, generate_snapshot, trace_snapshot
from reference_linkeval import sweep_paths
from reference_scene import trace_paths as trace_paths_reference


def _small_corpus(seed_count=3, seed0=0):
    cfg = SceneConfig()
    snaps = [generate_snapshot(cfg, s, snapshot_id=s) for s in range(seed0, seed0 + seed_count)]
    bs_g, ue_g = default_bs_geometry(cfg, 8, 8), default_ue_geometry(cfg, 4, 4)
    rows = build_rate_dataset(snaps, dft_codebook(ue_g, "ue"), dft_codebook(bs_g, "bs"),
                              bs_g, ue_g, cfg)
    return cfg, rows


def _keys(rows):
    """The (snapshot_id, ue_index) of each rate row."""
    return list(zip(rows.snapshot_id.tolist(), rows.ue_index.tolist()))


def test_build_rate_dataset_rows_and_order():
    _, rows = _small_corpus()
    assert len(rows)
    keys = _keys(rows)
    assert keys == sorted(keys)
    assert rows.location.shape == (len(rows), 2)
    assert rows.snapshot_id.shape == rows.ue_index.shape == (len(rows),)
    assert rows.rates.shape == (len(rows), 1024)
    assert np.all(np.max(rows.rates, axis=1) > 0)


def test_build_rate_dataset_deterministic():
    _, a = _small_corpus()
    _, b = _small_corpus()
    assert len(a) == len(b)
    for name, column in vars(a).items():
        assert np.array_equal(column, getattr(b, name))


def test_build_rate_dataset_matches_dense_route():
    """Rows from the traced paths equal the dense channel sweep to 1e-12 of
    each row's peak, and the same UEs are kept and dropped."""
    cfg, rows = _small_corpus()
    bs_g, ue_g = default_bs_geometry(cfg, 8, 8), default_ue_geometry(cfg, 4, 4)
    W, F = dft_codebook(ue_g, "ue"), dft_codebook(bs_g, "bs")
    dense = [(snap, ue, sweep_all(channel_for_ue(snap, ue, bs_g, ue_g, cfg), W, F, cfg.sigma2))
             for snap in (generate_snapshot(cfg, s, snapshot_id=s) for s in range(3))
             for ue in snap.ue_indices]
    kept = [(snap, ue, rates) for snap, ue, rates in dense if np.max(rates) > 0.0]
    assert 0 < len(kept) < len(dense)  # some UEs are fully blocked and dropped
    assert _keys(rows) == [(snap.snapshot_id, ue) for snap, ue, _ in kept]
    for location, row, (snap, ue, rates) in zip(rows.location, rows.rates, kept):
        assert np.array_equal(location, snap.center[ue, :2])
        assert np.max(np.abs(row - rates)) <= 1e-12 * np.max(rates)


@pytest.mark.parametrize("bus_fraction", [0.0, 0.2, 0.6])
def test_build_rate_dataset_equals_per_ue_reference_route(bus_fraction):
    """Rows equal the reference tracer's paths swept one UE at a time
    (`sweep_paths` on path tuples), bit for bit, with the same UEs kept."""
    cfg = dataclasses.replace(SceneConfig(), bus_fraction=bus_fraction)
    snaps = [generate_snapshot(cfg, 40 + s, snapshot_id=s) for s in range(4)]
    bs_g, ue_g = default_bs_geometry(cfg, 8, 8), default_ue_geometry(cfg, 4, 4)
    W, F = dft_codebook(ue_g, "ue"), dft_codebook(bs_g, "bs")
    rows = build_rate_dataset(snaps, W, F, bs_g, ue_g, cfg)
    expected = []
    for snap in snaps:
        for ue in snap.ue_indices:
            rates = sweep_paths(trace_paths_reference(snap, ue, cfg), W, F, bs_g, ue_g, cfg)
            if np.max(rates) > 0.0:
                expected.append((snap.snapshot_id, ue, rates))
    assert _keys(rows) == [(s, u) for s, u, _ in expected]
    for row, (_, _, rates) in zip(rows.rates, expected):
        assert row.tobytes() == rates.tobytes()
    if bus_fraction == 0.6:
        assert len(rows) < sum(len(s.ue_indices) for s in snaps)   # some UEs dropped


def test_build_rate_dataset_logs_ue_and_path_counts(caplog):
    cfg = dataclasses.replace(SceneConfig(), bus_fraction=0.5)
    snaps = [generate_snapshot(cfg, s, snapshot_id=s) for s in range(3)]
    bs_g, ue_g = default_bs_geometry(cfg, 8, 8), default_ue_geometry(cfg, 4, 4)
    with caplog.at_level(logging.INFO, logger="beamtrain.dataset"):
        rows = build_rate_dataset(snaps, dft_codebook(ue_g, "ue"), dft_codebook(bs_g, "bs"),
                                  bs_g, ue_g, cfg)
    kinds = [p.kind for s in snaps for u in s.ue_indices for p in trace_paths_reference(s, u, cfg)]
    ues = sum(len(s.ue_indices) for s in snaps)
    assert len(rows) < ues
    assert caplog.messages == [
        f"rate dataset: {ues} UEs, {ues - len(rows)} dropped as fully blocked; paths: "
        f"{kinds.count('los')} los, {kinds.count('wall')} wall, {kinds.count('bus')} bus"]
    assert kinds.count("bus") > 0


def test_build_rate_dataset_rejects_non_finite_rates():
    """A wall 1e-275 m beside the BS passes SceneConfig's check (only an
    ExperimentConfig rejects it), but the wall path's direction underflows
    and its rates come out NaN. The stage raises at the first swept UE whose
    rates are not finite, naming it, and sweeps no later UE."""
    cfg = dataclasses.replace(SceneConfig(), wall_clearance=1e-275)
    snaps = [generate_snapshot(cfg, s, snapshot_id=s) for s in range(2)]
    bs_g, ue_g = default_bs_geometry(cfg, 8, 8), default_ue_geometry(cfg, 4, 4)
    finite, sweep = [], dataset_module.sweep_responses

    def recording(*args, **kwargs):
        rates = sweep(*args, **kwargs)
        finite.append(bool(np.isfinite(rates).all()))
        return rates

    with np.errstate(divide="ignore", invalid="ignore"), \
            mock.patch.object(dataset_module, "sweep_responses", recording), \
            pytest.raises(ValueError, match=r"^snapshot 0, UE \d+: rates are not finite$") as error:
        build_rate_dataset(snaps, dft_codebook(ue_g, "ue"), dft_codebook(bs_g, "bs"),
                           bs_g, ue_g, cfg)
    assert finite == [True] * (len(finite) - 1) + [False]
    # the k-th sweep is of the k-th UE with paths
    with np.errstate(divide="ignore", invalid="ignore"):
        table = trace_snapshot(snaps[0], cfg)
    swept = [ue for ue, rows in zip(snaps[0].ue_indices, table.ue_rows(snaps[0].ue_indices))
             if rows.start != rows.stop]
    assert len(swept) > len(finite)
    assert str(error.value) == f"snapshot 0, UE {swept[len(finite) - 1]}: rates are not finite"


def _transform(rows):
    """The TR of rate rows, from a copy of their rates."""
    return to_throughput_ratios(rows.rates.copy())


def test_rate_and_tr_rows_are_views_into_one_array_each():
    _, rows = _small_corpus()
    # each column is one array for every UE, shrunk in place to the kept rows
    for column in vars(rows).values():
        assert column.base is None and len(column) == len(rows)
    assert all(r.rates.base is rows.rates for r in rows)
    rates = rows.rates.copy()
    # the transform divides the rates it is given in place
    assert to_throughput_ratios(rates) is rates
    assert not np.shares_memory(rows.rates, rates)
    assert to_throughput_ratios(np.empty((0, 4))).shape == (0, 4)


def test_rate_stage_runs_under_a_trace_function():
    """Under a Python trace function, as a debugger or `python -m trace`
    installs, a method call holds one more reference to its array, which
    `ndarray.resize`'s reference check counted: the rate stage failed. Its
    columns now shrink without that check, and equal an untraced run's byte
    for byte."""
    config = harness.ExperimentConfig.smoke()
    _, plain = harness.build_rate_rows(config)
    previous = sys.gettrace()
    sys.settrace(lambda *args: None)
    try:
        _, traced = harness.build_rate_rows(config)
    finally:
        sys.settrace(previous)
    assert len(traced) == len(plain) > 0
    for name, column in vars(plain).items():
        got = getattr(traced, name)
        assert got.base is None
        assert (got.dtype, got.shape, got.tobytes()) == (column.dtype, column.shape,
                                                        column.tobytes())


def test_transform_rows_equal_the_per_row_stage_bit_for_bit():
    """The stacked transform gives each TR row its rates divided by their
    peak, and each ATR row the per-row means over the row's (|W|, |F|)
    grid, bit for bit; each ATR side is one (rows, beams) array."""
    _, rows = _small_corpus()
    tr = _transform(rows)
    atr = to_atr(tr, 16, 64)
    assert atr.atr_f.shape == (len(rows), 64) and atr.atr_w.shape == (len(rows), 16)
    for rates, ratios, atr_f, atr_w in zip(rows.rates, tr, atr.atr_f, atr.atr_w):
        peak = float(np.max(rates))
        assert ratios.tobytes() == (rates / peak).tobytes()
        grid = ratios.reshape(16, 64)
        assert atr_f.tobytes() == grid.mean(axis=0).tobytes()
        assert atr_w.tobytes() == grid.mean(axis=1).tobytes()
    empty = to_atr(np.empty((0, 1024)), 16, 64)
    assert len(empty) == 0 and empty.atr_f.shape == (0, 64) and empty.atr_w.shape == (0, 16)


def test_to_throughput_ratios_basic():
    tr = to_throughput_ratios(np.array([[2.0, 4.0, 8.0]]))[0]
    assert np.allclose(tr, [0.25, 0.5, 1.0])
    assert tr.max() == 1.0  # exact


def test_to_throughput_ratios_constant_row():
    assert np.all(to_throughput_ratios(np.full((1, 6), 3.3)) == 1.0)


def test_to_throughput_ratios_rejects_zero_row():
    with pytest.raises(ValueError):
        to_throughput_ratios(np.zeros((1, 4)))


def test_to_throughput_ratios_matches_oracle():
    rng = np.random.default_rng(0)
    rates = rng.uniform(0.01, 4.0, size=64)
    tr = to_throughput_ratios(rates[None, :].copy())[0]
    assert np.allclose(tr, rates / rates.max(), atol=0)


def test_atr_uniform_row():
    atr = to_atr(np.full((1, 8), 0.4), 2, 4)
    assert np.allclose(atr.atr_w[0], 0.4) and np.allclose(atr.atr_f[0], 0.4)


def test_atr_worked_example():
    # |W|=2, |F|=2, order (1,1),(1,2),(2,1),(2,2)
    atr = to_atr(np.array([[1.0, 0.5, 0.25, 0.75]]), 2, 2)
    assert np.allclose(atr.atr_w[0], [0.75, 0.5])
    assert np.allclose(atr.atr_f[0], [0.625, 0.625])


def test_atr_means_match_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(20):
        ratios = rng.uniform(0, 1, size=16 * 64)
        ratios[rng.integers(ratios.size)] = 1.0
        atr = to_atr(ratios[None, :], 16, 64)
        atr_w, atr_f = atr.atr_w[0], atr.atr_f[0]
        grid = ratios.reshape(16, 64)
        for i in range(16):
            assert atr_w[i] == pytest.approx(np.mean([grid[i, j] for j in range(64)]), abs=1e-15)
        for j in range(64):
            assert atr_f[j] == pytest.approx(np.mean([grid[i, j] for i in range(16)]), abs=1e-15)
        assert abs(atr_w.mean() - atr_f.mean()) < 1e-12
        assert abs(atr_w.mean() - ratios.mean()) < 1e-12


def test_split_fractions_and_folds():
    split = split_dataset(100, test_fraction=0.2, folds=10, seed=3)
    assert len(split.test_rows) == 20 and len(split.train_rows) == 80
    assert not set(split.test_rows) & set(split.train_rows)
    assert sorted(np.concatenate([split.test_rows, split.train_rows])) == list(range(100))
    sizes = np.bincount(split.fold_assignments, minlength=10)
    assert sizes.max() - sizes.min() <= 1


def test_split_determinism_and_errors():
    a = split_dataset(57, test_fraction=0.2, folds=10, seed=9)
    b = split_dataset(57, test_fraction=0.2, folds=10, seed=9)
    assert np.array_equal(a.train_rows, b.train_rows)
    assert np.array_equal(a.fold_assignments, b.fold_assignments)
    with pytest.raises(ValueError):
        split_dataset(8, test_fraction=0.2, folds=10, seed=0)
    with pytest.raises(ValueError):
        split_dataset(100, test_fraction=0.2, folds=1, seed=0)


@pytest.mark.parametrize("fraction", [-0.1, 0.0, 1.0, 1.5, float("nan"), True])
def test_split_rejects_a_test_fraction_outside_the_open_unit_interval(fraction):
    """`test_fraction` follows ExperimentConfig's rule: at -0.1 the split
    took 10 training rows and 90 test rows, and at 0.0 no test row."""
    with pytest.raises(ValueError, match=r"^test_fraction must be in \(0, 1\), got "):
        split_dataset(100, test_fraction=fraction, folds=10, seed=0)



def test_split_replays_the_seeded_permutations():
    """The test rows are the first round(n * fraction) of one seeded
    permutation; the next permutation of the sorted training rows deals
    them out to the folds round-robin, its k-th entry to fold k % folds."""
    split = split_dataset(103, test_fraction=0.2, folds=7, seed=5)
    rng = np.random.default_rng(5)
    order = rng.permutation(103)
    assert split.test_rows.tolist() == sorted(order[:21].tolist())
    assert split.train_rows.tolist() == sorted(order[21:].tolist())
    fold_of = [None] * 82
    for k, row in enumerate(rng.permutation(82).tolist()):
        fold_of[row] = k % 7
    assert split.fold_assignments.tolist() == fold_of

_CORPUS = {"master_seed": 3, "snapshot_count": 2, "scene": "{}"}


def _toy_rows(n=5, width=12, seed=0):
    rng = np.random.default_rng(seed)
    return Rows(location=rng.uniform(0, 100, (n, 2)), rates=rng.uniform(0.01, 3, (n, width)),
                snapshot_id=np.arange(n), ue_index=np.arange(n))


def test_binary_roundtrip_bit_identical(tmp_path):
    rows = _toy_rows()
    path = str(tmp_path / "d.npz")
    save_dataset(rows, path, (3, 4), _CORPUS)
    locations, rates = load_dataset(path, (3, 4), _CORPUS)
    assert rates.tobytes() == rows.rates.tobytes()
    assert locations.tobytes() == rows.location.tobytes()
    with np.load(path) as npz:
        assert npz["snapshot_ids"].tolist() == rows.snapshot_id.tolist()
        assert npz["ue_indices"].tolist() == rows.ue_index.tolist()
    with pytest.raises(ValueError, match="cannot save an empty dataset"):
        save_dataset(_toy_rows(n=0), path, (3, 4), _CORPUS)


def test_save_dataset_writes_the_columns_as_they_are(tmp_path, monkeypatch):
    """The rate file is written from the bundle's own `rates` and `location`
    arrays, with no stacked copy of either."""
    rows = _toy_rows()
    written = {}
    monkeypatch.setattr(dataset_module, "save_npz",
                        lambda path, arrays, version: written.update(arrays))
    save_dataset(rows, str(tmp_path / "d.npz"), (3, 4), _CORPUS)
    assert np.shares_memory(written["rates"], rows.rates)
    assert np.shares_memory(written["locations"], rows.location)


def test_truncated_files_raise(tmp_path):
    rows = _toy_rows()
    binpath = tmp_path / "d.npz"
    save_dataset(rows, str(binpath), (3, 4), _CORPUS)
    binpath.write_bytes(binpath.read_bytes()[:40])
    with pytest.raises(ValueError):
        load_dataset(str(binpath), (3, 4), _CORPUS)


def test_load_rejects_a_binary_file_without_rows(tmp_path):
    path = str(tmp_path / "d.npz")
    save_dataset(_toy_rows(), path, (3, 4), _CORPUS)
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    for key in ("locations", "snapshot_ids", "ue_indices", "rates"):
        arrays[key] = arrays[key][:0]
    np.savez_compressed(path, **arrays)
    with pytest.raises(ValueError, match="d.npz' holds no rows"):
        load_dataset(path, (3, 4), _CORPUS)


def test_load_rejects_pair_shape_off_the_row_width(tmp_path):
    rows = _toy_rows(width=12)
    binpath = str(tmp_path / "d.npz")
    save_dataset(rows, binpath, (3, 4), _CORPUS)
    with np.load(binpath) as npz:
        arrays = {name: npz[name] for name in npz.files}
    arrays["pair_shape"] = np.array([4, 4])
    np.savez_compressed(binpath, **arrays)
    with pytest.raises(ValueError, match=r"pair_shape \(4, 4\) .* row width 12"):
        load_dataset(binpath, (3, 4), _CORPUS)
    with pytest.raises(ValueError, match="row width 12"):
        save_dataset(rows, binpath, (4, 4), _CORPUS)
    arrays["pair_shape"], arrays["rates"] = np.array([3, 4]), arrays["rates"].ravel()
    np.savez_compressed(binpath, **arrays)
    with pytest.raises(ValueError, match=r"d\.npz': rates must be finite floats of shape "
                                         r"\(N, P\), got float64 of shape \(60,\) \(N = 5 "
                                         r"from locations\)$"):
        load_dataset(binpath, (3, 4), _CORPUS)


@pytest.mark.parametrize("key, value", [
    ("snapshot_ids", np.arange(2)),
    ("ue_indices", np.arange(6)),
    ("ue_indices", np.arange(5)[:, None]),
    ("locations", np.zeros((2, 2))),
    ("locations", np.zeros((5, 3))),
    ("locations", np.zeros(10)),
])
def test_load_rejects_a_per_row_array_off_the_row_count(tmp_path, key, value):
    """Each per-row array must hold one entry per rate row, (N, 2) for the
    locations and (N,) for the ids; another shape fails naming the file and
    the key (the locations set N, so a wrong row count there fails at the
    next key, naming the locations as the key that set N), where a zip over
    the rows would drop or misread rows."""
    path = str(tmp_path / "d.npz")
    save_dataset(_toy_rows(), path, (3, 4), _CORPUS)
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    np.savez_compressed(path, **{**arrays, key: value})
    with pytest.raises(ValueError, match=rf"^dataset file '.*d\.npz': (\w+ must be .*\(N = "
                                         rf"\d+ from )?{key}\b"):
        load_dataset(path, (3, 4), _CORPUS)


@pytest.mark.parametrize("key, value, message", [
    ("rates", lambda r: np.where(np.arange(12) == 7, np.nan, r),
     r"rates must be finite floats of shape \(N, P\), got nan at \(0, 7\) in float64"),
    ("rates", lambda r: r.astype(np.int64), r"rates must be finite floats of shape \(N, P\), "
                                           r"got int64 of shape \(5, 12\)"),
    ("rates", lambda r: np.where(np.arange(5)[:, None] == 3, 0.0, r),
     r"rates row 3 must be non-negative with a positive peak, got min 0\.0 and peak 0\.0"),
    ("rates", lambda r: np.where((np.arange(5)[:, None] == 2) & (np.arange(12) == 0), -1.0, r),
     r"rates row 2 must be non-negative with a positive peak, got min -1\.0 and peak"),
    ("locations", lambda a: np.where(np.arange(5)[:, None] == 4, np.inf, a),
     r"locations must be finite floats of shape \(N, 2\), got inf at \(4, 0\) in float64"),
    ("scene", lambda a: np.array(["not json"]), r"scene must be a JSON table, got 'not json'"),
    ("scene", lambda a: np.array(["[1, 2]"]), r"scene must be a JSON table, got '\[1, 2\]'"),
])
def test_load_rejects_values_that_later_stages_cannot_use(tmp_path, key, value, message):
    """A non-finite rate or location, rates that are not floats, a negative
    rate, a row without a positive rate and a scene that is not a JSON
    table fail when the file is read, naming the file, the key and the row,
    not in a later stage."""
    path = str(tmp_path / "d.npz")
    save_dataset(_toy_rows(), path, (3, 4), _CORPUS)
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    np.savez_compressed(path, **{**arrays, key: value(arrays[key])})
    with pytest.raises(ValueError, match=rf"^dataset file '.*d\.npz': {message}"):
        load_dataset(path, (3, 4), _CORPUS)


_SCENE_CORPUS = {"master_seed": 3, "snapshot_count": 2,
                 "scene": json.dumps({"lane_count": 4, "lane_width": 3.5}, sort_keys=True)}


@pytest.mark.parametrize("pair_shape, corpus, message", [
    ((4, 3), _SCENE_CORPUS, r"pair_shape \(3, 4\), but the config's ue_array and bs_array "
                            r"give \(4, 3\)"),
    ((3, 4), {**_SCENE_CORPUS, "master_seed": 4}, "master_seed 3, but the config gives 4"),
    ((3, 4), {**_SCENE_CORPUS, "snapshot_count": 5}, "snapshot_count 2, but the config gives 5"),
    ((3, 4), {**_SCENE_CORPUS, "scene": json.dumps({"lane_count": 3, "lane_width": 3.5})},
     "scene.lane_count 4, but the config gives 3"),
    ((3, 4), {**_SCENE_CORPUS, "scene": json.dumps({"lane_count": 4, "lane_width": 3.5,
                                                    "bs_height": 6.0})},
     "scene.bs_height None, but the config gives 6.0"),
    ((3, 4), {**_SCENE_CORPUS, "scene": json.dumps({"lane_count": 4})},
     "scene.lane_width 3.5, but the config has no such key"),
])
def test_load_rejects_a_file_of_another_run(tmp_path, pair_shape, corpus, message):
    """A rate file of another pair shape, master seed, snapshot count or
    scene field than the run's, or with a scene field that the run lacks,
    fails naming the file and the first differing key."""
    path = str(tmp_path / "d.npz")
    save_dataset(_toy_rows(), path, (3, 4), _SCENE_CORPUS)
    load_dataset(path, (3, 4), _SCENE_CORPUS)
    with pytest.raises(ValueError, match=rf"^dataset file '.*d\.npz' has {message}$"):
        load_dataset(path, pair_shape, corpus)


def test_transforming_a_loaded_rate_file_divides_its_rates_in_place(tmp_path):
    """The TR rows of a loaded rate file are its rates divided in place:
    the transform allocates less than half of the rates array."""
    rows = _toy_rows(n=200, width=1024)
    path = str(tmp_path / "d.npz")
    save_dataset(rows, path, (16, 64), _CORPUS)
    locations, rates = load_dataset(path, (16, 64), _CORPUS)
    tracemalloc.start()
    try:
        tr = to_throughput_ratios(rates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rates.nbytes / 2, (peak, rates.nbytes)
    assert tr is rates
    assert np.all(rates.max(axis=1) == 1.0)


def test_tr_rows_have_unique_argmax_under_tie_rule():
    _, rows = _small_corpus(seed_count=2)
    for ratios in _transform(rows):
        best = int(np.argmax(ratios))
        assert ratios[best] == 1.0
        # lowest-index rule: no earlier entry reaches the max
        assert not np.any(ratios[:best] >= 1.0)
