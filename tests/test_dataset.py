import dataclasses
import logging

import numpy as np
import pytest

from beamtrain.arrays import dft_codebook
from beamtrain.channel import channel_for_ue, default_bs_geometry, default_ue_geometry
from beamtrain.dataset import (TRRow, build_rate_dataset, load_dataset, save_dataset,
                               split_dataset, to_atr, to_throughput_ratios)
from beamtrain.linkeval import RateRow, sweep_all, sweep_paths
from beamtrain.scene import SceneConfig, generate_snapshot
from reference_scene import trace_paths as trace_paths_reference


def _small_corpus(seed_count=3, seed0=0):
    cfg = SceneConfig()
    snaps = [generate_snapshot(cfg, s, snapshot_id=s) for s in range(seed0, seed0 + seed_count)]
    bs_g, ue_g = default_bs_geometry(cfg), default_ue_geometry(cfg)
    rows = build_rate_dataset(snaps, dft_codebook(ue_g, "ue"), dft_codebook(bs_g, "bs"),
                              bs_g, ue_g, cfg)
    return cfg, rows


def test_build_rate_dataset_rows_and_order():
    _, rows = _small_corpus()
    assert rows
    keys = [(r.snapshot_id, r.ue_index) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert r.rates.shape == (1024,)
        assert np.max(r.rates) > 0


def test_build_rate_dataset_deterministic():
    _, a = _small_corpus()
    _, b = _small_corpus()
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.rates, rb.rates)


def test_build_rate_dataset_matches_dense_route():
    """Rows from the traced paths equal the dense channel sweep to 1e-12 of
    each row's peak, and the same UEs are kept and dropped."""
    cfg, rows = _small_corpus()
    bs_g, ue_g = default_bs_geometry(cfg), default_ue_geometry(cfg)
    W, F = dft_codebook(ue_g, "ue"), dft_codebook(bs_g, "bs")
    dense = [sweep_all(channel_for_ue(snap, ue, bs_g, ue_g, cfg), W, F, cfg.sigma2)
             for snap in (generate_snapshot(cfg, s, snapshot_id=s) for s in range(3))
             for ue in snap.ue_indices]
    kept = [r for r in dense if np.max(r.rates) > 0.0]
    assert 0 < len(kept) < len(dense)  # some UEs are fully blocked and dropped
    assert [(r.snapshot_id, r.ue_index) for r in rows] == [(r.snapshot_id, r.ue_index) for r in kept]
    for row, ref in zip(rows, kept):
        assert np.array_equal(row.location, ref.location)
        assert np.max(np.abs(row.rates - ref.rates)) <= 1e-12 * np.max(ref.rates)


@pytest.mark.parametrize("bus_fraction", [0.0, 0.2, 0.6])
def test_build_rate_dataset_equals_per_ue_reference_route(bus_fraction):
    """Rows equal the reference tracer's paths swept one UE at a time
    (`sweep_paths` on path lists), bit for bit, with the same UEs kept."""
    cfg = dataclasses.replace(SceneConfig(), bus_fraction=bus_fraction)
    snaps = [generate_snapshot(cfg, 40 + s, snapshot_id=s) for s in range(4)]
    bs_g, ue_g = default_bs_geometry(cfg), default_ue_geometry(cfg)
    W, F = dft_codebook(ue_g, "ue"), dft_codebook(bs_g, "bs")
    rows = build_rate_dataset(snaps, W, F, bs_g, ue_g, cfg)
    expected = []
    for snap in snaps:
        for ue in snap.ue_indices:
            rates = sweep_paths(trace_paths_reference(snap, ue, cfg), W, F, bs_g, ue_g, cfg)
            if np.max(rates) > 0.0:
                expected.append((snap.snapshot_id, ue, rates))
    assert [(r.snapshot_id, r.ue_index) for r in rows] == [(s, u) for s, u, _ in expected]
    for row, (_, _, rates) in zip(rows, expected):
        assert row.rates.tobytes() == rates.tobytes()
    if bus_fraction == 0.6:
        assert len(rows) < sum(len(s.ue_indices) for s in snaps)   # some UEs dropped


def test_build_rate_dataset_logs_ue_and_path_counts(caplog):
    cfg = dataclasses.replace(SceneConfig(), bus_fraction=0.5)
    snaps = [generate_snapshot(cfg, s, snapshot_id=s) for s in range(3)]
    bs_g, ue_g = default_bs_geometry(cfg), default_ue_geometry(cfg)
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


def test_to_throughput_ratios_basic():
    row = RateRow(location=np.zeros(2), rates=np.array([2.0, 4.0, 8.0]), snapshot_id=0)
    tr = to_throughput_ratios([row])[0]
    assert np.allclose(tr.ratios, [0.25, 0.5, 1.0])
    assert tr.max_rate == 8.0
    assert tr.ratios.max() == 1.0  # exact


def test_to_throughput_ratios_constant_row():
    row = RateRow(location=np.zeros(2), rates=np.full(6, 3.3), snapshot_id=0)
    assert np.all(to_throughput_ratios([row])[0].ratios == 1.0)


def test_to_throughput_ratios_rejects_zero_row():
    row = RateRow(location=np.zeros(2), rates=np.zeros(4), snapshot_id=0)
    with pytest.raises(ValueError):
        to_throughput_ratios([row])


def test_to_throughput_ratios_matches_oracle():
    rng = np.random.default_rng(0)
    rates = rng.uniform(0.01, 4.0, size=64)
    tr = to_throughput_ratios([RateRow(np.zeros(2), rates, 0)])[0]
    assert np.allclose(tr.ratios, rates / rates.max(), atol=0)


def test_atr_uniform_row():
    tr = TRRow(location=np.zeros(2), ratios=np.full(8, 0.4), max_rate=1.0, snapshot_id=0)
    atr = to_atr([tr], 2, 4)[0]
    assert np.allclose(atr.atr_w, 0.4) and np.allclose(atr.atr_f, 0.4)


def test_atr_worked_example():
    # |W|=2, |F|=2, order (1,1),(1,2),(2,1),(2,2)
    tr = TRRow(np.zeros(2), np.array([1.0, 0.5, 0.25, 0.75]), 1.0, 0)
    atr = to_atr([tr], 2, 2)[0]
    assert np.allclose(atr.atr_w, [0.75, 0.5])
    assert np.allclose(atr.atr_f, [0.625, 0.625])


def test_atr_means_match_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(20):
        ratios = rng.uniform(0, 1, size=16 * 64)
        ratios[rng.integers(ratios.size)] = 1.0
        tr = TRRow(np.zeros(2), ratios, 1.0, 0)
        atr = to_atr([tr], 16, 64)[0]
        grid = ratios.reshape(16, 64)
        for i in range(16):
            assert atr.atr_w[i] == pytest.approx(np.mean([grid[i, j] for j in range(64)]), abs=1e-15)
        for j in range(64):
            assert atr.atr_f[j] == pytest.approx(np.mean([grid[i, j] for i in range(16)]), abs=1e-15)
        assert abs(atr.atr_w.mean() - atr.atr_f.mean()) < 1e-12
        assert abs(atr.atr_w.mean() - ratios.mean()) < 1e-12


def test_split_fractions_and_folds():
    split = split_dataset(100, test_fraction=0.2, folds=10, seed=3)
    assert len(split.test_rows) == 20 and len(split.train_rows) == 80
    assert not set(split.test_rows) & set(split.train_rows)
    assert sorted(np.concatenate([split.test_rows, split.train_rows])) == list(range(100))
    sizes = np.bincount(split.fold_assignments, minlength=10)
    assert sizes.max() - sizes.min() <= 1


def test_split_determinism_and_errors():
    a = split_dataset(57, seed=9)
    b = split_dataset(57, seed=9)
    assert np.array_equal(a.train_rows, b.train_rows)
    assert np.array_equal(a.fold_assignments, b.fold_assignments)
    with pytest.raises(ValueError):
        split_dataset(8, folds=10)
    with pytest.raises(ValueError):
        split_dataset(100, folds=1)


def _toy_rows(n=5, width=12, seed=0):
    rng = np.random.default_rng(seed)
    return [RateRow(location=rng.uniform(0, 100, 2), rates=rng.uniform(0.01, 3, width),
                    snapshot_id=k, ue_index=k) for k in range(n)]


def test_binary_roundtrip_bit_identical(tmp_path):
    rows = _toy_rows()
    path = str(tmp_path / "d.npz")
    save_dataset(rows, path, fmt="binary", num_combiners=3, num_beamformers=4)
    loaded = load_dataset(path, fmt="binary")
    for a, b in zip(rows, loaded):
        assert np.array_equal(a.rates, b.rates)
        assert np.array_equal(a.location, b.location)
        assert a.snapshot_id == b.snapshot_id


def test_csv_roundtrip_precision(tmp_path):
    rows = to_throughput_ratios(_toy_rows())
    path = str(tmp_path / "d.csv")
    save_dataset(rows, path, fmt="csv", num_combiners=3, num_beamformers=4)
    loaded = load_dataset(path, fmt="csv")
    for a, b in zip(rows, loaded):
        assert np.abs(a.ratios - b.rates).max() < 1e-8
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    assert header[:3] == ["x", "y", "snapshot_id"]
    assert header[3] == "r_1_1" and header[-1] == "r_3_4"


def test_truncated_files_raise(tmp_path):
    rows = _toy_rows()
    binpath = tmp_path / "d.npz"
    save_dataset(rows, str(binpath), fmt="binary")
    binpath.write_bytes(binpath.read_bytes()[:40])
    with pytest.raises(ValueError):
        load_dataset(str(binpath), fmt="binary")

    csvpath = tmp_path / "d.csv"
    save_dataset(rows, str(csvpath), fmt="csv", num_combiners=3, num_beamformers=4)
    text = csvpath.read_text()
    csvpath.write_text(text[:len(text) // 2].rsplit(",", 1)[0])
    with pytest.raises(ValueError):
        load_dataset(str(csvpath), fmt="csv")


def test_tr_rows_have_unique_argmax_under_tie_rule():
    _, rows = _small_corpus(seed_count=2)
    for tr in to_throughput_ratios(rows):
        best = int(np.argmax(tr.ratios))
        assert tr.ratios[best] == 1.0
        # lowest-index rule: no earlier entry reaches the max
        assert not np.any(tr.ratios[:best] >= 1.0)
