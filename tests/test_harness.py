import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from beamtrain.harness import (DEFAULT_N_B_SWEEP, ExperimentConfig, StageError,
                               TablePredictor, _stage, decoupled_split, derive_seed,
                               emit_outputs, run_experiment)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(0, 0) == derive_seed(0, 0)
    seeds = {derive_seed(0, i) for i in range(100)}
    assert len(seeds) == 100
    assert derive_seed(1, 0) != derive_seed(0, 0)


def test_decoupled_split_budget_and_nesting():
    for n_b in range(1, 129):
        s_w, s_f = decoupled_split(n_b, 5, 64)
        assert 1 <= s_w <= 5 and 1 <= s_f <= 64
        assert s_w * s_f <= n_b  # actual budget never exceeds the request
    assert decoupled_split(1, 5, 64) == (1, 1)
    assert decoupled_split(5, 5, 64) == (5, 1)
    assert decoupled_split(64, 5, 64) == (5, 12)
    assert decoupled_split(128, 5, 64) == (5, 25)
    assert decoupled_split(640, 5, 64) == (5, 64)
    # non-decreasing sizes mean nested selections across the sweep
    prev = (0, 0)
    for n_b in DEFAULT_N_B_SWEEP:
        cur = decoupled_split(n_b, 5, 64)
        assert cur[0] >= prev[0] and cur[1] >= prev[1]
        prev = cur


def test_config_defaults_and_budgets():
    cfg = ExperimentConfig()
    assert cfg.num_combiners == 16
    assert cfg.num_beamformers == 64
    assert cfg.num_pairs == 1024
    assert cfg.ue_budget == 2048
    assert cfg.bs_budget == 61440


def test_config_dict_roundtrip():
    cfg = ExperimentConfig(master_seed=7, n_b_sweep=(1, 2, 3))
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_config_hash_sensitive_to_changes():
    a = ExperimentConfig()
    b = dataclasses.replace(a, master_seed=1)
    assert a.config_hash() != b.config_hash()


def test_config_from_json_file(tmp_path):
    cfg = ExperimentConfig(snapshot_count=3, cluster_count=2)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert ExperimentConfig.from_file(str(path)) == cfg


def test_config_rejects_unknown_keys_and_versions():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"nonsense": 1})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"schema_version": 99})


def test_config_rejects_snapshot_count_reaching_seed_labels():
    # snapshot seed labels must stay below the frozen split label (1_000_000)
    assert ExperimentConfig.from_dict({"snapshot_count": 999_999}).snapshot_count == 999_999
    for count in (1_000_000, 2_000_000):
        with pytest.raises(ValueError, match="snapshot_count"):
            ExperimentConfig.from_dict({"snapshot_count": count})


def test_table_predictor_lookup():
    locs = np.array([[1.0, 2.0], [3.0, 4.0]])
    vals = np.array([[0.1, 0.9], [0.5, 0.5]])
    p = TablePredictor(locs, vals)
    assert np.array_equal(p.predict([3.0, 4.0]), [0.5, 0.5])
    assert np.array_equal(p.predict_batch(locs), vals)
    with pytest.raises(KeyError):
        p.predict([9.0, 9.0])


def test_stage_wraps_exceptions():
    with pytest.raises(StageError, match="stage 'demo' failed"):
        with _stage("demo"):
            raise RuntimeError("boom")


@pytest.fixture(scope="module")
def smoke_result():
    return run_experiment(ExperimentConfig.smoke())


def test_smoke_run_shapes(smoke_result):
    cfg = smoke_result.config
    assert smoke_result.n_test > 0
    scen_counts = {}
    for row in smoke_result.curves:
        scen_counts[row["scenario"]] = scen_counts.get(row["scenario"], 0) + 1
    assert scen_counts == {s: len(cfg.n_b_sweep) for s in (1, 2, 3)}
    for row in smoke_result.curves:
        assert 0.0 <= row["r_t"] <= 1.0
        assert 0.0 <= row["p_m"] <= 1.0
        if row["scenario"] == 1:
            assert row["overhead_bits"] == row["n_b_actual"] * 4
        else:
            assert row["overhead_bits"] == 0.0
            assert row["n_b_actual"] == row["s_w"] * row["s_f"]
    assert len(smoke_result.heatmap) == 2 * len(cfg.heatmap_s_w) * len(cfg.heatmap_s_f)


def test_smoke_param_budgets(smoke_result):
    counts = smoke_result.param_counts
    assert counts["theta1"] <= smoke_result.config.bs_budget
    assert counts["theta2_f"] <= smoke_result.config.bs_budget
    assert counts["theta2_w"] <= smoke_result.config.ue_budget
    assert counts["theta3_w"] == counts["theta2_w"]


def test_smoke_run_deterministic(smoke_result):
    again = run_experiment(ExperimentConfig.smoke())
    assert again.curves == smoke_result.curves
    assert again.heatmap == smoke_result.heatmap
    assert again.dataset_checksum == smoke_result.dataset_checksum


def test_emit_outputs_files(tmp_path, smoke_result):
    out = str(tmp_path / "run")
    emit_outputs(smoke_result, out)
    header = Path(out, "curves.csv").read_text().splitlines()[0]
    assert header == "scenario,n_b,n_b_actual,s_w,s_f,r_t,p_m,overhead_bits"
    assert Path(out, "heatmap.csv").read_text().splitlines()[0] == "scenario,s_w,s_f,r_t"
    manifest = json.loads(Path(out, "run_manifest.json").read_text())
    assert manifest["config_hash"] == smoke_result.config.config_hash()
    assert manifest["n_test"] == smoke_result.n_test
    assert manifest["dataset_checksum"] == smoke_result.dataset_checksum
