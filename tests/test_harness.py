import dataclasses
import json
import logging
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from beamtrain import boosting, metrics
from beamtrain.harness import (DEFAULT_N_B_SWEEP, ExperimentConfig, StageError, _stage,
                               build_corpus, build_coverage_plan, decoupled_split, derive_seed,
                               emit_outputs, evaluate, run_experiment, split_corpus, train_role)
from beamtrain.selectors import BeamPairSet, DecoupledSets, overhead_bits


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
    with pytest.raises(ValueError, match=r"scene\.lane_cnt"):
        ExperimentConfig.from_dict({"scene": {"lane_cnt": 3}})
    assert ExperimentConfig.from_dict({"scene": {"lane_count": 3}}).scene.lane_count == 3


def test_config_rejects_snapshot_count_reaching_seed_labels():
    # snapshot seed labels must stay below the frozen split label (1_000_000)
    assert ExperimentConfig.from_dict({"snapshot_count": 999_999}).snapshot_count == 999_999
    for count in (1_000_000, 2_000_000):
        with pytest.raises(ValueError, match="snapshot_count"):
            ExperimentConfig.from_dict({"snapshot_count": count})


@pytest.mark.parametrize("key, value", [
    ("n_b_sweep", [1, 0, 5]),
    ("n_b_sweep", [-3]),
    ("heatmap_s_w", [0, 1]),
    ("heatmap_s_f", [4, 0]),
    ("s_w_size", 0),
    ("cluster_count", 0),
    ("test_fraction", 0.0),
    ("test_fraction", 1.0),
    ("test_fraction", 1.5),
    ("folds", 1),
])
def test_config_rejects_bad_evaluation_keys(key, value):
    # rejected when the config is read, before any stage runs
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_dict({key: value})


@pytest.mark.parametrize("key, grid, message", [
    ("ue_grid", [], "ue_grid must hold at least one grid point"),
    ("bs_grid", [{"max_dept": 3}], "bs_grid[0].max_dept is not a grid key"),
    ("ue_grid", [{}, {"budget_parameters": 10}], "ue_grid[1].budget_parameters is not a grid key"),
    ("ue_grid", [{"tree_count": 5}, {"min_samples_leaf": 0}],
     "ue_grid[1].min_samples_leaf must be an integer >= 1, got 0"),
    ("bs_grid", [{"max_depth": 2.5}], "bs_grid[0].max_depth must be an integer >= 1, got 2.5"),
    ("bs_grid", [{"learning_rate": 0.0}], "bs_grid[0].learning_rate must be in (0, 1], got 0.0"),
    ("bs_grid", [{"tree_count": "9"}], "bs_grid[0].tree_count must be an integer >= 0, got '9'"),
    ("bs_grid", [3], "bs_grid[0] must be a table of grid keys, got 3"),
])
def test_config_rejects_bad_model_grids(key, grid, message):
    # rejected when the config is built, before any stage runs
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig.from_dict({key: grid})
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(**{key: tuple(grid)})


def test_stage_wraps_exceptions():
    with pytest.raises(StageError, match="stage 'demo' failed"):
        with _stage("demo"):
            raise RuntimeError("boom")
    with pytest.raises(StageError, match="stage 'demo' failed: bad value") as info:
        with _stage("demo"):
            raise ValueError("bad value")
    assert isinstance(info.value.__cause__, ValueError)


def test_stage_lets_keyboard_interrupt_through():
    interrupt = KeyboardInterrupt()
    with pytest.raises(KeyboardInterrupt) as info:
        with _stage("demo"):
            raise interrupt
    assert info.value is interrupt


def test_config_rejects_output_dir():
    # the output directory is the CLI's --out, never a config key
    with pytest.raises(ValueError, match=r"unknown config keys: \['output_dir'\]"):
        ExperimentConfig.from_dict({"output_dir": "out"})


def test_too_many_clusters_fail_before_training(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("a model was trained before the plan was built")
    monkeypatch.setattr(boosting, "train", no_training)
    config = dataclasses.replace(ExperimentConfig.smoke(), snapshot_count=4,
                                 cluster_count=10_000)
    with pytest.raises(StageError, match="cluster_count 10000: 10000 clusters exceed"):
        run_experiment(config)


def test_build_coverage_plan_logs_cluster_sizes(caplog):
    # three far-apart blobs of 2, 3 and 6 training rows; the last 4 rows are
    # held out and must not count
    rng = np.random.default_rng(8)
    centers = [(0.0, 0.0)] * 2 + [(100.0, 0.0)] * 3 + [(0.0, 100.0)] * 6 + [(50.0, 50.0)] * 4
    locations = np.array(centers) + rng.uniform(-1, 1, size=(len(centers), 2))
    atr_f = rng.uniform(0, 1, size=(len(centers), 64))
    split = SimpleNamespace(train_rows=np.arange(11))
    config = dataclasses.replace(ExperimentConfig.smoke(), cluster_count=3)
    with caplog.at_level(logging.INFO, logger="beamtrain.harness"):
        plan = build_coverage_plan(config, locations, atr_f, split)
    assert sorted(np.bincount(plan.assignments)) == [2, 3, 6]
    assert caplog.messages == ["stage: build cluster coverage plan",
                               "coverage plan: 3 clusters of 2 to 6 training rows, median 3"]


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


class _Predictions:
    def __init__(self, values, trees=0):
        self.values = values
        self.layout = {"tree_sizes": np.ones(trees, dtype=int)}

    def predict_batch(self, X):
        return self.values[np.asarray(X, dtype=int)[:, 0]]


def test_evaluate_reads_the_per_row_metrics():
    """Every curve point and heatmap cell equals the per-row reference
    metrics over the prefixes of the predicted orderings, with ties in the
    predictions and in TR; heatmap sizes beyond the codebooks are skipped."""
    cfg = ExperimentConfig(bs_array=(2, 4), ue_array=(2, 2), n_b_sweep=(1, 2, 5, 9, 32, 40),
                           s_w_size=3, heatmap_s_w=(1, 2, 4, 5), heatmap_s_f=(1, 3, 8, 9))
    num_w, num_f, n = cfg.num_combiners, cfg.num_beamformers, 30
    rng = np.random.default_rng(4)
    TR = rng.choice([0.1, 0.3, 0.7, 1.0], size=(n, cfg.num_pairs))
    models = {role: _Predictions(rng.choice([0.0, 0.5, 1.0], size=(n, size)))
              for role, size in (("theta1", cfg.num_pairs), ("theta2_w", num_w),
                                 ("theta2_f", num_f))}
    plan = SimpleNamespace(selected_beams=rng.permutation(num_f))
    X = np.column_stack([np.arange(n), np.zeros(n)])
    curves, heatmap = evaluate(cfg, models, plan, X, TR)

    def ordering(role):
        return np.argsort(-models[role].values, axis=1, kind="stable")

    def decoupled(scenario, s_w, s_f):
        f = ordering("theta2_f") if scenario == 2 else np.tile(plan.selected_beams, (n, 1))
        return [DecoupledSets(s_w=ordering("theta2_w")[r, :s_w], s_f=f[r, :s_f])
                for r in range(n)]

    want = []
    for n_b in cfg.n_b_sweep:
        k = min(n_b, cfg.num_pairs)
        sets = [BeamPairSet(ordering("theta1")[r, :k], num_f) for r in range(n)]
        want.append((1, n_b, k, -1, -1, sets))
        for scenario in (2, 3):
            s_w, s_f = decoupled_split(n_b, cfg.s_w_size, num_f)
            want.append((scenario, n_b, s_w * s_f, s_w, s_f, decoupled(scenario, s_w, s_f)))
    assert curves == [
        {"scenario": scenario, "n_b": n_b, "n_b_actual": actual, "s_w": s_w, "s_f": s_f,
         "r_t": metrics.avg_throughput_ratio(TR, sets, num_f),
         "p_m": metrics.misalignment_probability(TR, sets, num_f),
         "overhead_bits": overhead_bits(scenario, actual, num_w)}
        for scenario, n_b, actual, s_w, s_f, sets in want]
    assert heatmap == [
        {"scenario": scenario, "s_w": s_w, "s_f": s_f,
         "r_t": metrics.avg_throughput_ratio(TR, decoupled(scenario, s_w, s_f), num_f)}
        for scenario in (2, 3) for s_w in (1, 2, 4) for s_f in (1, 3, 8)]


def test_evaluate_logs_rows_trees_and_seconds_per_role(caplog):
    cfg = ExperimentConfig(bs_array=(2, 4), ue_array=(2, 2), n_b_sweep=(1, 2),
                           heatmap_s_w=(1,), heatmap_s_f=(1,))
    rng = np.random.default_rng(5)
    models = {role: _Predictions(rng.uniform(size=(6, size)), trees)
              for role, size, trees in (("theta1", cfg.num_pairs, 7), ("theta2_w", 4, 3),
                                        ("theta2_f", 8, 5))}
    plan = SimpleNamespace(selected_beams=np.arange(8))
    X = np.column_stack([np.arange(6), np.zeros(6)])
    with caplog.at_level(logging.INFO, logger="beamtrain.harness"):
        evaluate(cfg, models, plan, X, rng.uniform(size=(6, cfg.num_pairs)))
    assert [m.rsplit(",", 1)[0] for m in caplog.messages] == [
        "predicted theta1: 6 rows, 7 trees", "predicted theta2_w: 6 rows, 3 trees",
        "predicted theta2_f: 6 rows, 5 trees"]
    assert all(re.fullmatch(r" \d+\.\d{4} s", m.rsplit(",", 1)[1]) for m in caplog.messages)


def test_train_role_logs_grid_point_trees_parameters_and_seconds(caplog):
    config = dataclasses.replace(
        ExperimentConfig.smoke(), snapshot_count=4, folds=3,
        ue_grid=({"tree_count": 2, "max_depth": 1}, {"tree_count": 6, "max_depth": 3}))
    _, _, tr_rows, atr_rows = build_corpus(config)
    split = split_corpus(config, len(tr_rows))
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="beamtrain"):
        models = {name: train_role(config, name, tr_rows, atr_rows, split)
                  for name in ("theta2_f", "theta2_w")}
    counts = {name: (len(m.layout["tree_sizes"]), boosting.param_count(m))
              for name, m in models.items()}
    fit = r"fit \d+\.\d{3} s"
    # a one-point grid is not tuned, so it logs no validation MSE
    assert caplog.messages[0] == "stage: tune and train theta2_f"
    assert re.fullmatch(r"trained theta2_f: grid point 0 of 1, %d trees, %d parameters, " % counts[
        "theta2_f"] + fit, caplog.messages[1])
    assert caplog.messages[2] == "stage: tune and train theta2_w"
    chosen = re.fullmatch(r"chose grid point ([01]) of 2: val MSE (\S+), mean params \S+",
                          caplog.messages[3])
    assert chosen and 0.0 < float(chosen[2]) < 1.0
    assert re.fullmatch(r"trained theta2_w: grid point %s of 2, %d trees, %d parameters, " % (
        chosen[1], *counts["theta2_w"]) + fit, caplog.messages[4])
    assert len(caplog.messages) == 5
