import dataclasses
import hashlib
import json
import logging
import math
import re
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrain import boosting, cli, harness, metrics, selectors
from beamtrain.harness import (DEFAULT_N_B_SWEEP, ExperimentConfig, StageError, _stage,
                               build_corpus, build_coverage_plan, decoupled_split, derive_seed,
                               emit_outputs, evaluate, run_experiment, split_corpus, train_role)
from beamtrain.scene import SceneConfig
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


def test_config_rejects_unknown_keys_and_versions(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1]")
    with pytest.raises(ValueError, match=r"^config must be a table of keys, got \[1\]"):
        ExperimentConfig.from_file(str(path))
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
    ("master_seed", -1),
    ("master_seed", 1.5),
    ("ue_array", [3, 3]),
    ("ue_array", [1, 6]),
    ("n_b_sweep", [1.5, 4]),
    ("n_b_sweep", [1, 2.0]),
    ("heatmap_s_w", [1, 2.5]),
    ("heatmap_s_f", [4.0]),
    ("n_b_sweep", 5),
    ("heatmap_s_w", 5),
    ("use_significance", "no"),
    ("master_seed", True),
    ("test_fraction", "0.2"),
    ("bs_grid", 5),
    ("scene", [1]),
    ("scene", 5),
    ("scene.lane_width", -1),
    ("scene.bs_height", -10),
    ("scene.wall_height", -5),
    ("scene.subcarrier_spacing", -120e3),
    ("scene.wall_reflection", 3.0),
    ("scene.blockage_margin", -5),
    ("scene.reference_snr_db", 1e308),
    ("scene.bus_fraction", 1.5),
    # a scene with no room for a UE fails as an experiment's scene
    ("scene.bus_fraction", 1.0),
    ("scene.ue_fraction", 0.0),
    ("scene.ue_fraction", -0.1),
    ("scene.roi_y_min", 500.0),
    ("scene.wall_clearance", 1e-275),
    # a sweep of 2^24 or 2^20 pairs per UE would exhaust memory or time
    ("bs_array", [4096, 4096]),
    ("ue_array", [1024, 1024]),
])
def test_config_rejects_bad_evaluation_keys(key, value):
    # rejected when the config is read, before any stage runs, with an error
    # that begins with the key; a scene key keeps its `scene.` prefix
    outer, _, inner = key.partition(".")
    with pytest.raises(ValueError, match=f"^{re.escape(key)} must "):
        ExperimentConfig.from_dict({outer: {inner: value} if inner else value})


def test_config_bounds_the_beam_pairs():
    """The rate stage holds UEs x beam pairs floats, the pairs being the
    product of both arrays' elements: a config may ask for at most 4096,
    4x the paper's 1024, whatever each side's own bound admits. Checked by
    construction only; no stage runs at or past the bound."""
    assert ExperimentConfig(bs_array=(16, 16), ue_array=(4, 4)).num_pairs == 4096
    for bs, ue in (((32, 16), (4, 4)), ((32, 32), (32, 32))):
        with pytest.raises(ValueError, match=(
                rf"^bs_array must be of at most {4096 // (ue[0] * ue[1])} elements beside "
                rf"ue_array {re.escape(str(ue))}, at most 4096 beam pairs, "
                rf"got {re.escape(str(bs))}$")):
            ExperimentConfig.from_dict({"bs_array": list(bs), "ue_array": list(ue)})


@pytest.mark.parametrize("key, grid, message", [
    ("ue_grid", [], "ue_grid must hold at least one grid point"),
    ("bs_grid", [{"max_dept": 3}], "bs_grid[0].max_dept is an unknown key"),
    ("ue_grid", [{}, {"budget_parameters": 10}], "ue_grid[1].budget_parameters is an unknown key"),
    ("ue_grid", [{"tree_count": 5}, {"min_samples_leaf": 0}],
     "ue_grid[1].min_samples_leaf must be an integer >= 1, got 0"),
    ("bs_grid", [{"max_depth": 2.5}], "bs_grid[0].max_depth must be an integer >= 1, got 2.5"),
    ("bs_grid", [{"learning_rate": 0.0}], "bs_grid[0].learning_rate must be in (0, 1], got 0.0"),
    ("bs_grid", [{"tree_count": "9"}], "bs_grid[0].tree_count must be an integer >= 0, got '9'"),
    ("bs_grid", [3], "bs_grid[0] must be a table of keys, got 3"),
])
def test_config_rejects_bad_model_grids(key, grid, message):
    # rejected when the config is built, before any stage runs
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig.from_dict({key: grid})
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(**{key: tuple(grid)})


def _reals(*bounds):
    """Each finite bound with the floats just below and above it; an
    infinite bound as itself and the largest float inside it."""
    return [v for b in bounds for v in (
        [b, math.nextafter(b, 0.0)] if math.isinf(b)
        else [math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf)])]


def _ints(*bounds):
    return [v for b in bounds for v in (b - 1, b, b + 1)]


# Values at, just inside and just outside each bound of every key's rule,
# cross-key bounds included, against the smoke config's other keys: min_gap
# 2 m, max_gap 12 m, a 4.5 m car, a 2.5 m wide bus, a 160 m street, and the
# region of interest from 20 m.
_SCENE_EDGES = {
    "lane_count": _ints(1, 64),
    "subcarrier_count": _ints(1, 4096),
    **dict.fromkeys(("lane_width", "bs_height", "wall_height", "subcarrier_spacing"),
                    _reals(0.0, 1e12)),
    "wall_clearance": _reals(0.0, 1e-100, 1e12),
    "carrier_frequency": _reals(1e6, 1e12),
    # a 650 km street holds the most vehicles a lane may; a corpus at it
    # would take minutes, so only the float above it is drawn
    "street_length": _reals(0.0, 6.5, 24.5) + [math.nextafter(650_000.0, math.inf)],
    "min_gap": _reals(0.0, 12.0),
    "max_gap": _reals(2.0, 1e12),
    **dict.fromkeys(("bus_fraction", "ue_fraction", "wall_reflection", "bus_reflection"),
                    _reals(0.0, 1.0)),
    "car_dims": [(1.75, v, 1.5) for v in _reals(0.0, 140.0)] + [(1.75, 4.5), (1, 1, 1, 1)],
    "bus_dims": [(v, 12.0, 3.8) for v in _reals(0.0, 1e12)] + [(2.5, 12.0)],
    "roi_y_min": _reals(-math.inf, 155.5, math.inf),
    "blockage_margin": _reals(-math.inf, -1.25, math.inf),
    "reference_snr_db": _reals(-300.0, 300.0),
}
_EXPERIMENT_EDGES = {
    "scene": [{}, 5],
    **dict.fromkeys(("bs_array", "ue_array"),
                    [[v, 1] for v in _ints(1, 32)] + [[2], [1, 1, 1], [3, 1]]),
    "master_seed": _ints(0),
    "snapshot_count": _ints(1, 999_999),
    "test_fraction": _reals(0.0, 1.0),
    "folds": _ints(2),
    **dict.fromkeys(("n_b_sweep", "heatmap_s_w", "heatmap_s_f"), [[]] + [[v] for v in _ints(1)]),
    **dict.fromkeys(("s_w_size", "cluster_count"), _ints(1)),
    "use_significance": [True, False, 0],
    **dict.fromkeys(("bs_grid", "ue_grid"), [[], [{}], [3], [{"max_depth": 0}]]),
}
_TRAIN_EDGES = {
    **dict.fromkeys(("tree_count", "budget_parameters"), _ints(0)),
    **dict.fromkeys(("max_depth", "min_samples_leaf"), _ints(1)),
    "learning_rate": _reals(0.0, 1.0),
}
_EDGES = {SceneConfig: _SCENE_EDGES, ExperimentConfig: _EXPERIMENT_EDGES,
          boosting.TrainConfig: _TRAIN_EDGES}
_WRONG_TYPES = ["5", True, None, [1.0]]
# a cross-key rule names one of its keys, which may be another than the one
# drawn: the gaps' order names max_gap, and the room for a car past the
# region of interest's start names roi_y_min
_NAMED_BY = {"min_gap": "scene.max_gap", "car_dims": "scene.roi_y_min",
             "street_length": "scene.roi_y_min"}


def test_edges_cover_every_config_key():
    for cls, edges in _EDGES.items():
        assert sorted(edges) == sorted(f.name for f in dataclasses.fields(cls))


def test_readme_rule_table_names_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = readme.split("| Key | Rule |\n", 1)[1].split("\n\n", 1)[0].splitlines()[1:]
    named = {key for row in rows for key in re.findall(r"`([\w.]+)`", row.split("|")[1])}
    assert named == ({f.name for f in dataclasses.fields(ExperimentConfig)}
                     | {f.name for f in dataclasses.fields(boosting.TrainConfig)}
                     | {"scene." + f.name for f in dataclasses.fields(SceneConfig)})


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_every_config_key_fails_naming_itself_or_builds_a_corpus(data):
    """One key of the smoke config set to a value at, just inside or just
    outside a bound of its rule, or to a wrong type: the config fails to
    build with a ValueError that begins with the key (`scene.<key>` for a
    scene key, `<grid>[i]` for a grid point), or a 2-snapshot corpus
    builds."""
    cls = data.draw(st.sampled_from(list(_EDGES)))
    key = data.draw(st.sampled_from(sorted(_EDGES[cls])))
    value = data.draw(st.sampled_from(_EDGES[cls][key] + _WRONG_TYPES))
    raw = dataclasses.asdict(ExperimentConfig.smoke())
    (raw["scene"] if cls is SceneConfig else raw)[key] = value
    names = [f"scene.{key}" if cls is SceneConfig else key] + [_NAMED_BY.get(key)] * (
        cls is SceneConfig and key in _NAMED_BY)
    try:
        if cls is boosting.TrainConfig:
            boosting.TrainConfig(**{key: value})
            return
        config = ExperimentConfig.from_dict(raw)
    except ValueError as exc:
        assert any(re.match(rf"{re.escape(name)}(\[\d+\](\.\w+)?)? must ", str(exc))
                   for name in names), str(exc)
        return
    with np.errstate(all="ignore"):
        snapshots = build_corpus(dataclasses.replace(config, snapshot_count=2))[0]
    assert len(snapshots) == 2


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


def test_every_run_evaluates_the_three_scenarios():
    # `scenarios` is a class constant, so neither a config key nor a field
    # of the manifest's config
    assert ExperimentConfig.scenarios == (1, 2, 3)
    assert "scenarios" not in ExperimentConfig().to_dict()
    with pytest.raises(ValueError, match=r"^scenarios is an unknown key; the known keys are "):
        ExperimentConfig.from_dict({"scenarios": [1, 2, 3]})


def test_config_rejects_output_dir():
    # the output directory is the CLI's --out, never a config key
    with pytest.raises(ValueError, match=r"^output_dir is an unknown key; the known keys are "
                                         r"\['bs_array', "):
        ExperimentConfig.from_dict({"output_dir": "out"})


def test_too_many_clusters_fail_before_training(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("a model was trained before the plan was built")
    monkeypatch.setattr(boosting, "train", no_training)
    config = dataclasses.replace(ExperimentConfig.smoke(), snapshot_count=4,
                                 cluster_count=10_000)
    with pytest.raises(StageError, match="cluster_count 10000: 10000 clusters exceed"):
        run_experiment(config)


def test_an_empty_test_split_fails_before_the_plan_and_training(monkeypatch):
    """A `test_fraction` that rounds to no test row fails right after the
    split, naming the key and the row count, before the plan is built or a
    model is trained."""
    def not_reached(*args, **kwargs):
        raise AssertionError("the plan or a model was built before the split was checked")
    monkeypatch.setattr(selectors, "select_bs_coverage", not_reached)
    monkeypatch.setattr(boosting, "train", not_reached)
    config = dataclasses.replace(ExperimentConfig.smoke(), snapshot_count=4,
                                 test_fraction=0.001)
    rows = len(harness.build_rate_rows(config)[1])
    with pytest.raises(ValueError, match=rf"^test_fraction must be large enough to give one of "
                                         rf"the {rows} rows to the test split, got 0\.001$"):
        run_experiment(config)


def test_too_few_training_rows_for_the_folds_fail_before_the_plan_and_training(
        tmp_path, monkeypatch, capsys, caplog):
    """A `test_fraction` that leaves fewer training rows than `folds` makes
    `eval run`, `model train` and `plan build` exit 1 in the split stage
    with an error that names the key and the row counts, so before the
    plan is built or a model is trained."""
    raw = {**ExperimentConfig.smoke().to_dict(), "snapshot_count": 4, "test_fraction": 0.99,
           "folds": 10}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(raw))
    assert cli.main(["dataset", "build", "--config", str(config),
                     "--out", str(tmp_path / "ds")]) == 0
    rates = str(tmp_path / "ds" / "rates.npz")
    with np.load(rates) as npz:
        rows = len(npz["rates"])
    n_train = rows - round(rows * 0.99)

    def not_reached(*args, **kwargs):
        raise AssertionError("the plan or a model was built before the split was checked")
    monkeypatch.setattr(selectors, "select_bs_coverage", not_reached)
    monkeypatch.setattr(boosting, "train", not_reached)
    for command in (["eval", "run"], ["model", "train", "--input", rates],
                    ["plan", "build", "--input", rates]):
        capsys.readouterr()
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="beamtrain"):
            # each its own --out: `eval run` makes its --out a directory,
            # which a one-file command refuses before the split
            assert cli.main([*command, "--config", str(config),
                             "--out", str(tmp_path / "out" / command[0])]) == 1
        assert capsys.readouterr().err == (
            f"error: stage 'split dataset' failed: folds must be at most the {n_train} training "
            f"rows that test_fraction 0.99 leaves of {rows}, got 10\n")
        assert caplog.messages[-1] == "stage: split dataset"
    assert [path for path in (tmp_path / "out").rglob("*") if path.is_file()] == []


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
    assert caplog.messages[:2] == ["stage: build cluster coverage plan",
                                   "coverage plan: 3 clusters of 2 to 6 training rows, median 3"]
    assert re.fullmatch(r"stage: build cluster coverage plan: \d+\.\d{3} s, peak RSS \d+\.\d MB",
                        caplog.messages[2])
    assert len(caplog.messages) == 3


@pytest.fixture(scope="module")
def smoke_run():
    """The smoke run's result, and the models, plan, test rows and
    orderings that its evaluation read."""
    seen = {"orders": []}
    evaluate_, prefix_tables = harness.evaluate, metrics.prefix_tables

    def evaluate_spy(config, models, plan, X_test, TR_test):
        seen.update(models=models, plan=plan, X_test=X_test)
        return evaluate_(config, models, plan, X_test, TR_test)

    def prefix_tables_spy(grid, w_order, f_order):
        seen["orders"].append((w_order, f_order))
        return prefix_tables(grid, w_order, f_order)

    with mock.patch.object(harness, "evaluate", evaluate_spy), \
            mock.patch.object(metrics, "prefix_tables", prefix_tables_spy):
        return run_experiment(ExperimentConfig.smoke()), seen


@pytest.fixture(scope="module")
def smoke_result(smoke_run):
    return smoke_run[0]


def test_evaluate_orderings_are_stable_argsort_prefixes(smoke_run):
    """On the trained smoke models, each ordering that evaluation reads is
    the prefix of a stable descending argsort of the role's predictions:
    theta1's 128 of 1024 pairs, which `top_k_stable` takes from a
    partition, and the theta2_w and theta2_f orderings."""
    _, seen = smoke_run
    models, X = seen["models"], seen["X_test"]

    def prefix(role, k):
        return np.argsort(-models[role].predict_batch(X), axis=1, kind="stable")[:, :k]

    (_, theta1), (w_order, f_order), (w_again, plan) = seen["orders"]
    assert len(X) >= 8 and theta1.shape == (len(X), 128)
    assert np.array_equal(theta1, prefix("theta1", 128))
    assert np.array_equal(w_order, prefix("theta2_w", w_order.shape[1])) and w_again is w_order
    assert np.array_equal(f_order, prefix("theta2_f", f_order.shape[1]))



def test_online_selectors_take_the_prefixes_of_the_evaluated_orderings(smoke_run):
    """For every test row and every N_B of the sweep, each online selector,
    which predicts and ranks one location, picks the prefix of the ordering
    that evaluation ranked for that row in its batch: theta1's pairs
    (scheme 1), the theta2_w and theta2_f beams (scheme 2), and the theta3_w
    beams with the plan's list (scheme 3)."""
    result, seen = smoke_run
    config, models, plan, X = result.config, seen["models"], seen["plan"], seen["X_test"]
    (_, theta1), (w_order, f_order), (_, plan_order) = seen["orders"]
    num_w, num_f = config.num_combiners, config.num_beamformers
    assert config.num_pairs >= 512 and len(X) >= 8
    for n_b in config.n_b_sweep:
        k = min(n_b, config.num_pairs)
        s_w, s_f = decoupled_split(n_b, min(config.s_w_size, num_w), num_f)
        assert k <= theta1.shape[1] and s_w <= w_order.shape[1] and s_f <= f_order.shape[1]
        for location, pairs, w, f in zip(X, theta1, w_order, f_order):
            coupled = selectors.select_coupled(models["theta1"], location, k, num_f)
            assert np.array_equal(coupled.flat_indices, pairs[:k])
            decoupled = selectors.select_decoupled_with_location(
                models["theta2_f"], models["theta2_w"], location, s_w, s_f)
            assert np.array_equal(decoupled.s_w, w[:s_w])
            assert np.array_equal(decoupled.s_f, f[:s_f])
            no_location = selectors.select_decoupled_no_location(
                models["theta3_w"], location, s_w, plan.prefix(s_f))
            assert np.array_equal(no_location.s_w, w[:s_w])
            assert np.array_equal(no_location.s_f, plan_order[:s_f])


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


def test_dataset_checksum_is_the_sha256_of_the_stacked_tr_rows(smoke_result):
    _, _, tr_rows, _ = build_corpus(ExperimentConfig.smoke())
    assert smoke_result.dataset_checksum == hashlib.sha256(tr_rows.ratios.tobytes()).hexdigest()


def test_run_experiment_trains_on_the_rate_array_divided_in_place(monkeypatch):
    """`run_experiment` divides the rate stage's array in place: the TR
    column that its models train on shares memory with it, so the rates and
    a TR copy are never held side by side."""
    seen = {}
    build_rate_rows = harness.build_rate_rows

    def build_rate_rows_spy(config):
        snapshots, rate_rows = build_rate_rows(config)
        seen["rates"] = rate_rows.rates
        return snapshots, rate_rows

    class Trained(Exception):
        pass

    def train_models_spy(config, tr_rows, atr_rows, split):
        seen["ratios"] = tr_rows.ratios
        raise Trained

    monkeypatch.setattr(harness, "build_rate_rows", build_rate_rows_spy)
    monkeypatch.setattr(harness, "train_models", train_models_spy)
    with pytest.raises(Trained):
        run_experiment(ExperimentConfig.smoke())
    assert np.shares_memory(seen["ratios"], seen["rates"])


def test_run_experiment_logs_the_peak_rss_after_evaluation(caplog):
    """Every stage that starts ends with a line of its seconds and the peak
    RSS so far, the last one after evaluation, and nested stages end first."""
    config = dataclasses.replace(ExperimentConfig.smoke(), snapshot_count=4, folds=3)
    with caplog.at_level(logging.INFO, logger="beamtrain.harness"):
        run_experiment(config)
    started = [m[len("stage: "):] for m in caplog.messages if re.fullmatch(r"stage: [\w ]+", m)]
    ended = [re.fullmatch(r"stage: ([\w ]+): (\d+\.\d{3}) s, peak RSS (\d+\.\d) MB", m)
             for m in caplog.messages if re.fullmatch(r"stage: .*: .*", m)]
    assert all(ended) and sorted(m[1] for m in ended) == sorted(started)
    assert started == [
        "generate snapshots", "build rate dataset", "transform dataset", "split dataset",
        "build cluster coverage plan", "tune theta1", "fit theta1", "tune theta2_f",
        "fit theta2_f", "tune theta2_w", "fit theta2_w", "evaluate scenarios",
        "predict theta1", "predict theta2_w", "predict theta2_f"]
    assert [m[1] for m in ended][-4:] == ["predict theta1", "predict theta2_w",
                                          "predict theta2_f", "evaluate scenarios"]
    assert caplog.messages[-1] == ended[-1][0]
    peaks = [float(m[3]) for m in ended]
    assert peaks == sorted(peaks) and 10.0 < peaks[-1] <= harness._peak_rss_mb() + 0.05


def test_stage_logs_its_seconds_and_peak_rss_on_a_clean_exit_only(caplog, monkeypatch):
    with caplog.at_level(logging.INFO, logger="beamtrain.harness"):
        with _stage("demo"):
            pass
        with pytest.raises(StageError):
            with _stage("failing"):
                raise ValueError("boom")
        monkeypatch.setattr(harness, "resource", None)
        with _stage("no resource"):
            pass
    assert caplog.messages[0] == "stage: demo"
    assert re.fullmatch(r"stage: demo: \d+\.\d{3} s, peak RSS \d+\.\d MB", caplog.messages[1])
    assert caplog.messages[2:4] == ["stage: failing", "stage: no resource"]
    assert re.fullmatch(r"stage: no resource: \d+\.\d{3} s", caplog.messages[4])
    assert len(caplog.messages) == 5


@pytest.mark.parametrize("platform, mb", [("linux", 3 * 2**10), ("darwin", 3.0)])
def test_peak_rss_is_converted_from_the_platform_unit(monkeypatch, platform, mb):
    """`ru_maxrss` counts KiB on Linux and bytes on macOS."""
    usage = SimpleNamespace(ru_maxrss=3 * 2**20)
    monkeypatch.setattr(harness, "resource",
                        SimpleNamespace(RUSAGE_SELF=0, getrusage=lambda who: usage))
    monkeypatch.setattr(harness.sys, "platform", platform)
    assert harness._peak_rss_mb() == mb
    monkeypatch.setattr(harness, "resource", None)
    assert harness._peak_rss_mb() is None


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
        self.step_tables = SimpleNamespace(cells=10 * trees, nbytes=trees * 2**19)

    def predict_batch(self, X):
        return self.values[np.asarray(X, dtype=int)[:, 0]]


# (n_b_sweep, heatmap_s_w, heatmap_s_f) on 4 x 8 pairs: the first reads
# every prefix in full; the second reads theta1's ordering up to 9 of 32 and
# the theta2_w ordering, the theta2_f ordering and the plan up to 3 of 4,
# 3 of 8 and 3 of 8; the last reads nothing
@pytest.mark.parametrize("n_b_sweep, heatmap_s_w, heatmap_s_f", [
    ((1, 2, 5, 9, 32, 40), (1, 2, 4, 5), (1, 3, 8, 9)),
    ((1, 2, 5, 9), (1, 2), (1, 3)),
    ((), (), ()),
], ids=["all", "theta1_cut", "nothing_read"])
def test_evaluate_reads_the_per_row_metrics(n_b_sweep, heatmap_s_w, heatmap_s_f):
    """Every curve point and heatmap cell equals the per-row reference
    metrics over the prefixes of the predicted orderings, with ties in the
    predictions and in TR; heatmap sizes beyond the codebooks are skipped."""
    cfg = ExperimentConfig(bs_array=(2, 4), ue_array=(2, 2), n_b_sweep=n_b_sweep, s_w_size=3, heatmap_s_w=heatmap_s_w,
                           heatmap_s_f=heatmap_s_f)
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
        s_w, s_f = decoupled_split(n_b, cfg.s_w_size, num_f)
        want += [(scenario, n_b, s_w * s_f, s_w, s_f, decoupled(scenario, s_w, s_f))
                 for scenario in (2, 3)]
    assert curves == [
        {"scenario": scenario, "n_b": n_b, "n_b_actual": actual, "s_w": s_w, "s_f": s_f,
         "r_t": metrics.avg_throughput_ratio(TR, sets, num_f),
         "p_m": metrics.misalignment_probability(TR, sets, num_f),
         "overhead_bits": overhead_bits(scenario, actual, num_w)}
        for scenario, n_b, actual, s_w, s_f, sets in want]
    assert heatmap == [
        {"scenario": scenario, "s_w": s_w, "s_f": s_f,
         "r_t": metrics.avg_throughput_ratio(TR, decoupled(scenario, s_w, s_f), num_f)}
        for scenario in (2, 3)
        for s_w in heatmap_s_w if s_w <= num_w for s_f in heatmap_s_f if s_f <= num_f]


def test_evaluate_logs_rows_trees_and_seconds_per_role(caplog):
    """Each role's prediction is a stage, timed by its end line, and is
    followed by the role's rows, trees and table cells."""
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
    timed = r"stage: predict %s: \d+\.\d{3} s, peak RSS \d+\.\d MB"
    expected = []
    for role, line in (("theta1", "6 rows, 7 trees, 70 table cells (3.500 MB)"),
                       ("theta2_w", "6 rows, 3 trees, 30 table cells (1.500 MB)"),
                       ("theta2_f", "6 rows, 5 trees, 50 table cells (2.500 MB)")):
        expected += [re.escape(f"stage: predict {role}"), timed % role,
                     re.escape(f"predicted {role}: {line}")]
    assert len(caplog.messages) == len(expected)
    assert all(re.fullmatch(e, m) for e, m in zip(expected, caplog.messages)), caplog.messages


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
    timed = r"stage: %s: \d+\.\d{3} s, peak RSS \d+\.\d MB"
    # tuning and the final fit are timed as two stages; a one-point grid is
    # not tuned, so it logs no validation MSE
    assert caplog.messages[0] == "stage: tune theta2_f"
    assert re.fullmatch(timed % "tune theta2_f", caplog.messages[1])
    assert caplog.messages[2] == "stage: fit theta2_f"
    assert re.fullmatch(timed % "fit theta2_f", caplog.messages[3])
    assert caplog.messages[4] == "trained theta2_f: grid point 0 of 1, %d trees, %d parameters" % (
        counts["theta2_f"])
    assert caplog.messages[5] == "stage: tune theta2_w"
    chosen = re.fullmatch(r"chose grid point ([01]) of 2: val MSE (\S+), mean params \S+",
                          caplog.messages[6])
    assert chosen and 0.0 < float(chosen[2]) < 1.0
    assert re.fullmatch(timed % "tune theta2_w", caplog.messages[7])
    assert caplog.messages[8] == "stage: fit theta2_w"
    assert re.fullmatch(timed % "fit theta2_w", caplog.messages[9])
    assert caplog.messages[10] == "trained theta2_w: grid point %s of 2, %d trees, %d parameters" % (
        chosen[1], *counts["theta2_w"])
    assert len(caplog.messages) == 11
