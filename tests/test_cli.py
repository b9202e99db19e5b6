import dataclasses
import importlib
import json
import logging
import os
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import beamtrain
from beamtrain import boosting, channel, cli, dataset, harness, scene, selectors
from beamtrain.boosting import TrainConfig, save_model, train
from beamtrain.channel import (default_bs_geometry, default_ue_geometry, dense_channel,
                               path_responses)
from beamtrain.dataset import load_dataset
from beamtrain.fileio import load_npz
from beamtrain.harness import ExperimentConfig
from reference_boosting import tree_depth
from reference_scene import paths_table
from reference_scene import trace_paths as trace_paths_reference


def _tiny_config(tmp_path, **overrides):
    cfg = ExperimentConfig.smoke()
    raw = cfg.to_dict()
    raw.update({"snapshot_count": 4, **overrides})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return str(path)


def _rate_file(tmp_path, *config_args):
    """The rate file that `dataset build` writes for the config flags
    `config_args`."""
    ds = str(tmp_path / "ds")
    assert cli.main(["dataset", "build", *config_args, "--out", ds]) == 0
    return ds + "/rates.npz"


def test_scene_gen(tmp_path, capsys, monkeypatch):
    traced = []
    trace = scene._trace

    def counting(snapshot, ue_indices, config):
        traced.extend((snapshot.snapshot_id, int(ue)) for ue in ue_indices)
        return trace(snapshot, ue_indices, config)

    def no_dense(*args):
        raise AssertionError("scene gen formed a dense channel")

    monkeypatch.setattr(scene, "_trace", counting)
    monkeypatch.setattr(channel, "trace_paths", None)   # no per-UE route
    monkeypatch.setattr(channel, "dense_channel", no_dense)
    out = str(tmp_path / "scene")
    config_path = _tiny_config(tmp_path)
    rc = cli.main(["scene", "gen", "--config", config_path, "--out", out])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    monkeypatch.undo()
    paths, _ = load_npz(out + "/paths.npz", "paths", cli.PATHS_FORMAT_VERSION, cli.PATHS_SCHEMA)
    assert sorted(paths) == sorted(("format_version", *cli.PATHS_SCHEMA))
    lines = Path(out, "paths_index.csv").read_text().splitlines()
    assert lines[0] == "snapshot_id,ue_index,x,y,path_count"
    index = [line.split(",") for line in lines[1:]]
    # every UE is listed, also one without paths, and each was traced once
    assert traced == [(int(row[0]), int(row[1])) for row in index]
    assert any(row[4] == "0" for row in index)
    assert sum(int(row[4]) for row in index) == len(paths["ue"]) > 0

    # the dense channel of each UE's rows of the file is the dense channel
    # of the reference tracer's paths, bit for bit, and the index counts them
    config = ExperimentConfig.from_file(config_path)
    bs_g = default_bs_geometry(config.scene, *config.bs_array)
    ue_g = default_ue_geometry(config.scene, *config.ue_array)
    table = scene.PathTable(**{key: paths[key] for key in list(cli.PATHS_SCHEMA)[1:]})
    a_ue, a_bs, phases = path_responses(table, bs_g, ue_g, config.scene)
    snaps = harness.generate_snapshots(config)
    for snapshot_id, ue, x, y, count in index:
        rows = np.flatnonzero((paths["snapshot_id"] == int(snapshot_id))
                              & (paths["ue"] == int(ue)))
        reference = trace_paths_reference(snaps[int(snapshot_id)], int(ue), config.scene)
        assert int(count) == len(rows) == len(reference)
        assert [scene.PATH_KINDS[k] for k in paths["kind"][rows]] == [p.kind for p in reference]
        assert [x, y] == ["%.9g" % v for v in snaps[int(snapshot_id)].ue_location(int(ue))]
        H = dense_channel(paths["gain"][rows], a_ue[rows], a_bs[rows], phases[:, rows])
        dense = channel.paths_to_channel(paths_table(reference), bs_g, ue_g, config.scene)
        assert H.tobytes() == dense.matrices.tobytes()


def test_readme_python_block_rebuilds_a_ues_channel(tmp_path, monkeypatch):
    """README's python block, run after `scene gen --smoke --out scene_out`,
    gives vehicle 5 of snapshot 0 the dense channel of its traced paths,
    bit for bit."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    assert cli.main(["scene", "gen", "--smoke", "--out", "scene_out"]) == 0
    namespace = {}
    exec(blocks[0].split("```")[0], namespace)
    config = ExperimentConfig.smoke()
    snapshot = harness.generate_snapshots(config)[0]
    bs_g = default_bs_geometry(config.scene, *config.bs_array)
    ue_g = default_ue_geometry(config.scene, *config.ue_array)
    expected = channel.paths_to_channel(scene.trace_paths(snapshot, 5, config.scene), bs_g, ue_g,
                                        config.scene).matrices
    H = namespace["H"]
    assert H.dtype == expected.dtype and H.shape == expected.shape
    assert H.tobytes() == expected.tobytes() and np.any(H != 0)


def test_readme_names_only_attributes_and_config_keys_that_exist():
    """Every backticked `<module>.<name>` of README, alone or called, is an
    attribute of `beamtrain.<module>`, or, as `scene.<name>`, a scene config
    key; so a rename or a deletion fails here instead of leaving stale docs.
    Fenced blocks are left out: the python block runs in its own test."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    readme = re.sub(r"```.*?```", "", readme, flags=re.S)
    modules = {m.name for m in pkgutil.iter_modules(beamtrain.__path__)}
    keys = {f.name for f in dataclasses.fields(scene.SceneConfig)}
    refs = {(module, name) for module, name in
            re.findall(r"`(\w+)\.([\w.]+)(?:\([^`]*\))?`", readme) if module in modules}

    def exists(module, name):
        obj = importlib.import_module(f"beamtrain.{module}")
        for part in name.split("."):
            obj = getattr(obj, part, exists)
        return obj is not exists or (module == "scene" and name in keys)

    assert {module for module, _ in refs} >= {"boosting", "dataset", "harness", "scene"}
    assert [f"{module}.{name}" for module, name in sorted(refs) if not exists(module, name)] == []


def test_dataset_build_writes_the_rate_rows_that_the_transform_divides(tmp_path):
    """`dataset build` writes the rate rows of the in-process rate stage,
    bit for bit, and the transform stage divides the loaded rates in place
    into TR rows."""
    config_path = _tiny_config(tmp_path)
    config = ExperimentConfig.from_file(config_path)
    path = _rate_file(tmp_path, "--config", config_path)
    locations, rates = load_dataset(path, (16, 64), config.corpus_keys())
    expected = harness.build_rate_rows(config)[1]
    assert rates.shape == (len(expected), 1024) and len(expected) > 0
    with np.load(path) as npz:
        assert npz["snapshot_ids"].tolist() == expected.snapshot_id.tolist()
        assert npz["ue_indices"].tolist() == expected.ue_index.tolist()
    assert rates.tobytes() == expected.rates.tobytes()
    assert locations.tobytes() == expected.location.tobytes()
    tr, _ = harness.transform_corpus(config, locations, rates)
    assert tr.ratios is rates and tr.location is locations
    assert np.all(rates.max(axis=1) == 1.0)


def test_model_train_reads_the_pair_shape_of_its_rate_file(tmp_path):
    """The file of a 4x4 BS array records its (16, 16) pair shape, and the
    transform of `model train` reads it: theta2_f gets 16 outputs."""
    config = _tiny_config(tmp_path, bs_array=[4, 4])
    rates = _rate_file(tmp_path, "--config", config)
    with np.load(rates) as npz:
        assert npz["pair_shape"].tolist() == [16, 16]
        assert npz["rates"].shape[1] == 256
    model = str(tmp_path / "m.npz")
    assert cli.main(["model", "train", "--config", config, "--input", rates,
                     "--role", "theta2_f", "--out", model]) == 0
    assert boosting.load_model(model).output_dimension == 16


def _npz_arrays(path):
    with np.load(path) as data:
        return {name: (data[name].dtype.str, data[name].tobytes()) for name in data.files}


def test_model_train_fits_only_its_role(tmp_path, monkeypatch):
    cfg = _tiny_config(tmp_path, folds=3, ue_grid=[
        {"tree_count": 5, "max_depth": 2, "learning_rate": 0.3},
        {"tree_count": 10, "max_depth": 3, "learning_rate": 0.5}])
    rates = _rate_file(tmp_path, "--config", cfg)
    fitted = []
    real_train = boosting.train

    def counting(X, Y, config, role="coupled", rows=None):
        fitted.append(Y.shape[1])
        return real_train(X, Y, config, role, rows)

    monkeypatch.setattr(boosting, "train", counting)
    path = str(tmp_path / "m.npz")
    assert cli.main(["model", "train", "--config", cfg, "--input", rates, "--role", "theta2_w",
                     "--out", path]) == 0
    assert fitted == [16] * (2 * 3 + 1)   # 2 grid points x 3 folds, then the final fit
    # the file holds the theta2_w model of the whole pipeline
    config = ExperimentConfig.from_file(cfg)
    _, _, tr_rows, atr_rows = harness.build_corpus(config)
    models = harness.train_models(config, tr_rows, atr_rows,
                                  harness.split_corpus(config, len(tr_rows)))
    save_model(models["theta2_w"], str(tmp_path / "pipeline.npz"))
    assert _npz_arrays(path) == _npz_arrays(str(tmp_path / "pipeline.npz"))


def test_model_train_and_plan_build_read_only_the_rate_file(tmp_path, monkeypatch):
    """Each role's model file and the plan files from the `--input` rate
    file equal, byte for byte, those of the in-process stages on the
    rebuilt corpus; neither the corpus nor its rate rows are built, and the
    TR rows come from the harness transform stage."""
    config_path = _tiny_config(tmp_path, cluster_count=3)
    rates = _rate_file(tmp_path, "--config", config_path)
    config = ExperimentConfig.from_file(config_path)
    _, _, tr_rows, atr_rows = harness.build_corpus(config)
    split = harness.split_corpus(config, len(tr_rows))

    def no_corpus(config):
        raise AssertionError("the corpus was rebuilt")

    transforms = []
    transform = harness.transform_corpus
    monkeypatch.setattr(harness, "build_corpus", no_corpus)
    monkeypatch.setattr(harness, "build_rate_rows", no_corpus)
    monkeypatch.setattr(harness, "transform_corpus",
                        lambda *args: transforms.append(1) or transform(*args))
    for role in ("theta1", "theta2_f", "theta2_w"):
        path = str(tmp_path / f"{role}.npz")
        assert cli.main(["model", "train", "--config", config_path, "--input", rates,
                         "--role", role, "--out", path]) == 0
        save_model(harness.train_role(config, role, tr_rows, atr_rows, split),
                   str(tmp_path / "expected.npz"))
        assert Path(path).read_bytes() == (tmp_path / "expected.npz").read_bytes()
    out = str(tmp_path / "plan.npz")
    assert cli.main(["plan", "build", "--config", config_path, "--input", rates,
                     "--out", out]) == 0
    plan = harness.build_coverage_plan(config, tr_rows.location, atr_rows.atr_f, split)
    expected = str(tmp_path / "expected_plan.npz")
    selectors.save_plan(plan, expected)
    assert Path(out).read_bytes() == Path(expected).read_bytes()
    assert Path(out + ".csv").read_bytes() == Path(expected + ".csv").read_bytes()
    assert len(transforms) == 4


@pytest.mark.parametrize("command", [["model", "train", "--role", "theta2_w"],
                                     ["plan", "build"]])
def test_a_bad_input_fails_before_training(tmp_path, monkeypatch, capsys, command):
    """A format-2 dataset file (which may hold TR rows) is rejected with an
    error naming the file and its version, a rate file of another pair
    shape with one naming the file and the key, and a missing file with
    one naming the file, before any stage runs."""
    config = _tiny_config(tmp_path)
    rates = _rate_file(tmp_path, "--config", config)
    with np.load(rates) as npz:
        arrays = {name: npz[name] for name in npz.files}
    old = str(tmp_path / "format2.npz")
    np.savez_compressed(old, **{**arrays, "format_version": np.array([2])})
    (tmp_path / "other").mkdir()
    other_shape = _rate_file(tmp_path / "other", "--config",
                             _tiny_config(tmp_path / "other", bs_array=[4, 4]))
    missing = str(tmp_path / "missing.npz")
    stages = []
    monkeypatch.setattr(harness, "transform_corpus", lambda *args: stages.append(args))
    monkeypatch.setattr(harness, "split_corpus", lambda *args: stages.append(args))
    for path, key in ((old, "unsupported dataset file version"),
                      (other_shape, "pair_shape"), (missing, "No such file")):
        capsys.readouterr()
        assert cli.main([*command, "--config", config, "--input", path,
                         "--out", str(tmp_path / "out.npz")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(path) in err and key in err
    assert stages == [] and not (tmp_path / "out.npz").exists()


def _load_arrays(path):
    with np.load(path) as npz:
        return {name: npz[name] for name in npz.files}


def _nan_at(a, index):
    a = a.copy()
    a[index] = np.nan
    return a


# each bad rate file as a change to the arrays of a good one, and the key
# that its error names
_BAD_RATES = [
    (lambda a: {"rates": _nan_at(a["rates"], (3, 17))}, "rates must be finite floats"),
    (lambda a: {"locations": np.where(np.arange(len(a["locations"]))[:, None] == 2, np.inf,
                                      a["locations"])}, "locations must be finite floats"),
    (lambda a: {"rates": (a["rates"] * 100).astype(np.int64)}, "rates must be finite floats"),
    (lambda a: {"rates": np.where(np.arange(len(a["rates"]))[:, None] == 1, 0.0, a["rates"])},
     "rates row 1 must be non-negative with a positive peak"),
    (lambda a: {"scene": np.array(["not json"])}, "scene must be a JSON table"),
    (lambda a: {"scene": np.array(["[1, 2]"])}, "scene must be a JSON table"),
]


@pytest.mark.parametrize("command", [["model", "train", "--role", "theta2_w"],
                                     ["plan", "build"]])
def test_a_rate_file_with_bad_values_fails_before_any_stage(tmp_path, monkeypatch, capsys,
                                                            caplog, command):
    """A NaN rate, an infinite location, integer rates, a row without a
    positive rate and a scene that is not a JSON table each make the command
    exit 1 with an error naming the file and the key; no stage runs, so no
    `stage:` line is logged and no stage fails."""
    config = _tiny_config(tmp_path)
    arrays = _load_arrays(_rate_file(tmp_path, "--config", config))
    bad = str(tmp_path / "bad.npz")
    for change, key in _BAD_RATES:
        np.savez_compressed(bad, **{**arrays, **change(arrays)})
        capsys.readouterr()
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="beamtrain"):
            assert cli.main([*command, "--config", config, "--input", bad,
                             "--out", str(tmp_path / "out.npz")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: dataset file {bad!r}: {key}"), err
        assert "stage" not in err
        assert not [m for m in caplog.messages if m.startswith("stage:")]
    assert not (tmp_path / "out.npz").exists()


def test_model_inspect_rejects_a_nan_leaf_value(tmp_path, capsys, caplog):
    """A model file with one NaN leaf value would predict NaN for its
    output; `model inspect` exits 1 naming the file and `node_value`."""
    X = np.random.default_rng(0).uniform(0, 10, size=(20, 2))
    path = str(tmp_path / "m.npz")
    save_model(train(X, X[:, :1] / 10.0, TrainConfig(tree_count=3, budget_parameters=1000)),
               path)
    arrays = _load_arrays(path)
    arrays["node_value"][np.flatnonzero(arrays["node_feature"] < 0)[0]] = np.nan
    np.savez_compressed(path, **arrays)
    capsys.readouterr()
    assert cli.main(["model", "inspect", "--model", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: model file {path!r}: node_value must be finite "
                                   "floats of shape (M,), got nan at ")
    assert captured.out == ""


def test_model_inspect_rejects_a_feature_past_the_location(tmp_path, capsys):
    """A model file whose trees split on a feature id past a location's
    two columns loads, as the file does not record the width, but could
    never predict; `model inspect` exits 1 naming the file, `node_feature`,
    the id and the width, and prints nothing."""
    X = np.random.default_rng(0).uniform(0, 10, size=(20, 2))
    path = str(tmp_path / "m.npz")
    save_model(train(X, X[:, :1] / 10.0, TrainConfig(tree_count=3, budget_parameters=1000)),
               path)
    assert cli.main(["model", "inspect", "--model", path]) == 0
    for feature in (2, 5):
        arrays = _load_arrays(path)
        arrays["node_feature"][np.flatnonzero(arrays["node_feature"] >= 0)[-1]] = feature
        bad = str(tmp_path / f"bad-{feature}.npz")
        np.savez_compressed(bad, **arrays)
        capsys.readouterr()
        assert cli.main(["model", "inspect", "--model", bad]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: model file {bad!r}: node_feature must be below the "
                                f"input width 2, got feature {feature}\n")
        assert captured.out == ""


@pytest.mark.parametrize("command", [["model", "train", "--role", "theta2_w"],
                                     ["plan", "build"]])
def test_a_rate_file_of_another_corpus_fails_before_training(tmp_path, monkeypatch, capsys,
                                                             command):
    """A rate file built with another master seed, snapshot count or scene
    than the config and `--seed` give is rejected with an error naming the
    file and the first differing key, before any stage runs."""
    config = _tiny_config(tmp_path)
    rates = _rate_file(tmp_path, "--config", config)
    stages = []
    monkeypatch.setattr(harness, "transform_corpus", lambda *args: stages.append(args))
    monkeypatch.setattr(harness, "split_corpus", lambda *args: stages.append(args))
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    for flags, key in (
            (["--config", config, "--seed", "5"], "master_seed 0, but the config gives 5"),
            (["--config", _tiny_config(tmp_path / "a", snapshot_count=5)],
             "snapshot_count 4, but the config gives 5"),
            (["--config", _tiny_config(tmp_path / "b", scene={"lane_count": 3})],
             "scene.lane_count 4, but the config gives 3")):
        capsys.readouterr()
        assert cli.main([*command, *flags, "--input", rates,
                         "--out", str(tmp_path / "out.npz")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(rates) in err and key in err
    assert stages == [] and not (tmp_path / "out.npz").exists()
    # the file records the corpus keys of the config it was built with
    with np.load(rates) as npz:
        assert {key: npz[key][0].item() for key in dataset.CORPUS_KEYS} == (
            ExperimentConfig.from_file(config).corpus_keys())


@pytest.mark.parametrize("key, value", [
    ("scenarios", []),
    ("scenarios", [4]),
    ("bs_array", [8]),
    ("ue_array", [4, 0]),
    ("folds", "3"),
    ("snapshot_count", 2.5),
    ("s_w_size", "5"),
    ("cluster_count", 6.0),
    ("ue_array", [3, 3]),
    ("n_b_sweep", 5),
    ("scene.roi_y_min", 500.0),
    ("use_significance", "no"),
    ("scene.lane_cnt", 4),
])
def test_eval_run_bad_key_fails_before_any_stage(tmp_path, monkeypatch, capsys, caplog, key,
                                                 value):
    """A bad value, or an unknown key, makes `eval run` exit 1 with an error
    that begins with the key's path, before any stage starts."""
    def no_snapshots(*args, **kwargs):
        raise AssertionError("a snapshot was generated")
    monkeypatch.setattr(harness, "generate_snapshot", no_snapshots)
    table, _, name = key.rpartition(".")
    cfg = _tiny_config(tmp_path, **({table: {name: value}} if table else {key: value}))
    with caplog.at_level(logging.INFO, logger="beamtrain"):
        assert cli.main(["eval", "run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert re.match(rf"error: {re.escape(key)} (must|is an unknown key)\b",
                    capsys.readouterr().err)
    assert not [m for m in caplog.messages if m.startswith("stage:")]


@pytest.mark.parametrize("command, stage, out", [
    pytest.param(["eval", "run", "--smoke"], (harness, "run_experiment"), "out", id="run"),
    pytest.param(["eval", "heatmap", "--smoke"], (harness, "run_experiment"), "out",
                 id="heatmap"),
    pytest.param(["dataset", "build", "--smoke"], (harness, "build_rate_rows"), "ds",
                 id="dataset-build"),
    pytest.param(["dataset", "build", "--smoke"], (harness, "build_rate_rows"), None,
                 id="dataset-build-onto-a-file"),
    pytest.param(["model", "train", "--smoke", "--input", "rates.npz"],
                 (dataset, "load_dataset"), "ds/m.npz", id="model-train"),
    pytest.param(["plan", "build", "--smoke", "--input", "rates.npz"],
                 (dataset, "load_dataset"), "ds/p.npz", id="plan-build"),
])
def test_eval_bad_out_fails_before_any_stage(tmp_path, monkeypatch, capsys, command, stage, out):
    """An --out that cannot be written fails with an error naming it before
    the input is read or a stage runs: a path below a regular file (for a
    file, its directory is checked), or for a directory an existing file."""
    ran = []
    monkeypatch.setattr(*stage, lambda *args, **kwargs: ran.append(args))
    blocker = tmp_path / "file"
    blocker.write_text("")
    bad = blocker if out is None else blocker / out
    assert cli.main([*command, "--out", str(bad)]) == 1
    checked = bad.parent if bad.suffix == ".npz" else bad
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(str(checked)) in err
    assert ran == []


def test_smoke_and_config_cannot_be_combined(tmp_path, capsys):
    """--smoke would silently drop the config file, so argparse rejects the
    pair on every command that takes both."""
    config = _tiny_config(tmp_path)
    for command in (["scene", "gen"], ["dataset", "build"], ["model", "train", "--input", "x"],
                    ["plan", "build", "--input", "x"], ["eval", "run"], ["eval", "heatmap"]):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*command, "--smoke", "--config", config, "--out", str(tmp_path / "out")])
        assert exit_info.value.code == 2
        assert "argument --config: not allowed with argument --smoke" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_run_bad_grid_fails_before_any_stage(tmp_path, monkeypatch, capsys, caplog):
    def no_snapshots(*args, **kwargs):
        raise AssertionError("a snapshot was generated")
    monkeypatch.setattr(harness, "generate_snapshot", no_snapshots)
    cfg = _tiny_config(tmp_path, ue_grid=[{"tree_count": 5}, {"max_dept": 3}])
    with caplog.at_level(logging.INFO, logger="beamtrain"):
        assert cli.main(["eval", "run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "error: ue_grid[1].max_dept is an unknown key" in capsys.readouterr().err
    assert not [m for m in caplog.messages if m.startswith("stage:")]


def test_model_inspect_counts_what_the_tree_views_give(tmp_path, capsys):
    """`model inspect` reads tree counts and depths from the layout; on a
    --smoke model it prints what counting the `Tree` views prints."""
    path = str(tmp_path / "m.npz")
    assert cli.main(["model", "train", "--smoke", "--input", _rate_file(tmp_path, "--smoke"),
                     "--role", "theta2_w", "--out", path]) == 0
    capsys.readouterr()
    assert cli.main(["model", "inspect", "--model", path]) == 0
    model = boosting.load_model(path)
    assert model.step_tables.cells > 0
    depths = Counter(tree_depth(tree) for _, tree in model.trees)
    assert capsys.readouterr().out.splitlines() == [
        "role: decoupled_ue", "outputs: 16", f"trees: {len(model.trees)}",
        f"param_count: {boosting.param_count(model)}",
        f"step_tables: {model.step_tables.cells} cells, "
        f"{model.step_tables.nbytes / 2**20:.3f} MB",
        "cuts: " + ", ".join(f"{len(cuts)} on feature {f}" for f, cuts in zip(
            model.step_tables.features, model.step_tables.cuts)),
        *(f"depth {depth}: {depths[depth]} trees" for depth in sorted(depths))]


def test_model_inspect_handcrafted(tmp_path, capsys):
    X = np.random.default_rng(0).uniform(0, 10, size=(20, 2))
    Y = X[:, :1] / 10.0
    model = train(X, Y, TrainConfig(tree_count=3, budget_parameters=1000))
    path = str(tmp_path / "hand.npz")
    save_model(model, path)
    assert cli.main(["model", "inspect", "--model", path]) == 0
    out = capsys.readouterr().out
    assert "outputs: 1" in out
    # each split feature's cut count is its number of distinct thresholds
    feature, threshold = model.layout["node_feature"], model.layout["node_threshold"]
    cuts = ", ".join(f"{len(set(threshold[feature == f].tolist()))} on feature {f}"
                     for f in sorted(set(feature[feature >= 0].tolist())))
    assert f"\ncuts: {cuts}\n" in out


def test_seed_override_changes_outputs(tmp_path):
    cfg = _tiny_config(tmp_path)
    out_a = str(tmp_path / "s0")
    out_b = str(tmp_path / "s1")
    assert cli.main(["eval", "run", "--config", cfg, "--out", out_a]) == 0
    assert cli.main(["eval", "run", "--config", cfg, "--seed", "5", "--out", out_b]) == 0
    assert Path(out_a, "curves.csv").read_text() != Path(out_b, "curves.csv").read_text()


def test_error_paths_return_nonzero(tmp_path, capsys):
    assert cli.main(["model", "inspect", "--model", str(tmp_path / "missing.npz")]) == 1
    assert "error:" in capsys.readouterr().err
    # the module's `sys.exit(main())` hands a failing command's code to a
    # fresh process
    run = subprocess.run([sys.executable, "-m", "beamtrain.cli", "model", "inspect", "--model",
                          str(tmp_path / "missing.npz")], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert run.returncode == 1 and run.stderr.startswith("error:")
    with pytest.raises(SystemExit):
        cli.main(["nonsense"])
    # the rate file is the only dataset file: no transform command, no CSV
    for command in (["dataset", "transform", "--input", "rates.npz"],
                    ["dataset", "build", "--smoke", "--format", "csv"]):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*command, "--out", str(tmp_path / "out")])
        assert exit_info.value.code == 2
    assert not (tmp_path / "out").exists()
