import json
import logging
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from beamtrain import boosting, channel, cli, harness, scene
from beamtrain.boosting import TrainConfig, save_model, train
from beamtrain.channel import default_bs_geometry, default_ue_geometry, load_channels
from beamtrain.dataset import load_dataset
from beamtrain.harness import ExperimentConfig
from reference_boosting import tree_depth
from reference_scene import trace_paths as trace_paths_reference


def _tiny_config(tmp_path, **overrides):
    cfg = ExperimentConfig.smoke()
    raw = cfg.to_dict()
    raw.update(snapshot_count=4, **overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_scene_gen(tmp_path, capsys, monkeypatch):
    traced = []
    trace = scene._trace

    def counting(snapshot, ue_indices, config):
        traced.extend((snapshot.snapshot_id, int(ue)) for ue in ue_indices)
        return trace(snapshot, ue_indices, config)

    monkeypatch.setattr(scene, "_trace", counting)
    monkeypatch.setattr(channel, "trace_paths", None)   # no per-UE route
    out = str(tmp_path / "scene")
    config_path = _tiny_config(tmp_path)
    rc = cli.main(["scene", "gen", "--config", config_path, "--out", out])
    assert rc == 0
    channels = load_channels(out + "/channels.npz")
    assert channels
    assert traced == [(c.snapshot_id, c.ue_index) for c in channels]   # each UE traced once
    lines = Path(out, "channels_index.csv").read_text().splitlines()
    assert lines[0] == "snapshot_id,ue_index,x,y,path_count"
    assert len(lines) == len(channels) + 1
    assert "wrote" in capsys.readouterr().out

    # each channel is the dense channel of the reference tracer's paths,
    # bit for bit, and the index counts those paths
    config = ExperimentConfig.from_file(config_path)
    bs_g = default_bs_geometry(config.scene, *config.bs_array)
    ue_g = default_ue_geometry(config.scene, *config.ue_array)
    snaps = [scene.generate_snapshot(config.scene, harness.derive_seed(config.master_seed, i),
                                     snapshot_id=i) for i in range(config.snapshot_count)]
    for c, line in zip(channels, lines[1:]):
        paths = trace_paths_reference(snaps[c.snapshot_id], c.ue_index, config.scene)
        dense = channel.paths_to_channel(paths, bs_g, ue_g, config.scene)
        assert np.array_equal(c.matrices, dense.matrices)
        assert int(line.split(",")[-1]) == len(paths)
    assert any(n > 0 for n in (int(line.split(",")[-1]) for line in lines[1:]))


def test_dataset_build_and_transform(tmp_path):
    out = str(tmp_path / "ds")
    rc = cli.main(["dataset", "build", "--config", _tiny_config(tmp_path), "--out", out])
    assert rc == 0
    rows, pair_shape = load_dataset(out + "/rates.npz", fmt="binary")
    assert rows and rows[0].rates.shape == (1024,)
    assert pair_shape == (16, 64)

    tr_out = str(tmp_path / "tr.npz")
    rc = cli.main(["dataset", "transform", "--input", out + "/rates.npz", "--out", tr_out])
    assert rc == 0
    tr, pair_shape = load_dataset(tr_out, fmt="binary")
    assert pair_shape == (16, 64)
    assert np.all(np.max([r.ratios for r in tr], axis=1) == 1.0)


def test_dataset_transform_keeps_the_input_pair_shape(tmp_path):
    out = str(tmp_path / "ds")
    config = _tiny_config(tmp_path, bs_array=[4, 4])
    assert cli.main(["dataset", "build", "--config", config, "--out", out]) == 0
    tr_out = str(tmp_path / "tr.npz")
    assert cli.main(["dataset", "transform", "--input", out + "/rates.npz",
                     "--out", tr_out]) == 0
    with np.load(tr_out) as npz:
        assert npz["pair_shape"].tolist() == [16, 16]
        assert npz["values"].shape[1] == 256
    tr, pair_shape = load_dataset(tr_out, fmt="binary")
    assert pair_shape == (16, 16) and tr[0].ratios.shape == (256,)


def test_model_train_and_inspect(tmp_path, capsys):
    model_path = str(tmp_path / "m.npz")
    rc = cli.main(["model", "train", "--config", _tiny_config(tmp_path),
                   "--role", "theta2_w", "--out", model_path])
    assert rc == 0
    rc = cli.main(["model", "inspect", "--model", model_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "role: decoupled_ue" in out
    assert "param_count:" in out


def _npz_arrays(path):
    with np.load(path) as data:
        return {name: (data[name].dtype.str, data[name].tobytes()) for name in data.files}


def test_model_train_fits_only_its_role(tmp_path, monkeypatch):
    cfg = _tiny_config(tmp_path, folds=3, ue_grid=[
        {"tree_count": 5, "max_depth": 2, "learning_rate": 0.3},
        {"tree_count": 10, "max_depth": 3, "learning_rate": 0.5}])
    fitted = []
    real_train = boosting.train

    def counting(X, Y, config, role="coupled"):
        fitted.append(Y.shape[1])
        return real_train(X, Y, config, role)

    monkeypatch.setattr(boosting, "train", counting)
    path = str(tmp_path / "m.npz")
    assert cli.main(["model", "train", "--config", cfg, "--role", "theta2_w", "--out", path]) == 0
    assert fitted == [16] * (2 * 3 + 1)   # 2 grid points x 3 folds, then the final fit
    # the file holds the theta2_w model of the whole pipeline
    config = ExperimentConfig.from_file(cfg)
    _, _, tr_rows, atr_rows = harness.build_corpus(config)
    models = harness.train_models(config, tr_rows, atr_rows,
                                  harness.split_corpus(config, len(tr_rows)))
    save_model(models["theta2_w"], str(tmp_path / "pipeline.npz"))
    assert _npz_arrays(path) == _npz_arrays(str(tmp_path / "pipeline.npz"))


@pytest.mark.parametrize("command", ["run", "heatmap"])
def test_eval_bad_out_fails_before_any_stage(tmp_path, monkeypatch, capsys, command):
    ran = []
    monkeypatch.setattr(harness, "run_experiment", ran.append)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main(["eval", command, "--smoke", "--out", str(blocker / "out")]) == 1
    assert "error:" in capsys.readouterr().err
    assert ran == []


def test_eval_run_bad_grid_fails_before_any_stage(tmp_path, monkeypatch, capsys, caplog):
    def no_snapshots(*args, **kwargs):
        raise AssertionError("a snapshot was generated")
    monkeypatch.setattr(harness, "generate_snapshot", no_snapshots)
    cfg = _tiny_config(tmp_path, ue_grid=[{"tree_count": 5}, {"max_dept": 3}])
    with caplog.at_level(logging.INFO, logger="beamtrain"):
        assert cli.main(["eval", "run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "ue_grid[1].max_dept is not a grid key" in capsys.readouterr().err
    assert not [m for m in caplog.messages if m.startswith("stage:")]


def test_model_inspect_counts_what_the_tree_views_give(tmp_path, capsys):
    """`model inspect` reads tree counts and depths from the layout; on a
    --smoke model it prints what counting the `Tree` views prints."""
    path = str(tmp_path / "m.npz")
    assert cli.main(["model", "train", "--smoke", "--role", "theta2_w", "--out", path]) == 0
    capsys.readouterr()
    assert cli.main(["model", "inspect", "--model", path]) == 0
    model = boosting.load_model(path)
    depths = Counter(tree_depth(tree) for _, tree in model.trees)
    assert capsys.readouterr().out.splitlines() == [
        "role: decoupled_ue", "outputs: 16", f"trees: {len(model.trees)}",
        f"param_count: {boosting.param_count(model)}",
        *(f"depth {depth}: {depths[depth]} trees" for depth in sorted(depths))]


def test_model_inspect_handcrafted(tmp_path, capsys):
    X = np.random.default_rng(0).uniform(0, 10, size=(20, 2))
    Y = X[:, :1] / 10.0
    model = train(X, Y, TrainConfig(tree_count=3, budget_parameters=1000))
    path = str(tmp_path / "hand.npz")
    save_model(model, path)
    assert cli.main(["model", "inspect", "--model", path]) == 0
    assert "outputs: 1" in capsys.readouterr().out


def test_plan_build(tmp_path, capsys):
    out = str(tmp_path / "plan.npz")
    rc = cli.main(["plan", "build", "--config", _tiny_config(tmp_path, cluster_count=3),
                   "--out", out])
    assert rc == 0
    from beamtrain.selectors import load_plan
    plan = load_plan(out)
    assert sorted(plan.selected_beams) == list(range(64))
    assert Path(out + ".csv").read_text().startswith("selection_order")


def test_eval_run_byte_identical(tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert cli.main(["eval", "run", "--smoke", "--out", out_a]) == 0
    assert cli.main(["eval", "run", "--smoke", "--out", out_b]) == 0
    for name in ("curves.csv", "heatmap.csv", "run_manifest.json"):
        assert Path(out_a, name).read_bytes() == Path(out_b, name).read_bytes()


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
    with pytest.raises(SystemExit):
        cli.main(["nonsense"])
