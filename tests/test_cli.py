import json
from pathlib import Path

import numpy as np
import pytest

from beamtrain import cli
from beamtrain.boosting import TrainConfig, save_model, train
from beamtrain.channel import load_channels
from beamtrain.dataset import load_dataset
from beamtrain.harness import ExperimentConfig


def _tiny_config(tmp_path, **overrides):
    cfg = ExperimentConfig.smoke()
    raw = cfg.to_dict()
    raw.update(snapshot_count=4, **overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_scene_gen(tmp_path, capsys):
    out = str(tmp_path / "scene")
    rc = cli.main(["scene", "gen", "--config", _tiny_config(tmp_path), "--out", out])
    assert rc == 0
    channels = load_channels(out + "/channels.npz")
    assert channels
    lines = Path(out, "channels_index.csv").read_text().splitlines()
    assert lines[0] == "snapshot_id,ue_index,x,y,path_count"
    assert len(lines) == len(channels) + 1
    assert "wrote" in capsys.readouterr().out


def test_dataset_build_and_transform(tmp_path):
    out = str(tmp_path / "ds")
    rc = cli.main(["dataset", "build", "--config", _tiny_config(tmp_path), "--out", out])
    assert rc == 0
    rows = load_dataset(out + "/rates.npz", fmt="binary")
    assert rows and rows[0].rates.shape == (1024,)

    tr_out = str(tmp_path / "tr.npz")
    rc = cli.main(["dataset", "transform", "--input", out + "/rates.npz", "--out", tr_out])
    assert rc == 0
    tr = load_dataset(tr_out, fmt="binary")
    assert np.all(np.max([r.ratios for r in tr], axis=1) == 1.0)


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
