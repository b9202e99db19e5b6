import os

import numpy as np
import pytest

from beamtrain import cli
from beamtrain.boosting import TrainConfig, load_model, save_model, train
from beamtrain.dataset import DATASET_FORMAT_VERSION, RateRow, load_dataset, save_dataset
from beamtrain.fileio import atomic_write, from_table, load_npz, save_npz
from beamtrain.harness import ExperimentConfig
from beamtrain.scene import SceneConfig
from beamtrain.selectors import ClusterCoveragePlan, load_plan, save_plan


def test_atomic_write_replaces_the_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with atomic_write(str(path), newline="") as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_failed_write_keeps_the_old_file_and_no_temp(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with pytest.raises(RuntimeError, match="boom"):
        with atomic_write(str(path)) as fh:
            fh.write("partial")
            raise RuntimeError("boom")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.csv"]
    with pytest.raises(RuntimeError):
        with atomic_write(str(tmp_path / "fresh.npz"), "wb"):
            raise RuntimeError("boom")
    assert os.listdir(tmp_path) == ["out.csv"]


def test_concurrent_writers_use_distinct_temp_files(tmp_path):
    path = str(tmp_path / "run_manifest.json")
    with atomic_write(path) as first:
        with atomic_write(path) as second:
            assert len(os.listdir(tmp_path)) == 2   # two temp files, no target yet
            second.write("second\n")
        first.write("first\n")
    with open(path) as fh:
        assert fh.read() == "first\n"
    assert os.listdir(tmp_path) == ["run_manifest.json"]


def test_files_get_the_mode_of_a_plain_open(tmp_path):
    plain = tmp_path / "plain"
    with open(plain, "w"):
        pass
    save_npz(str(tmp_path / "a.npz"), {"x": np.arange(3)}, 1)
    with atomic_write(str(tmp_path / "b.csv")) as fh:
        fh.write("x\n")
    want = os.stat(plain).st_mode
    assert os.stat(tmp_path / "a.npz").st_mode == want
    assert os.stat(tmp_path / "b.csv").st_mode == want


def test_npz_roundtrip_writes_the_version_first(tmp_path):
    path = str(tmp_path / "a.npz")
    save_npz(path, {"b": np.arange(3), "a": np.array(["x"])}, 7)
    with np.load(path) as npz:
        assert npz.files == ["format_version", "b", "a"]
    data = load_npz(path, "test", 7, ("a", "b"))
    assert data["format_version"].tolist() == [7]
    assert data["b"].tolist() == [0, 1, 2] and data["a"].tolist() == ["x"]


def test_npz_rejects_other_versions_and_bad_archives(tmp_path):
    path = str(tmp_path / "a.npz")
    save_npz(path, {"x": np.arange(3)}, 2)
    with pytest.raises(ValueError, match="unsupported test file version in .*a.npz"):
        load_npz(path, "test", 1, ("x",))
    np.savez_compressed(path, x=np.arange(3))   # no format_version at all
    with pytest.raises(ValueError, match="unsupported test file version"):
        load_npz(path, "test", 1, ("x",))
    (tmp_path / "a.npz").write_bytes(b"PK\x03\x04" + bytes(36))   # a cut archive
    with pytest.raises(ValueError, match="cannot read test file .*a.npz"):
        load_npz(path, "test", 1, ("x",))
    save_npz(path, {"x": np.arange(3)}, 1)
    with pytest.raises(ValueError, match="test file .*a.npz.* lacks key 'y'"):
        load_npz(path, "test", 1, ("x", "y", "z"))


_CORPUS = {"master_seed": 0, "snapshot_count": 4, "scene": "{}"}


def _rate_rows():
    rng = np.random.default_rng(0)
    return [RateRow(location=rng.uniform(0, 100, 2), rates=rng.uniform(0.01, 3, 6),
                    snapshot_id=k, ue_index=k) for k in range(4)]


def _write_rate_dataset(path):
    save_dataset(_rate_rows(), path, (2, 3), _CORPUS)


def _write_paths(path):
    out = os.path.join(os.path.dirname(path), "scene")
    assert cli.main(["scene", "gen", "--smoke", "--out", out]) == 0
    os.replace(os.path.join(out, "paths.npz"), path)


def _load_paths(path):
    """`scene gen`'s path file, which has no loader in the package."""
    return load_npz(path, "paths", cli.PATHS_FORMAT_VERSION,
                    ("snapshot_id", "ue", "kind", "gain", "delay", "aod", "aoa"))


def _write_plan(path):
    plan = ClusterCoveragePlan(centroids=np.zeros((1, 2)), assignments=np.zeros(3, dtype=int),
                               significances=np.ones(1), prob_tables=np.ones((1, 2, 2)) / 2,
                               selected_beams=np.array([1, 0]))
    save_plan(plan, path, path + ".csv")


def _write_model(path):
    X = np.random.default_rng(1).uniform(0, 10, size=(20, 2))
    save_model(train(X, X[:, :1] / 10.0, TrainConfig(tree_count=2, budget_parameters=1000)),
               path)


@pytest.mark.parametrize("write, load", [
    (_write_rate_dataset, load_dataset),
    (_write_paths, _load_paths),
    (_write_plan, load_plan),
    (_write_model, load_model),
])
def test_loaders_name_a_missing_key(tmp_path, write, load):
    version = DATASET_FORMAT_VERSION if load is load_dataset else 1
    # a rate file is read against the run's pair shape and corpus keys
    args = ((2, 3), _CORPUS) if load is load_dataset else ()
    path = str(tmp_path / "artifact.npz")
    write(path)
    load(path, *args)
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    assert arrays.pop("format_version").tolist() == [version]
    for key in arrays:
        cut = str(tmp_path / "cut.npz")
        np.savez_compressed(cut, format_version=np.array([version]),
                            **{k: v for k, v in arrays.items() if k != key})
        with pytest.raises(ValueError, match=f"cut.npz' lacks key '{key}'"):
            load(cut, *args)


def test_from_table_reads_a_table_into_its_dataclass():
    """Lists become tuples, a table under a dataclass field is read in turn,
    and given fields are passed through."""
    config = from_table(ExperimentConfig, {"bs_array": [4, 4], "scene": {"car_dims": [1, 4, 1]}},
                        "")
    assert config.bs_array == (4, 4) and config.scene == SceneConfig(car_dims=(1, 4, 1))
    assert from_table(TrainConfig, {"max_depth": 2}, "g[0]", budget_parameters=7) == TrainConfig(
        max_depth=2, budget_parameters=7)

