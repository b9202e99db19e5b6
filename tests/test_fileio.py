import os
import re
from pathlib import Path

import numpy as np
import pytest

from beamtrain import boosting, cli, dataset, fileio, selectors
from beamtrain.boosting import MODEL_SCHEMA, TrainConfig, load_model, save_model, train
from beamtrain.dataset import (DATASET_FORMAT_VERSION, DATASET_SCHEMA, Rows, load_dataset,
                               save_dataset)
from beamtrain.fileio import atomic_write, from_table, load_npz, save_npz
from beamtrain.harness import ExperimentConfig
from beamtrain.scene import SceneConfig
from beamtrain.selectors import PLAN_FORMAT_VERSION, PLAN_SCHEMA, ClusterCoveragePlan, save_plan
from test_acceptance import _CHAIN, _chain_in_process


def test_atomic_write_replaces_the_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with atomic_write(str(path)) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_every_text_file_of_the_chain_ends_its_lines_with_lf(tmp_path, capfd, monkeypatch):
    """Through the --smoke artifact chain, `atomic_write` opens each of the
    five text files (`paths_index.csv`, `plan.npz.csv`, `curves.csv`,
    `heatmap.csv` and `run_manifest.json`) with `newline="\\n"`, so no
    platform translates its line ends, and each binary file with `None`.
    The manifest took the platform's line end."""
    opened, fdopen = [], os.fdopen

    def spy(fd, mode, newline):
        opened.append((mode, newline))
        return fdopen(fd, mode, newline=newline)

    monkeypatch.setattr(fileio.os, "fdopen", spy)
    codes = [code for code, *_ in _chain_in_process(tmp_path, capfd, monkeypatch)]
    assert codes == [0] * len(_CHAIN)
    assert [newline for mode, newline in opened if mode == "w"] == ["\n"] * 5
    assert {newline for mode, newline in opened if mode != "w"} == {None}


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
    data, sizes = load_npz(path, "test", 7, {"a": "U 1", "b": "i N"})
    assert data["format_version"].tolist() == [7] and sizes == {"N": 3}
    assert data["b"].tolist() == [0, 1, 2] and data["a"].tolist() == ["x"]


def test_npz_rejects_other_versions_and_bad_archives(tmp_path):
    path = str(tmp_path / "a.npz")
    save_npz(path, {"x": np.arange(3)}, 2)
    with pytest.raises(ValueError, match="unsupported test file version in .*a.npz"):
        load_npz(path, "test", 1, {"x": "i 3"})
    np.savez_compressed(path, x=np.arange(3))   # no format_version at all
    with pytest.raises(ValueError, match="unsupported test file version"):
        load_npz(path, "test", 1, {"x": "i 3"})
    (tmp_path / "a.npz").write_bytes(b"PK\x03\x04" + bytes(36))   # a cut archive
    with pytest.raises(ValueError, match="cannot read test file .*a.npz"):
        load_npz(path, "test", 1, {"x": "i 3"})
    save_npz(path, {"x": np.arange(3)}, 1)
    with pytest.raises(ValueError, match="test file .*a.npz.* lacks key 'y'"):
        load_npz(path, "test", 1, {"x": "i 3", "y": "i 3", "z": "i 3"})


@pytest.mark.parametrize("arrays, message", [
    ({"a": np.array([[0.5, np.nan], [0.0, 1.0]]), "b": np.arange(2)},
     "a must be finite floats of shape (N, 2), got nan at (0, 1) in float64 of shape (2, 2)"),
    ({"a": np.zeros((2, 2)), "b": np.array([1.0, np.inf])},
     "b must be integers of shape (N,), got float64 of shape (2,) (N = 2 from a)"),
    ({"a": np.zeros((3, 2)), "b": np.arange(2)},
     "b must be integers of shape (N,), got int64 of shape (2,) (N = 3 from a)"),
    ({"a": np.zeros((2, 3)), "b": np.arange(2)},
     "a must be finite floats of shape (N, 2), got float64 of shape (2, 3)"),
    ({"a": np.zeros(2), "b": np.arange(2)},
     "a must be finite floats of shape (N, 2), got float64 of shape (2,)"),
    ({"a": np.zeros((2, 2), dtype=int), "b": np.arange(2)},
     "a must be finite floats of shape (N, 2), got int64 of shape (2, 2)"),
    ({"a": np.zeros((2, 2)), "b": np.arange(2), "c": np.array([1j, np.nan])},
     "c must be finite complex numbers of shape (N,), got (nan+0j) at (1,) in complex128 of "
     "shape (2,) (N = 2 from a)"),
    ({"a": np.zeros((2, 2)), "b": np.arange(2), "c": np.zeros(2, complex), "d": np.array(3)},
     "d must be strings of shape (1,), got int64 of shape ()"),
])
def test_npz_schema_names_the_key_and_what_was_found(tmp_path, arrays, message):
    """A key's rule is its kind and its shape, each named dimension taking
    one size in every key of the file; a failure names the file and the
    key, the dtype and shape found, the first non-finite entry, and the
    size of each named dimension that another key set, and that key."""
    schema = {"a": "f N 2", "b": "i N", "c": "c N", "d": "U 1"}
    path = str(tmp_path / "a.npz")
    save_npz(path, {"a": np.zeros((2, 2)), "b": np.arange(2), "c": np.zeros(2, complex),
                    "d": np.array(["x"])}, 1)
    assert load_npz(path, "test", 1, schema)[1] == {"N": 2}
    save_npz(path, arrays, 1)
    with pytest.raises(ValueError, match=f"^test file {re.escape(repr(path))}: "
                                         f"{re.escape(message)}$"):
        load_npz(path, "test", 1, {key: schema[key] for key in arrays})


def test_npz_schema_lets_an_empty_array_pass_any_kind(tmp_path):
    path = str(tmp_path / "a.npz")
    save_npz(path, {"a": np.zeros(0), "b": np.zeros((0, 2), dtype=int)}, 1)
    data, sizes = load_npz(path, "test", 1, {"a": "i N", "b": "f N 2"})
    assert sizes == {"N": 0} and data["a"].dtype == float


_CORPUS = {"master_seed": 0, "snapshot_count": 4, "scene": "{}"}


def _rate_rows():
    rng = np.random.default_rng(0)
    return Rows(location=rng.uniform(0, 100, (4, 2)), rates=rng.uniform(0.01, 3, (4, 6)),
                snapshot_id=np.arange(4), ue_index=np.arange(4))


def _write_rate_dataset(path):
    save_dataset(_rate_rows(), path, (2, 3), _CORPUS)


def _write_paths(path):
    out = os.path.join(os.path.dirname(path), "scene")
    assert cli.main(["scene", "gen", "--smoke", "--out", out]) == 0
    os.replace(os.path.join(out, "paths.npz"), path)


def _load_paths(path):
    """`scene gen`'s path file, which has no loader in the package."""
    return load_npz(path, "paths", cli.PATHS_FORMAT_VERSION, cli.PATHS_SCHEMA)


def load_plan(path):
    """`plan build`'s plan file, which no command reads."""
    return load_npz(path, "plan", PLAN_FORMAT_VERSION, PLAN_SCHEMA)


def _write_plan(path):
    plan = ClusterCoveragePlan(centroids=np.zeros((1, 2)), assignments=np.zeros(3, dtype=int),
                               significances=np.ones(1), prob_tables=np.ones((1, 2, 2)) / 2,
                               selected_beams=np.array([1, 0]))
    save_plan(plan, path)


def _write_model(path):
    X = np.random.default_rng(1).uniform(0, 10, size=(20, 2))
    save_model(train(X, X[:, :1] / 10.0, TrainConfig(tree_count=2, budget_parameters=1000)),
               path)


_LOADERS = [
    (_write_rate_dataset, load_dataset),
    (_write_paths, _load_paths),
    (_write_plan, load_plan),
    (_write_model, load_model),
]


@pytest.mark.parametrize("write, load", _LOADERS)
def test_loaders_name_a_missing_key(tmp_path, write, load):
    version = {load_dataset: DATASET_FORMAT_VERSION, _load_paths: cli.PATHS_FORMAT_VERSION,
               load_plan: PLAN_FORMAT_VERSION, load_model: boosting.MODEL_FORMAT_VERSION}[load]
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


_SCHEMAS = {load_dataset: DATASET_SCHEMA, _load_paths: cli.PATHS_SCHEMA, load_plan: PLAN_SCHEMA,
            load_model: MODEL_SCHEMA}


def _breaks(schema, key, a):
    """Each way to break the rule of `key`, whose array is `a`: a NaN in a
    float key, floats in an integer key, a dropped axis, and each named
    dimension that the file uses twice off by one."""
    kind, *dims = schema[key].split()
    names = [d for rule in schema.values() for d in rule.split()[1:]]
    if kind in "fc":
        nan = a.copy()
        nan.flat[0] = np.nan
        yield "a NaN", nan
    if kind == "i":
        yield "floats", a.astype(float)
    yield "a dropped axis", a[..., 0]
    for axis, d in enumerate(dims):
        if d.isalpha() and names.count(d) > 1:
            yield f"{d} off by one", np.concatenate([a, a.take([0], axis=axis)], axis=axis)


@pytest.mark.parametrize("write, load", _LOADERS)
def test_loaders_name_a_key_that_breaks_its_schema(tmp_path, write, load):
    """Every key of every artifact file is described by its schema: a NaN
    in a float key, floats in an integer key, a dropped axis and a named
    dimension off by one each raise a ValueError naming the file and the
    key (a dimension off by one may fail at a later key of that dimension,
    whose error names the key that set it)."""
    args = ((2, 3), _CORPUS) if load is load_dataset else ()
    path = str(tmp_path / "artifact.npz")
    write(path)
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    schema = _SCHEMAS[load]
    assert sorted(schema) == sorted(arrays.keys() - {"format_version"})
    bad = str(tmp_path / "bad.npz")
    for key in schema:
        for what, value in _breaks(schema, key, arrays[key]):
            np.savez_compressed(bad, **{**arrays, key: value})
            with pytest.raises(ValueError) as info:
                load(bad, *args)
            message = str(info.value)
            assert repr(bad) in message and re.search(rf"\b{key}\b", message), (key, what,
                                                                                  message)


def test_readme_tables_give_every_schema():
    """README's "Files" section holds one (key, kind, shape) table per
    artifact file, under the name of its schema, and each table is that
    schema, key for key."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tables = re.findall(r"`(\w+)\.(\w+_SCHEMA)`[^`]*\| Key \| Kind \| Shape \|\n\|[-|]+\|\n"
                        r"((?:\|.*\|\n)+)", readme)
    modules = {"cli": cli, "dataset": dataset, "selectors": selectors, "boosting": boosting}
    assert sorted(name for _, name, _ in tables) == sorted(
        ["PATHS_SCHEMA", "DATASET_SCHEMA", "PLAN_SCHEMA", "MODEL_SCHEMA"])
    for module, name, rows in tables:
        cells = [[c.strip() for c in row.strip("|").split("|")] for row in rows.splitlines()]
        assert {key.strip("`"): f"{kind} {shape}" for key, kind, shape in cells} == {
            key: f"{kind} ({', '.join(dims)}{',' * (len(dims) == 1)})"
            for key, (kind, *dims) in ((k, r.split()) for k, r in
                                       getattr(modules[module], name).items())}


def test_from_table_reads_a_table_into_its_dataclass():
    """Lists become tuples, a table under a dataclass field is read in turn,
    and given fields are passed through."""
    config = from_table(ExperimentConfig, {"bs_array": [4, 4], "scene": {"car_dims": [1, 4, 1]}},
                        "")
    assert config.bs_array == (4, 4) and config.scene == SceneConfig(car_dims=(1, 4, 1))
    assert from_table(TrainConfig, {"max_depth": 2}, "g[0]", budget_parameters=7) == TrainConfig(
        max_depth=2, budget_parameters=7)

