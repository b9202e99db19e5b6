import os

import numpy as np
import pytest

from beamtrain.fileio import atomic_write, save_npz


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
    save_npz(str(tmp_path / "a.npz"), {"x": np.arange(3)})
    with atomic_write(str(tmp_path / "b.csv")) as fh:
        fh.write("x\n")
    want = os.stat(plain).st_mode
    assert os.stat(tmp_path / "a.npz").st_mode == want
    assert os.stat(tmp_path / "b.csv").st_mode == want
