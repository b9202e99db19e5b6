"""Location-based datasets: rates, throughput ratios, ATRs, splits, files."""

import json
import logging
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .arrays import Codebook
from .channel import path_responses
from .fileio import check, integer, load_npz, real, save_npz
from .linkeval import sweep_responses
from .scene import PATH_KINDS, trace_snapshot
# The dense route (channel_for_ue, sweep_all) is no longer called here, but
# perfbench/spans.py wraps both at this module, so they stay importable from it.
from .channel import channel_for_ue  # noqa: F401
from .linkeval import sweep_all  # noqa: F401

log = logging.getLogger(__name__)

DATASET_FORMAT_VERSION = 3
# the config values the corpus was built from, besides the pair shape
CORPUS_KEYS = ("master_seed", "snapshot_count", "scene")
# a rate file's keys (`fileio.load_npz`): N rows of P = |W|·|F| rates
DATASET_SCHEMA = {"locations": "f N 2", "snapshot_ids": "i N", "ue_indices": "i N",
                  "rates": "f N P", "pair_shape": "i 2", "master_seed": "i 1",
                  "snapshot_count": "i 1", "scene": "U 1"}


class Rows:
    """The corpus of one stage as columns, each an array with one row per
    UE: `Rows(location=..., ratios=...)` has the attributes `location` and
    `ratios`. `len()` is the row count. Iterating yields one named tuple per
    row, of that row of each column; the pipeline reads the columns."""

    def __init__(self, **columns):
        vars(self).update(columns)

    def __len__(self) -> int:
        return len(next(iter(vars(self).values())))

    def __iter__(self):
        return map(namedtuple("Row", vars(self)), *vars(self).values())


@dataclass(frozen=True)
class DatasetSplit:
    train_rows: np.ndarray    # indices
    test_rows: np.ndarray
    fold_assignments: np.ndarray  # per train row, fold id in 0..folds-1


def build_rate_dataset(snapshots, combiners: Codebook, beamformers: Codebook,
                       bs_geometry, ue_geometry, config) -> Rows:
    """The rate rows: columns `location` (n, 2), `rates` (n, |W|*|F|),
    `snapshot_id` and `ue_index`, one row per (snapshot, UE), in
    (snapshot_id, ue_index) order. Fully blocked UEs (all-zero rows) are
    dropped with a logged count.

    Each snapshot is traced once into a path table, and its array responses
    are computed once (`path_responses`); each UE's rates come from its
    slice of both (`sweep_responses`). No dense channel is formed. Every
    column is allocated once for all UEs: each UE is written into the next
    free row, a dropped UE's row is overwritten by the next UE, and each
    column is shrunk in place to its kept rows (a prefix view would keep
    all of it). UEs without paths are dropped unswept. A UE whose peak rate
    is not finite (no rate is -inf, so the peak is finite exactly when the
    row is), as degenerate geometry gives, raises a ValueError naming the
    snapshot and the UE before the next UE is swept. The UE, dropped-UE
    and per-kind path counts are logged at info level.
    """
    snapshots = sorted(snapshots, key=lambda s: s.snapshot_id)
    ues = sum(len(s.ue_indices) for s in snapshots)
    rows = Rows(location=np.empty((ues, 2)),
                rates=np.empty((ues, combiners.num_beams * beamformers.num_beams)),
                snapshot_id=np.empty(ues, dtype=int), ue_index=np.empty(ues, dtype=int))
    kept = 0
    paths = np.zeros(len(PATH_KINDS), dtype=int)
    for snapshot in snapshots:
        table = trace_snapshot(snapshot, config)
        paths += np.bincount(table.kind, minlength=len(PATH_KINDS))
        a_ue, a_bs, phases = path_responses(table, bs_geometry, ue_geometry, config)
        for ue_index, ue_rows in zip(snapshot.ue_indices, table.ue_rows(snapshot.ue_indices)):
            if ue_rows.start == ue_rows.stop:
                continue
            # no view of the rates outlives the call, so that they can shrink
            peak = np.max(sweep_responses(table.gain[ue_rows], a_ue[ue_rows], a_bs[ue_rows],
                                          phases[:, ue_rows], combiners, beamformers,
                                          config.sigma2, out=rows.rates[kept]))
            if not np.isfinite(peak):
                raise ValueError(f"snapshot {snapshot.snapshot_id}, UE {ue_index}: "
                                 "rates are not finite")
            if peak <= 0.0:
                continue
            rows.location[kept] = snapshot.ue_location(ue_index)
            rows.snapshot_id[kept], rows.ue_index[kept] = snapshot.snapshot_id, ue_index
            kept += 1
    log.info("rate dataset: %d UEs, %d dropped as fully blocked; paths: %s", ues, ues - kept,
             ", ".join(f"{n} {kind}" for kind, n in zip(PATH_KINDS, paths.tolist())))
    # no view of a column outlives the loop above, so nothing can read the
    # memory that a shrink frees; `refcheck` would also count the references
    # that a Python trace function (a debugger, `python -m trace`) holds
    for column in vars(rows).values():
        column.resize((kept, *column.shape[1:]), refcheck=False)
    return rows


def to_throughput_ratios(rates: np.ndarray) -> np.ndarray:
    """The throughput ratios of the (rows, |W|*|F|) `rates`: each row
    divided by its peak rate, in place, as one max and one divide; returns
    `rates`."""
    peaks = np.max(rates, axis=1)
    if np.any(peaks <= 0.0):
        raise ValueError("rate row with non-positive max (should be dropped upstream)")
    rates /= peaks[:, None]
    return rates


def to_atr(tr: np.ndarray, num_combiners: int, num_beamformers: int) -> Rows:
    """The ATR rows of the (rows, |W|*|F|) throughput ratios `tr`: columns
    `atr_f` (rows, |F|) and `atr_w` (rows, |W|). The ATR of a combiner
    averages its row of a UE's (|W|, |F|) grid over all beamformers, and
    vice versa; both sides share the grand mean of the UE's TR. The two
    means over the (rows, |W|, |F|) view equal each UE's own grid means bit
    for bit."""
    grid = tr.reshape(len(tr), num_combiners, num_beamformers)
    return Rows(atr_f=grid.mean(axis=1), atr_w=grid.mean(axis=2))


def split_dataset(num_rows: int, test_fraction: float = 0.2, folds: int = 10,
                  seed: int = 0) -> DatasetSplit:
    """Seeded shuffle into train/test plus round-robin fold ids on train.
    `test_fraction` lies in (0, 1), as in `ExperimentConfig`, and `folds` is
    at most the training rows left by the round(num_rows * test_fraction)
    test rows; a ValueError names the key and the row counts."""
    check("test_fraction", test_fraction, real("(0, 1)"))
    check("folds", folds, integer(2))
    n_test = int(round(num_rows * test_fraction))
    n_train = num_rows - n_test
    check("folds", folds, (lambda f: f <= n_train,
                           f"at most the {n_train} training rows that test_fraction "
                           f"{test_fraction} leaves of {num_rows}"))
    rng = np.random.default_rng(seed)
    order = rng.permutation(num_rows)
    test = np.sort(order[:n_test])
    train = np.sort(order[n_test:])
    fold_of = np.empty(len(train), dtype=int)
    fold_of[rng.permutation(len(train))] = np.arange(len(train)) % folds
    return DatasetSplit(train_rows=train, test_rows=test, fold_assignments=fold_of)


def _check_pair_shape(pair_shape, width, path: str) -> tuple[int, int]:
    """(|W|, |F|) of a dataset file, positive and covering its `width`."""
    shape = tuple(map(int, pair_shape))
    if min(shape) < 1 or shape[0] * shape[1] != width:
        raise ValueError(f"pair_shape {shape} of dataset file {path!r} does not match "
                         f"its row width {width}")
    return shape


def save_dataset(rows: Rows, path: str, pair_shape, corpus: dict) -> None:
    """Persist the columns of rate rows of `pair_shape` = (|W|, |F|) pairs
    losslessly, as they are, with `corpus`, the value of each of
    CORPUS_KEYS that the rows were built from."""
    if not len(rows):
        raise ValueError("cannot save an empty dataset")
    save_npz(path, {"locations": rows.location, "snapshot_ids": rows.snapshot_id,
                    "ue_indices": rows.ue_index, "rates": rows.rates,
                    "pair_shape": np.array(_check_pair_shape(pair_shape, rows.rates.shape[1],
                                                             path)),
                    **{key: np.array([corpus[key]]) for key in CORPUS_KEYS}},
             DATASET_FORMAT_VERSION)


def load_dataset(path: str, pair_shape, corpus: dict):
    """The (locations, rates) arrays of a file of save_dataset. A file that
    breaks DATASET_SCHEMA, holds no rows, a negative rate or a row without a
    positive rate, or is not of `pair_shape` = (|W|, |F|) and `corpus` (CORPUS_KEYS'
    values) is a ValueError naming it and the key (`scene.<field>` too)."""
    data, sizes = load_npz(path, "dataset", DATASET_FORMAT_VERSION, DATASET_SCHEMA)
    if sizes["N"] == 0:
        raise ValueError(f"dataset file {path!r} holds no rows")
    shape = _check_pair_shape(data["pair_shape"], sizes["P"], path)
    if shape != tuple(pair_shape):
        raise ValueError(f"dataset file {path!r} has pair_shape {shape}, but the config's "
                         f"ue_array and bs_array give {tuple(pair_shape)}")
    rates = data["rates"]
    for row in np.flatnonzero((rates.min(axis=1) < 0) | (rates.max(axis=1) <= 0))[:1]:
        raise ValueError(f"dataset file {path!r}: rates row {row} must be non-negative with a "
                         f"positive peak, got min {rates[row].min()} and peak {rates[row].max()}")
    recorded = _flat_corpus({key: data[key][0].item() for key in CORPUS_KEYS},
                            f"dataset file {path!r}: ")
    for key, want in _flat_corpus(corpus).items():
        if recorded.get(key) != want:
            raise ValueError(f"dataset file {path!r} has {key} {recorded.get(key)!r}, "
                             f"but the config gives {want!r}")
    return data["locations"], rates


def _flat_corpus(corpus: dict, where: str = "") -> dict:
    """Corpus keys with the scene's JSON table spread into `scene.<field>`
    keys; a scene that is no JSON table is a ValueError after `where`."""
    try:
        scene = json.loads(corpus["scene"])
    except ValueError:
        scene = None
    check("scene", corpus["scene"], (lambda v: isinstance(scene, dict), "a JSON table"), where)
    return {"master_seed": corpus["master_seed"], "snapshot_count": corpus["snapshot_count"],
            **{f"scene.{key}": scene[key] for key in sorted(scene)}}
