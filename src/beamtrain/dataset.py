"""Location-based datasets: rates, throughput ratios, ATRs, splits, files."""

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .arrays import Codebook
from .fileio import atomic_write, save_npz
# The dense route (channel_for_ue, sweep_all) is no longer called here, but
# perfbench/spans.py wraps both at this module, so they stay importable from it.
from .channel import channel_for_ue  # noqa: F401
from .linkeval import RateRow, sweep_all, sweep_paths  # noqa: F401
from .scene import trace_paths

log = logging.getLogger(__name__)

DATASET_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TRRow:
    """Throughput ratios r_T for one UE; max entry is exactly 1.0."""
    location: np.ndarray
    ratios: np.ndarray        # (|W|*|F|,) in [0, 1]
    max_rate: float
    snapshot_id: int
    ue_index: int = -1


@dataclass(frozen=True)
class ATRRow:
    """Per-beam approximate throughput ratios (codebook-averaged)."""
    location: np.ndarray
    atr_f: np.ndarray         # (|F|,)
    atr_w: np.ndarray         # (|W|,)
    snapshot_id: int
    ue_index: int = -1


@dataclass(frozen=True)
class DatasetSplit:
    train_rows: np.ndarray    # indices
    test_rows: np.ndarray
    fold_assignments: np.ndarray  # per train row, fold id in 0..folds-1


def build_rate_dataset(snapshots, combiners: Codebook, beamformers: Codebook,
                       bs_geometry, ue_geometry, config) -> list[RateRow]:
    """One row per (snapshot, UE); fully blocked UEs (all-zero rows) are
    dropped with a logged count. Row order is (snapshot_id, ue_index).
    Rates come from the traced paths (`sweep_paths`); no dense channel is
    formed."""
    rows = []
    dropped = 0
    for snapshot in sorted(snapshots, key=lambda s: s.snapshot_id):
        for ue_index in snapshot.ue_indices:
            paths = trace_paths(snapshot, ue_index, config)
            rates = sweep_paths(paths, combiners, beamformers, bs_geometry, ue_geometry, config)
            if np.max(rates) <= 0.0:
                dropped += 1
                continue
            rows.append(RateRow(location=snapshot.ue_location(ue_index), rates=rates,
                                snapshot_id=snapshot.snapshot_id, ue_index=ue_index))
    if dropped:
        log.info("dropped %d fully blocked UE rows", dropped)
    return rows


def to_throughput_ratios(rate_rows: list[RateRow]) -> list[TRRow]:
    out = []
    for row in rate_rows:
        peak = float(np.max(row.rates))
        if peak <= 0.0:
            raise ValueError("rate row with non-positive max (should be dropped upstream)")
        out.append(TRRow(location=row.location, ratios=row.rates / peak, max_rate=peak,
                         snapshot_id=row.snapshot_id, ue_index=row.ue_index))
    return out


def to_atr(tr_rows: list[TRRow], num_combiners: int, num_beamformers: int) -> list[ATRRow]:
    """ATR of a combiner averages its row over all beamformers, and vice
    versa; both vectors share the grand mean of the TR row."""
    out = []
    for row in tr_rows:
        grid = row.ratios.reshape(num_combiners, num_beamformers)
        out.append(ATRRow(location=row.location, atr_f=grid.mean(axis=0),
                          atr_w=grid.mean(axis=1), snapshot_id=row.snapshot_id,
                          ue_index=row.ue_index))
    return out


def split_dataset(num_rows: int, test_fraction: float = 0.2, folds: int = 10,
                  seed: int = 0) -> DatasetSplit:
    """Seeded shuffle into train/test plus round-robin fold ids on train."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    rng = np.random.default_rng(seed)
    order = rng.permutation(num_rows)
    n_test = int(round(num_rows * test_fraction))
    test = np.sort(order[:n_test])
    train = np.sort(order[n_test:])
    if len(train) < folds:
        raise ValueError(f"{len(train)} training rows cannot fill {folds} folds")
    fold_of = np.empty(len(train), dtype=int)
    shuffled_train = rng.permutation(len(train))
    for pos, row in enumerate(shuffled_train):
        fold_of[row] = pos % folds
    return DatasetSplit(train_rows=train, test_rows=test, fold_assignments=fold_of)


def _rows_to_arrays(rows):
    locs = np.array([r.location for r in rows])
    snaps = np.array([r.snapshot_id for r in rows])
    ues = np.array([getattr(r, "ue_index", -1) for r in rows])
    if isinstance(rows[0], TRRow):
        values = np.array([r.ratios for r in rows])
        extra = {"max_rates": np.array([r.max_rate for r in rows]), "row_kind": np.array(["tr"])}
    else:
        values = np.array([r.rates for r in rows])
        extra = {"row_kind": np.array(["rate"])}
    return locs, snaps, ues, values, extra


def save_dataset(rows, path: str, fmt: str = "binary",
                 num_combiners: int | None = None, num_beamformers: int | None = None) -> None:
    """Persist rate or TR rows; binary round-trips losslessly, CSV keeps
    9 significant digits. CSV columns: x, y, snapshot_id, r_{i}_{j}."""
    if not rows:
        raise ValueError("cannot save an empty dataset")
    locs, snaps, ues, values, extra = _rows_to_arrays(rows)
    if fmt == "binary":
        arrays = {"format_version": np.array([DATASET_FORMAT_VERSION]),
                  "locations": locs, "snapshot_ids": snaps, "ue_indices": ues,
                  "values": values, **extra}
        if num_combiners and num_beamformers:
            arrays["pair_shape"] = np.array([num_combiners, num_beamformers])
        save_npz(path, arrays)
    elif fmt == "csv":
        if not (num_combiners and num_beamformers):
            raise ValueError("CSV format needs num_combiners and num_beamformers for headers")
        header = ["x", "y", "snapshot_id"] + [
            f"r_{i + 1}_{j + 1}" for i in range(num_combiners) for j in range(num_beamformers)]
        with atomic_write(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for n in range(len(rows)):
                writer.writerow(["%.9g" % locs[n, 0], "%.9g" % locs[n, 1], int(snaps[n])]
                                + ["%.9g" % v for v in values[n]])
    else:
        raise ValueError(f"unknown dataset format {fmt!r}")


def load_dataset(path: str, fmt: str = "binary"):
    """Load rows saved by save_dataset; malformed files raise ValueError."""
    if fmt == "binary":
        try:
            with open(path, "rb") as fh, np.load(fh) as npz:
                data = {name: npz[name] for name in npz.files}
        except Exception as exc:
            raise ValueError(f"cannot read dataset file {path!r}: {exc}") from exc
        if "format_version" not in data or data["format_version"][0] != DATASET_FORMAT_VERSION:
            raise ValueError(f"unsupported dataset version in {path!r}")
        kind = str(data["row_kind"][0])
        rows = []
        for n in range(len(data["snapshot_ids"])):
            if kind == "tr":
                rows.append(TRRow(location=data["locations"][n], ratios=data["values"][n],
                                  max_rate=float(data["max_rates"][n]),
                                  snapshot_id=int(data["snapshot_ids"][n]),
                                  ue_index=int(data["ue_indices"][n])))
            else:
                rows.append(RateRow(location=data["locations"][n], rates=data["values"][n],
                                    snapshot_id=int(data["snapshot_ids"][n]),
                                    ue_index=int(data["ue_indices"][n])))
        return rows
    if fmt == "csv":
        rows = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"empty dataset file {path!r}")
            if header[:3] != ["x", "y", "snapshot_id"]:
                raise ValueError(f"malformed dataset header in {path!r}")
            width = len(header) - 3
            for line in reader:
                if len(line) != len(header):
                    raise ValueError(f"truncated or malformed row in {path!r}")
                rows.append(RateRow(location=np.array([float(line[0]), float(line[1])]),
                                    rates=np.array([float(v) for v in line[3:]]),
                                    snapshot_id=int(line[2])))
            if rows and any(len(r.rates) != width for r in rows):
                raise ValueError(f"inconsistent row width in {path!r}")
        return rows
    raise ValueError(f"unknown dataset format {fmt!r}")
