"""End-to-end experiment orchestration, configuration and result files."""

import dataclasses
import hashlib
import json
import logging
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import ClassVar

try:
    import resource
except ModuleNotFoundError:  # not on Windows
    resource = None

import numpy as np

from . import boosting, metrics, selectors
from .arrays import dft_codebook
from .channel import default_bs_geometry, default_ue_geometry
from .dataset import Rows, build_rate_dataset, split_dataset, to_atr, to_throughput_ratios
from .fileio import atomic_write, check, check_fields, from_table, integer, listof, real, write_csv
from .scene import SceneConfig, generate_snapshot

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1

DEFAULT_N_B_SWEEP = (1, 2, 5, 10, 16, 32, 48, 64, 80, 96, 112, 120, 128)


def derive_seed(master_seed: int, label: int) -> int:
    """Documented seed-split rule: independent streams per (master, label)."""
    return int(np.random.SeedSequence([master_seed, label]).generate_state(1)[0])


# labels for derive_seed, frozen so runs stay reproducible across versions
_SEED_SPLIT = 1_000_000
_SEED_CLUSTER = 1_000_001

_EXPERIMENT_RULES = {
    "scene": (lambda v: isinstance(v, SceneConfig), "a SceneConfig"),
    # rows, cols; the sweep's pairs grow with their product, so each side is bounded
    **dict.fromkeys(("bs_array", "ue_array"), listof(integer(1, 32), range(2, 3))),
    "master_seed": integer(0),
    # snapshot i draws its seed from label i, which must stay below the
    # frozen labels of the split and the clustering
    "snapshot_count": integer(1, _SEED_SPLIT - 1),
    "test_fraction": real("(0, 1)"),
    "folds": integer(2),
    # set sizes and budgets index the evaluation tables from 1
    **dict.fromkeys(("n_b_sweep", "heatmap_s_w", "heatmap_s_f"), listof(integer(1))),
    **dict.fromkeys(("s_w_size", "cluster_count"), integer(1)),
    "use_significance": (lambda v: isinstance(v, bool), "a bool"),
    **dict.fromkeys(("bs_grid", "ue_grid"), (lambda v: isinstance(v, (list, tuple)), "a list")),
}
_MAX_PAIRS = 4096


@dataclass(frozen=True)
class ExperimentConfig:
    scene: SceneConfig = field(default_factory=SceneConfig)
    bs_array: tuple = (8, 8)
    ue_array: tuple = (4, 4)
    master_seed: int = 0
    snapshot_count: int = 500
    test_fraction: float = 0.2
    folds: int = 10
    # every run evaluates the paper's three scenarios; a class constant, so
    # no config key
    scenarios: ClassVar[tuple] = (1, 2, 3)
    n_b_sweep: tuple = DEFAULT_N_B_SWEEP
    s_w_size: int = 5
    cluster_count: int = 12
    use_significance: bool = True
    bs_grid: tuple = ({"tree_count": 100, "max_depth": 3, "learning_rate": 0.5},)
    ue_grid: tuple = (
        {"tree_count": 40, "max_depth": 3, "learning_rate": 0.3},
        {"tree_count": 100, "max_depth": 4, "learning_rate": 0.5},
    )
    heatmap_s_w: tuple = (1, 2, 3, 4, 5, 6, 7)
    heatmap_s_f: tuple = (1, 2, 4, 8, 12, 16, 20, 24, 32)

    def __post_init__(self):
        check_fields(self, _EXPERIMENT_RULES)
        # an experiment's scene must give a corpus: UEs, a car's room past
        # roi_y_min, and a wall far enough for its path to have a direction
        s = self.scene
        for key, rule in (("ue_fraction", real("(0, 1]")), ("bus_fraction", real("[0, 1)")),
                          ("roi_y_min", real(f"(-inf, {s.street_length - s.car_dims[1]}]")),
                          ("wall_clearance", real("[1e-100, inf)"))):
            check(f"scene.{key}", getattr(s, key), rule)
        # the rate stage holds UEs x pairs floats: 4096 pairs, 4x the
        # paper's 1024, keep a 500-snapshot corpus within about 200 MB
        check("bs_array", self.bs_array, (
            lambda _: self.num_pairs <= _MAX_PAIRS,
            f"of at most {_MAX_PAIRS // self.num_combiners} elements beside ue_array "
            f"{tuple(self.ue_array)}, at most {_MAX_PAIRS} beam pairs"))
        # scenario 1 signals each combiner in log2(combiners) bits
        if self.num_combiners & (self.num_combiners - 1):
            raise ValueError(f"ue_array must hold a power-of-two number of elements, "
                             f"got {self.ue_array!r}")
        # every grid point must make a TrainConfig under its role's budget,
        # so that a bad grid fails before the corpus is built
        for key, budget in (("bs_grid", self.bs_budget), ("ue_grid", self.ue_budget)):
            grid = getattr(self, key)
            if not grid:
                raise ValueError(f"{key} must hold at least one grid point")
            for i, point in enumerate(grid):
                from_table(boosting.TrainConfig, point, f"{key}[{i}]", budget_parameters=budget)

    @property
    def num_combiners(self) -> int:
        return self.ue_array[0] * self.ue_array[1]

    @property
    def num_beamformers(self) -> int:
        return self.bs_array[0] * self.bs_array[1]

    @property
    def num_pairs(self) -> int:
        return self.num_combiners * self.num_beamformers

    @property
    def ue_budget(self) -> int:
        return 2 * self.num_pairs

    @property
    def bs_budget(self) -> int:
        return 30 * 2 * self.num_pairs

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["schema_version"] = SCHEMA_VERSION
        return d

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """The config of a table read from a file; grid points stay tables."""
        if isinstance(raw, dict):
            raw = dict(raw)
            version = raw.pop("schema_version", SCHEMA_VERSION)
            if version != SCHEMA_VERSION:
                raise ValueError(f"unsupported config schema version {version}")
        return from_table(cls, raw, "")

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        """The config of a JSON file; a parse error names the file."""
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:
                raise ValueError(f"cannot read config file {path!r}: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def smoke(cls, master_seed: int = 0) -> "ExperimentConfig":
        """Small profile for CI: 20 snapshots, short sweep, tiny grids."""
        return cls(master_seed=master_seed, snapshot_count=20, folds=4,
                   n_b_sweep=(1, 5, 10, 32, 64, 128), cluster_count=6,
                   bs_grid=({"tree_count": 20, "max_depth": 3, "learning_rate": 0.5},),
                   ue_grid=({"tree_count": 20, "max_depth": 3, "learning_rate": 0.3},),
                   heatmap_s_w=(1, 3, 5), heatmap_s_f=(1, 4, 16))

    def corpus_keys(self) -> dict:
        """The values of `dataset.CORPUS_KEYS` that `build_corpus` reads
        besides the pair shape: the master seed, the snapshot count and the
        scene as sorted-key JSON."""
        return {"master_seed": self.master_seed, "snapshot_count": self.snapshot_count,
                "scene": json.dumps(dataclasses.asdict(self.scene), sort_keys=True)}

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()


@dataclass
class EvalResult:
    curves: list                   # dicts: scenario, n_b, n_b_actual, s_w, s_f, r_t, p_m, overhead_bits
    heatmap: list                  # dicts: scenario, s_w, s_f, r_t
    n_test: int
    master_seed: int
    param_counts: dict
    dataset_checksum: str
    config: ExperimentConfig


class StageError(RuntimeError):
    """Pipeline failure annotated with the failing stage."""


@contextmanager
def _stage(name):
    """Log the stage as it starts and, on a clean exit, its seconds and the
    process's peak RSS so far (left out where `resource` is missing); an
    Exception raised in it becomes a StageError naming it.
    KeyboardInterrupt and other BaseExceptions pass through."""
    log.info("stage: %s", name)
    start = time.perf_counter()
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(f"stage '{name}' failed: {exc}") from exc
    peak = _peak_rss_mb()
    log.info("stage: %s: %.3f s%s", name, time.perf_counter() - start,
             "" if peak is None else f", peak RSS {peak:.1f} MB")


def decoupled_split(n_b: int, s_w: int, num_beamformers: int) -> tuple[int, int]:
    """(|S_w|, |S_f|) for a requested pair budget at a nominal UE beam count.

    |S_w| is clamped to n_b for small budgets, and |S_f| floors the ratio, so
    the actual budget |S_w|*|S_f| never exceeds the requested one and both
    set sizes are non-decreasing in n_b (nested selections)."""
    s_w = min(s_w, n_b)
    return s_w, max(1, min(num_beamformers, n_b // s_w))


def generate_snapshots(config: ExperimentConfig):
    """The run's snapshots in snapshot order; snapshot i is seeded from
    label i of the master seed."""
    with _stage("generate snapshots"):
        return [generate_snapshot(config.scene, derive_seed(config.master_seed, i), snapshot_id=i)
                for i in range(config.snapshot_count)]


def build_rate_rows(config: ExperimentConfig):
    """Snapshots -> rate rows, deterministically: the stages of
    `build_corpus` before the transform."""
    snapshots = generate_snapshots(config)
    with _stage("build rate dataset"):
        bs_geom = default_bs_geometry(config.scene, *config.bs_array)
        ue_geom = default_ue_geometry(config.scene, *config.ue_array)
        combiners = dft_codebook(ue_geom, "ue")
        beamformers = dft_codebook(bs_geom, "bs")
        return snapshots, build_rate_dataset(snapshots, combiners, beamformers,
                                             bs_geom, ue_geom, config.scene)


def transform_corpus(config: ExperimentConfig, locations, rates):
    """The TR rows (columns `location` and `ratios`) and the ATR rows
    (`atr_f`, `atr_w`) of the (rows, pairs) `rates` at `locations`; `rates`
    is divided in place and is the `ratios` column."""
    with _stage("transform dataset"):
        tr = to_throughput_ratios(rates)
        return Rows(location=locations, ratios=tr), to_atr(tr, config.num_combiners,
                                                           config.num_beamformers)


def build_corpus(config: ExperimentConfig):
    """Snapshots -> rate rows -> TR/ATR rows, deterministically. The TR
    rows divide a copy of the rates, so the rate rows stay intact, as
    perfbench's `corpus` check compares them with its dense reference;
    `run_experiment` divides the rates in place instead."""
    snapshots, rate_rows = build_rate_rows(config)
    return (snapshots, rate_rows,
            *transform_corpus(config, rate_rows.location, rate_rows.rates.copy()))


def train_role(config: ExperimentConfig, name: str, tr_rows, atr_rows, split):
    """K-fold tune and fit one model role on the training rows, under its
    budget. The scenario-2 and scenario-3 UE models share targets, budget
    and grid, so theta3_w is fitted as theta2_w. Only the training rows'
    locations are gathered; tuning and the fit read the targets at the
    training rows in place. Tuning and the final fit are two stages; the
    chosen grid point and the model's trees and parameters are logged at
    info level after them."""
    if name == "theta1":
        Y, grid, budget, role = tr_rows.ratios, config.bs_grid, config.bs_budget, "coupled"
    elif name == "theta2_f":
        Y, grid, budget, role = atr_rows.atr_f, config.bs_grid, config.bs_budget, "decoupled_bs"
    elif name in ("theta2_w", "theta3_w"):
        Y, grid, budget, role = atr_rows.atr_w, config.ue_grid, config.ue_budget, "decoupled_ue"
    else:
        raise ValueError(f"unknown model role {name!r}")
    X, rows = tr_rows.location[split.train_rows], split.train_rows
    configs = [boosting.TrainConfig(budget_parameters=budget, **g) for g in grid]
    with _stage(f"tune {name}"):
        cfg = boosting.kfold_tune(X, Y, configs, split.fold_assignments, rows=rows)
    with _stage(f"fit {name}"):
        model = boosting.train(X, Y, cfg, role=role, rows=rows)
    log.info("trained %s: grid point %d of %d, %d trees, %d parameters", name,
             configs.index(cfg), len(configs), len(model.layout["tree_sizes"]),
             boosting.param_count(model))
    return model


def train_models(config: ExperimentConfig, tr_rows, atr_rows, split):
    """K-fold tune and fit the four regression roles under their budgets;
    theta3_w is the theta2_w model."""
    models = {name: train_role(config, name, tr_rows, atr_rows, split)
              for name in ("theta1", "theta2_f", "theta2_w")}
    models["theta3_w"] = models["theta2_w"]
    return models


def split_corpus(config: ExperimentConfig, num_rows: int):
    """The seeded train/test split and training folds of a corpus, in the
    stage 'split dataset', which `split_dataset` fails when `test_fraction`
    leaves fewer training rows than `folds`."""
    with _stage("split dataset"):
        return split_dataset(num_rows, config.test_fraction, config.folds,
                             seed=derive_seed(config.master_seed, _SEED_SPLIT))


def build_coverage_plan(config: ExperimentConfig, locations, atr_f, split):
    """The scenario-3 BS beam list, clustered from the training rows. Its
    cluster count and cluster sizes are logged at info level."""
    with _stage("build cluster coverage plan"):
        try:
            plan = selectors.select_bs_coverage(
                locations[split.train_rows], atr_f[split.train_rows], config.cluster_count,
                n_bs=config.num_beamformers,
                seed=derive_seed(config.master_seed, _SEED_CLUSTER),
                use_significance=config.use_significance)
        except ValueError as e:
            raise ValueError(f"cluster_count {config.cluster_count}: {e}") from e
        sizes = np.bincount(plan.assignments, minlength=config.cluster_count)
        log.info("coverage plan: %d clusters of %d to %d training rows, median %g",
                 len(sizes), sizes.min(), sizes.max(), np.median(sizes))
        return plan


def _peak_rss_mb():
    """The process's peak resident set size in MB (MiB), or None where the
    `resource` module is missing. `ru_maxrss` is in KiB on Linux and in
    bytes on macOS."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def run_experiment(config: ExperimentConfig) -> EvalResult:
    """Full reproducible pipeline from (config, master seed) to curves.

    Each large matrix is held once: the TR rows divide the rate array in
    place, as `cli` does with a loaded rate file, and are dropped once the
    models are trained, and evaluation reads only the test rows' TR. The
    dataset checksum is the sha256 of the (rows, pairs) TR array."""
    rate_rows = build_rate_rows(config)[1]
    tr_rows, atr_rows = transform_corpus(config, rate_rows.location, rate_rows.rates)
    del rate_rows
    split = split_corpus(config, len(tr_rows))
    # evaluation reads the test rows, so a split without one fails before
    # the plan and the fits (`model train` and `plan build` read none)
    check("test_fraction", config.test_fraction, (
        lambda _: len(split.test_rows) > 0,
        f"large enough to give one of the {len(tr_rows)} rows to the test split"))
    # the plan reads no model, so a bad cluster_count fails before training
    plan = build_coverage_plan(config, tr_rows.location, atr_rows.atr_f, split)
    models = train_models(config, tr_rows, atr_rows, split)
    checksum = hashlib.sha256(tr_rows.ratios).hexdigest()
    X_test, TR_test = tr_rows.location[split.test_rows], tr_rows.ratios[split.test_rows]
    del tr_rows, atr_rows

    with _stage("evaluate scenarios"):
        curves, heatmap = evaluate(config, models, plan, X_test, TR_test)
    return EvalResult(curves=curves, heatmap=heatmap, n_test=len(split.test_rows),
                      master_seed=config.master_seed,
                      param_counts={k: boosting.param_count(m) for k, m in models.items()},
                      dataset_checksum=checksum, config=config)


def evaluate(config: ExperimentConfig, models, plan, X_test, TR_test):
    """Curves of all three scenarios over the N_B sweep and the decoupled
    (|S_w|, |S_f|) heatmap of scenarios 2 and 3. Each model ranks every
    test row's beams once, up to the longest prefix that a curve point or
    heatmap cell reads (`selectors.top_k_stable`, the prefix of a stable
    descending sort, which on theta1's wide rows it finds without sorting
    them whole), and each point and cell is one entry of the
    `metrics.prefix_tables` of those orderings. Scenarios 2 and 3 read the
    same set sizes, each from its own tables.
    Each role's prediction (with the compile of a model not yet read) is a
    stage, after which its rows, trees and step-table size are logged at
    info level."""
    num_f, num_w = config.num_beamformers, config.num_combiners
    TR_test = np.asarray(TR_test, dtype=float)
    grid = TR_test.reshape(len(TR_test), num_w, num_f)

    # per N_B, the coupled pair count and the decoupled (|S_w|, |S_f|); then
    # the (|S_w|, |S_f|) of every heatmap cell. A longest prefix is 1 where
    # no cell reads one, as a table needs one entry.
    coupled = [min(n_b, config.num_pairs) for n_b in config.n_b_sweep]
    decoupled = [decoupled_split(n_b, min(config.s_w_size, num_w), num_f)
                 for n_b in config.n_b_sweep]
    cells = [(s_w, s_f) for s_w in config.heatmap_s_w if s_w <= num_w
             for s_f in config.heatmap_s_f if s_f <= num_f]

    def ordering(role, length):
        with _stage(f"predict {role}"):
            predictions = models[role].predict_batch(X_test)
        steps = models[role].step_tables
        log.info("predicted %s: %d rows, %d trees, %d table cells (%.3f MB)", role,
                 len(predictions), len(models[role].layout["tree_sizes"]), steps.cells,
                 steps.nbytes / 2**20)
        return selectors.top_k_stable(predictions, length)

    tables = {1: metrics.prefix_tables(TR_test[:, None, :], [0],
                                       ordering("theta1", max(coupled, default=1)))}
    w_order = ordering("theta2_w", max((s_w for s_w, _ in decoupled + cells), default=1))
    f_length = max((s_f for _, s_f in decoupled + cells), default=1)
    tables[2] = metrics.prefix_tables(grid, w_order, ordering("theta2_f", f_length))
    tables[3] = metrics.prefix_tables(grid, w_order, plan.selected_beams[:f_length])

    def point(scenario, n_b, s_w, s_f):
        r_t, p_m = tables[scenario]
        row = {"scenario": scenario, "n_b": n_b, "n_b_actual": s_w * s_f,
               "s_w": s_w, "s_f": s_f,
               "r_t": float(r_t[s_w - 1, s_f - 1]), "p_m": float(p_m[s_w - 1, s_f - 1]),
               "overhead_bits": selectors.overhead_bits(scenario, s_w * s_f, num_w)}
        if scenario == 1:  # a coupled selection has no per-side set sizes
            row.update(s_w=-1, s_f=-1)
        return row

    curves = [point(scenario, n_b, *sizes)
              for n_b, pairs, split in zip(config.n_b_sweep, coupled, decoupled)
              for scenario, sizes in ((1, (1, pairs)), (2, split), (3, split))]
    heatmap = [{"scenario": scenario, "s_w": s_w, "s_f": s_f,
                "r_t": float(tables[scenario][0][s_w - 1, s_f - 1])}
               for scenario in (2, 3) for s_w, s_f in cells]
    return curves, heatmap


def emit_outputs(result: EvalResult, out_dir: str) -> None:
    """Write curves.csv, heatmap.csv and the run manifest; outputs are a
    pure function of the result, so re-emitting is byte-identical."""
    os.makedirs(out_dir, exist_ok=True)
    curves = ["scenario", "n_b", "n_b_actual", "s_w", "s_f", "r_t", "p_m", "overhead_bits"]
    for name, columns in (("curves", curves), ("heatmap", ["scenario", "s_w", "s_f", "r_t"])):
        write_csv(os.path.join(out_dir, name + ".csv"), columns,
                  ([row[c] for c in columns] for row in getattr(result, name)))
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": result.config.to_dict(),
        "config_hash": result.config.config_hash(),
        "master_seed": result.master_seed,
        "n_test": result.n_test,
        "dataset_checksum": result.dataset_checksum,
        "model_param_counts": result.param_counts,
    }
    with atomic_write(os.path.join(out_dir, "run_manifest.json")) as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")

