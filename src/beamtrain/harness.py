"""End-to-end experiment orchestration, configuration and result files."""

import dataclasses
import hashlib
import json
import logging
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11
    tomllib = None

import numpy as np

from . import boosting, metrics, selectors
from .arrays import dft_codebook
from .channel import default_bs_geometry, default_ue_geometry
from .dataset import build_rate_dataset, split_dataset, to_atr, to_throughput_ratios
from .fileio import atomic_write
from .scene import SceneConfig, generate_snapshot

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1

DEFAULT_N_B_SWEEP = (1, 2, 5, 10, 16, 32, 48, 64, 80, 96, 112, 120, 128)


def derive_seed(master_seed: int, label: int) -> int:
    """Documented seed-split rule: independent streams per (master, label)."""
    return int(np.random.SeedSequence([master_seed, label]).generate_state(1)[0])


# labels for derive_seed, frozen so runs stay reproducible across versions
_SEED_SNAPSHOT_BASE = 0        # + snapshot index
_SEED_SPLIT = 1_000_000
_SEED_CLUSTER = 1_000_001

# the keys of a model grid point: TrainConfig's fields but the budget
_GRID_KEYS = {f.name for f in dataclasses.fields(boosting.TrainConfig)} - {"budget_parameters"}


@dataclass(frozen=True)
class ExperimentConfig:
    scene: SceneConfig = field(default_factory=SceneConfig)
    bs_array: tuple = (8, 8)
    ue_array: tuple = (4, 4)
    master_seed: int = 0
    snapshot_count: int = 500
    test_fraction: float = 0.2
    folds: int = 10
    scenarios: tuple = (1, 2, 3)
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
        # snapshot i draws its seed from label i, which must stay below the
        # frozen labels of the split and the clustering
        if self.snapshot_count >= _SEED_SPLIT:
            raise ValueError(f"snapshot_count must be below {_SEED_SPLIT}, "
                             f"got {self.snapshot_count}")
        # set sizes and budgets index the evaluation tables from 1
        for key in ("n_b_sweep", "heatmap_s_w", "heatmap_s_f"):
            if any(v < 1 for v in getattr(self, key)):
                raise ValueError(f"{key} entries must be >= 1, got {getattr(self, key)}")
        for key in ("s_w_size", "cluster_count"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must lie in (0, 1), got {self.test_fraction}")
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")
        # every grid point must make a TrainConfig, so that a bad grid fails
        # before the corpus is built; the harness sets each role's budget
        for key in ("bs_grid", "ue_grid"):
            grid = getattr(self, key)
            if not grid:
                raise ValueError(f"{key} must hold at least one grid point")
            for i, point in enumerate(grid):
                if not isinstance(point, dict):
                    raise ValueError(f"{key}[{i}] must be a table of grid keys, got {point!r}")
                unknown = sorted(set(point) - _GRID_KEYS)
                if unknown:
                    raise ValueError(f"{key}[{i}].{unknown[0]} is not a grid key; grid keys "
                                     f"are {sorted(_GRID_KEYS)}")
                try:
                    boosting.TrainConfig(**point)
                except ValueError as exc:
                    raise ValueError(f"{key}[{i}].{exc}") from exc

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
        raw = dict(raw)
        version = raw.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported config schema version {version}")
        scene_raw = raw.pop("scene", {})
        known = {f.name for f in dataclasses.fields(cls)}
        known_scene = {f.name for f in dataclasses.fields(SceneConfig)}
        unknown = sorted(set(raw) - known) + sorted("scene." + k
                                                    for k in set(scene_raw) - known_scene)
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        scene = SceneConfig(**{k: tuple(v) if isinstance(v, list) else v
                               for k, v in scene_raw.items()})
        # grid points stay dicts, which __post_init__ checks
        coerced = {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}
        return cls(scene=scene, **coerced)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        if path.endswith(".toml"):
            if tomllib is None:
                raise RuntimeError("TOML configs need Python >= 3.11; use JSON instead")
            with open(path, "rb") as fh:
                raw = tomllib.load(fh)
        else:
            with open(path) as fh:
                raw = json.load(fh)
        return cls.from_dict(raw)

    @classmethod
    def smoke(cls, master_seed: int = 0) -> "ExperimentConfig":
        """Small profile for CI: 20 snapshots, short sweep, tiny grids."""
        return cls(master_seed=master_seed, snapshot_count=20, folds=4,
                   n_b_sweep=(1, 5, 10, 32, 64, 128), cluster_count=6,
                   bs_grid=({"tree_count": 20, "max_depth": 3, "learning_rate": 0.5},),
                   ue_grid=({"tree_count": 20, "max_depth": 3, "learning_rate": 0.3},),
                   heatmap_s_w=(1, 3, 5), heatmap_s_f=(1, 4, 16))

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
    """Log the stage; an Exception raised in it becomes a StageError naming
    it. KeyboardInterrupt and other BaseExceptions pass through."""
    log.info("stage: %s", name)
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(f"stage '{name}' failed: {exc}") from exc


def decoupled_split(n_b: int, s_w: int, num_beamformers: int) -> tuple[int, int]:
    """(|S_w|, |S_f|) for a requested pair budget at a nominal UE beam count.

    |S_w| is clamped to n_b for small budgets, and |S_f| floors the ratio, so
    the actual budget |S_w|*|S_f| never exceeds the requested one and both
    set sizes are non-decreasing in n_b (nested selections)."""
    s_w = min(s_w, n_b)
    return s_w, max(1, min(num_beamformers, n_b // s_w))


def build_corpus(config: ExperimentConfig):
    """Snapshots -> rate rows -> TR/ATR rows, deterministically."""
    with _stage("generate snapshots"):
        snapshots = [generate_snapshot(config.scene, derive_seed(config.master_seed, i),
                                       snapshot_id=i)
                     for i in range(config.snapshot_count)]
    with _stage("build rate dataset"):
        bs_geom = default_bs_geometry(config.scene, *config.bs_array)
        ue_geom = default_ue_geometry(config.scene, *config.ue_array)
        combiners = dft_codebook(ue_geom, "ue")
        beamformers = dft_codebook(bs_geom, "bs")
        rate_rows = build_rate_dataset(snapshots, combiners, beamformers,
                                       bs_geom, ue_geom, config.scene)
    with _stage("transform dataset"):
        tr_rows = to_throughput_ratios(rate_rows)
        atr_rows = to_atr(tr_rows, config.num_combiners, config.num_beamformers)
    return snapshots, rate_rows, tr_rows, atr_rows


def train_role(config: ExperimentConfig, name: str, tr_rows, atr_rows, split):
    """K-fold tune and fit one model role on the training rows, under its
    budget. The scenario-2 and scenario-3 UE models share targets, budget
    and grid, so theta3_w is fitted as theta2_w. The chosen grid point, the
    model's trees and parameters and the fit's seconds are logged at info
    level, after `kfold_tune`'s line on the chosen point's validation MSE."""
    if name == "theta1":
        Y, grid, budget, role = ([r.ratios for r in tr_rows], config.bs_grid, config.bs_budget,
                                 "coupled")
    elif name == "theta2_f":
        Y, grid, budget, role = ([r.atr_f for r in atr_rows], config.bs_grid, config.bs_budget,
                                 "decoupled_bs")
    elif name in ("theta2_w", "theta3_w"):
        Y, grid, budget, role = ([r.atr_w for r in atr_rows], config.ue_grid, config.ue_budget,
                                 "decoupled_ue")
    else:
        raise ValueError(f"unknown model role {name!r}")
    X = np.array([r.location for r in tr_rows])[split.train_rows]
    Y = np.array(Y)[split.train_rows]
    with _stage(f"tune and train {name}"):
        configs = [boosting.TrainConfig(budget_parameters=budget, **g) for g in grid]
        cfg = boosting.kfold_tune(X, Y, configs, split.fold_assignments)
        start = time.perf_counter()
        model = boosting.train(X, Y, cfg, role=role)
        log.info("trained %s: grid point %d of %d, %d trees, %d parameters, fit %.3f s", name,
                 configs.index(cfg), len(configs), len(model.layout["tree_sizes"]),
                 boosting.param_count(model), time.perf_counter() - start)
        return model


def train_models(config: ExperimentConfig, tr_rows, atr_rows, split):
    """K-fold tune and fit the four regression roles under their budgets;
    theta3_w is the theta2_w model."""
    models = {name: train_role(config, name, tr_rows, atr_rows, split)
              for name in ("theta1", "theta2_f", "theta2_w")}
    models["theta3_w"] = models["theta2_w"]
    return models


def split_corpus(config: ExperimentConfig, num_rows: int):
    """The seeded train/test split and training folds of a corpus."""
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


def run_experiment(config: ExperimentConfig) -> EvalResult:
    """Full reproducible pipeline from (config, master seed) to curves."""
    _, _, tr_rows, atr_rows = build_corpus(config)
    split = split_corpus(config, len(tr_rows))
    X = np.array([r.location for r in tr_rows])
    # the plan reads no model, so a bad cluster_count fails before training
    plan = build_coverage_plan(config, X, np.array([r.atr_f for r in atr_rows]), split)
    models = train_models(config, tr_rows, atr_rows, split)
    TR = np.array([r.ratios for r in tr_rows])

    with _stage("evaluate scenarios"):
        curves, heatmap = evaluate(config, models, plan, X[split.test_rows],
                                   TR[split.test_rows])

    checksum = hashlib.sha256(np.ascontiguousarray(TR).tobytes()).hexdigest()
    return EvalResult(curves=curves, heatmap=heatmap, n_test=len(split.test_rows),
                      master_seed=config.master_seed,
                      param_counts={k: boosting.param_count(m) for k, m in models.items()},
                      dataset_checksum=checksum, config=config)


def evaluate(config: ExperimentConfig, models, plan, X_test, TR_test):
    """Curves over the N_B sweep and the decoupled (|S_w|, |S_f|) heatmap.
    Each model ranks every test row's beams once, and each curve point and
    heatmap cell is one entry of the `metrics.prefix_tables` of those
    orderings. Each role's rows, trees and prediction time are logged at
    info level."""
    num_f, num_w = config.num_beamformers, config.num_combiners
    TR_test = np.asarray(TR_test, dtype=float)
    grid = TR_test.reshape(len(TR_test), num_w, num_f)

    def ordering(role):
        start = time.perf_counter()
        predictions = models[role].predict_batch(X_test)
        log.info("predicted %s: %d rows, %d trees, %.4f s", role, len(predictions),
                 len(models[role].layout["tree_sizes"]), time.perf_counter() - start)
        return np.argsort(-predictions, axis=1, kind="stable")

    tables = {}
    if 1 in config.scenarios:
        tables[1] = metrics.prefix_tables(TR_test[:, None, :], [0], ordering("theta1"))
    if 2 in config.scenarios or 3 in config.scenarios:
        w_order = ordering("theta2_w")
    if 2 in config.scenarios:
        tables[2] = metrics.prefix_tables(grid, w_order, ordering("theta2_f"))
    if 3 in config.scenarios:
        tables[3] = metrics.prefix_tables(grid, w_order, plan.selected_beams)

    def point(scenario, n_b, s_w, s_f):
        r_t, p_m = tables[scenario]
        row = {"scenario": scenario, "n_b": n_b, "n_b_actual": s_w * s_f,
               "s_w": s_w, "s_f": s_f,
               "r_t": float(r_t[s_w - 1, s_f - 1]), "p_m": float(p_m[s_w - 1, s_f - 1]),
               "overhead_bits": selectors.overhead_bits(scenario, s_w * s_f, num_w)}
        if scenario == 1:  # a coupled selection has no per-side set sizes
            row.update(s_w=-1, s_f=-1)
        return row

    curves = []
    for n_b in config.n_b_sweep:
        if 1 in tables:
            curves.append(point(1, n_b, 1, min(n_b, config.num_pairs)))
        for scenario in (2, 3):
            if scenario in tables:
                s_w, s_f = decoupled_split(n_b, min(config.s_w_size, num_w), num_f)
                curves.append(point(scenario, n_b, s_w, s_f))
    heatmap = [{"scenario": scenario, "s_w": s_w, "s_f": s_f,
                "r_t": float(tables[scenario][0][s_w - 1, s_f - 1])}
               for scenario in (2, 3) if scenario in tables
               for s_w in config.heatmap_s_w if s_w <= num_w
               for s_f in config.heatmap_s_f if s_f <= num_f]
    return curves, heatmap


def emit_outputs(result: EvalResult, out_dir: str) -> None:
    """Write curves.csv, heatmap.csv and the run manifest; outputs are a
    pure function of the result, so re-emitting is byte-identical."""
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "curves.csv"),
               ["scenario", "n_b", "n_b_actual", "s_w", "s_f", "r_t", "p_m", "overhead_bits"],
               result.curves)
    _write_csv(os.path.join(out_dir, "heatmap.csv"),
               ["scenario", "s_w", "s_f", "r_t"], result.heatmap)
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


def _format_cell(v) -> str:
    if isinstance(v, float):
        return "%.12g" % v
    return str(v)


def _write_csv(path: str, columns: list[str], rows: list[dict]) -> None:
    with atomic_write(path, newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(row[c]) for c in columns) + "\n")
