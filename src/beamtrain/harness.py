"""End-to-end experiment orchestration, configuration and result files."""

import dataclasses
import hashlib
import json
import logging
import os
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
    output_dir: str = "out"

    def __post_init__(self):
        # snapshot i draws its seed from label i, which must stay below the
        # frozen labels of the split and the clustering
        if self.snapshot_count >= _SEED_SPLIT:
            raise ValueError(f"snapshot_count must be below {_SEED_SPLIT}, "
                             f"got {self.snapshot_count}")

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
        scene = SceneConfig(**{k: tuple(v) if isinstance(v, list) else v
                               for k, v in scene_raw.items()})
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        coerced = {}
        for k, v in raw.items():
            if k in ("bs_grid", "ue_grid"):
                coerced[k] = tuple(dict(g) for g in v)
            elif isinstance(v, list):
                coerced[k] = tuple(v)
            else:
                coerced[k] = v
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


class TablePredictor:
    """Exact-lookup predictor mapping known locations to stored vectors.

    Stands in for a trained model when true ratios are injected as
    predictions (oracle evaluation)."""

    def __init__(self, locations: np.ndarray, values: np.ndarray):
        self._table = {tuple(np.asarray(l, dtype=float)): np.asarray(v)
                       for l, v in zip(locations, values)}

    def predict(self, location) -> np.ndarray:
        key = tuple(np.asarray(location, dtype=float))
        return self._table[key]

    def predict_batch(self, X) -> np.ndarray:
        return np.array([self.predict(x) for x in np.asarray(X)])


class StageError(RuntimeError):
    """Pipeline failure annotated with the failing stage."""


def _stage(name):
    class _ctx:
        def __enter__(self):
            log.info("stage: %s", name)
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc is not None and not isinstance(exc, StageError):
                raise StageError(f"stage '{name}' failed: {exc}") from exc
            return False
    return _ctx()


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


def train_models(config: ExperimentConfig, tr_rows, atr_rows, split):
    """K-fold tune and fit the four regression roles under their budgets.

    The scenario-2 and scenario-3 UE models share targets, budget and grid,
    so one fitted model serves both roles.
    """
    X = np.array([r.location for r in tr_rows])
    TR = np.array([r.ratios for r in tr_rows])
    ATR_F = np.array([r.atr_f for r in atr_rows])
    ATR_W = np.array([r.atr_w for r in atr_rows])
    tr_idx = split.train_rows

    def grid_for(raw_grid, budget):
        return [boosting.TrainConfig(budget_parameters=budget, **g) for g in raw_grid]

    models = {}
    with _stage("tune and train models"):
        for name, Y, grid, budget, role in (
            ("theta1", TR, config.bs_grid, config.bs_budget, "coupled"),
            ("theta2_f", ATR_F, config.bs_grid, config.bs_budget, "decoupled_bs"),
            ("theta2_w", ATR_W, config.ue_grid, config.ue_budget, "decoupled_ue"),
        ):
            cfg = boosting.kfold_tune(X[tr_idx], Y[tr_idx], grid_for(grid, budget),
                                      split.fold_assignments)
            models[name] = boosting.train(X[tr_idx], Y[tr_idx], cfg, role=role)
    models["theta3_w"] = models["theta2_w"]
    return models


def run_experiment(config: ExperimentConfig) -> EvalResult:
    """Full reproducible pipeline from (config, master seed) to curves."""
    _, _, tr_rows, atr_rows = build_corpus(config)
    with _stage("split dataset"):
        split = split_dataset(len(tr_rows), config.test_fraction, config.folds,
                              seed=derive_seed(config.master_seed, _SEED_SPLIT))
    models = train_models(config, tr_rows, atr_rows, split)
    X = np.array([r.location for r in tr_rows])
    TR = np.array([r.ratios for r in tr_rows])
    ATR_F = np.array([r.atr_f for r in atr_rows])

    with _stage("build cluster coverage plan"):
        plan = selectors.select_bs_coverage(
            X[split.train_rows], ATR_F[split.train_rows], config.cluster_count,
            n_bs=config.num_beamformers,
            seed=derive_seed(config.master_seed, _SEED_CLUSTER),
            use_significance=config.use_significance)

    with _stage("evaluate scenarios"):
        curves, heatmap = evaluate(config, models, plan, X[split.test_rows],
                                   TR[split.test_rows])

    checksum = hashlib.sha256(np.ascontiguousarray(TR).tobytes()).hexdigest()
    return EvalResult(curves=curves, heatmap=heatmap, n_test=len(split.test_rows),
                      master_seed=config.master_seed,
                      param_counts={k: boosting.param_count(m) for k, m in models.items()},
                      dataset_checksum=checksum, config=config)


def _scenario_sets(config: ExperimentConfig, models, plan, X_test):
    """Per-row descending beam orderings reused across all budgets."""
    orders = {}
    if 1 in config.scenarios:
        pred = models["theta1"].predict_batch(X_test)
        orders["pairs"] = np.argsort(-pred, axis=1, kind="stable")
    if 2 in config.scenarios or 3 in config.scenarios:
        orders["w"] = np.argsort(-models["theta2_w"].predict_batch(X_test), axis=1, kind="stable")
    if 2 in config.scenarios:
        orders["f"] = np.argsort(-models["theta2_f"].predict_batch(X_test), axis=1, kind="stable")
    if 3 in config.scenarios:
        orders["coverage"] = plan.selected_beams
    return orders


def evaluate(config: ExperimentConfig, models, plan, X_test, TR_test):
    num_f = config.num_beamformers
    num_w = config.num_combiners
    orders = _scenario_sets(config, models, plan, X_test)
    n = len(X_test)
    curves = []
    for n_b in config.n_b_sweep:
        if 1 in config.scenarios:
            k = min(n_b, config.num_pairs)
            sets = [selectors.BeamPairSet(orders["pairs"][r, :k], num_f) for r in range(n)]
            curves.append({
                "scenario": 1, "n_b": n_b, "n_b_actual": k, "s_w": -1, "s_f": -1,
                "r_t": metrics.avg_throughput_ratio(TR_test, sets, num_f),
                "p_m": metrics.misalignment_probability(TR_test, sets, num_f),
                "overhead_bits": selectors.overhead_bits(1, k, num_w),
            })
        for scenario in (2, 3):
            if scenario not in config.scenarios:
                continue
            s_w, s_f = decoupled_split(n_b, min(config.s_w_size, num_w), num_f)
            sets = []
            for r in range(n):
                w_sel = orders["w"][r, :s_w]
                f_sel = orders["f"][r, :s_f] if scenario == 2 else orders["coverage"][:s_f]
                sets.append(selectors.DecoupledSets(s_w=w_sel, s_f=np.asarray(f_sel)))
            curves.append({
                "scenario": scenario, "n_b": n_b, "n_b_actual": s_w * s_f,
                "s_w": s_w, "s_f": s_f,
                "r_t": metrics.avg_throughput_ratio(TR_test, sets, num_f),
                "p_m": metrics.misalignment_probability(TR_test, sets, num_f),
                "overhead_bits": selectors.overhead_bits(scenario, s_w * s_f, num_w),
            })
    heatmap = []
    for scenario in (2, 3):
        if scenario not in config.scenarios:
            continue
        for s_w in config.heatmap_s_w:
            if s_w > num_w:
                continue
            for s_f in config.heatmap_s_f:
                if s_f > num_f:
                    continue
                sets = []
                for r in range(n):
                    w_sel = orders["w"][r, :s_w]
                    f_sel = orders["f"][r, :s_f] if scenario == 2 else orders["coverage"][:s_f]
                    sets.append(selectors.DecoupledSets(s_w=w_sel, s_f=np.asarray(f_sel)))
                heatmap.append({"scenario": scenario, "s_w": s_w, "s_f": s_f,
                                "r_t": metrics.avg_throughput_ratio(TR_test, sets, num_f)})
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
    tmp = os.path.join(out_dir, "run_manifest.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    os.replace(tmp, os.path.join(out_dir, "run_manifest.json"))


def _format_cell(v) -> str:
    if isinstance(v, float):
        return "%.12g" % v
    return str(v)


def _write_csv(path: str, columns: list[str], rows: list[dict]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(row[c]) for c in columns) + "\n")
    os.replace(tmp, path)
