"""End-to-end acceptance checks for the beam-training simulator.

Each test prints one "criterion N: PASS/FAIL" line so the suite output
doubles as an acceptance report. The full-corpus runs are shared through a
module fixture, so the whole file stays within the stated time limits.
"""

import dataclasses
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from beamtrain import cli, metrics, selectors
from beamtrain.arrays import dft_codebook, nearest_beam_index, world_to_local_angles
from beamtrain.channel import default_bs_geometry, default_ue_geometry, paths_to_channel
from beamtrain.dataset import split_dataset, to_throughput_ratios
from beamtrain.harness import (ExperimentConfig, _SEED_CLUSTER, _SEED_SPLIT, build_corpus,
                               derive_seed, evaluate, train_models)
from beamtrain.linkeval import sweep_all
from beamtrain.scene import SceneConfig, generate_snapshot


_CAPFD = None


@pytest.fixture(autouse=True)
def _console(capfd):
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def _verdict(num, label, failures):
    ok = not failures
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({label})"
    if _CAPFD is not None:
        # write past pytest's capture so the report line always reaches the console
        with _CAPFD.disabled():
            print(line, flush=True)
    else:
        print(line)
    assert ok, f"criterion {num} ({label}): " + "; ".join(failures)


# ---------------------------------------------------------------- fixtures

def _full_run(seed):
    config = ExperimentConfig(master_seed=seed)
    t0 = time.perf_counter()
    _, _, tr_rows, atr_rows = build_corpus(config)
    split = split_dataset(len(tr_rows), config.test_fraction, config.folds,
                          seed=derive_seed(seed, _SEED_SPLIT))
    models = train_models(config, tr_rows, atr_rows, split)
    X = np.array([r.location for r in tr_rows])
    TR = np.array([r.ratios for r in tr_rows])
    ATR_F = np.array([r.atr_f for r in atr_rows])
    plan = selectors.select_bs_coverage(
        X[split.train_rows], ATR_F[split.train_rows], config.cluster_count,
        n_bs=config.num_beamformers, seed=derive_seed(seed, _SEED_CLUSTER),
        use_significance=config.use_significance)
    t_eval = time.perf_counter()
    curves, _ = evaluate(config, models, plan, X[split.test_rows], TR[split.test_rows])
    t1 = time.perf_counter()
    return {
        "config": config, "models": models, "plan": plan, "curves": curves,
        "X_test": X[split.test_rows], "TR_test": TR[split.test_rows],
        "eval_seconds": t1 - t_eval, "total_seconds": t1 - t0,
    }


@pytest.fixture(scope="module")
def full_runs():
    return {seed: _full_run(seed) for seed in (1, 2, 3)}


def _curve(run, scenario):
    rows = [r for r in run["curves"] if r["scenario"] == scenario]
    return {r["n_b"]: r for r in rows}


# -------------------------------------------------------- criterion 1

def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    scene = dataclasses.replace(SceneConfig(), subcarrier_count=4)
    bs_g = default_bs_geometry(scene, 2, 4)
    ue_g = default_ue_geometry(scene, 2, 2)
    W, F = dft_codebook(ue_g, "ue"), dft_codebook(bs_g, "bs")
    rows = []
    snapshot = 0
    while len(rows) < 100:
        snap = generate_snapshot(scene, derive_seed(99, snapshot), snapshot_id=snapshot)
        for ue in snap.ue_indices:
            from beamtrain.channel import channel_for_ue
            ch = channel_for_ue(snap, ue, bs_g, ue_g, scene)
            row = sweep_all(ch, W, F, scene.sigma2)
            if row.rates.max() > 0:
                rows.append(row)
        snapshot += 1
    rows = rows[:100]
    tr = to_throughput_ratios(rows)
    X = np.array([r.location for r in tr])
    R = np.array([r.ratios for r in tr])
    # the true ratios injected as predictions, looked up by location
    table = {tuple(x): ratios for x, ratios in zip(X, R)}
    oracle = SimpleNamespace(predict=lambda location: table[tuple(location)])

    failures = []
    num_pairs = 32
    for n_b in range(1, num_pairs + 1):
        for r in range(len(tr)):
            sel = selectors.select_coupled(oracle, X[r], n_b, num_beamformers=8)
            brute = sorted(range(num_pairs), key=lambda j: (-R[r, j], j))[:n_b]
            if list(sel.flat_indices) != brute:
                failures.append(f"selection mismatch at n_b={n_b}, row {r}")
                break
            got_rt = metrics.avg_throughput_ratio(R[r:r + 1], [sel], 8)
            got_pm = metrics.misalignment_probability(R[r:r + 1], [sel], 8)
            want_rt = float(np.max(R[r, brute]))
            want_pm = 0.0 if int(np.argmax(R[r])) in set(brute) else 1.0
            if abs(got_rt - want_rt) > 1e-12 or abs(got_pm - want_pm) > 1e-12:
                failures.append(f"metric mismatch at n_b={n_b}, row {r}")
                break
        if failures:
            break
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    _verdict(1, "toy oracle equivalence", failures)


# -------------------------------------------------------- criterion 2

def test_criterion_2_exhaustive_budgets(full_runs):
    failures = []
    for seed, run in full_runs.items():
        TR = run["TR_test"]
        n = len(TR)
        full_pairs = [selectors.BeamPairSet(np.arange(1024), 64)] * n
        full_dec = [selectors.DecoupledSets(s_w=np.arange(16), s_f=np.arange(64))] * n
        plan_full = run["plan"].prefix(64)
        full_cov = [selectors.DecoupledSets(s_w=np.arange(16),
                                            s_f=plan_full.selected_beams)] * n
        for name, sets in (("scenario 1", full_pairs), ("scenario 2", full_dec),
                           ("scenario 3", full_cov)):
            rt = metrics.avg_throughput_ratio(TR, sets, 64)
            pm = metrics.misalignment_probability(TR, sets, 64)
            if rt != 1.0 or pm != 0.0:
                failures.append(f"seed {seed} {name}: R_T={rt}, P_m={pm}")
    _verdict(2, "exhaustive budgets give R_T=1, P_m=0", failures)


# -------------------------------------------------------- criterion 3

def test_criterion_3_monotonicity(full_runs):
    failures = []
    for seed, run in full_runs.items():
        for scenario in (1, 2, 3):
            curve = _curve(run, scenario)
            budgets = sorted(curve)
            rts = [curve[b]["r_t"] for b in budgets]
            pms = [curve[b]["p_m"] for b in budgets]
            if any(b < a for a, b in zip(rts, rts[1:])):
                failures.append(f"seed {seed} scenario {scenario}: R_T not non-decreasing")
            if any(b > a for a, b in zip(pms, pms[1:])):
                failures.append(f"seed {seed} scenario {scenario}: P_m not non-increasing")
        if run["eval_seconds"] >= 120.0:
            failures.append(f"seed {seed}: evaluation took {run['eval_seconds']:.0f}s >= 120s")
    _verdict(3, "R_T/P_m monotone across the budget sweep", failures)


# -------------------------------------------------------- criterion 4

def test_criterion_4_transform_algebra():
    rng = np.random.default_rng(0)
    failures = []
    for _ in range(1000):
        ratios = rng.uniform(0, 1, size=1024)
        ratios[rng.integers(1024)] = 1.0
        grid = ratios.reshape(16, 64)
        atr_w = grid.mean(axis=1)
        atr_f = grid.mean(axis=0)
        if abs(atr_w.mean() - atr_f.mean()) > 1e-12 \
                or abs(atr_w.mean() - ratios.mean()) > 1e-12:
            failures.append("ATR means disagree")
            break
    locations = rng.uniform(0, 100, size=(200, 2))
    atr_rows = rng.uniform(0, 1, size=(200, 64))
    plan = selectors.select_bs_coverage(locations, atr_rows, num_clusters=5, n_bs=64, seed=1)
    if abs(plan.significances.sum() - 1.0) > 1e-12:
        failures.append("cluster significances do not sum to 1")
    sums = plan.prob_tables.sum(axis=2)
    if np.abs(sums - 1.0).max() > 1e-12:
        failures.append("a rank-probability table does not sum to 1")
    _verdict(4, "ATR and rank-probability algebra", failures)


# -------------------------------------------------------- criterion 5

def test_criterion_5_trend_reproduction(full_runs):
    failures = []
    total = sum(run["total_seconds"] for run in full_runs.values())
    for seed, run in full_runs.items():
        if len(run["TR_test"]) < 1000:
            failures.append(f"seed {seed}: only {len(run['TR_test'])} test UEs")
        s1, s2, s3 = (_curve(run, s) for s in (1, 2, 3))
        for n_b in s1:
            if s1[n_b]["r_t"] < s2[n_b]["r_t"] - 0.02:
                failures.append(f"seed {seed}: scenario 1 below scenario 2 at n_b={n_b}")
        for n_b in s3:
            if n_b < 100 and s3[n_b]["r_t"] > s2[n_b]["r_t"] + 0.01:
                failures.append(f"seed {seed}: scenario 3 above scenario 2 at n_b={n_b}")
            if n_b >= 120 and abs(s3[n_b]["r_t"] - s2[n_b]["r_t"]) > 0.05:
                failures.append(f"seed {seed}: scenario 3 not within 0.05 at n_b={n_b}")
        if s1[5]["r_t"] < 0.85:
            failures.append(f"seed {seed}: scenario 1 R_T at n_b=5 is {s1[5]['r_t']:.3f}")
    if total >= 900.0:
        failures.append(f"three full runs took {total:.0f}s >= 900s")
    _verdict(5, "qualitative trends over 3 seeds", failures)


# -------------------------------------------------------- criterion 6

def test_criterion_6_parameter_budgets(full_runs):
    from beamtrain.boosting import param_count
    failures = []
    for seed, run in full_runs.items():
        counts = {k: param_count(m) for k, m in run["models"].items()}
        if counts["theta2_w"] > 2048 or counts["theta3_w"] > 2048:
            failures.append(f"seed {seed}: UE model over budget ({counts})")
        if counts["theta1"] > 61440:
            failures.append(f"seed {seed}: coupled model over budget ({counts})")
    _verdict(6, "model parameter budgets", failures)


# -------------------------------------------------------- criterion 7

def test_criterion_7_physics_sanity():
    from beamtrain.scene import PathComponent
    from reference_scene import angles_world as _angles_world
    scene = SceneConfig()
    bs_g = default_bs_geometry(scene)
    ue_g = default_ue_geometry(scene)
    W, F = dft_codebook(ue_g, "ue"), dft_codebook(bs_g, "bs")
    lam = 299792458.0 / scene.carrier_frequency
    rng = np.random.default_rng(42)
    matches = 0
    for _ in range(200):
        ue = np.array([rng.uniform(0, scene.street_width),
                       rng.uniform(20, scene.street_length), 1.5])
        d = float(np.linalg.norm(ue - scene.bs_position))
        gain = lam / (4 * np.pi * d) * np.exp(-2j * np.pi * d / lam)
        path = PathComponent(complex_gain=gain, aod=_angles_world(ue - scene.bs_position),
                             aoa=_angles_world(scene.bs_position - ue),
                             delay=d / 299792458.0)
        ch = paths_to_channel([path], bs_g, ue_g, scene, ue_location=ue[:2])
        row = sweep_all(ch, W, F, scene.sigma2)
        i, j = divmod(int(np.argmax(row.rates)), 64)
        az, el = world_to_local_angles(bs_g, ue - scene.bs_position)
        want_j = nearest_beam_index(bs_g, np.sin(el), np.cos(el) * np.sin(az))
        az, el = world_to_local_angles(ue_g, scene.bs_position - ue)
        want_i = nearest_beam_index(ue_g, np.sin(el), np.cos(el) * np.sin(az))
        matches += int(i == want_i and j == want_j)
    failures = [] if matches >= 190 else [f"only {matches}/200 argmax pairs match"]
    _verdict(7, "exhaustive argmax matches nearest steering beam", failures)


# -------------------------------------------------------- criterion 8

def test_criterion_8_determinism(tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    failures = []
    if cli.main(["eval", "run", "--smoke", "--out", out_a]) != 0:
        failures.append("first run returned nonzero")
    if cli.main(["eval", "run", "--smoke", "--out", out_b]) != 0:
        failures.append("second run returned nonzero")
    for name in ("curves.csv", "heatmap.csv", "run_manifest.json"):
        if Path(out_a, name).read_bytes() != Path(out_b, name).read_bytes():
            failures.append(f"{name} differs between runs")
    _verdict(8, "repeated runs are byte-identical", failures)


# -------------------------------------------------------- criterion 9

def test_criterion_9_overhead_accounting():
    failures = []
    if selectors.overhead_bits(1, 10, 16) != 40.0:
        failures.append("scenario 1, 10 pairs, |W|=16 should cost 40 bits")
    for n in (1, 5, 64, 128):
        if selectors.overhead_bits(1, n, 16) != n * 4.0:
            failures.append(f"scenario 1 overhead wrong at {n} pairs")
        if selectors.overhead_bits(2, n, 16) != 0.0 or selectors.overhead_bits(3, n, 16) != 0.0:
            failures.append(f"decoupled overhead nonzero at {n} pairs")
    _verdict(9, "signaling overhead accounting", failures)
