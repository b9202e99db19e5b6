"""End-to-end acceptance checks for the beam-training simulator.

Each test prints one "criterion N: PASS/FAIL" line so the suite output
doubles as an acceptance report. The full-corpus runs are shared through a
module fixture, so the whole file stays within the stated time limits.
"""

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from beamtrain import cli, metrics, selectors
from beamtrain.arrays import dft_codebook
from beamtrain.channel import (channel_for_ue, default_bs_geometry, default_ue_geometry,
                               paths_to_channel)
from beamtrain.harness import (ExperimentConfig, build_corpus, build_coverage_plan, derive_seed,
                               evaluate, split_corpus, train_models)
from beamtrain.linkeval import sweep_all
from beamtrain.scene import SceneConfig, generate_snapshot
from reference_arrays import nearest_beam_index, world_to_local
from reference_scene import TracedPath, paths_table, unit_world


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
    split = split_corpus(config, len(tr_rows))
    X, TR = tr_rows.location, tr_rows.ratios
    plan = build_coverage_plan(config, X, atr_rows.atr_f, split)
    models = train_models(config, tr_rows, atr_rows, split)
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
    locations, rates = [], []
    snapshot = 0
    while len(rates) < 100:
        snap = generate_snapshot(scene, derive_seed(99, snapshot), snapshot_id=snapshot)
        for ue in snap.ue_indices:
            row = sweep_all(channel_for_ue(snap, ue, bs_g, ue_g, scene), W, F, scene.sigma2)
            if row.max() > 0:
                locations.append(snap.ue_location(ue))
                rates.append(row)
        snapshot += 1
    X = np.array(locations[:100])
    R = np.array(rates[:100])
    R /= R.max(axis=1, keepdims=True)   # the throughput ratios
    # the true ratios injected as predictions, looked up by location
    table = {tuple(x): ratios for x, ratios in zip(X, R)}
    oracle = SimpleNamespace(predict=lambda location: table[tuple(location)])

    failures = []
    num_pairs = 32
    for n_b in range(1, num_pairs + 1):
        for r in range(len(R)):
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
    scene = SceneConfig()
    bs_g = default_bs_geometry(scene, 8, 8)
    ue_g = default_ue_geometry(scene, 4, 4)
    W, F = dft_codebook(ue_g, "ue"), dft_codebook(bs_g, "bs")
    lam = 299792458.0 / scene.carrier_frequency
    rng = np.random.default_rng(42)
    matches = 0
    for _ in range(200):
        ue = np.array([rng.uniform(0, scene.street_width),
                       rng.uniform(20, scene.street_length), 1.5])
        d = float(np.linalg.norm(ue - scene.bs_position))
        gain = lam / (4 * np.pi * d) * np.exp(-2j * np.pi * d / lam)
        path = TracedPath(complex_gain=gain, departure=unit_world(ue - scene.bs_position),
                          arrival=unit_world(scene.bs_position - ue), delay=d / 299792458.0)
        ch = paths_to_channel(paths_table([path]), bs_g, ue_g, scene)
        i, j = divmod(int(np.argmax(sweep_all(ch, W, F, scene.sigma2))), 64)
        d = world_to_local(bs_g, ue - scene.bs_position)
        want_j = nearest_beam_index(bs_g, d[2], d[1])
        d = world_to_local(ue_g, scene.bs_position - ue)
        want_i = nearest_beam_index(ue_g, d[2], d[1])
        matches += int(i == want_i and j == want_j)
    failures = [] if matches >= 190 else [f"only {matches}/200 argmax pairs match"]
    _verdict(7, "exhaustive argmax matches nearest steering beam", failures)


# -------------------------------------------------------- criterion 8

# the --smoke artifact chain, each command run in the run's directory, and
# the files that it writes there
_ROLES = ("theta1", "theta2_f", "theta2_w")
_CHAIN = [
    ("scene gen --smoke --out scene", ("scene/paths.npz", "scene/paths_index.csv")),
    ("dataset build --smoke --out ds", ("ds/rates.npz",)),
    ("plan build --smoke --input ds/rates.npz --out plan.npz", ("plan.npz", "plan.npz.csv")),
    *((f"model train --smoke --input ds/rates.npz --role {role} --out {role}.npz",
       (f"{role}.npz",)) for role in _ROLES),
    *((f"model inspect --model {role}.npz", ()) for role in _ROLES),
    ("eval run --smoke --out eval", ("eval/curves.csv", "eval/heatmap.csv",
                                     "eval/run_manifest.json")),
]


def _child_env(**variables):
    """This process's environment for a `python -m beamtrain.cli` child,
    with `beamtrain` importable and `variables` set."""
    return {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), **variables}


def _chain_in_process(run_dir, capfd, monkeypatch):
    """Each command of _CHAIN through `cli.main` in this process: its exit
    code, stdout and stderr."""
    monkeypatch.chdir(run_dir)
    results = []
    for command, _ in _CHAIN:
        code = cli.main(command.split())
        results.append((code, *capfd.readouterr()))
    return results


def _chain_in_fresh_processes(run_dir, hash_seed):
    """Each command of _CHAIN in a fresh `python -m beamtrain.cli` process
    under PYTHONHASHSEED=`hash_seed`: its exit code, stdout and stderr."""
    env = _child_env(PYTHONHASHSEED=hash_seed)
    runs = (subprocess.run([sys.executable, "-m", "beamtrain.cli", *command.split()],
                           cwd=run_dir, env=env, capture_output=True, text=True)
            for command, _ in _CHAIN)
    return [(run.returncode, run.stdout, run.stderr) for run in runs]


def test_criterion_8_determinism(tmp_path, capfd, monkeypatch):
    """The --smoke artifact chain (`scene gen`, `dataset build`, `plan
    build`, `model train` for each role, `model inspect` of each model file
    and `eval run`) runs twice: in this process, and with each command in a
    fresh `python -m beamtrain.cli` process under a PYTHONHASHSEED that this
    process does not hash with. So neither the order of hashed strings nor
    state that an earlier command leaves in a process may reach an output.
    Each command must exit 0 and print the same lines in both runs, and
    each file it writes must hold the same bytes."""
    here, fresh = tmp_path / "in-process", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    other_seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    runs = zip(_CHAIN, _chain_in_process(here, capfd, monkeypatch),
               _chain_in_fresh_processes(fresh, other_seed))
    failures = []
    for (command, files), (code_a, out_a, err_a), (code_b, out_b, err_b) in runs:
        if code_a or code_b:
            failures.append(f"{command} exited {code_a} in this process ({err_a.strip()}) and "
                            f"{code_b} in a fresh one ({err_b.strip()})")
            break
        if out_a != out_b:
            failures.append(f"{command} printed {out_a!r} in this process, {out_b!r} in a "
                            "fresh one")
        failures += [f"{name} differs between the runs" for name in files
                     if (here / name).read_bytes() != (fresh / name).read_bytes()]
    _verdict(8, "the artifact chain writes the same bytes in fresh processes", failures)


def _smoke_runs(tmp_path, variable, value, *command):
    """Run `beamtrain.cli <command> --smoke --out <dir>` in two fresh
    processes, one without `variable` in its environment (<dir> "default")
    and one with `variable=value` (<dir> `value`); return the two dirs."""
    env = _child_env()
    env.pop(variable, None)
    runs = {tmp_path / "default": env, tmp_path / value: {**env, variable: value}}
    for run_dir, run_env in runs.items():
        subprocess.run([sys.executable, "-m", "beamtrain.cli", *command, "--smoke", "--out",
                        str(run_dir)], capture_output=True, check=True, env=run_env)
    return list(runs)


def _check_curves_and_checksum(tmp_path, variable, value, label):
    """`eval run --smoke` with and without `variable=value`: the curves and
    heatmap must be byte-equal (criterion 8, `label`), and the test skips
    where the variable leaves `dataset_checksum` unchanged, as the equal
    curves then show nothing."""
    runs = _smoke_runs(tmp_path, variable, value, "eval", "run")
    failures = [f"{file} differs under {variable}={value}"
                for file in ("curves.csv", "heatmap.csv")
                if len({Path(run, file).read_bytes() for run in runs}) > 1]
    _verdict(8, label, failures)
    checksums = {json.loads(Path(run, "run_manifest.json").read_text())
                 ["dataset_checksum"] for run in runs}
    if len(checksums) == 1:
        pytest.skip(f"{variable}={value} left dataset_checksum unchanged: this host "
                    "ignores it, so the equal curves show nothing")


def test_criterion_8_curves_do_not_depend_on_the_blas_kernel(tmp_path):
    """The determinism contract across hosts: every output byte is fixed
    for a (config, seed, host), but `curves.csv` and `heatmap.csv` must not
    depend on the host's float kernels. `eval run --smoke` runs twice in
    fresh processes, once under `OPENBLAS_CORETYPE=Sandybridge`, which
    makes OpenBLAS pick other matmul kernels and so moves the rates'
    rounding and `dataset_checksum`; the two runs' curves and heatmaps must
    be byte-equal."""
    _check_curves_and_checksum(tmp_path, "OPENBLAS_CORETYPE", "Sandybridge",
                               "curves and heatmap do not depend on the BLAS kernel")


_AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def test_criterion_8_curves_do_not_depend_on_numpys_avx512_paths(tmp_path):
    """The same contract with numpy's AVX-512 paths off: under
    `NPY_DISABLE_CPU_FEATURES`, naming numpy's AVX-512 dispatch targets,
    the child's elementwise float math (`log1p`, `exp`, ...) takes the
    AVX2 paths. `eval run --smoke`'s curves and heatmap must be byte-equal,
    and `dataset build --smoke`'s rates must agree to within 1e-12 of each
    row's peak. Skips where numpy does not dispatch to those targets, or
    where turning them off leaves `dataset_checksum` unchanged."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:                                 # numpy 1.x
        from numpy.core import _multiarray_umath
    missing = sorted(set(_AVX512_TARGETS) - set(_multiarray_umath.__cpu_dispatch__))
    if missing:
        pytest.skip(f"numpy {np.__version__} has no dispatch target {missing}, so "
                    "NPY_DISABLE_CPU_FEATURES cannot turn its AVX-512 paths off")
    value = " ".join(_AVX512_TARGETS)
    runs = _smoke_runs(tmp_path / "rates", "NPY_DISABLE_CPU_FEATURES", value,
                       "dataset", "build")
    default, variant = (np.load(Path(run, "rates.npz"))["rates"] for run in runs)
    peaks = default.max(axis=1, keepdims=True)
    failures = ([] if default.shape == variant.shape and
                np.all(np.abs(default - variant) <= 1e-12 * peaks) else
                [f"rates differ by more than 1e-12 of the row peak under "
                 f"NPY_DISABLE_CPU_FEATURES={value}"])
    _verdict(8, "rates agree to 1e-12 of the peak without numpy's AVX-512 paths", failures)
    _check_curves_and_checksum(tmp_path / "eval", "NPY_DISABLE_CPU_FEATURES", value,
                               "curves and heatmap do not depend on numpy's AVX-512 paths")


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
