"""The benchmark's four workloads: corpus, train, select and online.

The first three cover `harness.run_experiment` stage by stage; the fourth
is the base station's per-UE decision:

- corpus: `harness.build_corpus` (snapshots, tracing, channel, sweep, TR/ATR);
- train:  `dataset.split_dataset` + `harness.train_models`;
- select: the rest of `run_experiment` plus `emit_outputs` (the batch phase);
- online: beam selections for single test UEs, one closed-loop client.

Each workload first sets itself up (the set-up of every workload builds
the corpus, so the process's cold first pass is never timed), then times
its operations. Every operation is checked after its timed region; an
exception or a failed check counts the operation as failed.

The speed of a shared host drifts: a fixed loop took 40 to 67 ms in
5-second windows of one 80-second span on the 2-vCPU machine the
benchmark was built on, and passes of one workload in one process varied
by 10-14% (coefficient of variation). So every timed region runs under a
HostClock, which samples the host's speed with a 1.2-ms probe every 0.1 s
and reports the region's time rescaled to the probe's nominal speed
("calibrated seconds"). On repeated passes in one process this cut the
coefficient of variation from 0.097 to 0.036 for train and from 0.137 to
0.090 for corpus.
"""

import gc
import hashlib
import os
import shutil
import signal
import statistics
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace

import numpy as np

import beamtrain
from beamtrain import boosting, channel, dataset, harness, scene, selectors

# labels of the benchmark's own seeded choices, kept apart from the program's
_CHECK_SAMPLE_LABEL = 7
_ONLINE_ORDER_LABEL = 11
CHECK_SAMPLE_UES = 8
RATE_RTOL = 1e-12

# Host-speed probe: an interpreted loop over numpy scalars, as in tree
# prediction, plus a small complex matmul. About 1.2 ms on the reference
# host, which NOMINAL_PROBE_S fixes as the unit speed.
NOMINAL_PROBE_S = 1.2e-3
PROBE_INTERVAL_S = 0.1
_PROBE_X = np.arange(64.0)
_PROBE_W = np.full((16, 16), 1 - 1j)
_PROBE_H = np.full((16, 16, 64), 1 + 1j)
_PROBE_F = np.full((64, 64), 1j)


def probe() -> float:
    """Seconds of one fixed probe."""
    start = time.perf_counter()
    total = 0.0
    for i in range(4000):
        total += _PROBE_X[i & 63] * 1.0001
    np.matmul(_PROBE_W, _PROBE_H) @ _PROBE_F
    return time.perf_counter() - start


class HostClock:
    """Times regions in raw and in calibrated seconds.

    Inside `region()` a SIGALRM timer runs one probe every PROBE_INTERVAL_S
    (one more follows the region, so a short region has a sample too). A
    region's raw seconds exclude the probes; its calibrated seconds are the
    raw ones divided by the host's slowness, the mean probe time over
    NOMINAL_PROBE_S. `probe_s` is the probe time so far, so that a caller
    can take the probes out of shorter spans inside a region."""

    def __init__(self):
        self.samples = []
        self.probe_s = 0.0
        self.raw_s = 0.0            # totals over every region, for the
        self.calibrated_s = 0.0     # host slowness of the whole run
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, *_):
        seconds = probe()
        self.samples.append(seconds)
        self.probe_s += seconds

    @contextmanager
    def region(self, result: dict):
        """Times the with-block into result["raw"], result["calibrated"]
        and result["slowness"], also when it raises."""
        first, probes = len(self.samples), self.probe_s
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield result
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            raw = time.perf_counter() - start - (self.probe_s - probes)
            self._sample()
            slowness = statistics.mean(self.samples[first:]) / NOMINAL_PROBE_S
            result.update(raw=raw, calibrated=raw / slowness, slowness=slowness)
            self.raw_s += raw
            self.calibrated_s += raw / slowness


@dataclass(frozen=True)
class Profile:
    ue_target: int | None        # None keeps the default 500 snapshots
    smoke: bool                  # ExperimentConfig.smoke() instead of the defaults
    setups: dict                 # set-up repetitions per workload
    online_cycles: int           # online requests per scheme

    def config(self, seed: int) -> harness.ExperimentConfig:
        if self.smoke:
            return harness.ExperimentConfig.smoke(master_seed=seed)
        config = harness.ExperimentConfig(master_seed=seed)
        if self.ue_target is None:
            return config
        return replace(config, snapshot_count=snapshots_for(config, self.ue_target))


def snapshots_for(config, ue_target: int) -> int:
    """Fewest snapshots of the seed's sequence that hold ue_target UEs, so
    that every seed gives a corpus of about the same size."""
    total, count = 0, 0
    while total < ue_target:
        snapshot = harness.generate_snapshot(
            config.scene, harness.derive_seed(config.master_seed, count), snapshot_id=count)
        total += len(snapshot.ue_indices)
        count += 1
    return count


PROFILES = {
    # the measured profile: about a tenth of the paper's 500 snapshots (6.4k
    # UEs), so that a run of every workload, set-up included, ends within
    # about a minute. The set-up of select and online trains the models
    # (about 9 s), so they set up twice, not three times.
    "bench": Profile(ue_target=640, smoke=False,
                     setups={"corpus": 3, "train": 3, "select": 2, "online": 2},
                     online_cycles=100),
    "smoke": Profile(ue_target=None, smoke=True,
                     setups={"corpus": 1, "train": 1, "select": 1, "online": 1},
                     online_cycles=12),
    # the paper's size, for reconciling against a full run
    "full": Profile(ue_target=None, smoke=False,
                    setups={"corpus": 1, "train": 1, "select": 1, "online": 1},
                    online_cycles=100),
}

# The online loop runs a fixed number of cycles. It stops early once it has
# run this many times --seconds per online_cycles cycles (a traced run makes
# twice as many), and the requests it did not make count as failed, so that
# a run with a slowdown that large still ends in bounded time and reports it.
ONLINE_CAP_RUN_SECONDS = 12


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def dataset_checksum(TR: np.ndarray) -> str:
    """Checksum of the stacked TR rows, exactly as `run_experiment` computes it."""
    return hashlib.sha256(np.ascontiguousarray(TR).tobytes()).hexdigest()


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class Run:
    """One benchmark run: counts operations and failures, keeps timings."""

    def __init__(self, config, seed: int, profile: Profile, seconds: float, trace: bool,
                 scratch: str, tracer=None):
        self.config = config
        self.seed = seed
        self.profile = profile
        self.seconds = seconds
        self.trace = trace
        self.scratch = scratch
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.clock = HostClock()
        self.setup_times = []    # calibrated seconds of each set-up
        self.digests = {}
        self.extra = {}          # untraced measurements beyond the end-to-end metrics
        self.untraced = []       # calibrated seconds of untraced timed passes
        self.traced = []         # calibrated seconds of traced timed passes
        self.raw = {"setup": [], "untraced": [], "traced": []}   # the same, raw

    def _fail(self, text: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(text)

    def timed(self, op, verify, traced: bool = False) -> dict:
        """One timed operation, then its untimed checks. Returns its times
        (see HostClock.region)."""
        self.attempted += 1
        gc.collect()
        value, error, times = None, None, {}
        try:
            with self.clock.region(times), self.tracer if traced else nullcontext():
                value = op()
        except Exception:  # one broken operation is counted, the run goes on
            error = traceback.format_exc(limit=4)
        if error is None:
            try:
                verify(value)
            except Exception:
                error = traceback.format_exc(limit=4)
        if error is not None:
            self._fail(error)
        return times

    def set_up(self, build):
        """Repeat the set-up; report the median, keep the last state."""
        for _ in range(self.profile.setups[self.name]):
            state = None   # free the previous state before building the next
            gc.collect()
            times = {}
            with self.clock.region(times):
                state = build()
            self.setup_times.append(times["calibrated"])
            self.raw["setup"].append(times["raw"])
        return state

    def digest(self, key: str, value: str) -> None:
        """Record a determinism digest; a later pass must reproduce it."""
        check(self.digests.setdefault(key, value) == value,
              f"{key} differs between passes of one run")

    def passes(self, op, verify) -> None:
        """Repeat op until the run's seconds have passed. A traced run
        alternates untraced and traced passes, starting untraced, and ends
        after a traced one."""
        start = time.perf_counter()
        while True:
            traced = self.trace and len(self.traced) < len(self.untraced)
            times = self.timed(op, verify, traced=traced)
            (self.traced if traced else self.untraced).append(times["calibrated"])
            self.raw["traced" if traced else "untraced"].append(times["raw"])
            balanced = len(self.traced) == (len(self.untraced) if self.trace else 0)
            if balanced and time.perf_counter() - start >= self.seconds:
                return


# ---------------------------------------------------------------- corpus

class CorpusRun(Run):
    name = "corpus"

    def execute(self) -> float:
        cfg = self.config
        self.set_up(lambda: harness.build_corpus(cfg))   # warm-up, never timed
        self._prepare_reference()
        self.passes(lambda: harness.build_corpus(cfg), self.verify)
        return statistics.median(self.untraced)

    def _prepare_reference(self):
        cfg = self.config
        self.bs_geom = channel.default_bs_geometry(cfg.scene, *cfg.bs_array)
        self.ue_geom = channel.default_ue_geometry(cfg.scene, *cfg.ue_array)
        self.W = beamtrain.dft_codebook(self.ue_geom, "ue").beams
        self.F = beamtrain.dft_codebook(self.bs_geom, "bs").beams

    def reference_rates(self, snapshot, ue_index) -> np.ndarray:
        """Dense reference: mean over k of log2(1 + |W^H H[k] F^T|^2 / sigma2)."""
        cfg = self.config
        paths = scene.trace_paths(snapshot, ue_index, cfg.scene)
        H = channel.paths_to_channel(paths, self.bs_geom, self.ue_geom, cfg.scene).matrices
        proj = np.einsum("wi,kij,fj->kwf", self.W.conj(), H, self.F, optimize=True)
        return np.mean(np.log2(1.0 + np.abs(proj) ** 2 / cfg.scene.sigma2), axis=0).reshape(-1)

    def verify(self, corpus) -> None:
        snapshots, rate_rows, tr_rows, atr_rows = corpus
        ues = [(s.snapshot_id, u) for s in snapshots for u in s.ue_indices]
        keys = [(r.snapshot_id, r.ue_index) for r in rate_rows]
        check(len(set(keys)) == len(keys) and set(keys) <= set(ues),
              "rate rows are not distinct UEs of the snapshots")
        check(keys == sorted(keys), "rate rows are not in (snapshot, UE) order")
        check(len(tr_rows) == len(atr_rows) == len(rate_rows), "TR/ATR row counts differ")
        check(all(float(np.max(r.ratios)) == 1.0 for r in tr_rows), "a TR row max is not 1.0")

        # kept + dropped = UE count: rows are distinct UEs (above) and every
        # sampled UE without a row must be fully blocked (below)
        by_key = dict(zip(keys, rate_rows))
        snaps = {s.snapshot_id: s for s in snapshots}
        rng = np.random.default_rng([self.seed, _CHECK_SAMPLE_LABEL])
        for i in rng.choice(len(ues), size=min(CHECK_SAMPLE_UES, len(ues)), replace=False):
            sid, ue = ues[i]
            ref = self.reference_rates(snaps[sid], ue)
            row = by_key.get((sid, ue))
            if row is None:
                check(np.max(ref) <= 0.0, f"UE {sid}/{ue} dropped but not fully blocked")
                continue
            err = np.max(np.abs(row.rates - ref)) / np.max(np.abs(ref))
            check(err <= RATE_RTOL, f"UE {sid}/{ue} rates off the dense reference by {err:.3g}")
        self.digest("dataset_checksum", dataset_checksum(np.array([r.ratios for r in tr_rows])))


# ----------------------------------------------------------------- train

def split_rows(cfg, num_rows):
    """The train/test split exactly as `run_experiment` draws it; _SEED_SPLIT
    is the program's frozen seed label for it."""
    return dataset.split_dataset(num_rows, cfg.test_fraction, cfg.folds,
                                 seed=harness.derive_seed(cfg.master_seed, harness._SEED_SPLIT))


def verify_models(cfg, models, X_test) -> dict:
    """Budgets, the shared UE model, and predictions finite in [0, 1].
    Returns the predictions on X_test per role."""
    budgets = {"theta1": cfg.bs_budget, "theta2_f": cfg.bs_budget,
               "theta2_w": cfg.ue_budget, "theta3_w": cfg.ue_budget}
    for role, budget in budgets.items():
        used = boosting.param_count(models[role])
        check(used <= budget, f"{role} uses {used} parameters, budget {budget}")
    check(models["theta3_w"] is models["theta2_w"], "theta3_w is not the theta2_w model")
    predictions = {}
    for role in ("theta1", "theta2_f", "theta2_w"):
        pred = models[role].predict_batch(X_test)
        check(np.all(np.isfinite(pred)) and pred.min() >= 0.0 and pred.max() <= 1.0,
              f"{role} predictions not finite in [0, 1]")
        predictions[role] = pred
    return predictions


class TrainRun(Run):
    name = "train"

    def execute(self) -> float:
        cfg = self.config
        _, _, self.tr_rows, self.atr_rows = self.set_up(lambda: harness.build_corpus(cfg))
        self.X = np.array([r.location for r in self.tr_rows])
        self.digests["dataset_checksum"] = dataset_checksum(
            np.array([r.ratios for r in self.tr_rows]))
        self.passes(self.op, self.verify)
        return statistics.median(self.untraced)

    def op(self):
        split = split_rows(self.config, len(self.tr_rows))
        return split, harness.train_models(self.config, self.tr_rows, self.atr_rows, split)

    def verify(self, value) -> None:
        split, models = value
        predictions = verify_models(self.config, models, self.X[split.test_rows])
        blob = b"".join(np.ascontiguousarray(p).tobytes() for p in predictions.values())
        self.digest("models_sha256", hashlib.sha256(blob).hexdigest())


# ---------------------------------------------------------------- select

def verify_curves(cfg, result) -> None:
    """R_T in [0, 1] and non-decreasing in n_b, P_m non-increasing, and
    overhead bits as `overhead_bits` gives them, per scenario."""
    for scenario in cfg.scenarios:
        rows = [c for c in result.curves if c["scenario"] == scenario]
        check(len(rows) == len(cfg.n_b_sweep), f"scenario {scenario} misses curve points")
        r_t = [c["r_t"] for c in rows]
        p_m = [c["p_m"] for c in rows]
        check(all(0.0 <= v <= 1.0 for v in r_t + p_m), f"scenario {scenario}: R_T or P_m "
              "outside [0, 1]")
        check(all(a <= b for a, b in zip(r_t, r_t[1:])), f"scenario {scenario}: R_T decreases")
        check(all(a >= b for a, b in zip(p_m, p_m[1:])), f"scenario {scenario}: P_m increases")
        for c in rows:
            bits = selectors.overhead_bits(scenario, c["n_b_actual"], cfg.num_combiners)
            check(c["overhead_bits"] == bits, f"scenario {scenario}: overhead bits mismatch")
    check(all(0.0 <= h["r_t"] <= 1.0 for h in result.heatmap), "heatmap R_T outside [0, 1]")


def train_setup(cfg):
    """The corpus, the train/test split and the models, as `run_experiment`
    builds them."""
    _, _, tr_rows, atr_rows = harness.build_corpus(cfg)
    split = split_rows(cfg, len(tr_rows))
    return tr_rows, atr_rows, split, harness.train_models(cfg, tr_rows, atr_rows, split)


def coverage_plan(cfg, split, X, ATR_F):
    """The BS coverage plan exactly as `run_experiment` draws it;
    _SEED_CLUSTER is the program's frozen seed label for it."""
    return selectors.select_bs_coverage(
        X[split.train_rows], ATR_F[split.train_rows], cfg.cluster_count,
        n_bs=cfg.num_beamformers,
        seed=harness.derive_seed(cfg.master_seed, harness._SEED_CLUSTER),
        use_significance=cfg.use_significance)


class SelectRun(Run):
    name = "select"

    def execute(self) -> float:
        self.tr_rows, self.atr_rows, self.split, self.models = self.set_up(
            lambda: train_setup(self.config))
        self.passes(self.batch, self.verify_batch)
        self.extra["eval_s"] = statistics.median(self.untraced)
        return self.extra["eval_s"]

    def batch(self):
        """The tail of `run_experiment` after training, then `emit_outputs`."""
        cfg, split, models = self.config, self.split, self.models
        X = np.array([r.location for r in self.tr_rows])
        TR = np.array([r.ratios for r in self.tr_rows])
        ATR_F = np.array([r.atr_f for r in self.atr_rows])
        plan = coverage_plan(cfg, split, X, ATR_F)
        curves, heatmap = harness.evaluate(cfg, models, plan, X[split.test_rows],
                                           TR[split.test_rows])
        result = harness.EvalResult(
            curves=curves, heatmap=heatmap, n_test=len(split.test_rows),
            master_seed=cfg.master_seed,
            param_counts={k: boosting.param_count(m) for k, m in models.items()},
            dataset_checksum=dataset_checksum(TR), config=cfg)
        out_dir = tempfile.mkdtemp(dir=self.scratch)
        harness.emit_outputs(result, out_dir)
        return result, out_dir

    def verify_batch(self, value) -> None:
        result, out_dir = value
        try:
            verify_curves(self.config, result)
            self.digest("dataset_checksum", result.dataset_checksum)
            for name in ("curves.csv", "heatmap.csv", "run_manifest.json"):
                self.digest(name, sha256_file(os.path.join(out_dir, name)))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


# ---------------------------------------------------------------- online

class OnlineRun(Run):
    name = "online"

    def execute(self) -> float:
        cfg = self.config

        def build():
            tr_rows, atr_rows, split, models = train_setup(cfg)
            X = np.array([r.location for r in tr_rows])
            plan = coverage_plan(cfg, split, X, np.array([r.atr_f for r in atr_rows]))
            return X[split.test_rows], models, plan

        self.X_test, self.models, self.plan = self.set_up(build)
        predictions = verify_models(cfg, self.models, self.X_test)
        self.orders = {key: np.argsort(-predictions[role], axis=1, kind="stable")
                       for key, role in (("pairs", "theta1"), ("w", "theta2_w"),
                                         ("f", "theta2_f"))}
        times = {}
        with self.clock.region(times):
            seconds = self._loop()
        for traced in (False, True) if self.trace else (False,):
            (self.traced if traced else self.untraced).append(
                seconds[traced] / times["slowness"])
            self.raw["traced" if traced else "untraced"].append(seconds[traced])
        return self.untraced[0]

    def _loop(self):
        """Closed loop, one client: each cycle selects beams for one test UE
        with scheme 1, 2 and 3 in turn, each selection checked against the
        batch ordering (the prefix of a stable argsort of `predict_batch`).
        Test UEs come in seeded order and N_B cycles through n_b_sweep. A
        traced run interleaves untraced and traced cycles. Returns the raw
        seconds of the untraced and of the traced requests, by `traced`."""
        cfg = self.config
        num_f, num_w = cfg.num_beamformers, cfg.num_combiners
        m, o, plan = self.models, self.orders, self.plan
        ue_order = np.random.default_rng([self.seed, _ONLINE_ORDER_LABEL]).permutation(
            len(self.X_test))
        latencies = {False: {1: [], 2: [], 3: []}, True: {1: [], 2: [], 3: []}}

        def request(traced, scheme, fn, expect) -> None:
            self.attempted += 1
            probes = self.clock.probe_s
            start = time.perf_counter()
            try:
                selection = fn()
            except Exception:  # counted as a failed request
                selection = None
                self._fail(traceback.format_exc(limit=4))
            latency = time.perf_counter() - start - (self.clock.probe_s - probes)
            latencies[traced][scheme].append(latency)
            if selection is not None:
                try:
                    check(expect(selection), f"online scheme {scheme} selection is not the "
                          "prefix of the batch ordering")
                except Exception:
                    self._fail(traceback.format_exc(limit=4))

        cycles = self.profile.online_cycles * (2 if self.trace else 1)
        cap_s = ONLINE_CAP_RUN_SECONDS * self.seconds * cycles / self.profile.online_cycles
        deadline = time.perf_counter() + cap_s
        for cycle in range(cycles):
            if time.perf_counter() > deadline:
                unmade = 3 * (cycles - cycle)
                self.attempted += unmade
                self.failed += unmade
                self.errors.append(f"online loop stopped after {cap_s:.0f} s; "
                                   f"{unmade} requests not made")
                break
            traced = self.trace and cycle % 2 == 1
            step = cycle // 2 if self.trace else cycle
            r = int(ue_order[step % len(ue_order)])
            n_b = cfg.n_b_sweep[step % len(cfg.n_b_sweep)]
            loc = self.X_test[r]
            k = min(n_b, cfg.num_pairs)
            s_w, s_f = harness.decoupled_split(n_b, min(cfg.s_w_size, num_w), num_f)
            with self.tracer if traced else nullcontext():
                request(
                    traced, 1,
                    lambda: selectors.select_coupled(m["theta1"], loc, k, num_f),
                    lambda sel: np.array_equal(sel.flat_indices, o["pairs"][r, :k]))
                request(
                    traced, 2,
                    lambda: selectors.select_decoupled_with_location(
                        m["theta2_f"], m["theta2_w"], loc, s_w, s_f),
                    lambda sel: (np.array_equal(sel.s_w, o["w"][r, :s_w])
                                 and np.array_equal(sel.s_f, o["f"][r, :s_f])))
                request(
                    traced, 3,
                    lambda: selectors.select_decoupled_no_location(
                        m["theta3_w"], loc, s_w, plan.prefix(s_f)),
                    lambda sel: (np.array_equal(sel.s_w, o["w"][r, :s_w])
                                 and np.array_equal(sel.s_f, plan.selected_beams[:s_f])))

        for scheme, values in latencies[False].items():
            ms = [1e3 * v for v in values]
            self.extra[f"select{scheme}_ms_p50"] = percentile(ms, 50)
            self.extra[f"select{scheme}_ms_p90"] = percentile(ms, 90)
            self.extra[f"select{scheme}_n"] = len(ms)
        return {traced: sum(sum(v) for v in latencies[traced].values())
                for traced in (False, True)}


WORKLOADS = {"corpus": CorpusRun, "train": TrainRun, "select": SelectRun, "online": OnlineRun}
