"""Span tracer for traced benchmark runs.

A traced run replaces beamtrain functions by recording wrappers at the
module or class attribute through which their callers look them up, so no
file of the program changes. Each call becomes one span (name, start, end,
parent index) kept in memory; the originals are restored when the traced
block ends. Self time is a span's duration minus the time its child spans
cover. `Tree.predict` is never wrapped: it runs millions of times per run.
"""

import time
from collections import defaultdict

import numpy as np

from beamtrain import boosting, channel, dataset, harness, metrics, selectors

ROLES = ("theta1", "theta2_f", "theta2_w")

# (module.function metric prefix) of every wrapped function, in pipeline order
TRACED_FUNCTIONS = (
    "scene.generate_snapshot", "scene.trace_paths",
    "channel.channel_for_ue", "channel.paths_to_channel",
    "linkeval.sweep_all",
    "dataset.build_rate_dataset", "dataset.to_throughput_ratios", "dataset.to_atr",
    "dataset.split_dataset",
    "boosting.predict_batch",
    "selectors.select_bs_coverage", "selectors.kmeans",
    "selectors.select_coupled", "selectors.select_decoupled_with_location",
    "selectors.select_decoupled_no_location",
    "metrics.avg_throughput_ratio", "metrics.misalignment_probability",
    "harness.build_corpus", "harness.train_models", "harness.evaluate", "harness.emit_outputs",
)

BENCH_METRICS = (
    ("bench.eval_s", "s"),
    *((f"bench.select{s}_ms_{q}", "ms") for s in (1, 2, 3) for q in ("p50", "p90")),
    *((f"bench.select{s}_n", "count") for s in (1, 2, 3)),
    ("bench.untraced_s", "s"),
    ("bench.wall_raw_s", "s"),
    ("bench.host_slowness", "ratio"),
    ("bench.traced_s", "s"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.setup_cold_s", "s"),
    ("bench.setup_warm_s", "s"),
)

# Every per-layer metric with its unit; a traced run reports all of them,
# with zero for layers its workload does not reach.
PER_LAYER = (
    *((f"{fn}.{kind}", unit) for fn in TRACED_FUNCTIONS
      for kind, unit in (("calls", "count"), ("self_s", "s"))),
    ("scene.paths.los", "count"), ("scene.paths.wall", "count"), ("scene.paths.bus", "count"),
    ("channel.dense_mb", "MB"),
    ("linkeval.sweep_all.us_per_call", "us"),
    ("linkeval.sweep_all.gflop", "GFLOP"),
    ("dataset.rows_kept", "count"), ("dataset.rows_dropped", "count"),
    ("dataset.kept_ratio", "ratio"),
    ("boosting.predict_batch.rows", "count"), ("boosting.predict_batch.tree_evals", "count"),
    *((name, unit) for role in ROLES for name, unit in (
        (f"boosting.kfold_tune.{role}.total_s", "s"),
        (f"boosting.train.{role}.calls", "count"),
        (f"boosting.train.{role}.self_s", "s"),
        (f"boosting.train.{role}.trees", "count"),
        (f"boosting.{role}.param_count", "count"),
        (f"boosting.{role}.tree_count", "count"),
        (f"boosting.{role}.max_depth", "count"),
    )),
    ("selectors.plan.cluster_min", "count"), ("selectors.plan.cluster_median", "count"),
    ("selectors.plan.cluster_max", "count"),
    *BENCH_METRICS,
)


class Tracer:
    """Records spans and counters while active (`with tracer:`)."""

    def __init__(self, config):
        self.spans = []                  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self._stack = []
        self._originals = []
        self._roles = {config.num_pairs: "theta1", config.num_beamformers: "theta2_f",
                       config.num_combiners: "theta2_w"}

    def role(self, Y) -> str:
        """Model role of a fit, from the output width of its targets."""
        Y = np.asarray(Y)
        width = Y.shape[1] if Y.ndim == 2 else 1
        return self._roles.get(width, f"d{width}")

    def __enter__(self):
        for owner, attr, name, after in _targets():
            self._wrap(owner, attr, name, after)
        return self

    def __exit__(self, *exc_info):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, owner, attr, name, after):
        original = vars(owner)[attr]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(self, args)
            index = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                after(self, args, result)
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def totals(self) -> dict:
        """{span name: (calls, inclusive seconds, self seconds)}."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered[index]
        return {name: tuple(v) for name, v in out.items()}

    def per_layer(self, passes: int, bench: dict) -> dict:
        """Every PER_LAYER metric, per traced pass, plus the `bench.*` values."""
        values = defaultdict(float)
        for name, (calls, total, own) in self.totals().items():
            values[name + ".calls"] = calls
            values[name + ".self_s"] = own
            values[name + ".total_s"] = total
        values.update(self.counts)
        values = {k: v / passes for k, v in values.items()}
        sweeps = values.get("linkeval.sweep_all.calls", 0.0)
        kept = values.get("dataset.rows_kept", 0.0)
        values["dataset.rows_dropped"] = sweeps - kept
        values["dataset.kept_ratio"] = kept / sweeps if sweeps else 0.0
        if sweeps:
            values["linkeval.sweep_all.us_per_call"] = (
                1e6 * values["linkeval.sweep_all.self_s"] / sweeps)
        values.update(bench)
        return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                for name, unit in PER_LAYER}


# ------------------------------------------------------------ counters

def _count_paths(tracer, args, paths):
    for path in paths:
        tracer.counts["scene.paths." + path.kind] += 1


def _count_channel(tracer, args, realization):
    tracer.counts["channel.dense_mb"] += realization.matrices.nbytes / 1e6


def _count_sweep(tracer, args, row):
    """Matmul flops of W^H H[k] F^T: 8 real flops per complex multiply-add."""
    realization, combiners, beamformers = args[:3]
    K, n_ue, n_bs = realization.matrices.shape
    n_w, n_f = len(combiners.beams), len(beamformers.beams)
    tracer.counts["linkeval.sweep_all.gflop"] += 8.0 * K * n_w * (n_ue * n_bs + n_bs * n_f) / 1e9


def _count_rows(tracer, args, rows):
    tracer.counts["dataset.rows_kept"] += len(rows)


def _count_tuned(tracer, args, chosen):
    role = tracer.role(args[1])
    tracer.counts[f"boosting.{role}.tree_count"] += chosen.tree_count
    tracer.counts[f"boosting.{role}.max_depth"] += chosen.max_depth


def _count_trees(tracer, args, model):
    tracer.counts[f"boosting.train.{tracer.role(args[1])}.trees"] += len(model.trees)


def _count_params(tracer, args, models):
    for role in ROLES:
        tracer.counts[f"boosting.{role}.param_count"] += boosting.param_count(models[role])


def _count_predictions(tracer, args, predictions):
    model, X = args[0], args[1]
    rows = np.asarray(X).shape[0]
    tracer.counts["boosting.predict_batch.rows"] += rows
    tracer.counts["boosting.predict_batch.tree_evals"] += rows * len(model.trees)


def _count_clusters(tracer, args, plan):
    sizes = np.bincount(plan.assignments)
    tracer.counts["selectors.plan.cluster_min"] += float(sizes.min())
    tracer.counts["selectors.plan.cluster_median"] += float(np.median(sizes))
    tracer.counts["selectors.plan.cluster_max"] += float(sizes.max())


def _targets():
    """(owner, attribute, span name, counter hook) for every wrapped call
    site. The owner is where the caller looks the function up: harness
    imports dataset and scene functions by name, dataset imports
    `channel_for_ue` and `sweep_all`, and channel imports `trace_paths`."""
    def kfold_name(tracer, args):
        return f"boosting.kfold_tune.{tracer.role(args[1])}"

    def train_name(tracer, args):
        return f"boosting.train.{tracer.role(args[1])}"

    return (
        (harness, "generate_snapshot", "scene.generate_snapshot", None),
        (channel, "trace_paths", "scene.trace_paths", _count_paths),
        (dataset, "channel_for_ue", "channel.channel_for_ue", None),
        (channel, "paths_to_channel", "channel.paths_to_channel", _count_channel),
        (dataset, "sweep_all", "linkeval.sweep_all", _count_sweep),
        (harness, "build_rate_dataset", "dataset.build_rate_dataset", _count_rows),
        (harness, "to_throughput_ratios", "dataset.to_throughput_ratios", None),
        (harness, "to_atr", "dataset.to_atr", None),
        (dataset, "split_dataset", "dataset.split_dataset", None),
        (boosting, "kfold_tune", kfold_name, _count_tuned),
        (boosting, "train", train_name, _count_trees),
        (boosting.TreeEnsembleModel, "predict_batch", "boosting.predict_batch",
         _count_predictions),
        (selectors, "select_bs_coverage", "selectors.select_bs_coverage", _count_clusters),
        (selectors, "kmeans", "selectors.kmeans", None),
        (selectors, "select_coupled", "selectors.select_coupled", None),
        (selectors, "select_decoupled_with_location",
         "selectors.select_decoupled_with_location", None),
        (selectors, "select_decoupled_no_location",
         "selectors.select_decoupled_no_location", None),
        (metrics, "avg_throughput_ratio", "metrics.avg_throughput_ratio", None),
        (metrics, "misalignment_probability", "metrics.misalignment_probability", None),
        (harness, "build_corpus", "harness.build_corpus", None),
        (harness, "train_models", "harness.train_models", _count_params),
        (harness, "evaluate", "harness.evaluate", None),
        (harness, "emit_outputs", "harness.emit_outputs", None),
    )
