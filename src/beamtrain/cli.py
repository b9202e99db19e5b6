"""Command-line entry points for the beam-training simulator."""

import argparse
import dataclasses
import logging
import os
import sys
import tempfile

import numpy as np

from . import boosting, dataset, harness, selectors
from .channel import (ChannelRealization, default_bs_geometry, default_ue_geometry,
                      dense_channel, path_responses, save_channels)
from .scene import generate_snapshot, trace_snapshot


def _load_config(args) -> harness.ExperimentConfig:
    if getattr(args, "smoke", False):
        config = harness.ExperimentConfig.smoke()
    elif args.config:
        config = harness.ExperimentConfig.from_file(args.config)
    else:
        config = harness.ExperimentConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    return config


def _output_dir(path: str) -> None:
    """Create the output directory and check that a file can be written in
    it, so that a bad --out fails before any stage runs."""
    os.makedirs(path, exist_ok=True)
    with tempfile.TemporaryFile(dir=path):
        pass


def cmd_scene_gen(args) -> int:
    config = _load_config(args)
    bs_geom = default_bs_geometry(config.scene, *config.bs_array)
    ue_geom = default_ue_geometry(config.scene, *config.ue_array)
    channels, counts = [], []
    for i in range(config.snapshot_count):
        snap = generate_snapshot(config.scene, harness.derive_seed(config.master_seed, i),
                                 snapshot_id=i)
        table = trace_snapshot(snap, config.scene)
        a_ue, a_bs, phases = path_responses(table, bs_geom, ue_geom, config.scene)
        for ue, rows in zip(snap.ue_indices, table.ue_rows(snap.ue_indices)):
            H = dense_channel(table.gain[rows], a_ue[rows], a_bs[rows], phases[:, rows])
            channels.append(ChannelRealization(ue_location=snap.ue_location(ue), matrices=H,
                                               snapshot_id=snap.snapshot_id, ue_index=ue))
            counts.append(rows.stop - rows.start)
    os.makedirs(args.out, exist_ok=True)
    save_channels(channels, os.path.join(args.out, "channels.npz"),
                  index_csv=os.path.join(args.out, "channels_index.csv"), path_counts=counts)
    print(f"wrote {len(channels)} channels to {args.out}")
    return 0


def cmd_dataset_build(args) -> int:
    config = _load_config(args)
    _, rate_rows, _, _ = harness.build_corpus(config)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "rates." + ("csv" if args.format == "csv" else "npz"))
    dataset.save_dataset(rate_rows, path, fmt=args.format,
                         num_combiners=config.num_combiners,
                         num_beamformers=config.num_beamformers)
    print(f"wrote {len(rate_rows)} rows to {path}")
    return 0


def cmd_dataset_transform(args) -> int:
    rows = dataset.load_dataset(args.input, fmt="binary")
    tr_rows = dataset.to_throughput_ratios(rows)
    dataset.save_dataset(tr_rows, args.out, fmt="binary",
                         num_combiners=args.num_combiners, num_beamformers=args.num_beamformers)
    print(f"wrote {len(tr_rows)} throughput-ratio rows to {args.out}")
    return 0


def cmd_model_train(args) -> int:
    config = _load_config(args)
    _, _, tr_rows, atr_rows = harness.build_corpus(config)
    split = harness.split_corpus(config, len(tr_rows))
    model = harness.train_role(config, args.role, tr_rows, atr_rows, split)
    boosting.save_model(model, args.out)
    print(f"wrote {args.role} model ({boosting.param_count(model)} parameters)")
    return 0


def cmd_model_inspect(args) -> int:
    model = boosting.load_model(args.model)
    print(f"role: {model.role}")
    print(f"outputs: {model.output_dimension}")
    print(f"trees: {len(model.trees)}")
    print(f"param_count: {boosting.param_count(model)}")
    hist = model.depth_histogram()
    for depth in sorted(hist):
        print(f"depth {depth}: {hist[depth]} trees")
    return 0


def cmd_plan_build(args) -> int:
    config = _load_config(args)
    _, _, tr_rows, atr_rows = harness.build_corpus(config)
    split = harness.split_corpus(config, len(tr_rows))
    plan = harness.build_coverage_plan(config, np.array([r.location for r in tr_rows]),
                                       np.array([r.atr_f for r in atr_rows]), split)
    selectors.save_plan(plan, args.out, csv_path=args.out + ".csv")
    print(f"wrote coverage plan with {len(plan.selected_beams)} beams to {args.out}")
    return 0


def cmd_eval_run(args) -> int:
    config = _load_config(args)
    _output_dir(args.out)
    result = harness.run_experiment(config)
    harness.emit_outputs(result, args.out)
    print(f"evaluated {result.n_test} test UEs; outputs in {args.out}")
    return 0


def cmd_eval_heatmap(args) -> int:
    config = _load_config(args)
    _output_dir(args.out)
    result = harness.run_experiment(config)
    harness.emit_outputs(result, args.out)
    for row in result.heatmap:
        print(f"scenario {row['scenario']}  |S_w|={row['s_w']:2d}  |S_f|={row['s_f']:2d}"
              f"  R_T={row['r_t']:.4f}")
    return 0


def _add_common(p, out_default=None):
    p.add_argument("--config", help="experiment config file (.json or .toml)")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--smoke", action="store_true", help="use the small CI profile")
    if out_default is not None:
        p.add_argument("--out", default=out_default, help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="beamtrain",
                                     description="mmWave V2I beam-training simulator")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    scene = sub.add_parser("scene", help="scene and channel generation").add_subparsers(
        dest="subcommand", required=True)
    p = scene.add_parser("gen", help="generate snapshots and channels")
    _add_common(p, "scene_out")
    p.set_defaults(func=cmd_scene_gen)

    ds = sub.add_parser("dataset", help="dataset building").add_subparsers(
        dest="subcommand", required=True)
    p = ds.add_parser("build", help="build the per-pair rate dataset")
    _add_common(p, "dataset_out")
    p.add_argument("--format", choices=["binary", "csv"], default="binary")
    p.set_defaults(func=cmd_dataset_build)
    p = ds.add_parser("transform", help="rates -> throughput ratios")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--num-combiners", type=int, default=16)
    p.add_argument("--num-beamformers", type=int, default=64)
    p.set_defaults(func=cmd_dataset_transform)

    model = sub.add_parser("model", help="regression models").add_subparsers(
        dest="subcommand", required=True)
    p = model.add_parser("train", help="train one model role")
    _add_common(p, "model.npz")
    p.add_argument("--role", default="theta1",
                   choices=["theta1", "theta2_f", "theta2_w", "theta3_w"])
    p.set_defaults(func=cmd_model_train)
    p = model.add_parser("inspect", help="print model statistics")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_model_inspect)

    plan = sub.add_parser("plan", help="BS coverage plans").add_subparsers(
        dest="subcommand", required=True)
    p = plan.add_parser("build", help="build the cluster coverage plan")
    _add_common(p, "plan.npz")
    p.set_defaults(func=cmd_plan_build)

    ev = sub.add_parser("eval", help="experiments and metrics").add_subparsers(
        dest="subcommand", required=True)
    p = ev.add_parser("run", help="run the full experiment pipeline")
    _add_common(p, "out")
    p.set_defaults(func=cmd_eval_run)
    p = ev.add_parser("heatmap", help="run and print the (|S_w|, |S_f|) heatmap")
    _add_common(p, "out")
    p.set_defaults(func=cmd_eval_heatmap)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
