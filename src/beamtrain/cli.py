"""Command-line entry points for the beam-training simulator."""

import argparse
import dataclasses
import logging
import os
import sys
import tempfile

import numpy as np

from . import boosting, dataset, harness, selectors
from .fileio import atomic_write, save_npz
from .scene import trace_snapshot

PATHS_FORMAT_VERSION = 2
# the path file's keys (`fileio.load_npz`): `scene.PathTable`'s of N paths
PATHS_SCHEMA = {"snapshot_id": "i N", "ue": "i N", "kind": "i N", "gain": "c N", "delay": "f N",
                "departure": "f N 3", "arrival": "f N 3"}


def _load_config(args) -> harness.ExperimentConfig:
    if args.smoke:
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
    it, so that a bad --out fails before any stage runs. A command that
    writes one file checks the file's directory."""
    path = path or "."
    os.makedirs(path, exist_ok=True)
    with tempfile.TemporaryFile(dir=path):
        pass


def cmd_scene_gen(args) -> int:
    """Trace every snapshot into its path table and write the tables,
    concatenated with a `snapshot_id` column, plus an index of every UE.
    A UE's rows of the file give its dense channel through
    `channel.path_responses` and `channel.dense_channel`, bit for bit that
    of its traced paths."""
    config = _load_config(args)
    _output_dir(args.out)
    tables, index = [], []
    for snap in harness.generate_snapshots(config):
        table = trace_snapshot(snap, config.scene)
        tables.append({"snapshot_id": np.full(len(table.ue), snap.snapshot_id),
                       **vars(table)})
        index += [(snap.snapshot_id, ue, *snap.ue_location(ue), rows.stop - rows.start)
                  for ue, rows in zip(snap.ue_indices, table.ue_rows(snap.ue_indices))]
    save_npz(os.path.join(args.out, "paths.npz"),
             {key: np.concatenate([t[key] for t in tables]) for key in tables[0]},
             PATHS_FORMAT_VERSION)
    with atomic_write(os.path.join(args.out, "paths_index.csv")) as fh:
        fh.write("snapshot_id,ue_index,x,y,path_count\n")
        fh.writelines("%d,%d,%.9g,%.9g,%d\n" % row for row in index)
    print(f"wrote {sum(len(t['ue']) for t in tables)} paths of {len(index)} UEs to {args.out}")
    return 0


def cmd_dataset_build(args) -> int:
    config = _load_config(args)
    _output_dir(args.out)
    _, rate_rows = harness.build_rate_rows(config)
    path = os.path.join(args.out, "rates.npz")
    dataset.save_dataset(rate_rows, path, (config.num_combiners, config.num_beamformers),
                         config.corpus_keys())
    print(f"wrote {len(rate_rows)} rows to {path}")
    return 0


def _tr_corpus(args):
    """The config, and the TR rows, ATR rows and split of the `--input`
    rate file, which `dataset.load_dataset` checks against the config's
    (|W|, |F|) pair shape and corpus keys. Checks the `--out` directory
    first, and the file before any stage runs."""
    config = _load_config(args)
    _output_dir(os.path.dirname(args.out))
    tr_rows, atr_rows = harness.transform_corpus(config, *dataset.load_dataset(
        args.input, (config.num_combiners, config.num_beamformers), config.corpus_keys()))
    return config, tr_rows, atr_rows, harness.split_corpus(config, len(tr_rows))


def cmd_model_train(args) -> int:
    config, tr_rows, atr_rows, split = _tr_corpus(args)
    model = harness.train_role(config, args.role, tr_rows, atr_rows, split)
    boosting.save_model(model, args.out)
    print(f"wrote {args.role} model ({boosting.param_count(model)} parameters)")
    return 0


def cmd_model_inspect(args) -> int:
    model = boosting.load_model(args.model)
    try:
        tables = model.tables_for(2)    # the models predict from a location's (x, y)
    except ValueError as exc:
        raise ValueError(f"model file {args.model!r}: {exc}") from None
    print(f"role: {model.role}")
    print(f"outputs: {model.output_dimension}")
    print(f"trees: {len(model.layout['tree_sizes'])}")
    print(f"param_count: {boosting.param_count(model)}")
    print(f"step_tables: {tables.cells} cells, {tables.nbytes / 2**20:.3f} MB")
    print("cuts: " + (", ".join(f"{len(cuts)} on feature {f}"
                                for f, cuts in zip(tables.features, tables.cuts)) or "none"))
    hist = model.depth_histogram()
    for depth in sorted(hist):
        print(f"depth {depth}: {hist[depth]} trees")
    return 0


def cmd_plan_build(args) -> int:
    config, tr_rows, atr_rows, split = _tr_corpus(args)
    plan = harness.build_coverage_plan(config, tr_rows.location, atr_rows.atr_f, split)
    selectors.save_plan(plan, args.out)
    print(f"wrote coverage plan with {len(plan.selected_beams)} beams to {args.out}")
    return 0


def cmd_eval(args) -> int:
    """`eval run` and `eval heatmap`: the same run and outputs; `heatmap`
    prints the heatmap rows where `run` prints a summary line."""
    config = _load_config(args)
    _output_dir(args.out)
    result = harness.run_experiment(config)
    harness.emit_outputs(result, args.out)
    if args.subcommand == "run":
        print(f"evaluated {result.n_test} test UEs; outputs in {args.out}")
        return 0
    for row in result.heatmap:
        print(f"scenario {row['scenario']}  |S_w|={row['s_w']:2d}  |S_f|={row['s_f']:2d}"
              f"  R_T={row['r_t']:.4f}")
    return 0


def _add_common(p, out_default):
    profile = p.add_mutually_exclusive_group()
    profile.add_argument("--config", help="experiment config file (.json or .toml)")
    profile.add_argument("--smoke", action="store_true", help="use the small CI profile")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--out", default=out_default, help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="beamtrain",
                                     description="mmWave V2I beam-training simulator")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    scene = sub.add_parser("scene", help="scene generation and path tracing").add_subparsers(
        dest="subcommand", required=True)
    p = scene.add_parser("gen", help="generate snapshots and trace their paths")
    _add_common(p, "scene_out")
    p.set_defaults(func=cmd_scene_gen)

    ds = sub.add_parser("dataset", help="dataset building").add_subparsers(
        dest="subcommand", required=True)
    p = ds.add_parser("build", help="build the per-pair rate dataset")
    _add_common(p, "dataset_out")
    p.set_defaults(func=cmd_dataset_build)

    model = sub.add_parser("model", help="regression models").add_subparsers(
        dest="subcommand", required=True)
    p = model.add_parser("train", help="train one model role")
    _add_common(p, "model.npz")
    p.add_argument("--input", required=True, help="rate file from `dataset build`")
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
    p.add_argument("--input", required=True, help="rate file from `dataset build`")
    p.set_defaults(func=cmd_plan_build)

    ev = sub.add_parser("eval", help="experiments and metrics").add_subparsers(
        dest="subcommand", required=True)
    p = ev.add_parser("run", help="run the full experiment pipeline")
    _add_common(p, "out")
    p.set_defaults(func=cmd_eval)
    p = ev.add_parser("heatmap", help="run and print the (|S_w|, |S_f|) heatmap")
    _add_common(p, "out")
    p.set_defaults(func=cmd_eval)
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
