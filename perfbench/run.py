"""Benchmark of the beamtrain pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

The program is imported from ./src; its inputs are generated from --seed.
BLAS and OpenMP are pinned to one thread and all load comes from this one
process. --trace 0 reports the end-to-end metrics of an untraced run;
--trace 1 reports per-layer metrics from spans around the calls into
beamtrain (see spans.py) plus the tracing overhead. A short report is
printed first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. A fuller record, with provenance,
sample counts and determinism digests, goes to perfbench/out/.
"""

import os
import sys

THREAD_PINS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                      "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_PINS)  # before numpy loads its BLAS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

# name, unit, better: every end-to-end metric, on every workload
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
)

NOTES = ("One process, one thread, no queues: no operation waits for another, "
         "so no wait-time metric applies.")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus", "train", "select", "online"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", default="bench", choices=("bench", "smoke", "full"),
                        help="input size: bench (about 640 UEs, some 50 snapshots), smoke, "
                             "or full (500 snapshots)")
    return parser.parse_args(argv)


def _git(*args):
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                              timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(np, seed, config, profile):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_pins": THREAD_PINS,
        "seed": seed,
        "profile": profile,
        "config_hash": config.config_hash(),
        "snapshot_count": config.snapshot_count,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "beamtrain", "__init__.py")):
        print(f"perfbench: no beamtrain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import beamtrain
    import numpy as np
    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(beamtrain.__file__)) != os.path.join(SRC, "beamtrain"):
        print(f"perfbench: beamtrain was imported from {beamtrain.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    # one CPU, so the scheduler never migrates the benchmark between cores
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    profile = workloads.PROFILES[args.profile]
    config = profile.config(args.seed)
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=OUT, prefix="tmp-")
    tracer = spans.Tracer(config) if args.trace else None
    run = workloads.WORKLOADS[args.workload](config, args.seed, profile, args.seconds,
                                             bool(args.trace), scratch, tracer)
    try:
        wall_s = run.execute()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    setup_s = statistics.median(run.setup_times)
    untraced_s = statistics.median(run.untraced)
    bench = {
        "bench.setup_cold_s": run.setup_times[0],
        "bench.setup_warm_s": statistics.median(run.setup_times[1:] or run.setup_times),
        "bench.untraced_s": untraced_s,
        "bench.wall_raw_s": statistics.median(run.raw["untraced"]),
        "bench.host_slowness": run.clock.raw_s / run.clock.calibrated_s,
        **{"bench." + k: v for k, v in run.extra.items()},
    }
    if args.trace:
        traced_s = statistics.median(run.traced)
        bench["bench.traced_s"] = traced_s
        bench["bench.trace_overhead_ratio"] = traced_s / untraced_s - 1.0
        metrics = tracer.per_layer(len(run.traced), bench)
    else:
        values = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
                  "ok_ratio": 1.0 - run.failed / run.attempted}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}

    stem = f"{args.workload}-{args.profile}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "wall_s": wall_s,
        "provenance": provenance(np, args.seed, config, args.profile),
        "import_s": import_s,
        "setup_times_s": run.setup_times,
        "untraced_pass_s": run.untraced, "traced_pass_s": run.traced,
        "raw_s": run.raw,
        "bench": bench,
        "digests": run.digests,
        "errors": run.errors,
        "notes": NOTES,
        "result": {"correct": run.failed == 0, "attempted": run.attempted,
                   "failed": run.failed, "metrics": metrics},
    }
    if args.trace:
        record["spans_file"] = stem + "-spans.json"
        with open(os.path.join(OUT, record["spans_file"]), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    with open(os.path.join(OUT, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=2)

    print(f"workload {args.workload}  seed {args.seed}  profile {args.profile}  "
          f"trace {args.trace}  snapshots {config.snapshot_count}")
    print(f"setup {setup_s:.3f} s (cold {run.setup_times[0]:.3f} s)  timed {wall_s:.3f} s  "
          f"ops {run.attempted} failed {run.failed}  peak RSS {peak_rss_mb:.1f} MB")
    for key, value in sorted(bench.items()):
        print(f"  {key} = {value:.6g}")
    for key, value in sorted(run.digests.items()):
        print(f"  digest {key} {value}")
    for error in run.errors[:3]:
        print("  error: " + error.strip().replace("\n", "\n    "))
    print(NOTES)
    print(f"record: perfbench/out/{stem}.json")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
