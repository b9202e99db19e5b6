"""Reconcile the workloads with a full 500-snapshot run.

    python3 perfbench/reconcile.py [--seed 1]

Runs the corpus, train and select workloads once at the paper's size
(profile `full`), untraced and traced, and writes perfbench/RECONCILE.md:
each workload's timed seconds, raw and calibrated, next to the stage times
of the reference full run, the largest traced self times per workload, and
the tracing overhead. The online workload is not a stage of the full run.
Takes about ten minutes on a 2-vCPU machine.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Stage times of one full run (master_seed=1, 500 snapshots, 2 vCPUs,
# Python 3.11.7, numpy 2.4.6), timed with a wall clock around each stage.
REFERENCE = (
    ("corpus", "build rate dataset", 30.4),
    ("train", "tune + train", 17.2),
    ("select", "plan + evaluate", 0.8 + 3.6),
)
REFERENCE_TOTAL = 52.5


def run(workload, seed, trace):
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
                           "--profile", "full"],
                          cwd=ROOT, capture_output=True, text=True, timeout=1800)
    if done.returncode != 0:
        sys.exit(f"{workload} trace {trace} exited {done.returncode}:\n{done.stderr}")
    with open(os.path.join(HERE, "out", f"{workload}-full-seed{seed}-trace{trace}.json")) as fh:
        return json.load(fh)


def render(records, seed) -> str:
    prov = records[("corpus", 0)]["provenance"]
    lines = [
        "# Reconciliation with a full run",
        "",
        f"Generated by `python3 perfbench/reconcile.py --seed {seed}`: profile `full` "
        f"(default `ExperimentConfig`, {prov['snapshot_count']} snapshots), seed {seed}, "
        f"git {prov['git_sha']} (dirty: {prov['git_dirty']}), Python {prov['python']}, "
        f"numpy {prov['numpy']}, {prov['blas']}, {prov['nproc']} vCPUs "
        f"({prov['cpu_model']}), BLAS/OpenMP pinned to 1 thread.",
        "",
        "| workload | raw (s) | calibrated (s) | reference stage | reference (s) |",
        "|---|---:|---:|---|---:|",
    ]
    raw_total = total = 0.0
    for workload, stage, ref in REFERENCE:
        record = records[(workload, 0)]
        raw = record["bench"]["bench.wall_raw_s"]
        raw_total += raw
        total += record["wall_s"]
        lines.append(f"| {workload} | {raw:.2f} | {record['wall_s']:.2f} | {stage} | {ref:.2f} |")
    lines += [f"| sum | {raw_total:.2f} | {total:.2f} | full run | {REFERENCE_TOTAL:.2f} |",
              "", "Calibrated seconds are raw seconds divided by the host's slowness during",
              "the pass (see perfbench/README.md); the reference is raw.", ""]
    cold = records[("corpus", 0)]["raw_s"]["setup"][0]
    lines += ["The reference stages leave out snapshots (0.16 s, inside `corpus` here) and the",
              "small glue between stages; `select` also times `emit_outputs`. The reference",
              "timed the process's first, cold pass without CPU pinning; here `corpus` times",
              f"a pass after the warm-up set-up, whose cold pass took {cold:.2f} s raw.", ""]

    lines += ["## Tracing overhead", "",
              "| workload | untraced (s) | traced (s) | overhead |", "|---|---:|---:|---:|"]
    for workload, _, _ in REFERENCE:
        bench = records[(workload, 1)]["bench"]
        lines.append(f"| {workload} | {bench['bench.untraced_s']:.2f} | "
                     f"{bench['bench.traced_s']:.2f} | "
                     f"{100 * bench['bench.trace_overhead_ratio']:+.1f}% |")
    lines += ["", "Each overhead compares one untraced with one traced pass, both in",
              "calibrated seconds, so it cannot resolve an overhead smaller than the noise",
              "left between two passes; a negative value is that noise.", ""]

    lines += ["## Traced self time per workload", ""]
    for workload, _, _ in REFERENCE:
        metrics = records[(workload, 1)]["result"]["metrics"]
        selfs = sorted(((v["value"], k[:-len(".self_s")]) for k, v in metrics.items()
                        if k.endswith(".self_s") and v["value"] > 0.005), reverse=True)
        lines += [f"### {workload}", "", "| function | calls | self (s) |", "|---|---:|---:|"]
        for seconds, name in selfs:
            calls = metrics.get(name + ".calls", {}).get("value", 0)
            lines.append(f"| {name} | {calls:.0f} | {seconds:.2f} |")
        lines.append("")

    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    records = {(w, t): run(w, args.seed, t) for w, _, _ in REFERENCE for t in (0, 1)}
    text = render(records, args.seed)
    with open(os.path.join(HERE, "RECONCILE.md"), "w") as fh:
        fh.write(text)
    print(text)


if __name__ == "__main__":
    main()
