"""Self-test of the benchmark at ExperimentConfig.smoke() size.

    python3 perfbench/selftest.py

Checks that:
- BENCHMARK.json names exactly the metrics run.py and spans.py emit;
- every workload, untraced and traced, exits 0, emits every named metric
  with its unit, and reports no failed operation on the current code;
- the select workload writes curves.csv, heatmap.csv and run_manifest.json
  byte-identical to `run_experiment` + `emit_outputs` for the same config;
- run.py exits non-zero without a result line in a directory holding only
  BENCHMARK.json and perfbench/.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SEED = 1


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
                           "--trace", str(trace), "--profile", "smoke"],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import run
    import spans
    from beamtrain import harness

    failures = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    if expected[0] != {name: unit for name, unit, _ in run.END_TO_END}:
        failures.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if expected[1] != dict(spans.PER_LAYER):
        failures.append("BENCHMARK.json per_layer differs from spans.PER_LAYER")

    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            done = run_bench(workload, trace)
            label = f"{workload} trace {trace}"
            if done.returncode != 0:
                failures.append(f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                failures.append(f"{label}: metrics or units differ; missing {missing[:5]}")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                failures.append(f"{label}: fail_ratio {result['failed']}/{result['attempted']}")
            print(f"{label}: {result['attempted']} ops, {result['failed']} failed, "
                  f"{len(got)} metrics", flush=True)

    record_path = os.path.join(OUT, f"select-smoke-seed{SEED}-trace0.json")
    with open(record_path) as fh:
        digests = json.load(fh)["digests"]
    reference = tempfile.mkdtemp(dir=OUT)
    try:
        harness.emit_outputs(harness.run_experiment(harness.ExperimentConfig.smoke(SEED)),
                             reference)
        for name in ("curves.csv", "heatmap.csv", "run_manifest.json"):
            with open(os.path.join(reference, name), "rb") as fh:
                if hashlib.sha256(fh.read()).hexdigest() != digests.get(name):
                    failures.append(f"select {name} differs from run_experiment's")
    finally:
        shutil.rmtree(reference, ignore_errors=True)

    bare = tempfile.mkdtemp(dir=OUT, prefix="bare-")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = run_bench("corpus", 0, cwd=bare)
        if done.returncode == 0 or done.stdout.strip().endswith("}"):
            failures.append("run.py succeeded in a directory without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print("FAIL: " + failure)
    print("selftest: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
