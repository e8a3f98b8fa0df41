#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
library and the measuring program into .bench_build/ (about a minute on 4
cores); later runs only re-check that build.

Untraced (--trace 0), the run starts one process per round, each a fresh
start of the workflow, for --seconds: a round starts only if it should end
in time. The first round also runs every correctness check and its
self-test; every later round must reproduce the first one's output digest.
The end-to-end metrics are medians over all rounds' samples.

Traced (--trace 1), it runs three rounds -- tx::obs on (with the checks),
tx::obs off, and kernel profiling followed by the layer probes -- checks
that all three give the same digest, and prints the per-layer metrics.

The last line of standard output is the JSON result. Checkpoints go to
.bench_build/run/ and are removed again.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("regression_vi", "regression_hmc", "resnet_vi")
TALLIES = ("fit_steps", "predict_calls", "checkpoint_writes", "checks")
def build_dir():
    # Benchmark harnesses that build many languages name one build directory
    # for all of them in CARGO_TARGET_DIR; honour it when set.
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found beside perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    cmake_dir = os.path.join(out, "cmake")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return os.path.join(cmake_dir, "perfbench")


def one_round(binary, args, workdir, mode):
    """Runs one round in its own process; returns its record."""
    proc = subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed), "--mode", mode,
                           "--workdir", workdir],
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {mode} round failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def check(name, ok, detail):
    print(f"check {name:<34} {'ok  ' if ok else 'FAIL'}  {detail}")
    return ok


def finish(records, extra_checks, values, kind):
    """Prints accounting, digest and the result line, with the metrics of
    BENCHMARK.json's `kind` list ("end_to_end" or "per_layer") in its order
    and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)[kind]
    tally = {k: [sum(r["tally"][k][i] for r in records) for i in (0, 1)]
             for k in TALLIES}
    tally["checks"][0] += len(extra_checks)
    tally["checks"][1] += sum(1 for ok in extra_checks if not ok)
    print("accounting " + " ".join(f"{k}={a}/{f}" for k, (a, f) in tally.items())
          + " (attempted/failed)")
    print(f"digest {records[0]['digest']} rounds={len(records)}")
    failed = sum(f for _, f in tally.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(a for a, _ in tally.values()),
                      "failed": failed,
                      "metrics": {m["name"]: {"value": values[m["name"]],
                                              "unit": m["unit"]}
                                  for m in declared}}))


def untraced(binary, args, workdir):
    records = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        records.append(one_round(binary, args, workdir,
                                 "check" if not records else "round"))
        last = time.monotonic() - t0
        r = records[-1]
        print(f"round {len(records)}: {last:.2f} s; median set-up "
              f"{statistics.median(r['setup_s']):.6f} s, fit block "
              f"{statistics.median(r['fit_blocks']):.4f} s, predict call "
              f"{statistics.median(r['call_s']):.4f} s", file=sys.stderr)
        if time.monotonic() - start + last > args.seconds:
            break
    extra = [check(f"round_{i + 1}_same_outputs",
                   r["digest"] == records[0]["digest"], r["digest"])
             for i, r in enumerate(records[1:], start=1)]

    def pooled(key):
        return statistics.median(v for r in records for v in r[key])

    first = records[0]
    finish(records, extra, {
        "setup_s": pooled("setup_s"),
        "fit_steps_per_s": first["block_steps"] / pooled("fit_blocks"),
        "predict_samples_per_s": first["call_samples"] / pooled("call_s"),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in records),
    }, "end_to_end")


def traced(binary, args, workdir):
    on, off, prof = (one_round(binary, args, workdir, mode)
                     for mode in ("obs_on", "obs_off", "profiled"))
    extra = [check(f"trace.{name}_same_outputs", r["digest"] == on["digest"],
                   f"{r['digest']} vs {on['digest']}")
             for name, r in (("obs_off", off), ("profiled", prof))]
    layers = {**on["layers"], **prof["layers"]}
    layers["obs.overhead_s_per_step"] = on["step_s"] - off["step_s"]
    layers["infer.step_overhead_s"] = (on["step_s"]
                                       - layers["evals.grad"] * layers["infer.grad_s"]
                                       - layers["evals.value"] * layers["infer.value_s"])
    print(f"trace median step: {on['step_s']:.6f} s obs on, {off['step_s']:.6f} s "
          f"obs off, {prof['step_s']:.6f} s profiled")
    finish([on, off, prof], extra, layers, "per_layer")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    workdir = os.path.join(out, "run")
    os.makedirs(workdir, exist_ok=True)
    (traced if args.trace else untraced)(binary, args, workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
