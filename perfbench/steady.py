#!/usr/bin/env python3
"""Steadiness tool: run the benchmark repeatedly and report the spread.

    python3 perfbench/steady.py --seeds 1,2,3,4,5,6,7,8,9,10 [--workloads a,b]
                                [--repeat 1] [--trace-check]

Runs every workload once per seed (times --repeat), alternating the order of
the workloads from one pass to the next, so slow drift of the machine is
shared out between them. For every end-to-end metric it prints the median,
the quartiles (statistics.quantiles(values, n=4)), the spread -- the
distance between the quartiles as a share of the median -- and that spread
set against the metric's bound in BENCHMARK.json. A spread above a third of
the bound is flagged: the bound must leave room for the run-to-run noise.

It also checks the determinism contract: every run of one (workload, seed)
must print the same output digest, and with --trace-check the traced run of
the first seed must print the digest of the untraced runs. The share of
failed operations must be the same in every run of a workload.

Exits 1 when a run fails, a check fails or a digest differs.
"""
import argparse
from fractions import Fraction
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}")
    result = json.loads(lines[-1])
    digest = next((l.split()[1] for l in lines if l.startswith("digest ")), None)
    return result, digest


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace-check", action="store_true")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {} for w in workloads}
    digests = {}
    fail_share = {w: set() for w in workloads}
    ok = True
    passes = [s for _ in range(args.repeat) for s in seeds]
    for i, seed in enumerate(passes):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            result, digest = run_once(w, seed, args.seconds, 0)
            if not result["correct"]:
                print(f"{w} seed {seed}: correct=false")
                ok = False
            fail_share[w].add(Fraction(result["failed"], result["attempted"]))
            digests.setdefault((w, seed), set()).add(digest)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"  run {i + 1}/{len(passes)} {w} seed {seed}: " +
                  " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
                  flush=True)

    if args.trace_check:
        for w in workloads:
            result, digest = run_once(w, seeds[0], args.seconds, 1)
            same = digest in digests[(w, seeds[0])]
            print(f"  trace {w} seed {seeds[0]}: correct={result['correct']} "
                  f"digest {'matches' if same else 'DIFFERS'}")
            ok = ok and same and result["correct"]

    print(f"\n{'workload':<16}{'metric':<24}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}{'spr/bnd':>9}")
    for w in workloads:
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            ratio = spread / bound if bound else float("nan")
            flag = "  > bound/3" if bound and ratio > 1 / 3 and name != "setup_s" else ""
            print(f"{w:<16}{name:<24}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}"
                  f"{spread:>9.3f}{bound or 0:>7.2f}{ratio:>9.2f}{flag}")
    for (w, seed), ds in sorted(digests.items()):
        if len(ds) != 1:
            print(f"digest differs for {w} seed {seed}: {sorted(ds)}")
            ok = False
    for w, shares in fail_share.items():
        if len(shares) != 1:
            print(f"failed share differs between runs of {w}: {shares}")
            ok = False
    print("steady: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
