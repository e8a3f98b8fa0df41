#!/usr/bin/env bash
# Re-record bench/baselines/*.json from the current build.
#
#   scripts/refresh_baselines.sh                 # build, run, copy, verify
#   BUILD_DIR=out scripts/refresh_baselines.sh   # use a different build tree
#
# Run this whenever a change intentionally shifts the EXACT or COUNT metric
# classes the perf-gate CI job enforces — new kernels, changed per-kernel
# FLOP/byte closed forms, or a change in how many tensor bytes the ops
# allocate (which moves the churn/mem totals). The perf gate compares at
# TYXE_NUM_THREADS=1, so baselines are recorded at one pool thread too
# (par.* chunk/job counters depend on the thread count).
#
# After copying, each fresh baseline is re-diffed against the run that
# produced it (must be self-identical) with --allow-new-keys, which also
# prints the full metric list for eyeballing before you commit.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
BUILD_DIR="${BUILD_DIR:-build}"
export TYXE_NUM_THREADS=1

if [[ ! -f "${BUILD_DIR}/CMakeCache.txt" ]]; then
  cmake -B "${BUILD_DIR}" -S .
fi
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target fig1_regression
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target par_scaling
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target microbench

# Each bench writes BENCH_<name>.json into its cwd; isolate them so a stale
# snapshot from an earlier manual run can't be copied by mistake.
RUN_DIR="${BUILD_DIR}/baseline-run"
rm -rf "${RUN_DIR}"
mkdir -p "${RUN_DIR}"
(cd "${RUN_DIR}" && "../bench/fig1_regression" --prof)
(cd "${RUN_DIR}" && "../bench/par_scaling" --prof)
# Older google-benchmark rejects the duration-suffixed form of
# --benchmark_min_time; newer releases deprecate the bare-number form but
# still accept it. Try suffixed first, fall back.
(cd "${RUN_DIR}" && "../bench/microbench" --prof --benchmark_min_time=0.05s) ||
  (cd "${RUN_DIR}" && "../bench/microbench" --prof --benchmark_min_time=0.05)

python3 scripts/validate_bench.py --prof \
  "${RUN_DIR}/BENCH_fig1_regression.json" \
  "${RUN_DIR}/BENCH_par_scaling.json" \
  "${RUN_DIR}/BENCH_microbench.json"

for name in fig1_regression par_scaling microbench; do
  cp "${RUN_DIR}/BENCH_${name}.json" "bench/baselines/BENCH_${name}.json"
  python3 scripts/bench_diff.py --quiet --allow-new-keys \
    "bench/baselines/BENCH_${name}.json" "${RUN_DIR}/BENCH_${name}.json"
done

echo "refresh_baselines: bench/baselines/ updated; review with git diff" \
     "and commit together with the change that moved the metrics."
