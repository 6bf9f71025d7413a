#!/usr/bin/env bash
# Performance smoke gate for the word-parallel match path: builds the
# micro_match_path benchmark and compares its fast-path ns/lookup
# against the checked-in baseline.  Any variant more than MAX_REGRESSION
# times slower than the baseline fails the script, as does losing the
# 5x speedup target on the 144-bit ternary workload.
#
# The kernel sweep section additionally compares each kernel's per-key
# ns/key against the SIMD baseline and checks every kernel's result
# stream against the scalar kernel's.
#
# The bulk-ingest section runs ext_bulk_ingest, which self-gates on
# the modeled row-op reduction (>= 4x on bursty traffic), on search
# behind prefetchHome() hints (the engine's prefetch pipeline) running
# no slower than 1.25x the serial loop on uniform traffic, and on
# bit-identity of the pipelined results; its row-op reduction is also
# compared against the checked-in baseline.  The pipeline's speedups
# print as info lines; the bulk-load wall speedup gate is opt-in via
# CARAM_BENCH_WALL=1 because the CI host's LLC swallows the working set.
#
# The row fan-out section runs ext_row_fanout, which self-gates on the
# modeled-cycle reduction of intra-lookup shard fan-out (>= 2x at 32
# and 64 candidate homes) and on bit-identity of fan-out responses
# against Database::search; its 64-home reduction is also compared
# against the checked-in baseline.
#
# The result-cache section runs ext_parallel_engine, which self-gates
# on the engine's modeled speedup target and on the hot-key result
# cache: >= 60% hit rate and >= 1.5x modeled uplift at Zipf s=0.99,
# bit-identical cached result streams, mixed 90/10 churn with the cache
# on keeping its search share within 10% of the read-only throughput,
# and >= 50% hit rate at Zipf s=0.99 under 90/10 cold-row churn
# (row-granular invalidation; whole-port generations scored ~0%).  Its
# s=0.99 hit rate, uplift and churn hit rate are also compared against
# the checked-in baseline (within 10%).
#
# The pre-filter section runs ext_prefilter, which self-gates on the
# per-row counting pre-filter: >= 2x modeled-cycle reduction on
# 90%-miss and 99%-miss binary uniform traffic, bit-identical filtered
# result streams on every hit-rate/distribution/kernel cell, and <= 5%
# modeled overhead on 100%-hit traffic; its 90%-miss reduction is also
# compared against the checked-in baseline.
#
# Every bench emits standardized "PASS: " / "FAIL: " gate lines
# (bench/bench_common.h); this script scrapes them into a per-metric
# summary table at the end, so a red run names the offending metric
# and its measured-vs-target delta without digging through the logs.
#
# The baselines were measured on the CI host; re-capture them after an
# intentional perf change with:
#   build/bench/micro_match_path 100000 \
#       --json bench/baselines/BENCH_match_path.baseline.json \
#       --simd-json bench/baselines/BENCH_simd_batch.baseline.json
#   build/bench/ext_bulk_ingest \
#       --json bench/baselines/BENCH_bulk_ingest.baseline.json
#   build/bench/ext_row_fanout 2000 \
#       --json bench/baselines/BENCH_row_fanout.baseline.json
#   build/bench/ext_parallel_engine 10000 \
#       --json bench/baselines/BENCH_result_cache.baseline.json
#   build/bench/ext_prefilter \
#       --json bench/baselines/BENCH_prefilter.baseline.json
#
# Usage: scripts/ci_bench_smoke.sh [build-dir]   (default build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
BASELINE="bench/baselines/BENCH_match_path.baseline.json"
SIMD_BASELINE="bench/baselines/BENCH_simd_batch.baseline.json"
INGEST_BASELINE="bench/baselines/BENCH_bulk_ingest.baseline.json"
FANOUT_BASELINE="bench/baselines/BENCH_row_fanout.baseline.json"
CACHE_BASELINE="bench/baselines/BENCH_result_cache.baseline.json"
PREFILTER_BASELINE="bench/baselines/BENCH_prefilter.baseline.json"
MAX_REGRESSION="${MAX_REGRESSION:-2.0}"
LOOKUPS="${LOOKUPS:-100000}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j"$(nproc)" --target micro_match_path \
    ext_bulk_ingest ext_row_fanout ext_parallel_engine \
    ext_prefilter

LOG_DIR="$BUILD_DIR/bench-logs"
mkdir -p "$LOG_DIR"
rm -f "$LOG_DIR"/*.log
FAILED_BENCHES=()

# run_bench <name> <cmd...>: tee output to a per-bench log, keep going
# on failure so the summary table covers every section.
run_bench() {
    local name="$1"
    shift
    echo
    echo "=== $name ==="
    if "$@" 2>&1 | tee "$LOG_DIR/$name.log"; then
        :
    else
        FAILED_BENCHES+=("$name")
    fi
}

run_bench match_path \
    "$BUILD_DIR"/bench/micro_match_path "$LOOKUPS" \
    --json "$BUILD_DIR"/BENCH_match_path.json \
    --baseline "$BASELINE" \
    --simd-json "$BUILD_DIR"/BENCH_simd_batch.json \
    --simd-baseline "$SIMD_BASELINE" \
    --max-regression "$MAX_REGRESSION"

run_bench bulk_ingest \
    "$BUILD_DIR"/bench/ext_bulk_ingest \
    --json "$BUILD_DIR"/BENCH_bulk_ingest.json \
    --baseline "$INGEST_BASELINE"

run_bench row_fanout \
    "$BUILD_DIR"/bench/ext_row_fanout 2000 \
    --json "$BUILD_DIR"/BENCH_row_fanout.json \
    --baseline "$FANOUT_BASELINE"

run_bench result_cache \
    "$BUILD_DIR"/bench/ext_parallel_engine 10000 \
    --json "$BUILD_DIR"/BENCH_result_cache.json \
    --baseline "$CACHE_BASELINE"

run_bench prefilter \
    "$BUILD_DIR"/bench/ext_prefilter \
    --json "$BUILD_DIR"/BENCH_prefilter.json \
    --baseline "$PREFILTER_BASELINE"

# ---------------------------------------------------------------------
# Per-metric summary: one row per gate line, offending metrics last so
# a red run ends with the metric name and its measured-vs-target delta.
echo
echo "=== bench smoke summary ==="
printf '%-14s %-6s %s\n' "bench" "gate" "metric"
printf '%-14s %-6s %s\n' "-----" "----" "------"
rc=0
FAILED_METRICS=()
for log in "$LOG_DIR"/*.log; do
    name="$(basename "$log" .log)"
    while IFS= read -r line; do
        printf '%-14s %-6s %s\n' "$name" "PASS" "${line#PASS: }"
    done < <(grep '^PASS: ' "$log" || true)
done
for log in "$LOG_DIR"/*.log; do
    name="$(basename "$log" .log)"
    while IFS= read -r line; do
        printf '%-14s %-6s %s\n' "$name" "FAIL" "${line#FAIL: }"
        FAILED_METRICS+=("$name: ${line#FAIL: }")
        rc=1
    done < <(grep '^FAIL: ' "$log" || true)
done
# micro_match_path's per-variant baseline regressions print as table
# rows rather than "FAIL: " lines; its recorded nonzero exit (and any
# other bench that died without a FAIL line) is covered here.
if [ "${#FAILED_BENCHES[@]}" -gt 0 ]; then
    echo
    echo "failed benches: ${FAILED_BENCHES[*]}"
    rc=1
fi
# Explicit failing-metric list last: a red run (including a tripped
# baseline gate) ends with the exact metrics that went red, and the
# script exits nonzero.
if [ "${#FAILED_METRICS[@]}" -gt 0 ]; then
    echo
    echo "failing metrics:"
    for metric in "${FAILED_METRICS[@]}"; do
        echo "  - $metric"
    done
fi
if [ "$rc" -eq 0 ]; then
    echo
    echo "all bench gates green"
fi
exit "$rc"
