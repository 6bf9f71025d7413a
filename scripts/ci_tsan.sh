#!/usr/bin/env bash
# ThreadSanitizer gate for the concurrency layer: builds with
# -DCARAM_TSAN=ON and runs the tests that put two threads near the same
# data under TSan.  One worker owns each table, so what is left to race
# is the hand-off around the tables, not the tables themselves:
#
#  - bulk submit: producers pushing batches into the workers' ring
#    queues, workers asleep in popBatch(), per-batch publish and
#    drain() (ConcurrentQueue.*, Engine.*).
#
# The engine-vs-serial differential (ConcurrentMutationDifferential.*)
# and the brute-force reference differential (ReferenceDifferential.*)
# ride along.  Any data race fails the script.
#
# Usage: scripts/ci_tsan.sh [build-dir]   (default build-tsan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DCARAM_TSAN=ON
cmake --build "$BUILD_DIR" -j"$(nproc)" \
    --target test_concurrent_queue test_engine \
    concurrent_mutation_differential reference_differential
TSAN_OPTIONS="halt_on_error=1" ctest --test-dir "$BUILD_DIR" \
    -R 'ConcurrentQueue|Engine|ConcurrentMutation|ReferenceDifferential' \
    --output-on-failure
