#!/usr/bin/env bash
# Build-matrix gate for the kernel dispatch layer:
#
#   1. -DCARAM_SIMD=OFF: the scalar-only build must compile, link and
#      pass the full test suite (proves nothing hard-depends on the
#      AVX2/AVX-512 kernels or x86 intrinsics headers).
#   2. The default (SIMD) build with CARAM_MATCH_KERNEL=scalar: the
#      runtime dispatcher pinned to the scalar kernel must pass the
#      full suite too (proves the env override path and that every
#      caller is kernel-agnostic).
#
# The kernel-forced equivalence suites (KernelForcedEquivalence,
# EqualityForced) additionally pin each available kernel per test, so
# leg 2 plus the default ctest run cover every dispatch combination
# the host supports.
#
#   3. The SIMD build rerun with CARAM_ROW_FANOUT_MIN=1: every engine
#      whose config leaves rowFanoutMin at 0 now fans out EVERY
#      eligible ternary lookup through the shard path, so the whole
#      suite doubles as a fan-out equivalence sweep.  Tests that need
#      a serial baseline pin an explicit unreachable threshold, which
#      always wins over the environment floor.
#
#   4. The SIMD build rerun with CARAM_RESULT_CACHE_ENTRIES=4096: every
#      engine whose config leaves resultCacheEntries unset now fronts
#      search dispatch with the hot-key result cache, so the whole
#      suite doubles as a cache-coherence equivalence sweep (every
#      differential and modeled-accounting expectation must hold with
#      cached hits short-circuiting repeat lookups).  Tests that
#      measure per-lookup slice work pin an explicit 0, which always
#      wins over the environment knob.
#
#   5. The SIMD build rerun with CARAM_PREFILTER=1: every engine whose
#      config leaves EngineConfig::prefilter unset now consults the
#      per-row counting pre-filter on every search path, and the
#      engine-vs-serial differentials mirror the knob onto their
#      oracle subsystems -- so the whole suite doubles as a
#      filtered-vs-filtered equivalence sweep, bucketsAccessed
#      accounting included.  Tests that assert exact unfiltered fetch
#      counts pin an explicit false, which always wins over the
#      environment knob.
#
#   6. An ASan+UBSan build in its own directory (-fsanitize=address,
#      undefined with -fno-sanitize-recover=undefined, plus
#      -D_GLIBCXX_ASSERTIONS for libstdc++'s bounds checks, e.g. span
#      and vector indexing): the full suite must run with no sanitizer
#      report and no failed assertion.
#
# Usage: scripts/ci_build_matrix.sh [scalar-build-dir] [simd-build-dir]
#                                   [asan-build-dir]
#        (defaults build-scalar, build and build-asan)
set -euo pipefail
cd "$(dirname "$0")/.."

SCALAR_DIR="${1:-build-scalar}"
SIMD_DIR="${2:-build}"
ASAN_DIR="${3:-build-asan}"

echo "=== leg 1: -DCARAM_SIMD=OFF build + full ctest ==="
cmake -B "$SCALAR_DIR" -S . -DCARAM_SIMD=OFF
cmake --build "$SCALAR_DIR" -j"$(nproc)"
ctest --test-dir "$SCALAR_DIR" --output-on-failure

echo "=== leg 2: SIMD build, dispatcher pinned to scalar ==="
cmake -B "$SIMD_DIR" -S .
cmake --build "$SIMD_DIR" -j"$(nproc)"
CARAM_MATCH_KERNEL=scalar ctest --test-dir "$SIMD_DIR" \
    --output-on-failure

echo "=== leg 3: SIMD build, row fan-out forced on ==="
CARAM_ROW_FANOUT_MIN=1 ctest --test-dir "$SIMD_DIR" \
    --output-on-failure

echo "=== leg 4: SIMD build, result cache forced on ==="
CARAM_RESULT_CACHE_ENTRIES=4096 ctest --test-dir "$SIMD_DIR" \
    --output-on-failure

echo "=== leg 5: SIMD build, pre-filter forced on ==="
CARAM_PREFILTER=1 ctest --test-dir "$SIMD_DIR" \
    --output-on-failure

echo "=== leg 6: ASan+UBSan build + full ctest ==="
cmake -B "$ASAN_DIR" -S . -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined \
-fno-sanitize-recover=undefined -fno-omit-frame-pointer -D_GLIBCXX_ASSERTIONS"
cmake --build "$ASAN_DIR" -j"$(nproc)"
ctest --test-dir "$ASAN_DIR" --output-on-failure

echo "build matrix: all legs passed"
