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
#   3. An ASan+UBSan build in its own directory (-fsanitize=address,
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

echo "=== leg 3: ASan+UBSan build + full ctest ==="
cmake -B "$ASAN_DIR" -S . -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined \
-fno-sanitize-recover=undefined -fno-omit-frame-pointer -D_GLIBCXX_ASSERTIONS"
cmake --build "$ASAN_DIR" -j"$(nproc)"
ctest --test-dir "$ASAN_DIR" --output-on-failure

echo "build matrix: all legs passed"
