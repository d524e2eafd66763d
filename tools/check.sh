#!/bin/sh
# Project correctness gate: octo_lint + the registry/schema sync tests,
# the golden step signatures (ctest label `golden`, including the
# per-kernel gravity bits GoldenKernels.GravityKernelBits), the frozen
# dataflow step-graph shape (per-class task and edge counts), the bitwise
# gravity kernel tests (monopole path == full pack, chunk invariance; these
# hold on every build fingerprint), the SIMD ABI tests (lane-wise sqrt ==
# std::sqrt bit for bit), the cluster bitwise equivalences (1/2/4/7
# localities == the single process, local optimization on and off;
# barrier == dataflow at 1 and 4 localities, with equal exchange
# statistics), plus clang-tidy over src/ when available.
# Run from anywhere:
#
#   tools/check.sh [BUILD_DIR]      # default build dir: ./build
#
# Exits nonzero on the first failing stage.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

if [ ! -d "$build_dir" ]; then
  echo "check.sh: build dir $build_dir missing — configure first:" >&2
  echo "  cmake -B $build_dir -S $repo_root" >&2
  exit 2
fi

echo "== octo_lint =="
cmake --build "$build_dir" --target octo_lint -- -j >/dev/null
"$build_dir/tools/octo_lint" --root "$repo_root"

echo "== registry / schema sync tests =="
cmake --build "$build_dir" --target lint_test metrics_test -- -j >/dev/null
"$build_dir/tests/lint_test" --gtest_brief=1
"$build_dir/tests/metrics_test" \
  --gtest_filter='Metrics.SchemaMatchesCsvJsonlAndDocs' --gtest_brief=1

echo "== golden step signatures + kernel bits + step-graph shape + bitwise gravity kernels + simd =="
cmake --build "$build_dir" --target golden_step_test race_audit_test \
  gravity_test simd_test -- -j >/dev/null
"$build_dir/tests/golden_step_test" --gtest_brief=1
"$build_dir/tests/race_audit_test" --gtest_brief=1 \
  --gtest_filter='RaceAuditSim.StepGraphShapeIsFrozen'
"$build_dir/tests/gravity_test" --gtest_brief=1 \
  --gtest_filter='GravityKernels.*:Chunks/ChunkInvariance.*'
"$build_dir/tests/simd_test" --gtest_brief=1

echo "== cluster bitwise: localities == single process, barrier == dataflow =="
cmake --build "$build_dir" --target cluster_test dataflow_equivalence_test \
  -- -j >/dev/null
"$build_dir/tests/cluster_test" --gtest_brief=1 \
  --gtest_filter='*/ClusterEquivalence.*'
"$build_dir/tests/dataflow_equivalence_test" --gtest_brief=1 \
  --gtest_filter='*/DataflowClusterEquivalence.*'

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy (bugprone/concurrency/performance) =="
  tidy_build="$repo_root/build-tidy"
  cmake -B "$tidy_build" -S "$repo_root" -DOCTO_CLANG_TIDY=ON \
    -DOCTO_ENABLE_TESTS=OFF -DOCTO_ENABLE_BENCH=OFF \
    -DOCTO_ENABLE_EXAMPLES=OFF >/dev/null
  cmake --build "$tidy_build" -- -j
else
  echo "== clang-tidy not installed: skipped =="
fi

echo "check.sh: all stages passed"
