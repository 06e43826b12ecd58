#!/usr/bin/env bash
# Full verification sweep: tier-1 build + tests, then the robustness suite
# under AddressSanitizer and UndefinedBehaviorSanitizer. The sanitizer
# passes focus on the `robustness` ctest label, where fault injection
# deliberately pushes NaN/Inf values and corrupted bytes through the
# pipeline, but can run everything with CHECK_ALL=1.
#
# Usage: scripts/check.sh [-j N]
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
if [[ "${1:-}" == "-j" && -n "${2:-}" ]]; then
  JOBS="$2"
fi

run() {
  echo "+ $*"
  "$@"
}

echo "=== tier-1: default build + full test suite (scalar + simd) ==="
run cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
run cmake --build build -j "$JOBS"
# Twice: GP_SIMD=off pins the bitwise scalar reference, GP_SIMD=auto runs
# the dispatched AVX2 kernels (a no-op second run on CPUs without AVX2).
run env GP_SIMD=off ctest --test-dir build --output-on-failure
run env GP_SIMD=auto ctest --test-dir build --output-on-failure

echo "=== observability: labeled tests + telemetry smoke ==="
run ctest --test-dir build -L observability --output-on-failure
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
run ./build/examples/quickstart --steps=10 \
  --telemetry="$smoke_dir/telemetry.json" --trace="$smoke_dir/trace.json"
run ./build/tools/check_telemetry_json "$smoke_dir/telemetry.json" \
  "$smoke_dir/trace.json"

echo "=== alloc: buffer-pool hit-rate gate ==="
run ./build/tools/check_pool_stats "$smoke_dir/telemetry.json" 0.90

echo "=== perf: bench smoke tests ==="
run ctest --test-dir build -L perf --output-on-failure

echo "=== serving: chaos soak smoke + isolation + batching gates ==="
# Smoke-scale run of the serving bench (clean latency phase, 4-tenant
# chaos phase with one faulted tenant, then the unbatched/batched
# comparison phases), then the gate: clean p99 within budget, zero
# cross-tenant degradation bleed, zero crashes, zero clean-tenant
# deadline violations, zero bitwise reply mismatches between the batched
# and unbatched phases. At smoke scale the speedup/p99 gates are relaxed
# (floor 1.0, slack 1.5 — a loaded single-core runner makes small-sample
# throughput ratios noisy); the committed full-scale report re-gates at
# the real 1.5x floor below. The full-scale soak is
# ./build/bench/bench_serving with defaults (>= 10k chaos requests).
# The socket-mode concurrency and batch-determinism tests run under TSan
# below via the `concurrency` label.
run ./build/bench/bench_serving --scale=0.2 --steps=5 --tenants=4 \
  --clean-requests=48 --serve-requests=64 --compare-requests=96 \
  --depth=16 --batch-max=16 --outdir="$smoke_dir/serving"
run ./build/tools/check_serving "$smoke_dir/serving/BENCH_serving.json" \
  --batch-speedup-floor=1.0 --batch-p99-slack=1.5
if [[ -f results/BENCH_serving.json ]]; then
  run ./build/tools/check_serving results/BENCH_serving.json
fi

echo "=== selector: kNN scan, augmenter cache + golden regressions ==="
run ctest --test-dir build -L selector --output-on-failure

echo "=== fuzz: malformed-input parser tests ==="
run ctest --test-dir build -L fuzz --output-on-failure

echo "=== scale: out-of-core store smoke + mmap-vs-flat gate ==="
# 100k-node smoke of the out-of-core pipeline: generate shards, sample +
# encode over the mmap and flat backends, and gate on bitwise-equal
# embeddings plus the throughput floor. The RSS-ratio gate only arms at
# >= 1M nodes, so the smoke checks equivalence and throughput; the full
# sweep is ./build/bench/bench_scale_nodes with defaults, whose report is
# committed as results/BENCH_scale_nodes.json and re-gated here.
run ctest --test-dir build -L scale --output-on-failure
run ./build/tools/check_scale \
  build/bench/smoke_results/BENCH_scale_nodes.json
if [[ -f results/BENCH_scale_nodes.json ]]; then
  run ./build/tools/check_scale results/BENCH_scale_nodes.json
fi

# `selector` rides along so the sanitizers cover the selection loop's
# per-query top-k buffers and the augmenter's cache scan; `store`
# puts the mmap shard readers and the sampler under ASan/UBSan;
# `kernels` covers the fused ops' index arithmetic into projections and
# gradients and the AVX2 GEMM forward/backward bitwise pins.
label_args=(-L 'robustness|fuzz|selector|store|kernels')
if [[ "${CHECK_ALL:-0}" == "1" ]]; then
  label_args=()
fi

echo "=== ASan: address-sanitized robustness tests ==="
run cmake -B build-asan -S . -DGP_SANITIZE=address
run cmake --build build-asan -j "$JOBS"
run ctest --test-dir build-asan "${label_args[@]}" --output-on-failure

echo "=== UBSan: undefined-behavior-sanitized robustness tests ==="
run cmake -B build-ubsan -S . -DGP_SANITIZE=undefined
run cmake --build build-ubsan -j "$JOBS"
run ctest --test-dir build-ubsan "${label_args[@]}" --output-on-failure

echo "=== TSan: thread-sanitized concurrency tests ==="
# The `concurrency` label covers the thread pool, the end-to-end
# determinism pins across ParallelFor widths, the eval chaos soaks and the
# socket-mode serving soaks.
run cmake -B build-tsan -S . -DGP_SANITIZE=thread
run cmake --build build-tsan -j "$JOBS"
run ctest --test-dir build-tsan -L concurrency --output-on-failure

echo "all checks passed"
