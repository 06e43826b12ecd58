#!/usr/bin/env bash
# Full verification sweep: tier-1 build + tests, then the robustness suite
# under AddressSanitizer and UndefinedBehaviorSanitizer. The sanitizer
# passes focus on the `robustness` ctest label, where fault injection
# deliberately pushes NaN/Inf values and corrupted bytes through the
# pipeline, and build only the test binaries they run; CHECK_ALL=1 builds
# the whole tree and runs every test.
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
# The trace only has to parse; trace_export_test pins its event schema.
run ./build/tools/check_bench "$smoke_dir/trace.json"

echo "=== alloc: buffer-pool hit-rate gate ==="
# hits >= 9 * misses is a pool hit rate of at least 0.90.
run ./build/tools/check_bench "$smoke_dir/telemetry.json" \
  "alloc/pool_hits > 0" "alloc/pool_hits >= 9*alloc/pool_misses"

echo "=== perf: bench smoke tests ==="
run ctest --test-dir build -L perf --output-on-failure

echo "=== serving: chaos soak smoke + isolation + batching gates ==="
# Smoke-scale run of the serving bench (clean latency phase, 4-tenant
# chaos phase with one faulted tenant, then the unbatched/batched
# comparison phases), then the gate: clean p99 within budget, zero
# cross-tenant degradation bleed, zero crashes, zero clean-tenant
# deadline violations, zero bitwise reply mismatches between the batched
# and unbatched phases. At smoke scale the speedup/p99 gates are relaxed
# (floor 1.0, slack 1.5): 96 requests per phase make the throughput ratio
# noisy, the more so on a shared multi-core host, where the unbatched
# phase's two workers run in parallel and its rate swings from run to
# run, so even the relaxed floor fails now and then. The committed
# full-scale report re-gates at the real 1.5x floor below. The full-scale
# soak is ./build/bench/bench_serving with defaults (>= 10k chaos
# requests).
# The socket-mode concurrency and batch-determinism tests run under TSan
# below via the `concurrency` label.
run ./build/bench/bench_serving --scale=0.2 --steps=5 --tenants=4 \
  --clean-requests=48 --serve-requests=64 --compare-requests=96 \
  --depth=16 --batch-max=16 --outdir="$smoke_dir/serving"
serving_gates=(
  "serve/clean/p99_us <= 2000000"
  "serve/chaos/cross_tenant_degradation_events == 0"
  "serve/chaos/crashes == 0"
  "serve/chaos/clean_tenant_deadline_violations == 0"
  "serve/batched/bitwise_mismatches == 0"
  "serve/batched/clean_deadline_violations == 0"
  "serve/batched/crashes == 0"
)
run ./build/tools/check_bench "$smoke_dir/serving/BENCH_serving.json" \
  "${serving_gates[@]}" "serve/batched/speedup >= 1.0" \
  "serve/batched/p99_us <= 1.5*serve/unbatched/p99_us"
if [[ -f results/BENCH_serving.json ]]; then
  run ./build/tools/check_bench results/BENCH_serving.json \
    "${serving_gates[@]}" "serve/batched/speedup >= 1.5" \
    "serve/batched/p99_us <= 1*serve/unbatched/p99_us"
fi

echo "=== selector: kNN scan, augmenter cache + golden regressions ==="
run ctest --test-dir build -L selector --output-on-failure

echo "=== fuzz: malformed-input parser tests ==="
run ctest --test-dir build -L fuzz --output-on-failure

echo "=== scale: out-of-core store smoke + mmap-vs-flat gate ==="
# 100k-node smoke of the out-of-core pipeline: generate shards, sample +
# encode over the mmap and flat backends, and gate every size on
# bitwise-equal embeddings plus the throughput floor. The RSS-ratio gate
# covers sizes of seven or more digits (n >= 1M; below that the flat copy
# is too small for the ratio to mean anything), so only the committed full
# sweep (./build/bench/bench_scale_nodes with defaults, committed as
# results/BENCH_scale_nodes.json) carries it, and it must hold a 1M+ size.
run ctest --test-dir build -L scale --output-on-failure
scale_gates=(
  "magsim/n=*/embedding_crc_match == 1"
  "magsim/n=*/mmap/sample_encode_throughput >= 5"
  "magsim/n=*/flat/sample_encode_throughput >= 5"
)
run ./build/tools/check_bench \
  build/bench/smoke_results/BENCH_scale_nodes.json "${scale_gates[@]}"
if [[ -f results/BENCH_scale_nodes.json ]]; then
  run ./build/tools/check_bench results/BENCH_scale_nodes.json \
    "${scale_gates[@]}" "magsim/n=[1-9]??????*/mmap_over_flat_rss < 0.5"
fi

# `selector` rides along so the sanitizers cover the selection loop's
# per-query top-k buffers and the augmenter's cache scan; `store`
# puts the mmap shard readers and the sampler under ASan/UBSan;
# `kernels` covers the fused ops' index arithmetic into projections and
# gradients, the GNN layers' per-call row and edge lists, and the AVX2
# GEMM forward/backward bitwise pins.
sanitizer_labels=(robustness fuzz selector store kernels)
label_args=(-L "$(IFS='|'; echo "${sanitizer_labels[*]}")")
if [[ "${CHECK_ALL:-0}" == "1" ]]; then
  label_args=()
fi

# Builds, in the configured build dir $1, the test binaries of the labels
# that follow, through their tests_<label> targets (tests/CMakeLists.txt):
# no labelled test runs a bench, example or tool. One target per label,
# because a Makefile build runs several targets one after another.
# CHECK_ALL=1 builds the whole tree.
build_tests() {
  local dir="$1"
  shift
  if [[ "${CHECK_ALL:-0}" == "1" ]]; then
    run cmake --build "$dir" -j "$JOBS"
    return
  fi
  run cmake --build "$dir" -j "$JOBS" --target "${@/#/tests_}"
}

echo "=== ASan: address-sanitized robustness tests ==="
run cmake -B build-asan -S . -DGP_SANITIZE=address
build_tests build-asan "${sanitizer_labels[@]}"
run ctest --test-dir build-asan "${label_args[@]}" --output-on-failure

echo "=== UBSan: undefined-behavior-sanitized robustness tests ==="
run cmake -B build-ubsan -S . -DGP_SANITIZE=undefined
build_tests build-ubsan "${sanitizer_labels[@]}"
run ctest --test-dir build-ubsan "${label_args[@]}" --output-on-failure

echo "=== TSan: thread-sanitized concurrency tests ==="
# The `concurrency` label covers the thread pool, the end-to-end
# determinism pins across ParallelFor widths, the eval chaos soaks and the
# socket-mode serving soaks.
run cmake -B build-tsan -S . -DGP_SANITIZE=thread
build_tests build-tsan concurrency
run ctest --test-dir build-tsan -L concurrency --output-on-failure

echo "all checks passed"
