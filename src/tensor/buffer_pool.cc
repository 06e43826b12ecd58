#include "tensor/buffer_pool.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>

#include "obs/telemetry.h"

namespace gp {
namespace {

// Capacity classes 2^4 .. 2^31 floats (64 B .. 8 GiB). Requests above the
// top class, and releases below the bottom one, bypass the pool.
constexpr int kMinBucketLog2 = 4;
constexpr int kNumBuckets = 32;
// Per-thread parked buffers per bucket; small so worker caches stay lean.
constexpr size_t kThreadCacheSlots = 8;
// Shared overflow per bucket; catches cross-thread churn.
constexpr size_t kGlobalSlots = 128;

bool g_pool_enabled = true;

// Smallest b with 2^b >= n (clamped to kMinBucketLog2); -1 when the
// request is too large to pool.
int BucketForRequest(size_t n) {
  int b = kMinBucketLog2;
  while (b < kNumBuckets && (size_t{1} << b) < n) ++b;
  return b < kNumBuckets ? b : -1;
}

// Largest b with 2^b <= capacity; -1 when the buffer is too small for the
// bottom class (serving any request from it could force a realloc).
int BucketForRelease(size_t capacity) {
  if (capacity < (size_t{1} << kMinBucketLog2)) return -1;
  int b = kMinBucketLog2;
  while (b + 1 < kNumBuckets && (size_t{1} << (b + 1)) <= capacity) ++b;
  return b;
}

struct Stats {
  std::atomic<int64_t> hits{0};
  std::atomic<int64_t> misses{0};
  std::atomic<int64_t> bytes_reused{0};
  std::atomic<int64_t> live_bytes{0};
  std::atomic<int64_t> live_peak_bytes{0};
  std::atomic<int64_t> free_bytes{0};
};

Stats& GlobalStats() {
  static Stats* stats = new Stats;
  return *stats;
}

struct GlobalLists {
  std::mutex mu;
  std::array<std::vector<std::vector<float>>, kNumBuckets> buckets;
};

GlobalLists& Globals() {
  // Leaked so releases from exit-time destructors stay safe.
  static GlobalLists* lists = new GlobalLists;
  return *lists;
}

void RecordLiveDelta(int64_t delta) {
  Stats& stats = GlobalStats();
  // Releases of adopted (never-acquired) buffers can push the counter
  // negative; clamp so the published numbers stay meaningful.
  int64_t live = stats.live_bytes.fetch_add(delta,
                                            std::memory_order_relaxed) +
                 delta;
  if (live < 0) live = 0;
  int64_t peak = stats.live_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !stats.live_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

// Thread cache with an exit flush: buffers a worker thread parked are
// pushed to the global lists when the thread dies, instead of being
// stranded or freed. The `dead` flag is a separate trivially-destructible
// thread_local so releases that happen after the cache's destructor (e.g.
// from static tensors torn down at process exit) fall back to the heap
// instead of touching a destroyed object.
thread_local bool t_cache_dead = false;

struct ThreadCache {
  std::array<std::vector<std::vector<float>>, kNumBuckets> buckets;

  ~ThreadCache() {
    t_cache_dead = true;
    GlobalLists& global = Globals();
    Stats& stats = GlobalStats();
    std::lock_guard<std::mutex> lock(global.mu);
    for (int b = 0; b < kNumBuckets; ++b) {
      for (auto& buf : buckets[b]) {
        if (global.buckets[b].size() < kGlobalSlots) {
          global.buckets[b].push_back(std::move(buf));
        } else {
          stats.free_bytes.fetch_sub(
              static_cast<int64_t>(buf.capacity() * sizeof(float)),
              std::memory_order_relaxed);
        }
      }
      buckets[b].clear();
    }
  }
};

ThreadCache* GetThreadCache() {
  if (t_cache_dead) return nullptr;
  thread_local ThreadCache cache;
  return &cache;
}

struct AllocCounters {
  Counter* hits;
  Counter* misses;
  Counter* bytes_reused;
};

const AllocCounters& Counters() {
  static AllocCounters counters = {
      Telemetry().GetCounter("alloc/pool_hits"),
      Telemetry().GetCounter("alloc/pool_misses"),
      Telemetry().GetCounter("alloc/bytes_reused"),
  };
  return counters;
}

// Pops a recycled buffer of bucket `b`, or returns false.
bool PopFree(int b, std::vector<float>* out) {
  if (ThreadCache* cache = GetThreadCache()) {
    auto& list = cache->buckets[b];
    if (!list.empty()) {
      *out = std::move(list.back());
      list.pop_back();
      return true;
    }
  }
  GlobalLists& global = Globals();
  std::lock_guard<std::mutex> lock(global.mu);
  auto& list = global.buckets[b];
  if (list.empty()) return false;
  *out = std::move(list.back());
  list.pop_back();
  return true;
}

thread_local int t_pool_scope_depth = 0;

}  // namespace

std::vector<float> AcquireBuffer(size_t n) {
  if (n == 0) return {};
  const int b = g_pool_enabled ? BucketForRequest(n) : -1;
  std::vector<float> buf;
  if (b >= 0 && PopFree(b, &buf)) {
    Stats& stats = GlobalStats();
    stats.hits.fetch_add(1, std::memory_order_relaxed);
    stats.bytes_reused.fetch_add(
        static_cast<int64_t>(n * sizeof(float)), std::memory_order_relaxed);
    stats.free_bytes.fetch_sub(
        static_cast<int64_t>(buf.capacity() * sizeof(float)),
        std::memory_order_relaxed);
    Counters().hits->Add(1);
    Counters().bytes_reused->Add(static_cast<int64_t>(n * sizeof(float)));
    // Capacity is >= n by bucket construction, so this never reallocates;
    // elements grown into are value-initialised, the rest keep stale
    // values (contents are unspecified by contract).
    buf.resize(n);
  } else {
    if (g_pool_enabled) {
      GlobalStats().misses.fetch_add(1, std::memory_order_relaxed);
      Counters().misses->Add(1);
    }
    if (b >= 0) buf.reserve(size_t{1} << b);
    buf.resize(n);
  }
  RecordLiveDelta(static_cast<int64_t>(buf.capacity() * sizeof(float)));
  return buf;
}

std::vector<float> AcquireZeroedBuffer(size_t n) {
  std::vector<float> buf = AcquireBuffer(n);
  std::fill(buf.begin(), buf.end(), 0.0f);
  return buf;
}

void ReleaseBuffer(std::vector<float>&& buf) {
  const size_t capacity = buf.capacity();
  if (capacity == 0) return;
  RecordLiveDelta(-static_cast<int64_t>(capacity * sizeof(float)));
  if (!g_pool_enabled) {
    std::vector<float>().swap(buf);
    return;
  }
  const int b = BucketForRelease(capacity);
  if (b < 0) {
    std::vector<float>().swap(buf);
    return;
  }
  Stats& stats = GlobalStats();
  if (ThreadCache* cache = GetThreadCache()) {
    auto& list = cache->buckets[b];
    if (list.size() < kThreadCacheSlots) {
      list.push_back(std::move(buf));
      stats.free_bytes.fetch_add(
          static_cast<int64_t>(capacity * sizeof(float)),
          std::memory_order_relaxed);
      return;
    }
  }
  {
    GlobalLists& global = Globals();
    std::lock_guard<std::mutex> lock(global.mu);
    auto& list = global.buckets[b];
    if (list.size() < kGlobalSlots) {
      list.push_back(std::move(buf));
      stats.free_bytes.fetch_add(
          static_cast<int64_t>(capacity * sizeof(float)),
          std::memory_order_relaxed);
      return;
    }
  }
  std::vector<float>().swap(buf);
}

void DrainBufferPool() {
  Stats& stats = GlobalStats();
  int64_t freed = 0;
  if (ThreadCache* cache = GetThreadCache()) {
    for (auto& list : cache->buckets) {
      for (auto& buf : list) {
        freed += static_cast<int64_t>(buf.capacity() * sizeof(float));
      }
      list.clear();
      list.shrink_to_fit();
    }
  }
  {
    GlobalLists& global = Globals();
    std::lock_guard<std::mutex> lock(global.mu);
    for (auto& list : global.buckets) {
      for (auto& buf : list) {
        freed += static_cast<int64_t>(buf.capacity() * sizeof(float));
      }
      list.clear();
    }
  }
  stats.free_bytes.fetch_sub(freed, std::memory_order_relaxed);
}

void PublishPoolTelemetry() {
  Stats& stats = GlobalStats();
  Telemetry()
      .GetGauge("alloc/live_peak")
      ->SetMax(static_cast<double>(
          stats.live_peak_bytes.load(std::memory_order_relaxed)));
  Telemetry()
      .GetGauge("alloc/live_bytes")
      ->Set(static_cast<double>(
          std::max<int64_t>(0, stats.live_bytes.load(
                                   std::memory_order_relaxed))));
  Telemetry()
      .GetGauge("alloc/free_bytes")
      ->Set(static_cast<double>(
          std::max<int64_t>(0, stats.free_bytes.load(
                                   std::memory_order_relaxed))));
}

BufferPoolStats PoolStatsSnapshot() {
  PublishPoolTelemetry();
  Stats& stats = GlobalStats();
  BufferPoolStats out;
  out.hits = stats.hits.load(std::memory_order_relaxed);
  out.misses = stats.misses.load(std::memory_order_relaxed);
  out.bytes_reused = stats.bytes_reused.load(std::memory_order_relaxed);
  out.live_bytes =
      std::max<int64_t>(0, stats.live_bytes.load(std::memory_order_relaxed));
  out.live_peak_bytes =
      stats.live_peak_bytes.load(std::memory_order_relaxed);
  out.free_bytes =
      std::max<int64_t>(0, stats.free_bytes.load(std::memory_order_relaxed));
  return out;
}

void SetBufferPoolEnabled(bool enabled) {
  if (g_pool_enabled && !enabled) DrainBufferPool();
  g_pool_enabled = enabled;
}

bool BufferPoolEnabled() { return g_pool_enabled; }

PoolScope::PoolScope() { ++t_pool_scope_depth; }

PoolScope::~PoolScope() {
  if (--t_pool_scope_depth == 0) {
    DrainBufferPool();
    PublishPoolTelemetry();
  }
}

}  // namespace gp
