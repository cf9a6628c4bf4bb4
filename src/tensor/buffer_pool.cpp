#include "tensor/buffer_pool.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

namespace adaptraj {
namespace internal {

namespace {

// Caps keep a runaway workload from hoarding memory: at most kMaxEntries
// cached vectors and kMaxPoolFloats total elements per thread.
//
// kMaxEntries was tuned from the hits/misses/bytes_recycled telemetry on the
// BM_TrainEpoch_AdapTraj/1 workload (table-4 training shape, H=32, B=32,
// accum_steps=4 — a training step keeps several micro-batch graphs of a few
// hundred tensors in flight, far more distinct buffers than the inference
// graphs the original cap was sized for). Measured on that bench, varying
// only kMaxEntries:
//    64 entries: 30.9% reuse   (the PR-2 value; scans are cheap but most
//   128 entries: 36.4% reuse    training-step releases fall off the cap)
//   256 entries: 47.6% reuse   <- chosen: best epoch wall-clock
//   512 entries: 69.1% reuse    (reuse keeps climbing but the O(entries)
//                               best-fit scan starts costing more than the
//                               extra hits save; epoch time regresses ~4%)
// The bytes cap stays at 64 MiB per thread: the same sweep recycled ~200 MB
// per six epochs without ever approaching it, so entries — not bytes — bind.
// NOTE: the sweep above was measured on the list-based pool whose acquire
// scanned all entries; the exact-capacity bucket pool below makes acquires
// O(1), so the cap now bounds memory rather than scan time. 256 is kept —
// raising it is a future sweep, not a free win (cold cache lines).
constexpr size_t kMaxEntries = 256;
constexpr int64_t kMaxPoolFloats = int64_t{1} << 24;  // 64 MiB of float32

// Buffers are bucketed by exact capacity: the op-output sizes of a model
// recur every step (and, under no-grad eager release, within a step), so the
// overwhelmingly common acquire is an O(1) hash hit instead of the linear
// best-fit scan the list-based pool paid across (up to) kMaxEntries entries
// on every single op output. The scan survives only as the fallback over
// DISTINCT capacities when no exact bucket has a buffer.
struct Bucket {
  std::vector<FloatBuffer> bufs;
  /// Acquire-clock value of the last hit on this bucket; the eviction victim
  /// under cap pressure is the least-recently-useful size, so a pool full of
  /// stale shapes (a previous workload's) cannot pin itself forever by
  /// refusing every new release.
  uint64_t last_use = 0;
};

struct ThreadPool {
  std::unordered_map<size_t, Bucket> buckets;
  size_t entries = 0;
  int64_t cached_floats = 0;
  uint64_t clock = 0;
  BufferPoolStats stats;
};

/// Strictly per-thread state: thread_local storage IS the synchronization
/// (no mutex, nothing for the Clang thread-safety analysis to guard).
/// References to a ThreadPool must never escape to another thread — every
/// caller goes through this accessor and uses the result within one call.
ThreadPool& LocalPool() {
  static thread_local ThreadPool pool;
  return pool;
}

using BucketMap = std::unordered_map<size_t, Bucket>;

/// Pops a buffer from the bucket at `it`, erasing the bucket when it
/// empties: the map must track only capacities actually cached, or a
/// long-lived process that passes through many shapes would make the miss
/// and eviction scans crawl an ever-growing set of dead keys.
FloatBuffer TakeFrom(ThreadPool& pool, BucketMap::iterator it, int64_t n) {
  Bucket& bucket = it->second;
  FloatBuffer buf = std::move(bucket.bufs.back());
  bucket.bufs.pop_back();
  bucket.last_use = pool.clock;
  --pool.entries;
  pool.cached_floats -= static_cast<int64_t>(buf.capacity());
  ++pool.stats.reuses;
  pool.stats.bytes_recycled +=
      static_cast<int64_t>(buf.capacity() * sizeof(float));
  if (bucket.bufs.empty()) pool.buckets.erase(it);
  buf.resize(static_cast<size_t>(n));
  return buf;
}

/// Drops one buffer from the least-recently-used bucket. Returns false when
/// the pool holds nothing to evict.
bool EvictOne(ThreadPool& pool) {
  auto victim = pool.buckets.end();
  uint64_t oldest = UINT64_MAX;
  for (auto it = pool.buckets.begin(); it != pool.buckets.end(); ++it) {
    if (it->second.last_use < oldest) {
      oldest = it->second.last_use;
      victim = it;
    }
  }
  if (victim == pool.buckets.end()) return false;
  Bucket& bucket = victim->second;
  pool.cached_floats -= static_cast<int64_t>(bucket.bufs.back().capacity());
  bucket.bufs.pop_back();
  --pool.entries;
  if (bucket.bufs.empty()) pool.buckets.erase(victim);
  return true;
}

}  // namespace

FloatBuffer AcquireBuffer(int64_t n) {
  ThreadPool& pool = LocalPool();
  ++pool.stats.acquires;
  ++pool.clock;
  // Exact-capacity fast path: resize() is free and the hash lookup is O(1).
  auto it = pool.buckets.find(static_cast<size_t>(n));
  if (it != pool.buckets.end()) {
    return TakeFrom(pool, it, n);
  }
  // Fallback: best fit over the distinct cached capacities.
  auto best = pool.buckets.end();
  size_t best_cap = SIZE_MAX;
  for (auto b = pool.buckets.begin(); b != pool.buckets.end(); ++b) {
    if (b->first >= static_cast<size_t>(n) && b->first < best_cap) {
      best = b;
      best_cap = b->first;
    }
  }
  if (best == pool.buckets.end()) {
    return FloatBuffer(static_cast<size_t>(n));
  }
  return TakeFrom(pool, best, n);
}

FloatBuffer AcquireZeroedBuffer(int64_t n) {
  FloatBuffer buf = AcquireBuffer(n);
  std::fill(buf.begin(), buf.end(), 0.0f);
  return buf;
}

void ReleaseBuffer(FloatBuffer&& buf) {
  if (buf.capacity() == 0) return;
  ThreadPool& pool = LocalPool();
  // Oversized for the pool outright: let it free on scope exit.
  if (static_cast<int64_t>(buf.capacity()) > kMaxPoolFloats) return;
  // Far larger than the tensor it held: a best-fit acquire took it, often on
  // another thread (a served request row carries off a serving worker's
  // decode-plan arena). Cached under its capacity it would hold memory no
  // acquire on this thread asked for, so let it free too.
  if (buf.capacity() > 2 * buf.size() + 64) return;
  // Under cap pressure, displace the least-recently-used size rather than
  // refusing: a refused release would let one workload's stale shapes pin
  // the pool at the cap indefinitely while every later acquire misses.
  if (pool.entries >= kMaxEntries && !EvictOne(pool)) return;
  while (pool.cached_floats + static_cast<int64_t>(buf.capacity()) > kMaxPoolFloats) {
    if (!EvictOne(pool)) return;
  }
  // Account in capacity(), which is what the pool actually retains (a large
  // buffer reused for a small tensor keeps its full allocation).
  pool.cached_floats += static_cast<int64_t>(buf.capacity());
  ++pool.entries;
  ++pool.stats.releases;
  Bucket& bucket = pool.buckets[buf.capacity()];
  if (bucket.last_use == 0) bucket.last_use = pool.clock;
  bucket.bufs.push_back(std::move(buf));
}

BufferPoolStats GetBufferPoolStats() { return LocalPool().stats; }

void ClearBufferPool() {
  ThreadPool& pool = LocalPool();
  pool.buckets.clear();
  pool.entries = 0;
  pool.cached_floats = 0;
  pool.stats = BufferPoolStats{};
}

}  // namespace internal
}  // namespace adaptraj
