// Cross-request encoder cache: content-addressed reuse of per-scene encoder
// rows in the serving engine.
//
// The serving workload resubmits scenes whose observed history is identical
// byte-for-byte (persistent agents polled by several consumers, replayed
// traffic, the padding rows that cycle a partial batch's live scenes), yet
// the engine re-ran the full backbone encoder for every row of every batch.
// The backbone seam makes the encoder half reusable: Encode is an rng-free
// pure no-grad forward whose row r depends ONLY on row r's input bytes —
// every kernel accumulates per output element over ascending k and every
// reduction is per-scene (see tensor/kernels.h "tile boundaries don't affect
// values"), so a row encoded in one batch is bit-identical to the same bytes
// encoded in any other batch with the same neighbor-slot width. This cache
// maps those input bytes to the packed encoder output row and lets
// serve::InferenceEngine skip Encode for every row it has seen before.
//
// Correctness model:
//   - The KEY is the full byte string of everything the encoder reads for
//     one scene row (identity header, extents, observed-history floats,
//     neighbor floats + offsets + mask when the method's encoder reads
//     neighbors), so two scenes collide only if the encoder input is
//     byte-identical — in which case the encoder output is too.
//   - The HASH (seeded 64-bit FNV-1a) is only an index. Every probe
//     compares the full key bytes before reporting a hit; a hash collision
//     costs one extra compare (counted in stats().hash_conflicts), never a
//     wrong value. Tests force collisions through a fake hasher to pin this.
//   - EVICTION is LRU under a byte budget covering keys + values + a fixed
//     per-entry overhead estimate. An entry larger than the whole budget is
//     never admitted.
//   - INVALIDATION: Invalidate() drops everything (the engine calls it at
//     the SwapWeights flip, under the engine mutex while no batch is
//     executing, so stale-weight latents are unobservable).
//     InvalidateIfVersionChanged(v) clears when the owning method's
//     weights-version counter moved (core::Method::weights_version — bumped
//     by Train), covering in-place retraining of a live served method.
//
// Thread safety: every public method is mutex-guarded; concurrent batches
// may race a miss for the same key and both encode it — the second Insert
// finds the key present and is dropped. Because the cached value equals the
// recomputed value bit-exactly, lookup/insert interleaving can never change
// served bytes.
//
// The ADAPTRAJ_ENCODE_CACHE env var is the production kill-switch
// (unset/"1"/"on" = on, "0"/"off" = off), consulted by engines whose
// options leave the cache in kAuto; tests pin kOn/kOff programmatically
// through InferenceEngineOptions so they are env-independent.

#ifndef ADAPTRAJ_SERVE_ENCODE_CACHE_H_
#define ADAPTRAJ_SERVE_ENCODE_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/batch.h"
#include "support/sync.h"
#include "support/thread_annotations.h"

namespace adaptraj {
namespace serve {

/// Engine-facing switch for the encoder cache.
enum class EncodeCacheMode {
  kAuto = 0,  // follow the ADAPTRAJ_ENCODE_CACHE environment variable
  kOn,        // cache when the method supports the encode/decode split
  kOff,       // never cache
};

/// Resolves the ADAPTRAJ_ENCODE_CACHE kill-switch (unset/"1"/"on" = true,
/// "0"/"off"/"false" = false). Read once per process, like ADAPTRAJ_PLAN.
bool EncodeCacheEnabledByEnv();

/// Configuration of one cache instance.
struct EncodeCacheOptions {
  /// LRU byte budget over keys + values + per-entry overhead. Must be > 0.
  int64_t max_bytes = 64ll << 20;
  /// Method/backbone identity mixed into every key (method name + packed
  /// width); keeps entries self-describing if a cache ever outlives a
  /// served-method change that Invalidate did not cover.
  std::string identity;
  /// Seed folded into the 64-bit content hash.
  uint64_t hash_seed = 0x9e3779b97f4a7c15ull;
};

/// Counters and gauges; snapshot under the cache mutex.
struct EncodeCacheStats {
  int64_t lookups = 0;        // Lookup calls
  int64_t hits = 0;           // full-key matches served from the cache
  int64_t misses = 0;         // lookups that found no matching key
  int64_t insertions = 0;     // entries admitted
  int64_t evictions = 0;      // entries dropped by the LRU byte budget
  int64_t invalidations = 0;  // Invalidate / version-change clears
  /// Bucket probes whose hash matched but whose key bytes did not — the
  /// collision-safety path (full byte compare, never a silent wrong value).
  int64_t hash_conflicts = 0;
  int64_t entries = 0;  // gauge: live entries
  int64_t bytes = 0;    // gauge: charged bytes of live entries
};

/// Content-addressed LRU cache from encoder-input bytes to the packed
/// encoder output row ([hidden_dim + social_dim] floats).
class EncodeCache {
 public:
  explicit EncodeCache(EncodeCacheOptions options);

  /// Copies the cached row for `key` into out[0, width) and returns true;
  /// false on miss. Touches the entry to the LRU front on hit.
  bool Lookup(const std::string& key, float* out, int64_t width)
      ADAPTRAJ_EXCLUDES(mu_);

  /// Admits a copy of value[0, width) under `key`, evicting LRU entries
  /// until the byte budget holds. Dropped silently when the key is already
  /// present (a concurrent batch encoded it first — the values are
  /// bit-identical by the determinism contract) or when one entry alone
  /// exceeds the budget.
  void Insert(const std::string& key, const float* value, int64_t width)
      ADAPTRAJ_EXCLUDES(mu_);

  /// Drops every entry.
  void Invalidate() ADAPTRAJ_EXCLUDES(mu_);

  /// Clears when `version` differs from the last adopted weights version
  /// (first call adopts without clearing an empty cache's stats).
  void InvalidateIfVersionChanged(int64_t version) ADAPTRAJ_EXCLUDES(mu_);

  EncodeCacheStats stats() const ADAPTRAJ_EXCLUDES(mu_);
  const EncodeCacheOptions& options() const { return options_; }

  /// Test hook: replaces the content hash (e.g. with a constant, forcing
  /// every key into one bucket to exercise the full-key compare fallback).
  /// Call only on an empty cache — existing entries keep their old hash.
  void set_hasher_for_test(std::function<uint64_t(const std::string&)> hasher)
      ADAPTRAJ_EXCLUDES(mu_);

 private:
  struct Entry {
    uint64_t hash = 0;
    std::string key;
    std::vector<float> value;
  };

  /// Reads hasher_override_, which set_hasher_for_test writes under mu_ —
  /// so hashing happens inside the critical section, not before it.
  uint64_t HashKey(const std::string& key) const ADAPTRAJ_REQUIRES(mu_);
  int64_t EntryBytes(const Entry& entry) const;
  /// Removes `it` from the index and the LRU list.
  void EraseLocked(std::list<Entry>::iterator it) ADAPTRAJ_REQUIRES(mu_);

  /// Immutable after construction; readable without mu_.
  EncodeCacheOptions options_;
  mutable support::Mutex mu_;
  /// MRU-first recency list owning the entries.
  std::list<Entry> lru_ ADAPTRAJ_GUARDED_BY(mu_);
  /// Hash -> entries with that hash (several after a collision).
  std::unordered_multimap<uint64_t, std::list<Entry>::iterator> index_
      ADAPTRAJ_GUARDED_BY(mu_);
  EncodeCacheStats stats_ ADAPTRAJ_GUARDED_BY(mu_);
  int64_t weights_version_ ADAPTRAJ_GUARDED_BY(mu_) = 0;
  bool has_weights_version_ ADAPTRAJ_GUARDED_BY(mu_) = false;
  std::function<uint64_t(const std::string&)> hasher_override_
      ADAPTRAJ_GUARDED_BY(mu_);
};

/// Builds the content key for row `row` of `batch`: identity header, the
/// extents that shape the encoder input (obs_len; neighbor-slot width M when
/// `include_neighbors`), then the raw float bytes the encoder reads for that
/// row — observed-history displacements and, when `include_neighbors`, the
/// row's neighbor displacement steps, offsets, and validity mask. Methods
/// whose encoder ignores neighbors (Counter encodes the counterfactual
/// scene; core::Method::encode_reads_neighbors() == false) get shorter keys
/// and legitimately higher hit rates. Padded neighbor slots hash as their
/// zero bytes, making M part of the key content: a scene cached at one slot
/// width misses at another — conservative, never wrong. serve::
/// InferenceEngine builds every batch at the fixed width options.sequence.
/// max_neighbors, so the keys it serves depend on the scene alone, not on
/// which scenes share its batch (only a scene with more neighbors than that
/// widens its batch and re-keys its batch mates).
std::string SceneEncodeKey(const std::string& identity, const data::Batch& batch,
                           int64_t row, bool include_neighbors);

}  // namespace serve
}  // namespace adaptraj

#endif  // ADAPTRAJ_SERVE_ENCODE_CACHE_H_
