// DecodedChunkCache: a byte-budgeted, thread-safe cache of *decoded*
// column chunks, keyed by (shard, row group, column): LRU eviction
// order behind a frequency-gated admission test.
//
// ML training rereads the same table epoch after epoch; the expensive
// part of a warm re-scan is not the pread (the page cache absorbs
// that) but re-running page decode for every chunk. Caching at the
// decoded-ColumnVector granularity lets a warm epoch skip fetch AND
// decode: the dataset scanner consults the cache before planning any
// I/O, so fully-cached row groups issue zero preads (observable via
// IoStats.read_ops).
//
// The key includes the decode-affecting ReadOptions bits
// (filter_deleted, and verify_checksums — a verifying scan must not be
// served chunks a non-verifying scan decoded past a bad checksum) so
// one cache can serve scans with different options without mixing
// incompatible decodes. Same hot-entry LRU
// shape as pull-based ID/LOC control-plane caches (Almasan et al.):
// hits refresh recency, inserts evict from the cold tail until the
// byte budget holds.
//
// Plain LRU keeps nothing of a cyclic scan larger than its budget:
// every chunk of an epoch evicts one the next epoch needs first. So
// admission is frequency-gated, as in TinyLFU (Einziger, Friedman and
// Manes, ACM Transactions on Storage 2017): every Lookup, hit or miss,
// records its key in a small count-min sketch, and an Insert that would
// have to evict admits the new chunk only if the sketch says it was
// probed more often than the LRU tail it would displace. Ties keep the
// resident, so an epoch scan settles on a stable part of the epoch and
// serves it decoded in every later epoch. The sketch halves every
// counter after 10 x kSketchWidth probes, so a dead entry (say, one
// decoded before an in-place delete, whose key no scan probes again)
// loses its advantage within one period. A cache that never fills
// never makes an admission decision.
//
// Thread safety: all methods are safe to call concurrently; one mutex
// guards the map, the LRU list and the sketch. Lookups copy the cached
// vector out under the lock (decoded chunks are modest — row_group_rows
// × value width — and copying keeps the entry lifetime trivially
// correct while worker threads race with evictions). Cache traffic is
// counted once, in the cache's own atomics: hits() / misses() /
// evictions() / rejects() / invalidations().

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "format/column_vector.h"

namespace bullion {

/// \brief Identity of one decoded chunk in a sharded dataset.
struct ChunkCacheKey {
  uint32_t shard = 0;        // shard index in the manifest
  uint32_t row_group = 0;    // shard-local row group
  uint32_t column = 0;       // leaf column index
  // Decode-affecting ReadOptions bits.
  bool filter_deleted = true;
  bool verify_checksums = false;
  /// Rewrite generation of the shard file the chunk was decoded from
  /// (ShardInfo::generation). Compaction bumps the generation, so a
  /// post-compaction scan can never be served a pre-compaction chunk —
  /// stale entries simply stop matching and age off the LRU tail (or
  /// are dropped eagerly via InvalidateShard).
  uint32_t generation = 0;
  /// The group's deleted-row count in the footer the chunk was decoded
  /// under — the delete epoch. In-place deletion (§2.1) changes what a
  /// decode produces (filtered rows, erased placeholders) WITHOUT
  /// bumping the shard generation, so a scan whose footer shows more
  /// tombstones must not be served a pre-delete chunk.
  uint32_t deleted_rows = 0;

  bool operator==(const ChunkCacheKey& o) const {
    return shard == o.shard && row_group == o.row_group &&
           column == o.column && filter_deleted == o.filter_deleted &&
           verify_checksums == o.verify_checksums &&
           generation == o.generation && deleted_rows == o.deleted_rows;
  }
};

struct ChunkCacheKeyHash {
  size_t operator()(const ChunkCacheKey& k) const {
    uint64_t h = (static_cast<uint64_t>(k.shard) << 33) ^
                 (static_cast<uint64_t>(k.row_group) << 1) ^
                 (static_cast<uint64_t>(k.column) << 17) ^
                 (static_cast<uint64_t>(k.generation) * 0xD6E8FEB86659FD93ull) ^
                 (static_cast<uint64_t>(k.deleted_rows) * 0xA24BAED4963EE407ull) ^
                 (k.filter_deleted ? 0x9E3779B97F4A7C15ull : 0) ^
                 (k.verify_checksums ? 0xC2B2AE3D27D4EB4Full : 0);
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
    return static_cast<size_t>(h);
  }
};

/// Approximate heap footprint of a decoded chunk (values + offsets +
/// string payloads) — the unit the cache budget is charged in.
size_t ApproxColumnVectorBytes(const ColumnVector& v);

/// \brief Thread-safe, byte-budgeted LRU of decoded column chunks with
/// frequency-gated admission.
class DecodedChunkCache {
 public:
  /// Counters per row of the admission sketch (4 rows of saturating
  /// 4-bit counters, one byte each).
  static constexpr size_t kSketchWidth = 4096;

  /// `capacity_bytes` bounds the sum of ApproxColumnVectorBytes over
  /// resident entries.
  explicit DecodedChunkCache(size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes),
        sketch_(kSketchRows * kSketchWidth, 0) {}

  /// Returns this cache's residual occupancy to the process-wide
  /// registry gauges (bullion.cache.bytes_used / bullion.cache.entries).
  ~DecodedChunkCache();

  DecodedChunkCache(const DecodedChunkCache&) = delete;
  DecodedChunkCache& operator=(const DecodedChunkCache&) = delete;

  /// Copies the cached chunk into `*out` and refreshes its recency.
  /// Returns false (and counts a miss) if absent. Hit or miss, the probe
  /// is recorded in the admission sketch.
  bool Lookup(const ChunkCacheKey& key, ColumnVector* out);

  /// Inserts (or replaces) the chunk, evicting cold entries until the
  /// budget holds. A resident key is replaced unconditionally. A new
  /// key that needs room in a non-empty cache is admitted only if it
  /// was probed more often than the LRU tail; a refused chunk is not
  /// copied. Refusals (this one, and a chunk larger than the whole
  /// budget) are counted in rejects(). Insert records no probe.
  void Insert(const ChunkCacheKey& key, const ColumnVector& value);

  /// Drops every resident entry of shard `shard` whose generation is
  /// not `live_generation` — the eager half of compaction-time
  /// invalidation (the generation in the key already guarantees stale
  /// entries can't be served; this frees their budget immediately).
  /// Returns the number of entries dropped (also counted in
  /// invalidations()).
  size_t InvalidateShard(uint32_t shard, uint32_t live_generation);

  /// Drops every entry (no eviction counts — this is a reset, not
  /// pressure).
  void Clear();

  size_t capacity_bytes() const { return capacity_bytes_; }
  size_t size_bytes() const;
  size_t num_entries() const;

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Inserts refused: the chunk alone exceeds the byte budget, or it
  /// needed room and was probed no more often than the LRU tail.
  uint64_t rejects() const { return rejects_.load(std::memory_order_relaxed); }
  /// Entries dropped by InvalidateShard (stale generations).
  uint64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    ChunkCacheKey key;
    ColumnVector value;
    size_t bytes = 0;
  };
  using LruList = std::list<Entry>;
  static constexpr size_t kSketchRows = 4;

  /// Counts one probe of the key hashing to `hash` in the sketch,
  /// halving every counter once 10 x kSketchWidth probes accumulate.
  void RecordProbeLocked(uint64_t hash) REQUIRES(mu_);
  /// Count-min estimate of how often the key hashing to `hash` was
  /// probed (since the last halving, roughly).
  uint8_t EstimateLocked(uint64_t hash) const REQUIRES(mu_);

  /// Pops cold-tail entries until size_bytes_ <= capacity.
  void EvictToFitLocked() REQUIRES(mu_);
  /// Publishes occupancy movement to the registry gauges as deltas, so
  /// several live caches sum correctly. Pass the occupancy observed
  /// before the mutation.
  void PublishOccupancyLocked(size_t bytes_before, size_t entries_before)
      REQUIRES(mu_);

  const size_t capacity_bytes_;

  mutable Mutex mu_;
  LruList lru_ GUARDED_BY(mu_);  // front = hottest
  std::unordered_map<ChunkCacheKey, LruList::iterator, ChunkCacheKeyHash>
      index_ GUARDED_BY(mu_);
  size_t size_bytes_ GUARDED_BY(mu_) = 0;
  /// kSketchRows rows of kSketchWidth counters, row after row; each
  /// row is indexed by its own 16-bit slice of ChunkCacheKeyHash.
  std::vector<uint8_t> sketch_ GUARDED_BY(mu_);
  size_t sketch_probes_ GUARDED_BY(mu_) = 0;  // since the last halving

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> rejects_{0};
  std::atomic<uint64_t> invalidations_{0};
};

}  // namespace bullion
