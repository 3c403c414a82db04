#include "dataset/chunk_cache.h"

#include <algorithm>

#include "obs/metrics.h"

namespace bullion {

namespace {

/// Process-wide cache metrics. Occupancy gauges move by deltas, so
/// several live DecodedChunkCaches aggregate into one registry view;
/// latency histograms time the cache's own critical sections (lock +
/// copy), the cost a scan pays per probe.
struct CacheMetrics {
  obs::LatencyHistogram* hit_ns;
  obs::LatencyHistogram* miss_ns;
  obs::LatencyHistogram* insert_ns;
  obs::Gauge* bytes_used;
  obs::Gauge* entries;
};

CacheMetrics& Metrics() {
  static CacheMetrics m{
      obs::MetricsRegistry::Global().GetHistogram("bullion.cache.hit_ns"),
      obs::MetricsRegistry::Global().GetHistogram("bullion.cache.miss_ns"),
      obs::MetricsRegistry::Global().GetHistogram("bullion.cache.insert_ns"),
      obs::MetricsRegistry::Global().GetGauge("bullion.cache.bytes_used"),
      obs::MetricsRegistry::Global().GetGauge("bullion.cache.entries")};
  return m;
}

static_assert(DecodedChunkCache::kSketchWidth <= (1u << 16) &&
                  (DecodedChunkCache::kSketchWidth &
                   (DecodedChunkCache::kSketchWidth - 1)) == 0,
              "each sketch row is indexed by a 16-bit slice of the hash");

constexpr uint8_t kSketchMax = 15;  // 4-bit saturating counters

/// Row `row`'s counter for a key hashing to `hash`, indexed by bits
/// [16 row, 16 row + log2(kSketchWidth)) of the hash.
size_t SketchSlot(size_t row, uint64_t hash) {
  constexpr size_t kWidth = DecodedChunkCache::kSketchWidth;
  return row * kWidth + ((hash >> (16 * row)) & (kWidth - 1));
}

}  // namespace

size_t ApproxColumnVectorBytes(const ColumnVector& v) {
  size_t bytes = v.int_values().size() * sizeof(int64_t) +
                 v.real_values().size() * sizeof(double);
  for (const std::string& s : v.bin_values()) {
    bytes += s.size() + sizeof(std::string);
  }
  for (const auto& level : v.offsets()) {
    bytes += level.size() * sizeof(int64_t);
  }
  // Nullable columns carry a byte-per-row validity bitmap; without this
  // term they undercount and the LRU byte budget over-admits.
  bytes += v.validity().size() * sizeof(uint8_t);
  return bytes;
}

bool DecodedChunkCache::Lookup(const ChunkCacheKey& key, ColumnVector* out) {
  const uint64_t probe_start = obs::NowNs();
  const uint64_t hash = ChunkCacheKeyHash{}(key);
  bool hit = false;
  {
    MutexLock lock(&mu_);
    RecordProbeLocked(hash);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
      *out = it->second->value;
      hit = true;
    }
  }
  // Counters and histograms are recorded outside the critical section
  // on both paths: they are internally thread-safe, and holding mu_
  // across a metrics update would serialize concurrent probes.
  if (hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    Metrics().hit_ns->Record(obs::NowNs() - probe_start);
    return true;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  Metrics().miss_ns->Record(obs::NowNs() - probe_start);
  return false;
}

void DecodedChunkCache::Insert(const ChunkCacheKey& key,
                               const ColumnVector& value) {
  const uint64_t insert_start = obs::NowNs();
  size_t bytes = ApproxColumnVectorBytes(value);
  MutexLock lock(&mu_);
  const size_t bytes_before = size_bytes_;
  const size_t entries_before = lru_.size();
  auto it = index_.find(key);
  const bool resident = it != index_.end();
  if (resident) {
    // Two racing scans decoded the same chunk: the second replaces the
    // first without an admission test.
    size_bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  // Oversized chunk: caching it would immediately evict everything
  // else and then itself. A newcomer that needs room must have been
  // probed more often than the tail it would displace; on a tie the
  // resident stays, which is what keeps a cyclic scan's hits.
  const bool refused =
      bytes > capacity_bytes_ ||
      (!resident && !lru_.empty() && size_bytes_ + bytes > capacity_bytes_ &&
       EstimateLocked(ChunkCacheKeyHash{}(key)) <=
           EstimateLocked(ChunkCacheKeyHash{}(lru_.back().key)));
  if (refused) {
    rejects_.fetch_add(1, std::memory_order_relaxed);
    PublishOccupancyLocked(bytes_before, entries_before);
    Metrics().insert_ns->Record(obs::NowNs() - insert_start);
    return;
  }
  lru_.push_front(Entry{key, value, bytes});
  index_[key] = lru_.begin();
  size_bytes_ += bytes;
  EvictToFitLocked();
  PublishOccupancyLocked(bytes_before, entries_before);
  Metrics().insert_ns->Record(obs::NowNs() - insert_start);
}

void DecodedChunkCache::PublishOccupancyLocked(size_t bytes_before,
                                               size_t entries_before) {
  CacheMetrics& m = Metrics();
  if (size_bytes_ != bytes_before) {
    m.bytes_used->Add(static_cast<int64_t>(size_bytes_) -
                      static_cast<int64_t>(bytes_before));
  }
  if (lru_.size() != entries_before) {
    m.entries->Add(static_cast<int64_t>(lru_.size()) -
                   static_cast<int64_t>(entries_before));
  }
}

void DecodedChunkCache::RecordProbeLocked(uint64_t hash) {
  for (size_t row = 0; row < kSketchRows; ++row) {
    uint8_t& counter = sketch_[SketchSlot(row, hash)];
    if (counter < kSketchMax) ++counter;
  }
  if (++sketch_probes_ == 10 * kSketchWidth) {
    for (uint8_t& counter : sketch_) counter >>= 1;
    sketch_probes_ = 0;
  }
}

uint8_t DecodedChunkCache::EstimateLocked(uint64_t hash) const {
  uint8_t estimate = kSketchMax;
  for (size_t row = 0; row < kSketchRows; ++row) {
    estimate = std::min(estimate, sketch_[SketchSlot(row, hash)]);
  }
  return estimate;
}

void DecodedChunkCache::EvictToFitLocked() {
  while (size_bytes_ > capacity_bytes_ && !lru_.empty()) {
    const Entry& cold = lru_.back();
    size_bytes_ -= cold.bytes;
    index_.erase(cold.key);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

size_t DecodedChunkCache::InvalidateShard(uint32_t shard,
                                          uint32_t live_generation) {
  MutexLock lock(&mu_);
  const size_t bytes_before = size_bytes_;
  const size_t entries_before = lru_.size();
  size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.shard == shard && it->key.generation != live_generation) {
      size_bytes_ -= it->bytes;
      index_.erase(it->key);
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  invalidations_.fetch_add(dropped, std::memory_order_relaxed);
  PublishOccupancyLocked(bytes_before, entries_before);
  return dropped;
}

void DecodedChunkCache::Clear() {
  MutexLock lock(&mu_);
  const size_t bytes_before = size_bytes_;
  const size_t entries_before = lru_.size();
  lru_.clear();
  index_.clear();
  size_bytes_ = 0;
  PublishOccupancyLocked(bytes_before, entries_before);
}

DecodedChunkCache::~DecodedChunkCache() {
  MutexLock lock(&mu_);
  // Hand the residual occupancy back so the process gauges only ever
  // describe live caches.
  const size_t bytes_before = size_bytes_;
  const size_t entries_before = lru_.size();
  lru_.clear();
  index_.clear();
  size_bytes_ = 0;
  PublishOccupancyLocked(bytes_before, entries_before);
}

size_t DecodedChunkCache::size_bytes() const {
  MutexLock lock(&mu_);
  return size_bytes_;
}

size_t DecodedChunkCache::num_entries() const {
  MutexLock lock(&mu_);
  return lru_.size();
}

}  // namespace bullion
