// Process-wide metrics: lock-free Counter / Gauge / LatencyHistogram
// primitives and a MetricsRegistry that owns named instances and
// serializes consistent snapshots to JSON and Prometheus text
// exposition format.
//
// Design targets (the scan/write pipelines record from every worker
// thread):
//   * Recording is wait-free: one relaxed fetch_add for counters and
//     gauges, a handful for a histogram sample. No locks, no
//     allocation, safe from any thread.
//   * Registration is rare and mutex-guarded; the returned pointers
//     are stable for the registry's lifetime, so call sites fetch
//     them once into a function-local static and record through the
//     raw pointer afterwards.
//   * Snapshots are per-metric consistent (each histogram's buckets
//     are read into a local array before deriving count/quantiles, so
//     count always equals the bucket sum) but not a cross-metric
//     atomic cut — same contract as IoStats copying.
//
// Histogram shape: log-bucketed with 4 sub-buckets per power of two
// (values 0..3 are exact), 252 buckets covering the full uint64 range.
// Bucket width is 25% of the bucket's lower bound, so quantiles
// estimated at bucket midpoints carry <= ~12.5% relative error —
// plenty for p50/p99 latency reporting, at 2KB per histogram.
//
// Naming convention: dot-separated "bullion.<subsystem>.<metric>"
// with a unit suffix ("_ns", "_bytes"). Prometheus output rewrites
// the dots to underscores. See src/obs/README.md.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace bullion {
namespace obs {

/// Monotonic nanosecond clock used by every obs timestamp.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Appends printf-style output to `*out`, however long it formats.
void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// \brief Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// \brief Instantaneous level (queue depth, resident bytes, busy
/// workers). Add() with deltas aggregates correctly across several
/// sources feeding one gauge.
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// \brief One consistent view of a histogram: count equals the sum of
/// the bucket counts the quantiles were derived from.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  // 0 when count == 0
  uint64_t max = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double p999 = 0;

  double mean() const {
    return count == 0 ? 0 : static_cast<double>(sum) / count;
  }
};

/// \brief Log-bucketed, lock-free latency histogram. Record values in
/// nanoseconds; Snapshot() yields count/sum/min/max and estimated
/// p50/p90/p99/p999 with <= ~12.5% relative bucket error.
class LatencyHistogram {
 public:
  /// Sub-bucket resolution: 1 << kSubBits linear sub-buckets per
  /// power-of-two range.
  static constexpr uint64_t kSubBits = 2;
  /// Values 0..3 exact, then 4 sub-buckets for each of msb 2..63.
  static constexpr size_t kNumBuckets = 4 + 62 * 4;

  void Record(uint64_t value_ns) {
    buckets_[BucketIndex(value_ns)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value_ns, std::memory_order_relaxed);
    AtomicMin(&min_, value_ns);
    AtomicMax(&max_, value_ns);
  }

  HistogramSnapshot Snapshot() const;
  void Reset();

  /// Bucket of `v` (exposed for the accuracy tests).
  static size_t BucketIndex(uint64_t v) {
    if (v < 4) return static_cast<size_t>(v);
    // Highest set bit; v >= 4 so msb >= 2 and the shift is in range.
    uint64_t msb = 63 - static_cast<uint64_t>(__builtin_clzll(v));
    return static_cast<size_t>((msb - 1) * 4 + ((v >> (msb - 2)) & 3));
  }

  /// Smallest value that lands in bucket `i`.
  static uint64_t BucketLowerBound(size_t i) {
    if (i < 4) return i;
    uint64_t msb = i / 4 + 1;
    return (uint64_t{1} << msb) | (static_cast<uint64_t>(i & 3) << (msb - 2));
  }

  /// Width of bucket `i` in value units.
  static uint64_t BucketWidth(size_t i) {
    return i < 4 ? 1 : uint64_t{1} << (i / 4 - 1);
  }

 private:
  static void AtomicMin(std::atomic<uint64_t>* slot, uint64_t v) {
    uint64_t cur = slot->load(std::memory_order_relaxed);
    while (v < cur &&
           !slot->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void AtomicMax(std::atomic<uint64_t>* slot, uint64_t v) {
    uint64_t cur = slot->load(std::memory_order_relaxed);
    while (v > cur &&
           !slot->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<uint64_t> buckets_[kNumBuckets]{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

/// \brief One registry snapshot: every metric by name, sorted (the
/// registry maps are ordered), serializable to JSON and Prometheus.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  std::string ToJson() const;
  std::string ToPrometheusText() const;
};

/// \brief Owns named metrics. Get* registers on first use and returns
/// the same stable pointer afterwards; recording through the pointer
/// never takes the registry lock. Counter, gauge, and histogram
/// namespaces are distinct, but sharing one name across kinds confuses
/// every downstream consumer — don't.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyHistogram* GetHistogram(const std::string& name);

  RegistrySnapshot Snapshot() const;
  std::string ToJson() const { return Snapshot().ToJson(); }
  std::string ToPrometheusText() const { return Snapshot().ToPrometheusText(); }

  /// Zeroes every registered metric (bench phase boundaries).
  void ResetAll();

  /// The process-wide registry every subsystem reports into.
  /// Intentionally immortal (never destructed) so worker threads and
  /// atexit hooks can record at any point of shutdown.
  static MetricsRegistry& Global();

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_
      GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace bullion
