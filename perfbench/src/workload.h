// The three workloads of the repository benchmark and the protocol
// main.cc runs them under:
//
//   Generate(seed)   inputs from the seed (untimed)
//   Setup(seam)      write the starting dataset through the public
//                    write path on the 2-worker pool, then open it
//                    (timed: setup_s)
//   Warmup()         untimed, until cache and allocator settle
//   Run(seconds)     the closed-loop timed phase
//   Verify()         the correctness gate, outside the timed phase
//
// Every workload drives the library from at most three threads of its
// own (the library's AIO lane comes on top).

#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// Encode and decode workers every workload shares.
inline constexpr size_t kPoolWorkers = 2;

/// What one timed phase measured. Storage per request stays small (4
/// bytes per latency sample) because it is resident during the phase
/// and would otherwise grow with throughput inside peak_rss_mb. An
/// outcome whose start_ns is 0 (warm-up, checks) keeps only the counts.
struct PhaseOutcome {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t ops = 0;  // the workload's op: rows delivered / lookups / rows appended
  std::vector<float> latency_us;
  uint64_t attempted = 0;  // requests issued
  uint64_t failed = 0;     // requests that errored or were wrong
  /// VmHWM read as the timed loop ends, before samples are merged.
  double peak_rss_mb = -1;

  /// Starts the phase clock and reserves sample storage up front, so it
  /// never reallocates mid-phase (untouched reserve is not resident).
  void Start(uint64_t now_ns) {
    start_ns = end_ns = now_ns;
    latency_us.reserve(size_t{1} << 22);
  }

  /// Records one request that ran over [begin_ns, end_ns].
  void AddLatency(uint64_t begin_ns, uint64_t end_ns_) {
    if (start_ns == 0) return;
    latency_us.push_back(static_cast<float>((end_ns_ - begin_ns) / 1e3));
  }

  /// Adds another client's outcome of the same phase (same start_ns).
  void Merge(const PhaseOutcome& o) {
    ops += o.ops;
    attempted += o.attempted;
    failed += o.failed;
    end_ns = std::max(end_ns, o.end_ns);
    latency_us.insert(latency_us.end(), o.latency_us.begin(), o.latency_us.end());
  }

  double wall_s() const { return (end_ns - start_ns) / 1e9; }
};

/// User bytes of the live dataset, split the way the encoding.* metrics
/// are (sparse id-sequence leaves vs every other leaf).
struct UserBytesSplit {
  uint64_t sparse = 0;
  uint64_t dense = 0;
  uint64_t total() const { return sparse + dense; }
};

/// Per-layer figures only the workload itself can produce (object
/// counters, attached reports, delete reports). main.cc fills the
/// rest from spans, the seam, registry deltas and getrusage.
using MetricMap = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  virtual void Generate(uint64_t seed) = 0;
  /// Replaces any earlier dataset; `seam` outlives the workload's use
  /// of it (until the next Setup).
  virtual Status Setup(Seam* seam) = 0;
  /// Drops generated inputs the timed phases no longer need, so they do
  /// not count in peak_rss_mb. Called after the last Setup().
  virtual void ReleaseInputs() {}
  virtual Status Warmup() = 0;
  /// `traced` attaches the per-request reports the layer metrics need.
  virtual PhaseOutcome Run(double seconds, bool traced) = 0;
  /// Returns the number of failed checks (0 = correct).
  virtual uint64_t Verify() = 0;

  /// User bytes written by the last Setup() and by the timed phases
  /// since (the written_bytes_per_user_byte denominator).
  virtual uint64_t setup_user_bytes() const = 0;
  virtual uint64_t timed_user_bytes() const = 0;
  /// User bytes of the live rows now.
  virtual UserBytesSplit live_user_bytes() const = 0;
  /// Files of the live dataset (names under the seam directory).
  virtual std::vector<std::string> live_files() const = 0;

  /// Layer figures of the last timed phase (see MetricMap).
  virtual void LayerMetrics(MetricMap* out) const = 0;
  /// Ring-read bytes of the last timed phase that the seam could not
  /// see (from attached PipelineReports; traced phases only).
  virtual uint64_t unseen_read_bytes() const { return 0; }
  /// One JSON object describing the workload's sizes.
  virtual std::string SizesJson() const = 0;
};

std::unique_ptr<Workload> MakeTrainScan();
std::unique_ptr<Workload> MakeServeLookup();
std::unique_ptr<Workload> MakeIngestDelete();

}  // namespace perfbench
