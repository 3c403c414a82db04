// Shared machinery of the repository benchmark (see perfbench/README.md):
//
//   * the file seam: every opener the benchmark hands the library wraps
//     the POSIX handles in counting files, so I/O is attributed from
//     outside the library. Untraced runs only count (relaxed atomics,
//     no clock reads); traced runs also record a span per call.
//   * the span recorder behind traced runs (name, start, end, parent,
//     request id), written at exit as Chrome trace-event JSON.
//   * latency samples, registry deltas, process probes (getrusage,
//     /proc/stat steal, /proc/self/clear_refs + VmHWM), and the
//     benchmark's own user-byte accounting, which never calls into the
//     library so a later change there cannot move the denominator.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/bullion.h"

namespace perfbench {

using bullion::ColumnVector;
using bullion::RandomAccessFile;
using bullion::Result;
using bullion::Status;
using bullion::WritableFile;

// ------------------------------------------------------------------ spans

struct SpanRecord {
  const char* name = nullptr;  // string literal
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // epoch / lookup / cycle number; 0 = none
  uint32_t tid = 0;
  int64_t arg = -1;  // span-specific tag (hit flag); -1 = none
};

/// Benchmark-side span recorder. Disabled, a ScopedSpan costs one
/// relaxed load and never reads the clock.
class Tracer {
 public:
  static void Enable(bool on);
  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }
  /// Request id stamped on spans begun by the calling thread.
  static void SetRequest(uint64_t request);
  /// Every span recorded so far, across threads, sorted by start.
  static std::vector<SpanRecord> Collect();
  static void Clear();

 private:
  static std::atomic<bool> enabled_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t arg = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool on_;
  uint64_t saved_parent_ = 0;
  SpanRecord rec_;
};

/// Per span name: count, total and self time (duration minus the part
/// its child spans cover), plus every duration for percentiles.
struct SpanStats {
  uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
  std::vector<double> durations_us;
  std::vector<double> durations_us_by_arg[2];  // arg 0 / arg 1
};
std::map<std::string, SpanStats> SummarizeSpans(
    const std::vector<SpanRecord>& spans);

/// Writes the first `max_spans` of `spans` (sorted by start) as a Chrome
/// trace-event JSON array (Perfetto loads it). Returns false if the file
/// cannot be written.
bool WriteChromeTrace(const std::vector<SpanRecord>& spans, size_t max_spans,
                      const std::string& path);

// --------------------------------------------------------------- the seam

struct SeamCounters {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> read_bytes{0};
  std::atomic<uint64_t> appends{0};
  std::atomic<uint64_t> append_blocks{0};
  std::atomic<uint64_t> write_ats{0};
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> flushes{0};
  std::atomic<uint64_t> failed{0};
};

struct SeamSnapshot {
  uint64_t reads = 0, read_bytes = 0, appends = 0, append_blocks = 0,
           write_ats = 0, bytes_written = 0, flushes = 0, failed = 0;
  uint64_t write_calls() const { return appends + append_blocks + write_ats; }
  SeamSnapshot operator-(const SeamSnapshot& o) const;
};

/// The benchmark's wrapper around the file handles it hands every
/// opener: POSIX files under one scratch directory, counted per call.
/// RawFd() is forwarded so the io_uring tier still runs; ring reads
/// then bypass Read() and are taken from the bullion.aio.* deltas.
class Seam {
 public:
  explicit Seam(std::string dir) : dir_(std::move(dir)) {}

  const std::string& dir() const { return dir_; }
  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  Result<std::unique_ptr<RandomAccessFile>> OpenRead(const std::string& name);
  Result<std::unique_ptr<WritableFile>> OpenWrite(const std::string& name);
  /// Opens an existing file for in-place updates (no truncation).
  Result<std::unique_ptr<WritableFile>> OpenUpdate(const std::string& name);
  Status Remove(const std::string& name);

  /// Opener closures in the shapes the library takes.
  std::function<Result<std::unique_ptr<RandomAccessFile>>(const std::string&)>
  ReadOpener() {
    return [this](const std::string& n) { return OpenRead(n); };
  }
  std::function<Result<std::unique_ptr<WritableFile>>(const std::string&)>
  WriteOpener() {
    return [this](const std::string& n) { return OpenWrite(n); };
  }

  /// Whole-file helpers for the manifest blob.
  Status WriteWholeFile(const std::string& name, bullion::Slice data);
  Result<bullion::Buffer> ReadWholeFile(const std::string& name);

  SeamSnapshot Snapshot() const;

 private:
  std::string dir_;
  SeamCounters counters_;
};

// ------------------------------------------------------- registry deltas

/// The library metrics the per-layer figures are derived from.
struct RegistrySnapshot {
  uint64_t queue_wait_count = 0, queue_wait_sum = 0;
  uint64_t decode_count = 0, decode_sum = 0;
  uint64_t encode_count = 0, encode_sum = 0;
  uint64_t cache_insert_count = 0, cache_insert_sum = 0;
  uint64_t aio_inflight_count = 0, aio_inflight_sum = 0;
  uint64_t bloom_probes = 0, bloom_negatives = 0;
  static RegistrySnapshot Take();
  RegistrySnapshot operator-(const RegistrySnapshot& o) const;
};

// -------------------------------------------------------- process probes

/// The host's CPU time counters from the /proc/stat "cpu" line, in
/// jiffies summed over every CPU: time stolen by the hypervisor, and all.
struct CpuStat {
  uint64_t steal = 0;
  uint64_t total = 0;
  static CpuStat Read();
};

struct ProcessSnapshot {
  double user_s = 0, sys_s = 0;
  uint64_t minor_faults = 0, vol_ctx_switches = 0;
  CpuStat cpu;
  static ProcessSnapshot Take();
};

/// Resets the resident high-water mark (writes 5 to clear_refs).
bool ResetPeakRss();
/// VmHWM in MB, or -1 if unreadable.
double PeakRssMb();
/// Share of the host's CPU time stolen between two readings.
double StealFrac(const CpuStat& a, const CpuStat& b);

// ----------------------------------------------------------- measurement

uint64_t NowNs();

/// Seeded 64-bit mix: the benchmark's deterministic "random" choices
/// (sampled epochs, generated values, deletion victims) hash the seed
/// with a counter through this.
inline uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9E3779B97F4A7C15ull ^ (b + 0x632BE59BD9B4E019ull);
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 29;
  return x;
}

/// Linear-interpolated quantile of `v` (0 <= q <= 1); 0 when empty.
double Quantile(std::vector<double> v, double q);
double Mean(const std::vector<double>& v);

/// Bytes a user hands the store for rows [row_begin, row_end) of `v`:
/// each value at its physical width, binary values at their length, 4
/// bytes per list length. Deliberately independent of the library.
uint64_t UserBytes(const ColumnVector& v, size_t row_begin, size_t row_end);
inline uint64_t UserBytes(const ColumnVector& v) {
  return UserBytes(v, 0, v.num_rows());
}

/// Content checksum of rows [row_begin, row_end) of `v` (values and
/// list lengths; offsets are rebased so slices of equal content hash
/// equal).
uint64_t Checksum(const ColumnVector& v, size_t row_begin, size_t row_end);
inline uint64_t Checksum(const ColumnVector& v) {
  return Checksum(v, 0, v.num_rows());
}

/// Heap bytes of a decoded vector as the benchmark sizes working sets:
/// 8 bytes per value slot and offset, string headers plus payloads.
uint64_t DecodedBytes(const ColumnVector& v);

/// Stored bytes of the chunks of leaf `column` across every group of
/// an opened footer (sum of page slot sizes).
uint64_t ChunkBytes(const bullion::FooterView& footer, uint32_t column);

/// True for the sparse id-sequence leaves (list<int64> tagged
/// kIdSequence) the encoding.sparse_* metrics cover.
bool IsSparseLeaf(const bullion::ColumnRecord& rec);

}  // namespace perfbench
