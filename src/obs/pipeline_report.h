// PipelineReport: per-scan / per-write pipeline accounting, attachable
// via ScanStreamBuilder::Report() and the TableWriter constructor.
//
// A report describes one pipeline: what it produced (rows, bytes,
// units, batches), how many row groups a scan's planner pruned before
// any pread, its decoded-chunk cache probes, and WHERE the time went,
// per stage, with a latency distribution for the fanned-out work
// units. File-handle counts (preads, writes, seeks) live in IoStats,
// not here.
//
//   read side  (exec/batch_stream.cc)      write side (format/writer.cc)
//   ---------------------------------      -----------------------------
//   plan_ns     OpenScanStream: resolve    (not recorded)
//               the spec and prune row
//               groups, before wall_ns
//   prepare_ns  unit prepare + read plan   stage (validate/sort/slice)
//   work_ns     fetch + decode, summed     page encode, summed across
//               across worker threads,     worker threads
//               plus late-materialized
//               page runs
//   emit_ns     residual filter + batch    ordered commit (append +
//               slicing                    footer bookkeeping)
//   stall_ns    consumer blocked on the    producer blocked joining the
//               in-flight window           oldest in-flight group
//   work_hist   one sample per coalesced   one sample per encoded page
//               read (fetch+decode ns)
//
// work_ns sums across workers, so at N threads it can legitimately
// exceed wall_ns — that surplus IS the parallel speedup. stall_ns is
// time the consumer sat waiting on the window head instead of
// overlapping I/O with compute.
//
// Thread-safety: all fields are atomics recorded from worker threads;
// reading while a scan is live yields per-field consistent values
// (same contract as IoStats). Reuse across runs accumulates; call
// Reset() between phases.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace bullion {
namespace obs {

/// \brief Stage-level timing + throughput for one scan or write.
struct PipelineReport {
  std::atomic<uint64_t> rows{0};      // rows emitted / committed
  std::atomic<uint64_t> bytes{0};     // bytes fetched / appended
  std::atomic<uint64_t> units{0};     // row groups completed
  std::atomic<uint64_t> batches{0};   // batches emitted / pages encoded
  /// Scan pruning (exec/batch_stream.h): row groups the planner
  /// skipped because footer zone maps or chunk Bloom filters proved no
  /// row could match.
  std::atomic<uint64_t> groups_pruned{0};
  /// Dataset scans with a DecodedChunkCache: chunk probes the scan's
  /// planner served from the cache, and probes that missed and were
  /// fetched and decoded.
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};

  /// Scan planning (spec resolution + row-group pruning) before the
  /// stream exists; not part of wall_ns.
  std::atomic<uint64_t> plan_ns{0};
  std::atomic<uint64_t> prepare_ns{0};
  std::atomic<uint64_t> work_ns{0};
  std::atomic<uint64_t> emit_ns{0};
  std::atomic<uint64_t> stall_ns{0};
  /// Wall time of the pipeline (stream open -> drained, or writer
  /// construction -> Finish).
  std::atomic<uint64_t> wall_ns{0};

  /// Per-work-unit latency (one coalesced fetch+decode / one page
  /// encode).
  LatencyHistogram work_hist;

  PipelineReport() = default;
  PipelineReport(const PipelineReport&) = delete;
  PipelineReport& operator=(const PipelineReport&) = delete;

  void Reset();

  double wall_seconds() const {
    return static_cast<double>(wall_ns.load(std::memory_order_relaxed)) / 1e9;
  }
  double rows_per_sec() const {
    double w = wall_seconds();
    return w > 0 ? static_cast<double>(rows.load(std::memory_order_relaxed)) / w
                 : 0;
  }
  double bytes_per_sec() const {
    double w = wall_seconds();
    return w > 0
               ? static_cast<double>(bytes.load(std::memory_order_relaxed)) / w
               : 0;
  }

  /// Human-readable multi-line stage table.
  std::string ToString() const;
  /// One JSON object (stages + throughput + work histogram).
  std::string ToJson() const;
};

}  // namespace obs
}  // namespace bullion
