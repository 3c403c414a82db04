// I/O accounting: every file wrapper in src/io reports into an IoStats
// so benches can report hardware-independent metrics (ops, bytes,
// distinct ranges) next to their measured wall time.
//
// Counters are atomic so one IoStats can be shared by every file
// handle of an InMemoryFileSystem while a parallel scan (src/exec)
// reads through them concurrently. Copying takes a relaxed snapshot of
// each counter; under concurrent updates the copy is per-counter
// consistent, not a cross-counter atomic snapshot — fine for the
// reporting these feed.
//
// IoStats counts only what file handles and writers do. Decoded-chunk
// cache traffic is counted by the cache itself
// (DecodedChunkCache::hits() and friends), and per-scan pruning and
// batch counts live in the scan's obs::PipelineReport.
//
// Phase accounting: prefer Snapshot() + IoStatsDelta(before, after)
// over Reset() between phases. Reset() on a SHARED stats object (e.g.
// an InMemoryFileSystem's) zeroes counters other live scans are still
// bumping — each counter individually ends up consistent (the ops
// land either side of the zeroing, nothing is torn), but cross-counter
// ratios from a mid-scan Reset are meaningless. Snapshots never
// perturb concurrent readers.

#pragma once

#include <atomic>
#include <cstdint>

namespace bullion {

/// The one list of I/O counters; every per-counter operation below
/// (and the bench reporters) expands it. In list order:
///  - read_ops, bytes_read: preads issued and bytes they returned.
///  - write_ops: logical write requests (one per Append/WriteAt a
///    caller issued, including appends an aggregation buffer
///    absorbed). A committed page is one write_op no matter how many
///    pages share a physical block.
///  - write_calls: physical write syscalls that hit the device (one
///    per block an AggregatedWriteBuffer flushed, or per direct
///    write). write_ops / write_calls is the write-batching factor.
///  - bytes_written: bytes those write requests carried.
///  - seeks: reads/writes not contiguous with the previous operation
///    (proxy for seeks on spinning/flash media).
///  - pages_encoded: pages encoded + committed by a TableWriter
///    (WriterOptions::stats). A parallel write shows pages_encoded /
///    write_ops / bytes_written identical to the serial writer.
///  - flush_calls: Flush() calls on a WritableFile.
#define BULLION_IO_COUNTERS(X) \
  X(read_ops)                  \
  X(bytes_read)                \
  X(write_ops)                 \
  X(write_calls)               \
  X(bytes_written)             \
  X(seeks)                     \
  X(pages_encoded)             \
  X(flush_calls)

/// \brief Plain-value copy of every IoStats counter at one moment —
/// per-counter consistent under concurrent updates. Cheap to hold,
/// diff, and serialize; the unit bench phase accounting works in.
struct IoStatsSnapshot {
#define BULLION_X(name) uint64_t name = 0;
  BULLION_IO_COUNTERS(BULLION_X)
#undef BULLION_X
};

/// Per-counter `after - before`: what happened between two snapshots
/// of one IoStats. The phase-boundary tool that replaces Reset()-ing
/// shared stats (counters only grow, so plain subtraction is exact).
inline IoStatsSnapshot IoStatsDelta(const IoStatsSnapshot& before,
                                    const IoStatsSnapshot& after) {
  IoStatsSnapshot d;
#define BULLION_X(name) d.name = after.name - before.name;
  BULLION_IO_COUNTERS(BULLION_X)
#undef BULLION_X
  return d;
}

/// \brief Counters describing the I/O a reader/writer performed.
struct IoStats {
#define BULLION_X(name) std::atomic<uint64_t> name{0};
  BULLION_IO_COUNTERS(BULLION_X)
#undef BULLION_X

  IoStats() = default;
  IoStats(const IoStats& o) { *this = o; }
  IoStats& operator=(const IoStats& o) {
#define BULLION_X(name) \
  name.store(o.name.load(std::memory_order_relaxed), std::memory_order_relaxed);
    BULLION_IO_COUNTERS(BULLION_X)
#undef BULLION_X
    return *this;
  }

  /// Relaxed plain-value snapshot of every counter. Under concurrent
  /// updates each counter is individually consistent (never torn);
  /// the set is not a cross-counter atomic cut.
  IoStatsSnapshot Snapshot() const {
    IoStatsSnapshot s;
#define BULLION_X(name) s.name = name.load(std::memory_order_relaxed);
    BULLION_IO_COUNTERS(BULLION_X)
#undef BULLION_X
    return s;
  }

  /// Zeroes every counter (same relaxed per-counter semantics as
  /// copying — not an atomic cross-counter snapshot). During a
  /// concurrent scan each counter independently lands at "ops since
  /// the zeroing swept past it"; prefer Snapshot() + IoStatsDelta for
  /// phase boundaries on shared stats.
  void Reset() {
#define BULLION_X(name) name.store(0, std::memory_order_relaxed);
    BULLION_IO_COUNTERS(BULLION_X)
#undef BULLION_X
  }

  IoStats& operator+=(const IoStats& o) {
#define BULLION_X(name) name += o.name.load(std::memory_order_relaxed);
    BULLION_IO_COUNTERS(BULLION_X)
#undef BULLION_X
    return *this;
  }
};

}  // namespace bullion
