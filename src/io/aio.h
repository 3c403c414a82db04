// The commit seam's write-batching layer (see src/io/README.md).
//
// Every pread and every block write runs on the thread that asks for
// it: the streaming scanner reads each coalesced read of a plan itself
// and hands the bytes to a decode task, and AggregatedWriteBuffer
// writes each block on the committing thread when it fills. No I/O
// thread, ring or callback sits in between.

#pragma once

#include <cstdint>

#include "common/buffer.h"
#include "common/status.h"
#include "io/file.h"

namespace bullion {

/// Stays for perfbench, which names kUring; only kSync runs.
enum class AioTier {
  kSync = 0,
  kThreads = 1,
  kUring = 2,
};

/// Stays for perfbench's provenance line.
const char* AioTierName(AioTier tier);

/// Stays for perfbench; always kSync (I/O runs on the caller's thread).
AioTier DefaultAioTier();

/// \brief Write-batching layer: a WritableFile that absorbs the many
/// small page appends of a CommitEncodedGroup into large sequential
/// blocks of exactly `block_bytes` (default 1 MiB in WriterOptions),
/// each written through the base file's AppendBlock on the calling
/// thread as soon as it fills.
///
/// Bytes on disk are identical to writing through the base file
/// directly: blocks go out in absorption order and the partial tail
/// goes out on Flush (or before a WriteAt). Logical appends count into
/// the base file's IoStats::write_ops at absorption time; each block
/// counts one write_call when it is written (AppendBlock). The first
/// failed block write is sticky: that Append and every later call
/// return it.
///
/// Not thread-safe: one writer thread per instance, matching the
/// ordered commit discipline of format::TableWriter.
class AggregatedWriteBuffer : public WritableFile {
 public:
  /// `base` must outlive this object; `block_bytes` must be positive.
  AggregatedWriteBuffer(WritableFile* base, size_t block_bytes);

  Status Append(Slice data) override;
  /// Writes the partial block, then flushes the base file.
  Status Flush() override;
  /// Logical size: base size plus bytes still buffered.
  Result<uint64_t> Size() const override;
  /// In-place updates bypass aggregation; the partial block is written
  /// first so the bytes being overwritten are in the base file.
  Status WriteAt(uint64_t offset, Slice data) override;

  IoStats* stats() const override { return base_->stats(); }

 private:
  /// Writes the buffered bytes (if any) as one AppendBlock; returns the
  /// sticky error.
  Status WriteBlock();

  WritableFile* base_;
  size_t block_bytes_;
  Buffer block_;           // filling; never holds more than block_bytes_
  uint64_t size0_ = 0;     // base size at construction
  uint64_t absorbed_ = 0;  // logical bytes accepted
  Status error_;           // sticky first block-write failure
};

}  // namespace bullion
