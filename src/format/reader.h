// TableReader: opens a Bullion file with two preads (trailer + footer),
// then serves projection reads straight off the zero-copy FooterView.
//
// Opening never deserializes per-column metadata — the Fig. 5 claim.
// Projection reads are layered plan → fetch → decode:
//   plan   PlanProjection() maps the projection's chunk ranges to a
//          coalesced ReadPlan (io/read_planner.h; Alpha-style merging
//          capped at ReadOptions::max_coalesced_bytes),
//   fetch  each CoalescedRead is one pread() against the (thread-safe)
//          RandomAccessFile,
//   decode ExecuteCoalescedRead() decodes every chunk the read covers
//          into its projection slot.
// ReadProjection() runs the three stages serially; the exec/ layer
// (BatchStream, behind bullion::Scan) drives the same stages with
// coalesced reads fanned out across a thread pool. All reader methods
// are const and safe to call from multiple threads concurrently.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/result.h"
#include "common/status.h"
#include "format/column_vector.h"
#include "format/footer.h"
#include "format/schema.h"
#include "io/file.h"
#include "io/read_planner.h"

namespace bullion {

struct ReadOptions {
  /// Drop rows whose deletion-vector bit is set (levels 1/2).
  bool filter_deleted = true;
  /// Verify page checksums against the footer Merkle leaves.
  bool verify_checksums = false;
  /// Merge reads whose gap is at most this many bytes.
  uint64_t coalesce_gap_bytes = kDefaultCoalesceGapBytes;
  /// Upper bound for one coalesced I/O (Alpha uses 1.25 MiB).
  uint64_t max_coalesced_bytes = kDefaultMaxCoalescedBytes;
};

/// \brief Read handle over one Bullion file.
class TableReader {
 public:
  /// Opens the file: pread trailer, pread footer, O(1) header parse.
  static Result<std::unique_ptr<TableReader>> Open(
      std::unique_ptr<RandomAccessFile> file);

  const FooterView& footer() const { return footer_view_; }
  uint64_t num_rows() const { return footer_view_.num_rows(); }
  uint32_t num_row_groups() const { return footer_view_.num_row_groups(); }
  uint32_t num_columns() const { return footer_view_.num_columns(); }

  /// Resolves leaf column names to indices via the footer's binary
  /// name index.
  Result<std::vector<uint32_t>> ResolveColumns(
      const std::vector<std::string>& names) const;

  /// Reads one column chunk (group g, logical column c), realigning
  /// rows physically removed by in-place deletion and, if requested,
  /// filtering deleted rows out.
  Status ReadColumnChunk(uint32_t g, uint32_t c, const ReadOptions& options,
                         ColumnVector* out) const;

  /// Plan stage: maps a projection of row group `g` to a coalesced
  /// ReadPlan. Each planned chunk's user_index is the position of its
  /// column in `columns` (the projection slot). Pure metadata work —
  /// no I/O.
  Result<ReadPlan> PlanProjection(uint32_t g,
                                  const std::vector<uint32_t>& columns,
                                  const ReadOptions& options) const;

  /// Fetch + decode stages for one planned read: preads
  /// [read.begin, read.end) once and decodes every covered chunk into
  /// `(*out)[chunk.user_index]`. `out` must already have one slot per
  /// projection column. Distinct reads touch distinct slots, so
  /// multiple ExecuteCoalescedRead calls (even for different groups)
  /// may run concurrently against non-overlapping outputs.
  Status ExecuteCoalescedRead(uint32_t g,
                              const std::vector<uint32_t>& columns,
                              const CoalescedRead& read,
                              const ReadOptions& options,
                              std::vector<ColumnVector>* out) const;

  /// Decode stage alone: `bytes` must be the exact [read.begin,
  /// read.end) span, fetched by the caller (the streaming scanner
  /// preads it and decodes on a worker; exec/batch_stream.cc). Same
  /// slot-disjointness contract as ExecuteCoalescedRead.
  Status DecodeCoalescedRead(uint32_t g, const std::vector<uint32_t>& columns,
                             const CoalescedRead& read, Slice bytes,
                             const ReadOptions& options,
                             std::vector<ColumnVector>* out) const;

  /// Byte extent [begin, end) of pages [page_begin, page_end) of chunk
  /// (g, c) — chunk-relative page indices, so page 0 is the chunk's
  /// first page. The late-materialization fetch path preads exactly
  /// this span and hands it to DecodePageRun. Pure metadata work.
  Result<std::pair<uint64_t, uint64_t>> PageRunExtent(
      uint32_t g, uint32_t c, uint32_t page_begin, uint32_t page_end) const;

  /// Decodes pages [page_begin, page_end) (chunk-relative) of chunk
  /// (g, c) from `bytes`, the exact PageRunExtent span, appending every
  /// stored row to `*out` (which is reset to the column's type). Unlike
  /// the chunk decode path this does NOT realign or filter deleted
  /// rows: callers (exec/batch_stream.cc late materialization) must
  /// only use it on groups with no in-place deletes — a page that
  /// decodes short of its recorded row count is reported as corruption.
  Status DecodePageRun(uint32_t g, uint32_t c, uint32_t page_begin,
                       uint32_t page_end, Slice bytes,
                       const ReadOptions& options, ColumnVector* out) const;

  /// The underlying file, for the streaming scanner's own preads.
  /// Thread-safe for concurrent positional reads (RandomAccessFile
  /// contract).
  const RandomAccessFile* file() const { return file_.get(); }

  /// Projection read of a full row group with I/O coalescing. `out`
  /// receives one ColumnVector per requested column, in request order.
  /// Equivalent to PlanProjection + ExecuteCoalescedRead over every
  /// planned read, in plan order.
  Status ReadProjection(uint32_t g, const std::vector<uint32_t>& columns,
                        const ReadOptions& options,
                        std::vector<ColumnVector>* out) const;

  /// Verifies the whole-file Merkle tree (group/root hashes vs leaves).
  Status VerifyChecksums() const;

 private:
  TableReader() = default;

  /// Observability shim: times the decode into the registry's
  /// bullion.format.decode_chunk_ns histogram around the Impl.
  Status DecodeChunkFromBuffer(uint32_t g, uint32_t c, Slice chunk_bytes,
                               uint64_t chunk_file_offset,
                               const ReadOptions& options,
                               ColumnVector* out) const;
  Status DecodeChunkFromBufferImpl(uint32_t g, uint32_t c, Slice chunk_bytes,
                                   uint64_t chunk_file_offset,
                                   const ReadOptions& options,
                                   ColumnVector* out) const;

  std::unique_ptr<RandomAccessFile> file_;
  Buffer footer_buffer_;
  FooterView footer_view_;
};

}  // namespace bullion
