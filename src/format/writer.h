// TableWriter: streams row groups of columnar data into a Bullion file.
//
// File layout:
//   [RG0: chunks in placement order, each chunk = its pages]
//   [RG1: ...] ... [footer][footer_size:u32][magic:u32]
//
// Placement order defaults to schema order; WriterOptions::column_order
// implements Alpha-style feature reordering (§3): columns that training
// jobs co-access are placed adjacently so projection reads coalesce.
//
// The write path is layered stage → encode → commit, the write-side
// twin of the reader's plan → fetch → decode split:
//
//   StageRowGroup()        -- pure: validates a batch, applies the
//                             quality sort, and slices it into
//                             per-column/per-page PageEncodeTasks in
//                             placement order. No file or footer state
//                             is touched, so staged groups from
//                             consecutive batches may encode
//                             concurrently.
//   EncodeStagedPage()     -- pure: encodes one task into an
//                             EncodedPage buffer. Thread-safe; the
//                             exec layer fans these out across a
//                             ThreadPool (exec/writer.h).
//   CommitEncodedGroup()   -- appends the encoded pages in
//                             deterministic placement order and
//                             records footer metadata. Commits must
//                             happen in row-group order; because every
//                             byte placement decision is made here,
//                             the file is byte-identical no matter how
//                             the encode stage was scheduled.
//
// WriteRowGroup() runs the three stages back to back on the calling
// thread — the serial reference path.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "encoding/encoding.h"
#include "format/column_vector.h"
#include "format/footer.h"
#include "format/page.h"
#include "format/schema.h"
#include "io/aio.h"
#include "io/file.h"

namespace bullion {

struct WriterOptions {
  /// Rows per page (unit of encoding / checksum / in-place deletion).
  /// Must be positive.
  uint32_t rows_per_page = 4096;
  /// Cascade tuning for page encoding.
  CascadeOptions cascade;
  /// Compliance level stamped into the footer. Level 2 restricts pages
  /// of deletable columns to maskable encodings (§2.1).
  ComplianceLevel compliance = ComplianceLevel::kLevel2;
  /// Use the sliding-window codec for LogicalType::kIdSequence columns.
  bool enable_sparse_delta = true;
  size_t min_sparse_overlap = 8;
  /// Physical placement order of leaf columns within each row group
  /// (empty = schema order). Must be a permutation of leaf indices.
  std::vector<uint32_t> column_order;
  /// Sort each row group's rows by this leaf column's value descending
  /// before writing (quality-aware layout, §2.5). -1 disables.
  int32_t quality_sort_column = -1;
  /// Record per-chunk min/max statistics (zone maps) in the footer so
  /// filtered scans can prune row groups before fetching them. False
  /// emits the legacy version-1 footer layout with no stats section
  /// (and, since filters live behind stats in the version ladder, no
  /// Bloom filters either, whatever bloom_bits_per_key says).
  bool write_chunk_stats = true;
  /// Bits per key of the per-chunk split-block Bloom filters
  /// (serve/bloom.h) recorded for Bloom-eligible columns (scalar ints
  /// and binary). ~10 bits/key gives ~1% false positives; <= 0
  /// disables filters and emits a version-2 footer. See
  /// src/serve/README.md for the tuning math.
  double bloom_bits_per_key = 10.0;
  /// Optional write-side accounting: commits bump pages_encoded here
  /// (bytes_written / write_ops are counted by the WritableFile).
  IoStats* stats = nullptr;
  /// Aggregated-write block size: page appends are absorbed into
  /// blocks of exactly this many bytes, each written by the committing
  /// thread as one physical write (AppendBlock) when it fills. 0
  /// writes every page straight through — the unaggregated reference
  /// path.
  size_t write_block_bytes = 1 << 20;
};

/// Checks a WriterOptions against a schema: positive rows_per_page,
/// column_order a permutation of the leaf indices, quality sort column
/// in range. Writers run this up front so misconfiguration is a clear
/// Status instead of downstream misbehavior.
Status ValidateWriterOptions(const WriterOptions& options,
                             const Schema& schema);

/// \brief One unit of the parallel encode stage: rows
/// [row_begin, row_end) of leaf `column`, encoded as a single page.
struct PageEncodeTask {
  uint32_t column;
  size_t row_begin;
  size_t row_end;
  PageEncodeOptions options;
};

/// \brief A validated batch sliced into page-encode tasks, ready for
/// the encode stage.
///
/// `columns` keeps the batch alive while tasks encode (possibly on
/// other threads, after the staging frame returned). Tasks are ordered
/// placement-major — column `order[i]`'s pages occupy task indices
/// [column_task_begin[i], column_task_begin[i+1]) in page order — which
/// is exactly the byte order CommitEncodedGroup writes.
struct StagedRowGroup {
  std::shared_ptr<const std::vector<ColumnVector>> columns;
  uint32_t row_count = 0;
  /// Physical placement order of leaf columns.
  std::vector<uint32_t> order;
  /// Encode tasks, placement-major.
  std::vector<PageEncodeTask> tasks;
  /// order.size() + 1 offsets into `tasks`.
  std::vector<size_t> column_task_begin;
  /// Whether the encode stage computes per-page zone maps
  /// (WriterOptions::write_chunk_stats); false makes the stats opt-out
  /// actually free.
  bool compute_page_stats = true;
  /// Bloom sizing forwarded from WriterOptions (0 when stats are off or
  /// filters disabled); > 0 makes the encode stage also collect per-page
  /// key hashes for Bloom-eligible columns.
  double bloom_bits_per_key = 0.0;

  size_t num_tasks() const { return tasks.size(); }
};

/// Stage step: validates the batch against the schema/options, applies
/// the quality sort (producing an owned sorted copy when enabled), and
/// slices it into page-encode tasks. Pure metadata + sort work — no
/// file or footer state.
Result<StagedRowGroup> StageRowGroup(
    const Schema& schema, const WriterOptions& options,
    std::shared_ptr<const std::vector<ColumnVector>> columns);

/// As above but assumes `options` already passed ValidateWriterOptions
/// against `schema` — the per-group fast path for writers that
/// validated once at construction (options are immutable afterwards).
Result<StagedRowGroup> StageValidatedRowGroup(
    const Schema& schema, const WriterOptions& options,
    std::shared_ptr<const std::vector<ColumnVector>> columns);

/// Encode step: encodes task `task` of `staged` into one page. Pure
/// and thread-safe — distinct tasks of one staged group (or of many)
/// may run concurrently.
Result<EncodedPage> EncodeStagedPage(const StagedRowGroup& staged,
                                     size_t task);

/// \brief Writes a Bullion file row group by row group.
class TableWriter {
 public:
  TableWriter(Schema schema, WritableFile* file, WriterOptions options);

  /// Writes one row group; `columns` has one ColumnVector per schema
  /// leaf, all with the same row count. Runs stage → encode → commit
  /// serially on the calling thread.
  Status WriteRowGroup(const std::vector<ColumnVector>& columns);

  /// Stage step against this writer's schema/options (see the free
  /// function). Const: staging never touches file or footer state.
  Result<StagedRowGroup> StageRowGroup(
      std::shared_ptr<const std::vector<ColumnVector>> columns) const;

  /// Commit step: appends `pages` (pages[i] = encoded task i of
  /// `staged`) in placement order and records footer metadata. Row
  /// groups must be committed in order; this is the only stage that
  /// mutates file state, so the bytes written are independent of how
  /// the encode stage was scheduled.
  Status CommitEncodedGroup(const StagedRowGroup& staged,
                            const std::vector<EncodedPage>& pages);

  /// Writes the footer and trailer. Must be called exactly once.
  Status Finish();

  uint64_t num_rows() const { return num_rows_; }
  const Schema& schema() const { return schema_; }
  const WriterOptions& options() const { return options_; }

 private:
  Schema schema_;
  WritableFile* file_;
  WriterOptions options_;
  /// Write-batching layer over file_ (WriterOptions::write_block_bytes;
  /// null when disabled). sink_ is where commits append: the
  /// aggregation buffer, or file_ directly.
  std::unique_ptr<AggregatedWriteBuffer> agg_;
  WritableFile* sink_ = nullptr;
  Status init_status_;
  FooterBuilder footer_;
  uint64_t offset_ = 0;
  uint64_t num_rows_ = 0;
  uint32_t group_index_ = 0;
  bool finished_ = false;
};

/// Min/max of rows [row_begin, row_end) of `column`, or an invalid map
/// for types that have none (lists, raw-bit-pattern floats) or real
/// ranges containing NaN. Binary columns get bounded-prefix bounds
/// (io/predicate.h PackPrefix). The encode stage computes this per
/// page (in parallel); commit merges a chunk's page zones into the
/// footer's statistics section.
ZoneMap ComputeZoneMap(const ColumnVector& column, size_t row_begin,
                       size_t row_end);

}  // namespace bullion
