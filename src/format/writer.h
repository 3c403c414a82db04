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
// Each row group runs stage → encode → commit, the write-side twin of
// the reader's plan → fetch → decode split:
//
//   stage   -- pure: validates a batch, applies the quality sort, and
//              slices it into per-column/per-page PageEncodeTasks in
//              placement order (StageRowGroup). No file or footer
//              state is touched.
//   encode  -- pure: encodes each task into an EncodedPage buffer. With
//              a ThreadPool the page encodes fan out across its
//              workers, and encodes of consecutive groups overlap.
//   commit  -- appends the encoded pages in deterministic placement
//              order and records footer metadata, on the calling
//              thread and in row-group order. Every byte placement
//              decision is made here, so the file is byte-identical no
//              matter how the encode stage was scheduled.
//
// Without a pool each group is committed before WriteRowGroup returns.
// With one, at most 2 × pool->num_threads() groups are staged or
// encoding at once; Finish() commits the rest and writes the footer:
//
//   ThreadPool pool(8);
//   TableWriter writer(schema, file, options, &pool);
//   writer.WriteRowGroup(std::move(batch));  // any number of times
//   writer.Finish();

#pragma once

#include <cstdint>
#include <deque>
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

class ThreadPool;  // exec/thread_pool.h
namespace obs {
struct PipelineReport;  // obs/pipeline_report.h
}  // namespace obs

struct WriterOptions {
  /// Rows per page (unit of encoding / checksum / in-place deletion).
  /// Must be positive.
  uint32_t rows_per_page = 4096;
  /// Cascade tuning for page encoding.
  CascadeOptions cascade;
  /// Compliance level stamped into the footer. Level 2 restricts pages
  /// of deletable columns to maskable encodings (§2.1).
  ComplianceLevel compliance = ComplianceLevel::kLevel2;
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
/// in range, and every leaf a shape pages can hold (list depth at most
/// 1, or 2 over int values; format/page.h). Writers run this up front
/// so misconfiguration is a clear Status instead of downstream
/// misbehavior.
Status ValidateWriterOptions(const WriterOptions& options,
                             const Schema& schema);

/// Checks a batch against a schema: one column per leaf, each of the
/// leaf's physical type and list depth, all with the same row count,
/// and no null rows (pages have no validity stream). Writers run this
/// before they read a row, so a mismatched column is a clear Status
/// instead of a crash or a file that cannot be read back.
Status ValidateBatch(const Schema& schema,
                     const std::vector<ColumnVector>& columns);

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
/// is exactly the byte order the commit step writes.
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

/// \brief Writes a Bullion file row group by row group.
///
/// Not thread-safe itself: one producer thread writes row groups and
/// calls Finish(); the parallelism is internal (page encoding).
class TableWriter {
 public:
  /// Writes through `file` with `options` (validated here; an invalid
  /// set fails every later call). `pool` (optional, shared, must
  /// outlive the writer) runs the page encodes. `report` (optional)
  /// records the write pipeline: stage → prepare_ns, page encodes →
  /// work_ns/work_hist/batches/bytes, joining the oldest in-flight
  /// group → stall_ns, commit → emit_ns/units/rows, construction →
  /// Finish() → wall_ns.
  TableWriter(Schema schema, WritableFile* file, WriterOptions options,
              ThreadPool* pool = nullptr,
              obs::PipelineReport* report = nullptr);
  /// Joins encodes still in flight; writes nothing.
  ~TableWriter();

  TableWriter(const TableWriter&) = delete;
  TableWriter& operator=(const TableWriter&) = delete;

  /// Writes one row group: one ColumnVector per schema leaf, each of
  /// the leaf's physical type and list depth, all with the same row
  /// count. Takes the batch by value, since encodes may still read it
  /// after this call returns. A batch the stage step rejects touches
  /// no file or footer state and leaves the writer usable; a failed
  /// commit is returned by this call or a later one, and by every call
  /// after it.
  Status WriteRowGroup(std::vector<ColumnVector> columns);

  /// As above without copying: the shared batch must stay unchanged
  /// until Finish() returns. Callers whose batches outlive the writer
  /// (e.g. WriteTableFile) borrow via a no-op-deleter shared_ptr.
  Status WriteRowGroup(std::shared_ptr<const std::vector<ColumnVector>> columns);

  /// Commits every group still in flight, writes the footer and
  /// trailer, and returns only after the file's Flush() succeeded —
  /// the append and compaction publish protocols rely on that. After a
  /// failed commit it joins the remaining encodes without writing and
  /// returns the first error. Must be called exactly once.
  Status Finish();

  /// Rows committed so far (groups still in flight not included).
  uint64_t num_rows() const { return num_rows_; }
  const Schema& schema() const { return schema_; }
  const WriterOptions& options() const { return options_; }

 private:
  struct InFlightGroup;

  /// Joins the oldest in-flight group's encodes and commits it.
  Status CommitOldest();
  /// Appends `pages` (pages[i] = encoded task i of `staged`) in
  /// placement order and records footer metadata.
  Status CommitGroup(const StagedRowGroup& staged,
                     const std::vector<EncodedPage>& pages);
  /// Writes the footer and trailer, then flushes the file.
  Status WriteFooter();

  Schema schema_;
  WritableFile* file_;
  WriterOptions options_;
  ThreadPool* pool_;
  obs::PipelineReport* report_;
  /// Groups staged or encoding, not yet committed (oldest first); at
  /// most max_in_flight_ of them between calls.
  std::deque<std::unique_ptr<InFlightGroup>> in_flight_;
  size_t max_in_flight_;
  /// Write-batching layer over file_ (WriterOptions::write_block_bytes;
  /// null when disabled). sink_ is where commits append: the
  /// aggregation buffer, or file_ directly.
  std::unique_ptr<AggregatedWriteBuffer> agg_;
  WritableFile* sink_ = nullptr;
  /// Sticky: invalid options, or the first failed commit or footer
  /// write.
  Status error_;
  FooterBuilder footer_;
  uint64_t offset_ = 0;
  uint64_t num_rows_ = 0;
  uint32_t group_index_ = 0;
  bool finished_ = false;
  uint64_t start_ns_ = 0;  // construction (report wall time)
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
