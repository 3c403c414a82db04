// ParallelTableWriter / WriteBuilder: the parallel write execution
// layer over TableWriter's stage → encode → commit split — the
// write-side twin of the streaming scan (exec/batch_stream.h).
//
// Each appended row group is staged on the calling thread (pure
// metadata + quality-sort work), then its page-encode tasks fan out
// across a ThreadPool — one task per page, each writing its own
// preallocated EncodedPage slot. Commits happen on the calling thread
// in row-group order, appending the encoded pages in deterministic
// placement order, so the file is byte-identical to the serial
// TableWriter at any thread count; with threads <= 1 and no pool the
// tasks run inline and the writer literally is the serial path.
//
// A bounded window of row groups may be staged-or-encoding at once
// (encode of group k+1..k+W overlaps commit of group k); Finish()
// drains the window and writes the footer.
//
// Fluent entry point:
//
//   auto writer = WriteBuilder(schema, file)
//                     .RowsPerPage(4096)
//                     .Threads(8)                // encode workers
//                     .MaxPendingGroups(4)       // groups in flight
//                     .Build();
//   (*writer)->WriteRowGroup(std::move(batch));  // any number of times
//   (*writer)->Finish();
//
// For multi-file (sharded) parallel writes see
// dataset/sharded_writer.h's ShardedWriteBuilder, which routes every
// shard's encode tasks through ONE shared pool.

#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "exec/thread_pool.h"
#include "format/writer.h"
#include "obs/pipeline_report.h"

namespace bullion {

/// Fans the encode tasks of one staged row group out on `tasks` — the
/// shared-pool write entry point, the write-side twin of the streaming
/// scan's per-group read fan-out (exec/batch_stream.cc). Multiple
/// calls (for different groups, or different writers/shards) may
/// target one TaskGroup or pool, so a whole sharded ingest shares a
/// single thread pool.
///
/// `staged` is shared because the submitted tasks outlive this call's
/// frame. `pages` is resized to one slot per task and must stay valid
/// (and un-moved) until `tasks->Wait()` returns; distinct tasks write
/// distinct slots, so the encoded output is identical to encoding
/// serially regardless of scheduling.
/// `report` (optional) receives one work_hist sample + work_ns per page
/// encode, recorded on the worker that ran it.
Status SubmitGroupEncode(std::shared_ptr<const StagedRowGroup> staged,
                         TaskGroup* tasks, std::vector<EncodedPage>* pages,
                         obs::PipelineReport* report = nullptr);

/// \brief Pipelined parallel writer over one Bullion file.
///
/// Not thread-safe itself: one producer thread appends row groups and
/// calls Finish(); the parallelism is internal (page encoding).
class ParallelTableWriter {
 public:
  /// Writes through `file` with `options`. If `pool` is null and
  /// `threads` > 1, a private pool of `threads` workers is spun up for
  /// the writer's lifetime; a shared `pool` overrides `threads`.
  /// `max_pending_groups` bounds row groups staged-or-encoding but not
  /// yet committed (0 = 2 × encode workers) — the write-side in-flight
  /// window, which also bounds encoded-group memory.
  /// `report` (optional) records the write pipeline's stage timing:
  /// stage → prepare_ns, page encodes → work_ns/work_hist, commit →
  /// emit_ns, joining the window head → stall_ns, construction →
  /// Finish() → wall_ns.
  ParallelTableWriter(Schema schema, WritableFile* file,
                      WriterOptions options, size_t threads = 1,
                      size_t max_pending_groups = 0,
                      ThreadPool* pool = nullptr,
                      obs::PipelineReport* report = nullptr);

  /// Stages `columns` (one ColumnVector per schema leaf, equal row
  /// counts), fans its page encodes out, and commits any groups that
  /// fall out of the in-flight window. Takes the batch by value: the
  /// encode stage may still be reading it after this call returns.
  Status WriteRowGroup(std::vector<ColumnVector> columns);

  /// As above without copying: the shared batch must stay unchanged
  /// until Finish() returns. Callers whose batches outlive the writer
  /// (e.g. WriteTableFile) borrow via a no-op-deleter shared_ptr.
  Status WriteRowGroup(std::shared_ptr<const std::vector<ColumnVector>> columns);

  /// Drains the window (encode + commit every pending group), then
  /// writes the footer and trailer. Must be called exactly once.
  Status Finish();

  /// Rows committed so far (pending groups not included).
  uint64_t num_rows() const { return writer_.num_rows(); }
  /// Row groups currently staged or encoding, not yet committed.
  size_t pending_groups() const { return pending_.size(); }

 private:
  struct PendingGroup {
    std::shared_ptr<const StagedRowGroup> staged;
    std::vector<EncodedPage> pages;
    std::unique_ptr<TaskGroup> tasks;
  };

  /// Joins the oldest pending group's encodes and commits it.
  Status DrainOne();

  TableWriter writer_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_;
  size_t max_pending_;
  std::deque<PendingGroup> pending_;
  Status error_;  // sticky first failure
  bool finished_ = false;
  obs::PipelineReport* report_;
  uint64_t start_ns_ = 0;  // construction (report wall time)
};

/// \brief Fluent builder for parallel single-file writes.
class WriteBuilder {
 public:
  WriteBuilder(Schema schema, WritableFile* file)
      : schema_(std::move(schema)), file_(file) {}

  /// Full writer options (page size, encodings, placement, ...).
  WriteBuilder& Options(WriterOptions options) {
    options_ = std::move(options);
    return *this;
  }
  /// Rows per page (shorthand for Options).
  WriteBuilder& RowsPerPage(uint32_t rows) {
    options_.rows_per_page = rows;
    return *this;
  }
  /// Encode worker threads (<= 1 encodes inline on the calling thread).
  WriteBuilder& Threads(size_t n) {
    threads_ = n;
    return *this;
  }
  /// Row groups allowed in flight (staged/encoding, uncommitted);
  /// 0 = 2 × encode workers.
  WriteBuilder& MaxPendingGroups(size_t n) {
    max_pending_ = n;
    return *this;
  }
  /// Run encodes on a shared pool instead of a writer-private one.
  WriteBuilder& Pool(ThreadPool* pool) {
    pool_ = pool;
    return *this;
  }
  /// Record stage timing, throughput, and the per-page encode latency
  /// distribution into `report` (obs/pipeline_report.h). Must outlive
  /// the writer; accumulates across runs until Reset().
  WriteBuilder& Report(obs::PipelineReport* report) {
    report_ = report;
    return *this;
  }

  /// Validates the options and constructs the writer.
  Result<std::unique_ptr<ParallelTableWriter>> Build() const {
    BULLION_RETURN_NOT_OK(ValidateWriterOptions(options_, schema_));
    return std::make_unique<ParallelTableWriter>(
        schema_, file_, options_, threads_, max_pending_, pool_, report_);
  }

 private:
  Schema schema_;
  WritableFile* file_;
  WriterOptions options_;
  size_t threads_ = 1;
  size_t max_pending_ = 0;
  ThreadPool* pool_ = nullptr;
  obs::PipelineReport* report_ = nullptr;
};

}  // namespace bullion
