// BatchStream: the pull-based streaming scan engine behind the unified
// bullion::Scan() front door (core/scan.h).
//
// OpenScanStream() plans every scan. Its source is a list of
// ScanShards in table order — a single file is a list of one — whose
// row groups are numbered globally, shard after shard. It resolves the
// spec against the newest (last) shard's footer, prunes row groups,
// and hands the stream one unit per surviving row group. The stream
// keeps a bounded window of units in flight: the consumer thread
// preads each unit's coalesced reads itself and hands each read's
// bytes to a decode task on the shared ThreadPool through one
// TaskGroup (the existing exec in-flight window, so a stream at T
// threads keeps at most 3T decodes outstanding no matter how many
// groups remain), decoded groups are handed off strictly in submission
// order, residual predicates are applied post-decode, and Next()
// yields bounded RowBatches. Memory is bounded by the group window — a
// terabyte table streams through a fixed footprint instead of
// materializing the whole projection.
//
// As a unit enters the window, each of its fetch slots is served one
// of four ways:
//   back-fill  a column the shard predates (schema evolution) becomes
//              null rows, with no I/O;
//   deferred   with late materialization, a slot no filter reads waits
//              for phase 2, which preads only the page runs holding
//              surviving rows (groups with in-place deletes fetch
//              everything instead); deferred slots neither read nor
//              fill the cache;
//   cached     a DecodedChunkCache hit, keyed by the unit's shard
//              index, shard generation and group's deleted count;
//   fetched    planned into coalesced preads, decoded on the pool and
//              published to the cache.
//
// Predicate pushdown happens in two places:
//   prune    before a unit is ever created, the planner tests each row
//            group's footer zone maps and chunk Bloom filters against
//            the filters; groups that provably match nothing are
//            skipped before any pread (PipelineReport::groups_pruned).
//   residual surviving groups are decoded and filtered row-by-row
//            (format/column_vector.h), so results are exact even when
//            zone maps are absent (version-1 footers) or imprecise.
//
// With no filters and batch_rows == 0 the stream emits exactly one
// batch per row group, each the untouched decode of that group, and is
// byte-identical to the serial TableReader path at any thread count.
// ScanResult (below) is the one materializing form: it drains any
// stream into memory, which is what bullion::Scan(...).Collect() does.

#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "exec/thread_pool.h"
#include "format/column_vector.h"
#include "format/reader.h"
#include "io/predicate.h"
#include "obs/pipeline_report.h"

namespace bullion {

class DecodedChunkCache;
struct ChunkCacheKey;

/// \brief One bounded unit of scan output: the projected columns of a
/// run of rows from a single row group.
struct RowBatch {
  /// Global row-group index the rows came from (dataset coordinates
  /// for sharded scans).
  uint32_t group = 0;
  /// One ColumnVector per projected column, in projection order.
  std::vector<ColumnVector> columns;

  size_t num_rows() const {
    return columns.empty() ? 0 : columns[0].num_rows();
  }
};

/// \brief One file of a scan's source.
struct ScanShard {
  const TableReader* reader = nullptr;
  /// Rewrite generation of the file (ShardInfo::generation; 0 for a
  /// single file). Cache keys carry it, so a compacted shard is never
  /// served its predecessor's chunks.
  uint32_t generation = 0;
};

/// \brief Spec for a streaming scan: projection, filters, row-group
/// range, batch sizing, and the execution hooks.
struct ScanStreamSpec {
  /// Leaf columns to project, by name (resolved against the newest
  /// shard's footer) or by index (takes precedence). Both empty = every
  /// leaf.
  std::vector<std::string> column_names;
  std::vector<uint32_t> columns;
  /// Predicate clauses, ANDed; each clause ORs its terms, and a plain
  /// Filter converts to a one-term clause, so simple conjunctive
  /// filter lists read unchanged. Pruning uses footer zone maps and
  /// chunk Bloom filters; residual evaluation makes the rows exact.
  std::vector<FilterClause> filters;
  /// Late materialization: fetch only the filter columns up front,
  /// evaluate the residual, then pread just the page runs that hold
  /// surviving rows of the remaining projection columns. Exactness is
  /// unchanged — only I/O shrinks. Applied per group, and only to
  /// groups with no in-place deletes (positional page addressing);
  /// other groups silently take the full-fetch path.
  bool late_materialize = false;
  /// Global row-group range [group_begin, group_end), clamped to the
  /// source.
  uint32_t group_begin = 0;
  uint32_t group_end = UINT32_MAX;
  /// Worker threads when no pool is given (<= 1 streams serially on
  /// the consumer thread).
  size_t threads = 1;
  /// Max rows per emitted batch; 0 = one batch per row group, emitted
  /// even when no row survives the residual.
  uint64_t batch_rows = 0;
  ReadOptions read_options;
  /// Shared pool (overrides `threads`); null = private workers for the
  /// stream's lifetime.
  ThreadPool* pool = nullptr;
  /// Optional per-scan accounting: prepare/work/emit/stall time,
  /// rows/bytes/batches, groups_pruned, per-read fetch+decode latency.
  /// Must outlive the stream; the caller owns Reset() between runs.
  obs::PipelineReport* report = nullptr;
};

/// \brief Pull-based stream of RowBatches over a planned unit list.
///
/// Not thread-safe: one consumer pulls. The readers behind the shards
/// (and the cache, if any) must outlive the stream. Dropping the
/// stream early joins its in-flight work before returning.
class BatchStream {
 public:
  ~BatchStream();
  BatchStream(const BatchStream&) = delete;
  BatchStream& operator=(const BatchStream&) = delete;

  /// Pulls the next batch into `*out`. Returns true on a batch, false
  /// at end of stream, or the first error any unit hit (in unit order;
  /// subsequent calls repeat it).
  Result<bool> Next(RowBatch* out);

  /// Projected leaf column indices (what emitted batches contain).
  const std::vector<uint32_t>& columns() const { return projected_columns_; }
  /// Leaf type of each projected slot.
  const std::vector<ColumnRecord>& column_records() const {
    return projected_records_;
  }
  /// First selected global row group (after range clamping).
  uint32_t group_begin() const { return group_begin_; }
  /// Units (surviving row groups) this stream will scan in total.
  size_t num_units() const { return units_.size(); }

 private:
  friend Result<std::unique_ptr<BatchStream>> OpenScanStream(
      std::vector<ScanShard> shards, const ScanStreamSpec& spec,
      DecodedChunkCache* cache);

  /// One surviving row group.
  struct Unit {
    const TableReader* reader = nullptr;
    uint32_t shard = 0;         // index into the scan's shard list
    uint32_t generation = 0;    // that shard's ScanShard::generation
    uint32_t local_group = 0;   // row group on `reader`
    uint32_t global_group = 0;  // stamped on emitted batches
  };
  struct InFlight;

  /// Sizes the group and decode windows; OpenScanStream fills in the
  /// plan.
  BatchStream(const ScanStreamSpec& spec, DecodedChunkCache* cache);

  /// Moves units_[next_submit_] into the in-flight window: serves each
  /// fetch slot from back-fill, deferral or the cache, plans the rest,
  /// then preads the plan's coalesced reads in order on this thread,
  /// submitting each read's decode task as soon as its bytes are in. A
  /// failed read is the unit's error, and the reads after it are not
  /// issued.
  Status SubmitNext();
  /// The cache identity of `column`'s chunk in `fl`'s group.
  ChunkCacheKey CacheKey(const InFlight& fl, uint32_t column) const;
  /// Takes reads [i, i + count) of `fl`'s plan off its pending count;
  /// a non-OK `st` becomes the unit's error unless a lower-indexed read
  /// already failed.
  void RetireReadsLocked(InFlight* fl, size_t i, size_t count, Status st)
      REQUIRES(mu_);
  /// Applies residual filters to a completed group and appends its
  /// batches to ready_. For late-materialized units this is also where
  /// phase 2 runs: the surviving page runs of the deferred slots are
  /// fetched and decoded into already-compacted columns before
  /// projection.
  Status EmitBatches(InFlight* fl);
  /// Phase 2 of late materialization: fetches and decodes the page
  /// runs of `fl`'s deferred slots covering `selection` (group-relative
  /// surviving rows), leaving each deferred slot compacted to exactly
  /// those rows.
  Status MaterializeLateSlots(InFlight* fl,
                              const std::vector<uint32_t>& selection);
  /// Stamps the report's wall time once (drain complete or stream
  /// teardown, whichever comes first).
  void RecordWall();

  const ScanStreamSpec spec_;
  DecodedChunkCache* const cache_;
  /// Leaf columns to fetch per group: the projection first, then any
  /// filter-only columns (fetched for evaluation, never emitted).
  std::vector<uint32_t> fetch_columns_;
  /// Leaf type of each fetch slot, from the newest shard's footer.
  std::vector<ColumnRecord> fetch_records_;
  std::vector<uint32_t> projected_columns_;
  std::vector<ColumnRecord> projected_records_;
  /// term_slots_[i][j] is the fetch slot of spec_.filters[i].any_of[j].
  std::vector<std::vector<size_t>> term_slots_;
  /// residual_slot_[slot] = 1 iff some filter term reads that fetch
  /// slot (those slots are always fetched in phase 1).
  std::vector<uint8_t> residual_slot_;
  uint32_t group_begin_ = 0;
  std::vector<Unit> units_;
  size_t group_window_ = 1;
  size_t next_submit_ = 0;
  Status status_;  // sticky first failure
  uint64_t start_ns_ = 0;     // stream construction (report wall time)
  bool wall_recorded_ = false;

  std::unique_ptr<ThreadPool> owned_pool_;

  /// mu_ guards every InFlight's pending/error fields (they cannot
  /// carry GUARDED_BY themselves: InFlight is declared in the .cc and
  /// holds no back-pointer to the stream).
  Mutex mu_;
  CondVar cv_;
  /// Consumer-thread-only (Next/EmitBatches); never touched by
  /// workers, so unguarded by design.
  std::deque<RowBatch> ready_;
  std::deque<std::unique_ptr<InFlight>> in_flight_;
  /// Last member: its destructor joins outstanding tasks before the
  /// InFlight slots (and the owned pool) go away.
  std::unique_ptr<TaskGroup> tasks_;
};

/// Plans a scan of `shards` (in table order; one entry for a single
/// file) and opens its stream. Resolves the spec against the last
/// shard's footer — earlier shards must carry a prefix of its schema,
/// and the columns a shard predates back-fill as nulls. Prunes row
/// groups against each shard footer's zone maps and chunk Bloom
/// filters before any pread; a group whose shard predates a filtered
/// column is pruned too. With `cache`, slots are served from and fresh
/// decodes published to the DecodedChunkCache; shard indices key it,
/// so one cache must only ever see shard lists of one dataset. With no
/// shards, any projection or filter fails (InvalidArgument for column
/// indices, NotFound otherwise) and the stream is empty. The shards'
/// readers (and the cache) must outlive the stream.
Result<std::unique_ptr<BatchStream>> OpenScanStream(
    std::vector<ScanShard> shards, const ScanStreamSpec& spec,
    DecodedChunkCache* cache);

/// \brief Fully-materialized output of a stream: every emitted batch
/// kept in memory, columns in projection order.
struct ScanResult {
  /// Resolved leaf indices, in projection order.
  std::vector<uint32_t> columns;
  /// First selected global row group (after range clamping).
  uint32_t group_begin = 0;
  /// groups[i][slot] is column `slot` of the i-th emitted batch. That
  /// batch is row group `group_begin + i` only when no filter prunes
  /// and batch_rows is 0 (one batch per row group).
  std::vector<std::vector<ColumnVector>> groups;
  /// Leaf type of each projection slot (valid even with zero batches).
  std::vector<ColumnRecord> column_records;

  size_t num_groups() const { return groups.size(); }
  uint64_t num_rows() const;

  /// Concatenates column `slot` across all batches, in emission order.
  /// A scan with no batches yields an empty column of the slot's type.
  Result<ColumnVector> ConcatColumn(size_t slot) const;

  /// Drains `stream` into this result, one `groups` entry per batch.
  Status DrainStream(BatchStream* stream);
};

}  // namespace bullion
