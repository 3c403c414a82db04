// BatchStream: the pull-based streaming scan engine behind the unified
// bullion::Scan() front door (core/scan.h).
//
// A scan is a sequence of StreamUnits — one per surviving row group, in
// table order. The stream keeps a bounded window of units in flight:
// the consumer thread preads each unit's coalesced reads itself and
// hands each read's bytes to a decode task on the shared ThreadPool
// through one TaskGroup (the existing exec in-flight window, so a
// stream at T threads keeps at most T*(1+prefetch) decodes outstanding
// no matter how many groups remain), decoded groups are handed off
// strictly in submission order, residual predicates are applied
// post-decode, and Next() yields bounded RowBatches. Memory is bounded
// by the group window — a terabyte table streams through a fixed
// footprint instead of materializing the whole projection.
//
// Predicate pushdown happens in two places:
//   prune    before a unit is ever created, the scan planner tests each
//            row group's footer zone maps (and each shard's aggregated
//            manifest stats) against the filters; groups that provably
//            match nothing are skipped before any pread
//            (PipelineReport::groups_pruned / shards_pruned).
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
#include <functional>
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

/// \brief A filter bound to a slot of the stream's fetch set. The
/// bound Filter carries the op and constant(s) — including kIn value
/// lists; its column name is redundant after binding.
struct ResolvedFilter {
  size_t fetch_slot = 0;
  Filter filter;
};

/// \brief A disjunction of bound filters (one FilterClause after
/// column resolution). The stream's residual is an AND of these; a
/// clause prunes an extent only when every term prunes it.
struct ResolvedClause {
  std::vector<ResolvedFilter> any_of;
};

/// \brief One row group's worth of streamable work, prepared by the
/// scan planner (exec::OpenScanStream / dataset::OpenScanStream).
struct StreamUnit {
  const TableReader* reader = nullptr;
  /// Row group on `reader` (shard-local for dataset scans).
  uint32_t local_group = 0;
  /// The group's index in the source's global numbering (stamped on
  /// emitted batches).
  uint32_t global_group = 0;
  /// Runs on the consumer thread as the unit enters the in-flight
  /// window. May fill `(*out)[slot]` (fetch coordinates) and mark
  /// `(*preset)[slot] = 1` for slots served without I/O — decoded-chunk
  /// cache hits and schema-evolution null back-fill. Both vectors are
  /// pre-sized to the fetch set.
  std::function<void(std::vector<ColumnVector>* out,
                     std::vector<uint8_t>* preset)>
      prepare;
  /// Runs on a worker thread after one coalesced read fetched and
  /// decoded successfully. `missing` are the fetched leaf columns
  /// (indexed by the read's chunk user_index values), `done` their
  /// decode slots; the hook may only touch slots named by
  /// `read.chunks[].user_index`. The dataset layer publishes freshly
  /// decoded chunks into its cache here, mid-stream.
  std::function<void(const std::vector<uint32_t>& missing,
                     const CoalescedRead& read,
                     std::vector<ColumnVector>* done)>
      publish;
};

/// \brief Everything a BatchStream needs beyond its units.
struct BatchStreamOptions {
  /// Leaf columns to fetch per group: the projection first, then any
  /// filter-only columns (fetched for evaluation, never emitted).
  std::vector<uint32_t> fetch_columns;
  /// How many leading fetch slots are the projection.
  size_t num_projected = 0;
  /// Leaf type of each fetch slot (schema of the stream even when no
  /// unit survives pruning).
  std::vector<ColumnRecord> fetch_records;
  /// Residual predicate clauses, ANDed row-wise after decode (each
  /// clause ORs its terms).
  std::vector<ResolvedClause> residual;
  /// Late materialization: fetch only the filter columns up front,
  /// evaluate the residual, then pread just the page runs that hold
  /// surviving rows of the remaining projection columns. Exactness is
  /// unchanged — only I/O shrinks. Applied per group, and only to
  /// groups with no in-place deletes (positional page addressing);
  /// other groups silently take the full-fetch path.
  bool late_materialize = false;
  /// Max rows per emitted batch; 0 = one batch per row group, emitted
  /// even when no row survives the residual.
  uint64_t batch_rows = 0;
  /// Worker threads when no external pool is given (<= 1 streams
  /// serially on the consumer thread).
  size_t threads = 1;
  /// Extra coalesced reads in flight per worker.
  size_t prefetch_depth = 2;
  /// First selected global row group after clamping (reporting only).
  uint32_t group_begin = 0;
  ReadOptions read_options;
  /// External pool to share; null spins up `threads` private workers
  /// for the stream's lifetime.
  ThreadPool* pool = nullptr;
  /// Optional per-scan stage accounting: prepare/work/emit/stall time,
  /// rows/bytes/batches, per-unit fetch+decode latency (the scan
  /// planner that builds the units adds its pruning counts). Must
  /// outlive the stream; the caller owns Reset() between runs.
  obs::PipelineReport* report = nullptr;
};

/// \brief Pull-based stream of RowBatches over a prepared unit list.
///
/// Not thread-safe: one consumer pulls. The readers behind the units
/// must outlive the stream. Dropping the stream early joins its
/// in-flight work before returning.
class BatchStream {
 public:
  static Result<std::unique_ptr<BatchStream>> Create(
      std::vector<StreamUnit> units, BatchStreamOptions options);

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
  uint32_t group_begin() const { return options_.group_begin; }
  /// Units (surviving row groups) this stream will scan in total.
  size_t num_units() const { return units_.size(); }

 private:
  struct InFlight;

  BatchStream(std::vector<StreamUnit> units, BatchStreamOptions options);

  /// Moves units_[next_submit_] into the in-flight window: runs its
  /// prepare hook, plans its missing columns, then preads the plan's
  /// coalesced reads in order on this thread, submitting each read's
  /// decode task as soon as its bytes are in. A failed read is the
  /// unit's error, and the reads after it are not issued.
  Status SubmitNext();
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

  BatchStreamOptions options_;
  std::vector<StreamUnit> units_;
  std::vector<uint32_t> projected_columns_;
  std::vector<ColumnRecord> projected_records_;
  /// residual_slot_[slot] = 1 iff some residual term reads that fetch
  /// slot (those slots are always fetched in phase 1).
  std::vector<uint8_t> residual_slot_;
  /// options_.residual re-shaped as FilterClauses (parallel vectors) so
  /// the per-group row evaluation feeds UpdateClauseMask without
  /// rebuilding the clause each time.
  std::vector<FilterClause> residual_clauses_;
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

/// \brief Spec for a streaming scan: projection, filters, row-group
/// range, batch sizing, and the execution hooks.
struct ScanStreamSpec {
  /// Leaf columns to project, by name (resolved against the footer) or
  /// by index (takes precedence). Both empty = every leaf.
  std::vector<std::string> column_names;
  std::vector<uint32_t> columns;
  /// Predicate clauses, ANDed; each clause ORs its terms, and a plain
  /// Filter converts to a one-term clause, so simple conjunctive
  /// filter lists read unchanged. Pruning uses footer/manifest zone
  /// maps and Bloom filters; residual evaluation makes the rows exact.
  std::vector<FilterClause> filters;
  /// Fetch filter columns first and pread only surviving page runs of
  /// the rest (see BatchStreamOptions::late_materialize).
  bool late_materialize = false;
  /// Row-group range [group_begin, group_end), clamped to the source.
  uint32_t group_begin = 0;
  uint32_t group_end = UINT32_MAX;
  size_t threads = 1;
  size_t prefetch_depth = 2;
  /// Max rows per emitted batch (0 = one batch per row group).
  uint64_t batch_rows = 0;
  ReadOptions read_options;
  /// Shared pool (overrides `threads`); null = private workers.
  ThreadPool* pool = nullptr;
  /// Optional per-scan accounting, including groups_pruned /
  /// shards_pruned (see BatchStreamOptions).
  obs::PipelineReport* report = nullptr;
};

/// The execution settings every OpenScanStream copies from the spec
/// (everything but the fetch set, residual, and group range, which the
/// source-specific planner fills in).
BatchStreamOptions StreamOptionsFor(const ScanStreamSpec& spec);

/// Resolves a projection spec against a footer: explicit indices win,
/// then names (clear NotFound for unknown ones), then all leaves.
/// Shared by every scan front door so their validation agrees.
Result<std::vector<uint32_t>> ResolveProjection(
    const FooterView& footer, const std::vector<uint32_t>& indices,
    const std::vector<std::string>& names);

/// \brief Projection + filters resolved into the stream's fetch set.
struct StreamColumnPlan {
  std::vector<uint32_t> fetch_columns;
  size_t num_projected = 0;
  std::vector<ResolvedClause> residual;
};

/// Resolves spec.columns/column_names/filters against `footer`:
/// projection first, filter-only columns appended, clause terms bound
/// to fetch slots. Rejects predicates on unknown names and on column
/// types without an order (lists, raw-bit-pattern floats); binary
/// columns are accepted for kEq / kNe / kIn.
Result<StreamColumnPlan> PlanStreamColumns(const FooterView& footer,
                                           const ScanStreamSpec& spec);

/// True if `footer`'s zone maps and chunk Bloom filters prove no row
/// of group `local_group` can satisfy the residual (some clause's
/// every term is provably false). Never prunes scans that keep deleted
/// rows (their placeholder values are not covered by the recorded
/// bounds, and deletes make the filters stale-but-superset only for
/// filtered scans).
bool GroupProvablyEmpty(const FooterView& footer, uint32_t local_group,
                        const StreamColumnPlan& plan,
                        const ReadOptions& read_options);

/// Opens a streaming scan over one Bullion file: resolves the spec,
/// prunes row groups against footer zone maps, and returns the stream.
/// The reader must outlive it.
Result<std::unique_ptr<BatchStream>> OpenScanStream(
    const TableReader* reader, const ScanStreamSpec& spec);

}  // namespace bullion
