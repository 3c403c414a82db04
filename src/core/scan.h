// bullion::Scan — the unified streaming read front door.
//
// One API scans a single Bullion file and a sharded dataset
// identically: pick a source, project columns, push down filters, and
// pull bounded RowBatches. Stream() hands either source to the one
// scan planner, OpenScanStream (exec/batch_stream.h), as a list of
// shards: a file is a list of one. Results stream group by group
// through the exec layer's in-flight window (bounded memory,
// backpressured I/O) instead of materializing the whole projection;
// zone-map and Bloom pruning skips row groups the filters prove
// irrelevant before a single pread, and residual row-level evaluation
// keeps the results exact.
//
//   auto stream = bullion::Scan(dataset.get())       // or a TableReader*
//                     .Columns({"uid", "score"})
//                     .Filter("score", CompareOp::kGt, 0.9)
//                     .Threads(8)
//                     .BatchRows(65536)
//                     .Cache(&cache)                 // dataset sources
//                     .Report(&report)               // pruning counts
//                     .Stream();
//   RowBatch batch;
//   for (;;) {
//     auto more = (*stream)->Next(&batch);
//     if (!more.ok() || !*more) break;
//     Train(batch.columns);                          // bounded memory
//   }
//
// When the whole result fits in memory, Collect() drains the same
// stream into a ScanResult instead (exec/batch_stream.h). Without
// filters or BatchRows it holds one entry per row group, byte-identical
// to the serial TableReader path at any thread count:
//
//   auto scan = bullion::Scan(reader.get())
//                   .Columns({"uid", "clk_seq"})
//                   .Threads(8)
//                   .Collect();
//   auto uid = scan->ConcatColumn(0);               // across row groups

#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dataset/chunk_cache.h"
#include "dataset/sharded_reader.h"
#include "exec/batch_stream.h"
#include "exec/thread_pool.h"
#include "format/reader.h"
#include "io/predicate.h"

namespace bullion {

/// \brief Fluent builder for streaming scans over either source kind.
class ScanStreamBuilder {
 public:
  explicit ScanStreamBuilder(const TableReader* reader) : file_(reader) {}
  explicit ScanStreamBuilder(const ShardedTableReader* dataset)
      : dataset_(dataset) {}

  /// Project these leaf columns by name (resolved against the footer /
  /// the newest shard's footer; unknown names are a clear NotFound).
  ScanStreamBuilder& Columns(std::vector<std::string> names) {
    spec_.column_names = std::move(names);
    return *this;
  }
  /// Project these leaf columns by index (takes precedence over
  /// names). Duplicates are allowed and emit duplicate slots.
  ScanStreamBuilder& ColumnIndices(std::vector<uint32_t> columns) {
    spec_.columns = std::move(columns);
    return *this;
  }
  /// Push down `column <op> value`; multiple filters AND. The column
  /// need not be projected — it is fetched for evaluation only.
  ScanStreamBuilder& Filter(std::string column, CompareOp op,
                            FilterValue value) {
    spec_.filters.push_back(
        bullion::Filter{std::move(column), op, value});
    return *this;
  }
  /// Push down `column IN (values...)` — a single-column disjunction
  /// of equalities. An empty list matches nothing. ANDs with the other
  /// filters/clauses like any clause.
  ScanStreamBuilder& FilterIn(std::string column,
                              std::vector<FilterValue> values) {
    spec_.filters.push_back(
        bullion::Filter{std::move(column), std::move(values)});
    return *this;
  }
  /// Push down a cross-column OR clause: `a == 1 OR b < 2`. Clauses
  /// AND with each other and with plain filters (conjunctive normal
  /// form).
  ScanStreamBuilder& FilterAnyOf(FilterClause clause) {
    spec_.filters.push_back(std::move(clause));
    return *this;
  }
  /// Fetch only the filter columns up front and pread just the page
  /// runs holding surviving rows of the other projected columns.
  /// Results are identical; only I/O shrinks. Best when filters are
  /// selective (point lookups); groups with in-place deletes silently
  /// take the full-fetch path.
  ScanStreamBuilder& LateMaterialize(bool on = true) {
    spec_.late_materialize = on;
    return *this;
  }
  /// Restrict to (global, for datasets) row groups [begin, end).
  ScanStreamBuilder& RowGroups(uint32_t begin, uint32_t end) {
    spec_.group_begin = begin;
    spec_.group_end = end;
    return *this;
  }
  /// Worker threads (<= 1 streams serially on the consuming thread).
  ScanStreamBuilder& Threads(size_t n) {
    spec_.threads = n;
    return *this;
  }
  /// Max rows per emitted batch (0 = one batch per row group).
  ScanStreamBuilder& BatchRows(uint64_t rows) {
    spec_.batch_rows = rows;
    return *this;
  }
  ScanStreamBuilder& Options(const ReadOptions& options) {
    spec_.read_options = options;
    return *this;
  }
  /// Run on a shared pool instead of a stream-private one.
  ScanStreamBuilder& Pool(ThreadPool* pool) {
    spec_.pool = pool;
    return *this;
  }
  /// Record per-stage timing, throughput, the pruned-group count, and
  /// the per-unit fetch+decode latency distribution into `report`
  /// (obs/pipeline_report.h). Must outlive the stream; accumulates
  /// across runs until Reset().
  ScanStreamBuilder& Report(obs::PipelineReport* report) {
    spec_.report = report;
    return *this;
  }
  /// Serve decoded chunks from (and publish fresh ones to) this cache.
  /// Dataset sources only — single files have no shard identity to key
  /// the cache by.
  ScanStreamBuilder& Cache(DecodedChunkCache* cache) {
    cache_ = cache;
    return *this;
  }

  /// Validates the spec against the source and opens the stream. The
  /// source (and cache, if any) must outlive the returned stream.
  Result<std::unique_ptr<BatchStream>> Stream() const {
    // Both source kinds plan as a shard list: a file is one shard, a
    // dataset its shards in manifest order with their generations.
    std::vector<ScanShard> shards;
    if (file_ != nullptr) {
      if (cache_ != nullptr) {
        return Status::InvalidArgument(
            "Cache() requires a dataset source: single files have no shard "
            "identity to key cached chunks by");
      }
      shards.push_back(ScanShard{file_, 0});
    } else {
      shards.reserve(dataset_->num_shards());
      for (size_t s = 0; s < dataset_->num_shards(); ++s) {
        shards.push_back(ScanShard{dataset_->shard_reader(s),
                                   dataset_->manifest().shard(s).generation});
      }
    }
    return OpenScanStream(std::move(shards), spec_, cache_);
  }

  /// Opens the stream and drains it into memory: one ScanResult entry
  /// per emitted batch. Fails with the stream's first error.
  Result<ScanResult> Collect() const {
    BULLION_ASSIGN_OR_RETURN(std::unique_ptr<BatchStream> stream, Stream());
    ScanResult result;
    BULLION_RETURN_NOT_OK(result.DrainStream(stream.get()));
    return result;
  }

 private:
  const TableReader* file_ = nullptr;
  const ShardedTableReader* dataset_ = nullptr;
  ScanStreamSpec spec_;
  DecodedChunkCache* cache_ = nullptr;
};

/// The unified scan front door: one call shape for both source kinds.
inline ScanStreamBuilder Scan(const TableReader* reader) {
  return ScanStreamBuilder(reader);
}
inline ScanStreamBuilder Scan(const ShardedTableReader* dataset) {
  return ScanStreamBuilder(dataset);
}

}  // namespace bullion
