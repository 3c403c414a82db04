// bullion::Lookup — the point-lookup serving front door.
//
// A lookup is a fully-filtered scan specialized for "give me the rows
// where key == K" (or key IN {K...}) over a single Bullion file or a
// sharded dataset. It rides the same streaming engine as
// bullion::Scan, so it inherits every pruning tier for free — manifest
// zone maps + per-shard aggregate Bloom filters skip whole shards,
// footer zone maps + per-chunk Bloom filters skip row groups — and
// adds late materialization by default: only the key column's pages
// are fetched up front, and the remaining projected columns are pread
// just for the page runs that still hold surviving rows. A miss that
// the Bloom filters catch costs zero data preads.
//
//   auto hit = bullion::Lookup(dataset.get())
//                  .Key("uid", int64_t{42})        // or Keys("uid", {...})
//                  .Columns({"uid", "score"})
//                  .Cache(&cache)
//                  .Run();
//   if (hit->num_rows() == 0) { /* definitively absent */ }
//
// Results are exact (never Bloom-approximate) and byte-identical to
// the equivalent filtered Scan: Bloom filters only ever skip extents
// they PROVE cannot match, and the residual row filter keeps the
// emitted rows precise.
//
// Instrumentation: every Run() bumps the bullion.lookup.* counters in
// the global metrics registry (requests, keys, rows, misses) and
// records end-to-end latency into bullion.lookup.latency_ns; attach a
// PipelineReport via Report() for per-stage timing of the underlying
// scan. The Bloom probe counters (bullion.bloom.probes / .negatives)
// are maintained by the scan layer itself. See src/obs/README.md.

#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/scan.h"
#include "dataset/chunk_cache.h"
#include "dataset/sharded_reader.h"
#include "exec/thread_pool.h"
#include "format/column_vector.h"
#include "format/reader.h"
#include "io/predicate.h"
#include "obs/pipeline_report.h"

namespace bullion {

/// \brief The rows matching one lookup, in projection order.
struct LookupResult {
  /// Dotted leaf names, parallel to `columns`.
  std::vector<std::string> column_names;
  /// One ColumnVector per projected column, all rows concatenated in
  /// scan order (shard order, then row-group order, then row order —
  /// the same order the equivalent filtered Scan emits). A miss holds
  /// one empty column per projected column.
  std::vector<ColumnVector> columns;

  size_t num_rows() const {
    return columns.empty() ? 0 : columns[0].num_rows();
  }
};

/// \brief Fluent builder for point lookups over either source kind.
///
/// Thin specialization of ScanStreamBuilder: Key()/Keys() install the
/// equality predicate, late materialization defaults ON, and Run()
/// collects the scan and concatenates each projected column into a
/// LookupResult while recording the bullion.lookup.* metrics.
class LookupBuilder {
 public:
  explicit LookupBuilder(const TableReader* reader)
      : builder_(reader), file_(reader) {
    builder_.LateMaterialize(true);
  }
  explicit LookupBuilder(const ShardedTableReader* dataset)
      : builder_(dataset), dataset_(dataset) {
    builder_.LateMaterialize(true);
  }

  /// Look up one key: rows where `column == key`.
  LookupBuilder& Key(std::string column, FilterValue key) {
    has_key_ = true;
    num_keys_ = 1;
    builder_.Filter(std::move(column), CompareOp::kEq, key);
    return *this;
  }
  /// Look up a batch: rows where `column IN (keys...)`. An empty list
  /// matches nothing (and costs no preads).
  LookupBuilder& Keys(std::string column, std::vector<FilterValue> keys) {
    has_key_ = true;
    num_keys_ = keys.size();
    builder_.FilterIn(std::move(column), std::move(keys));
    return *this;
  }

  /// Project these leaf columns (default: every leaf).
  LookupBuilder& Columns(std::vector<std::string> names) {
    builder_.Columns(std::move(names));
    return *this;
  }
  LookupBuilder& Threads(size_t n) {
    builder_.Threads(n);
    return *this;
  }
  LookupBuilder& Pool(ThreadPool* pool) {
    builder_.Pool(pool);
    return *this;
  }
  LookupBuilder& Cache(DecodedChunkCache* cache) {
    builder_.Cache(cache);
    return *this;
  }
  LookupBuilder& Report(obs::PipelineReport* report) {
    builder_.Report(report);
    return *this;
  }
  LookupBuilder& Options(const ReadOptions& options) {
    builder_.Options(options);
    return *this;
  }
  /// Late materialization is ON by default for lookups; turn it off to
  /// compare I/O shapes (results are identical either way).
  LookupBuilder& LateMaterialize(bool on) {
    builder_.LateMaterialize(on);
    return *this;
  }

  /// Executes the lookup and materializes every matching row.
  Result<LookupResult> Run() const;

 private:
  ScanStreamBuilder builder_;
  const TableReader* file_ = nullptr;
  const ShardedTableReader* dataset_ = nullptr;
  bool has_key_ = false;
  size_t num_keys_ = 0;
};

/// The point-lookup front door: one call shape for both source kinds.
inline LookupBuilder Lookup(const TableReader* reader) {
  return LookupBuilder(reader);
}
inline LookupBuilder Lookup(const ShardedTableReader* dataset) {
  return LookupBuilder(dataset);
}

}  // namespace bullion
