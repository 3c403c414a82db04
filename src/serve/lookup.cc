#include "serve/lookup.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace bullion {

Result<LookupResult> LookupBuilder::Run() const {
  if (!has_key_) {
    return Status::InvalidArgument(
        "Lookup requires Key() or Keys(): use bullion::Scan for "
        "unkeyed reads");
  }
  const uint64_t start_ns = obs::NowNs();
  static obs::Counter* requests =
      obs::MetricsRegistry::Global().GetCounter("bullion.lookup.requests");
  static obs::Counter* keys =
      obs::MetricsRegistry::Global().GetCounter("bullion.lookup.keys");
  static obs::Counter* rows =
      obs::MetricsRegistry::Global().GetCounter("bullion.lookup.rows");
  static obs::Counter* misses =
      obs::MetricsRegistry::Global().GetCounter("bullion.lookup.misses");
  static obs::LatencyHistogram* latency =
      obs::MetricsRegistry::Global().GetHistogram(
          "bullion.lookup.latency_ns");
  requests->Increment();
  keys->Increment(num_keys_);

  BULLION_ASSIGN_OR_RETURN(ScanResult scan, builder_.Collect());
  // A miss (every extent pruned, or no row survives the residual)
  // yields one empty column per projected column.
  LookupResult result;
  result.columns.reserve(scan.columns.size());
  for (size_t slot = 0; slot < scan.columns.size(); ++slot) {
    BULLION_ASSIGN_OR_RETURN(ColumnVector column, scan.ConcatColumn(slot));
    result.columns.push_back(std::move(column));
  }
  // Names come from the footer that resolved the projection: the
  // file's own, or the newest shard's for a dataset (earlier shards are
  // validated prefixes of it). A zero-shard dataset projects nothing.
  const TableReader* resolver = file_;
  if (resolver == nullptr && dataset_->num_shards() > 0) {
    resolver = dataset_->shard_reader(dataset_->num_shards() - 1);
  }
  if (resolver != nullptr) {
    for (uint32_t c : scan.columns) {
      result.column_names.emplace_back(resolver->footer().column_name(c));
    }
  }

  rows->Increment(result.num_rows());
  if (result.num_rows() == 0) misses->Increment();
  latency->Record(obs::NowNs() - start_ns);
  return result;
}

}  // namespace bullion
