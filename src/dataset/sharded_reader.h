// ShardedTableReader: read a logical table that spans many Bullion
// shard files as if it were one file.
//
// Open() validates each shard against the manifest (row counts, group
// counts) and that every shard's schema is a prefix of the newest
// (last) shard's schema — schema evolution may append nullable trailing
// columns, which older shards back-fill with null rows at scan time.
// The dataset is then exposed through *global* row-group coordinates:
// groups number 0..total_row_groups() across shards in manifest order.
//
// bullion::Scan(dataset) (core/scan.h) is the front door: it hands the
// shard readers, in manifest order and with their manifest
// generations, to the one scan planner (exec/batch_stream.h), which
// fans the coalesced reads of every selected row group — across ALL
// shards — through one shared exec::ThreadPool with one in-flight
// window, so an 8-shard scan at 8 threads keeps 8 reads in flight
// total, not 8 per shard. Output is byte-identical to concatenating
// per-shard serial reads at any thread/shard count.
//
// Plug in a DecodedChunkCache and repeated epochs skip both fetch and
// decode: before planning any I/O the stream probes the cache per
// (shard, group, column); fully-cached groups issue zero preads
// (watch IoStats.read_ops and DecodedChunkCache::hits()), and freshly
// decoded chunks are published to the cache from the worker threads as
// the scan runs.
//
//   auto ds = ShardedTableReader::Open(manifest, open_fn);
//   DecodedChunkCache cache(256 << 20);
//   auto scan = bullion::Scan(ds->get())
//                   .Columns({"uid", "clk_seq"})
//                   .Threads(8)
//                   .Cache(&cache)
//                   .Collect();
//   auto uid = scan->ConcatColumn(0);   // across every shard

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dataset/shard_manifest.h"
#include "format/reader.h"
#include "io/file.h"

namespace bullion {

/// \brief Read handle over a sharded logical table.
class ShardedTableReader {
 public:
  using FileOpener = std::function<Result<std::unique_ptr<RandomAccessFile>>(
      const std::string&)>;

  /// Opens every shard named by `manifest` through `opener` and
  /// cross-checks footers against the manifest and each other.
  static Result<std::unique_ptr<ShardedTableReader>> Open(
      const ShardManifest& manifest, const FileOpener& opener);

  /// Opens already-opened shard files in table order, rebuilding the
  /// manifest from their footers (shard names become "shard-N", all
  /// generations 0 — footers don't record rewrite generations). When
  /// scans share a DecodedChunkCache across compactions, open via the
  /// manifest overload instead: only the manifest carries the shard
  /// generations that keep pre-compaction cache entries from being
  /// served.
  static Result<std::unique_ptr<ShardedTableReader>> Open(
      std::vector<std::unique_ptr<RandomAccessFile>> files);

  const ShardManifest& manifest() const { return manifest_; }
  size_t num_shards() const { return shards_.size(); }
  const TableReader* shard_reader(size_t i) const { return shards_[i].get(); }

  uint64_t num_rows() const { return manifest_.total_rows(); }
  uint32_t num_row_groups() const { return manifest_.total_row_groups(); }
  /// Leaf column count (0 for a zero-shard dataset).
  uint32_t num_columns() const;

 private:
  ShardedTableReader() = default;

  ShardManifest manifest_;
  std::vector<std::unique_ptr<TableReader>> shards_;
};

}  // namespace bullion
