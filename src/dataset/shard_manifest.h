// ShardManifest: the metadata spine of a sharded logical table.
//
// A logical table at Bullion's target scale is not one file — it is an
// ordered list of Bullion files ("shards") that together hold the
// table's row groups. The manifest records, per shard, the file name,
// row count, row-group count, deleted-row count, and rewrite
// generation, and derives from them a *global* row-group index: global
// group g maps to (shard, shard-local group) so scan code can address
// the whole table with one flat group range, exactly like a single
// file.
//
// The manifest serializes to a small self-describing blob (magic +
// version + varint-packed shard records) so it can live next to the
// shards as `<table>.manifest`; it can also be rebuilt from the shard
// footers alone (ShardedTableReader::Open validates the two agree).
//
// Manifest wire format (little-endian):
//
//   magic   u32   0x4D485342 ("BSHM")
//   version u32   1, 2, 3, or 4
//   -- v2+ only --
//   generation    varint64   dataset generation (bumped every publish:
//                            append or compaction)
//   -- all --
//   count         varint64   number of shard records
//   repeated `count` times:
//     name_len    varint64
//     name        name_len bytes
//     num_rows    varint64
//     num_groups  varint64
//     -- v2+ only --
//     deleted     varint64   rows tombstoned in this shard at publish
//                            time (compaction-trigger hint; the shard
//                            footer's deletion vectors are the ground
//                            truth and may run ahead of this)
//     shard_gen   varint64   rewrite generation of this shard file
//                            (bumped by compaction; keys the decoded-
//                            chunk cache so pre-rewrite entries can
//                            never serve a post-rewrite scan)
//     -- v3+ only (legacy) --
//     stats_count varint64   per-column shard zone maps
//     repeated `stats_count` times:
//       column    varint64   leaf column index (fits in u32)
//       flags     u8
//       min_bits  varint64
//       max_bits  varint64
//     -- v4 only (legacy) --
//     bloom_count varint64   per-column shard Bloom filters
//     repeated `bloom_count` times:
//       column    varint64   leaf column index (fits in u32)
//       bits_len  varint64   non-zero multiple of 32
//       bits      bits_len bytes
//
// Serialize() writes v2. Parse() accepts v1–v4: older records load
// with deleted = 0 and generation = 0, and the v3/v4 per-shard
// aggregates are framing-checked and then dropped. Pruning reads only
// the shard footers' chunk zone maps and Bloom filters, which
// ShardedTableReader::Open parses for every shard anyway.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace bullion {

/// \brief One shard's entry in the manifest.
struct ShardInfo {
  /// File name, relative to wherever the dataset lives (the reader
  /// resolves it through a caller-supplied opener).
  std::string name;
  uint64_t num_rows = 0;
  uint32_t num_row_groups = 0;
  /// Deleted (tombstoned) rows at publish time; the footer's deletion
  /// vectors may run ahead of this between publishes.
  uint64_t deleted_rows = 0;
  /// Rewrite generation of the shard file (0 = as first written;
  /// compaction bumps it each time the shard is rewritten in place).
  uint32_t generation = 0;

  /// Deleted fraction recorded at publish time.
  double deleted_fraction() const {
    return num_rows == 0 ? 0.0
                         : static_cast<double>(deleted_rows) /
                               static_cast<double>(num_rows);
  }

  bool operator==(const ShardInfo& o) const = default;
};

/// \brief Ordered shard list + global row-group index.
class ShardManifest {
 public:
  /// Where a global row group physically lives.
  struct GroupRef {
    uint32_t shard = 0;        // index into shards()
    uint32_t local_group = 0;  // row group within that shard
  };

  ShardManifest() = default;
  /// Builds the manifest (and its global group index) from shard
  /// entries in table order. Empty shards are legal — they contribute
  /// no global groups. `generation` is the dataset generation (bumped
  /// on every publish by the appender/compactor).
  explicit ShardManifest(std::vector<ShardInfo> shards,
                         uint64_t generation = 0);

  size_t num_shards() const { return shards_.size(); }
  const ShardInfo& shard(size_t i) const { return shards_[i]; }
  const std::vector<ShardInfo>& shards() const { return shards_; }

  uint64_t total_rows() const { return total_rows_; }
  uint32_t total_row_groups() const { return total_row_groups_; }
  /// Sum of per-shard deleted-row counts recorded at publish time.
  uint64_t total_deleted_rows() const { return total_deleted_; }
  /// Dataset generation this manifest was published at.
  uint64_t generation() const { return generation_; }

  /// Maps a global row-group index to its shard. Out-of-range `g`
  /// (including any probe of an empty manifest) is OutOfRange, not a
  /// wild shard index.
  Result<GroupRef> group(uint32_t g) const;

  /// First global row-group index of shard `s` (== total_row_groups()
  /// for an empty trailing shard).
  uint32_t shard_group_begin(uint32_t s) const { return group_begin_[s]; }

  bool operator==(const ShardManifest& o) const {
    return shards_ == o.shards_ && generation_ == o.generation_;
  }

  /// Serializes to the on-disk manifest blob (always v2).
  Buffer Serialize() const;
  /// Parses a blob produced by Serialize() or a legacy (v1, v3, v4)
  /// writer.
  static Result<ShardManifest> Parse(Slice data);

 private:
  std::vector<ShardInfo> shards_;
  /// group_begin_[s] = first global group of shard s; has
  /// num_shards() + 1 entries (sentinel = total_row_groups()).
  std::vector<uint32_t> group_begin_;
  uint64_t total_rows_ = 0;
  uint64_t total_deleted_ = 0;
  uint32_t total_row_groups_ = 0;
  uint64_t generation_ = 0;
};

}  // namespace bullion
