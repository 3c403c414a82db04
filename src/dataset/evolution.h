// Dataset evolution: a sharded logical table as a LIVE store.
//
// PR 2/3 made datasets writable once and readable forever; this layer
// closes the loop for Bullion's long-lived training tables:
//
//   DatasetAppender   -- opens an existing dataset and appends new
//                        shards through ShardedTableWriter (one
//                        TableWriter per shard, page encodes on a
//                        shared exec::ThreadPool), then
//                        publishes a v2 manifest with the dataset
//                        generation bumped. Appends may *evolve* the
//                        schema by adding nullable trailing columns;
//                        scans over older shards back-fill those
//                        columns with null rows.
//   DatasetCompactor  -- walks the shards, picks the ones whose
//                        deleted fraction (§2.1 tombstones) meets the
//                        policy threshold, rewrites each via
//                        CompactTable with page encodes fanned across
//                        the shared exec::ThreadPool (commits in shard
//                        order), garbage-collects the replaced files,
//                        and invalidates stale DecodedChunkCache
//                        entries by shard generation.
//
// Publish protocol: shard files are immutable once closed (deletion
// vectors aside) and are fully written + flushed BEFORE the updated
// manifest is returned/persisted, so the old manifest stays valid at
// every instant — a crash mid-append or mid-compaction leaves at worst
// unreferenced files, never a manifest naming missing or half-written
// data. Compaction writes each replacement under a NEW name
// ("<shard>.g<generation>") and garbage-collects the old files only
// after EVERY rewrite is durable, the replacement manifest is built,
// and the caller's `publish` hook (if configured) has persisted it —
// an error anywhere before GC leaves the old files untouched.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dataset/chunk_cache.h"
#include "dataset/shard_manifest.h"
#include "dataset/sharded_writer.h"
#include "format/compaction.h"
#include "format/schema.h"
#include "io/file.h"

namespace bullion {

class ThreadPool;  // exec/thread_pool.h

/// Checks that `appended` may extend a dataset whose newest shard has
/// schema `existing`: the existing leaves must be an exact prefix
/// (name, physical type, list depth, logical type), and every new
/// trailing leaf must be nullable so older shards can back-fill null
/// rows at read time. Identical schemas trivially pass.
Status CheckAppendSchema(const Schema& existing, const Schema& appended);

struct DatasetAppendOptions {
  /// Rows-per-shard / rows-per-group / writer options / encode threads
  /// for the NEW shards. `base_name` and `first_shard_index` are
  /// overwritten by the appender (names continue the dataset's
  /// numbering).
  ShardedWriterOptions writer;
  /// Base name for new shard files; empty = derive from the dataset's
  /// last shard name (strip its ".shard-NNNNN" suffix).
  std::string base_name;
};

/// \brief Appends new shards to an existing dataset and republishes
/// the manifest.
class DatasetAppender {
 public:
  using ReadOpener = std::function<Result<std::unique_ptr<RandomAccessFile>>(
      const std::string&)>;
  using WriteOpener = ShardedTableWriter::FileOpener;

  /// Opens the dataset described by `base`. `schema` is the append
  /// schema: it must pass CheckAppendSchema against the newest existing
  /// shard's schema (read via `read_opener`); pass the dataset's own
  /// schema (or, for an empty dataset, any schema) when not evolving.
  /// `pool` optionally shares encode workers with other writers.
  static Result<std::unique_ptr<DatasetAppender>> Open(
      const ShardManifest& base, Schema schema, const ReadOpener& read_opener,
      WriteOpener write_opener, DatasetAppendOptions options = {},
      ThreadPool* pool = nullptr);

  /// Appends a batch (one ColumnVector per leaf of the append schema).
  /// Row groups stream through the shared parallel encode pipeline.
  Status Append(const std::vector<ColumnVector>& columns);

  /// Finishes the new shard files (each returns after its Flush())
  /// and returns the updated manifest: base shards (names,
  /// counts, generations untouched) + new shards, dataset generation
  /// bumped by one. Only after this returns is the new data referenced
  /// anywhere — persist the returned manifest to complete the publish.
  Result<ShardManifest> Finish();

  const Schema& schema() const { return schema_; }

 private:
  DatasetAppender(const ShardManifest& base, Schema schema,
                  ShardedWriterOptions options, WriteOpener opener,
                  ThreadPool* pool);

  ShardManifest base_;
  Schema schema_;
  ShardedTableWriter writer_;
  bool finished_ = false;
};

struct DatasetCompactionOptions {
  /// Compact every shard whose deleted fraction (from its footer's
  /// deletion vectors — the ground truth) is >= this.
  double min_deleted_fraction = 0.3;
  /// Encode workers for the rewrite (<= 1 = serial); `pool` overrides.
  size_t threads = 1;
  ThreadPool* pool = nullptr;
  /// When set, entries of compacted shards are dropped eagerly
  /// (DecodedChunkCache::InvalidateShard). Stale entries are
  /// unreachable either way — the cache key carries the shard
  /// generation — this just frees their budget immediately.
  DecodedChunkCache* cache = nullptr;
  /// Called with the updated manifest after every rewrite is durable
  /// and BEFORE any replaced file is removed — persist the manifest
  /// here so no crash window can leave the only durable manifest
  /// naming deleted files. A failure aborts GC (old files stay) and is
  /// returned. Leave unset only if no remover is configured or the
  /// caller accepts the window between Compact() returning and its own
  /// persist.
  std::function<Status(const ShardManifest&)> publish;
};

struct DatasetCompactionReport {
  size_t shards_examined = 0;
  size_t shards_compacted = 0;
  uint64_t rows_reclaimed = 0;
  uint64_t bytes_before = 0;
  uint64_t bytes_after = 0;
  /// Replaced shard files that were garbage-collected (or, with no
  /// remover configured, left for the caller to GC).
  std::vector<std::string> replaced_files;
  /// Files the remover failed on. GC is best-effort: a failed unlink
  /// never discards the new manifest — the data lives safely under
  /// both names and the caller can retry these.
  std::vector<std::string> gc_failures;
  /// The updated manifest: compacted shards renamed to
  /// "<name>.g<generation>" with zero deleted rows and generation
  /// bumped, untouched shards carried over with their deleted counts
  /// refreshed from the footers, dataset generation bumped by one.
  ShardManifest manifest;
};

/// \brief Deletion-aware shard compaction + GC over a sharded dataset.
class DatasetCompactor {
 public:
  using ReadOpener = DatasetAppender::ReadOpener;
  using WriteOpener = ShardedTableWriter::FileOpener;
  /// Deletes a replaced shard file; nullptr = skip GC (the report still
  /// lists the files so the caller can collect them).
  using FileRemover = std::function<Status(const std::string&)>;

  DatasetCompactor(ReadOpener read_opener, WriteOpener write_opener,
                   FileRemover remover = nullptr)
      : read_opener_(std::move(read_opener)),
        write_opener_(std::move(write_opener)),
        remover_(std::move(remover)) {}

  /// Compacts `base` under `options`. Shards are rewritten one at a
  /// time in shard order (commits ordered), each rewrite fanning its
  /// page encodes across the shared pool; the source's physical layout
  /// is preserved (LayoutWriterOptions). Every rewrite is flushed (by
  /// CompactTable), and only then are the replaced files GC'd — any failure returns with
  /// the old files intact, so `base` never names missing data.
  Result<DatasetCompactionReport> Compact(
      const ShardManifest& base, const DatasetCompactionOptions& options = {});

  /// Name a rewritten shard file: strips any existing ".g<digits>"
  /// suffix from `current` and appends ".g<generation>".
  static std::string CompactedShardName(const std::string& current,
                                        uint32_t generation);

 private:
  ReadOpener read_opener_;
  WriteOpener write_opener_;
  FileRemover remover_;
};

}  // namespace bullion
