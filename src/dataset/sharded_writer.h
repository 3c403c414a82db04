// ShardedTableWriter: splits one logical append stream into N Bullion
// files ("shards") by a target rows-per-shard.
//
// Callers append columnar row batches of any size; the writer slices
// them into fixed-size row groups and rolls to a fresh shard file
// whenever the current shard reaches the target (always on a row-group
// boundary, so every shard is a complete, independently readable
// Bullion file). Finish() closes the tail shard and returns the
// ShardManifest describing what was written — persist it as
// `<table>.manifest` or rebuild it later from the shard footers.
//
// Each shard is one TableWriter (format/writer.h) whose page encodes
// run on ONE shared exec::ThreadPool. A full row group is moved into
// the open shard's writer at once. When a shard is full, the next
// group opens the next shard's writer, and the full shard is finished
// right after that group was handed over, so its last commits and
// footer overlap the new group's encodes. Shard assignment is row-count
// arithmetic and every file byte is placed by the ordered commits, so
// output is byte-identical to the serial writer at any thread count.
//
// File creation goes through a caller-supplied opener so the writer is
// filesystem-agnostic (InMemoryFileSystem in tests/benches, POSIX in
// examples). ShardedWriteBuilder is the fluent front door:
//
//   auto writer = ShardedWriteBuilder(schema, [&](const std::string& n) {
//                     return fs.NewWritableFile(n);
//                 })
//                     .BaseName("table")
//                     .RowsPerShard(1 << 20)
//                     .RowsPerGroup(65536)
//                     .Threads(8)            // encode workers, all shards
//                     .Build();
//   (*writer)->Append(batch1);               // any row count
//   (*writer)->Append(batch2);
//   ShardManifest manifest = *(*writer)->Finish();

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dataset/shard_manifest.h"
#include "exec/thread_pool.h"
#include "format/column_vector.h"
#include "format/schema.h"
#include "format/writer.h"
#include "io/file.h"

namespace bullion {

struct ShardedWriterOptions {
  /// A shard closes at the first row-group boundary at or past this
  /// many rows; actual shard sizes are within one row group of it.
  /// Must be positive.
  uint64_t target_rows_per_shard = 1 << 20;
  /// Rows per row group inside each shard. Must be positive.
  uint32_t rows_per_group = 65536;
  /// Shard file names: "<base_name>.shard-00000", -00001, ...
  std::string base_name = "table";
  /// First shard number to use in file names — a DatasetAppender
  /// extending an existing dataset starts numbering after its last
  /// shard so new files never collide with live ones.
  size_t first_shard_index = 0;
  /// Per-shard file options (page size, encodings, compliance, ...).
  WriterOptions writer;
  /// Encode worker threads shared across ALL shards (<= 1 encodes
  /// inline on the calling thread — the serial reference path). An
  /// external pool passed to the constructor overrides this.
  size_t threads = 1;
};

/// Checks a ShardedWriterOptions against a schema: positive
/// rows-per-shard / rows-per-group plus the nested WriterOptions
/// checks.
Status ValidateShardedWriterOptions(const ShardedWriterOptions& options,
                                    const Schema& schema);

/// \brief Streams row batches into a sequence of Bullion shard files.
class ShardedTableWriter {
 public:
  using FileOpener =
      std::function<Result<std::unique_ptr<WritableFile>>(const std::string&)>;

  /// If `pool` is null and `options.threads` > 1, a private pool is
  /// spun up for the writer's lifetime; a shared `pool` lets several
  /// writers (or writers and scanners) share one set of workers.
  ShardedTableWriter(Schema schema, ShardedWriterOptions options,
                     FileOpener opener, ThreadPool* pool = nullptr);

  /// Appends a batch: one ColumnVector per schema leaf, each of the
  /// leaf's physical type and list depth, equal row counts. A batch
  /// that fails ValidateBatch is rejected before any row is copied and
  /// leaves the writer usable. Rows are buffered and written as full
  /// row groups.
  Status Append(const std::vector<ColumnVector>& columns);

  /// Writes the buffered rows as a last (partial) group, finishes the
  /// shard files still open in shard order, and returns the manifest.
  /// Must be called exactly once; a stream with zero rows yields a
  /// zero-shard manifest.
  Result<ShardManifest> Finish();

  /// Rows accepted so far (buffered and in-flight rows included).
  uint64_t num_rows() const { return total_rows_ + pending_rows_; }

  /// Name of shard `index` under `base`: "<base>.shard-00042".
  static std::string ShardName(const std::string& base, size_t index);

 private:
  /// One shard file and the writer filling it.
  struct Shard {
    std::string name;
    std::unique_ptr<WritableFile> file;
    std::unique_ptr<TableWriter> writer;
    uint64_t rows = 0;
    uint32_t groups = 0;
  };

  /// Moves the buffered rows into the open shard's writer as one row
  /// group, opening the next shard first when the open one is full.
  Status WriteGroup();
  /// Finishes `shard`'s file and records its ShardInfo.
  Status CloseShard(Shard shard);

  Schema schema_;
  ShardedWriterOptions options_;
  FileOpener opener_;
  Status init_status_;

  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_;

  /// Row-group staging buffer (one vector per leaf).
  std::vector<ColumnVector> pending_batch_;
  uint64_t pending_rows_ = 0;

  /// The shard receiving groups; its writer is null before the first
  /// group and after Finish().
  Shard open_;
  std::vector<ShardInfo> shards_;
  uint64_t total_rows_ = 0;
  Status error_;  // sticky first failure
  bool finished_ = false;
};

/// \brief Fluent builder for (parallel) sharded writes — the write-side
/// twin of bullion::Scan over a dataset.
class ShardedWriteBuilder {
 public:
  ShardedWriteBuilder(Schema schema, ShardedTableWriter::FileOpener opener)
      : schema_(std::move(schema)), opener_(std::move(opener)) {}

  ShardedWriteBuilder& BaseName(std::string name) {
    options_.base_name = std::move(name);
    return *this;
  }
  /// Target rows per shard file (shards roll on group boundaries).
  ShardedWriteBuilder& RowsPerShard(uint64_t rows) {
    options_.target_rows_per_shard = rows;
    return *this;
  }
  /// Number the first new shard file "<base>.shard-<n>" (appends).
  ShardedWriteBuilder& FirstShardIndex(size_t n) {
    options_.first_shard_index = n;
    return *this;
  }
  /// Rows per row group inside each shard.
  ShardedWriteBuilder& RowsPerGroup(uint32_t rows) {
    options_.rows_per_group = rows;
    return *this;
  }
  /// Rows per page (shorthand for Options).
  ShardedWriteBuilder& RowsPerPage(uint32_t rows) {
    options_.writer.rows_per_page = rows;
    return *this;
  }
  /// Per-shard file options (page size, encodings, compliance, ...).
  ShardedWriteBuilder& Options(WriterOptions writer) {
    options_.writer = std::move(writer);
    return *this;
  }
  /// Encode worker threads shared across all shards.
  ShardedWriteBuilder& Threads(size_t n) {
    options_.threads = n;
    return *this;
  }
  /// Run encodes on a shared pool instead of a writer-private one.
  ShardedWriteBuilder& Pool(ThreadPool* pool) {
    pool_ = pool;
    return *this;
  }

  /// Validates the options and constructs the writer.
  Result<std::unique_ptr<ShardedTableWriter>> Build() const {
    BULLION_RETURN_NOT_OK(ValidateShardedWriterOptions(options_, schema_));
    return std::make_unique<ShardedTableWriter>(schema_, options_, opener_,
                                                pool_);
  }

 private:
  Schema schema_;
  ShardedTableWriter::FileOpener opener_;
  ShardedWriterOptions options_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace bullion
