#include "dataset/sharded_writer.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace bullion {

Status ValidateShardedWriterOptions(const ShardedWriterOptions& options,
                                    const Schema& schema) {
  if (options.target_rows_per_shard == 0) {
    return Status::InvalidArgument("target_rows_per_shard must be positive");
  }
  if (options.rows_per_group == 0) {
    return Status::InvalidArgument("rows_per_group must be positive");
  }
  return ValidateWriterOptions(options.writer, schema);
}

ShardedTableWriter::ShardedTableWriter(Schema schema,
                                       ShardedWriterOptions options,
                                       FileOpener opener, ThreadPool* pool)
    : schema_(std::move(schema)),
      options_(std::move(options)),
      opener_(std::move(opener)),
      init_status_(ValidateShardedWriterOptions(options_, schema_)),
      pool_(pool) {
  if (pool_ == nullptr && options_.threads > 1) {
    owned_pool_ = std::make_unique<ThreadPool>(options_.threads);
    pool_ = owned_pool_.get();
  }
  pending_batch_.reserve(schema_.num_leaves());
  for (const LeafColumn& leaf : schema_.leaves()) {
    pending_batch_.push_back(ColumnVector::ForLeaf(leaf));
  }
}

std::string ShardedTableWriter::ShardName(const std::string& base,
                                          size_t index) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".shard-%05zu", index);
  return base + suffix;
}

Status ShardedTableWriter::WriteGroup() {
  if (pending_rows_ == 0) return Status::OK();
  std::vector<ColumnVector> batch = std::move(pending_batch_);
  pending_batch_.clear();
  pending_batch_.reserve(schema_.num_leaves());
  for (const LeafColumn& leaf : schema_.leaves()) {
    pending_batch_.push_back(ColumnVector::ForLeaf(leaf));
  }
  uint64_t rows = pending_rows_;
  pending_rows_ = 0;

  // Shard assignment is pure row-count arithmetic, so it is identical
  // at any thread count. Shards roll only at group boundaries, so every
  // shard is a complete Bullion file.
  Shard full;
  if (open_.writer == nullptr ||
      open_.rows >= options_.target_rows_per_shard) {
    Shard next;
    next.name = ShardName(options_.base_name,
                          options_.first_shard_index + shards_.size() +
                              (open_.writer != nullptr ? 1 : 0));
    Result<std::unique_ptr<WritableFile>> file = opener_(next.name);
    // Sticky on failure, like every failure below: the buffered rows
    // were already consumed, so continuing would silently drop them.
    if (!file.ok()) {
      error_ = file.status();
      return error_;
    }
    next.file = std::move(*file);
    next.writer = std::make_unique<TableWriter>(schema_, next.file.get(),
                                                options_.writer, pool_);
    full = std::exchange(open_, std::move(next));
  }
  Status st = open_.writer->WriteRowGroup(std::move(batch));
  if (st.ok()) {
    open_.rows += rows;
    ++open_.groups;
    total_rows_ += rows;
  }
  // The full shard finishes only now, so its last commits and footer
  // overlap the encodes of the group just handed to the next shard.
  if (st.ok() && full.writer != nullptr) st = CloseShard(std::move(full));
  if (!st.ok()) error_ = st;
  return st;
}

Status ShardedTableWriter::CloseShard(Shard shard) {
  BULLION_RETURN_NOT_OK(shard.writer->Finish());
  shards_.push_back(ShardInfo{std::move(shard.name), shard.rows, shard.groups});
  return Status::OK();
}

Status ShardedTableWriter::Append(const std::vector<ColumnVector>& columns) {
  BULLION_RETURN_NOT_OK(init_status_);
  BULLION_RETURN_NOT_OK(error_);
  if (finished_) return Status::InvalidArgument("writer already finished");
  BULLION_RETURN_NOT_OK(ValidateBatch(schema_, columns));
  size_t rows = columns.empty() ? 0 : columns[0].num_rows();
  size_t row = 0;
  while (row < rows) {
    size_t take = std::min<size_t>(options_.rows_per_group - pending_rows_,
                                   rows - row);
    for (size_t c = 0; c < columns.size(); ++c) {
      pending_batch_[c].AppendRows(columns[c], row, row + take);
    }
    pending_rows_ += take;
    row += take;
    if (pending_rows_ == options_.rows_per_group) {
      BULLION_RETURN_NOT_OK(WriteGroup());
    }
  }
  return Status::OK();
}

Result<ShardManifest> ShardedTableWriter::Finish() {
  if (finished_) return Status::InvalidArgument("writer already finished");
  finished_ = true;
  Status st = init_status_.ok() ? error_ : init_status_;
  if (st.ok()) st = WriteGroup();  // partial tail group
  if (st.ok() && open_.writer != nullptr) st = CloseShard(std::move(open_));
  // After a failure, dropping the open shard joins its encodes without
  // writing.
  open_ = Shard{};
  BULLION_RETURN_NOT_OK(st);
  return ShardManifest(std::move(shards_));
}

}  // namespace bullion
