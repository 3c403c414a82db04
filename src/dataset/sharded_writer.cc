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
  size_t workers =
      pool_ != nullptr ? std::max<size_t>(pool_->num_threads(), 1) : 1;
  max_pending_ = options_.max_pending_groups > 0 ? options_.max_pending_groups
                                                 : 2 * workers;
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

Status ShardedTableWriter::EnsureShardOpen(size_t shard) {
  if (shard_writer_ != nullptr) {
    if (open_shard_ != shard) {
      return Status::Unknown("commit crossed a shard boundary out of order");
    }
    return Status::OK();
  }
  std::string name =
      ShardName(options_.base_name, options_.first_shard_index + shard);
  BULLION_ASSIGN_OR_RETURN(shard_file_, opener_(name));
  shard_writer_ = std::make_unique<TableWriter>(schema_, shard_file_.get(),
                                                options_.writer);
  open_shard_ = shard;
  shard_rows_ = 0;
  shard_groups_ = 0;
  return Status::OK();
}

Status ShardedTableWriter::SubmitGroup() {
  if (pending_rows_ == 0) return Status::OK();
  auto batch = std::make_shared<const std::vector<ColumnVector>>(
      std::move(pending_batch_));
  pending_batch_.clear();
  pending_batch_.reserve(schema_.num_leaves());
  for (const LeafColumn& leaf : schema_.leaves()) {
    pending_batch_.push_back(ColumnVector::ForLeaf(leaf));
  }
  uint64_t rows = pending_rows_;
  pending_rows_ = 0;

  // Sticky on failure: the buffered rows were already consumed, so
  // continuing would silently drop them from the stream.
  Result<StagedRowGroup> staged =
      StageValidatedRowGroup(schema_, options_.writer, std::move(batch));
  if (!staged.ok()) {
    error_ = staged.status();
    return error_;
  }

  // Shard assignment is pure row-count arithmetic on the staging side,
  // so it is identical at any thread count. Shards close only at group
  // boundaries, so every shard is a complete Bullion file.
  pending_.emplace_back();
  PendingGroup& pg = pending_.back();
  pg.shard = staging_shard_;
  staging_shard_rows_ += rows;
  pg.closes_shard = staging_shard_rows_ >= options_.target_rows_per_shard;
  if (pg.closes_shard) {
    ++staging_shard_;
    staging_shard_rows_ = 0;
  }
  total_rows_ += rows;

  // Encode tasks capture a pointer to the pages vector: emplace first,
  // submit second, and never move the PendingGroup while tasks run.
  pg.staged = std::make_shared<const StagedRowGroup>(std::move(*staged));
  pg.tasks = std::make_unique<TaskGroup>(pool_);
  Status st = SubmitGroupEncode(pg.staged, pg.tasks.get(), &pg.pages);
  if (!st.ok()) {
    // The submit error is the one to report; the join only reclaims
    // whatever tasks did start.
    pg.tasks->Wait().IgnoreError();
    pending_.pop_back();
    error_ = st;
    return error_;
  }
  while (pending_.size() > max_pending_) {
    BULLION_RETURN_NOT_OK(DrainOne());
  }
  return Status::OK();
}

Status ShardedTableWriter::DrainOne() {
  PendingGroup& pg = pending_.front();
  Status st = pg.tasks->Wait();
  if (st.ok()) st = EnsureShardOpen(pg.shard);
  if (st.ok()) st = shard_writer_->CommitEncodedGroup(*pg.staged, pg.pages);
  if (st.ok()) {
    shard_rows_ += pg.staged->row_count;
    ++shard_groups_;
    if (pg.closes_shard) st = CloseShard();
  }
  pending_.pop_front();
  if (!st.ok()) error_ = st;
  return st;
}

Status ShardedTableWriter::CloseShard() {
  BULLION_RETURN_NOT_OK(shard_writer_->Finish());
  BULLION_RETURN_NOT_OK(shard_file_->Flush());
  shards_.push_back(ShardInfo{
      ShardName(options_.base_name, options_.first_shard_index + open_shard_),
      shard_rows_, shard_groups_});
  shard_writer_.reset();
  shard_file_.reset();
  return Status::OK();
}

Status ShardedTableWriter::Append(const std::vector<ColumnVector>& columns) {
  BULLION_RETURN_NOT_OK(init_status_);
  BULLION_RETURN_NOT_OK(error_);
  if (finished_) return Status::InvalidArgument("writer already finished");
  if (columns.size() != schema_.num_leaves()) {
    return Status::InvalidArgument("batch has wrong leaf count");
  }
  size_t rows = columns.empty() ? 0 : columns[0].num_rows();
  for (const ColumnVector& c : columns) {
    if (c.num_rows() != rows) {
      return Status::InvalidArgument("batch columns disagree on row count");
    }
  }
  size_t row = 0;
  while (row < rows) {
    size_t take = std::min<size_t>(options_.rows_per_group - pending_rows_,
                                   rows - row);
    for (size_t c = 0; c < columns.size(); ++c) {
      for (size_t r = row; r < row + take; ++r) {
        pending_batch_[c].AppendRowFrom(columns[c], static_cast<int64_t>(r));
      }
    }
    pending_rows_ += take;
    row += take;
    if (pending_rows_ == options_.rows_per_group) {
      BULLION_RETURN_NOT_OK(SubmitGroup());
    }
  }
  return Status::OK();
}

Result<ShardManifest> ShardedTableWriter::Finish() {
  if (finished_) return Status::InvalidArgument("writer already finished");
  finished_ = true;
  BULLION_RETURN_NOT_OK(init_status_);
  Status st = error_;
  if (st.ok()) st = SubmitGroup();  // partial tail group
  while (!pending_.empty()) {
    if (st.ok()) {
      st = DrainOne();
    } else {
      // A commit already failed: join the stragglers without writing.
      // `st` already holds the error to report.
      pending_.front().tasks->Wait().IgnoreError();
      pending_.pop_front();
    }
  }
  if (st.ok() && shard_writer_ != nullptr) {
    st = CloseShard();  // partial tail shard
  }
  BULLION_RETURN_NOT_OK(st);
  return ShardManifest(std::move(shards_));
}

}  // namespace bullion
