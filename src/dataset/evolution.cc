#include "dataset/evolution.h"

#include <cctype>
#include <memory>
#include <utility>

#include "exec/thread_pool.h"
#include "format/footer.h"
#include "format/reader.h"

namespace bullion {

namespace {

/// "t.shard-00003.g2" -> "t.shard-00003"; names without a trailing
/// ".g<digits>" generation suffix come back unchanged.
std::string StripGenerationSuffix(std::string name) {
  size_t g = name.rfind(".g");
  if (g != std::string::npos && g + 2 < name.size()) {
    bool digits = true;
    for (size_t i = g + 2; i < name.size(); ++i) {
      digits = digits && std::isdigit(static_cast<unsigned char>(name[i]));
    }
    if (digits) name.resize(g);
  }
  return name;
}

/// "t.shard-00003" / "t.shard-00003.g2" -> "t"; anything without the
/// shard suffix comes back unchanged.
std::string StripShardSuffix(std::string name) {
  name = StripGenerationSuffix(std::move(name));
  size_t s = name.rfind(".shard-");
  if (s != std::string::npos) name.resize(s);
  return name;
}

}  // namespace

Status CheckAppendSchema(const Schema& existing, const Schema& appended) {
  if (appended.num_leaves() < existing.num_leaves()) {
    return Status::InvalidArgument(
        "append schema drops columns (" +
        std::to_string(appended.num_leaves()) + " leaves, dataset has " +
        std::to_string(existing.num_leaves()) + ")");
  }
  for (size_t i = 0; i < existing.num_leaves(); ++i) {
    const LeafColumn& a = existing.leaves()[i];
    const LeafColumn& b = appended.leaves()[i];
    if (a.name != b.name || a.physical != b.physical ||
        a.list_depth != b.list_depth || a.logical != b.logical) {
      return Status::InvalidArgument(
          "append schema is not an extension of the dataset schema at leaf " +
          std::to_string(i) + " ('" + a.name + "' vs '" + b.name + "')");
    }
    // Flipping nullability off would make the NEW shard the widest
    // (reference) schema with a non-nullable column that older shards
    // lack — every later Open would then reject the whole dataset.
    if (a.nullable != b.nullable) {
      return Status::InvalidArgument("append schema changes nullability of '" +
                                     a.name + "'");
    }
    // Flipping deletability would split the dataset's erasure
    // guarantee: a level-2 delete would physically erase the column in
    // some shards and only DV-hide it in others.
    if (a.deletable != b.deletable) {
      return Status::InvalidArgument("append schema changes deletability of '" +
                                     a.name + "'");
    }
  }
  for (size_t i = existing.num_leaves(); i < appended.num_leaves(); ++i) {
    if (!appended.leaves()[i].nullable) {
      return Status::InvalidArgument(
          "appended column '" + appended.leaves()[i].name +
          "' must be nullable: shards written before it exists back-fill "
          "nulls at read time");
    }
  }
  return Status::OK();
}

DatasetAppender::DatasetAppender(const ShardManifest& base, Schema schema,
                                 ShardedWriterOptions options,
                                 WriteOpener opener, ThreadPool* pool)
    : base_(base),
      schema_(schema),
      writer_(std::move(schema), std::move(options), std::move(opener), pool) {}

Result<std::unique_ptr<DatasetAppender>> DatasetAppender::Open(
    const ShardManifest& base, Schema schema, const ReadOpener& read_opener,
    WriteOpener write_opener, DatasetAppendOptions options, ThreadPool* pool) {
  if (base.num_shards() > 0) {
    // The newest shard carries the dataset schema (older shards are
    // validated prefixes of it — see ShardedTableReader::Open).
    const std::string& last = base.shard(base.num_shards() - 1).name;
    BULLION_ASSIGN_OR_RETURN(auto file, read_opener(last));
    BULLION_ASSIGN_OR_RETURN(auto reader, TableReader::Open(std::move(file)));
    Schema existing = reader->footer().ReconstructSchema();
    if (schema.num_leaves() == 0) {
      schema = existing;  // convenience: append with the dataset schema
    } else {
      BULLION_RETURN_NOT_OK(CheckAppendSchema(existing, schema));
    }
  } else if (schema.num_leaves() == 0) {
    return Status::InvalidArgument(
        "appending to an empty dataset requires a schema");
  }

  ShardedWriterOptions wopts = std::move(options.writer);
  wopts.first_shard_index = base.num_shards();
  if (!options.base_name.empty()) {
    wopts.base_name = options.base_name;
  } else if (base.num_shards() > 0) {
    wopts.base_name = StripShardSuffix(base.shard(base.num_shards() - 1).name);
  }
  BULLION_RETURN_NOT_OK(ValidateShardedWriterOptions(wopts, schema));
  return std::unique_ptr<DatasetAppender>(
      new DatasetAppender(base, std::move(schema), std::move(wopts),
                          std::move(write_opener), pool));
}

Status DatasetAppender::Append(const std::vector<ColumnVector>& columns) {
  return writer_.Append(columns);
}

Result<ShardManifest> DatasetAppender::Finish() {
  if (finished_) return Status::InvalidArgument("appender already finished");
  finished_ = true;
  // Finish() returns after every new shard file was written and
  // flushed (TableWriter::Finish). Only after that does the data become
  // referenced, via the manifest returned here — the publish point.
  BULLION_ASSIGN_OR_RETURN(ShardManifest appended, writer_.Finish());
  std::vector<ShardInfo> shards = base_.shards();
  shards.insert(shards.end(), appended.shards().begin(),
                appended.shards().end());
  return ShardManifest(std::move(shards), base_.generation() + 1);
}

std::string DatasetCompactor::CompactedShardName(const std::string& current,
                                                 uint32_t generation) {
  return StripGenerationSuffix(current) + ".g" + std::to_string(generation);
}

Result<DatasetCompactionReport> DatasetCompactor::Compact(
    const ShardManifest& base, const DatasetCompactionOptions& options) {
  if (options.min_deleted_fraction < 0.0 ||
      options.min_deleted_fraction > 1.0) {
    return Status::InvalidArgument("min_deleted_fraction must be in [0, 1]");
  }
  DatasetCompactionReport report;

  // ONE pool serves every rewritten shard's page encodes; shards are
  // rewritten (committed) in shard order.
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool = options.pool;
  if (pool == nullptr && options.threads > 1) {
    owned_pool = std::make_unique<ThreadPool>(options.threads);
    pool = owned_pool.get();
  }

  std::vector<ShardInfo> shards;
  shards.reserve(base.num_shards());
  for (size_t s = 0; s < base.num_shards(); ++s) {
    const ShardInfo& info = base.shard(s);
    ++report.shards_examined;
    BULLION_ASSIGN_OR_RETURN(auto file, read_opener_(info.name));
    BULLION_ASSIGN_OR_RETURN(uint64_t file_bytes, file->Size());
    report.bytes_before += file_bytes;
    BULLION_ASSIGN_OR_RETURN(auto reader, TableReader::Open(std::move(file)));
    // The footer's deletion vectors are the ground truth; the
    // manifest's deleted count may lag in-place deletes.
    uint64_t deleted = reader->footer().TotalDeletedCount();
    double fraction =
        reader->num_rows() == 0
            ? 0.0
            : static_cast<double>(deleted) /
                  static_cast<double>(reader->num_rows());
    if (deleted == 0 || fraction < options.min_deleted_fraction) {
      ShardInfo kept = info;
      kept.deleted_rows = deleted;  // refresh the hint at publish time
      shards.push_back(std::move(kept));
      report.bytes_after += file_bytes;
      continue;
    }

    const uint32_t new_generation = info.generation + 1;
    std::string new_name = CompactedShardName(info.name, new_generation);
    BULLION_ASSIGN_OR_RETURN(auto dest, write_opener_(new_name));
    // CompactTable returns after the rewrite's Flush(): durable before
    // GC/publish.
    BULLION_ASSIGN_OR_RETURN(
        CompactionReport rewrite,
        CompactTable(reader.get(), dest.get(), /*options=*/nullptr, pool));

    shards.push_back(ShardInfo{new_name, rewrite.rows_after,
                               rewrite.row_groups_after, /*deleted_rows=*/0,
                               new_generation});
    ++report.shards_compacted;
    report.rows_reclaimed += rewrite.rows_before - rewrite.rows_after;
    report.bytes_after += rewrite.bytes_written;
    report.replaced_files.push_back(info.name);
    if (options.cache != nullptr) {
      options.cache->InvalidateShard(static_cast<uint32_t>(s), new_generation);
    }
  }
  report.manifest = ShardManifest(std::move(shards), base.generation() + 1);
  // Publish BEFORE GC: once the caller's persist hook has made the new
  // manifest durable, deleting the replaced files can never strand the
  // only durable manifest pointing at missing data. A publish failure
  // aborts with every old file still in place — the base manifest
  // stays valid at every instant (readers mid-scan on it included).
  if (options.publish != nullptr) {
    BULLION_RETURN_NOT_OK(options.publish(report.manifest));
  }
  // Removal is best-effort — a failed unlink must not discard the new
  // manifest (the data lives safely under both names), so failures are
  // recorded for the caller to retry rather than returned.
  if (remover_ != nullptr) {
    for (const std::string& old : report.replaced_files) {
      if (!remover_(old).ok()) report.gc_failures.push_back(old);
    }
  }
  return report;
}

}  // namespace bullion
