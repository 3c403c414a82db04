#include "dataset/sharded_reader.h"

#include <algorithm>
#include <utility>

namespace bullion {

Result<std::unique_ptr<ShardedTableReader>> ShardedTableReader::Open(
    const ShardManifest& manifest, const FileOpener& opener) {
  std::vector<std::unique_ptr<RandomAccessFile>> files;
  files.reserve(manifest.num_shards());
  for (size_t s = 0; s < manifest.num_shards(); ++s) {
    BULLION_ASSIGN_OR_RETURN(auto file, opener(manifest.shard(s).name));
    files.push_back(std::move(file));
  }
  BULLION_ASSIGN_OR_RETURN(auto reader, Open(std::move(files)));
  // The footers are the ground truth; the manifest must agree with
  // what the shard files actually contain.
  for (size_t s = 0; s < manifest.num_shards(); ++s) {
    const ShardInfo& info = manifest.shard(s);
    const FooterView& f = reader->shards_[s]->footer();
    if (f.num_rows() != info.num_rows ||
        f.num_row_groups() != info.num_row_groups) {
      return Status::Corruption("shard '" + info.name +
                                "' disagrees with manifest");
    }
  }
  reader->manifest_ = manifest;
  return reader;
}

Result<std::unique_ptr<ShardedTableReader>> ShardedTableReader::Open(
    std::vector<std::unique_ptr<RandomAccessFile>> files) {
  auto reader = std::unique_ptr<ShardedTableReader>(new ShardedTableReader());
  for (size_t s = 0; s < files.size(); ++s) {
    BULLION_ASSIGN_OR_RETURN(auto shard, TableReader::Open(std::move(files[s])));
    reader->shards_.push_back(std::move(shard));
  }
  // Schema-evolution contract: the NEWEST (last) shard carries the
  // dataset schema; every earlier shard's schema must be an exact
  // prefix of it, and the columns a shard predates must be nullable so
  // reads can back-fill nulls. Global column indices therefore mean the
  // same thing in every shard that has them.
  std::vector<ShardInfo> infos;
  infos.reserve(reader->shards_.size());
  for (size_t s = 0; s < reader->shards_.size(); ++s) {
    const FooterView& f = reader->shards_[s]->footer();
    const FooterView& ref = reader->shards_.back()->footer();
    if (f.num_columns() > ref.num_columns()) {
      return Status::InvalidArgument("shard " + std::to_string(s) +
                                     " is wider than the newest shard");
    }
    for (uint32_t c = 0; c < f.num_columns(); ++c) {
      ColumnRecord a = f.column_record(c), b = ref.column_record(c);
      if (f.column_name(c) != ref.column_name(c) ||
          a.physical != b.physical || a.list_depth != b.list_depth ||
          a.logical != b.logical) {
        return Status::InvalidArgument(
            "shard " + std::to_string(s) +
            " schema is not a prefix of the newest shard at column " +
            std::to_string(c));
      }
    }
    for (uint32_t c = f.num_columns(); c < ref.num_columns(); ++c) {
      if ((ref.column_record(c).flags & 2) == 0) {
        return Status::InvalidArgument(
            "shard " + std::to_string(s) + " predates non-nullable column '" +
            std::string(ref.column_name(c)) + "'");
      }
    }
    infos.push_back(ShardInfo{"shard-" + std::to_string(s), f.num_rows(),
                              f.num_row_groups(), f.TotalDeletedCount()});
  }
  reader->manifest_ = ShardManifest(std::move(infos));
  return reader;
}

uint32_t ShardedTableReader::num_columns() const {
  return shards_.empty() ? 0 : shards_.back()->footer().num_columns();
}

Result<std::vector<uint32_t>> ShardedTableReader::ResolveColumns(
    const std::vector<std::string>& names) const {
  if (shards_.empty()) return Status::NotFound("dataset has no shards");
  return shards_.back()->ResolveColumns(names);
}

Result<std::unique_ptr<BatchStream>> OpenScanStream(
    const ShardedTableReader* dataset, const ScanStreamSpec& spec,
    DecodedChunkCache* cache) {
  const ShardManifest& manifest = dataset->manifest();
  if (spec.group_begin > spec.group_end) {
    return Status::InvalidArgument("row-group range begin past end");
  }

  BatchStreamOptions options = StreamOptionsFor(spec);

  if (dataset->num_shards() == 0) {
    if (!spec.columns.empty()) {
      // Explicit indices take precedence over names (as everywhere),
      // and a zero-shard dataset has zero leaf columns.
      return Status::InvalidArgument(
          "column index out of range (dataset has no shards)");
    }
    if (!spec.column_names.empty() || !spec.filters.empty()) {
      return Status::NotFound("dataset has no shards");
    }
    return BatchStream::Create({}, std::move(options));
  }

  // The newest (last) shard carries the dataset schema; earlier shards
  // are validated prefixes of it (Open).
  const FooterView& ref =
      dataset->shard_reader(dataset->num_shards() - 1)->footer();
  BULLION_ASSIGN_OR_RETURN(StreamColumnPlan plan,
                           PlanStreamColumns(ref, spec));
  uint32_t group_end = std::min(spec.group_end, dataset->num_row_groups());
  uint32_t group_begin = std::min(spec.group_begin, group_end);
  options.group_begin = group_begin;
  options.num_projected = plan.num_projected;
  options.residual = plan.residual;
  options.fetch_records.reserve(plan.fetch_columns.size());
  for (uint32_t c : plan.fetch_columns) {
    options.fetch_records.push_back(ref.column_record(c));
  }

  // Shared by every unit's prepare/publish closure.
  auto fetch_cols =
      std::make_shared<const std::vector<uint32_t>>(plan.fetch_columns);
  auto fetch_recs = std::make_shared<const std::vector<ColumnRecord>>(
      options.fetch_records);
  const bool fd = spec.read_options.filter_deleted;
  const bool vc = spec.read_options.verify_checksums;

  std::vector<StreamUnit> units;
  units.reserve(group_end - group_begin);
  for (uint32_t g = group_begin; g < group_end; ++g) {
    BULLION_ASSIGN_OR_RETURN(ShardManifest::GroupRef gref, manifest.group(g));
    const uint32_t s = gref.shard;
    const TableReader* shard = dataset->shard_reader(s);
    const FooterView& sf = shard->footer();
    const uint32_t shard_cols = sf.num_columns();

    if (!plan.residual.empty() &&
        GroupProvablyEmpty(sf, gref.local_group, plan, spec.read_options)) {
      if (spec.report != nullptr) {
        spec.report->groups_pruned.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }

    StreamUnit unit;
    unit.reader = shard;
    unit.local_group = gref.local_group;
    unit.global_group = g;
    const uint32_t gen = manifest.shard(s).generation;
    // The group's delete epoch: in-place deletes change decode output
    // without bumping the shard generation, so the count is part of
    // the cache identity (a fresher footer must never be served a
    // pre-delete chunk).
    const uint32_t del = sf.DeletedCount(gref.local_group);
    uint32_t rows = sf.group_row_count(gref.local_group);
    if (fd) rows -= del;
    const uint32_t local = gref.local_group;

    unit.prepare = [cache, fetch_cols, fetch_recs, s, local, gen, del, fd, vc,
                    shard_cols, rows](std::vector<ColumnVector>* out,
                                      std::vector<uint8_t>* preset) {
      for (size_t slot = 0; slot < fetch_cols->size(); ++slot) {
        uint32_t col = (*fetch_cols)[slot];
        if (col >= shard_cols) {
          // The shard predates this (nullable) column: back-fill null
          // rows, one per surviving row of the group. Generated
          // locally — no pread, no decode, no cache traffic.
          const ColumnRecord& rec = (*fetch_recs)[slot];
          ColumnVector null_col(static_cast<PhysicalType>(rec.physical),
                                rec.list_depth);
          for (uint32_t r = 0; r < rows; ++r) null_col.AppendNullRow();
          (*out)[slot] = std::move(null_col);
          (*preset)[slot] = 1;
          continue;
        }
        if (cache != nullptr) {
          ChunkCacheKey key{s, local, col, fd, vc, gen, del};
          if (cache->Lookup(key, &(*out)[slot])) (*preset)[slot] = 1;
        }
      }
    };
    if (cache != nullptr) {
      // Freshly decoded chunks are published from the worker threads
      // while the stream is still in flight.
      unit.publish = [cache, s, local, gen, del, fd, vc](
                         const std::vector<uint32_t>& missing,
                         const CoalescedRead& read,
                         std::vector<ColumnVector>* done) {
        for (const ChunkRequest& r : read.chunks) {
          ChunkCacheKey key{s, local, missing[r.user_index], fd, vc, gen,
                            del};
          cache->Insert(key, (*done)[r.user_index]);
        }
      };
    }
    units.push_back(std::move(unit));
  }
  options.fetch_columns = std::move(plan.fetch_columns);
  return BatchStream::Create(std::move(units), std::move(options));
}

}  // namespace bullion
