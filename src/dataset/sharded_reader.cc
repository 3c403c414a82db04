#include "dataset/sharded_reader.h"

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

}  // namespace bullion
