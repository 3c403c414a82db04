#include "dataset/shard_manifest.h"

#include <algorithm>
#include <cstring>

#include "common/varint.h"

namespace bullion {

namespace {
// "BSHM" little-endian + format versions (see the wire-format comment
// in shard_manifest.h).
constexpr uint32_t kManifestMagic = 0x4D485342;
constexpr uint32_t kManifestVersionV1 = 1;
constexpr uint32_t kManifestVersionV2 = 2;
constexpr uint32_t kManifestVersionV3 = 3;
constexpr uint32_t kManifestVersionV4 = 4;
}  // namespace

ShardManifest::ShardManifest(std::vector<ShardInfo> shards,
                             uint64_t generation)
    : shards_(std::move(shards)), generation_(generation) {
  group_begin_.reserve(shards_.size() + 1);
  for (const ShardInfo& s : shards_) {
    group_begin_.push_back(total_row_groups_);
    total_row_groups_ += s.num_row_groups;
    total_rows_ += s.num_rows;
    total_deleted_ += s.deleted_rows;
  }
  group_begin_.push_back(total_row_groups_);
}

Result<ShardManifest::GroupRef> ShardManifest::group(uint32_t g) const {
  if (g >= total_row_groups_) {
    return Status::OutOfRange("global row group " + std::to_string(g) +
                              " out of range (manifest has " +
                              std::to_string(total_row_groups_) + ")");
  }
  // Last shard whose first global group is <= g. upper_bound lands one
  // past it; empty shards (zero-width ranges) are skipped naturally.
  auto it = std::upper_bound(group_begin_.begin(), group_begin_.end(), g);
  uint32_t s = static_cast<uint32_t>(it - group_begin_.begin()) - 1;
  return GroupRef{s, g - group_begin_[s]};
}

Buffer ShardManifest::Serialize() const {
  BufferBuilder out;
  out.Append<uint32_t>(kManifestMagic);
  out.Append<uint32_t>(kManifestVersionV2);
  varint::PutVarint64(&out, generation_);
  varint::PutVarint64(&out, shards_.size());
  for (const ShardInfo& s : shards_) {
    varint::PutVarint64(&out, s.name.size());
    out.AppendBytes(s.name.data(), s.name.size());
    varint::PutVarint64(&out, s.num_rows);
    varint::PutVarint64(&out, s.num_row_groups);
    varint::PutVarint64(&out, s.deleted_rows);
    varint::PutVarint64(&out, s.generation);
  }
  return out.Finish();
}

Result<ShardManifest> ShardManifest::Parse(Slice data) {
  if (data.size() < 8) return Status::Corruption("manifest too small");
  size_t pos = 0;
  uint32_t magic, version;
  std::memcpy(&magic, data.data(), 4);
  std::memcpy(&version, data.data() + 4, 4);
  pos = 8;
  if (magic != kManifestMagic) return Status::Corruption("bad manifest magic");
  if (version < kManifestVersionV1 || version > kManifestVersionV4) {
    return Status::NotImplemented("manifest version " +
                                  std::to_string(version));
  }
  const bool v2 = version >= kManifestVersionV2;
  const bool v3 = version >= kManifestVersionV3;
  const bool v4 = version >= kManifestVersionV4;
  uint64_t generation = 0;
  if (v2 && !varint::GetVarint64(data, &pos, &generation)) {
    return Status::Corruption("manifest generation truncated");
  }
  uint64_t count;
  if (!varint::GetVarint64(data, &pos, &count)) {
    return Status::Corruption("manifest shard count truncated");
  }
  // Each shard record is at least 3 bytes in v1 (empty name + two
  // varints), 5 in v2, 6 in v3 (+ the stats count), and 7 in v4 (+ the
  // bloom count), so a count the remaining bytes cannot hold is
  // corruption — reject before reserve() so a hostile count can't
  // throw/OOM.
  const uint64_t min_record = v4 ? 7 : v3 ? 6 : (v2 ? 5 : 3);
  if (count > (data.size() - pos) / min_record) {
    return Status::Corruption("manifest shard count implausible");
  }
  std::vector<ShardInfo> shards;
  shards.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ShardInfo s;
    uint64_t name_len;
    if (!varint::GetVarint64(data, &pos, &name_len) ||
        name_len > data.size() - pos) {  // pos <= size; no overflow
      return Status::Corruption("manifest shard name truncated");
    }
    s.name.assign(reinterpret_cast<const char*>(data.data()) + pos, name_len);
    pos += name_len;
    uint64_t groups;
    if (!varint::GetVarint64(data, &pos, &s.num_rows) ||
        !varint::GetVarint64(data, &pos, &groups)) {
      return Status::Corruption("manifest shard record truncated");
    }
    if (groups > UINT32_MAX) return Status::Corruption("shard group count");
    s.num_row_groups = static_cast<uint32_t>(groups);
    if (v2) {
      uint64_t shard_gen;
      if (!varint::GetVarint64(data, &pos, &s.deleted_rows) ||
          !varint::GetVarint64(data, &pos, &shard_gen)) {
        return Status::Corruption("manifest shard record truncated");
      }
      if (shard_gen > UINT32_MAX) {
        return Status::Corruption("shard generation implausible");
      }
      if (s.deleted_rows > s.num_rows) {
        return Status::Corruption("shard deleted count exceeds rows");
      }
      s.generation = static_cast<uint32_t>(shard_gen);
    }
    // The v3 zone maps and v4 Bloom filters are framing-checked, then
    // dropped: pruning reads the shard footers instead.
    if (v3) {
      uint64_t stat_count;
      if (!varint::GetVarint64(data, &pos, &stat_count)) {
        return Status::Corruption("manifest shard stats truncated");
      }
      // Each stats record is at least 4 bytes (3 varints + flags).
      if (stat_count > (data.size() - pos) / 4) {
        return Status::Corruption("manifest shard stats count implausible");
      }
      for (uint64_t j = 0; j < stat_count; ++j) {
        uint64_t column, min_bits, max_bits;
        if (!varint::GetVarint64(data, &pos, &column) || pos >= data.size()) {
          return Status::Corruption("manifest shard stats truncated");
        }
        ++pos;  // flags
        if (!varint::GetVarint64(data, &pos, &min_bits) ||
            !varint::GetVarint64(data, &pos, &max_bits)) {
          return Status::Corruption("manifest shard stats truncated");
        }
        if (column > UINT32_MAX) {
          return Status::Corruption("manifest stats column implausible");
        }
      }
    }
    if (v4) {
      uint64_t bloom_count;
      if (!varint::GetVarint64(data, &pos, &bloom_count)) {
        return Status::Corruption("manifest shard blooms truncated");
      }
      // Each bloom record is at least 2 varints + a 32-byte filter.
      if (bloom_count > (data.size() - pos) / 34) {
        return Status::Corruption("manifest shard bloom count implausible");
      }
      for (uint64_t j = 0; j < bloom_count; ++j) {
        uint64_t column, bits_len;
        if (!varint::GetVarint64(data, &pos, &column) ||
            !varint::GetVarint64(data, &pos, &bits_len) ||
            bits_len > data.size() - pos) {
          return Status::Corruption("manifest shard blooms truncated");
        }
        if (column > UINT32_MAX) {
          return Status::Corruption("manifest bloom column implausible");
        }
        // A split-block filter is a non-zero multiple of 32 bytes.
        if (bits_len == 0 || bits_len % 32 != 0) {
          return Status::Corruption("manifest bloom filter malformed");
        }
        pos += bits_len;
      }
    }
    shards.push_back(std::move(s));
  }
  if (pos != data.size()) {
    return Status::Corruption("manifest has trailing bytes");
  }
  return ShardManifest(std::move(shards), generation);
}

}  // namespace bullion
