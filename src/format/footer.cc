#include "format/footer.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.h"
#include "format/merkle.h"

namespace bullion {

namespace {

/// Fixed header preceding the section directory.
struct FooterHeader {
  uint32_t version;
  uint32_t num_columns;
  uint32_t num_row_groups;
  uint32_t total_pages;
  uint32_t rows_per_page;
  uint8_t compliance;
  uint8_t pad[3];
  uint64_t num_rows;
  uint64_t data_end;
};
static_assert(sizeof(FooterHeader) == 40);

}  // namespace

FooterBuilder::FooterBuilder(const Schema& schema, uint32_t rows_per_page,
                             ComplianceLevel compliance, bool with_stats,
                             bool with_bloom)
    : schema_(schema),
      rows_per_page_(rows_per_page),
      compliance_(compliance),
      with_stats_(with_stats),
      // Bloom sections ride behind the stats section in the version
      // ladder; without stats the footer stays v1 and carries neither.
      with_bloom_(with_bloom && with_stats) {}

void FooterBuilder::BeginRowGroup(uint32_t row_count) {
  uint64_t first =
      group_first_row_.empty()
          ? 0
          : group_first_row_.back() + group_row_counts_.back();
  group_first_row_.push_back(first);
  group_row_counts_.push_back(row_count);
  group_first_page_.push_back(static_cast<uint32_t>(page_offsets_.size()));
  size_t num_cols = schema_.num_leaves();
  chunk_offsets_.resize(chunk_offsets_.size() + num_cols, 0);
  chunk_page_start_.resize(chunk_page_start_.size() + num_cols, 0);
  if (with_stats_) {
    chunk_stats_.resize(chunk_stats_.size() + num_cols, ChunkStatsRecord{});
  }
  if (with_bloom_) {
    chunk_blooms_.resize(chunk_blooms_.size() + num_cols);
  }
}

void FooterBuilder::SetChunk(uint32_t group, uint32_t column,
                             uint64_t file_offset, uint32_t first_page) {
  size_t idx = static_cast<size_t>(group) * schema_.num_leaves() + column;
  chunk_offsets_[idx] = file_offset;
  chunk_page_start_[idx] = first_page;
}

void FooterBuilder::SetChunkStats(uint32_t group, uint32_t column,
                                  const ChunkStatsRecord& stats) {
  if (!with_stats_) return;
  size_t idx = static_cast<size_t>(group) * schema_.num_leaves() + column;
  chunk_stats_[idx] = stats;
}

void FooterBuilder::SetChunkBloom(uint32_t group, uint32_t column,
                                  std::string bytes) {
  if (!with_bloom_) return;
  size_t idx = static_cast<size_t>(group) * schema_.num_leaves() + column;
  chunk_blooms_[idx] = std::move(bytes);
}

uint32_t FooterBuilder::AddPage(uint64_t file_offset, uint32_t row_count,
                                uint8_t encoding, uint64_t hash) {
  page_offsets_.push_back(file_offset);
  page_row_counts_.push_back(row_count);
  page_encodings_.push_back(encoding);
  page_hashes_.push_back(hash);
  return static_cast<uint32_t>(page_offsets_.size() - 1);
}

Result<Buffer> FooterBuilder::Finish(uint64_t data_end, uint64_t num_rows) {
  uint32_t num_cols = static_cast<uint32_t>(schema_.num_leaves());
  uint32_t num_groups = static_cast<uint32_t>(group_row_counts_.size());
  uint32_t total_pages = static_cast<uint32_t>(page_offsets_.size());
  if (chunk_offsets_.size() !=
      static_cast<size_t>(num_groups) * num_cols) {
    return Status::InvalidArgument("chunk count != groups * columns");
  }

  // Merkle checksums: group hash = combined page hashes of the group's
  // pages (file order); root = combined group hashes (format/merkle.h).
  std::vector<uint64_t> group_hashes(num_groups, 0);
  for (uint32_t g = 0; g < num_groups; ++g) {
    uint32_t first_page = group_first_page_[g];
    uint32_t end_page =
        (g + 1 < num_groups) ? group_first_page_[g + 1] : total_pages;
    uint64_t h = 0;
    for (uint32_t p = first_page; p < end_page; ++p) {
      h = HashCombineForMerkle(h, page_hashes_[p]);
    }
    group_hashes[g] = h;
  }
  uint64_t root = 0;
  for (uint64_t gh : group_hashes) root = HashCombineForMerkle(root, gh);

  // Deletion-vector slots: full bitmap per group (fixed size so level-2
  // deletes update them in place without moving the footer).
  std::vector<uint32_t> dv_offsets;
  uint32_t dv_total = 0;
  for (uint32_t g = 0; g < num_groups; ++g) {
    dv_offsets.push_back(dv_total);
    dv_total += (group_row_counts_[g] + 7) / 8;
  }
  dv_offsets.push_back(dv_total);

  // Column records + name blob + sorted index.
  std::vector<ColumnRecord> records(num_cols);
  std::string name_blob;
  for (uint32_t c = 0; c < num_cols; ++c) {
    const LeafColumn& leaf = schema_.leaves()[c];
    records[c].name_offset = static_cast<uint32_t>(name_blob.size());
    records[c].name_len = static_cast<uint16_t>(leaf.name.size());
    records[c].physical = static_cast<uint8_t>(leaf.physical);
    records[c].list_depth = static_cast<uint8_t>(leaf.list_depth);
    records[c].logical = static_cast<uint8_t>(leaf.logical);
    records[c].flags = static_cast<uint8_t>((leaf.deletable ? 1 : 0) |
                                            (leaf.nullable ? 2 : 0));
    records[c].field_index = static_cast<uint16_t>(leaf.field_index);
    name_blob += leaf.name;
  }
  std::vector<uint32_t> sorted_idx(num_cols);
  for (uint32_t c = 0; c < num_cols; ++c) sorted_idx[c] = c;
  std::sort(sorted_idx.begin(), sorted_idx.end(),
            [&](uint32_t a, uint32_t b) {
              return schema_.leaves()[a].name < schema_.leaves()[b].name;
            });

  // Per-chunk Bloom filters concatenate into one blob behind an
  // offsets array (zero-length extent = chunk has no filter).
  std::vector<uint32_t> bloom_offsets;
  std::string bloom_blob;
  if (with_bloom_) {
    bloom_offsets.reserve(chunk_blooms_.size() + 1);
    for (const std::string& b : chunk_blooms_) {
      bloom_offsets.push_back(static_cast<uint32_t>(bloom_blob.size()));
      bloom_blob += b;
    }
    bloom_offsets.push_back(static_cast<uint32_t>(bloom_blob.size()));
  }

  // Section sizes. Version-1 footers (stats disabled) stop at the
  // sorted-name index; version 2 appends the chunk-statistics section;
  // version 3 the Bloom sections.
  const uint32_t num_sections = with_bloom_    ? kNumFooterSections
                                : with_stats_ ? kNumFooterSectionsV2
                                              : kNumFooterSectionsV1;
  uint64_t sizes[kNumFooterSections];
  sizes[kSecGroupRowCounts] = 4ull * num_groups;
  sizes[kSecGroupFirstRow] = 8ull * num_groups;
  sizes[kSecChunkOffsets] = 8ull * chunk_offsets_.size();
  sizes[kSecChunkPageStart] = 4ull * (chunk_page_start_.size() + 1);
  sizes[kSecPageOffsets] = 8ull * (total_pages + 1);
  sizes[kSecPageRowCounts] = 4ull * total_pages;
  sizes[kSecPageEncodings] = 1ull * total_pages;
  sizes[kSecPageHashes] = 8ull * total_pages;
  sizes[kSecGroupHashes] = 8ull * num_groups;
  sizes[kSecRootHash] = 8;
  sizes[kSecDvOffsets] = 4ull * (num_groups + 1);
  sizes[kSecDeletionVectors] = dv_total;
  sizes[kSecColumnRecords] = sizeof(ColumnRecord) * 1ull * num_cols;
  sizes[kSecNameBlob] = name_blob.size();
  sizes[kSecNameSortedIdx] = 4ull * num_cols;
  if (with_stats_) {
    sizes[kSecChunkStats] = sizeof(ChunkStatsRecord) * chunk_stats_.size();
  }
  if (with_bloom_) {
    sizes[kSecBloomOffsets] = 4ull * bloom_offsets.size();
    sizes[kSecBloomBlob] = bloom_blob.size();
  }

  uint64_t dir_offset = sizeof(FooterHeader);
  uint64_t payload_offset = dir_offset + 8ull * num_sections;
  uint64_t section_offsets[kNumFooterSections];
  uint64_t cur = payload_offset;
  for (uint32_t s = 0; s < num_sections; ++s) {
    // 8-byte alignment so u64 loads are aligned.
    cur = (cur + 7) & ~7ull;
    section_offsets[s] = cur;
    cur += sizes[s];
  }
  uint64_t footer_size = cur;

  Buffer buf(footer_size);
  uint8_t* base = buf.mutable_data();
  std::memset(base, 0, footer_size);

  FooterHeader header{};
  header.version = with_bloom_    ? kFooterVersion
                   : with_stats_ ? kFooterVersionV2
                                 : kFooterVersionV1;
  header.num_columns = num_cols;
  header.num_row_groups = num_groups;
  header.total_pages = total_pages;
  header.rows_per_page = rows_per_page_;
  header.compliance = static_cast<uint8_t>(compliance_);
  header.num_rows = num_rows;
  header.data_end = data_end;
  std::memcpy(base, &header, sizeof(header));
  std::memcpy(base + dir_offset, section_offsets, 8ull * num_sections);

  auto write_section = [&](uint32_t s, const void* src, uint64_t bytes) {
    if (bytes == 0) return;  // empty vectors may hand a null data()
    std::memcpy(base + section_offsets[s], src, bytes);
  };
  write_section(kSecGroupRowCounts, group_row_counts_.data(),
                sizes[kSecGroupRowCounts]);
  write_section(kSecGroupFirstRow, group_first_row_.data(),
                sizes[kSecGroupFirstRow]);
  write_section(kSecChunkOffsets, chunk_offsets_.data(),
                sizes[kSecChunkOffsets]);
  {
    std::vector<uint32_t> cps = chunk_page_start_;
    cps.push_back(total_pages);
    write_section(kSecChunkPageStart, cps.data(), sizes[kSecChunkPageStart]);
  }
  {
    std::vector<uint64_t> po = page_offsets_;
    po.push_back(data_end);
    write_section(kSecPageOffsets, po.data(), sizes[kSecPageOffsets]);
  }
  write_section(kSecPageRowCounts, page_row_counts_.data(),
                sizes[kSecPageRowCounts]);
  write_section(kSecPageEncodings, page_encodings_.data(),
                sizes[kSecPageEncodings]);
  write_section(kSecPageHashes, page_hashes_.data(), sizes[kSecPageHashes]);
  write_section(kSecGroupHashes, group_hashes.data(), sizes[kSecGroupHashes]);
  write_section(kSecRootHash, &root, 8);
  write_section(kSecDvOffsets, dv_offsets.data(), sizes[kSecDvOffsets]);
  // Deletion vectors start zeroed (no rows deleted).
  write_section(kSecColumnRecords, records.data(), sizes[kSecColumnRecords]);
  write_section(kSecNameBlob, name_blob.data(), sizes[kSecNameBlob]);
  write_section(kSecNameSortedIdx, sorted_idx.data(),
                sizes[kSecNameSortedIdx]);
  if (with_stats_) {
    write_section(kSecChunkStats, chunk_stats_.data(),
                  sizes[kSecChunkStats]);
  }
  if (with_bloom_) {
    write_section(kSecBloomOffsets, bloom_offsets.data(),
                  sizes[kSecBloomOffsets]);
    write_section(kSecBloomBlob, bloom_blob.data(), sizes[kSecBloomBlob]);
  }
  return buf;
}

Result<FooterView> FooterView::Parse(Slice footer,
                                     uint64_t footer_file_offset) {
  if (footer.size() < sizeof(FooterHeader) + 8 * kNumFooterSectionsV1) {
    return Status::Corruption("footer too small");
  }
  FooterHeader header;
  std::memcpy(&header, footer.data(), sizeof(header));
  if (header.version != kFooterVersionV1 &&
      header.version != kFooterVersionV2 &&
      header.version != kFooterVersion) {
    return Status::Corruption("unsupported footer version " +
                              std::to_string(header.version));
  }
  // Version 1 predates the chunk-statistics section and version 2 the
  // Bloom sections: their directories are shorter, chunk_zone_map()
  // reports unknown / chunk_bloom() empty for the missing data.
  const bool has_stats = header.version >= kFooterVersionV2;
  const bool has_blooms = header.version >= kFooterVersion;
  const uint32_t num_sections = has_blooms   ? kNumFooterSections
                                : has_stats ? kNumFooterSectionsV2
                                            : kNumFooterSectionsV1;
  if (footer.size() < sizeof(FooterHeader) + 8ull * num_sections) {
    return Status::Corruption("footer too small");
  }
  FooterView view;
  view.footer_ = footer;
  view.footer_file_offset_ = footer_file_offset;
  view.num_columns_ = header.num_columns;
  view.num_row_groups_ = header.num_row_groups;
  view.total_pages_ = header.total_pages;
  view.rows_per_page_ = header.rows_per_page;
  view.num_rows_ = header.num_rows;
  view.data_end_ = header.data_end;
  view.compliance_ = static_cast<ComplianceLevel>(header.compliance);
  view.has_chunk_stats_ = has_stats;
  view.has_chunk_blooms_ = has_blooms;
  std::memcpy(view.section_offset_, footer.data() + sizeof(FooterHeader),
              8ull * num_sections);

  // Validate the directory and every section's extent against the
  // footer size, so corrupted headers cannot cause out-of-bounds reads
  // through the zero-copy accessors.
  constexpr uint32_t kSanityCap = 1u << 26;
  if (header.num_columns > kSanityCap || header.num_row_groups > kSanityCap ||
      header.total_pages > kSanityCap || header.rows_per_page == 0) {
    return Status::Corruption("footer header counts implausible");
  }
  uint64_t prev = sizeof(FooterHeader) + 8ull * num_sections;
  for (uint32_t s = 0; s < num_sections; ++s) {
    if (view.section_offset_[s] > footer.size() ||
        view.section_offset_[s] < prev) {
      return Status::Corruption("footer section offsets out of order");
    }
    prev = view.section_offset_[s];
  }
  uint64_t n_cols = header.num_columns;
  uint64_t n_groups = header.num_row_groups;
  uint64_t n_pages = header.total_pages;
  uint64_t expected[kNumFooterSections];
  expected[kSecGroupRowCounts] = 4 * n_groups;
  expected[kSecGroupFirstRow] = 8 * n_groups;
  expected[kSecChunkOffsets] = 8 * n_groups * n_cols;
  expected[kSecChunkPageStart] = 4 * (n_groups * n_cols + 1);
  expected[kSecPageOffsets] = 8 * (n_pages + 1);
  expected[kSecPageRowCounts] = 4 * n_pages;
  expected[kSecPageEncodings] = n_pages;
  expected[kSecPageHashes] = 8 * n_pages;
  expected[kSecGroupHashes] = 8 * n_groups;
  expected[kSecRootHash] = 8;
  expected[kSecDvOffsets] = 4 * (n_groups + 1);
  expected[kSecDeletionVectors] = 0;  // validated below via dv offsets
  expected[kSecColumnRecords] = sizeof(ColumnRecord) * n_cols;
  expected[kSecNameBlob] = 0;  // validated per record below
  expected[kSecNameSortedIdx] = 4 * n_cols;
  expected[kSecChunkStats] =
      sizeof(ChunkStatsRecord) * n_groups * n_cols;  // ignored for v1
  expected[kSecBloomOffsets] =
      4 * (n_groups * n_cols + 1);  // ignored below v3
  expected[kSecBloomBlob] = 0;      // validated below via bloom offsets
  for (uint32_t s = 0; s < num_sections; ++s) {
    if (view.section_offset_[s] + expected[s] > footer.size()) {
      return Status::Corruption("footer section exceeds footer size");
    }
  }
  // Bloom extents: offsets monotone, blob in bounds, every filter a
  // whole number of 32-byte blocks (so chunk_bloom() slices always
  // wrap cleanly).
  if (has_blooms) {
    uint64_t blob_base = view.section_offset_[kSecBloomBlob];
    uint32_t prev_off = 0;
    for (uint64_t i = 0; i <= n_groups * n_cols; ++i) {
      uint32_t off = view.LoadU32(kSecBloomOffsets, i);
      if (off < prev_off || blob_base + off > footer.size() ||
          (off - prev_off) % 32 != 0) {
        return Status::Corruption("footer bloom offsets out of range");
      }
      prev_off = off;
    }
  }
  // Deletion-vector extents.
  uint64_t dv_base = view.section_offset_[kSecDeletionVectors];
  for (uint32_t g = 0; g < n_groups; ++g) {
    uint32_t b = view.LoadU32(kSecDvOffsets, g);
    uint32_t e = view.LoadU32(kSecDvOffsets, g + 1);
    uint32_t rows = view.LoadU32(kSecGroupRowCounts, g);
    if (e < b || dv_base + e > footer.size() ||
        static_cast<uint64_t>(e - b) * 8 < rows) {
      return Status::Corruption("footer deletion vectors out of range");
    }
  }
  // Name blob extents per column record.
  uint64_t name_base = view.section_offset_[kSecNameBlob];
  uint64_t name_cap = footer.size() - name_base;
  for (uint32_t c = 0; c < n_cols; ++c) {
    ColumnRecord rec = view.column_record(c);
    if (static_cast<uint64_t>(rec.name_offset) + rec.name_len > name_cap) {
      return Status::Corruption("footer column name out of range");
    }
  }
  // Sorted-name index entries.
  for (uint32_t c = 0; c < n_cols; ++c) {
    if (view.LoadU32(kSecNameSortedIdx, c) >= n_cols) {
      return Status::Corruption("footer name index out of range");
    }
  }
  // Page/chunk references.
  for (uint64_t i = 0; i < n_groups * n_cols; ++i) {
    if (view.LoadU32(kSecChunkPageStart, i) > n_pages) {
      return Status::Corruption("footer chunk page start out of range");
    }
  }
  // Page offsets must be monotone and bounded by the data region.
  for (uint64_t p = 0; p + 1 <= n_pages; ++p) {
    if (view.LoadU64(kSecPageOffsets, p) > view.LoadU64(kSecPageOffsets, p + 1)) {
      return Status::Corruption("footer page offsets not monotone");
    }
  }
  if (n_pages > 0 &&
      view.LoadU64(kSecPageOffsets, n_pages) > header.data_end) {
    return Status::Corruption("footer page offsets exceed data region");
  }
  return view;
}

bool FooterView::AnyDeleted(uint32_t g, uint32_t begin, uint32_t end) const {
  Slice dv = deletion_vector(g);
  end = static_cast<uint32_t>(std::min<uint64_t>(end, dv.size() * 8ull));
  uint32_t r = begin;
  while (r < end) {
    if ((r & 7) == 0 && end - r >= 8) {  // a whole byte of the range
      if (dv[r >> 3] != 0) return true;
      r += 8;
    } else {
      if ((dv[r >> 3] >> (r & 7)) & 1) return true;
      ++r;
    }
  }
  return false;
}

uint32_t FooterView::DeletedCount(uint32_t g) const {
  Slice dv = deletion_vector(g);
  uint32_t rows = group_row_count(g);
  uint32_t n = 0;
  uint32_t r = 0;
  for (; r + 8 <= rows; r += 8) n += std::popcount(dv[r >> 3]);
  for (; r < rows; ++r) n += (dv[r >> 3] >> (r & 7)) & 1;
  return n;
}

uint64_t FooterView::TotalDeletedCount() const {
  uint64_t deleted = 0;
  for (uint32_t g = 0; g < num_row_groups_; ++g) deleted += DeletedCount(g);
  return deleted;
}

ZoneMap ZoneMapFromRecord(const ChunkStatsRecord& rec) {
  ZoneMap zone;
  if ((rec.flags & ChunkStatsRecord::kHasMinMax) == 0) return zone;
  zone.valid = true;
  zone.is_real = (rec.flags & ChunkStatsRecord::kIsReal) != 0;
  zone.is_binary = (rec.flags & ChunkStatsRecord::kIsBinary) != 0;
  if (zone.is_binary) {
    zone.is_real = false;
    zone.min_b = rec.min_bits;
    zone.max_b = rec.max_bits;
  } else if (zone.is_real) {
    std::memcpy(&zone.min_r, &rec.min_bits, 8);
    std::memcpy(&zone.max_r, &rec.max_bits, 8);
  } else {
    std::memcpy(&zone.min_i, &rec.min_bits, 8);
    std::memcpy(&zone.max_i, &rec.max_bits, 8);
  }
  return zone;
}

ChunkStatsRecord RecordFromZoneMap(const ZoneMap& zone) {
  ChunkStatsRecord rec;
  if (!zone.valid) return rec;
  rec.flags = ChunkStatsRecord::kHasMinMax;
  if (zone.is_binary) {
    rec.flags |= ChunkStatsRecord::kIsBinary;
    rec.min_bits = zone.min_b;
    rec.max_bits = zone.max_b;
  } else if (zone.is_real) {
    rec.flags |= ChunkStatsRecord::kIsReal;
    std::memcpy(&rec.min_bits, &zone.min_r, 8);
    std::memcpy(&rec.max_bits, &zone.max_r, 8);
  } else {
    std::memcpy(&rec.min_bits, &zone.min_i, 8);
    std::memcpy(&rec.max_bits, &zone.max_i, 8);
  }
  return rec;
}

ChunkStatsRecord FooterView::chunk_stats(uint32_t g, uint32_t c) const {
  ChunkStatsRecord rec;
  size_t idx = static_cast<size_t>(g) * num_columns_ + c;
  std::memcpy(&rec,
              footer_.data() + section_offset_[kSecChunkStats] +
                  sizeof(ChunkStatsRecord) * idx,
              sizeof(rec));
  return rec;
}

ColumnRecord FooterView::column_record(uint32_t c) const {
  ColumnRecord rec;
  std::memcpy(&rec,
              footer_.data() + section_offset_[kSecColumnRecords] +
                  sizeof(ColumnRecord) * c,
              sizeof(rec));
  return rec;
}

std::string_view FooterView::column_name(uint32_t c) const {
  ColumnRecord rec = column_record(c);
  return std::string_view(
      reinterpret_cast<const char*>(footer_.data() +
                                    section_offset_[kSecNameBlob] +
                                    rec.name_offset),
      rec.name_len);
}

Result<uint32_t> FooterView::FindColumn(std::string_view name) const {
  uint32_t lo = 0, hi = num_columns_;
  while (lo < hi) {
    uint32_t mid = (lo + hi) / 2;
    uint32_t c = LoadU32(kSecNameSortedIdx, mid);
    std::string_view mid_name = column_name(c);
    if (mid_name == name) return c;
    if (mid_name < name) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return Status::NotFound("no column named " + std::string(name));
}

Schema FooterView::ReconstructSchema() const {
  // Leaf-level reconstruction: each leaf becomes a top-level field with
  // its list nesting; struct grouping is not reconstructed (the dotted
  // names preserve provenance).
  std::vector<Field> fields;
  fields.reserve(num_columns_);
  for (uint32_t c = 0; c < num_columns_; ++c) {
    ColumnRecord rec = column_record(c);
    DataType t = DataType::Primitive(static_cast<PhysicalType>(rec.physical));
    for (int d = 0; d < rec.list_depth; ++d) t = DataType::List(std::move(t));
    Field f;
    f.name = std::string(column_name(c));
    f.type = std::move(t);
    f.logical = static_cast<LogicalType>(rec.logical);
    f.deletable = (rec.flags & 1) != 0;
    f.nullable = (rec.flags & 2) != 0;
    fields.push_back(std::move(f));
  }
  return Schema(std::move(fields));
}

Result<std::pair<uint64_t, uint32_t>> ReadTrailer(Slice last_bytes,
                                                  uint64_t file_size) {
  if (last_bytes.size() < kTrailerSize) {
    return Status::Corruption("file too small for trailer");
  }
  SliceReader r(last_bytes.SubSlice(last_bytes.size() - kTrailerSize,
                                    kTrailerSize));
  uint32_t footer_size = r.Read<uint32_t>();
  uint32_t magic = r.Read<uint32_t>();
  if (magic != kFooterMagic) {
    return Status::Corruption("bad magic: not a Bullion file");
  }
  if (footer_size + kTrailerSize > file_size) {
    return Status::Corruption("footer size exceeds file");
  }
  return std::pair<uint64_t, uint32_t>{
      file_size - kTrailerSize - footer_size, footer_size};
}

}  // namespace bullion
