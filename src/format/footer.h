// BullionFooter: a flat, position-independent binary footer enabling
// direct metadata access "without deserialization" (paper §2.3).
//
// The footer is one contiguous byte region of typed arrays behind a
// fixed header + section directory (Cap'n-Proto/FlatBuffers style).
// Opening a file costs one pread() of the footer; locating a column is
// a binary search over the sorted-name index; fetching its byte range
// is two array loads. Nothing is copied into owned structs — FooterView
// reads straight out of the buffer. Contrast with the Parquet-like
// baseline (src/baseline), which must deserialize metadata for every
// column before the first read.
//
// Sections (mirroring the paper's BullionFooter table):
//   group_row_counts[], group_first_row[], chunk_offsets[],
//   chunk_page_start[], page_offsets[], page_row_counts[],
//   page_encodings[]  (= paper's rows_per_page / page_offsets /
//   page_compression_types), group/page/root checksums (Merkle),
//   deletion vectors (fixed full-bitmap slots so level-2 deletes can
//   update them in place), column records + name blob + sorted index
//   (= paper's column_sizes/column_offsets/schema), — footer version
//   2 — per-chunk min/max statistics (zone maps) that let a filtered
//   scan prove a row group irrelevant before issuing a pread, and —
//   footer version 3 — per-chunk split-block Bloom filters
//   (serve/bloom.h) that let a point lookup prove a key absent before
//   issuing one.
//
// Versioning: version-1 footers (written before the stats section
// existed, or with WriterOptions::write_chunk_stats = false) and
// version-2 footers (pre-Bloom, or bloom_bits_per_key <= 0) parse
// fine — they simply report has_chunk_stats() / has_chunk_blooms() ==
// false and every chunk_zone_map() as unknown / chunk_bloom() as
// empty, so scans over them fetch everything and stay exact via
// residual predicate evaluation.

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "format/schema.h"
#include "io/predicate.h"

namespace bullion {

/// Compliance levels (paper §2.1): 0 = plain columnar, 1 = deletion
/// vectors only (query-time filtering), 2 = deletion vectors + in-place
/// physical erasure.
enum class ComplianceLevel : uint8_t {
  kLevel0 = 0,
  kLevel1 = 1,
  kLevel2 = 2,
};

constexpr uint32_t kFooterMagic = 0x4C4C5542;  // "BULL"
/// Legacy footer layout: no chunk-statistics section.
constexpr uint32_t kFooterVersionV1 = 1;
/// v1 + the kSecChunkStats zone-map section.
constexpr uint32_t kFooterVersionV2 = 2;
/// Current footer layout: v2 + the per-chunk Bloom-filter sections
/// (serve/bloom.h) the point-lookup tier probes.
constexpr uint32_t kFooterVersion = 3;
/// Trailer appended after the footer: [footer_size:u32][magic:u32].
constexpr size_t kTrailerSize = 8;

/// Section ids in the footer directory. Version-1 footers end at
/// kSecNameSortedIdx (15 directory entries); version 2 appends
/// kSecChunkStats; version 3 appends the two Bloom sections.
enum FooterSection : uint32_t {
  kSecGroupRowCounts = 0,   // u32[num_groups]
  kSecGroupFirstRow = 1,    // u64[num_groups]
  kSecChunkOffsets = 2,     // u64[num_groups*num_cols]
  kSecChunkPageStart = 3,   // u32[num_groups*num_cols + 1]
  kSecPageOffsets = 4,      // u64[total_pages + 1] (last = data_end)
  kSecPageRowCounts = 5,    // u32[total_pages]
  kSecPageEncodings = 6,    // u8[total_pages]
  kSecPageHashes = 7,       // u64[total_pages]
  kSecGroupHashes = 8,      // u64[num_groups]
  kSecRootHash = 9,         // u64[1]
  kSecDvOffsets = 10,       // u32[num_groups + 1] (into the DV section)
  kSecDeletionVectors = 11, // fixed ceil(rows/8)-byte bitmap per group
  kSecColumnRecords = 12,   // ColumnRecord[num_cols]
  kSecNameBlob = 13,        // bytes
  kSecNameSortedIdx = 14,   // u32[num_cols]
  kSecChunkStats = 15,      // ChunkStatsRecord[num_groups*num_cols] (v2+)
  kSecBloomOffsets = 16,    // u32[num_groups*num_cols + 1] into the blob (v3)
  kSecBloomBlob = 17,       // concatenated per-chunk filters (v3)
  kNumFooterSections = 18,
  kNumFooterSectionsV2 = 16,
  kNumFooterSectionsV1 = 15,
};

/// Fixed-width per-column record in kSecColumnRecords.
struct ColumnRecord {
  uint32_t name_offset;
  uint16_t name_len;
  uint8_t physical;
  uint8_t list_depth;
  uint8_t logical;
  uint8_t flags;  // bit 0: deletable
  uint16_t field_index;
};
static_assert(sizeof(ColumnRecord) == 12);

/// Fixed-width per-chunk statistics record in kSecChunkStats: the
/// min/max of chunk (group, column)'s values at write time. min_bits /
/// max_bits hold the raw 64-bit pattern of an int64, a double, or —
/// bit 2 set — the big-endian-packed 8-byte prefixes of a binary
/// column's min/max values (io/predicate.h PackPrefix). A record with
/// bit 0 clear means "no statistics" — list and raw-bit-pattern float
/// columns never get one, and scans treat the chunk as possibly
/// matching anything. In-place deletion only removes rows, so recorded
/// bounds stay a superset of the live values — pruning against them
/// remains sound. Binary-prefix records were introduced alongside the
/// v3 Bloom sections but need no version gate of their own: a v2
/// reader built before bit 2 existed would mis-read one as int bounds,
/// but no such reader ships — the flag and the enum landed together.
struct ChunkStatsRecord {
  uint64_t min_bits = 0;
  uint64_t max_bits = 0;
  uint32_t flags = 0;  // bit 0: present; bit 1: real; bit 2: binary prefix
  uint32_t pad = 0;

  static constexpr uint32_t kHasMinMax = 1;
  static constexpr uint32_t kIsReal = 2;
  static constexpr uint32_t kIsBinary = 4;
};
static_assert(sizeof(ChunkStatsRecord) == 24);

/// Decodes a stats record into the io-layer zone map (invalid when the
/// record has no min/max).
ZoneMap ZoneMapFromRecord(const ChunkStatsRecord& rec);
/// Encodes a zone map as a stats record (an invalid map becomes a
/// "no statistics" record).
ChunkStatsRecord RecordFromZoneMap(const ZoneMap& zone);

/// \brief Accumulates footer contents during a write and serializes the
/// flat layout.
class FooterBuilder {
 public:
  /// `with_stats` / `with_bloom` select the footer version: stats only
  /// writes version 2, stats + Bloom filters version 3, neither the
  /// legacy version-1 layout (readers then skip no data but stay
  /// exact). Bloom filters require the stats section — with_bloom is
  /// ignored when with_stats is false (the footer stays version 1:
  /// never prune, stay exact).
  FooterBuilder(const Schema& schema, uint32_t rows_per_page,
                ComplianceLevel compliance, bool with_stats = true,
                bool with_bloom = false);

  /// Called once per row group, before its chunks are recorded.
  void BeginRowGroup(uint32_t row_count);

  /// Called per page in file order: absolute offset, rows, encoding tag,
  /// page hash. Pages of a chunk must be appended contiguously. Returns
  /// the global (file-order) page index.
  uint32_t AddPage(uint64_t file_offset, uint32_t row_count, uint8_t encoding,
                   uint64_t hash);

  /// Records chunk (group, logical column) starting at `file_offset`
  /// with its first page at global index `first_page`. Chunks may be
  /// placed in any physical order (column reordering, §2.5/§3), so this
  /// indexes by logical position rather than call order.
  void SetChunk(uint32_t group, uint32_t column, uint64_t file_offset,
                uint32_t first_page);

  /// Records chunk (group, logical column)'s min/max statistics.
  /// Chunks never given one serialize as "no statistics". Ignored when
  /// the builder was constructed without stats.
  void SetChunkStats(uint32_t group, uint32_t column,
                     const ChunkStatsRecord& stats);

  /// Records chunk (group, logical column)'s serialized Bloom filter
  /// (serve/bloom.h BloomFilter::ToBytes). Chunks never given one
  /// serialize as a zero-length extent ("no filter, may contain
  /// anything"). Ignored when the builder was constructed without
  /// bloom.
  void SetChunkBloom(uint32_t group, uint32_t column, std::string bytes);

  /// Serializes the footer given the end of the data region.
  Result<Buffer> Finish(uint64_t data_end, uint64_t num_rows);

 private:
  const Schema& schema_;
  uint32_t rows_per_page_;
  ComplianceLevel compliance_;
  bool with_stats_;
  bool with_bloom_;
  std::vector<uint32_t> group_row_counts_;
  std::vector<uint64_t> group_first_row_;
  std::vector<uint32_t> group_first_page_;
  std::vector<uint64_t> chunk_offsets_;
  std::vector<uint32_t> chunk_page_start_;
  std::vector<uint64_t> page_offsets_;
  std::vector<uint32_t> page_row_counts_;
  std::vector<uint8_t> page_encodings_;
  std::vector<uint64_t> page_hashes_;
  std::vector<ChunkStatsRecord> chunk_stats_;
  std::vector<std::string> chunk_blooms_;
};

/// \brief Zero-copy view over a serialized footer.
///
/// Construction validates the header and section directory only (O(1));
/// all accessors index directly into the underlying buffer, which must
/// outlive the view.
class FooterView {
 public:
  /// Wraps footer bytes. `footer_file_offset` is where the footer
  /// region begins in the file (used to compute absolute positions for
  /// in-place updates).
  static Result<FooterView> Parse(Slice footer, uint64_t footer_file_offset);

  uint32_t num_columns() const { return num_columns_; }
  uint32_t num_row_groups() const { return num_row_groups_; }
  uint32_t total_pages() const { return total_pages_; }
  uint64_t num_rows() const { return num_rows_; }
  uint64_t data_end() const { return data_end_; }
  uint32_t rows_per_page() const { return rows_per_page_; }
  ComplianceLevel compliance() const { return compliance_; }

  uint32_t group_row_count(uint32_t g) const {
    return LoadU32(kSecGroupRowCounts, g);
  }
  uint64_t group_first_row(uint32_t g) const {
    return LoadU64(kSecGroupFirstRow, g);
  }
  uint64_t chunk_offset(uint32_t g, uint32_t c) const {
    return LoadU64(kSecChunkOffsets, static_cast<size_t>(g) * num_columns_ + c);
  }
  /// Global page index range [first, last) of chunk (g, c). Pages of a
  /// chunk are contiguous in file order; the count follows from the
  /// group's row count and the fixed rows_per_page.
  std::pair<uint32_t, uint32_t> chunk_pages(uint32_t g, uint32_t c) const {
    size_t idx = static_cast<size_t>(g) * num_columns_ + c;
    uint32_t first = LoadU32(kSecChunkPageStart, idx);
    uint32_t rows = group_row_count(g);
    uint32_t n = (rows + rows_per_page_ - 1) / rows_per_page_;
    return {first, first + n};
  }
  uint64_t page_offset(uint32_t p) const { return LoadU64(kSecPageOffsets, p); }
  /// Size of the page's slot (fixed at write; in-place updates may use
  /// less, blocks are self-delimiting).
  uint64_t page_slot_size(uint32_t p) const {
    return LoadU64(kSecPageOffsets, p + 1) - LoadU64(kSecPageOffsets, p);
  }
  uint32_t page_row_count(uint32_t p) const {
    return LoadU32(kSecPageRowCounts, p);
  }
  uint8_t page_encoding(uint32_t p) const {
    return footer_[section_offset_[kSecPageEncodings] + p];
  }
  uint64_t page_hash(uint32_t p) const { return LoadU64(kSecPageHashes, p); }
  /// Global page index range [first, last) of all pages in group g
  /// (file order; chunks of a group are contiguous).
  std::pair<uint32_t, uint32_t> group_page_range(uint32_t g) const {
    uint32_t first = UINT32_MAX, last = 0;
    for (uint32_t c = 0; c < num_columns_; ++c) {
      auto [b, e] = chunk_pages(g, c);
      first = std::min(first, b);
      last = std::max(last, e);
    }
    return {first, last};
  }
  uint64_t group_hash(uint32_t g) const { return LoadU64(kSecGroupHashes, g); }
  uint64_t root_hash() const { return LoadU64(kSecRootHash, 0); }

  /// Deletion-vector bytes for group g (fixed ceil(rows/8) slot).
  Slice deletion_vector(uint32_t g) const {
    uint32_t b = LoadU32(kSecDvOffsets, g);
    uint32_t e = LoadU32(kSecDvOffsets, g + 1);
    return footer_.SubSlice(section_offset_[kSecDeletionVectors] + b, e - b);
  }
  /// True if row `r` (group-relative) of group g is deleted.
  bool IsDeleted(uint32_t g, uint32_t r) const {
    Slice dv = deletion_vector(g);
    return (dv[r >> 3] >> (r & 7)) & 1;
  }
  /// True if any row in [begin, end) (group-relative) of group g is
  /// deleted. Rows past the group's deletion-vector slot count as live.
  bool AnyDeleted(uint32_t g, uint32_t begin, uint32_t end) const;
  /// Number of deleted rows in group g.
  uint32_t DeletedCount(uint32_t g) const;
  /// Number of deleted rows across all groups (the compaction-trigger
  /// ground truth).
  uint64_t TotalDeletedCount() const;

  ColumnRecord column_record(uint32_t c) const;
  std::string_view column_name(uint32_t c) const;

  /// True if this footer carries the version-2 chunk-statistics
  /// section.
  bool has_chunk_stats() const { return has_chunk_stats_; }
  /// Raw stats record of chunk (g, c). Only valid when
  /// has_chunk_stats().
  ChunkStatsRecord chunk_stats(uint32_t g, uint32_t c) const;
  /// Zone map of chunk (g, c) — invalid (prune-nothing) when the footer
  /// predates statistics or the column type has none.
  ZoneMap chunk_zone_map(uint32_t g, uint32_t c) const {
    if (!has_chunk_stats_) return ZoneMap{};
    return ZoneMapFromRecord(chunk_stats(g, c));
  }
  /// True if this footer carries the version-3 Bloom-filter sections.
  bool has_chunk_blooms() const { return has_chunk_blooms_; }
  /// Serialized Bloom filter of chunk (g, c); empty when the footer
  /// predates filters or the chunk has none (callers must then treat
  /// the chunk as possibly containing any key). Wrap non-empty bytes
  /// with BloomFilterView::Wrap (serve/bloom.h) to probe.
  Slice chunk_bloom(uint32_t g, uint32_t c) const {
    if (!has_chunk_blooms_) return Slice();
    size_t idx = static_cast<size_t>(g) * num_columns_ + c;
    uint32_t b = LoadU32(kSecBloomOffsets, idx);
    uint32_t e = LoadU32(kSecBloomOffsets, idx + 1);
    return footer_.SubSlice(section_offset_[kSecBloomBlob] + b, e - b);
  }

  /// Binary search over the sorted-name index ("binary map scan").
  Result<uint32_t> FindColumn(std::string_view name) const;

  /// Rebuilds a Schema object from the records (used when the caller
  /// needs the logical view; not required for data access).
  Schema ReconstructSchema() const;

  // -- Absolute file offsets for in-place footer updates (§2.1) -----------
  uint64_t file_offset_of_page_hash(uint32_t p) const {
    return footer_file_offset_ + section_offset_[kSecPageHashes] + 8ull * p;
  }
  uint64_t file_offset_of_group_hash(uint32_t g) const {
    return footer_file_offset_ + section_offset_[kSecGroupHashes] + 8ull * g;
  }
  uint64_t file_offset_of_root_hash() const {
    return footer_file_offset_ + section_offset_[kSecRootHash];
  }
  uint64_t file_offset_of_deletion_vector(uint32_t g) const {
    return footer_file_offset_ + section_offset_[kSecDeletionVectors] +
           LoadU32(kSecDvOffsets, g);
  }

  Slice raw() const { return footer_; }

 private:
  uint64_t LoadU64(uint32_t section, size_t idx) const {
    uint64_t v;
    std::memcpy(&v, footer_.data() + section_offset_[section] + 8 * idx, 8);
    return v;
  }
  uint32_t LoadU32(uint32_t section, size_t idx) const {
    uint32_t v;
    std::memcpy(&v, footer_.data() + section_offset_[section] + 4 * idx, 4);
    return v;
  }

  Slice footer_;
  uint64_t footer_file_offset_ = 0;
  uint32_t num_columns_ = 0;
  uint32_t num_row_groups_ = 0;
  uint32_t total_pages_ = 0;
  uint32_t rows_per_page_ = 0;
  uint64_t num_rows_ = 0;
  uint64_t data_end_ = 0;
  ComplianceLevel compliance_ = ComplianceLevel::kLevel0;
  bool has_chunk_stats_ = false;
  bool has_chunk_blooms_ = false;
  uint64_t section_offset_[kNumFooterSections] = {};
};

/// Reads the trailer of a Bullion file and returns (footer_offset,
/// footer_size).
Result<std::pair<uint64_t, uint32_t>> ReadTrailer(Slice last_bytes,
                                                  uint64_t file_size);

}  // namespace bullion
