#include "format/deletion.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <utility>

#include "common/bit_util.h"
#include "common/varint.h"
#include "encoding/cascade.h"
#include "format/page.h"

namespace bullion {

namespace {

/// Parses a block header from raw bytes at `pos`; returns payload start.
Status ParseHeaderAt(const std::vector<uint8_t>& bytes, size_t pos,
                     EncodingType* type, uint64_t* count,
                     size_t* payload_pos) {
  Slice s(bytes.data(), bytes.size());
  if (pos >= bytes.size()) return Status::Corruption("block header oob");
  *type = static_cast<EncodingType>(bytes[pos]);
  size_t p = pos + 1;
  if (!varint::GetVarint64(s, &p, count)) {
    return Status::Corruption("block count oob");
  }
  *payload_pos = p;
  return Status::OK();
}

/// Element ranges [begin, end) of a values block, one per masked row.
using ElementRanges = std::vector<std::pair<uint64_t, uint64_t>>;

/// Maps page-relative `rows` through the page's list offsets to the
/// element ranges of its values block (`count` values), sorted. Every
/// offset level must start at 0, be monotone, and stay within the level
/// below it, and every row must be one the offsets describe.
Result<ElementRanges> RowElementRanges(
    const std::vector<std::vector<int64_t>>& offsets,
    std::span<const uint32_t> rows, uint64_t count) {
  uint64_t upper = count;
  for (size_t level = offsets.size(); level-- > 0;) {
    const std::vector<int64_t>& offs = offsets[level];
    if (offs.empty() || offs.front() != 0) {
      return Status::Corruption("list offsets must start at 0");
    }
    for (size_t i = 1; i < offs.size(); ++i) {
      if (offs[i] < offs[i - 1]) {
        return Status::Corruption("list offsets not monotone");
      }
    }
    if (static_cast<uint64_t>(offs.back()) > upper) {
      return Status::Corruption("list offsets exceed the page's values");
    }
    upper = offs.size() - 1;
  }
  // `upper` is now the number of rows the page describes.
  ElementRanges ranges;
  ranges.reserve(rows.size());
  for (uint32_t r : rows) {
    if (r >= upper) return Status::Corruption("masked row past the page");
    uint64_t begin = r, end = r + 1;
    for (const std::vector<int64_t>& offs : offsets) {
      begin = static_cast<uint64_t>(offs[begin]);
      end = static_cast<uint64_t>(offs[end]);
    }
    ranges.emplace_back(begin, end);
  }
  std::sort(ranges.begin(), ranges.end());
  return ranges;
}

/// Zeros the packed slots of `ranges` in a [width u8][packed bits]
/// payload starting at `width_pos` (slot value 0 is the FOR-delta
/// frame base and the dictionary's reserved mask entry).
Status ZeroPackedSlots(std::vector<uint8_t>* bytes, size_t width_pos,
                       const ElementRanges& ranges) {
  if (width_pos >= bytes->size()) {
    return Status::Corruption("packed width oob");
  }
  const int width = (*bytes)[width_pos];
  if (width > 64) return Status::Corruption("packed bit width above 64");
  if (width == 0) return Status::OK();  // every slot already decodes to 0
  const uint64_t slots = (bytes->size() - width_pos - 1) * 8 / width;
  uint8_t* packed = bytes->data() + width_pos + 1;
  for (const auto& [begin, end] : ranges) {
    if (end > slots) return Status::Corruption("packed value past the page");
    for (uint64_t e = begin; e < end; ++e) {
      bit_util::SetPacked(packed, e, width, 0);
    }
  }
  return Status::OK();
}

/// Zeros the low 7 bits of every byte of each varint in `ranges`,
/// preserving continuation MSBs (§2.1 Varint masking).
Status MaskVarints(std::vector<uint8_t>* bytes, size_t payload_pos,
                   const ElementRanges& ranges) {
  size_t p = payload_pos;
  uint64_t value_idx = 0;
  for (const auto& [begin, end] : ranges) {
    for (uint64_t want = begin; want < end; ++want) {
      while (value_idx < want) {
        // Skip one varint.
        while (p < bytes->size() && ((*bytes)[p] & 0x80)) ++p;
        if (p >= bytes->size()) return Status::Corruption("varint walk oob");
        ++p;
        ++value_idx;
      }
      // Mask this varint: zero payload bits, keep MSBs. `p` stays — the
      // masked varint has the same byte length, so the walk continues
      // from it for the next target.
      size_t q = p;
      while (q < bytes->size() && ((*bytes)[q] & 0x80)) {
        (*bytes)[q] = 0x80;
        ++q;
      }
      if (q >= bytes->size()) return Status::Corruption("varint mask oob");
      (*bytes)[q] = 0x00;
    }
  }
  return Status::OK();
}

}  // namespace

Status MaskPageRows(std::vector<uint8_t>* page_bytes,
                    std::span<const uint32_t> rows,
                    std::span<const uint8_t> previously_removed) {
  if (rows.empty()) return Status::OK();
  Slice page(page_bytes->data(), page_bytes->size());
  SliceReader in(page);
  if (in.remaining() < 2) return Status::Corruption("page too small");
  PageFormat format = static_cast<PageFormat>(in.Read<uint8_t>());
  if (format != PageFormat::kGeneric) {
    return Status::InvalidArgument(
        "in-place deletion requires generic page format");
  }
  int depth = in.Read<uint8_t>();
  if (depth > 2) return Status::Corruption("page list depth above 2");

  std::vector<std::vector<int64_t>> offsets(static_cast<size_t>(depth));
  for (int level = 0; level < depth; ++level) {
    BULLION_RETURN_NOT_OK(DecodeIntBlock(&in, &offsets[level]));
  }
  size_t values_pos = in.position();

  EncodingType type;
  uint64_t count;
  size_t payload;
  BULLION_RETURN_NOT_OK(
      ParseHeaderAt(*page_bytes, values_pos, &type, &count, &payload));
  // Element ranges to mask, per the list nesting (RLE pages drop rows
  // instead, below).
  ElementRanges ranges;
  if (type != EncodingType::kRle) {
    BULLION_ASSIGN_OR_RETURN(ranges, RowElementRanges(offsets, rows, count));
  }

  switch (type) {
    case EncodingType::kTrivial: {
      const uint64_t slots = (page_bytes->size() - payload) / 8;
      for (const auto& [begin, end] : ranges) {
        if (end > slots) return Status::Corruption("trivial mask oob");
        std::memset(page_bytes->data() + payload + 8 * begin, 0,
                    8 * (end - begin));
      }
      return Status::OK();
    }
    case EncodingType::kFixedBitWidth:
      return ZeroPackedSlots(page_bytes, payload, ranges);
    case EncodingType::kForDelta: {
      // Payload: [base zigzag varint][width u8][packed offsets].
      size_t p = payload;
      uint64_t zz;
      if (!varint::GetVarint64(page, &p, &zz)) {
        return Status::Corruption("for-delta base oob");
      }
      return ZeroPackedSlots(page_bytes, p, ranges);
    }
    case EncodingType::kVarint:
      return MaskVarints(page_bytes, payload, ranges);
    case EncodingType::kDictionary: {
      // [has_mask u8][n_entries varint][entries block][codes block].
      size_t p = payload;
      if (p >= page_bytes->size()) return Status::Corruption("dict oob");
      uint8_t has_mask = (*page_bytes)[p++];
      if (!has_mask) {
        return Status::InvalidArgument(
            "dictionary page lacks the reserved mask entry");
      }
      uint64_t n_entries;
      if (!varint::GetVarint64(page, &p, &n_entries)) {
        return Status::Corruption("dict n_entries oob");
      }
      // Skip the entries block by decoding it.
      SliceReader skip(page);
      skip.Seek(p);
      std::vector<int64_t> scratch;
      BULLION_RETURN_NOT_OK(DecodeIntBlock(&skip, &scratch));
      EncodingType codes_type;
      uint64_t codes_count;
      size_t codes_payload;
      BULLION_RETURN_NOT_OK(ParseHeaderAt(*page_bytes, skip.position(),
                                          &codes_type, &codes_count,
                                          &codes_payload));
      if (codes_type != EncodingType::kFixedBitWidth) {
        return Status::InvalidArgument(
            "deletable dictionary codes must be fixed-bit-width");
      }
      if (!ranges.empty() && ranges.back().second > codes_count) {
        return Status::Corruption("dictionary code past the codes block");
      }
      return ZeroPackedSlots(page_bytes, codes_payload, ranges);
    }
    case EncodingType::kRle: {
      // Scalar pages only (writer guarantees). Decode surviving values,
      // drop the newly deleted rows' values, re-encode, pad.
      SliceReader rle_in(page);
      rle_in.Seek(values_pos);
      std::vector<int64_t> values;
      BULLION_RETURN_NOT_OK(DecodeIntBlock(&rle_in, &values));
      // Map page rows -> surviving positions (rows with
      // previously_removed unset, in order).
      std::vector<uint8_t> drop(values.size(), 0);
      {
        size_t pos = 0;
        std::vector<uint8_t> is_target(previously_removed.size(), 0);
        for (uint32_t r : rows) {
          if (r >= is_target.size()) {
            return Status::Corruption("masked row past the page");
          }
          is_target[r] = 1;
        }
        for (size_t r = 0; r < previously_removed.size(); ++r) {
          if (previously_removed[r]) continue;  // not present in stream
          if (pos >= values.size()) {
            return Status::Corruption("rle survivors exceed stream");
          }
          if (is_target[r]) drop[pos] = 1;
          ++pos;
        }
        if (pos != values.size()) {
          return Status::Corruption("rle survivor count mismatch");
        }
      }
      std::vector<int64_t> kept;
      kept.reserve(values.size());
      for (size_t i = 0; i < values.size(); ++i) {
        if (!drop[i]) kept.push_back(values[i]);
      }
      BufferBuilder rebuilt;
      BULLION_RETURN_NOT_OK(EncodeDeletableRle(kept, &rebuilt));
      size_t avail = page_bytes->size() - values_pos;
      if (rebuilt.size() > avail) {
        return Status::ResourceExhausted(
            "re-encoded RLE page exceeds original slot");
      }
      std::memcpy(page_bytes->data() + values_pos, rebuilt.AsSlice().data(),
                  rebuilt.size());
      std::memset(page_bytes->data() + values_pos + rebuilt.size(), 0,
                  avail - rebuilt.size());
      return Status::OK();
    }
    default:
      return Status::InvalidArgument(
          "page encoding is not in-place maskable: " +
          std::string(EncodingTypeName(type)));
  }
}

DeleteExecutor::DeleteExecutor(RandomAccessFile* read_file,
                               WritableFile* update_file,
                               const FooterView& footer)
    : read_(read_file),
      update_(update_file),
      footer_(footer),
      merkle_([&] {
        std::vector<uint64_t> hashes(footer.total_pages());
        for (uint32_t p = 0; p < footer.total_pages(); ++p) {
          hashes[p] = footer.page_hash(p);
        }
        std::vector<uint32_t> ppg(footer.num_row_groups());
        for (uint32_t g = 0; g < footer.num_row_groups(); ++g) {
          auto [b, e] = footer.group_page_range(g);
          ppg[g] = e - b;
        }
        return MerkleTree(std::move(hashes), std::move(ppg));
      }()) {
  dv_.resize(footer_.num_row_groups());
  for (uint32_t g = 0; g < footer_.num_row_groups(); ++g) {
    Slice dv = footer_.deletion_vector(g);
    dv_[g].assign(dv.data(), dv.data() + dv.size());
  }
}

Result<DeleteReport> DeleteExecutor::DeleteRows(
    std::span<const uint64_t> row_ids, ComplianceLevel level) {
  DeleteReport report;
  if (level == ComplianceLevel::kLevel0) {
    return Status::InvalidArgument(
        "level 0 has no deletion support; rewrite the file");
  }
  const FooterView& f = footer_;

  // Resolve global row ids to (group, group-relative row), dedup, and
  // skip rows already deleted.
  std::map<uint32_t, std::vector<uint32_t>> rows_per_group;
  for (uint64_t row : row_ids) {
    if (row >= f.num_rows()) {
      return Status::InvalidArgument("row id out of range");
    }
    uint32_t lo = 0, hi = f.num_row_groups();
    while (lo + 1 < hi) {
      uint32_t mid = (lo + hi) / 2;
      if (f.group_first_row(mid) <= row) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    uint32_t rel = static_cast<uint32_t>(row - f.group_first_row(lo));
    if (DvGet(lo, rel)) continue;  // already deleted
    rows_per_group[lo].push_back(rel);
  }
  for (auto& [g, rows] : rows_per_group) {
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    report.rows_deleted += rows.size();
  }

  // Level 2: physically mask every affected page of every column. All
  // pages are read, checked against their live Merkle leaves, and
  // masked in memory before the first write (the RLE path also needs
  // the pre-delete DV to locate surviving values), so a page that is
  // damaged on disk or cannot be masked refuses the whole delete with
  // the file, the tree and the deletion vectors untouched.
  struct MaskedPage {
    uint32_t index = 0;
    std::vector<uint8_t> bytes;
  };
  std::vector<MaskedPage> masked;
  if (level == ComplianceLevel::kLevel2) {
    uint32_t rpp = f.rows_per_page();
    for (const auto& [g, rows] : rows_per_group) {
      for (uint32_t c = 0; c < f.num_columns(); ++c) {
        // Per-column compliance (§2.1: levels adjust "on a per-table or
        // per-column basis"): only columns flagged deletable carry
        // maskable encodings and get physical erasure; the rest are
        // hidden by the deletion vector alone.
        if ((f.column_record(c).flags & 1) == 0) continue;
        auto [first_page, end_page] = f.chunk_pages(g, c);
        // Group target rows by page.
        std::map<uint32_t, std::vector<uint32_t>> rows_per_page_map;
        for (uint32_t r : rows) {
          uint32_t page = first_page + r / rpp;
          if (page >= end_page) {
            return Status::Corruption("row maps past chunk pages");
          }
          rows_per_page_map[page].push_back(r % rpp);
        }
        for (const auto& [p, page_rows] : rows_per_page_map) {
          uint64_t slot = f.page_slot_size(p);
          Buffer buf;
          BULLION_RETURN_NOT_OK(read_->Read(f.page_offset(p), slot, &buf));
          report.page_bytes_read += slot;
          // The caller's footer goes stale after the first delete; the
          // live tree holds the hash each page must still match.
          if (HashPage(buf.AsSlice()) != merkle_.page_hash(p)) {
            return Status::Corruption("page " + std::to_string(p) +
                                      " fails its checksum; not masking it");
          }
          std::vector<uint8_t> bytes(buf.data(), buf.data() + buf.size());

          uint32_t page_first_row = (p - first_page) * rpp;
          uint32_t page_rows_n = f.page_row_count(p);
          std::vector<uint8_t> previously_removed(page_rows_n, 0);
          for (uint32_t r = 0; r < page_rows_n; ++r) {
            previously_removed[r] = DvGet(g, page_first_row + r) ? 1 : 0;
          }
          BULLION_RETURN_NOT_OK(
              MaskPageRows(&bytes, page_rows, previously_removed));
          masked.push_back(MaskedPage{p, std::move(bytes)});
        }
      }
    }
  }

  // Every page masked: write them back with their Merkle leaves
  // (incremental path update: page -> group -> root).
  for (const MaskedPage& page : masked) {
    const Slice bytes(page.bytes.data(), page.bytes.size());
    BULLION_RETURN_NOT_OK(update_->WriteAt(f.page_offset(page.index), bytes));
    report.page_bytes_written += bytes.size();
    ++report.pages_rewritten;
    uint64_t new_hash = HashPage(bytes);
    report.merkle_folds += merkle_.UpdatePage(page.index, new_hash);
    BufferBuilder h;
    h.Append<uint64_t>(new_hash);
    BULLION_RETURN_NOT_OK(update_->WriteAt(
        f.file_offset_of_page_hash(page.index), h.AsSlice()));
    report.footer_bytes_written += 8;
  }
  if (level == ComplianceLevel::kLevel2) {
    // Write back the updated interior hashes once per touched group +
    // the root.
    for (const auto& [g, rows] : rows_per_group) {
      BufferBuilder gh;
      gh.Append<uint64_t>(merkle_.group_hash(g));
      BULLION_RETURN_NOT_OK(
          update_->WriteAt(f.file_offset_of_group_hash(g), gh.AsSlice()));
      report.footer_bytes_written += 8;
    }
    BufferBuilder rh;
    rh.Append<uint64_t>(merkle_.root());
    BULLION_RETURN_NOT_OK(
        update_->WriteAt(f.file_offset_of_root_hash(), rh.AsSlice()));
    report.footer_bytes_written += 8;
  }

  // Flip DV bits and persist the touched groups' vectors.
  for (const auto& [g, rows] : rows_per_group) {
    for (uint32_t r : rows) DvSet(g, r);
    BULLION_RETURN_NOT_OK(update_->WriteAt(
        f.file_offset_of_deletion_vector(g),
        Slice(dv_[g].data(), dv_[g].size())));
    report.footer_bytes_written += dv_[g].size();
  }
  BULLION_RETURN_NOT_OK(update_->Flush());
  return report;
}

}  // namespace bullion
