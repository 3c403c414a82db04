// Page encode/decode. A page holds `rows_per_page` rows of one leaf
// column: optional offset blocks (list nesting) followed by a values
// block. Pages are the unit of encoding, checksumming, and in-place
// deletion.
//
// Page payload layout:
//   [format: u8]   0 = generic, 1 = sparse-delta (whole page jointly)
//   generic: [list_depth: u8][offset block]*depth [values block]
//   sparse-delta: [sparse-delta block] (list<int64> only)
// Generic pages hold every value domain at list depth 0 and 1, and int
// values at depth 2 (PageLayoutHolds).
//
// Deletable pages (§2.1, compliance level 2) restrict the values block
// to in-place maskable encodings chosen by a deterministic decision
// tree (not the cascade): Dictionary-with-mask-entry (codes forced to
// FixedBitWidth), RLE with ZigZag children, Varint, FixedBitWidth,
// FOR-delta, or Trivial. See format/deletion.cc for the masking rules.

#pragma once

#include <cstdint>
#include <vector>

#include "common/buffer.h"
#include "common/result.h"
#include "common/status.h"
#include "encoding/encoding.h"
#include "format/column_vector.h"
#include "format/schema.h"

namespace bullion {

/// Page format tags (first payload byte).
enum class PageFormat : uint8_t { kGeneric = 0, kSparseDelta = 1 };

struct PageEncodeOptions {
  CascadeOptions cascade;
  /// Restrict the values block to maskable encodings (level 2 columns).
  bool deletable = false;
  /// Encode list<int64> pages with the sliding-window codec (§2.2).
  bool use_sparse_delta = false;
};

/// \brief An encoded page plus the metadata the footer records.
struct EncodedPage {
  Buffer data;
  uint32_t row_count;
  /// Top-level values-block encoding tag (footer page_compression_types).
  uint8_t encoding;
  /// Min/max of the page's rows (invalid for types without zone maps).
  /// Computed by the encode stage — which runs in parallel — and merged
  /// per chunk at commit into the footer's statistics section; min/max
  /// merging is schedule-independent, so the footer stays deterministic.
  ZoneMap zone;
  /// Bloom key hashes of the page's rows, in row order (empty when the
  /// writer has filters disabled or the column is not Bloom-eligible;
  /// serve/bloom.h). Like `zone`, computed by the parallel encode stage
  /// and concatenated in page order at commit, so the chunk filters —
  /// and the file bytes — are independent of encode scheduling.
  std::vector<uint64_t> key_hashes;
};

/// Whether pages hold a leaf of this shape: any domain at list depth 0
/// or 1, ints at depth 2. Writers refuse every other leaf
/// (ValidateWriterOptions), and DecodePage reports one as Corruption.
inline bool PageLayoutHolds(ValueDomain domain, int list_depth) {
  return list_depth <= 1 || (list_depth == 2 && domain == ValueDomain::kInt);
}

/// Encodes rows [row_begin, row_end) of `col` into one page.
Result<EncodedPage> EncodePage(const ColumnVector& col, size_t row_begin,
                               size_t row_end,
                               const PageEncodeOptions& options);

/// Decodes a page into `out`, which must be empty: its physical type
/// and list depth (the leaf's) give the page shape, and on success it
/// holds exactly the page's rows. The offsets are checked and then
/// moved in unchanged; callers that gather pages into one column append
/// each decoded page (ColumnVector::AppendRows). A non-empty `out` is
/// InvalidArgument; a shape PageLayoutHolds rejects, or bytes that do
/// not decode to well-formed offsets and values, are Corruption, and
/// leave `out` empty.
Status DecodePage(Slice page, ColumnVector* out);

/// Encodes a deletable int values block using the deterministic
/// decision tree described above. `allow_rle` must be false for list
/// columns: the RLE deletion path physically removes elements, which
/// only scalar pages can realign from the deletion vector. Exposed for
/// tests.
Status EncodeDeletableIntValues(std::span<const int64_t> values,
                                bool allow_rle, BufferBuilder* out,
                                uint8_t* encoding_out);

/// Encodes the deletable RLE block: run values and run lengths as ZigZag
/// varint children. Each value's encoded size is independent of its
/// neighbours, so deleting rows can only shrink the block (run values
/// become a subset, run lengths only decrease, run count never grows),
/// and format/deletion.cc re-encodes a masked RLE page with it in place.
/// Width-shared children like FOR-delta are not monotone: removing rows
/// can widen the run-length range and grow the shared bit width.
Status EncodeDeletableRle(std::span<const int64_t> values, BufferBuilder* out);

}  // namespace bullion
