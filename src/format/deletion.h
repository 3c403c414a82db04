// In-place, compliance-grade deletion (paper §2.1).
//
// Level 1 sets deletion-vector bits in the footer (query-time
// filtering; data remains on disk). Level 2 additionally *physically
// erases* the deleted rows' values inside each affected page, in place,
// under the size-consistency criterion (the rewritten page never
// exceeds its original slot):
//
//   Trivial        zero the row's fixed-width byte slots
//   FixedBitWidth  zero the row's packed bit slots
//   FOR-delta      zero the packed offset (decodes to the frame base)
//   Varint         keep each byte's continuation MSB, zero the 7
//                  payload bits (layout stays parseable)
//   RLE            physically drop the elements and re-encode (provably
//                  <= original with the deterministic FOR-delta
//                  children); readers realign from the deletion vector
//   Dictionary     repoint the row's code to the reserved mask entry 0
//
// After page updates, the Merkle checksum path (page -> group -> root)
// is updated in the footer, also in place (Fig. 2). A level-2 delete is
// all or nothing: every affected page is read, checked against its
// Merkle leaf, and masked in memory before the first byte is written.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "format/footer.h"
#include "format/merkle.h"
#include "io/file.h"

namespace bullion {

/// \brief Accounting for one delete operation (drives bench_deletion).
struct DeleteReport {
  uint64_t rows_deleted = 0;
  uint64_t pages_rewritten = 0;
  uint64_t page_bytes_read = 0;
  uint64_t page_bytes_written = 0;
  uint64_t footer_bytes_written = 0;
  uint64_t merkle_folds = 0;

  uint64_t total_bytes_written() const {
    return page_bytes_written + footer_bytes_written;
  }
};

/// Masks page-relative `rows` inside an encoded page buffer, in place.
/// `previously_removed[r]` marks rows whose values an earlier RLE
/// deletion already removed physically (needed to locate surviving
/// positions). The buffer size never changes (size consistency), and
/// no byte outside it is touched: offsets, bit widths, and packed slots
/// that do not fit the page are Corruption.
Status MaskPageRows(std::vector<uint8_t>* page_bytes,
                    std::span<const uint32_t> rows,
                    std::span<const uint8_t> previously_removed);

/// \brief Executes compliant deletes against an open Bullion file.
class DeleteExecutor {
 public:
  /// `read_file` and `update_file` must reference the same underlying
  /// file; `update_file` must be opened for in-place updates.
  DeleteExecutor(RandomAccessFile* read_file, WritableFile* update_file,
                 const FooterView& footer);

  /// Deletes the given global row ids at the given compliance level.
  /// Level 0 is rejected: plain columnar files require a full rewrite
  /// (see baseline/parquet_like for that cost). At level 2 a page that
  /// fails its checksum (Corruption) or cannot be masked refuses the
  /// whole delete before anything is written.
  Result<DeleteReport> DeleteRows(std::span<const uint64_t> row_ids,
                                  ComplianceLevel level);

 private:
  bool DvGet(uint32_t g, uint32_t r) const {
    return (dv_[g][r >> 3] >> (r & 7)) & 1;
  }
  void DvSet(uint32_t g, uint32_t r) {
    dv_[g][r >> 3] |= static_cast<uint8_t>(1u << (r & 7));
  }

  RandomAccessFile* read_;
  WritableFile* update_;
  FooterView footer_;             // view over the caller's footer buffer
  std::vector<std::vector<uint8_t>> dv_;  // live deletion vectors
  MerkleTree merkle_;             // live checksum tree
};

}  // namespace bullion
