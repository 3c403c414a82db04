// Sliding-window delta encoding for long-sequence sparse features
// (paper §2.2, Figs. 3-4).
//
// Sequence features like clk_seq_cids are list<int64> vectors that
// evolve by a sliding window: consecutive rows of the same user share a
// long contiguous segment, with a few new ids prepended (head) and old
// ids dropped (tail). Generic encodings miss this because the shared
// segment *shifts position*. This codec stores, per vector:
//
//   delta flag = 0: base vector (stored fully)
//   delta flag = 1: [range_start, range_end) of the previous vector that
//                   is reused, plus explicit head and tail values:
//                   new = head ++ prev[range_start, range_end) ++ tail
//
// Metadata streams (flags, ranges, head/tail lengths) are small ints
// encoded via the cascade (bit-packing/varint per the paper); bulk data
// (bases + heads + tails) goes through Chunked (deflate, standing in
// for zstd) since "training predominantly involves mini-batch reads
// with infrequent filtering".

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/buffer.h"
#include "common/result.h"
#include "common/status.h"
#include "encoding/encoding.h"

namespace bullion {

/// Minimum reused-segment length worth encoding as a delta; shorter
/// matches store the vector as a new base.
constexpr size_t kMinSparseOverlap = 8;

/// Encodes a list<int64> column (offsets + flat values) with
/// sliding-window deltas. `offsets` has num_rows+1 entries. `cascade`
/// selects the encodings of the metadata child streams.
Result<Buffer> EncodeSparseDeltaColumn(std::span<const int64_t> offsets,
                                       std::span<const int64_t> values,
                                       const CascadeOptions& cascade = {});

/// Decodes a column produced by EncodeSparseDeltaColumn.
Status DecodeSparseDeltaColumn(Slice block, std::vector<int64_t>* offsets,
                               std::vector<int64_t>* values);

/// \brief Result of the per-vector window search (exposed for tests).
struct WindowMatch {
  bool is_delta;        // false -> store as base
  size_t range_start;   // reuse prev[range_start, range_end)
  size_t range_end;
  size_t head_len;      // new values before the reused segment
  size_t tail_len;      // new values after the reused segment
};

/// Finds the longest contiguous segment of `prev` appearing in `cur`
/// such that cur = head ++ prev[s,e) ++ tail.
WindowMatch FindBestWindow(std::span<const int64_t> prev,
                           std::span<const int64_t> cur, size_t min_overlap);

}  // namespace bullion
