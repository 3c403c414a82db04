// Cascading encoding framework (paper §2.6, Table 2).
//
// Every encoded block is self-describing:
//
//   [type : u8][count : varint][payload ...]
//
// Payloads may recursively contain child blocks (RLE's values/lengths,
// Dictionary's codes, Delta's deltas, Nullable's indicator/values, ...),
// which is the paper's "modular, composable interfaces": any encoding
// can be nested under any other, and the cascade selector picks the
// tree. Blocks decode without external context, so a sub-column can be
// handed to any decoder independently — the unified interface Parquet
// and ORC lack (§2.6).
//
// Four value domains are supported, one public entry point each
// (cascade.h): int64 streams, double streams, byte-string streams, and
// bool streams. Narrower physical types (int8/16/32, float32, fp16
// bit patterns) are widened or bit-reinterpreted into these domains by
// the format layer.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/buffer.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/varint.h"

namespace bullion {

/// Identifies an encoding scheme (Table 2 catalog). Tag values are part
/// of the on-disk format and must not be reordered.
enum class EncodingType : uint8_t {
  kTrivial = 0,         // raw little-endian values
  kRle = 1,             // run-length: values child + run-lengths child
  kDictionary = 2,      // int dictionary: distinct values child + codes child
  kFixedBitWidth = 3,   // bit-packing at a uniform width (non-negative)
  kVarint = 4,          // LEB128 per value (non-negative)
  kZigZag = 5,          // zigzag transform + child
  kDelta = 6,           // first value + zigzag'd deltas child
  kForDelta = 7,        // frame-of-reference: base + bit-packed offsets
  kConstant = 8,        // single repeated value
  kMainlyConstant = 9,  // constant + exception positions/values children
  kSentinel = 10,       // nulls as an unused sentinel value, single child
  kNullable = 11,       // validity child + dense non-null values child
  kSparseBool = 12,     // bools as set-bit index deltas or raw bitmap
  kBitShuffle = 13,     // bit-plane transpose of fixed-width values + child
  kHuffman = 14,        // canonical Huffman over small-range alphabets
  kFastPFor = 15,       // patched frame-of-reference, 128-value miniblocks
  kFastBP128 = 16,      // per-128-block binary packing
  kFsst = 17,           // static symbol table string compression
  kGorilla = 18,        // XOR float compression (Gorilla)
  kChimp = 19,          // XOR float compression (Chimp variant)
  kPseudodecimal = 20,  // per-value decimal mantissa/exponent split
  kAlp = 21,            // adaptive lossless float-as-int with exceptions
  kRoaring = 22,        // roaring bitmap containers for bools
  kChunked = 23,        // deflate over 256 KiB chunks (zstd stand-in)
  kStringDict = 24,     // string dictionary: blob+offsets + codes child
  kStringTrivial = 25,  // length-prefixed raw strings
  kBoolRle = 26,        // run-length over bools
  kSparseDelta = 27,    // sliding-window delta for sequence features (§2.2)
  kBitShuffleSplit = 28,  // double bit planes: constant, raw or deflated
  kNumEncodings = 29,
};

std::string_view EncodingTypeName(EncodingType t);

/// \brief Tuning knobs for cascading encoding selection.
struct CascadeOptions {
  /// Maximum recursion depth for child streams. Depth 0 encodes every
  /// child trivially; the paper notes BtrBlocks uses 1-2 in practice.
  int max_depth = 2;
  /// Linear objective weights (Nimble-style): minimize
  ///   w_size * bytes + w_decode * est_decode_cost.
  /// General-purpose block compression (Chunked/deflate) is always a
  /// candidate: Zeng et al. advise against defaulting to it, but the
  /// paper argues it still wins for rarely-read columns (§2.6).
  double w_size = 1.0;
  double w_decode = 0.0;
  /// When non-empty, only these encodings are considered at the top
  /// level (used by ablations and by columns that must remain in-place
  /// deletable, §2.1).
  std::vector<EncodingType> allowed;

  bool IsAllowed(EncodingType t) const {
    if (allowed.empty()) return true;
    for (EncodingType a : allowed) {
      if (a == t) return true;
    }
    return false;
  }
};

/// Writes the standard block header.
inline void WriteBlockHeader(EncodingType type, uint64_t count,
                             BufferBuilder* out) {
  out->Append<uint8_t>(static_cast<uint8_t>(type));
  varint::PutVarint64(out, count);
}

/// \brief Parsed block header.
struct BlockHeader {
  EncodingType type;
  uint64_t count;
};

/// Upper bound on values per block, enforced at header parse time so a
/// corrupted count cannot trigger absurd allocations or expansion
/// loops. Generous: pages hold thousands of rows; whole-column blocks
/// in benches hold millions.
constexpr uint64_t kMaxBlockValues = 1ull << 28;

/// Reads a block header; advances the reader to the payload.
inline Result<BlockHeader> ReadBlockHeader(SliceReader* in) {
  if (in->remaining() < 1) return Status::Corruption("truncated block header");
  uint8_t tag = in->Read<uint8_t>();
  if (tag >= static_cast<uint8_t>(EncodingType::kNumEncodings)) {
    return Status::Corruption("unknown encoding tag " + std::to_string(tag));
  }
  // Re-wrap remaining bytes to parse the varint count.
  Slice rest = in->ReadBytes(in->remaining());
  size_t pos = 0;
  uint64_t count = 0;
  if (!varint::GetVarint64(rest, &pos, &count)) {
    return Status::Corruption("truncated block count varint");
  }
  if (count > kMaxBlockValues) {
    return Status::Corruption("block count exceeds sanity cap");
  }
  in->Seek(in->position() - rest.size() + pos);
  return BlockHeader{static_cast<EncodingType>(tag), count};
}

/// Relative CPU cost factor per encoding, used by the selector's
/// deterministic linear objective (measured once on the dev machine,
/// normalized to Trivial = 1; kept static so selection is reproducible).
struct EncodingCost {
  double decode;  // relative cost per value to decode
};

EncodingCost GetEncodingCost(EncodingType t);

}  // namespace bullion
