// Cascade selector and public entry points of the encoding framework.
//
// EncodeInt64Column / EncodeDoubleColumn / EncodeStringColumn /
// EncodeBoolColumn and the child streams of every nested encoder
// (CascadeContext) go through one selector. It gates candidate
// encodings on statistics, trial-encodes each candidate on the input
// (on an 8192-value sample when the input is larger), scores the trials
// with the linear objective from CascadeOptions, and keeps the cheapest
// trial as the self-describing block; only a winner picked on a sample
// is encoded again, on the full input. Child streams recurse through
// CascadeContext until max_depth. src/encoding/README.md ("Selection")
// has the rules.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "encoding/encoding.h"
#include "encoding/stats.h"

namespace bullion {

/// \brief Recursion state threaded through nested encoders.
///
/// Child streams (dictionary codes, RLE run lengths, delta values, ...)
/// are encoded by calling EncodeIntChild/EncodeBoolChild, which apply
/// cascade selection again at depth+1, or fall back to a cheap direct
/// encoding at the depth limit.
class CascadeContext {
 public:
  explicit CascadeContext(const CascadeOptions& options, int depth = 0)
      : options_(options), depth_(depth) {}

  const CascadeOptions& options() const { return options_; }
  int depth() const { return depth_; }
  bool AtDepthLimit() const { return depth_ >= options_.max_depth; }

  /// Encodes a child int64 stream as a complete block, recursing.
  Status EncodeIntChild(std::span<const int64_t> values, BufferBuilder* out);

  /// Encodes a child bool stream (one byte per value) as a block.
  Status EncodeBoolChild(std::span<const uint8_t> values, BufferBuilder* out);

 private:
  const CascadeOptions& options_;
  int depth_;
};

// ---------------------------------------------------------------------------
// Forced encoders: write a complete block using one specific encoding.
// Used by the selector, by ablation benches, and by the sparse-delta
// codec for its bulk data stream.
// ---------------------------------------------------------------------------

Status EncodeIntBlockAs(EncodingType type, std::span<const int64_t> values,
                        CascadeContext* ctx, BufferBuilder* out);
Status EncodeDoubleBlockAs(EncodingType type, std::span<const double> values,
                           CascadeContext* ctx, BufferBuilder* out);
Status EncodeStringBlockAs(EncodingType type,
                           std::span<const std::string> values,
                           CascadeContext* ctx, BufferBuilder* out);
Status EncodeBoolBlockAs(EncodingType type, std::span<const uint8_t> values,
                         CascadeContext* ctx, BufferBuilder* out);

// ---------------------------------------------------------------------------
// Block decoders: dispatch on the block's type tag. The reader is
// positioned at the block header and left positioned one byte past the
// block payload.
// ---------------------------------------------------------------------------

Status DecodeIntBlock(SliceReader* in, std::vector<int64_t>* out);
Status DecodeDoubleBlock(SliceReader* in, std::vector<double>* out);
Status DecodeStringBlock(SliceReader* in, std::vector<std::string>* out);
Status DecodeBoolBlock(SliceReader* in, std::vector<uint8_t>* out);

/// Decodes an int block into caller-preallocated storage; the block's
/// header count must equal out.size(). The payload decodes through the
/// dispatched block kernels with no intermediate vector.
Status DecodeIntBlockInto(SliceReader* in, std::span<int64_t> out);

// ---------------------------------------------------------------------------
// Cascade entry points: select + encode. Each returns the winning block
// and, when `chosen` is non-null, stores its encoding there (the
// block's first byte).
// ---------------------------------------------------------------------------

Result<Buffer> EncodeInt64Column(std::span<const int64_t> values,
                                 const CascadeOptions& options = {},
                                 EncodingType* chosen = nullptr);
Status DecodeInt64Column(Slice block, std::vector<int64_t>* out);

Result<Buffer> EncodeDoubleColumn(std::span<const double> values,
                                  const CascadeOptions& options = {},
                                  EncodingType* chosen = nullptr);
Status DecodeDoubleColumn(Slice block, std::vector<double>* out);

Result<Buffer> EncodeStringColumn(std::span<const std::string> values,
                                  const CascadeOptions& options = {},
                                  EncodingType* chosen = nullptr);
Status DecodeStringColumn(Slice block, std::vector<std::string>* out);

Result<Buffer> EncodeBoolColumn(std::span<const uint8_t> values,
                                const CascadeOptions& options = {},
                                EncodingType* chosen = nullptr);
Status DecodeBoolColumn(Slice block, std::vector<uint8_t>* out);

/// Nullable composition: validity (1 = present) + dense non-null values.
Result<Buffer> EncodeNullableInt64Column(std::span<const int64_t> values,
                                         std::span<const uint8_t> validity,
                                         const CascadeOptions& options = {});
/// Decodes a nullable block; absent positions get `null_fill` and
/// validity (if non-null) receives the indicator bytes.
Status DecodeNullableInt64Column(Slice block, int64_t null_fill,
                                 std::vector<int64_t>* values,
                                 std::vector<uint8_t>* validity);

}  // namespace bullion
