// zlib (deflate) helpers shared by Chunked and BitShuffle codecs.
// Deflate stands in for zstd, which the paper's Chunked encoding uses
// (zstd development headers are unavailable offline; see DESIGN.md §2).

#pragma once

#include <cstddef>
#include <cstdint>

#include "common/buffer.h"
#include "common/slice.h"
#include "common/status.h"

namespace bullion {
namespace deflate_util {

/// Chunk size the paper specifies for Chunked encoding (Table 2).
constexpr size_t kChunkSize = 256 * 1024;

/// Deflate's largest expansion: a 258-byte match costs at least two
/// bits, so c compressed bytes never inflate past kMaxInflateRatio * c.
constexpr size_t kMaxInflateRatio = 1032;

/// Writes [n_chunks varint] then per chunk [raw varint][comp varint][bytes].
Status CompressChunked(Slice input, BufferBuilder* out);

/// Reads the framing written by CompressChunked, inflates exactly
/// `raw_size` bytes into `out` (which must hold that many) and advances
/// the reader. `raw_size` is the size the caller's block header implies:
/// a chunk whose raw length would run past it is Corruption before it
/// is inflated, and so are chunks whose raw lengths sum short of it.
Status DecompressChunked(SliceReader* in, size_t raw_size, uint8_t* out);

}  // namespace deflate_util
}  // namespace bullion
