// Payload-level integer codecs (Table 2). Each Encode* writes only the
// encoding-specific payload; the standard block header is written by
// EncodeIntBlockAs (cascade.cc). Each Decode* receives the reader
// positioned at the payload and the value count from the header.
//
// Codecs that contain child streams take a CascadeContext and encode
// children through it (recursion with depth accounting).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"

namespace bullion {

class CascadeContext;

namespace intcodec {

// kTrivial: raw 8-byte little-endian values.
Status EncodeTrivial(std::span<const int64_t> v, BufferBuilder* out);

// kVarint: LEB128 per value. Requires non-negative input. The layout is
// in-place maskable: zeroing the low 7 bits of each byte of a value
// erases it without moving neighbours (§2.1).
Status EncodeVarint(std::span<const int64_t> v, BufferBuilder* out);

// kZigZag: LEB128 of zigzag(v); handles negatives.
Status EncodeZigZag(std::span<const int64_t> v, BufferBuilder* out);

// kFixedBitWidth: [width:u8][LSB-first packed values]. Requires
// non-negative input; random-accessible and maskable.
Status EncodeFixedBitWidth(std::span<const int64_t> v, BufferBuilder* out);

// kForDelta: [base: zigzag varint][width:u8][packed (v - base)].
// Frame-of-reference; random-accessible and maskable.
Status EncodeForDelta(std::span<const int64_t> v, BufferBuilder* out);

// kDelta: [first: zigzag varint][child: zigzag'd consecutive deltas].
Status EncodeDelta(std::span<const int64_t> v, CascadeContext* ctx,
                   BufferBuilder* out);

// kConstant: [value: zigzag varint].
Status EncodeConstant(std::span<const int64_t> v, BufferBuilder* out);

// kMainlyConstant: [constant][n_exc][positions child][values child].
Status EncodeMainlyConstant(std::span<const int64_t> v, CascadeContext* ctx,
                            BufferBuilder* out);

// kRle: [run values child][run lengths child].
Status EncodeRle(std::span<const int64_t> v, CascadeContext* ctx,
                 BufferBuilder* out);

// kDictionary: [has_mask][n_entries][entries child][codes child].
// Entries are the sorted distinct values; codes index them. has_mask = 1
// makes code 0 a reserved deletion-mask slot (§2.1) shifting real codes
// by 1; only deletable pages write it (format/page.cc).
Status EncodeDictionary(std::span<const int64_t> v, CascadeContext* ctx,
                        BufferBuilder* out);

// kSentinel: [sentinel: zigzag varint][values child]. Encodes nullable
// data in one stream by mapping nulls to an unused value.
Status EncodeSentinel(std::span<const int64_t> v,
                      std::span<const uint8_t> validity, int64_t sentinel,
                      CascadeContext* ctx, BufferBuilder* out);
Status DecodeSentinel(SliceReader* in, size_t n, std::vector<int64_t>* out,
                      std::vector<uint8_t>* validity);

// kNullable: [validity bool child][dense non-null values child].
Status EncodeNullable(std::span<const int64_t> v,
                      std::span<const uint8_t> validity, CascadeContext* ctx,
                      BufferBuilder* out);
Status DecodeNullable(SliceReader* in, size_t n, int64_t null_fill,
                      std::vector<int64_t>* out,
                      std::vector<uint8_t>* validity);

// kHuffman: canonical Huffman over the distinct-value alphabet.
// Requires a small alphabet (<= kMaxAlphabet distinct values).
constexpr size_t kMaxHuffmanAlphabet = 4096;
Status EncodeHuffman(std::span<const int64_t> v, BufferBuilder* out);

// kFastPFor: 128-value miniblocks, per-block FOR + bit packing with
// patched exceptions (top ~1/8 outliers stored separately).
Status EncodeFastPFor(std::span<const int64_t> v, BufferBuilder* out);

// kFastBP128: per-128-block FOR + bit packing, no exceptions.
Status EncodeFastBP128(std::span<const int64_t> v, BufferBuilder* out);

// kBitShuffle: bit-plane transpose of the 64-bit values
// (blockcodec::Kernels::transpose_bits), then the planes are deflated in
// the Chunked framing. (Bitshuffle is conventionally paired with a
// byte-level compressor.)
Status EncodeBitShuffle(std::span<const int64_t> v, BufferBuilder* out);

// kChunked: deflate over 256 KiB chunks of the raw value bytes.
Status EncodeChunked(std::span<const int64_t> v, BufferBuilder* out);

// ---------------------------------------------------------------------------
// Decoders (encoding/block_codec.h): each writes exactly `n` values into
// caller-preallocated out[0..n) — no clear / reserve / push_back growth
// on the decode path. The cascade's block dispatch (DecodeIntBlock and
// friends in cascade.h) sizes the destination once from the block
// header and calls these.
// ---------------------------------------------------------------------------

Status DecodeTrivialInto(SliceReader* in, size_t n, int64_t* out);
Status DecodeVarintInto(SliceReader* in, size_t n, int64_t* out);
Status DecodeZigZagInto(SliceReader* in, size_t n, int64_t* out);
Status DecodeFixedBitWidthInto(SliceReader* in, size_t n, int64_t* out);
Status DecodeForDeltaInto(SliceReader* in, size_t n, int64_t* out);
Status DecodeDeltaInto(SliceReader* in, size_t n, int64_t* out);
Status DecodeConstantInto(SliceReader* in, size_t n, int64_t* out);
Status DecodeMainlyConstantInto(SliceReader* in, size_t n, int64_t* out);
Status DecodeRleInto(SliceReader* in, size_t n, int64_t* out);
Status DecodeDictionaryInto(SliceReader* in, size_t n, int64_t* out);
Status DecodeHuffmanInto(SliceReader* in, size_t n, int64_t* out);
Status DecodeFastPForInto(SliceReader* in, size_t n, int64_t* out);
Status DecodeFastBP128Into(SliceReader* in, size_t n, int64_t* out);
Status DecodeBitShuffleInto(SliceReader* in, size_t n, int64_t* out);
Status DecodeChunkedInto(SliceReader* in, size_t n, int64_t* out);

}  // namespace intcodec
}  // namespace bullion
