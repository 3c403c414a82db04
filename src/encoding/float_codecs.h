// Payload-level floating-point codecs (double domain). float32 columns
// are widened to double (exact) by the format layer before entering
// this domain; quantized fp16/bf16/fp8 columns travel through the int
// domain as bit patterns instead.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"

namespace bullion {

class CascadeContext;

namespace floatcodec {

// kTrivial: raw IEEE754 bytes.
Status EncodeTrivial(std::span<const double> v, BufferBuilder* out);
Status DecodeTrivial(SliceReader* in, size_t n, std::vector<double>* out);

// kGorilla: XOR-with-previous, leading/trailing-zero windows
// (Facebook Gorilla §4.1 layout: '0' identical, '10' reuse window,
// '11' new window with 5-bit leading count + 6-bit length).
Status EncodeGorilla(std::span<const double> v, BufferBuilder* out);
Status DecodeGorilla(SliceReader* in, size_t n, std::vector<double>* out);

// kChimp: Chimp-style variant: leading-zero counts quantized to a
// 3-bit table, flag scheme favouring short significands.
Status EncodeChimp(std::span<const double> v, BufferBuilder* out);
Status DecodeChimp(SliceReader* in, size_t n, std::vector<double>* out);

// kPseudodecimal: per value, decimal (mantissa, exponent) split with
// raw-double exceptions (BtrBlocks-style).
Status EncodePseudodecimal(std::span<const double> v, BufferBuilder* out);
Status DecodePseudodecimal(SliceReader* in, size_t n,
                           std::vector<double>* out);

// kAlp: column-level best decimal exponent; mantissas as an int child
// block, exceptions patched (ALP-style "enhanced pseudodecimal").
Status EncodeAlp(std::span<const double> v, CascadeContext* ctx,
                 BufferBuilder* out);
Status DecodeAlp(SliceReader* in, size_t n, std::vector<double>* out);

// kChunked: deflate of the raw bytes.
Status EncodeChunked(std::span<const double> v, BufferBuilder* out);
Status DecodeChunked(SliceReader* in, size_t n, std::vector<double>* out);

// kBitShuffle: bit-plane transpose + deflate (same transform as the int
// domain, applied to the IEEE754 bit patterns). Decode-only for
// doubles: the cascade writes kBitShuffleSplit instead, and the encoder
// stays to write the blocks the compatibility tests decode.
Status EncodeBitShuffle(std::span<const double> v, BufferBuilder* out);
Status DecodeBitShuffle(SliceReader* in, size_t n, std::vector<double>* out);

// kBitShuffleSplit: BitShuffle's 64 planes, each stored by class.
//   [class map: 16 bytes, plane p at bits 2*(p%4) of byte p/4]
//   [raw planes, plane order, ceil(n/8) bytes each]
//   [one Chunked stream of the deflated planes, if there are any]
// Classes: 0 = every value bit 0, 1 = every value bit 1, 2 = raw,
// 3 = deflated. A non-constant plane is raw when its set-bit density
// lies strictly inside (0.4, 0.6): deflate barely shrinks such planes
// and inflating them dominated decode. The encoder also builds the
// variant that deflates every non-constant plane and keeps the smaller.
Status EncodeBitShuffleSplit(std::span<const double> v, BufferBuilder* out);
Status DecodeBitShuffleSplit(SliceReader* in, size_t n,
                             std::vector<double>* out);

/// Finds the best decimal exponent for ALP on a sample; returns the
/// fraction of values that round-trip at that exponent.
double ProbeDecimalExponent(std::span<const double> v, int* best_exponent);

}  // namespace floatcodec
}  // namespace bullion
