// Fixed-block vectorized encode/decode kernels behind the integer and
// float16 codecs (PISA block_codec-shaped: N values per call into
// caller-preallocated output; see src/encoding/README.md for the wire
// layout, the dispatch tiers, and how to add a kernel).
//
// The unit of work is a *block* of up to kBlockValues values. Because
// kBlockValues is a multiple of 8, every block of a fixed-bit-width
// stream starts byte-aligned, so blocks decode independently and a
// kernel never straddles a block boundary. All kernels operate on the
// LEGACY wire layout — LSB-first horizontal bit packing, LEB128
// varints — and every tier produces byte-identical output; the tier
// only changes how fast the same bytes are produced/consumed.
//
// Kernels write into caller-preallocated memory (no push_back growth)
// and are selected once per call through a flat function-pointer table
// (no per-value virtual or branchy dispatch).

#pragma once

#include <cstddef>
#include <cstdint>

#include "encoding/cpu_dispatch.h"

namespace bullion {
namespace blockcodec {

/// Fixed block size of the kernel interface: callers may pass any
/// n <= column size to one call, but codecs that frame their payload
/// (FastBP128/FastPFor keep their on-disk 128) and the bench/tests use
/// this as the canonical unit.
constexpr size_t kBlockValues = 256;

/// \brief Flat kernel table for one SIMD tier.
///
/// All pointers are non-null for every tier. Aliasing contract: the
/// element-wise transforms (add_base, zigzag_*) permit in == out; the
/// packing kernels require distinct buffers.
struct Kernels {
  simd::SimdTier tier;

  /// Unpacks `n` values of `width` (0..64) bits each from the LSB-first
  /// bitstream at `in` (in_bytes readable) into out[0..n). Reads never
  /// touch bytes at or beyond in + in_bytes.
  void (*unpack_bits)(const uint8_t* in, size_t in_bytes, size_t n,
                      int width, uint64_t* out);

  /// Packs values[0..n) at `width` bits each (LSB-first) into `out`,
  /// which must hold RoundUpToBytes(n * width) bytes, pre-zeroed.
  void (*pack_bits)(const uint64_t* values, size_t n, int width,
                    uint8_t* out);

  /// Frame-of-reference reconstruction: inout[i] = base + inout[i],
  /// where inout holds unsigned offsets (two's-complement wraparound).
  void (*add_base)(int64_t base, size_t n, int64_t* inout);

  /// Frame-of-reference offsets: out[i] = in[i] - base (unsigned math).
  void (*sub_base)(const int64_t* in, int64_t base, size_t n,
                   uint64_t* out);

  /// out[i] = ZigZagEncode(in[i]); in == out allowed.
  void (*zigzag_encode)(const int64_t* in, size_t n, uint64_t* out);

  /// out[i] = ZigZagDecode(in[i]); in == out allowed.
  void (*zigzag_decode)(const uint64_t* in, size_t n, int64_t* out);

  /// Decodes `n` LEB128 varints from in[0..in_bytes) into out[0..n).
  /// Returns bytes consumed, or SIZE_MAX on truncated/overlong input.
  size_t (*varint_decode)(const uint8_t* in, size_t in_bytes, size_t n,
                          uint64_t* out);

  /// Batch IEEE binary16 conversions, bit-identical to
  /// Float16::FromFloat / Float16::ToFloat (common/float16.h),
  /// including the canonical quiet-NaN patterns.
  void (*f16_encode)(const float* in, size_t n, uint16_t* out);
  void (*f16_decode)(const uint16_t* in, size_t n, float* out);

  /// BitShuffle's bit-plane transpose of in[0..n) into the
  /// BitPlaneBytes(n) bytes at `planes`: bit b of value i is bit i % 8
  /// of planes[b * ceil(n/8) + i / 8]. Writes every plane byte; the pad
  /// bits of each plane's last byte are zero.
  void (*transpose_bits)(const uint64_t* in, size_t n, uint8_t* planes);

  /// Inverse of transpose_bits: reads BitPlaneBytes(n) bytes, ignores
  /// the pad bits, and writes exactly out[0..n).
  void (*untranspose_bits)(const uint8_t* planes, size_t n, uint64_t* out);
};

/// Size of the bit-plane image of n 64-bit values: 64 planes of
/// ceil(n/8) bytes each.
constexpr size_t BitPlaneBytes(size_t n) { return 64 * ((n + 7) / 8); }

/// Kernels for the active tier (cpu_dispatch.h). Cheap: one relaxed
/// atomic load plus a table index; fetch once per block or per column.
const Kernels& ActiveKernels();

/// Kernels for a specific tier, clamped to BestSupportedTier(). Used by
/// cross-check tests and the tier-comparison bench.
const Kernels& KernelsForTier(simd::SimdTier tier);

/// One-time self-check of the AVX2/F16C kernels against the scalar
/// reference on probe inputs (specials included). Returns false when
/// the build has no x86 kernels or the probe finds any divergence —
/// in which case dispatch never hands out the AVX2 tier.
bool AvxKernelsUsable();

}  // namespace blockcodec
}  // namespace bullion
