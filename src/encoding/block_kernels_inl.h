// Internal: inline scalar and SWAR kernel bodies shared by the dispatch
// tables (block_codec.cc) and the AVX2 kernels (simd_kernels.cc), which
// reuse the SWAR range variants for block tails. Not part of the public
// encoding API — include block_codec.h instead.
//
// Preconditions common to the packing kernels:
//   - 0 <= width <= 64 (width 0 means every value is 0)
//   - unpack: in_bytes >= RoundUpToBytes(n * width); no byte at or
//     beyond in + in_bytes is ever read
//   - pack: out holds RoundUpToBytes(n * width) pre-zeroed bytes

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/float16.h"

namespace bullion {
namespace blockcodec {
namespace detail {

inline uint64_t WidthMask(int width) {
  return width >= 64 ? ~0ull : ((1ull << width) - 1);
}

inline uint64_t LoadLE64(const uint8_t* p) {
  uint64_t w;
  std::memcpy(&w, p, 8);
  return w;
}

/// Loads the final `avail` (< 8) bytes of a buffer, zero-extended.
inline uint64_t LoadLETail(const uint8_t* p, size_t avail) {
  uint64_t w = 0;
  std::memcpy(&w, p, avail);
  return w;
}

// ---------------------------------------------------------------------------
// Scalar tier: bit-at-a-time reference loops (the pre-rework code from
// common/bit_util.cc, kept verbatim as the always-correct baseline all
// other tiers are cross-checked against).
// ---------------------------------------------------------------------------

inline void UnpackBitsScalar(const uint8_t* in, size_t /*in_bytes*/,
                             size_t n, int width, uint64_t* out) {
  size_t bit_pos = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = 0;
    for (int b = 0; b < width; ++b) {
      uint64_t bit = (in[bit_pos >> 3] >> (bit_pos & 7)) & 1;
      v |= bit << b;
      ++bit_pos;
    }
    out[i] = v;
  }
}

inline void PackBitsScalar(const uint64_t* values, size_t n, int width,
                           uint8_t* out) {
  size_t bit_pos = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = values[i];
    for (int b = 0; b < width; ++b) {
      if ((v >> b) & 1) {
        out[bit_pos >> 3] |= static_cast<uint8_t>(1u << (bit_pos & 7));
      }
      ++bit_pos;
    }
  }
}

inline size_t VarintDecodeScalar(const uint8_t* in, size_t in_bytes,
                                 size_t n, uint64_t* out) {
  size_t pos = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos >= in_bytes || shift >= 70) return SIZE_MAX;
      uint8_t byte = in[pos++];
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    out[i] = v;
  }
  return pos;
}

inline void AddBaseScalar(int64_t base, size_t n, int64_t* inout) {
  for (size_t i = 0; i < n; ++i) {
    inout[i] = static_cast<int64_t>(static_cast<uint64_t>(base) +
                                    static_cast<uint64_t>(inout[i]));
  }
}

inline void SubBaseScalar(const int64_t* in, int64_t base, size_t n,
                          uint64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint64_t>(in[i]) - static_cast<uint64_t>(base);
  }
}

inline void ZigZagEncodeScalar(const int64_t* in, size_t n, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = (static_cast<uint64_t>(in[i]) << 1) ^
             static_cast<uint64_t>(in[i] >> 63);
  }
}

inline void ZigZagDecodeScalar(const uint64_t* in, size_t n, int64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<int64_t>((in[i] >> 1) ^ (~(in[i] & 1) + 1));
  }
}

inline void F16EncodeScalar(const float* in, size_t n, uint16_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = Float16::FromFloat(in[i]).bits();
}

inline void F16DecodeScalar(const uint16_t* in, size_t n, float* out) {
  for (size_t i = 0; i < n; ++i) out[i] = Float16::FromBits(in[i]).ToFloat();
}

// BitShuffle's bit-plane transpose (layout: Kernels::transpose_bits):
// the codecs' original bit-at-a-time loops.

inline void TransposeBitsScalar(const uint64_t* in, size_t n,
                                uint8_t* planes) {
  const size_t plane_bytes = (n + 7) / 8;
  std::fill_n(planes, plane_bytes * 64, 0);
  for (size_t i = 0; i < n; ++i) {
    uint64_t x = in[i];
    for (int b = 0; b < 64; ++b) {
      if ((x >> b) & 1) {
        planes[static_cast<size_t>(b) * plane_bytes + (i >> 3)] |=
            static_cast<uint8_t>(1u << (i & 7));
      }
    }
  }
}

inline void UntransposeBitsScalar(const uint8_t* planes, size_t n,
                                  uint64_t* out) {
  const size_t plane_bytes = (n + 7) / 8;
  std::fill_n(out, n, 0);
  for (int b = 0; b < 64; ++b) {
    const uint8_t* plane = planes + static_cast<size_t>(b) * plane_bytes;
    for (size_t i = 0; i < n; ++i) {
      if ((plane[i >> 3] >> (i & 7)) & 1) out[i] |= 1ull << b;
    }
  }
}

// ---------------------------------------------------------------------------
// SWAR tier: portable word-at-a-time kernels. The range variants take a
// first-value index so a vector kernel can hand its unaligned tail off
// mid-stream.
// ---------------------------------------------------------------------------

inline void UnpackBitsSwarRange(const uint8_t* in, size_t in_bytes,
                                size_t first, size_t n, int width,
                                uint64_t* out) {
  if (width == 0) {
    std::fill(out, out + n, 0);
    return;
  }
  const uint64_t mask = WidthMask(width);
  size_t bit = first * static_cast<size_t>(width);
  for (size_t i = 0; i < n; ++i, bit += static_cast<size_t>(width)) {
    size_t byte = bit >> 3;
    unsigned shift = static_cast<unsigned>(bit & 7);
    uint64_t v;
    if (byte + 8 <= in_bytes) {
      v = LoadLE64(in + byte) >> shift;
      unsigned got = 64 - shift;
      if (got < static_cast<unsigned>(width)) {
        uint64_t next = (byte + 16 <= in_bytes)
                            ? LoadLE64(in + byte + 8)
                            : LoadLETail(in + byte + 8, in_bytes - byte - 8);
        v |= next << got;
      }
    } else {
      // Final bytes: the layout precondition guarantees they cover the
      // remaining widths.
      v = LoadLETail(in + byte, in_bytes - byte) >> shift;
    }
    out[i] = v & mask;
  }
}

inline void UnpackBitsSwar(const uint8_t* in, size_t in_bytes, size_t n,
                           int width, uint64_t* out) {
  UnpackBitsSwarRange(in, in_bytes, 0, n, width, out);
}

inline void PackBitsSwar(const uint64_t* values, size_t n, int width,
                         uint8_t* out) {
  if (width == 0) return;
  const uint64_t mask = WidthMask(width);
  const size_t out_bytes = (n * static_cast<size_t>(width) + 7) / 8;
  size_t bit = 0;
  for (size_t i = 0; i < n; ++i, bit += static_cast<size_t>(width)) {
    uint64_t v = values[i] & mask;
    size_t byte = bit >> 3;
    unsigned shift = static_cast<unsigned>(bit & 7);
    uint64_t lo = v << shift;
    uint64_t hi = shift == 0 ? 0 : (v >> (64 - shift));
    if (byte + 16 <= out_bytes) {
      uint64_t w = LoadLE64(out + byte) | lo;
      std::memcpy(out + byte, &w, 8);
      w = LoadLE64(out + byte + 8) | hi;
      std::memcpy(out + byte + 8, &w, 8);
    } else {
      uint8_t tmp[16];
      std::memcpy(tmp, &lo, 8);
      std::memcpy(tmp + 8, &hi, 8);
      size_t lim = std::min<size_t>(out_bytes - byte, 16);
      for (size_t b = 0; b < lim; ++b) out[byte + b] |= tmp[b];
    }
  }
}

inline size_t VarintDecodeSwar(const uint8_t* in, size_t in_bytes, size_t n,
                               uint64_t* out) {
  size_t pos = 0;
  size_t i = 0;
  while (i < n) {
    // Fast path: 8 pending single-byte varints decode from one word.
    if (pos + 8 <= in_bytes && i + 8 <= n) {
      uint64_t w = LoadLE64(in + pos);
      if ((w & 0x8080808080808080ull) == 0) {
        for (int k = 0; k < 8; ++k) out[i + k] = (w >> (8 * k)) & 0xFF;
        pos += 8;
        i += 8;
        continue;
      }
    }
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos >= in_bytes || shift >= 70) return SIZE_MAX;
      uint8_t byte = in[pos++];
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    out[i++] = v;
  }
  return pos;
}

/// Transposes the 8x8 bit matrix whose row r is byte r of `x`: bit
/// 8r+c trades places with bit 8c+r (Hacker's Delight §7-3).
inline uint64_t Transpose8x8Bits(uint64_t x) {
  uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
  x ^= t ^ (t << 28);
  return x;
}

/// Swaps the high `shift`-bit half of every 2*shift-bit unit of `upper`
/// with the low half of the same unit of `lower`.
inline void SwapBlockHalves(uint64_t& upper, uint64_t& lower,
                            unsigned shift, uint64_t low_halves) {
  const uint64_t t = ((upper >> shift) ^ lower) & low_halves;
  lower ^= t;
  upper ^= t << shift;
}

/// Transposes the 8x8 byte matrix whose row r is w[r]: byte c of w[r]
/// trades places with byte r of w[c]. Each pass swaps the off-diagonal
/// blocks of every 2x2, then 4x4, then 8x8 block.
inline void Transpose8x8Bytes(uint64_t* w) {
  for (size_t r = 0; r < 8; r += 2) {
    SwapBlockHalves(w[r], w[r + 1], 8, 0x00FF00FF00FF00FFull);
  }
  for (size_t r : {0, 1, 4, 5}) {
    SwapBlockHalves(w[r], w[r + 2], 16, 0x0000FFFF0000FFFFull);
  }
  for (size_t r = 0; r < 4; ++r) {
    SwapBlockHalves(w[r], w[r + 4], 32, 0x00000000FFFFFFFFull);
  }
}

/// One group of up to 8 values (`count`) at group index g: byte B of
/// every value becomes one 8x8 bit matrix, whose rows after the
/// transpose are planes 8B..8B+7.
inline void TransposeBitsGroup(const uint64_t* in, size_t count,
                               size_t plane_bytes, size_t g,
                               uint8_t* planes) {
  uint64_t w[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::memcpy(w, in, count * 8);
  Transpose8x8Bytes(w);  // w[B] byte j = byte B of value j
  for (size_t byte = 0; byte < 8; ++byte) {
    const uint64_t rows = Transpose8x8Bits(w[byte]);
    uint8_t* dst = planes + 8 * byte * plane_bytes + g;
    for (size_t k = 0; k < 8; ++k) {
      dst[k * plane_bytes] = static_cast<uint8_t>(rows >> (8 * k));
    }
  }
}

inline void UntransposeBitsGroup(const uint8_t* planes, size_t plane_bytes,
                                 size_t g, size_t count, uint64_t* out) {
  uint64_t w[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (size_t byte = 0; byte < 8; ++byte) {
    const uint8_t* src = planes + 8 * byte * plane_bytes + g;
    uint64_t rows = 0;
    for (size_t k = 0; k < 8; ++k) {
      rows |= static_cast<uint64_t>(src[k * plane_bytes]) << (8 * k);
    }
    w[byte] = Transpose8x8Bits(rows);
  }
  Transpose8x8Bytes(w);  // w[j] = value j
  std::memcpy(out, w, count * 8);
}

inline void TransposeBitsSwar(const uint64_t* in, size_t n,
                              uint8_t* planes) {
  const size_t plane_bytes = (n + 7) / 8;
  const size_t full = n / 8;
  for (size_t g = 0; g < full; ++g) {
    TransposeBitsGroup(in + 8 * g, 8, plane_bytes, g, planes);
  }
  if (full < plane_bytes) {
    TransposeBitsGroup(in + 8 * full, n - 8 * full, plane_bytes, full,
                       planes);
  }
}

inline void UntransposeBitsSwar(const uint8_t* planes, size_t n,
                                uint64_t* out) {
  const size_t plane_bytes = (n + 7) / 8;
  const size_t full = n / 8;
  for (size_t g = 0; g < full; ++g) {
    UntransposeBitsGroup(planes, plane_bytes, g, 8, out + 8 * g);
  }
  if (full < plane_bytes) {
    UntransposeBitsGroup(planes, plane_bytes, full, n - 8 * full,
                         out + 8 * full);
  }
}

}  // namespace detail
}  // namespace blockcodec
}  // namespace bullion
