// Randomized round-trip and cross-tier property tests for the block
// codec rework (src/encoding/block_codec.h): for every int and double
// codec, over adversarial value distributions and block sizes,
//   decode(encode(v)) == v
// under every available kernel tier, the encoded bytes are identical
// byte-for-byte across tiers (the tier is an implementation detail,
// never a format variant), and corrupt inputs fail with Status rather
// than crashing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/float16.h"
#include "common/random.h"
#include "encoding/block_codec.h"
#include "encoding/cascade.h"
#include "encoding/cpu_dispatch.h"
#include "encoding/encoding.h"
#include "quant/quantize.h"

namespace bullion {
namespace {

// ---------------------------------------------------------------------------
// Generators: distributions chosen to stress specific kernel paths —
// wide values (width 64 packing), clustered (narrow widths), constant
// runs (RLE / constant), negatives (zigzag / FOR base), and extremes
// (INT64_MIN/MAX overflow edges in sub_base/add_base and zigzag).
// ---------------------------------------------------------------------------

std::vector<int64_t> GenFuzzData(const std::string& kind, size_t n,
                                 uint64_t seed) {
  Random rng(seed);
  std::vector<int64_t> v(n);
  if (kind == "uniform") {
    for (auto& x : v) x = static_cast<int64_t>(rng.Next());
  } else if (kind == "clustered") {
    int64_t base = rng.UniformRange(-1000000, 1000000);
    for (auto& x : v) x = base + rng.UniformRange(0, 255);
  } else if (kind == "constant_runs") {
    size_t i = 0;
    while (i < n) {
      int64_t cur = rng.UniformRange(-50, 50);
      size_t run = 1 + rng.Uniform(64);
      for (size_t k = 0; k < run && i < n; ++k) v[i++] = cur;
    }
  } else if (kind == "negatives") {
    for (auto& x : v) x = -static_cast<int64_t>(rng.Uniform(1u << 30));
  } else if (kind == "extremes") {
    const int64_t pool[] = {0,
                            1,
                            -1,
                            std::numeric_limits<int64_t>::max(),
                            std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max() - 1,
                            std::numeric_limits<int64_t>::min() + 1};
    for (auto& x : v) x = pool[rng.Uniform(7)];
  } else {  // "small"
    for (auto& x : v) x = rng.UniformRange(0, 9);
  }
  return v;
}

const char* kDistributions[] = {"uniform",   "clustered", "constant_runs",
                                "negatives", "extremes",  "small"};

// Sizes straddle the kernel block size (256), the packed miniblock
// size (128), the AVX2 lane width, and the empty/singleton edges.
const size_t kSizes[] = {0, 1, 3, 7, 127, 128, 129, 255, 256, 257, 1021};

const EncodingType kIntCodecs[] = {
    EncodingType::kTrivial,       EncodingType::kVarint,
    EncodingType::kZigZag,        EncodingType::kFixedBitWidth,
    EncodingType::kForDelta,      EncodingType::kDelta,
    EncodingType::kConstant,      EncodingType::kMainlyConstant,
    EncodingType::kRle,           EncodingType::kDictionary,
    EncodingType::kHuffman,       EncodingType::kFastPFor,
    EncodingType::kFastBP128,     EncodingType::kBitShuffle,
    EncodingType::kChunked,
};

std::vector<simd::SimdTier> AvailableTiers() {
  std::vector<simd::SimdTier> tiers = {simd::SimdTier::kScalar,
                                       simd::SimdTier::kSwar};
  if (simd::BestSupportedTier() >= simd::SimdTier::kAvx2) {
    tiers.push_back(simd::SimdTier::kAvx2);
  }
  return tiers;
}

/// Encodes `data` as `type` under `tier`; empty result means the codec
/// rejected the data (precondition like non-negativity) — callers skip.
std::optional<Buffer> EncodeUnder(EncodingType type,
                                  const std::vector<int64_t>& data,
                                  simd::SimdTier tier) {
  simd::ScopedSimdTierCap cap(tier);
  CascadeOptions opts;
  CascadeContext ctx(opts, 0);
  BufferBuilder out;
  Status st = EncodeIntBlockAs(type, data, &ctx, &out);
  if (!st.ok()) return std::nullopt;
  return out.Finish();
}

// ---------------------------------------------------------------------------
// Round-trip x cross-tier byte identity.
// ---------------------------------------------------------------------------

TEST(CodecFuzzTest, RoundTripAllCodecsAllTiersByteIdentical) {
  const std::vector<simd::SimdTier> tiers = AvailableTiers();
  uint64_t seed = 0xB10C;
  for (EncodingType type : kIntCodecs) {
    for (const char* kind : kDistributions) {
      for (size_t n : kSizes) {
        std::vector<int64_t> data = GenFuzzData(kind, n, seed++);
        std::optional<Buffer> reference =
            EncodeUnder(type, data, simd::SimdTier::kScalar);
        if (!reference.has_value()) continue;  // codec rejected this data
        for (simd::SimdTier tier : tiers) {
          SCOPED_TRACE(std::string(EncodingTypeName(type)) + "/" + kind +
                       "/n=" + std::to_string(n) + "/tier=" +
                       std::string(simd::SimdTierName(tier)));
          std::optional<Buffer> encoded = EncodeUnder(type, data, tier);
          ASSERT_TRUE(encoded.has_value());
          // On-disk bytes must not depend on the kernel tier.
          ASSERT_EQ(reference->size(), encoded->size());
          ASSERT_TRUE(reference->AsSlice() == encoded->AsSlice());

          simd::ScopedSimdTierCap cap(tier);
          std::vector<int64_t> decoded;
          SliceReader reader(encoded->AsSlice());
          ASSERT_TRUE(DecodeIntBlock(&reader, &decoded).ok());
          ASSERT_EQ(data, decoded);
        }
      }
    }
  }
}

TEST(CodecFuzzTest, DecodeIntoMatchesVectorOverload) {
  const std::vector<simd::SimdTier> tiers = AvailableTiers();
  uint64_t seed = 0x1D10;
  for (EncodingType type : kIntCodecs) {
    std::vector<int64_t> data = GenFuzzData("clustered", 777, seed++);
    std::optional<Buffer> encoded =
        EncodeUnder(type, data, simd::SimdTier::kScalar);
    if (!encoded.has_value()) continue;
    for (simd::SimdTier tier : tiers) {
      SCOPED_TRACE(std::string(EncodingTypeName(type)) + "/tier=" +
                   std::string(simd::SimdTierName(tier)));
      simd::ScopedSimdTierCap cap(tier);
      std::vector<int64_t> dst(data.size(), -99);
      SliceReader reader(encoded->AsSlice());
      ASSERT_TRUE(DecodeIntBlockInto(&reader, dst).ok());
      ASSERT_EQ(data, dst);
    }
  }
}

TEST(CodecFuzzTest, DecodeIntoRejectsCountMismatch) {
  std::vector<int64_t> data = GenFuzzData("clustered", 100, 1);
  std::optional<Buffer> encoded =
      EncodeUnder(EncodingType::kForDelta, data, simd::SimdTier::kScalar);
  ASSERT_TRUE(encoded.has_value());
  std::vector<int64_t> wrong(99);
  SliceReader reader(encoded->AsSlice());
  EXPECT_FALSE(DecodeIntBlockInto(&reader, wrong).ok());
}

// ---------------------------------------------------------------------------
// Double domain: the float columns of the ads table decode through
// BitShuffleSplit (older files through BitShuffle), so their bytes and
// bits get the same cross-tier checks.
// ---------------------------------------------------------------------------

double FromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

uint64_t ToBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

std::vector<double> GenFuzzDoubles(const std::string& kind, size_t n,
                                   uint64_t seed) {
  Random rng(seed);
  std::vector<double> v(n);
  if (kind == "uniform01") {
    for (auto& x : v) x = rng.NextDouble();
  } else if (kind == "tanh_gaussian") {  // the ads embeddings (§2.4)
    for (auto& x : v) x = std::tanh(rng.NextGaussian() * 0.5);
  } else {  // "specials"
    const double pool[] = {
        0.0,
        -0.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        FromBits(0x7FF8000000000000ull),  // quiet NaN
        FromBits(0xFFF80000DEADBEEFull),  // negative quiet NaN, payload
        FromBits(0x7FF0000000000001ull),  // signalling NaN, payload
        FromBits(0xFFF4000000C0FFEEull),  // negative signalling NaN
        std::numeric_limits<double>::denorm_min(),
        -FromBits(0x000FFFFFFFFFFFFFull),  // largest subnormal, negated
        DBL_MIN,
        DBL_MAX,
        -DBL_MAX,
    };
    for (auto& x : v) x = pool[rng.Uniform(sizeof(pool) / sizeof(pool[0]))];
  }
  return v;
}

const EncodingType kDoubleCodecs[] = {
    EncodingType::kTrivial,       EncodingType::kGorilla,
    EncodingType::kChimp,         EncodingType::kPseudodecimal,
    EncodingType::kAlp,           EncodingType::kBitShuffle,
    EncodingType::kChunked,       EncodingType::kBitShuffleSplit,
};

Buffer EncodeDoublesUnder(EncodingType type, const std::vector<double>& data,
                          simd::SimdTier tier) {
  simd::ScopedSimdTierCap cap(tier);
  CascadeOptions opts;
  CascadeContext ctx(opts, 0);
  BufferBuilder out;
  EXPECT_TRUE(EncodeDoubleBlockAs(type, data, &ctx, &out).ok());
  return out.Finish();
}

TEST(CodecFuzzTest, DoubleCodecsAllTiersByteIdenticalAndBitExact) {
  const std::vector<simd::SimdTier> tiers = AvailableTiers();
  uint64_t seed = 0xD0B1;
  for (EncodingType type : kDoubleCodecs) {
    for (const char* kind : {"uniform01", "tanh_gaussian", "specials"}) {
      for (size_t n : kSizes) {
        std::vector<double> data = GenFuzzDoubles(kind, n, seed++);
        Buffer reference =
            EncodeDoublesUnder(type, data, simd::SimdTier::kScalar);
        for (simd::SimdTier tier : tiers) {
          SCOPED_TRACE(std::string(EncodingTypeName(type)) + "/" + kind +
                       "/n=" + std::to_string(n) + "/tier=" +
                       std::string(simd::SimdTierName(tier)));
          Buffer encoded = EncodeDoublesUnder(type, data, tier);
          ASSERT_TRUE(reference.AsSlice() == encoded.AsSlice());

          simd::ScopedSimdTierCap cap(tier);
          std::vector<double> decoded;
          SliceReader reader(encoded.AsSlice());
          ASSERT_TRUE(DecodeDoubleBlock(&reader, &decoded).ok());
          ASSERT_EQ(decoded.size(), n);
          for (size_t i = 0; i < n; ++i) {
            // NaN != NaN: compare bit patterns.
            ASSERT_EQ(ToBits(data[i]), ToBits(decoded[i])) << "index " << i;
          }
        }
      }
    }
  }
}

TEST(CodecFuzzTest, BitShuffleSplitNeverOutgrowsBitShuffle) {
  // The split block keeps the smaller of its two variants, and the
  // all-deflated one is BitShuffle's stream minus its constant planes,
  // plus the 16-byte class map.
  uint64_t seed = 0x5B11;
  for (const char* kind : {"uniform01", "tanh_gaussian", "specials"}) {
    for (size_t n : kSizes) {
      SCOPED_TRACE(std::string(kind) + "/n=" + std::to_string(n));
      std::vector<double> data = GenFuzzDoubles(kind, n, seed++);
      Buffer shuffled = EncodeDoublesUnder(EncodingType::kBitShuffle, data,
                                           simd::ActiveSimdTier());
      Buffer split = EncodeDoublesUnder(EncodingType::kBitShuffleSplit, data,
                                        simd::ActiveSimdTier());
      EXPECT_LE(split.size(), shuffled.size() + 16);
    }
  }
}

// ---------------------------------------------------------------------------
// Corrupt-input fuzz: decoding must fail cleanly, never crash or read
// out of bounds, under every tier.
// ---------------------------------------------------------------------------

TEST(CodecFuzzTest, TruncatedBlocksFailCleanly) {
  const std::vector<simd::SimdTier> tiers = AvailableTiers();
  for (EncodingType type : kIntCodecs) {
    std::vector<int64_t> data = GenFuzzData("clustered", 200, 3);
    std::optional<Buffer> encoded =
        EncodeUnder(type, data, simd::SimdTier::kScalar);
    if (!encoded.has_value()) continue;
    Slice full = encoded->AsSlice();
    for (simd::SimdTier tier : tiers) {
      simd::ScopedSimdTierCap cap(tier);
      for (size_t cut = 0; cut < full.size();
           cut += std::max<size_t>(1, full.size() / 23)) {
        std::vector<int64_t> decoded;
        SliceReader reader(full.SubSlice(0, cut));
        // Either a clean Status error or (for cuts past the meaningful
        // payload) success; must not crash.
        DecodeIntBlock(&reader, &decoded).ok();
      }
    }
  }
}

TEST(CodecFuzzTest, ByteFlippedBlocksFailCleanly) {
  const std::vector<simd::SimdTier> tiers = AvailableTiers();
  Random rng(99);
  for (EncodingType type : kIntCodecs) {
    std::vector<int64_t> data = GenFuzzData("small", 150, 4);
    std::optional<Buffer> encoded =
        EncodeUnder(type, data, simd::SimdTier::kScalar);
    if (!encoded.has_value()) continue;
    Slice full = encoded->AsSlice();
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<uint8_t> corrupt(full.data(), full.data() + full.size());
      corrupt[rng.Uniform(corrupt.size())] ^=
          static_cast<uint8_t>(1u << rng.Uniform(8));
      for (simd::SimdTier tier : tiers) {
        simd::ScopedSimdTierCap cap(tier);
        std::vector<int64_t> decoded;
        SliceReader reader(Slice(corrupt.data(), corrupt.size()));
        DecodeIntBlock(&reader, &decoded).ok();  // must not crash
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Float16 kernels: quantized bits identical across tiers, including
// NaN payloads, infinities, denormals, and rounding edges.
// ---------------------------------------------------------------------------

TEST(CodecFuzzTest, Float16BitsIdenticalAcrossTiers) {
  std::vector<float> data;
  Random rng(7);
  for (int i = 0; i < 4099; ++i) {
    data.push_back(static_cast<float>(rng.NextGaussian() * 1e3));
  }
  const float specials[] = {
      0.0f,
      -0.0f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::denorm_min(),
      65504.0f,   // max finite half
      65520.0f,   // rounds to half inf
      6.1e-5f,    // near half denormal boundary
      5.96e-8f,   // half denorm_min neighborhood
  };
  data.insert(data.end(), std::begin(specials), std::end(specials));

  std::vector<int64_t> ref_bits;
  std::vector<float> ref_back;
  {
    simd::ScopedSimdTierCap cap(simd::SimdTier::kScalar);
    ref_bits = QuantizeFloats(data, FloatPrecision::kFp16);
    ref_back = DequantizeFloats(ref_bits, FloatPrecision::kFp16);
  }
  for (simd::SimdTier tier : AvailableTiers()) {
    SCOPED_TRACE(std::string(simd::SimdTierName(tier)));
    simd::ScopedSimdTierCap cap(tier);
    std::vector<int64_t> bits = QuantizeFloats(data, FloatPrecision::kFp16);
    ASSERT_EQ(ref_bits, bits);
    std::vector<float> back = DequantizeFloats(bits, FloatPrecision::kFp16);
    ASSERT_EQ(back.size(), ref_back.size());
    for (size_t i = 0; i < back.size(); ++i) {
      // NaNs compare unequal; require bit equality instead.
      uint32_t a, b;
      std::memcpy(&a, &back[i], 4);
      std::memcpy(&b, &ref_back[i], 4);
      ASSERT_EQ(a, b) << "index " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Raw kernel properties: pack/unpack inverse at every width, and the
// tier override machinery itself.
// ---------------------------------------------------------------------------

TEST(CodecFuzzTest, PackUnpackInverseAtEveryWidth) {
  Random rng(13);
  const std::vector<simd::SimdTier> tiers = AvailableTiers();
  for (int width = 0; width <= 64; ++width) {
    const size_t n = blockcodec::kBlockValues + 13;  // non-lane-multiple
    uint64_t mask = width == 64 ? ~0ull : ((1ull << width) - 1);
    std::vector<uint64_t> values(n);
    for (auto& x : values) x = rng.Next() & mask;
    const size_t bytes = (n * static_cast<size_t>(width) + 7) / 8;

    std::vector<uint8_t> ref_packed(bytes, 0);
    blockcodec::KernelsForTier(simd::SimdTier::kScalar)
        .pack_bits(values.data(), n, width, ref_packed.data());

    for (simd::SimdTier tier : tiers) {
      SCOPED_TRACE("width=" + std::to_string(width) + " tier=" +
                   std::string(simd::SimdTierName(tier)));
      const blockcodec::Kernels& k = blockcodec::KernelsForTier(tier);
      std::vector<uint8_t> packed(bytes, 0);
      k.pack_bits(values.data(), n, width, packed.data());
      ASSERT_EQ(ref_packed, packed);
      std::vector<uint64_t> unpacked(n, ~0ull);
      k.unpack_bits(packed.data(), packed.size(), n, width, unpacked.data());
      ASSERT_EQ(values, unpacked);
    }
  }
}

TEST(CodecFuzzTest, BitTransposeMatchesScalarAtEveryLength) {
  Random rng(17);
  const blockcodec::Kernels& scalar =
      blockcodec::KernelsForTier(simd::SimdTier::kScalar);
  for (size_t n = 0; n <= 300; ++n) {
    std::vector<uint64_t> values(n);
    for (auto& x : values) x = rng.Next();
    const size_t plane_bytes = (n + 7) / 8;
    std::vector<uint8_t> ref_planes(blockcodec::BitPlaneBytes(n));
    scalar.transpose_bits(values.data(), n, ref_planes.data());

    // The same planes with every pad bit set, which decode must ignore.
    std::vector<uint8_t> padded = ref_planes;
    if (n % 8 != 0) {
      const uint8_t pad = static_cast<uint8_t>(0xFF << (n % 8));
      for (size_t b = 0; b < 64; ++b) {
        padded[b * plane_bytes + plane_bytes - 1] |= pad;
      }
    }
    std::vector<uint64_t> ref_values(n + 1, 0xA5A5A5A5A5A5A5A5ull);
    scalar.untranspose_bits(padded.data(), n, ref_values.data());

    for (simd::SimdTier tier : AvailableTiers()) {
      SCOPED_TRACE("n=" + std::to_string(n) + " tier=" +
                   std::string(simd::SimdTierName(tier)));
      const blockcodec::Kernels& k = blockcodec::KernelsForTier(tier);
      // Pre-filled with ones: the kernel must write every plane byte.
      std::vector<uint8_t> planes(ref_planes.size(), 0xFF);
      k.transpose_bits(values.data(), n, planes.data());
      ASSERT_EQ(ref_planes, planes);

      std::vector<uint64_t> out(n + 1, 0xA5A5A5A5A5A5A5A5ull);
      k.untranspose_bits(padded.data(), n, out.data());
      ASSERT_EQ(ref_values, out);
      ASSERT_TRUE(std::equal(values.begin(), values.end(), out.begin()));
      ASSERT_EQ(out[n], 0xA5A5A5A5A5A5A5A5ull);  // nothing past out[n)
    }
  }
}

TEST(CodecFuzzTest, ScopedTierCapRestoresActiveTier) {
  simd::SimdTier before = simd::ActiveSimdTier();
  {
    simd::ScopedSimdTierCap cap(simd::SimdTier::kScalar);
    EXPECT_EQ(simd::ActiveSimdTier(), simd::SimdTier::kScalar);
  }
  EXPECT_EQ(simd::ActiveSimdTier(), before);
}

}  // namespace
}  // namespace bullion
