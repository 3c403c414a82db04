// Round-trip and property tests for every codec in the cascading
// encoding framework (Table 2 catalog).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include "common/random.h"
#include "common/varint.h"
#include "encoding/cascade.h"
#include "encoding/deflate_util.h"
#include "encoding/encoding.h"
#include "encoding/stats.h"

namespace bullion {
namespace {

// ---------------------------------------------------------------------------
// Data generators for the parameterized round-trip sweeps.
// ---------------------------------------------------------------------------

std::vector<int64_t> GenIntData(const std::string& kind, size_t n,
                                uint64_t seed) {
  Random rng(seed);
  std::vector<int64_t> v(n);
  if (kind == "constant") {
    std::fill(v.begin(), v.end(), 42);
  } else if (kind == "mainly_constant") {
    for (auto& x : v) x = rng.Bernoulli(0.05) ? rng.UniformRange(0, 1000) : 7;
  } else if (kind == "sorted") {
    int64_t cur = -500;
    for (auto& x : v) {
      cur += rng.UniformRange(0, 10);
      x = cur;
    }
  } else if (kind == "runs") {
    int64_t cur = 0;
    size_t i = 0;
    while (i < n) {
      cur = rng.UniformRange(-100, 100);
      size_t run = 1 + rng.Uniform(20);
      for (size_t k = 0; k < run && i < n; ++k) v[i++] = cur;
    }
  } else if (kind == "low_cardinality") {
    for (auto& x : v) x = rng.UniformRange(0, 15);
  } else if (kind == "zipf_ids") {
    for (auto& x : v) {
      double u = rng.NextDouble();
      x = static_cast<int64_t>(1000000.0 * std::pow(u, 4.0));
    }
  } else if (kind == "uniform_small") {
    for (auto& x : v) x = rng.UniformRange(0, 1000);
  } else if (kind == "uniform_wide") {
    for (auto& x : v) x = static_cast<int64_t>(rng.Next());
  } else if (kind == "negatives") {
    for (auto& x : v) x = rng.UniformRange(-1000000, 1000000);
  } else if (kind == "timestamps") {
    int64_t t = 1700000000000000;
    for (auto& x : v) {
      t += rng.UniformRange(1, 1000);
      x = t;
    }
  } else if (kind == "extremes") {
    for (size_t i = 0; i < n; ++i) {
      switch (i % 4) {
        case 0: v[i] = INT64_MIN; break;
        case 1: v[i] = INT64_MAX; break;
        case 2: v[i] = 0; break;
        case 3: v[i] = -1; break;
      }
    }
  }
  return v;
}

// All int encodings that should round-trip any int64 input.
const EncodingType kUniversalIntEncodings[] = {
    EncodingType::kTrivial,    EncodingType::kZigZag,
    EncodingType::kDelta,      EncodingType::kForDelta,
    EncodingType::kRle,        EncodingType::kDictionary,
    EncodingType::kFastPFor,   EncodingType::kFastBP128,
    EncodingType::kBitShuffle, EncodingType::kChunked,
    EncodingType::kMainlyConstant,
};

struct IntCase {
  std::string kind;
  size_t n;
};

class IntRoundTrip : public ::testing::TestWithParam<IntCase> {};

TEST_P(IntRoundTrip, AllUniversalEncodings) {
  const IntCase& c = GetParam();
  std::vector<int64_t> data = GenIntData(c.kind, c.n, 1234);
  CascadeOptions opts;
  for (EncodingType t : kUniversalIntEncodings) {
    CascadeContext ctx(opts, 0);
    BufferBuilder out;
    Status st = EncodeIntBlockAs(t, data, &ctx, &out);
    ASSERT_TRUE(st.ok()) << EncodingTypeName(t) << ": " << st.ToString();
    Buffer buf = out.Finish();
    std::vector<int64_t> decoded;
    SliceReader reader(buf.AsSlice());
    st = DecodeIntBlock(&reader, &decoded);
    ASSERT_TRUE(st.ok()) << EncodingTypeName(t) << ": " << st.ToString();
    EXPECT_EQ(decoded, data) << EncodingTypeName(t) << " on " << c.kind;
    EXPECT_EQ(reader.remaining(), 0u)
        << EncodingTypeName(t) << " left trailing bytes on " << c.kind;
  }
}

TEST_P(IntRoundTrip, CascadeSelectsAndRoundTrips) {
  const IntCase& c = GetParam();
  std::vector<int64_t> data = GenIntData(c.kind, c.n, 99);
  CascadeOptions opts;
  EncodingType chosen = EncodingType::kNumEncodings;
  auto res = EncodeInt64Column(data, opts, &chosen);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  std::vector<int64_t> decoded;
  ASSERT_TRUE(DecodeInt64Column(res->AsSlice(), &decoded).ok());
  EXPECT_EQ(decoded, data) << "cascade chose " << EncodingTypeName(chosen);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, IntRoundTrip,
    ::testing::Values(
        IntCase{"constant", 1000}, IntCase{"mainly_constant", 1000},
        IntCase{"sorted", 1000}, IntCase{"runs", 1000},
        IntCase{"low_cardinality", 1000}, IntCase{"zipf_ids", 1000},
        IntCase{"uniform_small", 1000}, IntCase{"uniform_wide", 1000},
        IntCase{"negatives", 1000}, IntCase{"timestamps", 1000},
        IntCase{"extremes", 64}, IntCase{"uniform_small", 1},
        IntCase{"sorted", 2}, IntCase{"runs", 127}, IntCase{"runs", 128},
        IntCase{"runs", 129}, IntCase{"uniform_small", 4096}),
    [](const ::testing::TestParamInfo<IntCase>& info) {
      return info.param.kind + "_" + std::to_string(info.param.n);
    });

// Encodings restricted to non-negative inputs.
TEST(IntEncodings, NonNegativeOnlyEncodings) {
  std::vector<int64_t> ok = {0, 1, 127, 128, 300000, 1ll << 40};
  std::vector<int64_t> bad = {5, -1, 3};
  CascadeOptions opts;
  for (EncodingType t :
       {EncodingType::kVarint, EncodingType::kFixedBitWidth}) {
    CascadeContext ctx(opts, 0);
    BufferBuilder out;
    ASSERT_TRUE(EncodeIntBlockAs(t, ok, &ctx, &out).ok());
    Buffer buf = out.Finish();
    std::vector<int64_t> decoded;
    SliceReader reader(buf.AsSlice());
    ASSERT_TRUE(DecodeIntBlock(&reader, &decoded).ok());
    EXPECT_EQ(decoded, ok) << EncodingTypeName(t);

    BufferBuilder out2;
    CascadeContext ctx2(opts, 0);
    EXPECT_FALSE(EncodeIntBlockAs(t, bad, &ctx2, &out2).ok())
        << EncodingTypeName(t) << " must reject negatives";
  }
}

TEST(IntEncodings, ConstantRejectsNonConstant) {
  CascadeOptions opts;
  CascadeContext ctx(opts, 0);
  BufferBuilder out;
  std::vector<int64_t> v = {1, 2};
  EXPECT_FALSE(EncodeIntBlockAs(EncodingType::kConstant, v, &ctx, &out).ok());
}

TEST(IntEncodings, HuffmanSmallAlphabet) {
  Random rng(7);
  std::vector<int64_t> v(5000);
  for (auto& x : v) x = rng.UniformRange(-8, 8);
  CascadeOptions opts;
  CascadeContext ctx(opts, 0);
  BufferBuilder out;
  ASSERT_TRUE(EncodeIntBlockAs(EncodingType::kHuffman, v, &ctx, &out).ok());
  Buffer buf = out.Finish();
  std::vector<int64_t> decoded;
  SliceReader reader(buf.AsSlice());
  ASSERT_TRUE(DecodeIntBlock(&reader, &decoded).ok());
  EXPECT_EQ(decoded, v);
  // Entropy ~ log2(17) < 8 bits/value: should beat trivial hard.
  EXPECT_LT(buf.size(), v.size() * 2);
}

TEST(IntEncodings, HuffmanRejectsHugeAlphabet) {
  std::vector<int64_t> v(10000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int64_t>(i * 7919);
  CascadeOptions opts;
  CascadeContext ctx(opts, 0);
  BufferBuilder out;
  EXPECT_FALSE(EncodeIntBlockAs(EncodingType::kHuffman, v, &ctx, &out).ok());
}

TEST(IntEncodings, EmptyInput) {
  std::vector<int64_t> v;
  CascadeOptions opts;
  for (EncodingType t : kUniversalIntEncodings) {
    CascadeContext ctx(opts, 0);
    BufferBuilder out;
    Status st = EncodeIntBlockAs(t, v, &ctx, &out);
    if (!st.ok()) continue;  // some codecs may reject empty; that is fine
    Buffer buf = out.Finish();
    std::vector<int64_t> decoded = {1, 2, 3};
    SliceReader reader(buf.AsSlice());
    ASSERT_TRUE(DecodeIntBlock(&reader, &decoded).ok())
        << EncodingTypeName(t);
    EXPECT_TRUE(decoded.empty()) << EncodingTypeName(t);
  }
}

TEST(IntEncodings, CompressionRatiosMakeSense) {
  // Low-cardinality data must compress well under dictionary-ish
  // encodings; the cascade must do at least as well as FixedBitWidth.
  Random rng(5);
  std::vector<int64_t> v(100000);
  for (auto& x : v) x = rng.UniformRange(0, 7);
  auto res = EncodeInt64Column(v);
  ASSERT_TRUE(res.ok());
  // 3 bits/value = 37.5 KB; allow some head-room.
  EXPECT_LT(res->size(), 60000u);
}

// ---------------------------------------------------------------------------
// Doubles.
// ---------------------------------------------------------------------------

std::vector<double> GenDoubleData(const std::string& kind, size_t n,
                                  uint64_t seed) {
  Random rng(seed);
  std::vector<double> v(n);
  if (kind == "decimal2") {
    for (auto& x : v) x = rng.UniformRange(-99999, 99999) / 100.0;
  } else if (kind == "embeddings") {
    for (auto& x : v) x = std::tanh(rng.NextGaussian());
  } else if (kind == "slowly_changing") {
    double cur = 100.0;
    for (auto& x : v) {
      cur += rng.NextGaussian() * 0.01;
      x = cur;
    }
  } else if (kind == "constantish") {
    for (auto& x : v) x = rng.Bernoulli(0.01) ? rng.NextDouble() : 3.14;
  } else if (kind == "specials") {
    for (size_t i = 0; i < n; ++i) {
      switch (i % 5) {
        case 0: v[i] = 0.0; break;
        case 1: v[i] = -0.0; break;
        case 2: v[i] = std::numeric_limits<double>::infinity(); break;
        case 3: v[i] = -std::numeric_limits<double>::infinity(); break;
        case 4: v[i] = 1e300; break;
      }
    }
  }
  return v;
}

const EncodingType kDoubleEncodings[] = {
    EncodingType::kTrivial,       EncodingType::kGorilla,
    EncodingType::kChimp,         EncodingType::kPseudodecimal,
    EncodingType::kAlp,           EncodingType::kChunked,
    EncodingType::kBitShuffle,    EncodingType::kBitShuffleSplit,
};

class DoubleRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(DoubleRoundTrip, AllEncodings) {
  std::vector<double> data = GenDoubleData(GetParam(), 2000, 77);
  CascadeOptions opts;
  for (EncodingType t : kDoubleEncodings) {
    CascadeContext ctx(opts, 0);
    BufferBuilder out;
    Status st = EncodeDoubleBlockAs(t, data, &ctx, &out);
    ASSERT_TRUE(st.ok()) << EncodingTypeName(t) << ": " << st.ToString();
    Buffer buf = out.Finish();
    std::vector<double> decoded;
    SliceReader reader(buf.AsSlice());
    st = DecodeDoubleBlock(&reader, &decoded);
    ASSERT_TRUE(st.ok()) << EncodingTypeName(t) << ": " << st.ToString();
    ASSERT_EQ(decoded.size(), data.size()) << EncodingTypeName(t);
    for (size_t i = 0; i < data.size(); ++i) {
      uint64_t a, b;
      std::memcpy(&a, &data[i], 8);
      std::memcpy(&b, &decoded[i], 8);
      ASSERT_EQ(a, b) << EncodingTypeName(t) << " bit-exact mismatch at " << i;
    }
    EXPECT_EQ(reader.remaining(), 0u) << EncodingTypeName(t);
  }
}

TEST_P(DoubleRoundTrip, Cascade) {
  std::vector<double> data = GenDoubleData(GetParam(), 2000, 78);
  auto res = EncodeDoubleColumn(data);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  std::vector<double> decoded;
  ASSERT_TRUE(DecodeDoubleColumn(res->AsSlice(), &decoded).ok());
  ASSERT_EQ(decoded.size(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    uint64_t a, b;
    std::memcpy(&a, &data[i], 8);
    std::memcpy(&b, &decoded[i], 8);
    ASSERT_EQ(a, b);
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, DoubleRoundTrip,
                         ::testing::Values("decimal2", "embeddings",
                                           "slowly_changing", "constantish",
                                           "specials"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

TEST(DoubleEncodings, DecimalDataCompressesWithAlp) {
  std::vector<double> data = GenDoubleData("decimal2", 50000, 3);
  CascadeOptions opts;
  CascadeContext ctx(opts, 0);
  BufferBuilder out;
  ASSERT_TRUE(EncodeDoubleBlockAs(EncodingType::kAlp, data, &ctx, &out).ok());
  // 2-decimal values in (-1000,1000): mantissas fit ~24 bits << 64.
  EXPECT_LT(out.size(), data.size() * 4);
}

// Hand-built n = 8 double BitShuffle blocks: the planes are 64 bytes,
// and the chunk framing must not be trusted past that.
Status DecodeHandBuiltBitShuffle(BufferBuilder* framing) {
  BufferBuilder block;
  WriteBlockHeader(EncodingType::kBitShuffle, 8, &block);
  Buffer payload = framing->Finish();
  block.AppendBytes(payload.data(), payload.size());
  Buffer bytes = block.Finish();
  std::vector<double> decoded;
  SliceReader reader(bytes.AsSlice());
  return DecodeDoubleBlock(&reader, &decoded);
}

TEST(DoubleEncodings, BitShuffleChunkFramingBoundedByBlockSize) {
  // Control: one chunk of exactly the 64 plane bytes decodes.
  BufferBuilder exact;
  std::vector<uint8_t> zeros(64, 0);
  ASSERT_TRUE(deflate_util::CompressChunked(
                  Slice(zeros.data(), zeros.size()), &exact)
                  .ok());
  EXPECT_TRUE(DecodeHandBuiltBitShuffle(&exact).ok());

  // One chunk claiming the full 256 KiB, backed by a valid stream of
  // zeros that really inflates that far.
  BufferBuilder oversized;
  std::vector<uint8_t> big(deflate_util::kChunkSize, 0);
  ASSERT_TRUE(deflate_util::CompressChunked(Slice(big.data(), big.size()),
                                            &oversized)
                  .ok());
  EXPECT_TRUE(DecodeHandBuiltBitShuffle(&oversized).IsCorruption());

  // Two valid 16-byte chunks: 32 bytes, short of 64.
  BufferBuilder one_chunk;
  ASSERT_TRUE(
      deflate_util::CompressChunked(Slice(zeros.data(), 16), &one_chunk).ok());
  Buffer chunk = one_chunk.Finish();  // [count = 1][raw][comp][bytes]
  BufferBuilder short_sum;
  varint::PutVarint64(&short_sum, 2);
  for (int c = 0; c < 2; ++c) {
    short_sum.AppendBytes(chunk.data() + 1, chunk.size() - 1);
  }
  EXPECT_TRUE(DecodeHandBuiltBitShuffle(&short_sum).IsCorruption());
}

// Hand-built BitShuffleSplit blocks: a 16-byte class map (plane p at
// bits 2*(p%4) of byte p/4) and then `rest`.
std::vector<uint8_t> SplitMap(int first, int last, uint8_t plane_class) {
  std::vector<uint8_t> map(16, 0);
  for (int p = first; p <= last; ++p) {
    map[p / 4] |= static_cast<uint8_t>(plane_class << (2 * (p % 4)));
  }
  return map;
}

Status DecodeHandBuiltSplit(uint64_t n, const std::vector<uint8_t>& map,
                            const std::vector<uint8_t>& rest,
                            std::vector<double>* decoded) {
  BufferBuilder block;
  WriteBlockHeader(EncodingType::kBitShuffleSplit, n, &block);
  block.AppendBytes(map.data(), map.size());
  block.AppendBytes(rest.data(), rest.size());
  Buffer bytes = block.Finish();
  SliceReader reader(bytes.AsSlice());
  return DecodeDoubleBlock(&reader, decoded);
}

std::vector<uint8_t> ChunkedStream(size_t raw_bytes) {
  std::vector<uint8_t> raw(raw_bytes, 0x5A);
  BufferBuilder out;
  EXPECT_TRUE(
      deflate_util::CompressChunked(Slice(raw.data(), raw.size()), &out).ok());
  Buffer stream = out.Finish();
  return std::vector<uint8_t>(stream.data(), stream.data() + stream.size());
}

uint64_t DoubleToBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, 8);
  return bits;
}

TEST(DoubleEncodings, BitShuffleSplitConstantPlanesDecode) {
  std::vector<double> decoded = {7.0};
  // n = 0: an all-zero map and nothing after it.
  ASSERT_TRUE(DecodeHandBuiltSplit(0, SplitMap(0, -1, 0), {}, &decoded).ok());
  EXPECT_TRUE(decoded.empty());

  // Planes 52..61 all ones, the rest all zeros: every value is 1.0.
  ASSERT_TRUE(DecodeHandBuiltSplit(10, SplitMap(52, 61, 1), {}, &decoded).ok());
  EXPECT_EQ(decoded, std::vector<double>(10, 1.0));

  // The encoder writes a constant column as the map alone.
  std::vector<double> constant(1000, -2.5);
  CascadeOptions opts;
  CascadeContext ctx(opts, 0);
  BufferBuilder out;
  ASSERT_TRUE(EncodeDoubleBlockAs(EncodingType::kBitShuffleSplit, constant,
                                  &ctx, &out)
                  .ok());
  Buffer block = out.Finish();
  EXPECT_EQ(block.size(), 1u + 2u + 16u);  // tag, varint 1000, map
  SliceReader reader(block.AsSlice());
  ASSERT_TRUE(DecodeDoubleBlock(&reader, &decoded).ok());
  EXPECT_EQ(decoded, constant);
}

TEST(DoubleEncodings, BitShuffleSplitRejectsMalformedBlocks) {
  // n = 64 throughout: each plane is 8 bytes.
  std::vector<double> decoded;
  EXPECT_TRUE(DecodeHandBuiltSplit(64, std::vector<uint8_t>(15, 0), {},
                                   &decoded)
                  .IsCorruption());

  // Plane 0 raw: 8 bytes decode (bit 0 set in every even value), 7 do
  // not.
  ASSERT_TRUE(DecodeHandBuiltSplit(64, SplitMap(0, 0, 2),
                                   std::vector<uint8_t>(8, 0x55), &decoded)
                  .ok());
  ASSERT_EQ(decoded.size(), 64u);
  EXPECT_EQ(DoubleToBits(decoded[0]), 1u);
  EXPECT_EQ(DoubleToBits(decoded[1]), 0u);
  EXPECT_TRUE(DecodeHandBuiltSplit(64, SplitMap(0, 0, 2),
                                   std::vector<uint8_t>(7, 0x55), &decoded)
                  .IsCorruption());

  // Planes 62 and 63 deflated: the stream must inflate to exactly their
  // 16 bytes (0x5A each: bits 62 and 63 set in value 1, not in value 0).
  ASSERT_TRUE(
      DecodeHandBuiltSplit(64, SplitMap(62, 63, 3), ChunkedStream(16), &decoded)
          .ok());
  EXPECT_EQ(DoubleToBits(decoded[0]), 0u);
  EXPECT_EQ(DoubleToBits(decoded[1]), 0xC000000000000000u);
  EXPECT_TRUE(
      DecodeHandBuiltSplit(64, SplitMap(62, 63, 3), ChunkedStream(24), &decoded)
          .IsCorruption());
  EXPECT_TRUE(
      DecodeHandBuiltSplit(64, SplitMap(62, 63, 3), ChunkedStream(8), &decoded)
          .IsCorruption());

  // A deflated plane with no stream at all.
  EXPECT_TRUE(DecodeHandBuiltSplit(64, SplitMap(62, 63, 3), {}, &decoded)
                  .IsCorruption());
}

// ---------------------------------------------------------------------------
// Strings.
// ---------------------------------------------------------------------------

std::vector<std::string> GenStringData(const std::string& kind, size_t n,
                                       uint64_t seed) {
  Random rng(seed);
  std::vector<std::string> v;
  v.reserve(n);
  if (kind == "urls") {
    const char* hosts[] = {"example.com", "news.site.org", "shop.example.io"};
    for (size_t i = 0; i < n; ++i) {
      v.push_back("https://" + std::string(hosts[rng.Uniform(3)]) +
                  "/path/item" + std::to_string(rng.Uniform(100000)));
    }
  } else if (kind == "low_cardinality") {
    const char* vals[] = {"beta", "experimental", "active", "deprecated"};
    for (size_t i = 0; i < n; ++i) v.push_back(vals[rng.Uniform(4)]);
  } else if (kind == "random_short") {
    for (size_t i = 0; i < n; ++i) {
      std::string s;
      size_t len = rng.Uniform(12);
      for (size_t k = 0; k < len; ++k) {
        s.push_back(static_cast<char>('a' + rng.Uniform(26)));
      }
      v.push_back(s);
    }
  } else if (kind == "with_empties") {
    for (size_t i = 0; i < n; ++i) {
      v.push_back(i % 3 == 0 ? "" : "x" + std::to_string(i));
    }
  } else if (kind == "binary_bytes") {
    for (size_t i = 0; i < n; ++i) {
      std::string s;
      size_t len = rng.Uniform(64);
      for (size_t k = 0; k < len; ++k) {
        s.push_back(static_cast<char>(rng.Uniform(256)));
      }
      v.push_back(s);
    }
  }
  return v;
}

const EncodingType kStringEncodings[] = {
    EncodingType::kStringTrivial, EncodingType::kStringDict,
    EncodingType::kFsst, EncodingType::kChunked};

class StringRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(StringRoundTrip, AllEncodings) {
  std::vector<std::string> data = GenStringData(GetParam(), 500, 21);
  CascadeOptions opts;
  for (EncodingType t : kStringEncodings) {
    CascadeContext ctx(opts, 0);
    BufferBuilder out;
    Status st = EncodeStringBlockAs(t, data, &ctx, &out);
    ASSERT_TRUE(st.ok()) << EncodingTypeName(t) << ": " << st.ToString();
    Buffer buf = out.Finish();
    std::vector<std::string> decoded;
    SliceReader reader(buf.AsSlice());
    st = DecodeStringBlock(&reader, &decoded);
    ASSERT_TRUE(st.ok()) << EncodingTypeName(t) << ": " << st.ToString();
    EXPECT_EQ(decoded, data) << EncodingTypeName(t);
    EXPECT_EQ(reader.remaining(), 0u) << EncodingTypeName(t);
  }
}

TEST_P(StringRoundTrip, Cascade) {
  std::vector<std::string> data = GenStringData(GetParam(), 500, 22);
  auto res = EncodeStringColumn(data);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  std::vector<std::string> decoded;
  ASSERT_TRUE(DecodeStringColumn(res->AsSlice(), &decoded).ok());
  EXPECT_EQ(decoded, data);
}

INSTANTIATE_TEST_SUITE_P(Kinds, StringRoundTrip,
                         ::testing::Values("urls", "low_cardinality",
                                           "random_short", "with_empties",
                                           "binary_bytes"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

// A string Chunked block sizes its output from the lengths child, which
// a corrupt page controls: lengths that overflow, or that no payload of
// this size could inflate to, are Corruption before any allocation.
TEST(StringEncodings, ChunkedRejectsImpossibleLengths) {
  const std::vector<std::vector<int64_t>> cases = {
      {std::numeric_limits<int64_t>::max(),
       std::numeric_limits<int64_t>::max(), 2},  // sums to 2^64 = 0
      {int64_t{1} << 40},
  };
  for (const std::vector<int64_t>& lengths : cases) {
    BufferBuilder block;
    WriteBlockHeader(EncodingType::kChunked, lengths.size(), &block);
    CascadeOptions opts;
    CascadeContext ctx(opts, 0);
    ASSERT_TRUE(
        EncodeIntBlockAs(EncodingType::kTrivial, lengths, &ctx, &block).ok());
    varint::PutVarint64(&block, 0);  // no chunks
    Buffer bytes = block.Finish();
    std::vector<std::string> decoded;
    SliceReader reader(bytes.AsSlice());
    EXPECT_TRUE(DecodeStringBlock(&reader, &decoded).IsCorruption());
  }
}

TEST(StringEncodings, FsstCompressesUrls) {
  std::vector<std::string> data = GenStringData("urls", 5000, 11);
  size_t raw = 0;
  for (const auto& s : data) raw += s.size();
  CascadeOptions opts;
  CascadeContext ctx(opts, 0);
  BufferBuilder out;
  ASSERT_TRUE(EncodeStringBlockAs(EncodingType::kFsst, data, &ctx, &out).ok());
  EXPECT_LT(out.size(), raw) << "FSST should shrink structured URLs";
}

// ---------------------------------------------------------------------------
// Bools.
// ---------------------------------------------------------------------------

std::vector<uint8_t> GenBoolData(const std::string& kind, size_t n,
                                 uint64_t seed) {
  Random rng(seed);
  std::vector<uint8_t> v(n);
  if (kind == "sparse") {
    for (auto& x : v) x = rng.Bernoulli(0.01) ? 1 : 0;
  } else if (kind == "dense") {
    for (auto& x : v) x = rng.Bernoulli(0.99) ? 1 : 0;
  } else if (kind == "balanced") {
    for (auto& x : v) x = rng.Bernoulli(0.5) ? 1 : 0;
  } else if (kind == "runs") {
    uint8_t cur = 0;
    size_t i = 0;
    while (i < n) {
      size_t run = 1 + rng.Uniform(100);
      for (size_t k = 0; k < run && i < n; ++k) v[i++] = cur;
      cur = cur ? 0 : 1;
    }
  } else if (kind == "all_zero") {
    // already zero
  } else if (kind == "all_one") {
    std::fill(v.begin(), v.end(), 1);
  }
  return v;
}

const EncodingType kBoolEncodings[] = {
    EncodingType::kTrivial, EncodingType::kSparseBool, EncodingType::kBoolRle,
    EncodingType::kRoaring};

class BoolRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(BoolRoundTrip, AllEncodings) {
  std::vector<uint8_t> data = GenBoolData(GetParam(), 100000, 31);
  CascadeOptions opts;
  for (EncodingType t : kBoolEncodings) {
    CascadeContext ctx(opts, 0);
    BufferBuilder out;
    Status st = EncodeBoolBlockAs(t, data, &ctx, &out);
    ASSERT_TRUE(st.ok()) << EncodingTypeName(t) << ": " << st.ToString();
    Buffer buf = out.Finish();
    std::vector<uint8_t> decoded;
    SliceReader reader(buf.AsSlice());
    st = DecodeBoolBlock(&reader, &decoded);
    ASSERT_TRUE(st.ok()) << EncodingTypeName(t) << ": " << st.ToString();
    EXPECT_EQ(decoded, data) << EncodingTypeName(t);
  }
}

TEST_P(BoolRoundTrip, Cascade) {
  std::vector<uint8_t> data = GenBoolData(GetParam(), 50000, 32);
  auto res = EncodeBoolColumn(data);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  std::vector<uint8_t> decoded;
  ASSERT_TRUE(DecodeBoolColumn(res->AsSlice(), &decoded).ok());
  EXPECT_EQ(decoded, data);
}

INSTANTIATE_TEST_SUITE_P(Kinds, BoolRoundTrip,
                         ::testing::Values("sparse", "dense", "balanced",
                                           "runs", "all_zero", "all_one"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

TEST(BoolEncodings, SparseBeatsTrivialOnSparseData) {
  std::vector<uint8_t> data = GenBoolData("sparse", 100000, 41);
  CascadeOptions opts;
  CascadeContext c1(opts, 0), c2(opts, 0);
  BufferBuilder sparse, trivial;
  ASSERT_TRUE(
      EncodeBoolBlockAs(EncodingType::kSparseBool, data, &c1, &sparse).ok());
  ASSERT_TRUE(
      EncodeBoolBlockAs(EncodingType::kTrivial, data, &c2, &trivial).ok());
  EXPECT_LT(sparse.size(), trivial.size());
}

// ---------------------------------------------------------------------------
// Nullable composition.
// ---------------------------------------------------------------------------

TEST(Nullable, RoundTripWithNulls) {
  Random rng(55);
  size_t n = 5000;
  std::vector<int64_t> values(n);
  std::vector<uint8_t> validity(n);
  for (size_t i = 0; i < n; ++i) {
    validity[i] = rng.Bernoulli(0.7) ? 1 : 0;
    values[i] = validity[i] ? rng.UniformRange(0, 100) : 0;
  }
  auto res = EncodeNullableInt64Column(values, validity);
  ASSERT_TRUE(res.ok());
  std::vector<int64_t> out_values;
  std::vector<uint8_t> out_validity;
  ASSERT_TRUE(DecodeNullableInt64Column(res->AsSlice(), -1, &out_values,
                                        &out_validity)
                  .ok());
  ASSERT_EQ(out_values.size(), n);
  EXPECT_EQ(out_validity, validity);
  for (size_t i = 0; i < n; ++i) {
    if (validity[i]) {
      EXPECT_EQ(out_values[i], values[i]);
    } else {
      EXPECT_EQ(out_values[i], -1);
    }
  }
}

// ---------------------------------------------------------------------------
// Cascade behaviour properties.
// ---------------------------------------------------------------------------

TEST(Cascade, DepthZeroStillRoundTrips) {
  std::vector<int64_t> data = GenIntData("runs", 3000, 8);
  CascadeOptions opts;
  opts.max_depth = 0;
  auto res = EncodeInt64Column(data, opts);
  ASSERT_TRUE(res.ok());
  std::vector<int64_t> decoded;
  ASSERT_TRUE(DecodeInt64Column(res->AsSlice(), &decoded).ok());
  EXPECT_EQ(decoded, data);
}

TEST(Cascade, DeeperRecursionNeverMuchWorse) {
  std::vector<int64_t> data = GenIntData("runs", 50000, 9);
  std::vector<size_t> sizes;
  for (int depth = 0; depth <= 3; ++depth) {
    CascadeOptions opts;
    opts.max_depth = depth;
    auto res = EncodeInt64Column(data, opts);
    ASSERT_TRUE(res.ok());
    std::vector<int64_t> decoded;
    ASSERT_TRUE(DecodeInt64Column(res->AsSlice(), &decoded).ok());
    ASSERT_EQ(decoded, data);
    sizes.push_back(res->size());
  }
  // Depth 2 should not be larger than depth 0 by more than noise.
  EXPECT_LE(sizes[2], sizes[0] + 64);
}

TEST(Cascade, AllowlistRestrictsSelection) {
  std::vector<int64_t> data = GenIntData("low_cardinality", 2000, 10);
  CascadeOptions opts;
  opts.allowed = {EncodingType::kTrivial};
  EncodingType chosen = EncodingType::kNumEncodings;
  auto res = EncodeInt64Column(data, opts, &chosen);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(chosen, EncodingType::kTrivial);
}

TEST(Cascade, DecodeWeightSteersAwayFromExpensiveCodecs) {
  std::vector<int64_t> data = GenIntData("low_cardinality", 4000, 12);
  CascadeOptions size_only;
  size_only.w_size = 1.0;
  CascadeOptions decode_heavy;
  decode_heavy.w_size = 0.01;
  decode_heavy.w_decode = 1000.0;
  EncodingType t1 = EncodingType::kNumEncodings;
  EncodingType t2 = EncodingType::kNumEncodings;
  ASSERT_TRUE(EncodeInt64Column(data, size_only, &t1).ok());
  ASSERT_TRUE(EncodeInt64Column(data, decode_heavy, &t2).ok());
  EncodingCost c1 = GetEncodingCost(t1);
  EncodingCost c2 = GetEncodingCost(t2);
  EXPECT_LE(c2.decode, c1.decode + 1e-9)
      << "decode-weighted selection picked a slower decoder: "
      << EncodingTypeName(t2) << " vs " << EncodingTypeName(t1);
}

TEST(Cascade, ReportsChosenEncoding) {
  std::vector<int64_t> data(100, 5);
  EncodingType chosen = EncodingType::kNumEncodings;
  auto res = EncodeInt64Column(data, {}, &chosen);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(chosen, EncodingType::kConstant);
}

TEST(Cascade, BlockIsTheWinningTrial) {
  // Whatever the selector picks, its block is exactly the forced
  // encoding of that pick with children at depth 1: on inputs that fit
  // the 8192-value sample the winning trial is the block, and on larger
  // ones the winner is encoded again on the full input.
  CascadeOptions opts;
  auto check = [&](const std::string& what, auto encode_column,
                   auto encode_as, const auto& values) {
    EncodingType chosen = EncodingType::kNumEncodings;
    auto block = encode_column(values, opts, &chosen);
    ASSERT_TRUE(block.ok()) << what << ": " << block.status().ToString();
    ASSERT_FALSE(block->empty()) << what;
    EXPECT_EQ((*block)[0], static_cast<uint8_t>(chosen)) << what;
    CascadeContext ctx(opts, 1);
    BufferBuilder forced;
    ASSERT_TRUE(encode_as(chosen, values, &ctx, &forced).ok()) << what;
    EXPECT_TRUE(forced.Finish() == *block)
        << what << " chose " << EncodingTypeName(chosen);
  };
  for (size_t n : {0, 1, 8191, 8192, 8193, 50000}) {
    const std::string size = "/" + std::to_string(n);
    for (const char* kind : {"runs", "zipf_ids", "sorted", "negatives"}) {
      check(kind + size, EncodeInt64Column, EncodeIntBlockAs,
            GenIntData(kind, n, 61));
    }
    for (const char* kind : {"embeddings", "decimal2"}) {
      check(kind + size, EncodeDoubleColumn, EncodeDoubleBlockAs,
            GenDoubleData(kind, n, 62));
    }
    for (const char* kind : {"urls", "low_cardinality"}) {
      check(kind + size, EncodeStringColumn, EncodeStringBlockAs,
            GenStringData(kind, n, 63));
    }
    for (const char* kind : {"sparse", "runs"}) {
      check(kind + size, EncodeBoolColumn, EncodeBoolBlockAs,
            GenBoolData(kind, n, 64));
    }
  }
}

// Statistics sanity.
TEST(Stats, IntStatsBasics) {
  std::vector<int64_t> v = {3, 3, 3, 7, 7, -1};
  IntStats s = ComputeIntStats(v);
  EXPECT_EQ(s.count, 6u);
  EXPECT_EQ(s.min, -1);
  EXPECT_EQ(s.max, 7);
  EXPECT_EQ(s.run_count, 3u);
  EXPECT_EQ(s.distinct, 3u);
  EXPECT_EQ(s.top_frequency, 3u);
  EXPECT_EQ(s.top_value, 3);
  EXPECT_FALSE(s.sorted_non_decreasing);
  EXPECT_FALSE(s.non_negative);
}

TEST(Stats, BoolStats) {
  std::vector<uint8_t> v = {0, 0, 1, 1, 1, 0};
  BoolStats s = ComputeBoolStats(v);
  EXPECT_EQ(s.count, 6u);
  EXPECT_EQ(s.set_count, 3u);
  EXPECT_EQ(s.run_count, 3u);
}

}  // namespace
}  // namespace bullion
