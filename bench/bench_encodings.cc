// E11 — per-codec encode/decode micro-throughput across the Table 2
// catalog (supports §2.6's discussion of decoding overhead of
// lightweight vs general-purpose compression), plus a kernel-tier
// section comparing the scalar reference against the runtime-dispatched
// block kernels (encoding/block_codec.h). The tier section asserts the
// encoded bytes are identical across tiers and writes
// BENCH_encodings.json next to the binary.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "common/random.h"
#include "encoding/block_codec.h"
#include "encoding/cascade.h"
#include "encoding/cpu_dispatch.h"
#include "quant/quantize.h"
#include "workload/zipf.h"

namespace bullion {
namespace {

constexpr size_t kN = 1 << 16;

std::vector<int64_t> IntData() {
  ZipfGenerator zipf(1 << 16, 1.1, 3);
  std::vector<int64_t> v(kN);
  for (auto& x : v) x = static_cast<int64_t>(zipf.Next());
  return v;
}

void BM_IntEncode(benchmark::State& state) {
  EncodingType type = static_cast<EncodingType>(state.range(0));
  std::vector<int64_t> data = IntData();
  for (auto _ : state) {
    CascadeOptions opts;
    CascadeContext ctx(opts, 0);
    BufferBuilder out;
    Status st = EncodeIntBlockAs(type, data, &ctx, &out);
    BULLION_CHECK_OK(st);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kN * 8));
  state.SetLabel(std::string(EncodingTypeName(type)));
}

void BM_IntDecode(benchmark::State& state) {
  EncodingType type = static_cast<EncodingType>(state.range(0));
  std::vector<int64_t> data = IntData();
  CascadeOptions opts;
  CascadeContext ctx(opts, 0);
  BufferBuilder out;
  BULLION_CHECK_OK(EncodeIntBlockAs(type, data, &ctx, &out));
  Buffer block = out.Finish();
  for (auto _ : state) {
    std::vector<int64_t> decoded;
    SliceReader reader(block.AsSlice());
    Status st = DecodeIntBlock(&reader, &decoded);
    BULLION_CHECK_OK(st);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kN * 8));
  state.SetLabel(std::string(EncodingTypeName(type)));
}

#define INT_ENCODINGS                                              \
  ->Arg(static_cast<int>(EncodingType::kTrivial))                  \
      ->Arg(static_cast<int>(EncodingType::kVarint))               \
      ->Arg(static_cast<int>(EncodingType::kZigZag))               \
      ->Arg(static_cast<int>(EncodingType::kFixedBitWidth))        \
      ->Arg(static_cast<int>(EncodingType::kForDelta))             \
      ->Arg(static_cast<int>(EncodingType::kDelta))                \
      ->Arg(static_cast<int>(EncodingType::kRle))                  \
      ->Arg(static_cast<int>(EncodingType::kDictionary))           \
      ->Arg(static_cast<int>(EncodingType::kFastPFor))             \
      ->Arg(static_cast<int>(EncodingType::kFastBP128))            \
      ->Arg(static_cast<int>(EncodingType::kBitShuffle))           \
      ->Arg(static_cast<int>(EncodingType::kChunked))

BENCHMARK(BM_IntEncode) INT_ENCODINGS;
BENCHMARK(BM_IntDecode) INT_ENCODINGS;

std::vector<double> FloatData() {
  Random rng(5);
  std::vector<double> v(kN);
  double cur = 100.0;
  for (auto& x : v) {
    cur += rng.NextGaussian() * 0.01;
    x = cur;
  }
  return v;
}

void BM_FloatEncode(benchmark::State& state) {
  EncodingType type = static_cast<EncodingType>(state.range(0));
  std::vector<double> data = FloatData();
  for (auto _ : state) {
    CascadeOptions opts;
    CascadeContext ctx(opts, 0);
    BufferBuilder out;
    BULLION_CHECK_OK(EncodeDoubleBlockAs(type, data, &ctx, &out));
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kN * 8));
  state.SetLabel(std::string(EncodingTypeName(type)));
}

void BM_FloatDecode(benchmark::State& state) {
  EncodingType type = static_cast<EncodingType>(state.range(0));
  std::vector<double> data = FloatData();
  CascadeOptions opts;
  CascadeContext ctx(opts, 0);
  BufferBuilder out;
  BULLION_CHECK_OK(EncodeDoubleBlockAs(type, data, &ctx, &out));
  Buffer block = out.Finish();
  for (auto _ : state) {
    std::vector<double> decoded;
    SliceReader reader(block.AsSlice());
    BULLION_CHECK_OK(DecodeDoubleBlock(&reader, &decoded));
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kN * 8));
  state.SetLabel(std::string(EncodingTypeName(type)));
}

#define FLOAT_ENCODINGS                                       \
  ->Arg(static_cast<int>(EncodingType::kTrivial))             \
      ->Arg(static_cast<int>(EncodingType::kGorilla))         \
      ->Arg(static_cast<int>(EncodingType::kChimp))           \
      ->Arg(static_cast<int>(EncodingType::kPseudodecimal))   \
      ->Arg(static_cast<int>(EncodingType::kAlp))             \
      ->Arg(static_cast<int>(EncodingType::kBitShuffle))      \
      ->Arg(static_cast<int>(EncodingType::kChunked))

BENCHMARK(BM_FloatEncode) FLOAT_ENCODINGS;
BENCHMARK(BM_FloatDecode) FLOAT_ENCODINGS;

void BM_StringFsstEncode(benchmark::State& state) {
  Random rng(7);
  std::vector<std::string> urls;
  for (size_t i = 0; i < 20000; ++i) {
    urls.push_back("https://cdn.example.com/item/" +
                   std::to_string(rng.Uniform(1000000)));
  }
  size_t raw = 0;
  for (const auto& s : urls) raw += s.size();
  for (auto _ : state) {
    CascadeOptions opts;
    CascadeContext ctx(opts, 0);
    BufferBuilder out;
    BULLION_CHECK_OK(
        EncodeStringBlockAs(EncodingType::kFsst, urls, &ctx, &out));
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(raw));
}
BENCHMARK(BM_StringFsstEncode);

void BM_BoolRoaringEncode(benchmark::State& state) {
  Random rng(9);
  std::vector<uint8_t> bools(1 << 20);
  for (auto& b : bools) b = rng.Bernoulli(0.03) ? 1 : 0;
  for (auto _ : state) {
    CascadeOptions opts;
    CascadeContext ctx(opts, 0);
    BufferBuilder out;
    BULLION_CHECK_OK(
        EncodeBoolBlockAs(EncodingType::kRoaring, bools, &ctx, &out));
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bools.size()));
}
BENCHMARK(BM_BoolRoaringEncode);

// ---------------------------------------------------------------------------
// Kernel-tier section: per-codec encode/decode GB/s, scalar reference
// vs the dispatched block kernels, with byte-identity asserted between
// tiers. Results go to stdout and BENCH_encodings.json.
// ---------------------------------------------------------------------------

struct TierRow {
  std::string name;
  std::string op;      // "encode" | "decode"
  std::string kernel;  // simd::SimdTierName of the tier measured
  double bytes_per_sec = 0;
};

double ToBytesPerSec(size_t bytes, double mean_us) {
  return mean_us > 0 ? static_cast<double>(bytes) / (mean_us * 1e-6) : 0;
}

Status EncodeBlockAs(EncodingType type, std::span<const int64_t> values,
                     CascadeContext* ctx, BufferBuilder* out) {
  return EncodeIntBlockAs(type, values, ctx, out);
}
Status EncodeBlockAs(EncodingType type, std::span<const double> values,
                     CascadeContext* ctx, BufferBuilder* out) {
  return EncodeDoubleBlockAs(type, values, ctx, out);
}
Status DecodeBlock(SliceReader* in, std::vector<int64_t>* out) {
  return DecodeIntBlock(in, out);
}
Status DecodeBlock(SliceReader* in, std::vector<double>* out) {
  return DecodeDoubleBlock(in, out);
}

template <typename T>
void RunCodecKernelTier(const std::string& name, EncodingType type,
                        const std::vector<T>& data,
                        std::vector<TierRow>* rows) {
  auto encode = [&] {
    CascadeOptions opts;
    CascadeContext ctx(opts, 0);
    BufferBuilder out;
    BULLION_CHECK_OK(EncodeBlockAs(type, data, &ctx, &out));
    return out.Finish();
  };

  Buffer scalar_block, active_block;
  {
    simd::ScopedSimdTierCap cap(simd::SimdTier::kScalar);
    scalar_block = encode();
  }
  active_block = encode();
  // On-disk bytes must not depend on which kernel tier ran.
  BULLION_CHECK(scalar_block.AsSlice() == active_block.AsSlice());

  std::vector<T> decoded(data.size());
  auto decode = [&] {
    SliceReader reader(active_block.AsSlice());
    BULLION_CHECK_OK(DecodeBlock(&reader, &decoded));
  };

  const size_t bytes = data.size() * sizeof(T);
  const simd::SimdTier tiers[2] = {simd::SimdTier::kScalar,
                                   simd::ActiveSimdTier()};
  double dec_us[2] = {0, 0};
  for (int t = 0; t < 2; ++t) {
    simd::ScopedSimdTierCap cap(tiers[t]);
    std::string kernel(simd::SimdTierName(simd::ActiveSimdTier()));
    double enc_us = bench::TimeUsAveraged([&] {
      Buffer b = encode();
      benchmark::DoNotOptimize(b);
    });
    dec_us[t] = bench::TimeUsAveraged(decode);
    BULLION_CHECK(decoded == data);
    rows->push_back({name, "encode", kernel, ToBytesPerSec(bytes, enc_us)});
    rows->push_back({name, "decode", kernel, ToBytesPerSec(bytes, dec_us[t])});
  }
  std::printf("  %-19s decode %7.2f -> %7.2f GB/s (%5.2fx %s over scalar)\n",
              name.c_str(), ToBytesPerSec(bytes, dec_us[0]) / 1e9,
              ToBytesPerSec(bytes, dec_us[1]) / 1e9,
              dec_us[1] > 0 ? dec_us[0] / dec_us[1] : 0,
              std::string(simd::SimdTierName(tiers[1])).c_str());
}

void RunFp16KernelTier(std::vector<TierRow>* rows) {
  Random rng(11);
  std::vector<float> data(kN);
  for (auto& x : data) x = static_cast<float>(rng.NextGaussian());
  const size_t bytes = data.size() * sizeof(float);

  std::vector<int64_t> q_scalar;
  {
    simd::ScopedSimdTierCap cap(simd::SimdTier::kScalar);
    q_scalar = QuantizeFloats(data, FloatPrecision::kFp16);
  }
  std::vector<int64_t> q_active = QuantizeFloats(data, FloatPrecision::kFp16);
  BULLION_CHECK(q_scalar == q_active);

  const simd::SimdTier tiers[2] = {simd::SimdTier::kScalar,
                                   simd::ActiveSimdTier()};
  double dec_us[2] = {0, 0};
  for (int t = 0; t < 2; ++t) {
    simd::ScopedSimdTierCap cap(tiers[t]);
    std::string kernel(simd::SimdTierName(simd::ActiveSimdTier()));
    double enc_us = bench::TimeUsAveraged([&] {
      std::vector<int64_t> q = QuantizeFloats(data, FloatPrecision::kFp16);
      benchmark::DoNotOptimize(q);
    });
    dec_us[t] = bench::TimeUsAveraged([&] {
      std::vector<float> back = DequantizeFloats(q_active,
                                                 FloatPrecision::kFp16);
      benchmark::DoNotOptimize(back);
    });
    rows->push_back({"Fp16Quantize", "encode", kernel,
                     ToBytesPerSec(bytes, enc_us)});
    rows->push_back({"Fp16Quantize", "decode", kernel,
                     ToBytesPerSec(bytes, dec_us[t])});
  }
  std::printf("  %-19s decode %7.2f -> %7.2f GB/s (%5.2fx %s over scalar)\n",
              "Fp16Quantize", ToBytesPerSec(bytes, dec_us[0]) / 1e9,
              ToBytesPerSec(bytes, dec_us[1]) / 1e9,
              dec_us[1] > 0 ? dec_us[0] / dec_us[1] : 0,
              std::string(simd::SimdTierName(tiers[1])).c_str());
}

void RunKernelTierReport() {
  bench::PrintHeader("block kernel tiers: scalar vs dispatched");
  std::printf("  dispatched tier: %s\n",
              std::string(simd::SimdTierName(simd::ActiveSimdTier())).c_str());

  std::vector<TierRow> rows;
  std::vector<int64_t> data = IntData();
  const EncodingType kTierCodecs[] = {
      EncodingType::kTrivial,     EncodingType::kVarint,
      EncodingType::kZigZag,      EncodingType::kFixedBitWidth,
      EncodingType::kForDelta,    EncodingType::kDelta,
      EncodingType::kRle,         EncodingType::kDictionary,
      EncodingType::kFastPFor,    EncodingType::kFastBP128,
      EncodingType::kBitShuffle,  EncodingType::kChunked,
  };
  for (EncodingType type : kTierCodecs) {
    RunCodecKernelTier(std::string(EncodingTypeName(type)), type, data,
                       &rows);
  }
  // The float columns of the ads table decode through BitShuffleSplit;
  // files written before it hold BitShuffle blocks.
  RunCodecKernelTier("BitShuffle-f64", EncodingType::kBitShuffle,
                     FloatData(), &rows);
  RunCodecKernelTier("BitShuffleSplit-f64", EncodingType::kBitShuffleSplit,
                     FloatData(), &rows);
  RunFp16KernelTier(&rows);

  std::FILE* f = std::fopen("BENCH_encodings.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_encodings.json\n");
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"op\": \"%s\", \"kernel\": \"%s\", "
                 "\"block_values\": %zu, \"bytes_per_sec\": %.0f}%s\n",
                 rows[i].name.c_str(), rows[i].op.c_str(),
                 rows[i].kernel.c_str(), blockcodec::kBlockValues,
                 rows[i].bytes_per_sec, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("  wrote BENCH_encodings.json (%zu rows)\n", rows.size());
}

}  // namespace
}  // namespace bullion

int main(int argc, char** argv) {
  bullion::RunKernelTierReport();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
