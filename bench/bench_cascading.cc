// E7 — §2.6 / Table 2: cascading encoding framework.
//
// (a) Compression ratio of the cascade selector vs every applicable
//     single encoding, per ML data class (skewed ids, timestamps,
//     low-cardinality, runs, embeddings, decimal metrics, URLs).
// (b) Recursion-depth ablation 0..3 — the paper poses the "ideal
//     recursion depth" as an open question; BtrBlocks uses 1-2.
// (c) Objective-weight ablation: size-only vs decode-weighted
//     selection (Nimble's configurable linear objective).

#include <benchmark/benchmark.h>

#include <cmath>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/bullion.h"
#include "workload/zipf.h"

namespace bullion {
namespace {

constexpr size_t kN = 200000;

std::vector<int64_t> MakeIntClass(const std::string& kind) {
  Random rng(31);
  std::vector<int64_t> v(kN);
  if (kind == "zipf_ids") {
    ZipfGenerator zipf(1 << 20, 1.1, 7);
    for (auto& x : v) x = static_cast<int64_t>(zipf.Next());
  } else if (kind == "timestamps") {
    int64_t t = 1700000000000000;
    for (auto& x : v) {
      t += rng.UniformRange(1, 2000);
      x = t;
    }
  } else if (kind == "low_card") {
    for (auto& x : v) x = rng.UniformRange(0, 15);
  } else if (kind == "runs") {
    size_t i = 0;
    while (i < kN) {
      int64_t val = rng.UniformRange(0, 100);
      size_t run = 1 + rng.Uniform(64);
      for (size_t k = 0; k < run && i < kN; ++k) v[i++] = val;
    }
  } else if (kind == "counters") {
    for (auto& x : v) x = rng.UniformRange(0, 1000);
  }
  return v;
}

void PrintIntClassTable() {
  bench::PrintHeader(
      "E7a / Table 2: int classes — bytes/value by encoding (raw = 8)");
  const EncodingType kEncodings[] = {
      EncodingType::kTrivial,   EncodingType::kFixedBitWidth,
      EncodingType::kVarint,    EncodingType::kDelta,
      EncodingType::kRle,       EncodingType::kDictionary,
      EncodingType::kHuffman,   EncodingType::kFastPFor,
      EncodingType::kFastBP128, EncodingType::kBitShuffle,
      EncodingType::kChunked};
  std::printf("%-14s", "class");
  for (EncodingType t : kEncodings) {
    std::printf(" %9.9s", std::string(EncodingTypeName(t)).c_str());
  }
  std::printf(" %9s %12s\n", "cascade", "chosen");
  for (const char* kind :
       {"zipf_ids", "timestamps", "low_card", "runs", "counters"}) {
    std::vector<int64_t> data = MakeIntClass(kind);
    std::printf("%-14s", kind);
    for (EncodingType t : kEncodings) {
      CascadeOptions opts;
      CascadeContext ctx(opts, 0);
      BufferBuilder out;
      Status st = EncodeIntBlockAs(t, data, &ctx, &out);
      if (st.ok()) {
        std::printf(" %9.3f", static_cast<double>(out.size()) / data.size());
      } else {
        std::printf(" %9s", "-");
      }
    }
    EncodingType chosen = EncodingType::kNumEncodings;
    auto block = EncodeInt64Column(data, {}, &chosen);
    BULLION_CHECK_OK(block.status());
    std::printf(" %9.3f %12s\n",
                static_cast<double>(block->size()) / data.size(),
                std::string(EncodingTypeName(chosen)).c_str());
  }
}

void PrintFloatStringTable() {
  bench::PrintHeader("E7b: float / string classes — bytes per value");
  {
    Random rng(41);
    std::vector<double> emb(kN);
    for (auto& x : emb) x = std::tanh(rng.NextGaussian() * 0.5);
    std::vector<double> metrics(kN);
    for (auto& x : metrics) x = rng.UniformRange(-99999, 99999) / 100.0;
    std::vector<double> sensor(kN);
    double cur = 100.0;
    for (auto& x : sensor) {
      cur += rng.NextGaussian() * 0.01;
      x = cur;
    }
    // Monotone timestamps stored as doubles: their low planes look
    // random per value yet deflate well, the case the split block's
    // all-deflated variant exists for.
    std::vector<double> stamps(8192);
    double t = 1.7e9;
    for (auto& x : stamps) {
      t += rng.UniformRange(1, 1000) / 1000.0;
      x = t;
    }
    const EncodingType kFloatEnc[] = {
        EncodingType::kTrivial, EncodingType::kGorilla,
        EncodingType::kChimp,   EncodingType::kPseudodecimal,
        EncodingType::kAlp,     EncodingType::kBitShuffle,
        EncodingType::kBitShuffleSplit, EncodingType::kChunked};
    auto row = [&](const char* name, const std::vector<double>& data) {
      std::printf("%-14s", name);
      for (EncodingType t : kFloatEnc) {
        CascadeOptions opts;
        CascadeContext ctx(opts, 0);
        BufferBuilder out;
        Status st = EncodeDoubleBlockAs(t, data, &ctx, &out);
        if (st.ok()) {
          std::printf(" %9.3f",
                      static_cast<double>(out.size()) / data.size());
        } else {
          std::printf(" %9s", "-");
        }
      }
      EncodingType chosen = EncodingType::kNumEncodings;
      auto block = EncodeDoubleColumn(data, {}, &chosen);
      BULLION_CHECK_OK(block.status());
      std::printf(" %9.3f %12s\n",
                  static_cast<double>(block->size()) / data.size(),
                  std::string(EncodingTypeName(chosen)).c_str());
    };
    std::printf("%-14s", "class(float)");
    for (EncodingType t : kFloatEnc) {
      // Both bit-plane names start "BitShuffl"; label by tag instead.
      std::printf(" %9.9s",
                  t == EncodingType::kBitShuffle        ? "BitSh(13)"
                  : t == EncodingType::kBitShuffleSplit ? "Split(28)"
                      : std::string(EncodingTypeName(t)).c_str());
    }
    std::printf(" %9s %12s\n", "cascade", "chosen");
    row("embeddings", emb);
    // One page of embeddings: train_scan's list<float> pages hold 64 to
    // 512 values, serve_lookup's 256.
    row("emb_page256", std::vector<double>(emb.begin(), emb.begin() + 256));
    row("decimal2", metrics);
    row("sensor", sensor);
    row("timestamps8k", stamps);
  }
  {
    Random rng(43);
    std::vector<std::string> urls;
    const char* hosts[] = {"cdn.example.com", "ads.example.net",
                           "img.example.org"};
    for (size_t i = 0; i < 50000; ++i) {
      urls.push_back("https://" + std::string(hosts[rng.Uniform(3)]) +
                     "/creative/" + std::to_string(rng.Uniform(100000)) +
                     ".jpg");
    }
    size_t raw = 0;
    for (const auto& s : urls) raw += s.size();
    std::printf("\n%-14s %10s", "class(string)", "raw_B/val");
    const EncodingType kStrEnc[] = {EncodingType::kStringTrivial,
                                    EncodingType::kStringDict,
                                    EncodingType::kFsst,
                                    EncodingType::kChunked};
    for (EncodingType t : kStrEnc) {
      std::printf(" %9.9s", std::string(EncodingTypeName(t)).c_str());
    }
    std::printf(" %9s\n", "cascade");
    std::printf("%-14s %10.1f", "urls",
                static_cast<double>(raw) / urls.size());
    for (EncodingType t : kStrEnc) {
      CascadeOptions opts;
      CascadeContext ctx(opts, 0);
      BufferBuilder out;
      Status st = EncodeStringBlockAs(t, urls, &ctx, &out);
      if (st.ok()) {
        std::printf(" %9.3f", static_cast<double>(out.size()) / urls.size());
      } else {
        std::printf(" %9s", "-");
      }
    }
    auto block = EncodeStringColumn(urls);
    BULLION_CHECK_OK(block.status());
    std::printf(" %9.3f\n", static_cast<double>(block->size()) / urls.size());
  }
}

void PrintDepthAblation() {
  bench::PrintHeader(
      "E7c: cascade recursion depth ablation (bytes/value; paper's open "
      "question, BtrBlocks uses 1-2)");
  std::printf("%-14s %8s %8s %8s %8s\n", "class", "depth0", "depth1",
              "depth2", "depth3");
  for (const char* kind :
       {"zipf_ids", "timestamps", "low_card", "runs", "counters"}) {
    std::vector<int64_t> data = MakeIntClass(kind);
    std::printf("%-14s", kind);
    for (int depth = 0; depth <= 3; ++depth) {
      CascadeOptions opts;
      opts.max_depth = depth;
      auto block = EncodeInt64Column(data, opts);
      BULLION_CHECK_OK(block.status());
      std::printf(" %8.3f", static_cast<double>(block->size()) / data.size());
    }
    std::printf("\n");
  }
}

void PrintObjectiveAblation() {
  bench::PrintHeader(
      "E7d: objective weights (Nimble-style) — size-only vs decode-heavy");
  std::printf("%-14s %16s %18s\n", "class", "size-only pick",
              "decode-weighted pick");
  for (const char* kind : {"zipf_ids", "low_card", "runs"}) {
    std::vector<int64_t> data = MakeIntClass(kind);
    CascadeOptions size_only;
    CascadeOptions decode_heavy;
    decode_heavy.w_size = 0.05;
    decode_heavy.w_decode = 500.0;
    EncodingType a = EncodingType::kNumEncodings;
    EncodingType b = EncodingType::kNumEncodings;
    BULLION_CHECK_OK(EncodeInt64Column(data, size_only, &a).status());
    BULLION_CHECK_OK(EncodeInt64Column(data, decode_heavy, &b).status());
    std::printf("%-14s %16s %18s\n", kind,
                std::string(EncodingTypeName(a)).c_str(),
                std::string(EncodingTypeName(b)).c_str());
  }
}

void BM_CascadeSelectAndEncode(benchmark::State& state) {
  std::vector<int64_t> data = MakeIntClass("zipf_ids");
  for (auto _ : state) {
    auto block = EncodeInt64Column(data);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size() * 8));
}
BENCHMARK(BM_CascadeSelectAndEncode);

void BM_CascadeDecode(benchmark::State& state) {
  std::vector<int64_t> data = MakeIntClass("zipf_ids");
  auto block = EncodeInt64Column(data);
  BULLION_CHECK_OK(block.status());
  for (auto _ : state) {
    std::vector<int64_t> out;
    auto st = DecodeInt64Column(block->AsSlice(), &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size() * 8));
}
BENCHMARK(BM_CascadeDecode);

}  // namespace
}  // namespace bullion

int main(int argc, char** argv) {
  bullion::PrintIntClassTable();
  bullion::PrintFloatStringTable();
  bullion::PrintDepthAblation();
  bullion::PrintObjectiveAblation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
