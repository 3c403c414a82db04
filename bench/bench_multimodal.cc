// E6 — §2.5 / Fig. 7: quality-aware multimodal data organization.
//
// Training selects only high-quality samples. With an unsorted meta
// table, the selected rows scatter across every row group, forcing
// reads of all heavy column chunks; with quality-presorted rows the
// selection is a contiguous prefix. The report sweeps the selectivity
// (top 10/25/50%) and shows read volume, read ops and seeks.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/bullion.h"

namespace bullion {
namespace {

using multimodal::DatasetWriter;
using multimodal::DatasetWriterOptions;
using multimodal::Sample;
using multimodal::TrainingReader;

std::string RandomBlob(Random* rng, size_t len) {
  std::string s(len, 0);
  for (auto& ch : s) ch = static_cast<char>(rng->Uniform(256));
  return s;
}

std::vector<Sample> MakeSamples(size_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<Sample> samples(n);
  for (size_t i = 0; i < n; ++i) {
    samples[i].sample_id = static_cast<int64_t>(i);
    samples[i].quality = rng.NextDouble();
    samples[i].caption = RandomBlob(&rng, 80);
    for (int k = 0; k < 3; ++k) {
      samples[i].frame_highlights.push_back(RandomBlob(&rng, 256));
    }
    samples[i].media_blob = RandomBlob(&rng, 2000);
  }
  return samples;
}

struct ScanResult {
  IoStatsSnapshot io;  // this scan's delta of the shared fs counters
  uint64_t selected = 0;
};

/// A written dataset reusable across scans.
struct WrittenDataset {
  InMemoryFileSystem fs;

  WrittenDataset(const std::vector<Sample>& samples, bool sorted) {
    auto meta = fs.NewWritableFile("meta");
    auto media = fs.NewWritableFile("media");
    DatasetWriterOptions opts;
    opts.quality_sorted = sorted;
    opts.rows_per_group = 2048;
    opts.rows_per_page = 512;
    DatasetWriter writer(meta->get(), media->get(), opts);
    BULLION_CHECK_OK(writer.Write(samples));
  }

  ScanResult Scan(double min_quality, double media_fraction) {
    auto reader = *TrainingReader::Open(*fs.NewReadableFile("meta"),
                                        *fs.NewReadableFile("media"));
    // Snapshot/delta instead of ResetStats(): the counters are shared
    // by every open handle of this filesystem (see io/io_stats.h).
    IoStatsSnapshot before = fs.stats().Snapshot();
    auto stats = reader->Scan(min_quality, media_fraction);
    BULLION_CHECK_OK(stats.status());
    return ScanResult{IoStatsDelta(before, fs.stats().Snapshot()),
                      stats->samples_selected};
  }
};

void PrintMultimodalReport() {
  constexpr size_t kSamples = 8192;
  std::vector<Sample> samples = MakeSamples(kSamples, 21);
  WrittenDataset sorted_ds(samples, true);
  WrittenDataset unsorted_ds(samples, false);

  bench::PrintHeader(
      "E6 / §2.5: quality-filtered training scan — sorted vs unsorted");
  std::printf("%8s %10s %12s %10s %8s\n", "top-q%", "layout", "read_MB",
              "read_ops", "seeks");
  for (double topq : {0.10, 0.25, 0.50}) {
    double threshold = 1.0 - topq;
    for (bool sorted : {true, false}) {
      ScanResult r =
          (sorted ? sorted_ds : unsorted_ds).Scan(threshold, 0.02);
      std::printf("%7.0f%% %10s %12.2f %10llu %8llu\n", topq * 100,
                  sorted ? "sorted" : "unsorted",
                  r.io.bytes_read / 1048576.0,
                  static_cast<unsigned long long>(r.io.read_ops),
                  static_cast<unsigned long long>(r.io.seeks));
    }
  }
  std::printf(
      "(quality sort turns a scattered scan into a contiguous prefix "
      "read; media lookups stay rare per Fig. 7)\n");

  bench::PrintHeader(
      "E6b: embedded frame highlights vs media-table round trips");
  {
    // Reading low-res frames from the meta table versus fetching the
    // full blob for every selected sample (no embedded highlights).
    ScanResult frames = sorted_ds.Scan(0.9, 0.0);
    ScanResult full = sorted_ds.Scan(0.9, 1.0);
    std::printf(
        "  highlights-only: %.2f MB, %llu ops | full-media every sample: "
        "%.2f MB, %llu ops\n",
        frames.io.bytes_read / 1048576.0,
        static_cast<unsigned long long>(frames.io.read_ops),
        full.io.bytes_read / 1048576.0,
        static_cast<unsigned long long>(full.io.read_ops));
  }
}

void BM_SortedScan(benchmark::State& state) {
  std::vector<Sample> samples = MakeSamples(4096, 5);
  WrittenDataset ds(samples, true);
  for (auto _ : state) {
    ScanResult r = ds.Scan(0.75, 0.0);
    benchmark::DoNotOptimize(r.selected);
  }
}
BENCHMARK(BM_SortedScan)->Unit(benchmark::kMillisecond);

void BM_UnsortedScan(benchmark::State& state) {
  std::vector<Sample> samples = MakeSamples(4096, 5);
  WrittenDataset ds(samples, false);
  for (auto _ : state) {
    ScanResult r = ds.Scan(0.75, 0.0);
    benchmark::DoNotOptimize(r.selected);
  }
}
BENCHMARK(BM_UnsortedScan)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bullion

int main(int argc, char** argv) {
  bullion::PrintMultimodalReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
