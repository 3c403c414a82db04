// E8/E9/E10 — §2.3 wide-table projection end to end, Table 1, Fig. 1.
// E11 — parallel scan throughput over the exec layer.
//
// E8: on a wide ads table, a training job projects ~10% of columns.
//     For Parquet-like files the paper observes metadata parsing takes
//     about as long as reading 10% of the columns, roughly doubling the
//     read cost; Bullion's flat footer removes that term. The report
//     shows open time vs data-read time for both formats.
// E9: prints the Table 1 column-type breakdown the generator
//     reproduces, and verifies a scaled instance round-trips.
// E10: prints the Fig. 1 top-10 ad table sizes with a rows-equivalent
//     extrapolation from the generator's bytes/row estimate.
// E11: projects ~10% of a multi-row-group ads table through
//     Scan(...).Collect() at increasing thread counts, verifying each
//     result against the serial scan and reporting throughput + speedup.

#include <benchmark/benchmark.h>

#include "baseline/parquet_like.h"
#include "bench/bench_common.h"
#include "common/logging.h"
#include "core/bullion.h"
#include "workload/ads_schema.h"

namespace bullion {
namespace {

using workload::AdsDataOptions;
using workload::BuildAdsSchema;
using workload::GenerateAdsData;

struct WideCorpus {
  InMemoryFileSystem fs;
  Schema schema;
  std::vector<uint32_t> projection;  // ~10% of leaves

  explicit WideCorpus(double scale, size_t rows) {
    schema = BuildAdsSchema(scale);
    AdsDataOptions dopts;
    dopts.seq_length = 16;
    std::vector<ColumnVector> data = GenerateAdsData(schema, rows, 5, dopts);
    {
      WriterOptions wopts;
      wopts.rows_per_page = 1024;
      auto f = fs.NewWritableFile("bullion");
      BULLION_CHECK_OK(WriteTableFile(f->get(), schema, {data}, wopts));
    }
    {
      baseline::ParquetLikeWriterOptions popts;
      popts.rows_per_page = 1024;
      auto f = fs.NewWritableFile("parquet");
      baseline::ParquetLikeWriter writer(schema, f->get(), popts);
      BULLION_CHECK_OK(writer.WriteRowGroup(data));
      BULLION_CHECK_OK(writer.Finish());
    }
    for (uint32_t c = 0; c < schema.num_leaves(); c += 10) {
      projection.push_back(c);
    }
  }
};

/// A narrower ads table split across several row groups — the shape
/// the parallel scanner fans out over.
struct MultiGroupCorpus {
  InMemoryFileSystem fs;
  Schema schema;
  std::vector<uint32_t> projection;  // ~10% of leaves
  size_t rows_per_group;
  size_t num_groups;

  MultiGroupCorpus(double scale, size_t rows_per_group, size_t num_groups)
      : rows_per_group(rows_per_group), num_groups(num_groups) {
    schema = BuildAdsSchema(scale);
    AdsDataOptions dopts;
    dopts.seq_length = 16;
    std::vector<std::vector<ColumnVector>> groups;
    for (size_t g = 0; g < num_groups; ++g) {
      groups.push_back(
          GenerateAdsData(schema, rows_per_group, 7 + g, dopts));
    }
    WriterOptions wopts;
    wopts.rows_per_page = 1024;
    auto f = fs.NewWritableFile("bullion");
    BULLION_CHECK_OK(WriteTableFile(f->get(), schema, groups, wopts));
    for (uint32_t c = 0; c < schema.num_leaves(); c += 10) {
      projection.push_back(c);
    }
  }
};

void PrintParallelScanReport() {
  MultiGroupCorpus corpus(0.05, 2048, 8);
  bench::PrintHeader(
      "E11 / exec layer: parallel 10% projection, 8 row groups");
  size_t hw = ThreadPool::DefaultThreadCount();
  std::printf("columns: %zu  projected: %zu  rows: %zu x %zu groups\n",
              (size_t)corpus.schema.num_leaves(), corpus.projection.size(),
              corpus.rows_per_group, corpus.num_groups);
  std::printf("hardware_concurrency: %zu\n", hw);
  if (hw <= 1) {
    std::printf(
        "** SINGLE-CORE HOST: every thread count below time-slices one "
        "core, so \"speedup\" degenerates to <=1x by construction. The "
        "column is reported for the identity check only — rerun on a "
        "multicore host for a real scaling curve. **\n");
  }

  auto reader = *TableReader::Open(*corpus.fs.NewReadableFile("bullion"));
  uint64_t data_bytes = *corpus.fs.FileSize("bullion");

  // The pool is shared across scans (server shape): workers spawn
  // once, each timed iteration only pays plan + fetch + decode.
  auto scan_with = [&](size_t threads, ThreadPool* pool) {
    return Scan(reader.get())
        .ColumnIndices(corpus.projection)
        .Threads(threads)
        .Pool(pool)
        .Collect();
  };
  ScanResult serial = *scan_with(1, nullptr);

  std::printf("%8s %12s %14s %10s %10s\n", "threads", "scan_ms", "MB/s(file)",
              "speedup", "identical");
  double serial_ms = 0;
  for (size_t threads : {1, 2, 4, 8}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    // Verify determinism once per thread count before timing.
    ScanResult check = *scan_with(threads, pool.get());
    bool identical = check.groups == serial.groups;
    double ms = bench::TimeUsAveraged([&] {
                  auto scan = scan_with(threads, pool.get());
                  BULLION_CHECK(scan.ok());
                  benchmark::DoNotOptimize(scan);
                }) /
                1000.0;
    if (threads == 1) serial_ms = ms;
    // On a single-core host the "speedup" cell is a degeneracy, not a
    // measurement — label it instead of printing a misleading number.
    char speedup[32];
    if (hw <= 1 && threads > 1) {
      std::snprintf(speedup, sizeof(speedup), "%.2fx*", serial_ms / ms);
    } else {
      std::snprintf(speedup, sizeof(speedup), "%.2fx", serial_ms / ms);
    }
    std::printf("%8zu %12.3f %14.1f %10s %10s\n", threads, ms,
                data_bytes / 1048576.0 / (ms / 1000.0), speedup,
                identical ? "yes" : "NO");
  }
  if (hw <= 1) {
    std::printf("(* = single-core degeneracy, expected <=1x; see note above)\n");
  }
  std::printf(
      "(fetch+decode of coalesced reads fans out across the pool; gains "
      "track available cores and I/O parallelism)\n");
}

void PrintWideScanReport() {
  // ~1.8k leaf columns at scale 0.1 — large enough to expose the
  // metadata term, small enough to build quickly.
  WideCorpus corpus(0.1, 512);
  size_t cols = corpus.schema.num_leaves();
  bench::PrintHeader("E8 / §2.3: project 10% of a wide ads table");
  std::printf("columns: %zu  projected: %zu  rows: 512\n", cols,
              corpus.projection.size());

  // Bullion: open + projection read.
  double bullion_open_ms = bench::TimeUsAveraged([&] {
    auto reader = *TableReader::Open(*corpus.fs.NewReadableFile("bullion"));
    benchmark::DoNotOptimize(reader);
  }) / 1000.0;
  auto breader = *TableReader::Open(*corpus.fs.NewReadableFile("bullion"));
  double bullion_read_ms = bench::TimeUsAveraged([&] {
    std::vector<ColumnVector> out;
    ReadOptions ropts;
    BULLION_CHECK_OK(
        breader->ReadProjection(0, corpus.projection, ropts, &out));
    benchmark::DoNotOptimize(out);
  }) / 1000.0;

  // Parquet-like: open (full metadata parse) + projection read.
  double parquet_open_ms = bench::TimeUsAveraged([&] {
    auto reader =
        *baseline::ParquetLikeReader::Open(*corpus.fs.NewReadableFile("parquet"));
    benchmark::DoNotOptimize(reader);
  }) / 1000.0;
  auto preader =
      *baseline::ParquetLikeReader::Open(*corpus.fs.NewReadableFile("parquet"));
  double parquet_read_ms = bench::TimeUsAveraged([&] {
    for (uint32_t c : corpus.projection) {
      ColumnVector col;
      BULLION_CHECK_OK(preader->ReadColumnChunk(0, c, &col));
      benchmark::DoNotOptimize(col);
    }
  }) / 1000.0;

  std::printf("%14s %12s %12s %22s\n", "format", "open_ms", "read_ms",
              "metadata/read ratio");
  std::printf("%14s %12.3f %12.3f %21.2f%%\n", "parquet-like",
              parquet_open_ms, parquet_read_ms,
              100.0 * parquet_open_ms / parquet_read_ms);
  std::printf("%14s %12.3f %12.3f %21.2f%%\n", "bullion", bullion_open_ms,
              bullion_read_ms, 100.0 * bullion_open_ms / bullion_read_ms);
  std::printf(
      "(paper: for >10k-column tables, Parquet metadata parse ~= the 10%% "
      "column read itself; Bullion's open cost is negligible)\n");

  bench::PrintHeader("E9 / Table 1: ads column-type breakdown (generator)");
  std::printf("%-36s %10s\n", "Column Type", "# Columns");
  for (const auto& e : workload::Table1Breakdown()) {
    std::printf("%-36s %10u\n", e.type_name.c_str(), e.column_count);
  }
  std::printf("%-36s %10u\n", "TOTAL", workload::Table1TotalColumns());

  bench::PrintHeader("E10 / Fig. 1: top-10 ad tables (PB) + row equivalent");
  double bytes_per_row = workload::EstimateBytesPerRow({});
  std::printf("(schema bytes/row estimate: %.0f KB)\n", bytes_per_row / 1024);
  for (const auto& [name, pb] : workload::Figure1TableSizesPb()) {
    double rows = pb * 1e15 / bytes_per_row;
    std::printf("  table %s  %6.1f PB  ~%.1e rows\n", name.c_str(), pb, rows);
  }
}

void BM_BullionOpenWide(benchmark::State& state) {
  WideCorpus corpus(0.05, 128);
  for (auto _ : state) {
    auto reader = *TableReader::Open(*corpus.fs.NewReadableFile("bullion"));
    benchmark::DoNotOptimize(reader);
  }
}
BENCHMARK(BM_BullionOpenWide);

void BM_ParquetOpenWide(benchmark::State& state) {
  WideCorpus corpus(0.05, 128);
  for (auto _ : state) {
    auto reader =
        *baseline::ParquetLikeReader::Open(*corpus.fs.NewReadableFile("parquet"));
    benchmark::DoNotOptimize(reader);
  }
}
BENCHMARK(BM_ParquetOpenWide);

void BM_BullionProjection10pct(benchmark::State& state) {
  WideCorpus corpus(0.05, 128);
  auto reader = *TableReader::Open(*corpus.fs.NewReadableFile("bullion"));
  for (auto _ : state) {
    std::vector<ColumnVector> out;
    ReadOptions ropts;
    BULLION_CHECK_OK(
        reader->ReadProjection(0, corpus.projection, ropts, &out));
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_BullionProjection10pct)->Unit(benchmark::kMillisecond);

void BM_ParallelScan(benchmark::State& state) {
  static MultiGroupCorpus* corpus = new MultiGroupCorpus(0.05, 2048, 8);
  auto reader = *TableReader::Open(*corpus->fs.NewReadableFile("bullion"));
  size_t threads = static_cast<size_t>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  for (auto _ : state) {
    auto scan = Scan(reader.get())
                    .ColumnIndices(corpus->projection)
                    .Threads(threads)
                    .Pool(pool.get())
                    .Collect();
    BULLION_CHECK(scan.ok());
    benchmark::DoNotOptimize(scan);
  }
  state.SetLabel(std::to_string(threads) + " threads");
}
BENCHMARK(BM_ParallelScan)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bullion

int main(int argc, char** argv) {
  bullion::PrintWideScanReport();
  bullion::PrintParallelScanReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
