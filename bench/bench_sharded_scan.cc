// E12 — dataset layer: sharded parallel scan + decoded-chunk cache.
//
// E12a: one logical ads table sharded 1/2/4/8 ways, collected through
//       bullion::Scan at increasing thread counts on ONE shared pool.
//       Every cell is verified byte-identical to concatenating the
//       per-group serial TableReader reads before it is timed.
// E12b: epoch loop with a DecodedChunkCache — the training-shaped
//       access pattern. The cold epoch pays fetch + decode and fills
//       the cache; warm epochs must issue ZERO preads (asserted via
//       IoStats.read_ops) because every (shard, group, column) chunk
//       is served decoded from the cache. A byte-budgeted cache (half
//       the table) keeps the half it admitted first: epochs 2-3 must
//       hit at least 40% of their probes, where plain LRU would evict
//       every chunk before its next use.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "core/bullion.h"
#include "workload/ads_schema.h"

namespace bullion {
namespace {

using workload::AdsDataOptions;
using workload::BuildAdsSchema;
using workload::GenerateAdsData;

/// A narrow ads table written as `num_shards` Bullion files through
/// ShardedTableWriter, plus a ready ShardedTableReader over them.
struct ShardedCorpus {
  InMemoryFileSystem fs;
  Schema schema;
  std::vector<uint32_t> projection;  // ~10% of leaves
  ShardManifest manifest;
  std::unique_ptr<ShardedTableReader> reader;
  size_t total_rows;

  ShardedCorpus(double scale, size_t total_rows, size_t rows_per_group,
                size_t num_shards)
      : total_rows(total_rows) {
    schema = BuildAdsSchema(scale);
    AdsDataOptions dopts;
    dopts.seq_length = 16;

    ShardedWriterOptions opts;
    opts.rows_per_group = static_cast<uint32_t>(rows_per_group);
    opts.target_rows_per_shard = total_rows / num_shards;
    opts.base_name = "ads";
    opts.writer.rows_per_page = 512;
    ShardedTableWriter writer(schema, opts, [this](const std::string& name) {
      return fs.NewWritableFile(name);
    });
    // Append in row-group-sized batches (streaming-writer shape).
    for (size_t r = 0, seed = 7; r < total_rows;
         r += rows_per_group, ++seed) {
      BULLION_CHECK_OK(writer.Append(
          GenerateAdsData(schema, rows_per_group, seed, dopts)));
    }
    manifest = *writer.Finish();
    reader = *ShardedTableReader::Open(manifest, [this](const std::string& n) {
      return fs.NewReadableFile(n);
    });
    for (uint32_t c = 0; c < schema.num_leaves(); c += 10) {
      projection.push_back(c);
    }
  }

  uint64_t DataBytes() const {
    uint64_t bytes = 0;
    for (const ShardInfo& s : manifest.shards()) {
      bytes += *fs.FileSize(s.name);
    }
    return bytes;
  }
};

void PrintShardedScanReport() {
  bench::PrintHeader(
      "E12a / dataset layer: sharded 10% projection, one shared pool");
  size_t hw = ThreadPool::DefaultThreadCount();
  std::printf("hardware_concurrency: %zu%s\n", hw,
              hw <= 1 ? "  ** SINGLE CORE: parallel rows degenerate to "
                        "<=1x serial; not a scaling measurement **"
                      : "");

  std::printf("%8s %8s %12s %14s %10s %10s\n", "shards", "threads", "scan_ms",
              "MB/s(files)", "speedup", "identical");
  for (size_t shards : {1, 2, 4, 8}) {
    ShardedCorpus corpus(0.02, 4096, 512, shards);
    uint64_t data_bytes = corpus.DataBytes();

    // Ground truth: per-group serial TableReader reads, concatenated
    // shard by shard.
    std::vector<std::vector<ColumnVector>> truth;
    for (size_t s = 0; s < corpus.reader->num_shards(); ++s) {
      const TableReader* shard = corpus.reader->shard_reader(s);
      for (uint32_t g = 0; g < shard->num_row_groups(); ++g) {
        std::vector<ColumnVector> group;
        BULLION_CHECK_OK(shard->ReadProjection(g, corpus.projection,
                                               ReadOptions{}, &group));
        truth.push_back(std::move(group));
      }
    }

    double serial_ms = 0;
    for (size_t threads : {1, 2, 4, 8}) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
      auto scan_once = [&] {
        return Scan(corpus.reader.get())
            .ColumnIndices(corpus.projection)
            .Threads(threads)
            .Pool(pool.get())
            .Collect();
      };
      auto check = scan_once();
      BULLION_CHECK(check.ok());
      bool identical = check->groups == truth;
      double ms = bench::TimeUsAveraged([&] {
                    auto scan = scan_once();
                    BULLION_CHECK(scan.ok());
                    benchmark::DoNotOptimize(scan);
                  }) /
                  1000.0;
      if (threads == 1) serial_ms = ms;
      std::printf("%8zu %8zu %12.3f %14.1f %9.2fx %10s\n", shards, threads,
                  ms, data_bytes / 1048576.0 / (ms / 1000.0), serial_ms / ms,
                  identical ? "yes" : "NO");
    }
  }
  std::printf(
      "(all shards fan through one ThreadPool + one in-flight window; "
      "output == per-group serial reads, concatenated)\n");
}

void PrintEpochCacheReport() {
  bench::PrintHeader(
      "E12b / decoded-chunk cache: cold vs warm training epochs");
  ShardedCorpus corpus(0.02, 4096, 512, 4);
  IoStats& stats = corpus.fs.stats();

  auto epoch = [&](DecodedChunkCache* cache) {
    auto scan = Scan(corpus.reader.get())
                    .ColumnIndices(corpus.projection)
                    .Threads(4)
                    .Cache(cache)
                    .Collect();
    BULLION_CHECK(scan.ok());
    return scan;
  };

  // Unbounded-enough cache: the whole projection fits. Phase accounting
  // uses Snapshot() + IoStatsDelta — the stats object is the SHARED
  // filesystem counters, and Reset()-ing it mid-bench would zero state
  // under any concurrent reader (see io/io_stats.h).
  DecodedChunkCache cache(1ull << 30);
  IoStatsSnapshot before_cold = stats.Snapshot();
  double cold_ms =
      bench::TimeUs([&] { epoch(&cache).status().IgnoreError(); }) / 1000.0;
  IoStatsSnapshot cold_io = IoStatsDelta(before_cold, stats.Snapshot());

  auto cold_result = Scan(corpus.reader.get())
                         .ColumnIndices(corpus.projection)
                         .Collect();

  IoStatsSnapshot before_warm = stats.Snapshot();
  const uint64_t hits_before_warm = cache.hits();
  double warm_ms = bench::TimeUsAveraged([&] {
                     auto scan = epoch(&cache);
                     benchmark::DoNotOptimize(scan);
                   }) /
                   1000.0;
  auto warm_result = epoch(&cache);
  IoStatsSnapshot warm_io = IoStatsDelta(before_warm, stats.Snapshot());
  uint64_t warm_preads = warm_io.read_ops;
  bool identical = warm_result->groups == cold_result->groups;

  std::printf("%8s %12s %10s %14s %12s %12s\n", "epoch", "scan_ms", "preads",
              "bytes_read", "cache_hits", "identical");
  std::printf("%8s %12.3f %10llu %14llu %12llu %12s\n", "cold", cold_ms,
              (unsigned long long)cold_io.read_ops,
              (unsigned long long)cold_io.bytes_read, 0ull, "-");
  std::printf("%8s %12.3f %10llu %14llu %12llu %12s\n", "warm", warm_ms,
              (unsigned long long)warm_preads,
              (unsigned long long)warm_io.bytes_read,
              (unsigned long long)(cache.hits() - hits_before_warm),
              identical ? "yes" : "NO");
  BULLION_CHECK(warm_preads == 0);  // the acceptance criterion
  std::printf(
      "cache: %zu entries, %.1f MB resident; warm epochs issue zero preads "
      "(%.1fx cold/warm)\n",
      cache.num_entries(), cache.size_bytes() / 1048576.0,
      cold_ms / warm_ms);

  // Byte-budgeted run: cap at half the resident set. Epoch 1 fills the
  // cache; in epochs 2-3 every newcomer ties the residents it would
  // displace and is refused, so the residents keep hitting.
  DecodedChunkCache half(cache.size_bytes() / 2);
  epoch(&half).status().IgnoreError();  // epoch() checks ok() itself
  const uint64_t hits_after_first = half.hits();
  const uint64_t misses_after_first = half.misses();
  bool half_identical = true;
  for (int e = 2; e <= 3; ++e) {
    if (epoch(&half)->groups != cold_result->groups) half_identical = false;
  }
  const uint64_t later_hits = half.hits() - hits_after_first;
  const uint64_t later_probes =
      later_hits + (half.misses() - misses_after_first);
  const double later_hit_ratio =
      later_probes == 0 ? 0.0 : static_cast<double>(later_hits) / later_probes;
  std::printf(
      "half-budget cache (%.1f MB cap): hits=%llu misses=%llu "
      "evictions=%llu rejects=%llu; epochs 2-3 hit %llu of %llu probes "
      "(%.3f, must be >= 0.4); output still identical: %s\n",
      half.capacity_bytes() / 1048576.0, (unsigned long long)half.hits(),
      (unsigned long long)half.misses(),
      (unsigned long long)half.evictions(),
      (unsigned long long)half.rejects(), (unsigned long long)later_hits,
      (unsigned long long)later_probes, later_hit_ratio,
      half_identical ? "yes" : "NO");
  BULLION_CHECK(half_identical);
  BULLION_CHECK(later_hit_ratio >= 0.4);
}

void PrintObservabilityReport() {
  bench::PrintHeader(
      "E12c / pipeline observability: per-stage report + registry view");
  ShardedCorpus corpus(0.02, 4096, 512, 4);

  // One reporting scan through the unified front door: the
  // PipelineReport breaks the wall time into stages, the registry
  // histograms below break the I/O into latency percentiles.
  obs::PipelineReport report;
  IoStatsSnapshot before = corpus.fs.stats().Snapshot();
  {
    auto stream = Scan(corpus.reader.get())
                      .ColumnIndices(corpus.projection)
                      .Threads(4)
                      .Report(&report)
                      .Stream();
    BULLION_CHECK(stream.ok());
    RowBatch batch;
    for (;;) {
      auto more = (*stream)->Next(&batch);
      BULLION_CHECK(more.ok());
      if (!*more) break;
      benchmark::DoNotOptimize(batch);
    }
  }
  IoStatsSnapshot scan_io = IoStatsDelta(before, corpus.fs.stats().Snapshot());

  std::printf("%s", report.ToString().c_str());
  bench::PrintIoStats("reporting scan", scan_io);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::HistogramSnapshot pread = reg.GetHistogram("bullion.io.pread_ns")
                                     ->Snapshot();
  obs::HistogramSnapshot qwait =
      reg.GetHistogram("bullion.exec.queue_wait_ns")->Snapshot();
  obs::HistogramSnapshot decode =
      reg.GetHistogram("bullion.format.decode_chunk_ns")->Snapshot();
  std::printf(
      "registry: pread p50 %.1fus p99 %.1fus (%llu ops) | decode p50 %.1fus "
      "p99 %.1fus | queue_wait p50 %.1fus p99 %.1fus | queue_depth now %lld\n",
      pread.p50 / 1e3, pread.p99 / 1e3, (unsigned long long)pread.count,
      decode.p50 / 1e3, decode.p99 / 1e3, qwait.p50 / 1e3, qwait.p99 / 1e3,
      (long long)reg.GetGauge("bullion.exec.queue_depth")->value());

  bench::BenchJsonWriter json("sharded_scan");
  json.AddSection("pipeline_report", report.ToJson());
  json.AddIoStats("reporting_scan_io", scan_io);
  json.WriteWithMetrics();
}

void BM_ShardedScan(benchmark::State& state) {
  static ShardedCorpus* corpus = new ShardedCorpus(0.02, 4096, 512, 4);
  size_t threads = static_cast<size_t>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  for (auto _ : state) {
    auto scan = Scan(corpus->reader.get())
                    .ColumnIndices(corpus->projection)
                    .Threads(threads)
                    .Pool(pool.get())
                    .Collect();
    BULLION_CHECK(scan.ok());
    benchmark::DoNotOptimize(scan);
  }
  state.SetLabel(std::to_string(threads) + " threads, 4 shards");
}
BENCHMARK(BM_ShardedScan)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_WarmEpochScan(benchmark::State& state) {
  static ShardedCorpus* corpus = new ShardedCorpus(0.02, 4096, 512, 4);
  static DecodedChunkCache* cache = new DecodedChunkCache(1ull << 30);
  for (auto _ : state) {
    auto scan = Scan(corpus->reader.get())
                    .ColumnIndices(corpus->projection)
                    .Threads(2)
                    .Cache(cache)
                    .Collect();
    BULLION_CHECK(scan.ok());
    benchmark::DoNotOptimize(scan);
  }
  state.SetLabel("decoded-chunk cache, all hits after iter 1");
}
BENCHMARK(BM_WarmEpochScan)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bullion

int main(int argc, char** argv) {
  bullion::PrintShardedScanReport();
  bullion::PrintEpochCacheReport();
  bullion::PrintObservabilityReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
