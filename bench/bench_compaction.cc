// E14 — dataset evolution: deletion-aware shard compaction + GC.
//
// Matrix: delete fraction x encode threads. For each cell a fresh
// sharded dataset is written, the target fraction of every shard's
// rows is tombstoned in place (§2.1 deletion vectors), and
// DatasetCompactor rewrites the shards whose deleted fraction meets
// the threshold — page encodes fanned across ONE shared
// exec::ThreadPool, commits in shard order, replaced files GC'd.
// Every cell is verified before it is timed: the compacted dataset's
// scan must equal the tombstone-filtered scan of the original
// (scan-equivalence), and the compacted shard files must be
// byte-identical to the 1-thread (serial) rebuild.

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

constexpr size_t kTotalRows = 4096;
constexpr size_t kRowsPerGroup = 512;
constexpr size_t kNumShards = 4;

/// A narrow ads table written as kNumShards Bullion files, with
/// `delete_fraction` of every shard's rows tombstoned in place.
struct TombstonedCorpus {
  InMemoryFileSystem fs;
  Schema schema;
  ShardManifest manifest;

  explicit TombstonedCorpus(double delete_fraction) {
    schema = BuildAdsSchema(0.02);
    AdsDataOptions dopts;
    dopts.seq_length = 16;
    ShardedWriterOptions opts;
    opts.rows_per_group = kRowsPerGroup;
    opts.target_rows_per_shard = kTotalRows / kNumShards;
    opts.base_name = "ads";
    opts.writer.rows_per_page = 256;
    ShardedTableWriter writer(schema, opts, [this](const std::string& name) {
      return fs.NewWritableFile(name);
    });
    for (size_t r = 0, seed = 7; r < kTotalRows; r += kRowsPerGroup, ++seed) {
      BULLION_CHECK_OK(writer.Append(
          GenerateAdsData(schema, kRowsPerGroup, seed, dopts)));
    }
    manifest = *writer.Finish();

    // Tombstone a deterministic `delete_fraction` slice of every shard.
    const uint64_t stride =
        delete_fraction > 0 ? static_cast<uint64_t>(1.0 / delete_fraction) : 0;
    for (size_t s = 0; stride > 0 && s < manifest.num_shards(); ++s) {
      const ShardInfo& info = manifest.shard(s);
      std::vector<uint64_t> doomed;
      for (uint64_t r = 0; r < info.num_rows; r += stride) doomed.push_back(r);
      auto reader = *TableReader::Open(*fs.NewReadableFile(info.name));
      auto rf = *fs.NewReadableFile(info.name);
      auto uf = *fs.OpenForUpdate(info.name);
      DeleteExecutor exec(rf.get(), uf.get(), reader->footer());
      BULLION_CHECK(exec.DeleteRows(doomed, ComplianceLevel::kLevel1).ok());
    }
  }

  Result<std::unique_ptr<ShardedTableReader>> OpenDataset(
      const ShardManifest& m) {
    return ShardedTableReader::Open(
        m, [this](const std::string& n) { return fs.NewReadableFile(n); });
  }

  DatasetCompactor Compactor() {
    return DatasetCompactor(
        [this](const std::string& n) { return fs.NewReadableFile(n); },
        [this](const std::string& n) { return fs.NewWritableFile(n); },
        [this](const std::string& n) { return fs.Delete(n); });
  }

  std::vector<uint8_t> FileBytes(const std::string& name) {
    auto file = *fs.NewReadableFile(name);
    Buffer buf;
    BULLION_CHECK_OK(file->Read(0, *file->Size(), &buf));
    return std::vector<uint8_t>(buf.data(), buf.data() + buf.size());
  }
};

std::vector<ColumnVector> ScanAll(ShardedTableReader* reader) {
  auto scan = Scan(reader).Threads(2).Collect();
  BULLION_CHECK(scan.ok());
  std::vector<ColumnVector> cols;
  for (size_t c = 0; c < scan->columns.size(); ++c) {
    cols.push_back(*scan->ConcatColumn(c));
  }
  return cols;
}

void PrintCompactionReport() {
  bench::PrintHeader(
      "E14 / dataset evolution: deletion-aware shard compaction + GC");
  size_t hw = ThreadPool::DefaultThreadCount();
  std::printf("hardware_concurrency: %zu%s\n", hw,
              hw <= 1 ? "  ** SINGLE CORE: parallel rows degenerate to "
                        "<=1x serial; not a scaling measurement **"
                      : "");
  std::printf("%10s %8s %12s %12s %10s %10s %12s %12s\n", "del_frac",
              "threads", "compact_ms", "reclaim_MB", "speedup", "equiv",
              "serial_eq", "rows_freed");

  for (double fraction : {0.125, 0.25, 0.5}) {
    // Ground truth + serial (1-thread) reference bytes for this
    // fraction, built on an identical corpus.
    TombstonedCorpus serial(fraction);
    auto pre = *serial.OpenDataset(serial.manifest);
    std::vector<ColumnVector> truth = ScanAll(pre.get());
    DatasetCompactionOptions sopts;
    sopts.min_deleted_fraction = 0.1;
    sopts.threads = 1;
    auto serial_report = serial.Compactor().Compact(serial.manifest, sopts);
    BULLION_CHECK(serial_report.ok());
    double serial_ms = 0;

    for (size_t threads : {1, 2, 4, 8}) {
      TombstonedCorpus corpus(fraction);
      DatasetCompactionOptions opts;
      opts.min_deleted_fraction = 0.1;  // every shard qualifies
      opts.threads = threads;

      // Verify the cell before timing it: scan equivalence against the
      // tombstone-filtered original, byte-identity against the serial
      // rebuild, zero deleted rows left behind.
      auto check = corpus.Compactor().Compact(corpus.manifest, opts);
      BULLION_CHECK(check.ok());
      BULLION_CHECK(check->manifest.total_deleted_rows() == 0);
      auto post = *corpus.OpenDataset(check->manifest);
      std::vector<ColumnVector> got = ScanAll(post.get());
      bool equivalent = got.size() == truth.size();
      for (size_t c = 0; equivalent && c < truth.size(); ++c) {
        equivalent = got[c] == truth[c];
      }
      bool serial_identical = true;
      for (size_t s = 0; s < check->manifest.num_shards(); ++s) {
        serial_identical =
            serial_identical &&
            corpus.FileBytes(check->manifest.shard(s).name) ==
                serial.FileBytes(serial_report->manifest.shard(s).name);
      }

      // Time a fresh corpus (compaction consumes its input, so this is
      // a single-shot measurement).
      TombstonedCorpus timed(fraction);
      double ms = bench::TimeUs([&] {
                    auto rep = timed.Compactor().Compact(timed.manifest, opts);
                    BULLION_CHECK(rep.ok());
                    benchmark::DoNotOptimize(rep);
                  }) /
                  1000.0;
      if (threads == 1) serial_ms = ms;
      double reclaimed_mb =
          (check->bytes_before - check->bytes_after) / 1048576.0;
      std::printf("%10.3f %8zu %12.3f %12.2f %9.2fx %10s %12s %12llu\n",
                  fraction, threads, ms, reclaimed_mb, serial_ms / ms,
                  equivalent ? "yes" : "NO",
                  serial_identical ? "yes" : "NO",
                  (unsigned long long)check->rows_reclaimed);
    }
  }
  std::printf(
      "(equiv: compacted scan == tombstone-filtered original; serial_eq: "
      "shard files byte-identical to 1-thread rebuild; replaced files "
      "GC'd)\n");
}

void BM_CompactDataset(benchmark::State& state) {
  size_t threads = static_cast<size_t>(state.range(0));
  DatasetCompactionOptions opts;
  opts.min_deleted_fraction = 0.1;
  opts.threads = threads;
  for (auto _ : state) {
    state.PauseTiming();
    TombstonedCorpus corpus(0.25);
    state.ResumeTiming();
    auto rep = corpus.Compactor().Compact(corpus.manifest, opts);
    BULLION_CHECK(rep.ok());
    benchmark::DoNotOptimize(rep);
  }
  state.SetLabel(std::to_string(threads) + " threads, 25% deleted, 4 shards");
}
BENCHMARK(BM_CompactDataset)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bullion

int main(int argc, char** argv) {
  bullion::PrintCompactionReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
