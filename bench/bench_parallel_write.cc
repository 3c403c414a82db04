// E13 — parallel write path: stage → encode → commit.
//
// E13a: one ads table written through a TableWriter on a ThreadPool
//       of increasing size, at two row-group sizes. Every cell is
//       verified byte-identical to the TableWriter without a pool
//       before it is timed — the commit stage places all bytes, so
//       scheduling never changes the file.
// E13b: the same stream written as a 4-shard dataset through
//       ShardedWriteBuilder — every shard's TableWriter encodes on one
//       shared pool, and a full shard is finished while the next
//       shard's first group encodes.
//
// On single-core CI containers the speedup column degenerates to <=1x
// (labeled below, like E11/E12a); rerun on multicore hardware for the
// real curve.

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

/// Pre-generated row-group batches of a narrow ads table.
struct WriteCorpus {
  Schema schema;
  std::vector<std::vector<ColumnVector>> groups;
  WriterOptions wopts;

  WriteCorpus(double scale, size_t total_rows, size_t rows_per_group) {
    schema = BuildAdsSchema(scale);
    AdsDataOptions dopts;
    dopts.seq_length = 16;
    for (size_t r = 0, seed = 7; r < total_rows;
         r += rows_per_group, ++seed) {
      groups.push_back(GenerateAdsData(schema, rows_per_group, seed, dopts));
    }
    wopts.rows_per_page = 512;
  }
};

/// Lends a corpus group to a writer without copying it: the corpus
/// outlives every write.
std::shared_ptr<const std::vector<ColumnVector>> Borrow(
    const std::vector<ColumnVector>& group) {
  return {&group, [](const std::vector<ColumnVector>*) {}};
}

std::vector<uint8_t> FileBytes(const InMemoryFileSystem& fs,
                               const std::string& name) {
  auto file = *fs.NewReadableFile(name);
  Buffer buf;
  BULLION_CHECK_OK(file->Read(0, *file->Size(), &buf));
  return std::vector<uint8_t>(buf.data(), buf.data() + buf.size());
}

void PrintParallelWriteReport() {
  bench::PrintHeader(
      "E13a / parallel write: encode fan-out, ordered commit");
  size_t hw = ThreadPool::DefaultThreadCount();
  std::printf("hardware_concurrency: %zu%s\n", hw,
              hw <= 1 ? "  ** SINGLE CORE: parallel rows degenerate to "
                        "<=1x serial; not a scaling measurement **"
                      : "");

  std::printf("%10s %8s %12s %14s %10s %10s\n", "grp_rows", "threads",
              "write_ms", "MB/s(file)", "speedup", "identical");
  for (size_t rows_per_group : {256, 1024}) {
    WriteCorpus corpus(0.02, 2048, rows_per_group);
    InMemoryFileSystem fs;

    // Ground truth: the TableWriter without a pool.
    {
      auto f = *fs.NewWritableFile("serial");
      BULLION_CHECK_OK(
          WriteTableFile(f.get(), corpus.schema, corpus.groups, corpus.wopts));
    }
    std::vector<uint8_t> truth = FileBytes(fs, "serial");
    uint64_t data_bytes = truth.size();

    double serial_ms = 0;
    for (size_t threads : {1, 2, 4, 8}) {
      ThreadPool pool(threads);
      auto write_once = [&] {
        auto f = *fs.NewWritableFile("par");
        TableWriter writer(corpus.schema, f.get(), corpus.wopts, &pool);
        for (const auto& g : corpus.groups) {
          BULLION_CHECK_OK(writer.WriteRowGroup(Borrow(g)));
        }
        BULLION_CHECK_OK(writer.Finish());
      };
      write_once();
      bool identical = FileBytes(fs, "par") == truth;
      double ms = bench::TimeUsAveraged(write_once) / 1000.0;
      if (threads == 1) serial_ms = ms;
      std::printf("%10zu %8zu %12.3f %14.1f %9.2fx %10s\n", rows_per_group,
                  threads, ms, data_bytes / 1048576.0 / (ms / 1000.0),
                  serial_ms / ms, identical ? "yes" : "NO");
    }
  }
  std::printf(
      "(encode tasks fan out per page; commits append in placement order, "
      "so bytes match the serial writer at any thread count)\n");
}

void PrintShardedWriteReport() {
  bench::PrintHeader(
      "E13b / sharded parallel write: all shards on one pool");
  WriteCorpus corpus(0.02, 2048, 256);

  auto write_all = [&](InMemoryFileSystem* fs, size_t threads) {
    auto writer = ShardedWriteBuilder(corpus.schema,
                                      [fs](const std::string& name) {
                                        return fs->NewWritableFile(name);
                                      })
                      .BaseName("ads")
                      .RowsPerShard(512)   // -> 4 shards
                      .RowsPerGroup(256)
                      .Options(corpus.wopts)
                      .Threads(threads)
                      .Build();
    BULLION_CHECK(writer.ok());
    for (const auto& g : corpus.groups) {
      BULLION_CHECK_OK((*writer)->Append(g));
    }
    return *(*writer)->Finish();
  };

  InMemoryFileSystem serial_fs;
  ShardManifest truth = write_all(&serial_fs, 1);
  uint64_t data_bytes = 0;
  for (const ShardInfo& s : truth.shards()) {
    data_bytes += *serial_fs.FileSize(s.name);
  }

  std::printf("%8s %8s %12s %14s %10s %10s\n", "shards", "threads",
              "write_ms", "MB/s(files)", "speedup", "identical");
  double serial_ms = 0;
  for (size_t threads : {1, 2, 4, 8}) {
    InMemoryFileSystem fs;
    ShardManifest manifest = write_all(&fs, threads);
    bool identical = manifest.num_shards() == truth.num_shards();
    for (size_t s = 0; identical && s < truth.num_shards(); ++s) {
      identical = FileBytes(fs, truth.shard(s).name) ==
                  FileBytes(serial_fs, truth.shard(s).name);
    }
    double ms = bench::TimeUsAveraged([&] {
                  InMemoryFileSystem scratch;
                  ShardManifest m = write_all(&scratch, threads);
                  benchmark::DoNotOptimize(m);
                }) /
                1000.0;
    if (threads == 1) serial_ms = ms;
    std::printf("%8zu %8zu %12.3f %14.1f %9.2fx %10s\n",
                truth.num_shards(), threads, ms,
                data_bytes / 1048576.0 / (ms / 1000.0), serial_ms / ms,
                identical ? "yes" : "NO");
  }
  std::printf(
      "(one shared pool; each shard's drain overlaps the next shard's "
      "first encodes; shard files and manifest match the serial "
      "writer)\n");
}

void BM_ParallelWrite(benchmark::State& state) {
  static WriteCorpus* corpus = new WriteCorpus(0.02, 2048, 256);
  size_t threads = static_cast<size_t>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  InMemoryFileSystem fs;
  for (auto _ : state) {
    auto f = *fs.NewWritableFile("t");
    TableWriter writer(corpus->schema, f.get(), corpus->wopts, pool.get());
    for (const auto& g : corpus->groups) {
      BULLION_CHECK_OK(writer.WriteRowGroup(Borrow(g)));
    }
    BULLION_CHECK_OK(writer.Finish());
  }
  state.SetLabel(std::to_string(threads) + " encode threads");
}
BENCHMARK(BM_ParallelWrite)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

}  // namespace
}  // namespace bullion

int main(int argc, char** argv) {
  bullion::PrintParallelWriteReport();
  bullion::PrintShardedWriteReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
