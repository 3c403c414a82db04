// E15 — unified streaming scan with zone-map predicate pushdown.
//
// E15a: pruning × threads matrix over a sharded table whose sort key
//       is range-partitioned across shards/groups (the ads-table
//       "scan a slice of a huge table" shape). Each cell streams
//       `Scan(ds).Filter(uid < cut)` and reports wall time next to
//       the cell's first scan: its PipelineReport (groups_pruned /
//       batches) and its preads (read_ops / bytes_read). Every cell
//       asserts the filtered stream returns EXACTLY the rows a full
//       scan + row-level filter would, that any selective cut issues
//       fewer preads than the full scan and prunes at least one group
//       (pruned groups cost zero I/O), and that those per-scan counts
//       are the same at every thread count.
// E15b: bounded-batch streaming — the batch-size sweep shows the
//       stream's memory knob; total rows are asserted invariant.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "core/bullion.h"

namespace bullion {
namespace {

/// A table whose uid column is ordered (uid == row index), written as
/// `num_shards` Bullion files: uid predicates align with shard/group
/// boundaries, the layout §3's feature-reordered training tables have.
struct OrderedCorpus {
  InMemoryFileSystem fs;
  Schema schema;
  ShardManifest manifest;
  std::unique_ptr<ShardedTableReader> reader;
  size_t total_rows;

  OrderedCorpus(size_t total_rows, size_t rows_per_group, size_t num_shards)
      : total_rows(total_rows) {
    schema = Schema({
        Field{"uid", DataType::Primitive(PhysicalType::kInt64),
              LogicalType::kPlain, true},
        Field{"score", DataType::Primitive(PhysicalType::kFloat64),
              LogicalType::kPlain, false},
        Field{"clk_seq",
              DataType::List(DataType::Primitive(PhysicalType::kInt64)),
              LogicalType::kIdSequence, false},
    });
    std::vector<ColumnVector> cols;
    for (const LeafColumn& leaf : schema.leaves()) {
      cols.push_back(ColumnVector::ForLeaf(leaf));
    }
    for (size_t r = 0; r < total_rows; ++r) {
      cols[0].AppendInt(static_cast<int64_t>(r));
      cols[1].AppendReal(static_cast<double>(r) / total_rows);
      cols[2].AppendIntList({static_cast<int64_t>(r % 97),
                             static_cast<int64_t>(r % 89)});
    }
    ShardedWriterOptions opts;
    opts.rows_per_group = static_cast<uint32_t>(rows_per_group);
    opts.target_rows_per_shard = total_rows / num_shards;
    opts.base_name = "ordered";
    opts.writer.rows_per_page = 256;
    ShardedTableWriter writer(schema, opts, [this](const std::string& name) {
      return fs.NewWritableFile(name);
    });
    BULLION_CHECK_OK(writer.Append(cols));
    manifest = *writer.Finish();
    reader = *ShardedTableReader::Open(manifest, [this](const std::string& n) {
      return fs.NewReadableFile(n);
    });
  }
};

/// One scan's pruning, batch and pread counts (an E15a cell).
struct ScanCounts {
  uint64_t groups_pruned = 0;
  uint64_t batches = 0;
  uint64_t read_ops = 0;
  uint64_t bytes_read = 0;

  bool operator==(const ScanCounts&) const = default;
};

uint64_t DrainRows(BatchStream* stream) {
  uint64_t rows = 0;
  RowBatch batch;
  for (;;) {
    auto more = stream->Next(&batch);
    BULLION_CHECK(more.ok());
    if (!*more) break;
    rows += batch.num_rows();
  }
  return rows;
}

void PrintFilteredScanReport() {
  bench::PrintHeader(
      "E15a / unified streaming scan: zone-map pruning x threads");
  size_t hw = ThreadPool::DefaultThreadCount();
  std::printf("hardware_concurrency: %zu%s\n", hw,
              hw <= 1 ? "  ** SINGLE CORE: parallel rows degenerate to "
                        "<=1x serial; not a scaling measurement **"
                      : "");

  const size_t kRows = 65536, kRowsPerGroup = 2048, kShards = 8;
  OrderedCorpus corpus(kRows, kRowsPerGroup, kShards);

  // Full-scan pread baseline (per scan) for the skipped-I/O assert —
  // snapshot/delta, not Reset(): the filesystem stats are shared.
  IoStatsSnapshot before_full = corpus.fs.stats().Snapshot();
  {
    auto full = Scan(corpus.reader.get()).Columns({"uid", "score"}).Stream();
    BULLION_CHECK(full.ok());
    BULLION_CHECK(DrainRows(full->get()) == kRows);
  }
  const IoStatsSnapshot full_io =
      IoStatsDelta(before_full, corpus.fs.stats().Snapshot());
  const uint64_t full_reads = full_io.read_ops;
  bench::PrintIoStats("full-scan baseline", full_io);

  std::printf("%10s %8s %10s %10s %8s %8s %10s %10s %8s\n", "selectivity",
              "threads", "scan_ms", "rows_out", "grp_prn", "batches",
              "read_ops", "MB_read", "exact");
  for (double keep : {1.0, 0.5, 0.125, 1.0 / kShards / 4, 0.0}) {
    const int64_t cut = static_cast<int64_t>(keep * kRows);
    const uint64_t want_rows = static_cast<uint64_t>(cut);
    ScanCounts row_counts;
    for (size_t threads : {1, 2, 4, 8}) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
      auto scan_once = [&](obs::PipelineReport* report) {
        auto stream = Scan(corpus.reader.get())
                          .Columns({"uid", "score"})
                          .Filter("uid", CompareOp::kLt, cut)
                          .Threads(threads)
                          .Pool(pool.get())
                          .Report(report)
                          .Stream();
        BULLION_CHECK(stream.ok());
        return DrainRows(stream->get());
      };
      obs::PipelineReport report;
      IoStatsSnapshot before = corpus.fs.stats().Snapshot();
      uint64_t rows_out = scan_once(&report);
      const IoStatsSnapshot first_io =
          IoStatsDelta(before, corpus.fs.stats().Snapshot());
      BULLION_CHECK(rows_out == want_rows);  // exactness, every cell
      const ScanCounts counts{report.groups_pruned.load(),
                              report.batches.load(), first_io.read_ops,
                              first_io.bytes_read};
      // Selective cuts must skip preads, not just filter rows.
      if (keep < 1.0) {
        BULLION_CHECK(counts.read_ops < full_reads);
        BULLION_CHECK(counts.groups_pruned > 0);
      }
      // Pruning and read planning do not depend on the thread count.
      if (threads == 1) row_counts = counts;
      BULLION_CHECK(counts == row_counts);
      double ms = bench::TimeUsAveraged([&] { scan_once(nullptr); }) / 1000.0;
      std::printf(
          "%10.4f %8zu %10.3f %10llu %8llu %8llu %10llu %10.2f %8s\n",
          keep, threads, ms, (unsigned long long)rows_out,
          (unsigned long long)counts.groups_pruned,
          (unsigned long long)counts.batches,
          (unsigned long long)counts.read_ops,
          counts.bytes_read / 1048576.0, "yes");
    }
  }
  std::printf(
      "(grp_prn = row groups skipped before any pread; every count is the "
      "cell's first scan, equal at every thread count)\n");
}

void PrintBatchSizeReport() {
  bench::PrintHeader("E15b / bounded-batch streaming: batch-size sweep");
  OrderedCorpus corpus(65536, 2048, 8);
  std::printf("%12s %10s %10s %10s\n", "batch_rows", "scan_ms", "batches",
              "rows_out");
  for (uint64_t batch_rows : {0ull, 512ull, 4096ull, 65536ull}) {
    auto scan_once = [&](obs::PipelineReport* report) {
      auto stream = Scan(corpus.reader.get())
                        .Columns({"uid", "score"})
                        .BatchRows(batch_rows)
                        .Threads(2)
                        .Report(report)
                        .Stream();
      BULLION_CHECK(stream.ok());
      return DrainRows(stream->get());
    };
    obs::PipelineReport report;
    uint64_t rows = scan_once(&report);
    BULLION_CHECK(rows == corpus.total_rows);
    uint64_t batches = report.batches.load();
    double ms = bench::TimeUsAveraged([&] { scan_once(nullptr); }) / 1000.0;
    std::printf("%12llu %10.3f %10llu %10llu\n",
                (unsigned long long)batch_rows, ms,
                (unsigned long long)batches, (unsigned long long)rows);
  }
  std::printf("(batch_rows 0 = one batch per row group)\n");
}

void BM_FilteredStream(benchmark::State& state) {
  static OrderedCorpus* corpus = new OrderedCorpus(65536, 2048, 8);
  const int64_t cut = state.range(0);
  for (auto _ : state) {
    auto stream = Scan(corpus->reader.get())
                      .Columns({"uid", "score"})
                      .Filter("uid", CompareOp::kLt, cut)
                      .Threads(2)
                      .Stream();
    BULLION_CHECK(stream.ok());
    benchmark::DoNotOptimize(DrainRows(stream->get()));
  }
  state.SetLabel("uid < " + std::to_string(cut) + " of 65536");
}
BENCHMARK(BM_FilteredStream)
    ->Arg(65536)
    ->Arg(8192)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bullion

int main(int argc, char** argv) {
  bullion::PrintFilteredScanReport();
  bullion::PrintBatchSizeReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
