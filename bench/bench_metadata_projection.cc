// E1 — Figure 5: metadata parsing overhead in feature projection.
//
// Regenerates the paper's Fig. 5 series: time to open a file's metadata
// and locate one column, for files with 1000 / 5000 / 10000 / 20000
// feature columns, Parquet-like (full thrift deserialization) vs
// Bullion (flat footer, zero deserialization).
//
// Paper reference points: Parquet ~52 ms at 10k columns growing
// linearly; Bullion flat under ~2 ms (1.2 ms at 10k). Absolute numbers
// differ by machine; the shape (linear vs flat, ~40x gap at 10k) is
// the reproduction target.
//
// E1b: the same metadata-light open measured end to end through the
// exec layer — Scan(...).Collect() opens, plans coalesced reads, and
// scans one column out of a real multi-group file, so the "open cost
// ≈ 0" claim is shown on the full plan → fetch → decode path.

#include <benchmark/benchmark.h>

#include "baseline/parquet_like.h"
#include "bench/bench_common.h"
#include "common/logging.h"
#include "core/bullion.h"

namespace bullion {
namespace {

/// Builds the two metadata blobs for a file with `cols` float columns
/// and one row group, without materializing data pages.
struct MetadataPair {
  Buffer bullion_footer;
  Buffer parquet_blob;
  std::string probe_column;
};

MetadataPair BuildMetadata(size_t cols) {
  std::vector<Field> fields;
  fields.reserve(cols);
  for (size_t c = 0; c < cols; ++c) {
    fields.push_back({"feature_" + std::to_string(c),
                      DataType::Primitive(PhysicalType::kFloat32),
                      LogicalType::kPlain, false});
  }
  Schema schema(std::move(fields));

  MetadataPair pair;
  pair.probe_column = "feature_" + std::to_string(cols / 2);

  // Bullion footer: one group, one page per column.
  FooterBuilder fb(schema, /*rows_per_page=*/4096, ComplianceLevel::kLevel1);
  fb.BeginRowGroup(4096);
  uint64_t offset = 0;
  for (uint32_t c = 0; c < cols; ++c) {
    uint32_t page = fb.AddPage(offset, 4096, 0, 0x1234 + c);
    fb.SetChunk(0, c, offset, page);
    offset += 16384;
  }
  pair.bullion_footer = *fb.Finish(offset, 4096);

  // Parquet-like FileMetaData with the same logical content.
  baseline::FileMetaData meta;
  meta.num_rows = 4096;
  baseline::RowGroupMeta rg;
  rg.num_rows = 4096;
  uint64_t poff = 0;
  for (size_t c = 0; c < cols; ++c) {
    meta.schema.push_back({"feature_" + std::to_string(c),
                           static_cast<int64_t>(PhysicalType::kFloat32), 0,
                           0});
    baseline::ColumnChunkMeta cc;
    cc.path_in_schema = "feature_" + std::to_string(c);
    cc.file_offset = static_cast<int64_t>(poff);
    cc.total_compressed_size = 16384;
    cc.total_uncompressed_size = 16384;
    cc.num_values = 4096;
    cc.data_page_offset = cc.file_offset;
    cc.page_offsets = {cc.file_offset};
    cc.page_row_counts = {4096};
    cc.encodings = {0};
    cc.stat_min = std::string(8, 'a');
    cc.stat_max = std::string(8, 'z');
    poff += 16384;
    rg.total_byte_size += 16384;
    rg.columns.push_back(std::move(cc));
  }
  meta.row_groups.push_back(std::move(rg));
  pair.parquet_blob = baseline::SerializeFileMetaData(meta);
  return pair;
}

double ParquetParseUs(const MetadataPair& pair) {
  return bench::TimeUsAveraged([&] {
    auto meta = baseline::ParseFileMetaData(pair.parquet_blob.AsSlice());
    BULLION_CHECK(meta.ok());
    // Locate the probe column the way Parquet readers do: scan the
    // parsed schema.
    bool found = false;
    for (const auto& el : meta->schema) {
      if (el.name == pair.probe_column) {
        found = true;
        break;
      }
    }
    BULLION_CHECK(found);
    benchmark::DoNotOptimize(found);
  });
}

double BullionParseUs(const MetadataPair& pair) {
  return bench::TimeUsAveraged([&] {
    auto view = FooterView::Parse(pair.bullion_footer.AsSlice(), 0);
    BULLION_CHECK(view.ok());
    auto col = view->FindColumn(pair.probe_column);
    BULLION_CHECK(col.ok());
    uint64_t range = view->chunk_offset(0, *col);
    benchmark::DoNotOptimize(range);
  });
}

void PrintFigure5() {
  bench::PrintHeader(
      "E1 / Figure 5: metadata parse + single-column locate (ms)");
  std::printf("%10s %18s %18s %10s %14s %14s\n", "#features",
              "parquet_like(ms)", "bullion(ms)", "speedup",
              "parquet_KB", "bullion_KB");
  for (size_t cols : {1000, 5000, 10000, 20000}) {
    MetadataPair pair = BuildMetadata(cols);
    double pq = ParquetParseUs(pair) / 1000.0;
    double bl = BullionParseUs(pair) / 1000.0;
    std::printf("%10zu %18.3f %18.4f %9.1fx %14.1f %14.1f\n", cols, pq, bl,
                pq / bl, pair.parquet_blob.size() / 1024.0,
                pair.bullion_footer.size() / 1024.0);
  }
  std::printf(
      "(paper: Parquet ~52 ms at 10k features, linear; Bullion flat ~1.2 "
      "ms)\n");
}

void PrintScannerOpenScan() {
  bench::PrintHeader(
      "E1b / exec layer: open + plan + scan one of N float columns");

  for (size_t cols : {256, 1024}) {
    InMemoryFileSystem fs;
    std::vector<Field> fields;
    fields.reserve(cols);
    for (size_t c = 0; c < cols; ++c) {
      fields.push_back({"feature_" + std::to_string(c),
                        DataType::Primitive(PhysicalType::kFloat32),
                        LogicalType::kPlain, false});
    }
    Schema schema(std::move(fields));
    constexpr size_t kGroups = 4, kRows = 1024;
    std::vector<std::vector<ColumnVector>> groups(kGroups);
    for (size_t g = 0; g < kGroups; ++g) {
      for (size_t c = 0; c < cols; ++c) {
        ColumnVector col(PhysicalType::kFloat32, 0);
        for (size_t r = 0; r < kRows; ++r) {
          col.AppendReal(0.25 * static_cast<double>((g + 1) * r + c));
        }
        groups[g].push_back(std::move(col));
      }
    }
    WriterOptions wopts;
    wopts.rows_per_page = 512;
    auto f = fs.NewWritableFile("t");
    BULLION_CHECK_OK(WriteTableFile(f->get(), schema, groups, wopts));

    std::string probe = "feature_" + std::to_string(cols / 2);
    auto reader = *TableReader::Open(*fs.NewReadableFile("t"));
    auto probe_col = *reader->ResolveColumns({probe});
    ReadPlan plan = *reader->PlanProjection(0, probe_col, ReadOptions{});

    double open_scan_ms = bench::TimeUsAveraged([&] {
      auto r = *TableReader::Open(*fs.NewReadableFile("t"));
      auto scan = Scan(r.get()).Columns({probe}).Collect();
      BULLION_CHECK(scan.ok());
      benchmark::DoNotOptimize(scan);
    }) / 1000.0;

    std::printf(
        "%6zu cols: open+scan %8.3f ms   plan/group: %zu read(s), %llu "
        "chunk bytes, %llu I/O bytes\n",
        cols, open_scan_ms, plan.num_reads(),
        static_cast<unsigned long long>(plan.total_chunk_bytes()),
        static_cast<unsigned long long>(plan.total_io_bytes()));
  }
  std::printf(
      "(the whole-file scan costs decode, not metadata: the flat footer "
      "keeps open+plan flat as columns grow)\n");
}

void BM_ParquetMetadataParse(benchmark::State& state) {
  MetadataPair pair = BuildMetadata(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto meta = baseline::ParseFileMetaData(pair.parquet_blob.AsSlice());
    benchmark::DoNotOptimize(meta);
  }
  state.SetLabel(std::to_string(state.range(0)) + " columns");
}
BENCHMARK(BM_ParquetMetadataParse)->Arg(1000)->Arg(5000)->Arg(10000)->Arg(20000);

void BM_BullionMetadataParse(benchmark::State& state) {
  MetadataPair pair = BuildMetadata(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto view = FooterView::Parse(pair.bullion_footer.AsSlice(), 0);
    auto col = view->FindColumn(pair.probe_column);
    benchmark::DoNotOptimize(col);
  }
  state.SetLabel(std::to_string(state.range(0)) + " columns");
}
BENCHMARK(BM_BullionMetadataParse)->Arg(1000)->Arg(5000)->Arg(10000)->Arg(20000);

}  // namespace
}  // namespace bullion

int main(int argc, char** argv) {
  bullion::PrintFigure5();
  bullion::PrintScannerOpenScan();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
