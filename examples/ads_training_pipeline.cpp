// Ads training pipeline: generates a wide ads table shaped like the
// paper's Table 1, writes it with sliding-window sparse-feature
// encoding, then runs a training-style loop that projects ~10% of the
// columns in mini-batches — the §2.3 access pattern.
//
//   ./build/examples/ads_training_pipeline [scale] [rows]
//   (scale 0.02 ~= 360 logical columns; default keeps runtime short)

#include <cstdio>
#include <cstdlib>

#include "core/bullion.h"
#include "workload/ads_schema.h"

using namespace bullion;  // NOLINT(google-build-using-namespace)

int main(int argc, char** argv) {
  double scale = argc > 1 ? std::atof(argv[1]) : 0.02;
  size_t rows = argc > 2 ? static_cast<size_t>(std::atoll(argv[2])) : 2048;

  Schema schema = workload::BuildAdsSchema(scale);
  std::printf("ads schema: %zu fields -> %zu leaf columns\n",
              schema.num_fields(), schema.num_leaves());

  workload::AdsDataOptions dopts;
  dopts.seq_length = 32;
  std::vector<ColumnVector> data =
      workload::GenerateAdsData(schema, rows, 7, dopts);

  InMemoryFileSystem fs;
  {
    WriterOptions wopts;
    wopts.rows_per_page = 512;
    auto f = fs.NewWritableFile("ads");
    Status st = WriteTableFile(f->get(), schema, {data}, wopts);
    if (!st.ok()) {
      std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  uint64_t file_size = *fs.FileSize("ads");
  std::printf("file: %.2f MB for %zu rows x %zu columns\n",
              file_size / 1048576.0, rows, schema.num_leaves());

  // Training job: project every 10th feature (a ~10% feature
  // projection, as the paper reports for production jobs).
  auto reader = *TableReader::Open(*fs.NewReadableFile("ads"));
  std::vector<uint32_t> projection;
  for (uint32_t c = 0; c < reader->num_columns(); c += 10) {
    projection.push_back(c);
  }

  fs.ResetStats();
  ReadOptions ropts;
  std::vector<ColumnVector> batch;
  Status st = reader->ReadProjection(0, projection, ropts, &batch);
  if (!st.ok()) {
    std::fprintf(stderr, "projection failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // "Train": consume the decoded features (here: checksum them).
  uint64_t consumed_values = 0;
  for (const ColumnVector& col : batch) {
    consumed_values += col.LeafCount();
  }
  IoStats io = fs.stats();
  std::printf(
      "projected %zu/%u columns: %llu values, %.2f MB read in %llu "
      "coalesced I/Os (%.1f%% of file)\n",
      projection.size(), reader->num_columns(),
      static_cast<unsigned long long>(consumed_values),
      io.bytes_read / 1048576.0,
      static_cast<unsigned long long>(io.read_ops),
      100.0 * io.bytes_read / file_size);

  // Feature-reordered layout: co-accessed features placed adjacently
  // (Alpha-style, §3) — fewer, larger coalesced reads.
  {
    std::vector<uint32_t> order;
    for (uint32_t c : projection) order.push_back(c);
    for (uint32_t c = 0; c < schema.num_leaves(); ++c) {
      if (c % 10 != 0) order.push_back(c);
    }
    WriterOptions wopts;
    wopts.rows_per_page = 512;
    wopts.column_order = order;
    auto f = fs.NewWritableFile("ads_reordered");
    BULLION_CHECK_OK(WriteTableFile(f->get(), schema, {data}, wopts));
    auto r2 = *TableReader::Open(*fs.NewReadableFile("ads_reordered"));
    fs.ResetStats();
    std::vector<ColumnVector> batch2;
    BULLION_CHECK_OK(r2->ReadProjection(0, projection, ropts, &batch2));
    std::printf(
        "with feature reordering: %llu I/Os, %llu seeks (vs %llu before)\n",
        static_cast<unsigned long long>(fs.stats().read_ops),
        static_cast<unsigned long long>(fs.stats().seeks),
        static_cast<unsigned long long>(io.read_ops));
  }
  return 0;
}
