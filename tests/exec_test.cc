// Exec-layer tests: thread pool / task group semantics, Scan(...)
// .Collect() behavior, and the headline determinism claim — a parallel
// scan is byte-identical to the serial TableReader path.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <vector>

#include "core/bullion.h"

namespace bullion {
namespace {

// ---------------------------------------------------------------- pool

TEST(ThreadPool, RunsEveryScheduledTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 200; ++i) {
      pool.Schedule([&counter] { counter.fetch_add(1); });
    }
    // Destructor joins after draining the queue.
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  int x = 0;
  pool.Schedule([&x] { x = 42; });
  EXPECT_EQ(x, 42);
}

TEST(TaskGroup, WaitCollectsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  TaskGroup group(&pool, /*max_in_flight=*/4);
  for (int i = 0; i < 50; ++i) {
    group.Submit([&counter] {
      counter.fetch_add(1);
      return Status::OK();
    });
  }
  EXPECT_TRUE(group.Wait().ok());
  EXPECT_EQ(counter.load(), 50);
}

TEST(TaskGroup, ReportsFirstErrorInSubmissionOrder) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  group.Submit([] { return Status::OK(); });
  group.Submit([] { return Status::Corruption("first failure"); });
  group.Submit([] { return Status::InvalidArgument("second failure"); });
  Status st = group.Wait();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
}

TEST(TaskGroup, NullPoolRunsInline) {
  TaskGroup group(nullptr);
  int x = 0;
  group.Submit([&x] {
    x = 7;
    return Status::OK();
  });
  EXPECT_TRUE(group.Wait().ok());
  EXPECT_EQ(x, 7);
}

// ------------------------------------------------------------- scanner

Schema MakeMixedSchema() {
  std::vector<Field> fields;
  fields.push_back({"uid", DataType::Primitive(PhysicalType::kInt64),
                    LogicalType::kPlain, true});
  fields.push_back({"score", DataType::Primitive(PhysicalType::kFloat64),
                    LogicalType::kQualityScore, false});
  fields.push_back({"tag", DataType::Primitive(PhysicalType::kBinary),
                    LogicalType::kPlain, false});
  fields.push_back({"clk_seq",
                    DataType::List(DataType::Primitive(PhysicalType::kInt64)),
                    LogicalType::kIdSequence, false});
  fields.push_back({"emb",
                    DataType::List(DataType::Primitive(PhysicalType::kFloat32)),
                    LogicalType::kEmbedding, false});
  return Schema(std::move(fields));
}

std::vector<ColumnVector> MakeMixedData(const Schema& schema, size_t rows,
                                        uint64_t seed) {
  Random rng(seed);
  std::vector<ColumnVector> cols;
  for (const LeafColumn& leaf : schema.leaves()) {
    cols.push_back(ColumnVector::ForLeaf(leaf));
  }
  std::vector<int64_t> window;
  for (size_t r = 0; r < rows; ++r) {
    cols[0].AppendInt(static_cast<int64_t>(r / 3));
    cols[1].AppendReal(rng.NextDouble());
    cols[2].AppendBinary("tag" + std::to_string(r % 7));
    if (window.empty() || rng.Bernoulli(0.25)) {
      window.insert(window.begin(), rng.UniformRange(0, 99));
      if (window.size() > 12) window.pop_back();
    }
    cols[3].AppendIntList(window);
    std::vector<double> emb(6);
    for (double& x : emb) x = std::tanh(rng.NextGaussian());
    cols[4].AppendRealList(emb);
  }
  return cols;
}

struct ScanFixture {
  InMemoryFileSystem fs;
  Schema schema = MakeMixedSchema();
  std::unique_ptr<TableReader> reader;

  explicit ScanFixture(size_t groups, size_t rows_per_group = 400) {
    std::vector<std::vector<ColumnVector>> data;
    for (size_t g = 0; g < groups; ++g) {
      data.push_back(MakeMixedData(schema, rows_per_group, 1000 + g));
    }
    WriterOptions wopts;
    wopts.rows_per_page = 64;
    auto f = fs.NewWritableFile("t");
    EXPECT_TRUE(WriteTableFile(f->get(), schema, data, wopts).ok());
    reader = *TableReader::Open(*fs.NewReadableFile("t"));
  }
};

TEST(Scanner, ParallelScanIsByteIdenticalToSerialReader) {
  ScanFixture fx(6);
  std::vector<uint32_t> projection = {0, 2, 4};

  // Ground truth: the serial TableReader path, group by group.
  std::vector<std::vector<ColumnVector>> serial(6);
  ReadOptions ropts;
  for (uint32_t g = 0; g < 6; ++g) {
    ASSERT_TRUE(
        fx.reader->ReadProjection(g, projection, ropts, &serial[g]).ok());
  }

  for (size_t threads : {1, 2, 4, 8}) {
    auto scan = Scan(fx.reader.get())
                    .ColumnIndices(projection)
                    .Threads(threads)
                    .Collect();
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    ASSERT_EQ(scan->groups.size(), serial.size());
    for (size_t g = 0; g < serial.size(); ++g) {
      ASSERT_EQ(scan->groups[g].size(), serial[g].size());
      for (size_t c = 0; c < serial[g].size(); ++c) {
        EXPECT_EQ(scan->groups[g][c], serial[g][c])
            << "threads=" << threads << " group=" << g << " slot=" << c;
      }
    }
  }
}

TEST(Scanner, TinyCoalesceWindowStillDeterministic) {
  // Forcing one read per chunk maximizes task count and scheduling
  // interleavings; output must not change.
  ScanFixture fx(4);
  ReadOptions tight;
  tight.coalesce_gap_bytes = 0;
  tight.max_coalesced_bytes = 1;

  auto serial = Scan(fx.reader.get()).Options(tight).Threads(1).Collect();
  auto parallel = Scan(fx.reader.get()).Options(tight).Threads(4).Collect();
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->groups, serial->groups);
}

TEST(Scanner, ColumnNamesResolveInProjectionOrder) {
  ScanFixture fx(2);
  auto scan = Scan(fx.reader.get())
                  .Columns({"score", "uid"})
                  .Threads(2)
                  .Collect();
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->columns.size(), 2u);
  EXPECT_EQ(fx.reader->footer().column_name(scan->columns[0]), "score");
  EXPECT_EQ(fx.reader->footer().column_name(scan->columns[1]), "uid");
  EXPECT_EQ(scan->groups[0][1].physical(), PhysicalType::kInt64);
}

TEST(Scanner, DefaultProjectionIsAllLeaves) {
  ScanFixture fx(2);
  auto scan = Scan(fx.reader.get()).Threads(2).Collect();
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->columns.size(), fx.schema.num_leaves());
  EXPECT_EQ(scan->num_rows(), 800u);
}

TEST(Scanner, RowGroupRangeSelectsSubset) {
  ScanFixture fx(5);
  auto scan = Scan(fx.reader.get())
                  .ColumnIndices({1})
                  .RowGroups(1, 3)
                  .Threads(3)
                  .Collect();
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->num_groups(), 2u);
  EXPECT_EQ(scan->group_begin, 1u);

  std::vector<ColumnVector> expect;
  ReadOptions ropts;
  ASSERT_TRUE(fx.reader->ReadProjection(1, {1}, ropts, &expect).ok());
  EXPECT_EQ(scan->groups[0][0], expect[0]);
}

TEST(Scanner, ConcatColumnMatchesPerChunkReads) {
  ScanFixture fx(3);
  // Ground truth: the pre-exec-layer idiom — append every chunk of the
  // column into one vector with ReadColumnChunk.
  ColumnVector expect(PhysicalType::kFloat64, 0);
  ReadOptions ropts;
  for (uint32_t g = 0; g < 3; ++g) {
    ColumnVector chunk;
    ASSERT_TRUE(fx.reader->ReadColumnChunk(g, 1, ropts, &chunk).ok());
    expect.AppendAllFrom(chunk);
  }

  for (size_t threads : {1, 4}) {
    auto col = ReadFullColumn(fx.reader.get(), "score", ropts, threads);
    ASSERT_TRUE(col.ok());
    EXPECT_EQ(*col, expect) << "threads=" << threads;
  }
}

TEST(ColumnVector, BulkAppendAllFromMatchesPerRowAppend) {
  Schema schema = MakeMixedSchema();
  std::vector<ColumnVector> a = MakeMixedData(schema, 120, 1);
  std::vector<ColumnVector> b = MakeMixedData(schema, 75, 2);
  for (size_t c = 0; c < a.size(); ++c) {
    ColumnVector bulk(a[c].physical(), a[c].list_depth());
    bulk.AppendAllFrom(a[c]);
    bulk.AppendAllFrom(b[c]);
    ColumnVector per_row(a[c].physical(), a[c].list_depth());
    for (const ColumnVector* src : {&a[c], &b[c]}) {
      for (size_t r = 0; r < src->num_rows(); ++r) {
        per_row.AppendRowFrom(*src, static_cast<int64_t>(r));
      }
    }
    EXPECT_EQ(bulk, per_row) << "column " << c;
  }
  // Depth-2 list<list<int>> exercises multi-level offset rebasing.
  ColumnVector d2a(PhysicalType::kInt64, 2), d2b(PhysicalType::kInt64, 2);
  d2a.AppendIntListList({{1, 2}, {3}});
  d2a.AppendIntListList({});
  d2b.AppendIntListList({{4}, {}, {5, 6, 7}});
  ColumnVector bulk(PhysicalType::kInt64, 2);
  bulk.AppendAllFrom(d2a);
  bulk.AppendAllFrom(d2b);
  ColumnVector per_row(PhysicalType::kInt64, 2);
  for (const ColumnVector* src : {&d2a, &d2b}) {
    for (size_t r = 0; r < src->num_rows(); ++r) {
      per_row.AppendRowFrom(*src, static_cast<int64_t>(r));
    }
  }
  EXPECT_EQ(bulk, per_row);
}

TEST(Scanner, WellFormedEmptyRowGroupRangePastEndSucceeds) {
  ScanFixture fx(3);
  auto scan = Scan(fx.reader.get()).RowGroups(5, 5).Collect();
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->num_groups(), 0u);
  EXPECT_EQ(scan->num_rows(), 0u);
}

TEST(Scanner, ZeroColumnProjectionIsEmptyNotError) {
  ScanFixture fx(2);
  std::vector<ColumnVector> out;
  ReadOptions ropts;
  ASSERT_TRUE(fx.reader->ReadProjection(0, {}, ropts, &out).ok());
  EXPECT_TRUE(out.empty());
  auto plan = fx.reader->PlanProjection(0, {}, ropts);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->num_reads(), 0u);
}

TEST(Scanner, SingleColumnProjectionIsOneRead) {
  ScanFixture fx(2);
  ReadOptions ropts;
  auto plan = fx.reader->PlanProjection(0, {3}, ropts);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->num_reads(), 1u);
  EXPECT_EQ(plan->reads[0].chunks.size(), 1u);

  auto scan =
      Scan(fx.reader.get()).ColumnIndices({3}).Threads(2).Collect();
  ASSERT_TRUE(scan.ok());
  std::vector<ColumnVector> expect;
  ASSERT_TRUE(fx.reader->ReadProjection(0, {3}, ropts, &expect).ok());
  EXPECT_EQ(scan->groups[0][0], expect[0]);
}

TEST(Scanner, InvalidColumnOrRangeFails) {
  ScanFixture fx(2);
  EXPECT_FALSE(
      Scan(fx.reader.get()).ColumnIndices({999}).Collect().ok());
  EXPECT_FALSE(
      Scan(fx.reader.get()).Columns({"nope"}).Collect().ok());
  EXPECT_FALSE(Scan(fx.reader.get()).RowGroups(3, 1).Collect().ok());
}

TEST(Scanner, SharedPoolAcrossScans) {
  ScanFixture fx(3);
  ThreadPool pool(3);
  auto a = Scan(fx.reader.get()).Pool(&pool).Collect();
  auto b = Scan(fx.reader.get()).Pool(&pool).Collect();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->groups, b->groups);
}

TEST(Scanner, ParallelScanKeepsIoAccountingConsistent) {
  ScanFixture fx(4);
  fx.fs.ResetStats();
  auto serial = Scan(fx.reader.get()).Threads(1).Collect();
  ASSERT_TRUE(serial.ok());
  uint64_t serial_ops = fx.fs.stats().read_ops;
  uint64_t serial_bytes = fx.fs.stats().bytes_read;

  fx.fs.ResetStats();
  auto parallel = Scan(fx.reader.get()).Threads(4).Collect();
  ASSERT_TRUE(parallel.ok());
  // Same plan executes either way: op and byte counts must match
  // exactly even though the interleaving differs.
  EXPECT_EQ(fx.fs.stats().read_ops, serial_ops);
  EXPECT_EQ(fx.fs.stats().bytes_read, serial_bytes);
}

}  // namespace
}  // namespace bullion
