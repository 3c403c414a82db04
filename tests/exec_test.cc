// Exec-layer tests: thread pool / task group semantics, Scan(...)
// .Collect() behavior, and the headline determinism claim — a parallel
// scan is byte-identical to the serial TableReader path.

#include <gtest/gtest.h>

#include <algorithm>
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

// ------------------------------------------------- one row copy

/// One logical row of any column shape; the member the shape uses
/// holds the row. A null row holds nothing.
struct ModelRow {
  bool null = false;
  int64_t i = 0;
  double d = 0;
  std::string b;
  std::vector<int64_t> il;
  std::vector<double> dl;
  std::vector<std::string> bl;
  std::vector<std::vector<int64_t>> ill;
};

ModelRow RandomModelRow(const ColumnVector& shape, bool with_nulls,
                        Random* rng) {
  ModelRow row;
  if (with_nulls && rng->Bernoulli(0.2)) {
    row.null = true;
    return row;
  }
  auto len = [rng] { return static_cast<size_t>(rng->UniformRange(0, 4)); };
  row.i = rng->UniformRange(-1000, 1000);
  row.d = rng->NextGaussian();
  row.b = std::string(len(), static_cast<char>('a' + rng->Uniform(26)));
  for (size_t k = len(); k > 0; --k) {
    row.il.push_back(rng->UniformRange(-50, 50));
    row.dl.push_back(rng->NextGaussian());
    row.bl.push_back(std::to_string(rng->Uniform(100)));
  }
  if (shape.list_depth() == 2) {
    for (size_t k = len(); k > 0; --k) {
      std::vector<int64_t> inner(len());
      for (int64_t& x : inner) x = rng->UniformRange(0, 9);
      row.ill.push_back(std::move(inner));
    }
  }
  return row;
}

/// The reference: builds a column one row at a time through the
/// per-shape append helpers only, never through a row copy.
ColumnVector BuildModel(const ColumnVector& shape,
                        const std::vector<ModelRow>& rows) {
  ColumnVector out(shape.physical(), shape.list_depth());
  for (const ModelRow& row : rows) {
    if (row.null) {
      out.AppendNullRow();
      continue;
    }
    // One case per shape: list depth * 3 + value domain.
    switch (shape.list_depth() * 3 + static_cast<int>(shape.domain())) {
      case 0:
        out.AppendInt(row.i);
        break;
      case 1:
        out.AppendReal(row.d);
        break;
      case 2:
        out.AppendBinary(row.b);
        break;
      case 3:
        out.AppendIntList(row.il);
        break;
      case 4:
        out.AppendRealList(row.dl);
        break;
      case 5:
        out.AppendBinaryList(row.bl);
        break;
      default:
        out.AppendIntListList(row.ill);
        break;
    }
  }
  return out;
}

std::vector<ModelRow> Concat(std::vector<ModelRow> a,
                             const std::vector<ModelRow>& b, size_t begin,
                             size_t end) {
  a.insert(a.end(), b.begin() + begin, b.begin() + end);
  return a;
}

TEST(ColumnVector, RowCopiesMatchAPerRowReference) {
  const std::vector<ColumnVector> shapes = {
      ColumnVector(PhysicalType::kInt64, 0),
      ColumnVector(PhysicalType::kFloat64, 0),
      ColumnVector(PhysicalType::kBinary, 0),
      ColumnVector(PhysicalType::kInt32, 1),
      ColumnVector(PhysicalType::kFloat32, 1),
      ColumnVector(PhysicalType::kBinary, 1),
      ColumnVector(PhysicalType::kInt64, 2),
  };
  Random rng(27);
  for (const ColumnVector& shape : shapes) {
    for (bool with_nulls : {false, true}) {
      for (int trial = 0; trial < 25; ++trial) {
        SCOPED_TRACE("physical " +
                     std::to_string(static_cast<int>(shape.physical())) +
                     " depth " + std::to_string(shape.list_depth()) +
                     (with_nulls ? " with nulls" : "") + " trial " +
                     std::to_string(trial));
        std::vector<ModelRow> src_rows(rng.Uniform(40));
        for (ModelRow& row : src_rows) {
          row = RandomModelRow(shape, with_nulls, &rng);
        }
        std::vector<ModelRow> dst_rows(trial % 2 == 0 ? 0 : rng.Uniform(6) + 1);
        for (ModelRow& row : dst_rows) {
          row = RandomModelRow(shape, with_nulls, &rng);
        }
        const ColumnVector src = BuildModel(shape, src_rows);
        const ColumnVector dst = BuildModel(shape, dst_rows);
        ASSERT_EQ(src.num_rows(), src_rows.size());
        const size_t n = src_rows.size();

        // Empty at both ends, single rows, the whole vector, a random
        // range; each onto an empty or a non-empty destination.
        std::vector<std::pair<size_t, size_t>> ranges = {{0, 0}, {n, n},
                                                         {0, n}};
        if (n > 0) {
          const size_t r = rng.Uniform(n);
          ranges.push_back({r, r + 1});
          ranges.push_back({n - 1, n});
          size_t b = rng.Uniform(n + 1), e = rng.Uniform(n + 1);
          if (b > e) std::swap(b, e);
          ranges.push_back({b, e});
        }
        for (auto [b, e] : ranges) {
          ColumnVector got = dst;
          got.AppendRows(src, b, e);
          EXPECT_EQ(got, BuildModel(shape, Concat(dst_rows, src_rows, b, e)))
              << "AppendRows [" << b << ", " << e << ")";
        }
        ColumnVector all = dst;
        all.AppendAllFrom(src);
        EXPECT_EQ(all, BuildModel(shape, Concat(dst_rows, src_rows, 0, n)));

        // A valid zero row (the reader's stand-in for an erased row) is
        // the shape's zero value, not a null.
        ColumnVector zero = dst;
        zero.AppendPlaceholderRow(/*null=*/false);
        std::vector<ModelRow> zero_rows = dst_rows;
        zero_rows.emplace_back();
        EXPECT_EQ(zero, BuildModel(shape, zero_rows));

        // Permute: a run, a singleton, a duplicate, a descending pair
        // and random picks.
        std::vector<uint32_t> perm;
        if (n > 0) {
          const uint32_t run = static_cast<uint32_t>(rng.Uniform(n));
          const uint32_t run_end = static_cast<uint32_t>(
              std::min<size_t>(n, run + 1 + rng.Uniform(5)));
          for (uint32_t k = run; k < run_end; ++k) perm.push_back(k);
          perm.push_back(static_cast<uint32_t>(rng.Uniform(n)));
          perm.push_back(perm.back());
          perm.push_back(static_cast<uint32_t>(n - 1));
          perm.push_back(0);
          for (int k = 0; k < 6; ++k) {
            perm.push_back(static_cast<uint32_t>(rng.Uniform(n)));
          }
        }
        std::vector<ModelRow> perm_rows;
        for (uint32_t p : perm) perm_rows.push_back(src_rows[p]);
        auto permuted = src.Permute(perm);
        ASSERT_TRUE(permuted.ok()) << permuted.status().ToString();
        EXPECT_EQ(*permuted, BuildModel(shape, perm_rows));

        // An index one past the end fails, alone or ending a run.
        const uint32_t past = static_cast<uint32_t>(n);
        for (const std::vector<uint32_t>& bad :
             {std::vector<uint32_t>{past},
              n > 0 ? std::vector<uint32_t>{past - 1, past}
                    : std::vector<uint32_t>{past, past + 1}}) {
          auto st = src.Permute(bad).status();
          EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
        }
      }
    }
  }
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
