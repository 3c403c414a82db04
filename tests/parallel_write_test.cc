// Parallel write path tests: stage → encode → commit layering,
// WriterOptions and batch validation, the encode window's error
// contract, and the headline determinism claim — a write on a pool
// (single-file and sharded) is byte-identical to the serial writer at
// every thread count.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/bullion.h"

namespace bullion {
namespace {

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

std::vector<uint8_t> FileBytes(const InMemoryFileSystem& fs,
                               const std::string& name) {
  auto file = fs.NewReadableFile(name);
  EXPECT_TRUE(file.ok());
  auto size = (*file)->Size();
  EXPECT_TRUE(size.ok());
  Buffer buf;
  EXPECT_TRUE((*file)->Read(0, *size, &buf).ok());
  return std::vector<uint8_t>(buf.data(), buf.data() + buf.size());
}

// ----------------------------------------------------------- validation

TEST(WriterValidation, RejectsZeroRowsPerPage) {
  Schema schema = MakeMixedSchema();
  InMemoryFileSystem fs;
  auto f = fs.NewWritableFile("t");
  WriterOptions wopts;
  wopts.rows_per_page = 0;
  TableWriter writer(schema, f->get(), wopts);
  Status st = writer.WriteRowGroup(MakeMixedData(schema, 10, 1));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(writer.Finish().ok());
}

TEST(WriterValidation, RejectsMalformedColumnOrder) {
  Schema schema = MakeMixedSchema();
  ASSERT_EQ(schema.num_leaves(), 5u);
  auto validate = [&](std::vector<uint32_t> order) {
    WriterOptions wopts;
    wopts.column_order = std::move(order);
    return ValidateWriterOptions(wopts, schema);
  };
  EXPECT_TRUE(validate({}).ok());
  EXPECT_TRUE(validate({4, 3, 1, 0, 2}).ok());
  EXPECT_FALSE(validate({0, 1, 2}).ok());                 // size mismatch
  EXPECT_FALSE(validate({0, 1, 2, 3, 99}).ok());          // out of range
  EXPECT_FALSE(validate({0, 1, 2, 3, 3}).ok());           // duplicate
  // Writers surface the same error instead of misbehaving downstream.
  InMemoryFileSystem fs;
  auto f = fs.NewWritableFile("t");
  WriterOptions bad;
  bad.column_order = {0, 1, 2, 3, 99};
  TableWriter writer(schema, f->get(), bad);
  EXPECT_FALSE(writer.WriteRowGroup(MakeMixedData(schema, 10, 1)).ok());
}

TEST(WriterValidation, RejectsQualitySortColumnOutOfRange) {
  Schema schema = MakeMixedSchema();
  WriterOptions wopts;
  wopts.quality_sort_column = 42;
  EXPECT_FALSE(ValidateWriterOptions(wopts, schema).ok());
  wopts.quality_sort_column = -1;
  EXPECT_TRUE(ValidateWriterOptions(wopts, schema).ok());
}

TEST(WriterValidation, ShardedRejectsZeroTargets) {
  Schema schema = MakeMixedSchema();
  InMemoryFileSystem fs;
  auto opener = [&](const std::string& name) {
    return fs.NewWritableFile(name);
  };
  ShardedWriterOptions zero_shard;
  zero_shard.target_rows_per_shard = 0;
  ShardedTableWriter w1(schema, zero_shard, opener);
  EXPECT_FALSE(w1.Append(MakeMixedData(schema, 10, 1)).ok());
  EXPECT_FALSE(w1.Finish().ok());

  ShardedWriterOptions zero_group;
  zero_group.rows_per_group = 0;
  ShardedTableWriter w2(schema, zero_group, opener);
  EXPECT_FALSE(w2.Append(MakeMixedData(schema, 10, 1)).ok());

  EXPECT_FALSE(
      ShardedWriteBuilder(schema, opener).RowsPerShard(0).Build().ok());
  EXPECT_FALSE(
      ShardedWriteBuilder(schema, opener).RowsPerGroup(0).Build().ok());
  EXPECT_TRUE(ShardedWriteBuilder(schema, opener).Build().ok());
}

TEST(WriterValidation, RejectsColumnsThatDisagreeWithTheirLeaf) {
  // Leaf 0 ("uid") is a scalar int64. A float64 column and a list
  // column in its place must both be refused before any row is
  // encoded or copied, and leave every writer usable.
  Schema schema = MakeMixedSchema();
  std::vector<ColumnVector> good = MakeMixedData(schema, 100, 17);
  std::vector<std::vector<ColumnVector>> bad_batches;
  {
    std::vector<ColumnVector> floats = good;
    floats[0] = ColumnVector(PhysicalType::kFloat64, 0);
    for (size_t r = 0; r < 100; ++r) floats[0].AppendReal(0.5 * r);
    bad_batches.push_back(std::move(floats));
    std::vector<ColumnVector> lists = good;
    lists[0] = ColumnVector(PhysicalType::kInt64, 1);
    for (size_t r = 0; r < 100; ++r) {
      lists[0].AppendIntList({static_cast<int64_t>(r)});
    }
    bad_batches.push_back(std::move(lists));
  }
  auto expect_rejected = [](const Status& st) {
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  };
  auto expect_reads_back = [&](const ScanResult& scan) {
    ASSERT_EQ(scan.columns.size(), good.size());
    for (size_t c = 0; c < good.size(); ++c) {
      EXPECT_EQ(*scan.ConcatColumn(c), good[c]) << "column " << c;
    }
  };

  // TableWriter, without and with a pool.
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    InMemoryFileSystem fs;
    auto f = fs.NewWritableFile("t");
    TableWriter writer(schema, f->get(), {}, p);
    for (const auto& bad : bad_batches) {
      expect_rejected(writer.WriteRowGroup(bad));
    }
    ASSERT_TRUE(writer.WriteRowGroup(good).ok());
    ASSERT_TRUE(writer.Finish().ok());
    auto reader = TableReader::Open(*fs.NewReadableFile("t"));
    ASSERT_TRUE(reader.ok());
    auto scan = Scan(reader->get()).Collect();
    ASSERT_TRUE(scan.ok());
    expect_reads_back(*scan);
  }

  auto read_dataset = [&](InMemoryFileSystem* fs,
                          const ShardManifest& manifest) {
    auto ds = ShardedTableReader::Open(manifest, [fs](const std::string& n) {
      return fs->NewReadableFile(n);
    });
    ASSERT_TRUE(ds.ok());
    auto scan = Scan(ds->get()).Collect();
    ASSERT_TRUE(scan.ok());
    expect_reads_back(*scan);
  };

  // ShardedTableWriter.
  {
    InMemoryFileSystem fs;
    auto writer = ShardedWriteBuilder(schema,
                                      [&](const std::string& name) {
                                        return fs.NewWritableFile(name);
                                      })
                      .RowsPerShard(50)
                      .RowsPerGroup(50)
                      .Pool(&pool)
                      .Build();
    ASSERT_TRUE(writer.ok());
    for (const auto& bad : bad_batches) {
      expect_rejected((*writer)->Append(bad));
    }
    EXPECT_EQ((*writer)->num_rows(), 0u);
    ASSERT_TRUE((*writer)->Append(good).ok());
    auto manifest = (*writer)->Finish();
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    EXPECT_EQ(manifest->num_shards(), 2u);
    read_dataset(&fs, *manifest);
  }

  // DatasetAppender (onto an empty dataset).
  {
    InMemoryFileSystem fs;
    auto appender = DatasetAppender::Open(
        ShardManifest(), schema,
        [&](const std::string& n) { return fs.NewReadableFile(n); },
        [&](const std::string& n) { return fs.NewWritableFile(n); });
    ASSERT_TRUE(appender.ok()) << appender.status().ToString();
    for (const auto& bad : bad_batches) {
      expect_rejected((*appender)->Append(bad));
    }
    ASSERT_TRUE((*appender)->Append(good).ok());
    auto manifest = (*appender)->Finish();
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    read_dataset(&fs, *manifest);
  }
}

TEST(WriterValidation, RefusesLeavesNoPageLayoutHolds) {
  // Pages hold list<list<...>> only over ints, and nothing deeper
  // (format/page.h). A list<list<float64>> batch used to crash the
  // encode and a list<list<list<int64>>> one to write a file that read
  // back as Corruption; every writer now refuses either schema before
  // it stages a row or opens a file.
  auto schema_with = [](DataType nested) {
    return Schema({Field{"uid", DataType::Primitive(PhysicalType::kInt64),
                         LogicalType::kPlain, false},
                   Field{"nested", std::move(nested), LogicalType::kPlain,
                         false}});
  };
  auto list_of = [](PhysicalType t, int depth) {
    DataType type = DataType::Primitive(t);
    for (int d = 0; d < depth; ++d) type = DataType::List(std::move(type));
    return type;
  };
  ColumnVector uid(PhysicalType::kInt64, 0);
  uid.AppendInt(7);
  ColumnVector floats2(PhysicalType::kFloat64, 2);  // [[0.5, 1.5], [2.5]]
  floats2.mutable_offsets() = {{0, 2}, {0, 2, 3}};
  floats2.mutable_real_values() = {0.5, 1.5, 2.5};
  ColumnVector ints3(PhysicalType::kInt64, 3);  // [[[1, 2], [3]]]
  ints3.mutable_offsets() = {{0, 1}, {0, 2}, {0, 2, 3}};
  ints3.mutable_int_values() = {1, 2, 3};
  struct Case {
    Schema schema;
    std::vector<ColumnVector> batch;
  };
  const std::vector<Case> cases = {
      {schema_with(list_of(PhysicalType::kFloat64, 2)), {uid, floats2}},
      {schema_with(list_of(PhysicalType::kInt64, 3)), {uid, ints3}},
  };
  auto expect_refused = [](const Status& st) {
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  };
  ThreadPool pool(2);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.schema.leaves()[1].name + " depth " +
                 std::to_string(c.schema.leaves()[1].list_depth));
    ASSERT_TRUE(ValidateBatch(c.schema, c.batch).ok());
    expect_refused(ValidateWriterOptions({}, c.schema));

    // TableWriter, without and with a pool: nothing reaches the file.
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      InMemoryFileSystem fs;
      auto f = fs.NewWritableFile("t");
      TableWriter writer(c.schema, f->get(), {}, p);
      expect_refused(writer.WriteRowGroup(c.batch));
      EXPECT_FALSE(writer.Finish().ok());
      EXPECT_TRUE(FileBytes(fs, "t").empty());
    }

    // ShardedTableWriter and DatasetAppender open no shard file.
    InMemoryFileSystem fs;
    size_t opened = 0;
    auto opener = [&](const std::string& name) {
      ++opened;
      return fs.NewWritableFile(name);
    };
    ShardedTableWriter sharded(c.schema, {}, opener);
    expect_refused(sharded.Append(c.batch));
    EXPECT_FALSE(sharded.Finish().ok());
    expect_refused(ShardedWriteBuilder(c.schema, opener).Build().status());
    auto appender = DatasetAppender::Open(
        ShardManifest(), c.schema,
        [&](const std::string& n) { return fs.NewReadableFile(n); }, opener);
    expect_refused(appender.status());
    EXPECT_EQ(opened, 0u);
  }
}

// ---------------------------------------------------------------- stage

TEST(StageRowGroup, SlicesPlacementMajorPageTasks) {
  Schema schema = MakeMixedSchema();
  WriterOptions wopts;
  wopts.rows_per_page = 4;
  wopts.column_order = {2, 0, 1, 4, 3};
  auto batch = std::make_shared<const std::vector<ColumnVector>>(
      MakeMixedData(schema, 10, 3));
  auto staged = StageRowGroup(schema, wopts, batch);
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();
  EXPECT_EQ(staged->row_count, 10u);
  EXPECT_EQ(staged->order, wopts.column_order);
  // ceil(10/4) = 3 pages per column, 5 columns.
  ASSERT_EQ(staged->num_tasks(), 15u);
  ASSERT_EQ(staged->column_task_begin.size(), 6u);
  for (size_t oi = 0; oi < staged->order.size(); ++oi) {
    EXPECT_EQ(staged->column_task_begin[oi], oi * 3);
    for (size_t t = staged->column_task_begin[oi];
         t < staged->column_task_begin[oi + 1]; ++t) {
      EXPECT_EQ(staged->tasks[t].column, staged->order[oi]);
    }
  }
  // Page ranges tile [0, rows) in order: [0,4) [4,8) [8,10).
  EXPECT_EQ(staged->tasks[0].row_begin, 0u);
  EXPECT_EQ(staged->tasks[0].row_end, 4u);
  EXPECT_EQ(staged->tasks[2].row_begin, 8u);
  EXPECT_EQ(staged->tasks[2].row_end, 10u);
}

TEST(StageRowGroup, RejectsEmptyAndRaggedBatches) {
  Schema schema = MakeMixedSchema();
  WriterOptions wopts;
  auto empty = std::make_shared<const std::vector<ColumnVector>>(
      [&] {
        std::vector<ColumnVector> cols;
        for (const LeafColumn& leaf : schema.leaves()) {
          cols.push_back(ColumnVector::ForLeaf(leaf));
        }
        return cols;
      }());
  EXPECT_FALSE(StageRowGroup(schema, wopts, empty).ok());

  auto ragged = std::make_shared<std::vector<ColumnVector>>(
      MakeMixedData(schema, 10, 1));
  (*ragged)[0].AppendInt(7);  // now 11 rows vs 10 everywhere else
  EXPECT_FALSE(
      StageRowGroup(schema, wopts,
                    std::shared_ptr<const std::vector<ColumnVector>>(ragged))
          .ok());
}

// ------------------------------------------------- single-file identity

TEST(ParallelWrite, ByteIdenticalToSerialAtEveryThreadCount) {
  Schema schema = MakeMixedSchema();
  std::vector<std::vector<ColumnVector>> groups;
  for (size_t g = 0; g < 6; ++g) {
    groups.push_back(MakeMixedData(schema, 400, 100 + g));
  }
  WriterOptions wopts;
  wopts.rows_per_page = 64;

  InMemoryFileSystem fs;
  {
    auto f = fs.NewWritableFile("serial");
    TableWriter writer(schema, f->get(), wopts);
    for (const auto& g : groups) ASSERT_TRUE(writer.WriteRowGroup(g).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  std::vector<uint8_t> truth = FileBytes(fs, "serial");

  for (size_t threads : {1, 2, 4, 8}) {
    std::string name = "par" + std::to_string(threads);
    auto f = fs.NewWritableFile(name);
    ThreadPool pool(threads);
    TableWriter writer(schema, f->get(), wopts, &pool);
    for (const auto& g : groups) {
      ASSERT_TRUE(writer.WriteRowGroup(g).ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
    EXPECT_EQ(writer.num_rows(), 2400u);
    EXPECT_EQ(FileBytes(fs, name), truth) << "threads=" << threads;
  }
}

TEST(ParallelWrite, SingleRowGroupsAndTinyPages) {
  // Single-row groups with rows_per_page=1 maximize task count and
  // scheduling interleavings; bytes must not change.
  Schema schema = MakeMixedSchema();
  std::vector<std::vector<ColumnVector>> groups;
  for (size_t g = 0; g < 12; ++g) {
    groups.push_back(MakeMixedData(schema, 1, 500 + g));
  }
  WriterOptions wopts;
  wopts.rows_per_page = 1;

  InMemoryFileSystem fs;
  auto fserial = fs.NewWritableFile("serial");
  ASSERT_TRUE(WriteTableFile(fserial->get(), schema, groups, wopts).ok());
  std::vector<uint8_t> truth = FileBytes(fs, "serial");

  auto fpar = fs.NewWritableFile("par");
  ASSERT_TRUE(
      WriteTableFile(fpar->get(), schema, groups, wopts, /*threads=*/4).ok());
  EXPECT_EQ(FileBytes(fs, "par"), truth);

  auto reader = TableReader::Open(*fs.NewReadableFile("par"));
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->num_rows(), 12u);
  EXPECT_EQ((*reader)->num_row_groups(), 12u);
}

TEST(ParallelWrite, ZeroRowGroupsWritesFooterOnly) {
  Schema schema = MakeMixedSchema();
  InMemoryFileSystem fs;
  auto fserial = fs.NewWritableFile("serial");
  {
    TableWriter writer(schema, fserial->get(), {});
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto fpar = fs.NewWritableFile("par");
  ThreadPool pool(4);
  TableWriter writer(schema, fpar->get(), {}, &pool);
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(FileBytes(fs, "par"), FileBytes(fs, "serial"));
}

TEST(ParallelWrite, QualitySortAndColumnOrderIdentical) {
  Schema schema = MakeMixedSchema();
  std::vector<std::vector<ColumnVector>> groups;
  for (size_t g = 0; g < 4; ++g) {
    groups.push_back(MakeMixedData(schema, 300, 700 + g));
  }
  WriterOptions wopts;
  wopts.rows_per_page = 32;
  wopts.column_order = {4, 3, 1, 0, 2};
  wopts.quality_sort_column = 1;  // "score"

  InMemoryFileSystem fs;
  auto fserial = fs.NewWritableFile("serial");
  ASSERT_TRUE(WriteTableFile(fserial->get(), schema, groups, wopts).ok());
  auto fpar = fs.NewWritableFile("par");
  ASSERT_TRUE(
      WriteTableFile(fpar->get(), schema, groups, wopts, /*threads=*/8).ok());
  EXPECT_EQ(FileBytes(fs, "par"), FileBytes(fs, "serial"));

  // The parallel-written file round-trips through the reader.
  auto reader = TableReader::Open(*fs.NewReadableFile("par"));
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE((*reader)->VerifyChecksums().ok());
}

TEST(ParallelWrite, SharedPoolAcrossWriters) {
  Schema schema = MakeMixedSchema();
  std::vector<std::vector<ColumnVector>> groups;
  for (size_t g = 0; g < 4; ++g) {
    groups.push_back(MakeMixedData(schema, 200, 40 + g));
  }
  InMemoryFileSystem fs;
  auto fserial = fs.NewWritableFile("serial");
  ASSERT_TRUE(WriteTableFile(fserial->get(), schema, groups, {}).ok());
  std::vector<uint8_t> truth = FileBytes(fs, "serial");

  ThreadPool pool(4);
  auto fa = fs.NewWritableFile("a");
  auto fb = fs.NewWritableFile("b");
  TableWriter wa(schema, fa->get(), {}, &pool);
  TableWriter wb(schema, fb->get(), {}, &pool);
  // Interleave submissions so both writers' encodes share the pool.
  for (const auto& g : groups) {
    ASSERT_TRUE(wa.WriteRowGroup(g).ok());
    ASSERT_TRUE(wb.WriteRowGroup(g).ok());
  }
  ASSERT_TRUE(wa.Finish().ok());
  ASSERT_TRUE(wb.Finish().ok());
  EXPECT_EQ(FileBytes(fs, "a"), truth);
  EXPECT_EQ(FileBytes(fs, "b"), truth);
}

TEST(ParallelWrite, BadBatchIsRejectedWithoutBrickingTheWriter) {
  Schema schema = MakeMixedSchema();
  InMemoryFileSystem fs;
  auto f = fs.NewWritableFile("t");
  ThreadPool pool(2);
  TableWriter writer(schema, f->get(), {}, &pool);
  ASSERT_TRUE(writer.WriteRowGroup(MakeMixedData(schema, 50, 1)).ok());
  // Wrong leaf count fails the stage step, which touches no file or
  // footer state...
  std::vector<ColumnVector> bad;
  bad.push_back(ColumnVector(PhysicalType::kInt64, 0));
  bad[0].AppendInt(1);
  Status st = writer.WriteRowGroup(std::move(bad));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  // ...so the writer stays usable: a corrected batch and Finish
  // succeed, and the file round-trips.
  EXPECT_TRUE(writer.WriteRowGroup(MakeMixedData(schema, 50, 2)).ok());
  ASSERT_TRUE(writer.Finish().ok());
  auto reader = TableReader::Open(*fs.NewReadableFile("t"));
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->num_rows(), 100u);
  EXPECT_EQ((*reader)->num_row_groups(), 2u);
}

/// Keeps the first `ok_blocks` block writes; every later write fails.
class BlockFailingFile : public WritableFile {
 public:
  explicit BlockFailingFile(size_t ok_blocks) : ok_blocks_(ok_blocks) {}

  Status Append(Slice data) override { return AppendBlock(data); }
  Status AppendBlock(Slice data) override {
    if (blocks_ >= ok_blocks_) return Status::IOError("device gone");
    ++blocks_;
    contents_.append(reinterpret_cast<const char*>(data.data()),
                     data.size());
    return Status::OK();
  }
  Status WriteAt(uint64_t, Slice) override {
    return Status::NotImplemented("WriteAt");
  }
  Status Flush() override {
    ++flushes_;
    return Status::OK();
  }
  Result<uint64_t> Size() const override { return contents_.size(); }

  const std::string& contents() const { return contents_; }
  int flushes() const { return flushes_; }

 private:
  size_t ok_blocks_;
  size_t blocks_ = 0;
  std::string contents_;
  int flushes_ = 0;
};

TEST(ParallelWrite, FailedCommitIsStickyAndWritesNoFooter) {
  Schema schema = MakeMixedSchema();
  std::vector<std::vector<ColumnVector>> groups;
  groups.push_back(MakeMixedData(schema, 400, 61));
  groups.push_back(MakeMixedData(schema, 400, 62));
  WriterOptions wopts;
  wopts.rows_per_page = 64;
  wopts.write_block_bytes = 4096;

  // The same write on a healthy file: its pages span more than two
  // blocks, so the commits themselves reach the failing second block
  // write, before any footer byte is appended.
  InMemoryFileSystem fs;
  auto ftruth = fs.NewWritableFile("truth");
  ASSERT_TRUE(WriteTableFile(ftruth->get(), schema, groups, wopts).ok());
  std::vector<uint8_t> truth = FileBytes(fs, "truth");
  uint32_t footer_size;
  std::memcpy(&footer_size, truth.data() + truth.size() - 8, 4);
  ASSERT_GT(truth.size() - 8 - footer_size, 2u * 4096);
  const std::string first_block(truth.begin(), truth.begin() + 4096);

  for (size_t workers : {0, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::unique_ptr<ThreadPool> pool;
    if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
    BlockFailingFile file(/*ok_blocks=*/1);
    TableWriter writer(schema, &file, wopts, pool.get());
    Status st;
    for (const auto& g : groups) {
      if (st.ok()) st = writer.WriteRowGroup(g);
    }
    if (workers == 0) {
      // Serially the failing commit runs inside WriteRowGroup.
      EXPECT_TRUE(st.IsIOError()) << st.ToString();
    } else {
      // A 2-worker window holds four groups: both commit in Finish.
      ASSERT_TRUE(st.ok()) << st.ToString();
      st = writer.Finish();
      EXPECT_TRUE(st.IsIOError()) << st.ToString();
    }
    // Sticky: every later call returns the same error.
    EXPECT_EQ(writer.WriteRowGroup(groups[0]).ToString(), st.ToString());
    EXPECT_EQ(writer.Finish().ToString(), st.ToString());
    EXPECT_EQ(writer.Finish().ToString(), st.ToString());
    // Only the first block, all page bytes, reached the file: no
    // footer, no trailer, no flush.
    EXPECT_EQ(file.contents(), first_block);
    EXPECT_EQ(file.flushes(), 0);
  }
}

// ---------------------------------------------------- sharded identity

TEST(ShardedWrite, ByteIdenticalAcrossThreadCounts) {
  Schema schema = MakeMixedSchema();
  std::vector<ColumnVector> all = MakeMixedData(schema, 1000, 42);

  auto write = [&](InMemoryFileSystem* fs, size_t threads) {
    auto writer = ShardedWriteBuilder(schema,
                                      [fs](const std::string& name) {
                                        return fs->NewWritableFile(name);
                                      })
                      .BaseName("t")
                      .RowsPerShard(250)
                      .RowsPerGroup(100)
                      .RowsPerPage(32)
                      .Threads(threads)
                      .Build();
    EXPECT_TRUE(writer.ok());
    EXPECT_TRUE((*writer)->Append(all).ok());
    auto manifest = (*writer)->Finish();
    EXPECT_TRUE(manifest.ok());
    return *manifest;
  };

  InMemoryFileSystem serial_fs;
  ShardManifest truth = write(&serial_fs, 1);
  ASSERT_EQ(truth.num_shards(), 4u);

  for (size_t threads : {2, 4, 8}) {
    InMemoryFileSystem fs;
    ShardManifest manifest = write(&fs, threads);
    ASSERT_EQ(manifest.num_shards(), truth.num_shards())
        << "threads=" << threads;
    for (size_t s = 0; s < truth.num_shards(); ++s) {
      EXPECT_EQ(manifest.shard(s).name, truth.shard(s).name);
      EXPECT_EQ(manifest.shard(s).num_rows, truth.shard(s).num_rows);
      EXPECT_EQ(manifest.shard(s).num_row_groups,
                truth.shard(s).num_row_groups);
      EXPECT_EQ(FileBytes(fs, truth.shard(s).name),
                FileBytes(serial_fs, truth.shard(s).name))
          << "threads=" << threads << " shard=" << s;
    }
  }
}

TEST(ShardedWrite, ManyShardHandoffsOnOnePool) {
  // Tiny shards: every group opens a new shard, so each shard's last
  // commits and footer overlap the next shard's first encodes, all on
  // one shared pool. Output must still be byte-identical, and the
  // result must read back as one table.
  Schema schema = MakeMixedSchema();
  std::vector<ColumnVector> all = MakeMixedData(schema, 600, 9);

  InMemoryFileSystem serial_fs;
  InMemoryFileSystem par_fs;
  ThreadPool pool(4);
  auto write = [&](InMemoryFileSystem* fs, ThreadPool* p) {
    auto writer = ShardedWriteBuilder(schema,
                                      [fs](const std::string& name) {
                                        return fs->NewWritableFile(name);
                                      })
                      .BaseName("t")
                      .RowsPerShard(50)  // 12 shards
                      .RowsPerGroup(50)
                      .RowsPerPage(16)
                      .Pool(p)
                      .Build();
    EXPECT_TRUE(writer.ok());
    // Stream in odd-sized batches to exercise group slicing.
    EXPECT_TRUE((*writer)->Append(all).ok());
    return *(*writer)->Finish();
  };
  ShardManifest truth = write(&serial_fs, nullptr);
  ShardManifest manifest = write(&par_fs, &pool);
  ASSERT_EQ(truth.num_shards(), 12u);
  ASSERT_EQ(manifest.num_shards(), 12u);
  for (size_t s = 0; s < truth.num_shards(); ++s) {
    EXPECT_EQ(FileBytes(par_fs, truth.shard(s).name),
              FileBytes(serial_fs, truth.shard(s).name))
        << "shard=" << s;
  }

  // The parallel-written dataset scans as one logical table, equal to
  // the original stream.
  auto ds = ShardedTableReader::Open(manifest, [&](const std::string& n) {
    return par_fs.NewReadableFile(n);
  });
  ASSERT_TRUE(ds.ok());
  auto scan = Scan(ds->get()).Threads(4).Collect();
  ASSERT_TRUE(scan.ok());
  for (size_t c = 0; c < all.size(); ++c) {
    EXPECT_EQ(*scan->ConcatColumn(c), all[c]) << "column " << c;
  }
}

TEST(ShardedWrite, TwoWritersShareOnePoolConcurrently) {
  Schema schema = MakeMixedSchema();
  std::vector<ColumnVector> all = MakeMixedData(schema, 400, 11);

  auto write = [&](InMemoryFileSystem* fs, ThreadPool* p) {
    auto writer = ShardedWriteBuilder(schema,
                                      [fs](const std::string& name) {
                                        return fs->NewWritableFile(name);
                                      })
                      .BaseName("t")
                      .RowsPerShard(100)
                      .RowsPerGroup(50)
                      .RowsPerPage(16)
                      .Pool(p)
                      .Build();
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(all).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  };

  InMemoryFileSystem serial_fs;
  write(&serial_fs, nullptr);

  ThreadPool pool(4);
  InMemoryFileSystem fs_a, fs_b;
  std::thread ta([&] { write(&fs_a, &pool); });
  std::thread tb([&] { write(&fs_b, &pool); });
  ta.join();
  tb.join();

  for (size_t s = 0; s < 4; ++s) {
    std::string name = ShardedTableWriter::ShardName("t", s);
    EXPECT_EQ(FileBytes(fs_a, name), FileBytes(serial_fs, name));
    EXPECT_EQ(FileBytes(fs_b, name), FileBytes(serial_fs, name));
  }
}

TEST(ShardedWrite, NumRowsIncludesBufferedRows) {
  Schema schema = MakeMixedSchema();
  InMemoryFileSystem fs;
  auto writer = ShardedWriteBuilder(schema,
                                    [&](const std::string& name) {
                                      return fs.NewWritableFile(name);
                                    })
                    .RowsPerGroup(1000)  // 100 rows stay buffered
                    .Build();
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(MakeMixedData(schema, 100, 5)).ok());
  EXPECT_EQ((*writer)->num_rows(), 100u);
  auto manifest = (*writer)->Finish();
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->total_rows(), 100u);
}

// ----------------------------------------------------------- accounting

TEST(WriteStats, CountsPagesBytesAndFlushes) {
  Schema schema = MakeMixedSchema();
  std::vector<std::vector<ColumnVector>> groups;
  for (size_t g = 0; g < 3; ++g) {
    groups.push_back(MakeMixedData(schema, 100, 20 + g));
  }

  InMemoryFileSystem serial_fs;
  WriterOptions wopts;
  wopts.rows_per_page = 32;
  wopts.stats = &serial_fs.stats();
  auto fserial = serial_fs.NewWritableFile("t");
  ASSERT_TRUE(WriteTableFile(fserial->get(), schema, groups, wopts).ok());
  // ceil(100/32) = 4 pages per column per group, 5 leaves, 3 groups.
  EXPECT_EQ(serial_fs.stats().pages_encoded.load(), 4u * 5u * 3u);
  EXPECT_EQ(serial_fs.stats().flush_calls.load(), 1u);
  uint64_t serial_ops = serial_fs.stats().write_ops.load();
  uint64_t serial_bytes = serial_fs.stats().bytes_written.load();
  EXPECT_GT(serial_bytes, 0u);

  // The parallel writer performs the identical committed I/O.
  InMemoryFileSystem par_fs;
  WriterOptions popts = wopts;
  popts.stats = &par_fs.stats();
  auto fpar = par_fs.NewWritableFile("t");
  ASSERT_TRUE(
      WriteTableFile(fpar->get(), schema, groups, popts, /*threads=*/4).ok());
  EXPECT_EQ(par_fs.stats().pages_encoded.load(), 4u * 5u * 3u);
  EXPECT_EQ(par_fs.stats().write_ops.load(), serial_ops);
  EXPECT_EQ(par_fs.stats().bytes_written.load(), serial_bytes);
  EXPECT_EQ(par_fs.stats().flush_calls.load(), 1u);

  // A sharded write flushes each shard file exactly once, in its
  // TableWriter::Finish.
  InMemoryFileSystem shard_fs;
  auto writer = ShardedWriteBuilder(schema,
                                    [&](const std::string& name) {
                                      return shard_fs.NewWritableFile(name);
                                    })
                    .BaseName("t")
                    .RowsPerShard(75)
                    .RowsPerGroup(75)
                    .RowsPerPage(32)
                    .Threads(2)
                    .Build();
  ASSERT_TRUE(writer.ok());
  for (const auto& g : groups) ASSERT_TRUE((*writer)->Append(g).ok());
  auto manifest = (*writer)->Finish();
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest->num_shards(), 4u);
  EXPECT_EQ(shard_fs.stats().flush_calls.load(), 4u);

  // So does compacting one shard: tombstone half of shard 0, then
  // rewrite it.
  {
    const std::string& name = manifest->shard(0).name;
    auto reader = TableReader::Open(*shard_fs.NewReadableFile(name));
    ASSERT_TRUE(reader.ok());
    auto rf = shard_fs.NewReadableFile(name);
    auto uf = shard_fs.OpenForUpdate(name);
    ASSERT_TRUE(rf.ok() && uf.ok());
    DeleteExecutor exec(rf->get(), uf->get(), (*reader)->footer());
    std::vector<uint64_t> doomed;
    for (uint64_t r = 0; r < 75; r += 2) doomed.push_back(r);
    auto deleted = exec.DeleteRows(doomed, ComplianceLevel::kLevel1);
    ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  }
  const uint64_t flushes_before = shard_fs.stats().flush_calls.load();
  DatasetCompactor compactor(
      [&](const std::string& n) { return shard_fs.NewReadableFile(n); },
      [&](const std::string& n) { return shard_fs.NewWritableFile(n); });
  auto compacted = compactor.Compact(*manifest);
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_EQ(compacted->shards_compacted, 1u);
  EXPECT_EQ(shard_fs.stats().flush_calls.load() - flushes_before, 1u);
}

}  // namespace
}  // namespace bullion
