// Unified streaming scan tests: the bullion::Scan front door over both
// source kinds, zone-map predicate pushdown, and the redesign's two
// headline claims — (1) draining the stream is byte-identical to the
// serial per-group TableReader reads at any thread count, and (2) a selective
// predicate provably skips preads (groups_pruned > 0 with read_ops
// below the unfiltered scan) while residual evaluation keeps results
// exact, including on version-1 footers with no stats.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
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
                    LogicalType::kPlain, false});
  fields.push_back({"tag", DataType::Primitive(PhysicalType::kBinary),
                    LogicalType::kPlain, false});
  fields.push_back({"clk_seq",
                    DataType::List(DataType::Primitive(PhysicalType::kInt64)),
                    LogicalType::kIdSequence, false});
  return Schema(std::move(fields));
}

/// Rows with strictly increasing uid (uid == global row index), so
/// uid predicates are selective across row groups and shards:
/// score = uid / 1000.0.
std::vector<ColumnVector> MakeOrderedData(const Schema& schema, size_t rows,
                                          size_t first_uid) {
  std::vector<ColumnVector> cols;
  for (const LeafColumn& leaf : schema.leaves()) {
    cols.push_back(ColumnVector::ForLeaf(leaf));
  }
  for (size_t r = 0; r < rows; ++r) {
    int64_t uid = static_cast<int64_t>(first_uid + r);
    cols[0].AppendInt(uid);
    cols[1].AppendReal(static_cast<double>(uid) / 1000.0);
    cols[2].AppendBinary("tag" + std::to_string(uid % 5));
    cols[3].AppendIntList({uid, uid + 1});
  }
  return cols;
}

/// One Bullion file of `total_rows` ordered rows in fixed-size groups.
struct FileFixture {
  InMemoryFileSystem fs;
  Schema schema = MakeMixedSchema();
  std::unique_ptr<TableReader> reader;
  size_t total_rows;
  uint32_t rows_per_group;

  FileFixture(size_t total_rows, uint32_t rows_per_group,
              bool write_chunk_stats = true)
      : total_rows(total_rows), rows_per_group(rows_per_group) {
    std::vector<std::vector<ColumnVector>> groups;
    for (size_t r = 0; r < total_rows; r += rows_per_group) {
      groups.push_back(MakeOrderedData(
          schema, std::min<size_t>(rows_per_group, total_rows - r), r));
    }
    WriterOptions opts;
    opts.rows_per_page = 16;
    opts.write_chunk_stats = write_chunk_stats;
    auto f = fs.NewWritableFile("t");
    EXPECT_TRUE(WriteTableFile(f->get(), schema, groups, opts).ok());
    reader = *TableReader::Open(*fs.NewReadableFile("t"));
  }
};

/// The same ordered rows as a sharded dataset (uid ranges are disjoint
/// across shards, so uid predicates prune every group of a shard).
struct DatasetFixture {
  InMemoryFileSystem fs;
  Schema schema = MakeMixedSchema();
  ShardManifest manifest;
  std::unique_ptr<ShardedTableReader> reader;

  DatasetFixture(size_t total_rows, uint32_t rows_per_group,
                 uint64_t rows_per_shard) {
    ShardedWriterOptions opts;
    opts.rows_per_group = rows_per_group;
    opts.target_rows_per_shard = rows_per_shard;
    opts.base_name = "t";
    opts.writer.rows_per_page = 16;
    ShardedTableWriter writer(schema, opts, [&](const std::string& name) {
      return fs.NewWritableFile(name);
    });
    EXPECT_TRUE(writer.Append(MakeOrderedData(schema, total_rows, 0)).ok());
    manifest = *writer.Finish();
    reader = *ShardedTableReader::Open(manifest, [&](const std::string& n) {
      return fs.NewReadableFile(n);
    });
  }
};

/// Drains a stream; fails the test on stream error.
std::vector<RowBatch> Drain(BatchStream* stream) {
  std::vector<RowBatch> batches;
  RowBatch batch;
  for (;;) {
    auto more = stream->Next(&batch);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !*more) break;
    batches.push_back(std::move(batch));
  }
  return batches;
}

/// Counts the preads issued against one wrapped file.
class CountingFile : public RandomAccessFile {
 public:
  CountingFile(std::unique_ptr<RandomAccessFile> base,
               std::atomic<uint64_t>* reads)
      : base_(std::move(base)), reads_(reads) {}
  Status Read(uint64_t offset, size_t len, Buffer* out) const override {
    reads_->fetch_add(1);
    return base_->Read(offset, len, out);
  }
  Result<uint64_t> Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  std::atomic<uint64_t>* reads_;
};

/// Opens `manifest` over `fs` with every shard's preads counted in
/// `(*reads)[shard name]`.
std::unique_ptr<ShardedTableReader> OpenCounted(
    const InMemoryFileSystem& fs, const ShardManifest& manifest,
    std::map<std::string, std::atomic<uint64_t>>* reads) {
  auto ds = ShardedTableReader::Open(
      manifest,
      [&](const std::string& n) -> Result<std::unique_ptr<RandomAccessFile>> {
        BULLION_ASSIGN_OR_RETURN(auto f, fs.NewReadableFile(n));
        return std::unique_ptr<RandomAccessFile>(
            std::make_unique<CountingFile>(std::move(f), &(*reads)[n]));
      });
  EXPECT_TRUE(ds.ok()) << ds.status().ToString();
  return ds.ok() ? std::move(*ds) : nullptr;
}

/// Independent reference: the serial plan → fetch → decode path, one
/// ReadProjection of every leaf per row group.
std::vector<std::vector<ColumnVector>> SerialGroups(const TableReader* reader) {
  std::vector<uint32_t> all(reader->footer().num_columns());
  for (uint32_t c = 0; c < all.size(); ++c) all[c] = c;
  std::vector<std::vector<ColumnVector>> groups(reader->num_row_groups());
  for (uint32_t g = 0; g < groups.size(); ++g) {
    EXPECT_TRUE(reader->ReadProjection(g, all, ReadOptions{}, &groups[g]).ok());
  }
  return groups;
}

/// The same reference for a dataset, concatenated shard by shard.
std::vector<std::vector<ColumnVector>> SerialGroups(
    const ShardedTableReader* dataset) {
  std::vector<std::vector<ColumnVector>> groups;
  for (size_t s = 0; s < dataset->num_shards(); ++s) {
    for (auto& g : SerialGroups(dataset->shard_reader(s))) {
      groups.push_back(std::move(g));
    }
  }
  return groups;
}

uint64_t TotalRows(const std::vector<RowBatch>& batches) {
  uint64_t rows = 0;
  for (const RowBatch& b : batches) rows += b.num_rows();
  return rows;
}

// ------------------------------------------------- byte-identity claims

TEST(ScanStream, SingleFileStreamMatchesSerialReadsAtAnyThreadCount) {
  FileFixture fx(600, 50);
  std::vector<std::vector<ColumnVector>> truth = SerialGroups(fx.reader.get());
  for (size_t threads : {1, 2, 4, 8}) {
    auto stream = Scan(fx.reader.get()).Threads(threads).Stream();
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    EXPECT_EQ((*stream)->columns(), (std::vector<uint32_t>{0, 1, 2, 3}));
    std::vector<RowBatch> batches = Drain(stream->get());
    ASSERT_EQ(batches.size(), truth.size()) << threads;
    for (size_t g = 0; g < batches.size(); ++g) {
      EXPECT_EQ(batches[g].group, g);
      EXPECT_EQ(batches[g].columns, truth[g])
          << "threads=" << threads << " group " << g;
    }
    // Collect() drains the same stream: one entry per row group.
    auto collected = Scan(fx.reader.get()).Threads(threads).Collect();
    ASSERT_TRUE(collected.ok()) << collected.status().ToString();
    EXPECT_EQ(collected->groups, truth) << "threads=" << threads;
  }
}

TEST(ScanStream, DatasetStreamMatchesSerialReadsAtAnyThreadCount) {
  DatasetFixture fx(600, 50, 200);
  ASSERT_GT(fx.manifest.num_shards(), 1u);
  std::vector<std::vector<ColumnVector>> truth = SerialGroups(fx.reader.get());
  for (size_t threads : {1, 2, 4, 8}) {
    auto stream = Scan(fx.reader.get()).Threads(threads).Stream();
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    std::vector<RowBatch> batches = Drain(stream->get());
    ASSERT_EQ(batches.size(), truth.size()) << threads;
    for (size_t g = 0; g < batches.size(); ++g) {
      EXPECT_EQ(batches[g].columns, truth[g])
          << "threads=" << threads << " group " << g;
    }
    auto collected = Scan(fx.reader.get()).Threads(threads).Collect();
    ASSERT_TRUE(collected.ok()) << collected.status().ToString();
    EXPECT_EQ(collected->groups, truth) << "threads=" << threads;
  }
}

// A file and the one-shard dataset over that same file go through the
// same planner and must not be told apart: same batches, same report
// counts, same preads, for every knob the planner reads.
TEST(ScanStream, FileAndItsOneShardDatasetScanTheSame) {
  FileFixture fx(600, 50);  // 12 groups; uid in [g*50, g*50+49]
  std::vector<std::unique_ptr<RandomAccessFile>> files;
  files.push_back(*fx.fs.NewReadableFile("t"));
  auto ds = ShardedTableReader::Open(std::move(files));
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();

  struct FilterSet {
    const char* name;
    std::vector<FilterClause> clauses;
    bool (*keeps)(int64_t uid);  // the reference row predicate
  };
  const std::vector<FilterSet> filter_sets = {
      {"none", {}, [](int64_t) { return true; }},
      {"range",
       {Filter("uid", CompareOp::kGe, 275), Filter("uid", CompareOp::kLt, 330)},
       [](int64_t uid) { return uid >= 275 && uid < 330; }},
      {"in",
       {Filter("uid", {FilterValue(7), FilterValue(277), FilterValue(278),
                       FilterValue(599), FilterValue(1000)})},
       [](int64_t uid) {
         return uid == 7 || uid == 277 || uid == 278 || uid == 599;
       }},
      {"or",
       {FilterClause({Filter("uid", CompareOp::kLt, 40),
                      Filter("score", CompareOp::kGt, 0.57)})},
       [](int64_t uid) { return uid < 40 || uid / 1000.0 > 0.57; }},
  };
  const std::pair<uint32_t, uint32_t> ranges[] = {{0, UINT32_MAX}, {3, 9}};

  // Drains one configured scan, counting the preads it issued.
  auto run = [&](ScanStreamBuilder builder, obs::PipelineReport* report,
                 uint64_t* read_ops) {
    fx.fs.stats().Reset();
    auto stream = builder.Report(report).Stream();
    EXPECT_TRUE(stream.ok()) << stream.status().ToString();
    std::vector<RowBatch> batches;
    if (stream.ok()) batches = Drain(stream->get());
    *read_ops = fx.fs.stats().read_ops.load();
    return batches;
  };
  for (const FilterSet& set : filter_sets) {
    for (bool late : {false, true}) {
      for (uint64_t batch_rows : {0, 7}) {
        for (auto [begin, end] : ranges) {
          for (size_t threads : {1, 4}) {
            SCOPED_TRACE(std::string(set.name) + " late=" +
                         std::to_string(late) + " batch_rows=" +
                         std::to_string(batch_rows) + " groups=[" +
                         std::to_string(begin) + "," + std::to_string(end) +
                         ") threads=" + std::to_string(threads));
            auto configure = [&](ScanStreamBuilder builder) {
              builder.Columns({"uid", "tag", "clk_seq"})
                  .LateMaterialize(late)
                  .BatchRows(batch_rows)
                  .RowGroups(begin, end)
                  .Threads(threads);
              for (const FilterClause& clause : set.clauses) {
                builder.FilterAnyOf(clause);
              }
              return builder;
            };
            obs::PipelineReport file_report, ds_report;
            uint64_t file_reads = 0, ds_reads = 0;
            std::vector<RowBatch> from_file =
                run(configure(Scan(fx.reader.get())), &file_report,
                    &file_reads);
            std::vector<RowBatch> from_ds =
                run(configure(Scan(ds->get())), &ds_report, &ds_reads);

            ASSERT_EQ(from_file.size(), from_ds.size());
            for (size_t i = 0; i < from_file.size(); ++i) {
              EXPECT_EQ(from_file[i].group, from_ds[i].group) << i;
              EXPECT_EQ(from_file[i].columns, from_ds[i].columns) << i;
            }
            EXPECT_EQ(file_report.groups_pruned.load(),
                      ds_report.groups_pruned.load());
            EXPECT_EQ(file_report.units.load(), ds_report.units.load());
            EXPECT_EQ(file_report.rows.load(), ds_report.rows.load());
            EXPECT_EQ(file_report.batches.load(), ds_report.batches.load());
            EXPECT_EQ(file_report.bytes.load(), ds_report.bytes.load());
            EXPECT_EQ(file_reads, ds_reads);

            // And both are right.
            uint64_t want = 0;
            const int64_t last = std::min<int64_t>(end, 12) * 50;
            for (int64_t uid = int64_t{begin} * 50; uid < last; ++uid) {
              want += set.keeps(uid) ? 1 : 0;
            }
            EXPECT_EQ(TotalRows(from_file), want);
          }
        }
      }
    }
  }
}

TEST(ScanStream, BatchRowsBoundsEveryBatch) {
  FileFixture fx(600, 50);
  auto full = ReadFullColumn(fx.reader.get(), "uid");
  ASSERT_TRUE(full.ok());
  auto stream =
      Scan(fx.reader.get()).Columns({"uid"}).BatchRows(37).Threads(2).Stream();
  ASSERT_TRUE(stream.ok());
  std::vector<RowBatch> batches = Drain(stream->get());
  ColumnVector concat(PhysicalType::kInt64, 0);
  for (const RowBatch& b : batches) {
    ASSERT_EQ(b.columns.size(), 1u);
    EXPECT_LE(b.num_rows(), 37u);
    EXPECT_GT(b.num_rows(), 0u);
    concat.AppendAllFrom(b.columns[0]);
  }
  EXPECT_EQ(concat, *full);
}

// ------------------------------------------------- predicate pushdown

TEST(ScanStream, SelectivePredicateSkipsPreads) {
  FileFixture fx(600, 50);  // 12 groups; uid in [g*50, g*50+49]
  IoStats& io = fx.fs.stats();
  io.Reset();
  auto unfiltered = Scan(fx.reader.get()).Columns({"uid", "score"}).Stream();
  ASSERT_TRUE(unfiltered.ok());
  Drain(unfiltered->get());
  uint64_t unfiltered_reads = io.read_ops.load();
  ASSERT_GT(unfiltered_reads, 0u);

  io.Reset();
  obs::PipelineReport scan_report;
  auto stream = Scan(fx.reader.get())
                    .Columns({"uid", "score"})
                    .Filter("uid", CompareOp::kGe, 550)
                    .Report(&scan_report)
                    .Stream();
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  std::vector<RowBatch> batches = Drain(stream->get());

  // Only the last group (uid 550..599) can match.
  EXPECT_EQ(scan_report.groups_pruned.load(), 11u);
  EXPECT_GT(scan_report.batches.load(), 0u);
  EXPECT_LT(io.read_ops.load(), unfiltered_reads);
  EXPECT_EQ(TotalRows(batches), 50u);
  for (const RowBatch& b : batches) {
    for (int64_t uid : b.columns[0].int_values()) EXPECT_GE(uid, 550);
  }
}

TEST(ScanStream, ResidualEvaluationIsExact) {
  FileFixture fx(600, 50);
  // Cuts through the middle of group 5: zone maps alone cannot answer.
  auto stream = Scan(fx.reader.get())
                    .Columns({"uid", "tag"})
                    .Filter("uid", CompareOp::kGt, 275)
                    .Filter("score", CompareOp::kLt, 0.300)  // uid < 300
                    .Stream();
  ASSERT_TRUE(stream.ok());
  std::vector<RowBatch> batches = Drain(stream->get());
  std::vector<int64_t> got;
  for (const RowBatch& b : batches) {
    for (int64_t uid : b.columns[0].int_values()) got.push_back(uid);
  }
  std::vector<int64_t> want;
  for (int64_t uid = 276; uid < 300; ++uid) want.push_back(uid);
  EXPECT_EQ(got, want);
  // The filter-only column (score) is not emitted.
  for (const RowBatch& b : batches) EXPECT_EQ(b.columns.size(), 2u);
}

TEST(ScanStream, DatasetPredicatePrunesWholeShards) {
  DatasetFixture fx(600, 50, 200);  // 3 shards x 4 groups of 50 rows
  ASSERT_EQ(fx.manifest.num_shards(), 3u);
  std::map<std::string, std::atomic<uint64_t>> reads;
  auto ds = OpenCounted(fx.fs, fx.manifest, &reads);
  ASSERT_NE(ds, nullptr);
  for (auto& [name, n] : reads) n.store(0);  // drop the footer reads

  obs::PipelineReport scan_report;
  auto stream = Scan(ds.get())
                    .Columns({"uid"})
                    .Filter("uid", CompareOp::kLt, 150)
                    .Threads(2)
                    .Report(&scan_report)
                    .Stream();
  ASSERT_TRUE(stream.ok());
  std::vector<RowBatch> batches = Drain(stream->get());
  // Group 3 (uid 150..199) and all 8 groups of shards 1 and 2 are
  // pruned from their footer zone maps; those shards see no pread.
  EXPECT_EQ(scan_report.groups_pruned.load(), 9u);
  EXPECT_GT(reads[fx.manifest.shard(0).name].load(), 0u);
  EXPECT_EQ(reads[fx.manifest.shard(1).name].load(), 0u);
  EXPECT_EQ(reads[fx.manifest.shard(2).name].load(), 0u);
  EXPECT_EQ(TotalRows(batches), 150u);
  for (const RowBatch& b : batches) {
    for (int64_t uid : b.columns[0].int_values()) EXPECT_LT(uid, 150);
  }
}

TEST(ScanStream, FilteredDatasetScanReportsPlanTime) {
  // OpenScanStream resolves the spec and prunes row groups before the
  // stream, and with it wall_ns, starts; plan_ns holds that time.
  DatasetFixture fx(600, 50, 200);
  std::map<std::string, std::atomic<uint64_t>> reads;
  auto ds = OpenCounted(fx.fs, fx.manifest, &reads);
  ASSERT_NE(ds, nullptr);
  obs::PipelineReport scan_report;
  auto stream = Scan(ds.get())
                    .Columns({"uid"})
                    .Filter("uid", CompareOp::kLt, 150)
                    .Report(&scan_report)
                    .Stream();
  ASSERT_TRUE(stream.ok());
  EXPECT_GT(scan_report.plan_ns.load(), 0u);
  EXPECT_EQ(scan_report.groups_pruned.load(), 9u);
  EXPECT_EQ(scan_report.wall_ns.load(), 0u);  // recorded when drained
  EXPECT_EQ(TotalRows(Drain(stream->get())), 150u);
  EXPECT_GT(scan_report.wall_ns.load(), 0u);
  EXPECT_NE(scan_report.ToJson().find("\"plan_ns\""), std::string::npos);
}

TEST(ScanStream, ContradictoryPredicatesYieldEmptyStreamWithSchema) {
  FileFixture fx(600, 50);
  obs::PipelineReport scan_report;
  auto stream = Scan(fx.reader.get())
                    .Columns({"uid", "score"})
                    .Filter("uid", CompareOp::kGt, 400)
                    .Filter("uid", CompareOp::kLt, 300)
                    .Report(&scan_report)
                    .Stream();
  ASSERT_TRUE(stream.ok());
  // The schema is available even though nothing survives.
  EXPECT_EQ((*stream)->columns(), (std::vector<uint32_t>{0, 1}));
  ASSERT_EQ((*stream)->column_records().size(), 2u);
  EXPECT_EQ((*stream)->column_records()[0].physical,
            static_cast<uint8_t>(PhysicalType::kInt64));
  std::vector<RowBatch> batches = Drain(stream->get());
  EXPECT_EQ(TotalRows(batches), 0u);
  // Every group fails one of the two zone checks: all pruned, no I/O.
  EXPECT_EQ(scan_report.groups_pruned.load(), 12u);
  EXPECT_EQ(scan_report.batches.load(), 0u);
}

TEST(ScanStream, FooterWithoutStatsPrunesNothingButStaysExact) {
  FileFixture fx(600, 50, /*write_chunk_stats=*/false);
  // The file really is a legacy version-1 footer.
  EXPECT_FALSE(fx.reader->footer().has_chunk_stats());
  EXPECT_FALSE(fx.reader->footer().chunk_zone_map(0, 0).valid);

  obs::PipelineReport scan_report;
  auto stream = Scan(fx.reader.get())
                    .Columns({"uid"})
                    .Filter("uid", CompareOp::kGe, 550)
                    .Report(&scan_report)
                    .Stream();
  ASSERT_TRUE(stream.ok());
  std::vector<RowBatch> batches = Drain(stream->get());
  EXPECT_EQ(scan_report.groups_pruned.load(), 0u);  // nothing to prune with
  EXPECT_EQ(TotalRows(batches), 50u);              // residual keeps it exact
  for (const RowBatch& b : batches) {
    for (int64_t uid : b.columns[0].int_values()) EXPECT_GE(uid, 550);
  }
  // And a materializing scan over a v1 footer still works.
  auto collected = Scan(fx.reader.get()).Threads(2).Collect();
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(collected->num_rows(), 600u);
}

TEST(ScanStream, PruningNeverLosesRowsAcrossSelectivities) {
  DatasetFixture fx(600, 50, 200);
  for (int64_t cut : {-1, 0, 37, 299, 300, 550, 599, 600, 10000}) {
    auto stream = Scan(fx.reader.get())
                      .Columns({"uid"})
                      .Filter("uid", CompareOp::kGe, cut)
                      .Stream();
    ASSERT_TRUE(stream.ok());
    uint64_t got = TotalRows(Drain(stream->get()));
    uint64_t want = cut <= 0 ? 600 : (cut >= 600 ? 0 : 600 - cut);
    EXPECT_EQ(got, want) << "cut=" << cut;
  }
}

// ------------------------------------------------- validation edges

TEST(ScanStream, EmptyProjectionScansAllColumns) {
  FileFixture fx(100, 50);
  auto stream = Scan(fx.reader.get()).Columns({}).Stream();
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ((*stream)->columns(), (std::vector<uint32_t>{0, 1, 2, 3}));
  std::vector<RowBatch> batches = Drain(stream->get());
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].columns.size(), 4u);
}

TEST(ScanStream, DuplicateProjectionColumnsEmitDuplicateSlots) {
  FileFixture fx(100, 50);
  auto stream = Scan(fx.reader.get()).ColumnIndices({0, 0}).Stream();
  ASSERT_TRUE(stream.ok());
  std::vector<RowBatch> batches = Drain(stream->get());
  for (const RowBatch& b : batches) {
    ASSERT_EQ(b.columns.size(), 2u);
    EXPECT_EQ(b.columns[0], b.columns[1]);
  }
}

TEST(ScanStream, PredicateOnUnknownColumnIsNotFound) {
  FileFixture fx(100, 50);
  auto stream = Scan(fx.reader.get())
                    .Filter("no_such_column", CompareOp::kEq, 1)
                    .Stream();
  ASSERT_FALSE(stream.ok());
  EXPECT_TRUE(stream.status().IsNotFound()) << stream.status().ToString();
}

TEST(ScanStream, PredicateOnUnsupportedColumnTypeIsRejected) {
  FileFixture fx(100, 50);
  for (const char* col : {"tag", "clk_seq"}) {  // binary, list
    auto stream =
        Scan(fx.reader.get()).Filter(col, CompareOp::kEq, 1).Stream();
    ASSERT_FALSE(stream.ok()) << col;
    EXPECT_TRUE(stream.status().IsInvalidArgument()) << col;
  }
}

TEST(ScanStream, ProjectionValidationMatchesAcrossStreamAndCollect) {
  FileFixture fx(100, 50);
  DatasetFixture ds(100, 50, 100);
  // Unknown names: clear NotFound from every source and terminal call.
  EXPECT_TRUE(Scan(fx.reader.get()).Columns({"nope"}).Stream().status()
                  .IsNotFound());
  EXPECT_TRUE(Scan(fx.reader.get()).Columns({"nope"}).Collect().status()
                  .IsNotFound());
  EXPECT_TRUE(Scan(ds.reader.get()).Columns({"nope"}).Collect()
                  .status().IsNotFound());
  // Out-of-range indices: clear InvalidArgument everywhere.
  EXPECT_TRUE(Scan(fx.reader.get()).ColumnIndices({99}).Stream().status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Scan(fx.reader.get()).ColumnIndices({99}).Collect().status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Scan(ds.reader.get()).ColumnIndices({99}).Collect()
                  .status().IsInvalidArgument());
  // Inverted row-group ranges.
  EXPECT_TRUE(Scan(fx.reader.get()).RowGroups(2, 1).Stream().status()
                  .IsInvalidArgument());
  // A well-formed range past the end is an empty stream, not an error.
  auto past = Scan(fx.reader.get()).RowGroups(50, 60).Stream();
  ASSERT_TRUE(past.ok());
  EXPECT_EQ(TotalRows(Drain(past->get())), 0u);
}

TEST(ScanStream, CacheOnSingleFileSourceIsRejected) {
  FileFixture fx(100, 50);
  DecodedChunkCache cache(1 << 20);
  auto stream = Scan(fx.reader.get()).Cache(&cache).Stream();
  ASSERT_FALSE(stream.ok());
  EXPECT_TRUE(stream.status().IsInvalidArgument());
}

// ------------------------------------------------- cache + concurrency

TEST(ScanStream, WarmCacheEpochIssuesZeroPreads) {
  DatasetFixture fx(600, 50, 200);
  DecodedChunkCache cache(64 << 20);
  auto epoch = [&] {
    auto stream = Scan(fx.reader.get())
                      .Columns({"uid", "score"})
                      .Threads(2)
                      .Cache(&cache)
                      .Stream();
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    std::vector<RowBatch> batches = Drain(stream->get());
    EXPECT_EQ(TotalRows(batches), 600u);
  };
  epoch();  // cold: fills the cache
  fx.fs.stats().Reset();
  epoch();  // warm: every chunk served decoded from the LRU
  EXPECT_EQ(fx.fs.stats().read_ops.load(), 0u);
  EXPECT_GT(cache.hits(), 0u);
}

TEST(ScanStream, ReportCountsItsOwnCacheTraffic) {
  // Each scan's report counts the cache probes that scan made, and
  // agrees with the cache's own counters over the same scan.
  DatasetFixture fx(600, 50, 200);
  DecodedChunkCache cache(64 << 20);
  const uint64_t probes = 2 * fx.reader->num_row_groups();  // 2 columns
  auto epoch = [&](obs::PipelineReport* report) {
    const uint64_t hits0 = cache.hits(), misses0 = cache.misses();
    auto stream = Scan(fx.reader.get())
                      .Columns({"uid", "score"})
                      .Threads(2)
                      .Cache(&cache)
                      .Report(report)
                      .Stream();
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    EXPECT_EQ(TotalRows(Drain(stream->get())), 600u);
    EXPECT_EQ(report->cache_hits.load(), cache.hits() - hits0);
    EXPECT_EQ(report->cache_misses.load(), cache.misses() - misses0);
  };
  obs::PipelineReport cold, warm;
  epoch(&cold);
  EXPECT_EQ(cold.cache_misses.load(), probes);
  EXPECT_EQ(cold.cache_hits.load(), 0u);
  epoch(&warm);
  EXPECT_EQ(warm.cache_hits.load(), probes);
  EXPECT_EQ(warm.cache_misses.load(), 0u);
  EXPECT_NE(warm.ToJson().find("\"cache_hits\": " + std::to_string(probes)),
            std::string::npos);
}

TEST(ScanStream, FilteredScanSharesCacheWithUnfilteredScan) {
  DatasetFixture fx(600, 50, 200);
  DecodedChunkCache cache(64 << 20);
  auto warm = Scan(fx.reader.get()).Columns({"uid"}).Cache(&cache).Stream();
  ASSERT_TRUE(warm.ok());
  Drain(warm->get());
  fx.fs.stats().Reset();
  // The filtered scan's surviving groups hit the same cached chunks.
  auto stream = Scan(fx.reader.get())
                    .Columns({"uid"})
                    .Filter("uid", CompareOp::kLt, 150)
                    .Cache(&cache)
                    .Stream();
  ASSERT_TRUE(stream.ok());
  std::vector<RowBatch> batches = Drain(stream->get());
  EXPECT_EQ(TotalRows(batches), 150u);
  EXPECT_EQ(fx.fs.stats().read_ops.load(), 0u);
}

TEST(ScanStream, ConcurrentStreamsShareOnePoolAndCache) {
  DatasetFixture fx(600, 50, 200);
  DecodedChunkCache cache(64 << 20);
  ThreadPool pool(4);
  std::vector<std::vector<ColumnVector>> truth = SerialGroups(fx.reader.get());
  std::vector<std::thread> consumers;
  for (int t = 0; t < 4; ++t) {
    consumers.emplace_back([&] {
      auto stream = Scan(fx.reader.get())
                        .Pool(&pool)
                        .Cache(&cache)
                        .Filter("uid", CompareOp::kGe, 0)  // keeps everything
                        .Stream();
      ASSERT_TRUE(stream.ok());
      std::vector<RowBatch> batches;
      RowBatch batch;
      for (;;) {
        auto more = (*stream)->Next(&batch);
        ASSERT_TRUE(more.ok()) << more.status().ToString();
        if (!*more) break;
        batches.push_back(std::move(batch));
      }
      ASSERT_EQ(batches.size(), truth.size());
      for (size_t g = 0; g < batches.size(); ++g) {
        EXPECT_EQ(batches[g].columns, truth[g]);
      }
    });
  }
  for (std::thread& th : consumers) th.join();
}

// ------------------------------------------------- schema evolution

TEST(ScanStream, FilterOnEvolvedColumnPrunesPredatingShards) {
  DatasetFixture fx(400, 50, 200);  // 2 shards without the new column
  auto read_fn = [&](const std::string& n) { return fx.fs.NewReadableFile(n); };
  auto write_fn = [&](const std::string& n) {
    return fx.fs.NewWritableFile(n);
  };
  // Append a shard that adds a nullable trailing "label" column.
  Schema evolved({
      Field{"uid", DataType::Primitive(PhysicalType::kInt64),
            LogicalType::kPlain, true},
      Field{"score", DataType::Primitive(PhysicalType::kFloat64),
            LogicalType::kPlain, false},
      Field{"tag", DataType::Primitive(PhysicalType::kBinary),
            LogicalType::kPlain, false},
      Field{"clk_seq",
            DataType::List(DataType::Primitive(PhysicalType::kInt64)),
            LogicalType::kIdSequence, false},
      Field{"label", DataType::Primitive(PhysicalType::kInt64),
            LogicalType::kPlain, false, /*nullable=*/true},
  });
  DatasetAppendOptions aopts;
  aopts.writer.rows_per_group = 50;
  aopts.writer.target_rows_per_shard = 200;
  aopts.writer.writer.rows_per_page = 16;
  auto appender = DatasetAppender::Open(fx.manifest, evolved, read_fn,
                                        write_fn, aopts);
  ASSERT_TRUE(appender.ok()) << appender.status().ToString();
  std::vector<ColumnVector> batch = MakeOrderedData(fx.schema, 200, 400);
  ColumnVector label(PhysicalType::kInt64, 0);
  for (int64_t r = 0; r < 200; ++r) label.AppendInt(7000 + r);
  batch.push_back(std::move(label));
  ASSERT_TRUE((*appender)->Append(batch).ok());
  auto live = (*appender)->Finish();
  ASSERT_TRUE(live.ok());

  std::map<std::string, std::atomic<uint64_t>> reads;
  auto ds = OpenCounted(fx.fs, *live, &reads);
  ASSERT_NE(ds, nullptr);
  ASSERT_EQ(live->num_shards(), 3u);
  // The two pre-evolution shards are all-null for "label": each of
  // their 8 groups is pruned without touching a single byte of them,
  // also by a scan that keeps deleted rows.
  for (bool filter_deleted : {true, false}) {
    for (auto& [name, n] : reads) n.store(0);  // drop earlier reads
    ReadOptions ropts;
    ropts.filter_deleted = filter_deleted;
    obs::PipelineReport scan_report;
    auto stream = Scan(ds.get())
                      .Columns({"uid", "label"})
                      .Filter("label", CompareOp::kGe, 7000)
                      .Options(ropts)
                      .Report(&scan_report)
                      .Stream();
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    std::vector<RowBatch> batches = Drain(stream->get());
    EXPECT_EQ(scan_report.groups_pruned.load(), 8u) << filter_deleted;
    EXPECT_EQ(reads[live->shard(0).name].load(), 0u) << filter_deleted;
    EXPECT_EQ(reads[live->shard(1).name].load(), 0u) << filter_deleted;
    EXPECT_GT(reads[live->shard(2).name].load(), 0u) << filter_deleted;
    EXPECT_EQ(TotalRows(batches), 200u) << filter_deleted;
    for (const RowBatch& b : batches) {
      for (int64_t v : b.columns[1].int_values()) EXPECT_GE(v, 7000);
    }
  }
}

// ------------------------------------------------- zone maps

TEST(ScanStream, ZoneMapMayMatchIsConservativeAndTight) {
  ZoneMap z = ZoneMap::OfInts(10, 20);
  EXPECT_TRUE(ZoneMapMayMatch(z, CompareOp::kEq, FilterValue(int64_t{15})));
  EXPECT_FALSE(ZoneMapMayMatch(z, CompareOp::kEq, FilterValue(int64_t{21})));
  EXPECT_FALSE(ZoneMapMayMatch(z, CompareOp::kGt, FilterValue(int64_t{20})));
  EXPECT_TRUE(ZoneMapMayMatch(z, CompareOp::kGe, FilterValue(int64_t{20})));
  EXPECT_FALSE(ZoneMapMayMatch(z, CompareOp::kLt, FilterValue(int64_t{10})));
  EXPECT_TRUE(ZoneMapMayMatch(z, CompareOp::kLe, FilterValue(int64_t{10})));
  EXPECT_TRUE(ZoneMapMayMatch(z, CompareOp::kNe, FilterValue(int64_t{15})));
  // A constant extent is the only one kNe can prune.
  ZoneMap c = ZoneMap::OfInts(7, 7);
  EXPECT_FALSE(ZoneMapMayMatch(c, CompareOp::kNe, FilterValue(int64_t{7})));
  EXPECT_TRUE(ZoneMapMayMatch(c, CompareOp::kEq, FilterValue(int64_t{7})));
  // Mixed int/real comparisons promote to double.
  EXPECT_TRUE(ZoneMapMayMatch(z, CompareOp::kGt, FilterValue(19.5)));
  EXPECT_FALSE(ZoneMapMayMatch(z, CompareOp::kGt, FilterValue(20.0)));
  // Unknown zones can never prune.
  EXPECT_TRUE(
      ZoneMapMayMatch(ZoneMap{}, CompareOp::kEq, FilterValue(int64_t{1})));
}

}  // namespace
}  // namespace bullion
