// Point-lookup serving-tier tests: split-block Bloom filters (round
// trip, FPR bound, malformed input), the footer/manifest version
// ladders degrading to "no Bloom, never prune" with exact results, the
// bullion::Lookup front door's byte-identity with a filtered Scan at
// every thread count, late materialization (including the
// deleted-rows fallback), IN/OR predicate pushdown, and concurrent
// Zipf-keyed lookers sharing one pool and cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/bullion.h"
#include "workload/zipf.h"

namespace bullion {
namespace {

Schema MakeServeSchema() {
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

/// Rows with uid == stride * global row index, so with stride > 1
/// every odd key is inside every zone map's [min, max] yet absent —
/// exactly what a Bloom filter (and nothing else) can prove.
std::vector<ColumnVector> MakeServeData(const Schema& schema, size_t rows,
                                        size_t first_row,
                                        int64_t stride = 1) {
  std::vector<ColumnVector> cols;
  for (const LeafColumn& leaf : schema.leaves()) {
    cols.push_back(ColumnVector::ForLeaf(leaf));
  }
  for (size_t r = 0; r < rows; ++r) {
    int64_t uid = stride * static_cast<int64_t>(first_row + r);
    cols[0].AppendInt(uid);
    cols[1].AppendReal(static_cast<double>(uid) / 1000.0);
    cols[2].AppendBinary("tag" + std::to_string(uid % 7));
    cols[3].AppendIntList({uid, uid + 1});
  }
  return cols;
}

struct FileFixture {
  InMemoryFileSystem fs;
  Schema schema = MakeServeSchema();
  std::unique_ptr<TableReader> reader;

  FileFixture(size_t total_rows, uint32_t rows_per_group,
              bool write_chunk_stats = true, double bloom_bits_per_key = 10.0,
              int64_t stride = 1) {
    std::vector<std::vector<ColumnVector>> groups;
    for (size_t r = 0; r < total_rows; r += rows_per_group) {
      groups.push_back(MakeServeData(
          schema, std::min<size_t>(rows_per_group, total_rows - r), r,
          stride));
    }
    WriterOptions opts;
    opts.rows_per_page = 16;
    opts.write_chunk_stats = write_chunk_stats;
    opts.bloom_bits_per_key = bloom_bits_per_key;
    auto f = fs.NewWritableFile("t");
    EXPECT_TRUE(WriteTableFile(f->get(), schema, groups, opts).ok());
    reader = *TableReader::Open(*fs.NewReadableFile("t"));
  }
};

struct DatasetFixture {
  InMemoryFileSystem fs;
  Schema schema = MakeServeSchema();
  ShardManifest manifest;
  std::unique_ptr<ShardedTableReader> reader;

  DatasetFixture(size_t total_rows, uint32_t rows_per_group,
                 uint64_t rows_per_shard, double bloom_bits_per_key = 10.0,
                 int64_t stride = 1) {
    ShardedWriterOptions opts;
    opts.rows_per_group = rows_per_group;
    opts.target_rows_per_shard = rows_per_shard;
    opts.base_name = "t";
    opts.writer.rows_per_page = 16;
    opts.writer.bloom_bits_per_key = bloom_bits_per_key;
    ShardedTableWriter writer(schema, opts, [&](const std::string& name) {
      return fs.NewWritableFile(name);
    });
    EXPECT_TRUE(
        writer.Append(MakeServeData(schema, total_rows, 0, stride)).ok());
    manifest = *writer.Finish();
    reader = *ShardedTableReader::Open(manifest, [&](const std::string& n) {
      return fs.NewReadableFile(n);
    });
  }

  std::unique_ptr<ShardedTableReader> Reopen(const ShardManifest& m) {
    return *ShardedTableReader::Open(m, [&](const std::string& n) {
      return fs.NewReadableFile(n);
    });
  }
};

/// Collects a filtered scan into per-column concatenations — the
/// ground truth a Lookup must match byte for byte.
std::vector<ColumnVector> CollectConcat(const ScanStreamBuilder& scan) {
  auto collected = scan.Collect();
  EXPECT_TRUE(collected.ok()) << collected.status().ToString();
  std::vector<ColumnVector> concat;
  if (!collected.ok()) return concat;
  for (size_t c = 0; c < collected->columns.size(); ++c) {
    concat.push_back(*collected->ConcatColumn(c));
  }
  return concat;
}

// ------------------------------------------------------- Bloom filters

TEST(Bloom, RoundTripHasNoFalseNegatives) {
  const size_t kKeys = 10000;
  BloomFilter builder = BloomFilter::Sized(kKeys, 10.0);
  for (size_t k = 0; k < kKeys; ++k) builder.AddHash(BloomHashInt(k * 3));
  std::string bytes = builder.ToBytes();
  ASSERT_FALSE(bytes.empty());
  ASSERT_EQ(bytes.size() % kBloomBlockBytes, 0u);
  auto view = BloomFilterView::Wrap(Slice(bytes));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  for (size_t k = 0; k < kKeys; ++k) {
    EXPECT_TRUE(view->MayContain(BloomHashInt(k * 3))) << k;
  }
}

TEST(Bloom, FprStaysNearTheModel) {
  const size_t kKeys = 8192;
  BloomFilter builder = BloomFilter::Sized(kKeys, 10.0);
  for (size_t k = 0; k < kKeys; ++k) builder.AddHash(BloomHashInt(k));
  std::string bytes = builder.ToBytes();
  auto view = BloomFilterView::Wrap(Slice(bytes));
  ASSERT_TRUE(view.ok());
  const double expected =
      BloomExpectedFpr(kKeys, bytes.size() / kBloomBlockBytes);
  EXPECT_GT(expected, 0.0);
  EXPECT_LT(expected, 0.05);  // ~0.9% at 10 bits/key
  size_t false_positives = 0;
  const size_t kProbes = 20000;
  for (size_t k = 0; k < kProbes; ++k) {
    // Probe keys disjoint from the inserted range.
    if (view->MayContain(BloomHashInt(1 << 20 | k))) ++false_positives;
  }
  const double measured =
      static_cast<double>(false_positives) / static_cast<double>(kProbes);
  // Loose statistical bound: 4x the model plus slack for small samples.
  EXPECT_LT(measured, 4.0 * expected + 0.01)
      << "measured " << measured << " expected " << expected;
}

TEST(Bloom, WrapRejectsMalformedBytes) {
  EXPECT_FALSE(BloomFilterView::Wrap(Slice()).ok());
  std::string odd(33, '\0');
  EXPECT_FALSE(BloomFilterView::Wrap(Slice(odd)).ok());
}

TEST(Bloom, BinaryKeysRoundTrip) {
  BloomFilter builder = BloomFilter::Sized(100, 12.0);
  for (int k = 0; k < 100; ++k) {
    builder.AddHash(BloomHashBinary("key-" + std::to_string(k)));
  }
  std::string bytes = builder.ToBytes();
  auto view = BloomFilterView::Wrap(Slice(bytes));
  ASSERT_TRUE(view.ok());
  for (int k = 0; k < 100; ++k) {
    EXPECT_TRUE(view->MayContain(BloomHashBinary("key-" + std::to_string(k))));
  }
}

TEST(Bloom, FilterValueDomainMismatchRefusesToHash) {
  uint64_t h = 0;
  // Real constants never hash (float columns are never filtered).
  EXPECT_FALSE(BloomHashFilterValue(PhysicalType::kInt64, FilterValue(1.5), &h));
  // Binary constant against an integer column and vice versa.
  EXPECT_FALSE(BloomHashFilterValue(PhysicalType::kInt64, FilterValue("x"), &h));
  EXPECT_FALSE(BloomHashFilterValue(PhysicalType::kBinary, FilterValue(7), &h));
  // Matching domains hash to the write-side functions.
  ASSERT_TRUE(BloomHashFilterValue(PhysicalType::kInt64, FilterValue(7), &h));
  EXPECT_EQ(h, BloomHashInt(7));
  ASSERT_TRUE(BloomHashFilterValue(PhysicalType::kBinary, FilterValue("x"), &h));
  EXPECT_EQ(h, BloomHashBinary("x"));
}

TEST(Bloom, EligibilityMatrix) {
  EXPECT_TRUE(BloomEligibleColumn(PhysicalType::kInt64, 0));
  EXPECT_TRUE(BloomEligibleColumn(PhysicalType::kBinary, 0));
  EXPECT_FALSE(BloomEligibleColumn(PhysicalType::kFloat64, 0));
  EXPECT_FALSE(BloomEligibleColumn(PhysicalType::kFloat32, 0));
  EXPECT_FALSE(BloomEligibleColumn(PhysicalType::kInt64, 1));  // lists
}

// ------------------------------------------- footer + manifest ladders

TEST(PointLookup, FooterV3CarriesChunkBloomsForEligibleColumns) {
  FileFixture fx(200, 50);
  const FooterView& footer = fx.reader->footer();
  ASSERT_TRUE(footer.has_chunk_stats());
  ASSERT_TRUE(footer.has_chunk_blooms());
  for (uint32_t g = 0; g < footer.num_row_groups(); ++g) {
    EXPECT_FALSE(footer.chunk_bloom(g, 0).empty());  // uid: int64
    EXPECT_TRUE(footer.chunk_bloom(g, 1).empty());   // score: float64
    EXPECT_FALSE(footer.chunk_bloom(g, 2).empty());  // tag: binary
    EXPECT_TRUE(footer.chunk_bloom(g, 3).empty());   // clk_seq: list
  }
}

TEST(PointLookup, StatsOffDegradesToV1NoBloomNeverPruneStaysExact) {
  FileFixture fx(200, 50, /*write_chunk_stats=*/false);
  const FooterView& footer = fx.reader->footer();
  EXPECT_FALSE(footer.has_chunk_stats());
  EXPECT_FALSE(footer.has_chunk_blooms());
  obs::PipelineReport report;
  auto hit = Lookup(fx.reader.get())
                 .Key("uid", 123)
                 .Columns({"uid", "score"})
                 .Report(&report)
                 .Run();
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  ASSERT_EQ(hit->num_rows(), 1u);
  EXPECT_EQ(hit->columns[0].int_values()[0], 123);
  // Nothing can prune without stats — but results stay exact.
  EXPECT_EQ(report.groups_pruned.load(), 0u);
  auto miss = Lookup(fx.reader.get()).Key("uid", 100000).Run();
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->num_rows(), 0u);
}

TEST(PointLookup, BloomDisabledWritesV2ZonesStillPrune) {
  FileFixture fx(200, 50, /*write_chunk_stats=*/true,
                 /*bloom_bits_per_key=*/0.0);
  const FooterView& footer = fx.reader->footer();
  EXPECT_TRUE(footer.has_chunk_stats());
  EXPECT_FALSE(footer.has_chunk_blooms());
  obs::PipelineReport report;
  auto hit =
      Lookup(fx.reader.get()).Key("uid", 60).Report(&report).Run();
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->num_rows(), 1u);
  EXPECT_GT(report.groups_pruned.load(), 0u);  // zones prune other groups
}

TEST(PointLookup, ManifestV4CarriesShardBloomsAndRoundTrips) {
  DatasetFixture fx(300, 50, 100);
  ASSERT_GT(fx.manifest.num_shards(), 1u);
  for (size_t s = 0; s < fx.manifest.num_shards(); ++s) {
    EXPECT_NE(fx.manifest.shard(s).column_bloom(0), nullptr);  // uid
    EXPECT_NE(fx.manifest.shard(s).column_bloom(2), nullptr);  // tag
    EXPECT_EQ(fx.manifest.shard(s).column_bloom(1), nullptr);  // float
    EXPECT_EQ(fx.manifest.shard(s).column_bloom(3), nullptr);  // list
  }
  Buffer blob = fx.manifest.Serialize();
  auto parsed = ShardManifest::Parse(blob.AsSlice());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, fx.manifest);
}

TEST(PointLookup, ManifestWithoutBloomsDegradesToChunkFilters) {
  DatasetFixture fx(300, 50, 100);
  // Simulate a manifest published by a pre-Bloom writer (v1–v3 parse
  // into exactly this shape: no column_blooms anywhere).
  std::vector<ShardInfo> stripped = fx.manifest.shards();
  for (ShardInfo& s : stripped) s.column_blooms.clear();
  ShardManifest old(std::move(stripped), fx.manifest.generation());
  auto reader = fx.Reopen(old);
  for (int64_t key : {0, 155, 299, 100000}) {
    auto hit = Lookup(reader.get()).Key("uid", key).Columns({"uid"}).Run();
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    EXPECT_EQ(hit->num_rows(), key < 300 ? 1u : 0u) << key;
  }
}

// ----------------------------------------------- lookup byte-identity

TEST(PointLookup, LookupMatchesFilteredScanAtEveryThreadCount) {
  DatasetFixture fx(600, 50, 200);
  for (int64_t key : {0, 299, 555, 999999}) {
    std::vector<ColumnVector> truth =
        CollectConcat(Scan(fx.reader.get())
                          .Columns({"uid", "score", "tag"})
                          .Filter("uid", CompareOp::kEq, key)
                          .Threads(1));
    ASSERT_EQ(truth.size(), 3u);
    EXPECT_EQ(truth[0].num_rows(), key < 600 ? 1u : 0u) << "key=" << key;
    for (size_t threads : {1, 2, 4, 8}) {
      auto hit = Lookup(fx.reader.get())
                     .Key("uid", key)
                     .Columns({"uid", "score", "tag"})
                     .Threads(threads)
                     .Run();
      ASSERT_TRUE(hit.ok()) << hit.status().ToString();
      // A miss is one empty column per projected column, like the scan.
      ASSERT_EQ(hit->columns.size(), truth.size())
          << "key=" << key << " threads=" << threads;
      for (size_t c = 0; c < truth.size(); ++c) {
        EXPECT_EQ(hit->columns[c], truth[c])
            << "key=" << key << " threads=" << threads << " col=" << c;
      }
    }
  }
}

TEST(PointLookup, LateMaterializationOnAndOffAreIdentical) {
  DatasetFixture fx(600, 50, 200);
  for (int64_t key : {7, 451}) {
    auto eager = Lookup(fx.reader.get())
                     .Key("uid", key)
                     .LateMaterialize(false)
                     .Run();
    auto late = Lookup(fx.reader.get()).Key("uid", key).Run();
    ASSERT_TRUE(eager.ok());
    ASSERT_TRUE(late.ok());
    ASSERT_EQ(eager->columns.size(), late->columns.size());
    for (size_t c = 0; c < eager->columns.size(); ++c) {
      EXPECT_EQ(eager->columns[c], late->columns[c]) << "col " << c;
    }
    EXPECT_EQ(eager->column_names, late->column_names);
  }
}

TEST(PointLookup, BinaryKeyLookup) {
  DatasetFixture fx(350, 50, 175);
  std::vector<ColumnVector> truth =
      CollectConcat(Scan(fx.reader.get())
                        .Columns({"uid", "tag"})
                        .Filter("tag", CompareOp::kEq, "tag3")
                        .Threads(1));
  ASSERT_FALSE(truth.empty());
  ASSERT_GT(truth[0].num_rows(), 0u);
  auto hit = Lookup(fx.reader.get())
                 .Key("tag", "tag3")
                 .Columns({"uid", "tag"})
                 .Threads(2)
                 .Run();
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  ASSERT_EQ(hit->columns.size(), truth.size());
  for (size_t c = 0; c < truth.size(); ++c) {
    EXPECT_EQ(hit->columns[c], truth[c]);
  }
  // A binary key no row holds misses outright.
  auto miss = Lookup(fx.reader.get()).Key("tag", "absent").Run();
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->num_rows(), 0u);
}

TEST(PointLookup, BatchKeysMatchInScan) {
  DatasetFixture fx(600, 50, 200);
  std::vector<FilterValue> keys = {5, 250, 555, 100000};
  std::vector<ColumnVector> truth = CollectConcat(Scan(fx.reader.get())
                                                      .Columns({"uid", "score"})
                                                      .FilterIn("uid", keys)
                                                      .Threads(1));
  ASSERT_FALSE(truth.empty());
  EXPECT_EQ(truth[0].num_rows(), 3u);  // 100000 is absent
  auto hits = Lookup(fx.reader.get())
                  .Keys("uid", keys)
                  .Columns({"uid", "score"})
                  .Run();
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  for (size_t c = 0; c < truth.size(); ++c) {
    EXPECT_EQ(hits->columns[c], truth[c]);
  }
}

TEST(PointLookup, RunWithoutKeyIsRejected) {
  FileFixture fx(100, 50);
  auto r = Lookup(fx.reader.get()).Columns({"uid"}).Run();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(PointLookup, EmptyKeyListMatchesNothingWithoutPreads) {
  FileFixture fx(200, 50);
  IoStats& io = fx.fs.stats();
  io.Reset();
  auto r = Lookup(fx.reader.get()).Keys("uid", {}).Run();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_rows(), 0u);
  // An empty IN list prunes every group before a single data pread.
  EXPECT_EQ(io.read_ops.load(), 0u);
}

// ---------------------------------------------------- pruning economics

TEST(PointLookup, BloomSkipsPreadsZonesCannotOnInZoneMisses) {
  // stride 2: odd keys sit inside every zone range but no row holds
  // them — only the Bloom filters can prove the groups empty.
  FileFixture with_bloom(400, 50, true, 10.0, /*stride=*/2);
  FileFixture no_bloom(400, 50, true, 0.0, /*stride=*/2);
  auto probe = [](FileFixture& fx, obs::PipelineReport* report) {
    for (int64_t key = 1; key < 100; key += 14) {  // odd → absent
      auto r = Lookup(fx.reader.get())
                   .Key("uid", key)
                   .Columns({"uid", "score"})
                   .Report(report)
                   .Run();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->num_rows(), 0u) << key;
    }
  };
  with_bloom.fs.stats().Reset();
  obs::PipelineReport bloom_report;
  probe(with_bloom, &bloom_report);
  uint64_t bloom_reads = with_bloom.fs.stats().read_ops.load();

  no_bloom.fs.stats().Reset();
  obs::PipelineReport plain_report;
  probe(no_bloom, &plain_report);
  uint64_t plain_reads = no_bloom.fs.stats().read_ops.load();

  // The Bloom-filtered file answers every in-zone miss with zero data
  // preads; the zones-only file must fetch and row-filter.
  EXPECT_EQ(bloom_reads, 0u);
  EXPECT_GT(plain_reads, 0u);
  EXPECT_GT(bloom_report.groups_pruned.load(),
            plain_report.groups_pruned.load());
}

TEST(PointLookup, ShardBloomsPruneWholeShardsOnInZoneMisses) {
  DatasetFixture fx(600, 50, 200, 10.0, /*stride=*/2);
  ASSERT_GT(fx.manifest.num_shards(), 1u);
  obs::PipelineReport report;
  // Key 1 is odd: inside the first shard's zone range [0, 398] yet
  // absent, so only the aggregate Bloom filter can prove that shard
  // empty; the later shards' zones exclude it outright. Every shard is
  // skipped without touching its footer. (The key is fixed: data and
  // hash seed are deterministic, and 1 is a verified Bloom negative —
  // some odd keys are legitimate ~1% false positives.)
  auto r = Lookup(fx.reader.get()).Key("uid", 1).Report(&report).Run();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_rows(), 0u);
  EXPECT_EQ(report.shards_pruned.load(), fx.manifest.num_shards());
}

TEST(PointLookup, LateMaterializationShrinksBytesFetched) {
  // Wide projection + single-row match: the eager path fetches every
  // projected column of the surviving group; the late path fetches the
  // key column plus one page run per remaining column.
  FileFixture fx(2000, 500);
  IoStats& io = fx.fs.stats();

  io.Reset();
  auto eager = Lookup(fx.reader.get())
                   .Key("uid", 777)
                   .Columns({"uid", "score", "tag", "clk_seq"})
                   .LateMaterialize(false)
                   .Run();
  ASSERT_TRUE(eager.ok());
  ASSERT_EQ(eager->num_rows(), 1u);
  uint64_t eager_bytes = io.bytes_read.load();

  io.Reset();
  auto late = Lookup(fx.reader.get())
                  .Key("uid", 777)
                  .Columns({"uid", "score", "tag", "clk_seq"})
                  .Run();
  ASSERT_TRUE(late.ok());
  ASSERT_EQ(late->num_rows(), 1u);
  uint64_t late_bytes = io.bytes_read.load();

  for (size_t c = 0; c < eager->columns.size(); ++c) {
    EXPECT_EQ(eager->columns[c], late->columns[c]);
  }
  EXPECT_LT(late_bytes, eager_bytes);
}

/// Fails every read that overlaps [bad_begin, bad_end) with an
/// injected IOError; other reads pass through.
class FailRangeFile : public RandomAccessFile {
 public:
  FailRangeFile(std::unique_ptr<RandomAccessFile> base, uint64_t bad_begin,
                uint64_t bad_end)
      : base_(std::move(base)), bad_begin_(bad_begin), bad_end_(bad_end) {}
  Status Read(uint64_t offset, size_t len, Buffer* out) const override {
    if (offset < bad_end_ && offset + len > bad_begin_) {
      return Status::IOError("injected EIO in the score chunk");
    }
    return base_->Read(offset, len, out);
  }
  Result<uint64_t> Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  uint64_t bad_begin_;
  uint64_t bad_end_;
};

TEST(PointLookup, FailedProjectionReadIsAnErrorNeverAShortAnswer) {
  FileFixture fx(2000, 500);  // uid 777 is row 277 of group 1
  const FooterView& footer = fx.reader->footer();
  auto score = footer.FindColumn("score");
  ASSERT_TRUE(score.ok());
  const auto pages = footer.chunk_pages(1, *score);
  auto failing = std::make_unique<FailRangeFile>(
      *fx.fs.NewReadableFile("t"), footer.page_offset(pages.first),
      footer.page_offset(pages.second));
  auto reader = TableReader::Open(std::move(failing));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();

  // The fault is confined to that chunk: the key column of group 1 and
  // every column of group 0 still read.
  auto key_only = Lookup(reader->get()).Key("uid", 777).Columns({"uid"}).Run();
  ASSERT_TRUE(key_only.ok()) << key_only.status().ToString();
  EXPECT_EQ(key_only->num_rows(), 1u);
  auto other_group =
      Lookup(reader->get()).Key("uid", 100).Columns({"uid", "score"}).Run();
  ASSERT_TRUE(other_group.ok()) << other_group.status().ToString();
  EXPECT_EQ(other_group->num_rows(), 1u);

  // Late materialization fails in its phase-2 page-run read; the eager
  // path fails in the coalesced read that covers both columns. Either
  // way the lookup returns the injected error, not zero or partial
  // rows.
  for (bool late : {true, false}) {
    auto hit = Lookup(reader->get())
                   .Key("uid", 777)
                   .Columns({"uid", "score"})
                   .LateMaterialize(late)
                   .Run();
    ASSERT_FALSE(hit.ok()) << "late=" << late << " returned "
                           << hit->num_rows() << " rows";
    EXPECT_TRUE(hit.status().IsIOError()) << hit.status().ToString();
    EXPECT_NE(hit.status().ToString().find("injected EIO"), std::string::npos)
        << hit.status().ToString();
  }
}

// -------------------------------------------- late-mat with deletions

TEST(PointLookup, LateMaterializationFallsBackOnDeletedGroups) {
  InMemoryFileSystem fs;
  Schema schema = MakeServeSchema();
  std::vector<std::vector<ColumnVector>> groups;
  for (size_t r = 0; r < 200; r += 50) {
    groups.push_back(MakeServeData(schema, 50, r));
  }
  WriterOptions wopts;
  wopts.rows_per_page = 16;
  auto f = fs.NewWritableFile("t");
  ASSERT_TRUE(WriteTableFile(f->get(), schema, groups, wopts).ok());
  {
    auto reader = *TableReader::Open(*fs.NewReadableFile("t"));
    auto rf = fs.NewReadableFile("t");
    auto uf = fs.OpenForUpdate("t");
    DeleteExecutor exec(rf->get(), uf->get(), reader->footer());
    // Delete rows around (but not including) uid 60 in its group.
    std::vector<uint64_t> doomed = {58, 59, 61, 62};
    auto report = exec.DeleteRows(doomed, ComplianceLevel::kLevel2);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }
  auto reader = *TableReader::Open(*fs.NewReadableFile("t"));
  // uid 60 survives; its group now has in-place deletes, so late
  // materialization must silently take the full-fetch path and still
  // return exactly the surviving row.
  auto hit = Lookup(reader.get())
                 .Key("uid", 60)
                 .Columns({"uid", "score", "tag"})
                 .Run();
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  ASSERT_EQ(hit->num_rows(), 1u);
  EXPECT_EQ(hit->columns[0].int_values()[0], 60);
  auto gone = Lookup(reader.get()).Key("uid", 59).Run();
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone->num_rows(), 0u);
}

// ------------------------------------------------- IN / OR pushdown

TEST(PointLookup, ZoneMapInDisjunction) {
  ZoneMap zone = ZoneMap::OfInts(100, 200);
  Filter in_hit{"c", std::vector<FilterValue>{5, 150, 999}};
  Filter in_miss{"c", std::vector<FilterValue>{5, 99, 201}};
  Filter in_empty{"c", std::vector<FilterValue>{}};
  EXPECT_TRUE(ZoneMapMayMatch(zone, in_hit));
  EXPECT_FALSE(ZoneMapMayMatch(zone, in_miss));
  EXPECT_FALSE(ZoneMapMayMatch(zone, in_empty));
  // Unknown zones cannot prune a non-empty list; an empty IN matches
  // no row regardless of the zone.
  EXPECT_TRUE(ZoneMapMayMatch(ZoneMap{}, in_hit));
  EXPECT_FALSE(ZoneMapMayMatch(ZoneMap{}, in_empty));
}

TEST(PointLookup, CrossColumnOrClauseMatchesManualUnion) {
  FileFixture fx(600, 50);
  FilterClause clause;
  clause.any_of.push_back(Filter{"uid", CompareOp::kLt, 5});
  clause.any_of.push_back(Filter{"uid", CompareOp::kGe, 595});
  obs::PipelineReport report;
  std::vector<ColumnVector> got = CollectConcat(Scan(fx.reader.get())
                                                    .Columns({"uid"})
                                                    .FilterAnyOf(clause)
                                                    .Report(&report)
                                                    .Threads(2));
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].num_rows(), 10u);
  std::set<int64_t> uids(got[0].int_values().begin(),
                         got[0].int_values().end());
  for (int64_t u : {0, 1, 2, 3, 4, 595, 596, 597, 598, 599}) {
    EXPECT_EQ(uids.count(u), 1u) << u;
  }
  // Middle groups satisfy neither arm: the clause prunes them.
  EXPECT_GT(report.groups_pruned.load(), 0u);
}

TEST(PointLookup, OrClauseOnlyPrunesWhenEveryArmIsDisproven) {
  FileFixture fx(600, 50);
  // Arm 1 misses every zone; arm 2 matches one group — no group where
  // arm 2 matches may be pruned.
  FilterClause clause;
  clause.any_of.push_back(Filter{"uid", CompareOp::kEq, 100000});
  clause.any_of.push_back(Filter{"uid", CompareOp::kEq, 300});
  std::vector<ColumnVector> got = CollectConcat(
      Scan(fx.reader.get()).Columns({"uid"}).FilterAnyOf(clause));
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].num_rows(), 1u);
  EXPECT_EQ(got[0].int_values()[0], 300);
}

TEST(PointLookup, EmptyOrClauseIsRejected) {
  FileFixture fx(100, 50);
  auto stream =
      Scan(fx.reader.get()).Columns({"uid"}).FilterAnyOf(FilterClause{}).Stream();
  ASSERT_FALSE(stream.ok());
  EXPECT_TRUE(stream.status().IsInvalidArgument());
}

// ---------------------------------------------------- concurrency

TEST(PointLookup, ConcurrentZipfLookersSharePoolAndCache) {
  DatasetFixture fx(600, 50, 200);
  ThreadPool pool(4);
  DecodedChunkCache cache(16 << 20);
  const size_t kLookers = 4;
  const size_t kLookupsEach = 25;
  std::vector<std::thread> lookers;
  std::vector<Status> failures(kLookers, Status::OK());
  for (size_t t = 0; t < kLookers; ++t) {
    lookers.emplace_back([&, t] {
      ZipfGenerator zipf(600, 1.1, /*seed=*/17 + t);
      for (size_t i = 0; i < kLookupsEach; ++i) {
        int64_t key = static_cast<int64_t>(zipf.Next());
        auto hit = Lookup(fx.reader.get())
                       .Key("uid", key)
                       .Columns({"uid", "score"})
                       .Pool(&pool)
                       .Cache(&cache)
                       .Run();
        if (!hit.ok()) {
          failures[t] = hit.status();
          return;
        }
        // uid is dense in [0, 600): every Zipf key hits exactly once,
        // and the row must carry the derived score.
        if (hit->num_rows() != 1 ||
            hit->columns[0].int_values()[0] != key ||
            hit->columns[1].real_values()[0] !=
                static_cast<double>(key) / 1000.0) {
          failures[t] = Status::Unknown("wrong row for key " +
                                        std::to_string(key));
          return;
        }
      }
    });
  }
  for (auto& th : lookers) th.join();
  for (size_t t = 0; t < kLookers; ++t) {
    EXPECT_TRUE(failures[t].ok()) << "looker " << t << ": "
                                  << failures[t].ToString();
  }
}

}  // namespace
}  // namespace bullion
