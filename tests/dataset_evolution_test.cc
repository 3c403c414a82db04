// Dataset-evolution tests: live append (including nullable-column
// schema evolution with read-side null back-fill), deletion-aware
// shard compaction + GC, manifest v2 publishing, and the headline
// correctness claim — write → append → delete ≥30% → compact → scan
// yields exactly the surviving rows, with compacted shard files
// byte-identical to a serial rebuild at any thread count, and a warm
// DecodedChunkCache never serving pre-compaction chunks.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/bullion.h"

namespace bullion {
namespace {

Schema MakeBaseSchema() {
  std::vector<Field> fields;
  fields.push_back({"uid", DataType::Primitive(PhysicalType::kInt64),
                    LogicalType::kPlain, /*deletable=*/true});
  fields.push_back({"score", DataType::Primitive(PhysicalType::kFloat64),
                    LogicalType::kPlain, false});
  fields.push_back({"clk_seq",
                    DataType::List(DataType::Primitive(PhysicalType::kInt64)),
                    LogicalType::kIdSequence, false});
  return Schema(std::move(fields));
}

/// Base schema + a nullable trailing label column (schema evolution).
Schema MakeEvolvedSchema() {
  std::vector<Field> fields;
  fields.push_back({"uid", DataType::Primitive(PhysicalType::kInt64),
                    LogicalType::kPlain, /*deletable=*/true});
  fields.push_back({"score", DataType::Primitive(PhysicalType::kFloat64),
                    LogicalType::kPlain, false});
  fields.push_back({"clk_seq",
                    DataType::List(DataType::Primitive(PhysicalType::kInt64)),
                    LogicalType::kIdSequence, false});
  fields.push_back({"label", DataType::Primitive(PhysicalType::kInt64),
                    LogicalType::kPlain, /*deletable=*/false,
                    /*nullable=*/true});
  return Schema(std::move(fields));
}

std::vector<ColumnVector> MakeData(const Schema& schema, size_t rows,
                                   uint64_t seed) {
  Random rng(seed);
  std::vector<ColumnVector> cols;
  for (const LeafColumn& leaf : schema.leaves()) {
    cols.push_back(ColumnVector::ForLeaf(leaf));
  }
  std::vector<int64_t> window;
  for (size_t r = 0; r < rows; ++r) {
    cols[0].AppendInt(static_cast<int64_t>(seed * 1000000 + r));
    cols[1].AppendReal(rng.NextDouble());
    if (window.empty() || rng.Bernoulli(0.3)) {
      window.insert(window.begin(), rng.UniformRange(0, 99));
      if (window.size() > 6) window.pop_back();
    }
    cols[2].AppendIntList(window);
    for (size_t c = 3; c < cols.size(); ++c) {
      cols[c].AppendInt(static_cast<int64_t>(r % 7));
    }
  }
  return cols;
}

ShardManifest WriteDataset(InMemoryFileSystem* fs, const Schema& schema,
                           const std::vector<ColumnVector>& data,
                           const std::string& base, uint32_t rows_per_group,
                           uint64_t rows_per_shard) {
  ShardedWriterOptions opts;
  opts.rows_per_group = rows_per_group;
  opts.target_rows_per_shard = rows_per_shard;
  opts.base_name = base;
  opts.writer.rows_per_page = 32;
  ShardedTableWriter writer(schema, opts, [fs](const std::string& name) {
    return fs->NewWritableFile(name);
  });
  EXPECT_TRUE(writer.Append(data).ok());
  return *writer.Finish();
}

Result<std::unique_ptr<ShardedTableReader>> OpenDataset(
    InMemoryFileSystem* fs, const ShardManifest& manifest) {
  return ShardedTableReader::Open(manifest, [fs](const std::string& n) {
    return fs->NewReadableFile(n);
  });
}

/// Deletes `rows` (shard-local row ids) in place from shard file `name`.
void DeleteShardRows(InMemoryFileSystem* fs, const std::string& name,
                     const std::vector<uint64_t>& rows) {
  auto reader = *TableReader::Open(*fs->NewReadableFile(name));
  auto rf = *fs->NewReadableFile(name);
  auto uf = *fs->OpenForUpdate(name);
  DeleteExecutor exec(rf.get(), uf.get(), reader->footer());
  auto report = exec.DeleteRows(rows, ComplianceLevel::kLevel2);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->rows_deleted, rows.size());
}

std::vector<uint8_t> ReadAllBytes(InMemoryFileSystem* fs,
                                  const std::string& name) {
  auto file = *fs->NewReadableFile(name);
  uint64_t size = *file->Size();
  Buffer buf;
  EXPECT_TRUE(file->Read(0, size, &buf).ok());
  return std::vector<uint8_t>(buf.data(), buf.data() + buf.size());
}

// -------------------------------------------------------------- append

TEST(DatasetAppender, AppendsShardsAndBumpsGeneration) {
  InMemoryFileSystem fs;
  Schema schema = MakeBaseSchema();
  auto first = MakeData(schema, 500, 1);
  ShardManifest base = WriteDataset(&fs, schema, first, "t", 100, 200);
  ASSERT_EQ(base.num_shards(), 3u);
  EXPECT_EQ(base.generation(), 0u);

  auto appender = DatasetAppender::Open(
      base, schema, [&](const std::string& n) { return fs.NewReadableFile(n); },
      [&](const std::string& n) { return fs.NewWritableFile(n); });
  ASSERT_TRUE(appender.ok()) << appender.status().ToString();
  auto second = MakeData(schema, 300, 2);
  ASSERT_TRUE((*appender)->Append(second).ok());
  auto updated = (*appender)->Finish();
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();

  EXPECT_EQ(updated->generation(), 1u);
  EXPECT_EQ(updated->total_rows(), 800u);
  ASSERT_GT(updated->num_shards(), base.num_shards());
  // Base shards are untouched; new shards continue the numbering.
  for (size_t s = 0; s < base.num_shards(); ++s) {
    EXPECT_EQ(updated->shard(s), base.shard(s));
  }
  EXPECT_EQ(updated->shard(base.num_shards()).name, "t.shard-00003");

  // Scan of the evolved dataset == both batches concatenated.
  auto ds = OpenDataset(&fs, *updated);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  for (size_t threads : {1, 4}) {
    auto scan = Scan(ds->get()).Threads(threads).Collect();
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan->num_rows(), 800u);
    for (size_t c = 0; c < first.size(); ++c) {
      ColumnVector expect = first[c];
      expect.AppendAllFrom(second[c]);
      EXPECT_EQ(*scan->ConcatColumn(c), expect)
          << "column " << c << " threads " << threads;
    }
  }
}

TEST(DatasetAppender, EmptyDatasetNeedsSchemaAndThenWorks) {
  InMemoryFileSystem fs;
  ShardManifest empty;
  auto no_schema = DatasetAppender::Open(
      empty, Schema(),
      [&](const std::string& n) { return fs.NewReadableFile(n); },
      [&](const std::string& n) { return fs.NewWritableFile(n); });
  EXPECT_FALSE(no_schema.ok());

  Schema schema = MakeBaseSchema();
  DatasetAppendOptions opts;
  opts.writer.rows_per_group = 50;
  opts.writer.target_rows_per_shard = 100;
  opts.writer.writer.rows_per_page = 16;
  opts.base_name = "fresh";
  auto appender = DatasetAppender::Open(
      empty, schema,
      [&](const std::string& n) { return fs.NewReadableFile(n); },
      [&](const std::string& n) { return fs.NewWritableFile(n); }, opts);
  ASSERT_TRUE(appender.ok()) << appender.status().ToString();
  ASSERT_TRUE((*appender)->Append(MakeData(schema, 150, 3)).ok());
  auto manifest = (*appender)->Finish();
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->generation(), 1u);
  EXPECT_EQ(manifest->total_rows(), 150u);
  EXPECT_EQ(manifest->shard(0).name, "fresh.shard-00000");
}

// ---------------------------------------------------- schema evolution

TEST(SchemaEvolution, CheckAppendSchemaRules) {
  Schema base = MakeBaseSchema();
  Schema evolved = MakeEvolvedSchema();
  EXPECT_TRUE(CheckAppendSchema(base, base).ok());       // identical
  EXPECT_TRUE(CheckAppendSchema(base, evolved).ok());    // +nullable
  EXPECT_FALSE(CheckAppendSchema(evolved, base).ok());   // drops a column

  // A non-nullable trailing column must be rejected.
  std::vector<Field> bad_fields = base.fields();
  bad_fields.push_back({"label", DataType::Primitive(PhysicalType::kInt64),
                        LogicalType::kPlain, false, /*nullable=*/false});
  EXPECT_FALSE(CheckAppendSchema(base, Schema(bad_fields)).ok());

  // A changed prefix column must be rejected.
  std::vector<Field> renamed = base.fields();
  renamed[1].name = "rating";
  EXPECT_FALSE(CheckAppendSchema(base, Schema(renamed)).ok());

  // Flipping a prefix column's nullability must be rejected: a later
  // shard with the column non-nullable would become the reference
  // schema and brick every subsequent Open.
  std::vector<Field> flipped = evolved.fields();
  flipped[3].nullable = false;
  EXPECT_FALSE(CheckAppendSchema(evolved, Schema(flipped)).ok());
  EXPECT_TRUE(CheckAppendSchema(evolved, evolved).ok());

  // Flipping deletability would split the level-2 erasure guarantee
  // across shards.
  std::vector<Field> undeletable = base.fields();
  undeletable[0].deletable = false;
  EXPECT_FALSE(CheckAppendSchema(base, Schema(undeletable)).ok());
}

TEST(SchemaEvolution, OldShardsBackfillNullsForAppendedColumn) {
  InMemoryFileSystem fs;
  Schema base_schema = MakeBaseSchema();
  Schema evolved = MakeEvolvedSchema();
  auto old_data = MakeData(base_schema, 300, 7);
  ShardManifest base = WriteDataset(&fs, base_schema, old_data, "t", 50, 150);

  auto appender = DatasetAppender::Open(
      base, evolved,
      [&](const std::string& n) { return fs.NewReadableFile(n); },
      [&](const std::string& n) { return fs.NewWritableFile(n); });
  ASSERT_TRUE(appender.ok()) << appender.status().ToString();
  auto new_data = MakeData(evolved, 200, 8);
  ASSERT_TRUE((*appender)->Append(new_data).ok());
  auto updated = (*appender)->Finish();
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();

  auto ds = OpenDataset(&fs, *updated);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ((*ds)->num_columns(), 4u);

  DecodedChunkCache cache(64 << 20);
  std::vector<std::vector<ColumnVector>> first_groups;
  bool have_first = false;
  for (size_t threads : {1, 2, 4, 8}) {
    auto scan = Scan(ds->get())
                    .Columns({"uid", "label"})
                    .Threads(threads)
                    .Cache(&cache)
                    .Collect();
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    auto label = scan->ConcatColumn(1);
    ASSERT_TRUE(label.ok());
    ASSERT_EQ(label->num_rows(), 500u);
    // Rows the old shards predate are null; appended rows are present.
    EXPECT_EQ(label->null_count(), 300u);
    for (size_t r = 0; r < 300; ++r) {
      EXPECT_TRUE(label->IsNull(r)) << "row " << r;
    }
    for (size_t r = 300; r < 500; ++r) {
      ASSERT_FALSE(label->IsNull(r)) << "row " << r;
      EXPECT_EQ(label->int_values()[r], new_data[3].int_values()[r - 300]);
    }
    // The uid column is unaffected by the evolution.
    ColumnVector uid = old_data[0];
    uid.AppendAllFrom(new_data[0]);
    EXPECT_EQ(*scan->ConcatColumn(0), uid);
    if (!have_first) {
      first_groups = std::move(scan->groups);
      have_first = true;
    } else {
      EXPECT_EQ(scan->groups, first_groups) << "threads " << threads;
    }
  }

  // A dataset whose newest shard lacks a column an older shard has
  // (i.e. not a prefix chain) must be rejected.
  std::vector<ShardInfo> reversed(updated->shards().rbegin(),
                                  updated->shards().rend());
  EXPECT_FALSE(OpenDataset(&fs, ShardManifest(reversed)).ok());
}

TEST(SchemaEvolution, WriterRejectsNullBearingBatches) {
  Schema evolved = MakeEvolvedSchema();
  std::vector<ColumnVector> batch;
  for (const LeafColumn& leaf : evolved.leaves()) {
    batch.push_back(ColumnVector::ForLeaf(leaf));
  }
  batch[0].AppendInt(1);
  batch[1].AppendReal(0.5);
  batch[2].AppendIntList({1, 2});
  batch[3].AppendNullRow();  // nulls cannot be encoded into pages
  InMemoryFileSystem fs;
  auto f = fs.NewWritableFile("t");
  TableWriter writer(evolved, f->get(), {});
  EXPECT_FALSE(writer.WriteRowGroup(batch).ok());
}

// ---------------------------------------------------------- compaction

/// Builds the same dataset + deletions deterministically: 4 shards x
/// 200 rows (50-row groups), then deletes ~35% of every shard
/// (including ALL rows of shard 2's first group, so a whole group
/// vanishes).
struct DeletedFixture {
  InMemoryFileSystem fs;
  Schema schema = MakeBaseSchema();
  ShardManifest manifest;

  DeletedFixture() {
    auto data = MakeData(schema, 800, 42);
    manifest = WriteDataset(&fs, schema, data, "t", 50, 200);
    EXPECT_EQ(manifest.num_shards(), 4u);
    for (size_t s = 0; s < manifest.num_shards(); ++s) {
      std::vector<uint64_t> doomed;
      for (uint64_t r = 0; r < manifest.shard(s).num_rows; ++r) {
        if (s == 2 && r < 50) {
          doomed.push_back(r);  // entire first group of shard 2
        } else if (r % 3 == 0) {
          doomed.push_back(r);
        }
      }
      DeleteShardRows(&fs, manifest.shard(s).name, doomed);
    }
  }

  /// Surviving rows, straight off the tombstoned dataset.
  std::vector<ColumnVector> SurvivorTruth() {
    auto ds = OpenDataset(&fs, manifest);
    EXPECT_TRUE(ds.ok());
    auto scan = Scan(ds->get()).Collect();
    EXPECT_TRUE(scan.ok());
    std::vector<ColumnVector> cols;
    for (size_t c = 0; c < scan->columns.size(); ++c) {
      cols.push_back(*scan->ConcatColumn(c));
    }
    return cols;
  }
};

TEST(DatasetCompactor, CompactionDropsDeletedRowsAtEveryThreadCount) {
  DeletedFixture baseline;
  auto truth = baseline.SurvivorTruth();
  uint64_t survivors = truth[0].num_rows();
  ASSERT_LT(survivors, 800u * 7 / 10);  // >= 30% deleted overall

  std::vector<std::vector<uint8_t>> serial_bytes;
  std::vector<std::string> serial_names;
  for (size_t threads : {1, 2, 4, 8}) {
    DeletedFixture fx;  // identical dataset per thread count
    DatasetCompactor compactor(
        [&](const std::string& n) { return fx.fs.NewReadableFile(n); },
        [&](const std::string& n) { return fx.fs.NewWritableFile(n); },
        [&](const std::string& n) { return fx.fs.Delete(n); });
    DatasetCompactionOptions opts;
    opts.min_deleted_fraction = 0.3;
    opts.threads = threads;
    auto report = compactor.Compact(fx.manifest, opts);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->shards_compacted, 4u);
    EXPECT_EQ(report->rows_reclaimed, 800u - survivors);
    EXPECT_LT(report->bytes_after, report->bytes_before);
    EXPECT_EQ(report->manifest.generation(), fx.manifest.generation() + 1);
    EXPECT_EQ(report->manifest.total_rows(), survivors);
    EXPECT_EQ(report->manifest.total_deleted_rows(), 0u);

    // Replaced files are GONE; rewrites live under generation names.
    for (const std::string& old : report->replaced_files) {
      EXPECT_FALSE(fx.fs.Exists(old));
    }
    for (size_t s = 0; s < report->manifest.num_shards(); ++s) {
      const ShardInfo& info = report->manifest.shard(s);
      EXPECT_EQ(info.generation, 1u);
      EXPECT_TRUE(fx.fs.Exists(info.name));
      // Compacted shards contain zero deleted rows.
      auto shard = *TableReader::Open(*fx.fs.NewReadableFile(info.name));
      EXPECT_EQ(DeletedFraction(*shard), 0.0);
      EXPECT_TRUE(shard->VerifyChecksums().ok());
    }

    // Scan of the compacted dataset == the surviving rows.
    auto ds = OpenDataset(&fx.fs, report->manifest);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    auto scan = Scan(ds->get()).Threads(4).Collect();
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan->num_rows(), survivors);
    for (size_t c = 0; c < truth.size(); ++c) {
      EXPECT_EQ(*scan->ConcatColumn(c), truth[c])
          << "column " << c << " threads " << threads;
    }

    // Compacted shard files are byte-identical to the serial rebuild.
    if (threads == 1) {
      for (size_t s = 0; s < report->manifest.num_shards(); ++s) {
        serial_names.push_back(report->manifest.shard(s).name);
        serial_bytes.push_back(
            ReadAllBytes(&fx.fs, report->manifest.shard(s).name));
      }
    } else {
      for (size_t s = 0; s < report->manifest.num_shards(); ++s) {
        ASSERT_EQ(report->manifest.shard(s).name, serial_names[s]);
        EXPECT_EQ(ReadAllBytes(&fx.fs, report->manifest.shard(s).name),
                  serial_bytes[s])
            << "shard " << s << " differs from serial rebuild at threads="
            << threads;
      }
    }
  }
}

TEST(DatasetCompactor, SkipsShardsBelowThresholdAndRefreshesCounts) {
  InMemoryFileSystem fs;
  Schema schema = MakeBaseSchema();
  auto data = MakeData(schema, 400, 5);
  ShardManifest manifest = WriteDataset(&fs, schema, data, "t", 50, 200);
  ASSERT_EQ(manifest.num_shards(), 2u);
  // Shard 0: 10% deleted (below threshold); shard 1: 50% (above).
  std::vector<uint64_t> few, many;
  for (uint64_t r = 0; r < 200; r += 10) few.push_back(r);
  for (uint64_t r = 0; r < 200; r += 2) many.push_back(r);
  DeleteShardRows(&fs, manifest.shard(0).name, few);
  DeleteShardRows(&fs, manifest.shard(1).name, many);

  DatasetCompactor compactor(
      [&](const std::string& n) { return fs.NewReadableFile(n); },
      [&](const std::string& n) { return fs.NewWritableFile(n); },
      [&](const std::string& n) { return fs.Delete(n); });
  DatasetCompactionOptions opts;
  opts.min_deleted_fraction = 0.3;
  auto report = compactor.Compact(manifest, opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->shards_examined, 2u);
  EXPECT_EQ(report->shards_compacted, 1u);

  const ShardInfo& kept = report->manifest.shard(0);
  EXPECT_EQ(kept.name, manifest.shard(0).name);  // untouched on disk
  EXPECT_EQ(kept.generation, 0u);
  EXPECT_EQ(kept.deleted_rows, 20u);  // hint refreshed from the footer
  const ShardInfo& rewritten = report->manifest.shard(1);
  EXPECT_EQ(rewritten.name, manifest.shard(1).name + ".g1");
  EXPECT_EQ(rewritten.generation, 1u);
  EXPECT_EQ(rewritten.num_rows, 100u);
  EXPECT_EQ(rewritten.deleted_rows, 0u);
  EXPECT_FALSE(fs.Exists(manifest.shard(1).name));

  // Compacting the result again is a no-op for the rewritten shard —
  // and CompactedShardName replaces the suffix instead of stacking.
  EXPECT_EQ(DatasetCompactor::CompactedShardName("t.shard-00001.g1", 2),
            "t.shard-00001.g2");
  EXPECT_EQ(DatasetCompactor::CompactedShardName("t.shard-00007", 1),
            "t.shard-00007.g1");
}

TEST(DatasetCompactor, AllRowsDeletedLeavesEmptyShard) {
  InMemoryFileSystem fs;
  Schema schema = MakeBaseSchema();
  auto data = MakeData(schema, 100, 6);
  ShardManifest manifest = WriteDataset(&fs, schema, data, "t", 50, 200);
  ASSERT_EQ(manifest.num_shards(), 1u);
  std::vector<uint64_t> all;
  for (uint64_t r = 0; r < 100; ++r) all.push_back(r);
  DeleteShardRows(&fs, manifest.shard(0).name, all);

  DatasetCompactor compactor(
      [&](const std::string& n) { return fs.NewReadableFile(n); },
      [&](const std::string& n) { return fs.NewWritableFile(n); });
  auto report = compactor.Compact(manifest, {});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->manifest.total_rows(), 0u);
  EXPECT_EQ(report->manifest.shard(0).num_row_groups, 0u);
  auto ds = OpenDataset(&fs, report->manifest);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  auto scan = Scan(ds->get()).Collect();
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->num_rows(), 0u);
  // No remover configured: the replaced file is reported, not deleted.
  ASSERT_EQ(report->replaced_files.size(), 1u);
  EXPECT_TRUE(fs.Exists(report->replaced_files[0]));
}

// ------------------------------------------------- cache invalidation

TEST(DatasetCompactor, WarmCacheNeverServesPreCompactionChunks) {
  DeletedFixture fx;
  auto truth = fx.SurvivorTruth();
  DecodedChunkCache cache(64 << 20);

  // Warm the cache on the PRE-compaction dataset.
  auto pre = OpenDataset(&fx.fs, fx.manifest);
  ASSERT_TRUE(pre.ok());
  auto warm = Scan(pre->get()).Threads(4).Cache(&cache).Collect();
  ASSERT_TRUE(warm.ok());
  ASSERT_GT(cache.num_entries(), 0u);

  DatasetCompactor compactor(
      [&](const std::string& n) { return fx.fs.NewReadableFile(n); },
      [&](const std::string& n) { return fx.fs.NewWritableFile(n); },
      [&](const std::string& n) { return fx.fs.Delete(n); });
  DatasetCompactionOptions opts;
  opts.threads = 2;
  opts.cache = &cache;
  auto report = compactor.Compact(fx.manifest, opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Every pre-compaction entry was generation-stale and dropped.
  EXPECT_GT(cache.invalidations(), 0u);
  EXPECT_EQ(cache.num_entries(), 0u);

  // Post-compaction scans through the SAME cache: correct rows, and the
  // bumped shard generation means no pre-compaction entry can match.
  auto post = OpenDataset(&fx.fs, report->manifest);
  ASSERT_TRUE(post.ok());
  for (int epoch = 0; epoch < 2; ++epoch) {
    auto scan =
        Scan(post->get()).Threads(4).Cache(&cache).Collect();
    ASSERT_TRUE(scan.ok());
    for (size_t c = 0; c < truth.size(); ++c) {
      EXPECT_EQ(*scan->ConcatColumn(c), truth[c])
          << "epoch " << epoch << " column " << c;
    }
  }
  EXPECT_GT(cache.hits(), 0u);  // the second epoch was served warm
}

TEST(DecodedChunkCache, WarmCacheNeverServesPreDeleteChunks) {
  // In-place deletes change decode output WITHOUT bumping the shard
  // generation; the per-group deleted count in the cache key is what
  // keeps a fresher footer from being served pre-delete chunks.
  InMemoryFileSystem fs;
  Schema schema = MakeBaseSchema();
  auto data = MakeData(schema, 200, 13);
  ShardManifest manifest = WriteDataset(&fs, schema, data, "t", 50, 200);
  DecodedChunkCache cache(64 << 20);

  auto before = OpenDataset(&fs, manifest);
  ASSERT_TRUE(before.ok());
  auto warm = Scan(before->get()).Cache(&cache).Collect();
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->num_rows(), 200u);

  std::vector<uint64_t> doomed;
  for (uint64_t r = 0; r < 200; r += 2) doomed.push_back(r);
  DeleteShardRows(&fs, manifest.shard(0).name, doomed);

  // Re-open (fresh footer) and rescan through the SAME warm cache.
  auto after = OpenDataset(&fs, manifest);
  ASSERT_TRUE(after.ok());
  auto scan = Scan(after->get()).Cache(&cache).Collect();
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->num_rows(), 100u);  // deleted rows must NOT reappear
  auto uncached = Scan(after->get()).Collect();
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ(scan->groups, uncached->groups);
}

TEST(DatasetCompactor, PublishHookRunsBeforeGC) {
  DeletedFixture fx;
  DatasetCompactor compactor(
      [&](const std::string& n) { return fx.fs.NewReadableFile(n); },
      [&](const std::string& n) { return fx.fs.NewWritableFile(n); },
      [&](const std::string& n) { return fx.fs.Delete(n); });

  // A failing publish aborts before any GC: every old file survives.
  DatasetCompactionOptions failing;
  failing.publish = [](const ShardManifest&) {
    return Status::IOError("manifest store down");
  };
  EXPECT_FALSE(compactor.Compact(fx.manifest, failing).ok());
  for (size_t s = 0; s < fx.manifest.num_shards(); ++s) {
    EXPECT_TRUE(fx.fs.Exists(fx.manifest.shard(s).name));
  }

  // A successful publish observes the new manifest while the replaced
  // files still exist (persist point strictly precedes GC).
  DatasetCompactionOptions opts;
  bool published = false;
  opts.publish = [&](const ShardManifest& m) {
    published = true;
    EXPECT_EQ(m.generation(), fx.manifest.generation() + 1);
    for (size_t s = 0; s < fx.manifest.num_shards(); ++s) {
      EXPECT_TRUE(fx.fs.Exists(fx.manifest.shard(s).name));
      EXPECT_TRUE(fx.fs.Exists(m.shard(s).name));
    }
    return Status::OK();
  };
  auto report = compactor.Compact(fx.manifest, opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(published);
  EXPECT_TRUE(report->gc_failures.empty());
  for (const std::string& old : report->replaced_files) {
    EXPECT_FALSE(fx.fs.Exists(old));  // GC ran after the publish
  }
}

TEST(DatasetEvolution, ConcurrentScansCompactionAndSharedCache) {
  // TSAN target: scans over the old generation race a compactor that
  // writes new shards and invalidates the shared cache, all on one
  // pool + one InMemoryFileSystem.
  DeletedFixture fx;
  auto truth = fx.SurvivorTruth();
  ThreadPool pool(4);
  DecodedChunkCache cache(64 << 20);
  auto pre = OpenDataset(&fx.fs, fx.manifest);
  ASSERT_TRUE(pre.ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&] {
      for (int epoch = 0; epoch < 3; ++epoch) {
        auto scan = Scan(pre->get())
                        .Pool(&pool)
                        .Cache(&cache)
                        .Collect();
        if (!scan.ok()) failures.fetch_add(1);
      }
    });
  }
  Result<DatasetCompactionReport> report = Status::Unknown("compactor not run");
  workers.emplace_back([&] {
    DatasetCompactor compactor(
        [&](const std::string& n) { return fx.fs.NewReadableFile(n); },
        [&](const std::string& n) { return fx.fs.NewWritableFile(n); });
    DatasetCompactionOptions opts;
    opts.pool = &pool;
    opts.threads = 4;
    opts.cache = &cache;
    report = compactor.Compact(fx.manifest, opts);
  });
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  auto post = OpenDataset(&fx.fs, report->manifest);
  ASSERT_TRUE(post.ok());
  auto scan = Scan(post->get()).Pool(&pool).Cache(&cache).Collect();
  ASSERT_TRUE(scan.ok());
  for (size_t c = 0; c < truth.size(); ++c) {
    EXPECT_EQ(*scan->ConcatColumn(c), truth[c]) << "column " << c;
  }
}

// ------------------------------------------------ end-to-end lifecycle

TEST(DatasetEvolution, WriteAppendDeleteCompactScanLifecycle) {
  // The acceptance pipeline in one piece: write → append (evolving the
  // schema) → delete ≥ 30% → compact → scan == survivors, with the
  // appended nullable column back-filled for pre-evolution rows.
  InMemoryFileSystem fs;
  Schema base_schema = MakeBaseSchema();
  Schema evolved = MakeEvolvedSchema();
  auto old_data = MakeData(base_schema, 400, 11);
  ShardManifest manifest = WriteDataset(&fs, base_schema, old_data, "t", 50,
                                        200);

  auto appender = DatasetAppender::Open(
      manifest, evolved,
      [&](const std::string& n) { return fs.NewReadableFile(n); },
      [&](const std::string& n) { return fs.NewWritableFile(n); });
  ASSERT_TRUE(appender.ok()) << appender.status().ToString();
  auto new_data = MakeData(evolved, 200, 12);
  ASSERT_TRUE((*appender)->Append(new_data).ok());
  manifest = *(*appender)->Finish();
  EXPECT_EQ(manifest.total_rows(), 600u);

  // Delete 40% of every shard.
  for (size_t s = 0; s < manifest.num_shards(); ++s) {
    std::vector<uint64_t> doomed;
    for (uint64_t r = 0; r < manifest.shard(s).num_rows; r += 5) {
      doomed.push_back(r);
      doomed.push_back(r + 1);
    }
    DeleteShardRows(&fs, manifest.shard(s).name, doomed);
  }
  auto pre = OpenDataset(&fs, manifest);
  ASSERT_TRUE(pre.ok());
  auto truth_scan = Scan(pre->get()).Collect();
  ASSERT_TRUE(truth_scan.ok());
  uint64_t survivors = truth_scan->num_rows();
  EXPECT_EQ(survivors, 360u);

  DatasetCompactor compactor(
      [&](const std::string& n) { return fs.NewReadableFile(n); },
      [&](const std::string& n) { return fs.NewWritableFile(n); },
      [&](const std::string& n) { return fs.Delete(n); });
  DatasetCompactionOptions copts;
  copts.threads = 4;
  auto report = compactor.Compact(manifest, copts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->manifest.total_rows(), survivors);
  EXPECT_EQ(report->manifest.generation(), manifest.generation() + 1);

  // The compacted dataset still evolves correctly: nullable back-fill
  // applies to the REWRITTEN old shards too (their schema is
  // unchanged by compaction).
  auto post = OpenDataset(&fs, report->manifest);
  ASSERT_TRUE(post.ok());
  auto scan = Scan(post->get())
                  .Columns({"uid", "label"})
                  .Threads(4)
                  .Collect();
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  auto uid = scan->ConcatColumn(0);
  auto label = scan->ConcatColumn(1);
  ASSERT_TRUE(uid.ok());
  ASSERT_TRUE(label.ok());
  EXPECT_EQ(uid->num_rows(), survivors);
  // 240 surviving pre-evolution rows are null; 120 appended survive.
  EXPECT_EQ(label->null_count(), 240u);
  // Row content matches the tombstone-filtered pre-compaction scan.
  auto pre_proj = Scan(pre->get())
                      .Columns({"uid", "label"})
                      .Collect();
  ASSERT_TRUE(pre_proj.ok());
  EXPECT_EQ(*uid, *pre_proj->ConcatColumn(0));
  EXPECT_EQ(*label, *pre_proj->ConcatColumn(1));

  // And the manifest round-trips through its serialized form.
  Buffer blob = report->manifest.Serialize();
  auto parsed = ShardManifest::Parse(blob.AsSlice());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, report->manifest);
}

}  // namespace
}  // namespace bullion
