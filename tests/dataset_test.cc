// Dataset-layer tests: shard manifest index + round-trip, sharded
// writer splitting, and the headline correctness claim — a sharded
// dataset scan (any thread count, with or without the decoded-chunk
// cache) is byte-identical to concatenating per-shard serial scans,
// which in turn match the uncached single-file path.

#include <gtest/gtest.h>

#include <atomic>
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
    cols[2].AppendBinary("tag" + std::to_string(r % 5));
    if (window.empty() || rng.Bernoulli(0.3)) {
      window.insert(window.begin(), rng.UniformRange(0, 99));
      if (window.size() > 8) window.pop_back();
    }
    cols[3].AppendIntList(window);
  }
  return cols;
}

// ------------------------------------------------------------ manifest

/// Appends `v` to a hand-built manifest blob as a LEB128 varint.
void PutVarint(std::vector<uint8_t>* blob, uint64_t v) {
  while (v >= 0x80) {
    blob->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  blob->push_back(static_cast<uint8_t>(v));
}

/// The two shards every LegacyBlob() carries, at dataset generation 7.
ShardManifest LegacyBlobManifest() {
  return ShardManifest({{"t.shard-00000", 1000, 4, 250, 0},
                        {"t.shard-00001.g3", 1000, 4, 0, 3}},
                       /*generation=*/7);
}

/// A hand-built v3 (or v4) manifest of LegacyBlobManifest()'s shards,
/// each carrying one per-shard zone map record (declared as
/// `stats_count` records) on `column`, and in v4 one Bloom record of
/// `bloom_len` bytes — the aggregates Serialize() no longer writes.
std::vector<uint8_t> LegacyBlob(uint32_t version, uint64_t stats_count = 1,
                                uint64_t bloom_len = 32,
                                uint64_t column = 0) {
  std::vector<uint8_t> blob = {0x42, 0x53, 0x48, 0x4D,
                               static_cast<uint8_t>(version), 0, 0, 0};
  const ShardManifest want = LegacyBlobManifest();
  PutVarint(&blob, want.generation());
  PutVarint(&blob, want.num_shards());
  for (const ShardInfo& s : want.shards()) {
    PutVarint(&blob, s.name.size());
    blob.insert(blob.end(), s.name.begin(), s.name.end());
    PutVarint(&blob, s.num_rows);
    PutVarint(&blob, s.num_row_groups);
    PutVarint(&blob, s.deleted_rows);
    PutVarint(&blob, s.generation);
    PutVarint(&blob, stats_count);
    PutVarint(&blob, column);
    blob.push_back(0x01);  // flags: min/max present
    PutVarint(&blob, 0);   // min_bits
    PutVarint(&blob, 999);  // max_bits
    if (version >= 4) {
      PutVarint(&blob, 1);  // bloom count
      PutVarint(&blob, column);
      PutVarint(&blob, bloom_len);
      blob.insert(blob.end(), bloom_len, 0xA5);
    }
  }
  return blob;
}

Result<ShardManifest> ParseBlob(const std::vector<uint8_t>& blob) {
  return ShardManifest::Parse(Slice(blob.data(), blob.size()));
}

TEST(ShardManifest, GlobalGroupIndexSkipsEmptyShards) {
  ShardManifest m({{"a", 100, 2}, {"empty", 0, 0}, {"b", 50, 3}});
  EXPECT_EQ(m.total_rows(), 150u);
  EXPECT_EQ(m.total_row_groups(), 5u);
  EXPECT_EQ(m.shard_group_begin(0), 0u);
  EXPECT_EQ(m.shard_group_begin(1), 2u);
  EXPECT_EQ(m.shard_group_begin(2), 2u);

  struct Want {
    uint32_t shard, local;
  } wants[] = {{0, 0}, {0, 1}, {2, 0}, {2, 1}, {2, 2}};
  for (uint32_t g = 0; g < 5; ++g) {
    auto ref = m.group(g);
    ASSERT_TRUE(ref.ok()) << "g=" << g;
    EXPECT_EQ(ref->shard, wants[g].shard) << "g=" << g;
    EXPECT_EQ(ref->local_group, wants[g].local) << "g=" << g;
  }
}

TEST(ShardManifest, GroupLookupIsBoundsChecked) {
  // Out-of-range probes must fail, not fabricate a shard index.
  ShardManifest empty;
  EXPECT_FALSE(empty.group(0).ok());
  ShardManifest one_empty({{"e", 0, 0}});
  EXPECT_FALSE(one_empty.group(0).ok());
  ShardManifest m({{"a", 10, 2}});
  ASSERT_TRUE(m.group(1).ok());
  EXPECT_FALSE(m.group(2).ok());
  EXPECT_FALSE(m.group(UINT32_MAX).ok());
}

TEST(ShardManifest, SerializeRoundTrips) {
  ShardManifest m(
      {{"t.shard-00000", 1 << 20, 16}, {"t.shard-00001", 123456, 2}});
  Buffer blob = m.Serialize();
  ASSERT_GE(blob.size(), 8u);
  uint32_t version = 0;
  std::memcpy(&version, blob.data() + 4, 4);
  EXPECT_EQ(version, 2u);  // the newest version ShardInfo carries
  auto parsed = ShardManifest::Parse(blob.AsSlice());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, m);
  EXPECT_EQ(parsed->total_rows(), m.total_rows());
  EXPECT_EQ(parsed->group(17)->shard, 1u);
}

TEST(ShardManifest, V2CarriesDeletedCountsAndGenerations) {
  ShardManifest m({{"t.shard-00000", 1000, 4, 300, 0},
                   {"t.shard-00001.g2", 700, 2, 0, 2}},
                  /*generation=*/5);
  EXPECT_EQ(m.generation(), 5u);
  EXPECT_EQ(m.total_deleted_rows(), 300u);
  EXPECT_NEAR(m.shard(0).deleted_fraction(), 0.3, 1e-12);
  Buffer blob = m.Serialize();
  auto parsed = ShardManifest::Parse(blob.AsSlice());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, m);
  EXPECT_EQ(parsed->shard(0).deleted_rows, 300u);
  EXPECT_EQ(parsed->shard(1).generation, 2u);
  EXPECT_EQ(parsed->generation(), 5u);
}

TEST(ShardManifest, ParsesLegacyV1Blobs) {
  // Hand-built v1 blob: magic, version 1, count, then (name_len, name,
  // rows, groups) records without deleted/generation fields.
  std::vector<uint8_t> blob = {0x42, 0x53, 0x48, 0x4D, 1, 0, 0, 0};
  blob.push_back(2);  // count
  auto rec = [&](const std::string& name, uint8_t rows, uint8_t groups) {
    blob.push_back(static_cast<uint8_t>(name.size()));
    blob.insert(blob.end(), name.begin(), name.end());
    blob.push_back(rows);
    blob.push_back(groups);
  };
  rec("a", 100, 2);
  rec("b", 50, 1);
  auto parsed = ShardManifest::Parse(Slice(blob.data(), blob.size()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_shards(), 2u);
  EXPECT_EQ(parsed->total_rows(), 150u);
  EXPECT_EQ(parsed->generation(), 0u);
  EXPECT_EQ(parsed->shard(0).deleted_rows, 0u);
  EXPECT_EQ(parsed->shard(0).generation, 0u);
  EXPECT_EQ(parsed->shard(1).name, "b");
}

TEST(ShardManifest, ParsesLegacyV3AndV4BlobsDroppingAggregates) {
  // Manifests written before v2 became the newest version still open:
  // their per-shard zone maps and Bloom filters are checked, then
  // dropped, and every other field parses as written.
  const ShardManifest want = LegacyBlobManifest();
  for (uint32_t version : {3u, 4u}) {
    auto parsed = ParseBlob(LegacyBlob(version));
    ASSERT_TRUE(parsed.ok()) << "v" << version << ": "
                             << parsed.status().ToString();
    EXPECT_EQ(*parsed, want) << "v" << version;
    EXPECT_EQ(parsed->shard(1).name, "t.shard-00001.g3");
    EXPECT_EQ(parsed->shard(0).deleted_rows, 250u);
    EXPECT_EQ(parsed->shard(1).generation, 3u);
    EXPECT_EQ(parsed->generation(), 7u);
  }
}

TEST(ShardManifest, LegacyAggregateFramingIsChecked) {
  const std::vector<uint8_t> v4 = LegacyBlob(4);
  for (size_t len = 0; len < v4.size(); ++len) {
    EXPECT_FALSE(ShardManifest::Parse(Slice(v4.data(), len)).ok())
        << "truncation at byte " << len;
  }
  std::vector<uint8_t> padded = v4;
  padded.push_back(0x00);
  EXPECT_FALSE(ParseBlob(padded).ok());
  // A Bloom filter is a non-zero multiple of 32 bytes.
  EXPECT_FALSE(ParseBlob(LegacyBlob(4, 1, /*bloom_len=*/0)).ok());
  EXPECT_FALSE(ParseBlob(LegacyBlob(4, 1, /*bloom_len=*/33)).ok());
  // A stats count the remaining bytes cannot hold, and column indices
  // past u32, are corruption in either version.
  for (uint32_t version : {3u, 4u}) {
    EXPECT_FALSE(ParseBlob(LegacyBlob(version, /*stats_count=*/1u << 20)).ok())
        << "v" << version;
    EXPECT_FALSE(
        ParseBlob(LegacyBlob(version, 1, 32, /*column=*/1ull << 33)).ok())
        << "v" << version;
  }
}

TEST(ShardManifest, ParseCorruptionMatrix) {
  // Truncate a valid v2 blob at EVERY byte boundary: each prefix must
  // come back as a clean error, never a crash or a bogus manifest.
  ShardManifest m({{"shard-a", 1000, 4, 250, 1}, {"shard-b", 500, 2, 0, 0}},
                  /*generation=*/3);
  Buffer blob = m.Serialize();
  for (size_t len = 0; len < blob.size(); ++len) {
    auto truncated = ShardManifest::Parse(Slice(blob.data(), len));
    EXPECT_FALSE(truncated.ok()) << "truncation at byte " << len;
  }
  // Trailing garbage after a complete manifest is corruption too.
  std::vector<uint8_t> padded(blob.data(), blob.data() + blob.size());
  padded.push_back(0x00);
  EXPECT_FALSE(ShardManifest::Parse(Slice(padded.data(), padded.size())).ok());

  // Implausible counts: deleted > rows, groups > u32, generation >
  // u32. Records are hand-built so the hostile varints are exact.
  auto v2_record = [](uint64_t rows, uint64_t groups, uint64_t deleted,
                      uint64_t gen) {
    std::vector<uint8_t> blob = {0x42, 0x53, 0x48, 0x4D, 2, 0, 0, 0};
    auto put = [&](uint64_t v) { PutVarint(&blob, v); };
    put(0);  // dataset generation
    put(1);  // shard count
    put(1);  // name_len
    blob.push_back('s');
    put(rows);
    put(groups);
    put(deleted);
    put(gen);
    return blob;
  };
  ASSERT_TRUE(ParseBlob(v2_record(10, 1, 2, 1)).ok());  // the template is sane
  EXPECT_FALSE(ParseBlob(v2_record(10, 1, 200, 1)).ok());  // deleted > rows
  EXPECT_FALSE(ParseBlob(v2_record(10, 1ull << 33, 2, 1)).ok());  // groups
  EXPECT_FALSE(ParseBlob(v2_record(10, 1, 2, 1ull << 33)).ok());  // gen
}

TEST(ShardManifest, ParseRejectsGarbage) {
  EXPECT_FALSE(ShardManifest::Parse(Slice()).ok());
  std::vector<uint8_t> junk(16, 0xAB);
  EXPECT_FALSE(ShardManifest::Parse(Slice(junk.data(), junk.size())).ok());

  // Valid header but hostile varints: a huge shard count and a
  // name_len chosen to overflow `pos + name_len` must both come back
  // as Status::Corruption, not throw or read out of bounds. The v2
  // header is followed by the dataset generation, then the count.
  ShardManifest good({{"s", 1, 1}});
  Buffer blob = good.Serialize();
  std::vector<uint8_t> huge_count(blob.data(), blob.data() + 8);
  huge_count.push_back(0x00);                               // generation
  for (int i = 0; i < 9; ++i) huge_count.push_back(0xFF);  // count ~ 2^63
  huge_count.push_back(0x7F);
  auto count_st = ParseBlob(huge_count).status();
  EXPECT_TRUE(count_st.IsCorruption()) << count_st.ToString();
  EXPECT_NE(count_st.ToString().find("count implausible"), std::string::npos)
      << count_st.ToString();

  std::vector<uint8_t> huge_name(blob.data(), blob.data() + 8);
  huge_name.push_back(0x00);                               // generation
  huge_name.push_back(0x01);                               // count = 1
  for (int i = 0; i < 9; ++i) huge_name.push_back(0xFF);   // name_len huge
  huge_name.push_back(0x7F);
  auto name_st = ParseBlob(huge_name).status();
  EXPECT_TRUE(name_st.IsCorruption()) << name_st.ToString();
  EXPECT_NE(name_st.ToString().find("name truncated"), std::string::npos)
      << name_st.ToString();
}

// -------------------------------------------------------------- writer

TEST(ShardedWriter, SplitsStreamAtRowGroupAlignedTargets) {
  InMemoryFileSystem fs;
  Schema schema = MakeMixedSchema();
  ShardedWriterOptions opts;
  opts.rows_per_group = 100;
  opts.target_rows_per_shard = 250;  // closes at 300 (group boundary)
  opts.base_name = "t";
  opts.writer.rows_per_page = 32;
  ShardedTableWriter writer(schema, opts, [&](const std::string& name) {
    return fs.NewWritableFile(name);
  });
  // Batch sizes deliberately misaligned with both group and shard.
  ASSERT_TRUE(writer.Append(MakeMixedData(schema, 730, 1)).ok());
  ASSERT_TRUE(writer.Append(MakeMixedData(schema, 270, 2)).ok());
  auto manifest = writer.Finish();
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();

  ASSERT_EQ(manifest->num_shards(), 4u);
  EXPECT_EQ(manifest->total_rows(), 1000u);
  EXPECT_EQ(manifest->shard(0).num_rows, 300u);
  EXPECT_EQ(manifest->shard(0).num_row_groups, 3u);
  EXPECT_EQ(manifest->shard(3).num_rows, 100u);
  // Every shard is an independently readable Bullion file.
  for (size_t s = 0; s < manifest->num_shards(); ++s) {
    EXPECT_TRUE(fs.Exists(manifest->shard(s).name));
    auto r = TableReader::Open(*fs.NewReadableFile(manifest->shard(s).name));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)->num_rows(), manifest->shard(s).num_rows);
  }
}

TEST(ShardedWriter, EmptyStreamMakesNoShards) {
  InMemoryFileSystem fs;
  ShardedTableWriter writer(MakeMixedSchema(), {},
                            [&](const std::string& name) {
                              return fs.NewWritableFile(name);
                            });
  auto manifest = writer.Finish();
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->num_shards(), 0u);
  EXPECT_EQ(manifest->total_rows(), 0u);
}

// ------------------------------------------------------- reader fixture

/// Writes `total_rows` rows both as a sharded dataset and as one
/// single Bullion file with the same row-group size — the uncached
/// single-file ground truth.
struct DatasetFixture {
  InMemoryFileSystem fs;
  Schema schema = MakeMixedSchema();
  ShardManifest manifest;
  std::unique_ptr<ShardedTableReader> reader;

  DatasetFixture(size_t total_rows, uint32_t rows_per_group,
                 uint64_t target_rows_per_shard) {
    std::vector<ColumnVector> all = MakeMixedData(schema, total_rows, 42);
    ShardedWriterOptions opts;
    opts.rows_per_group = rows_per_group;
    opts.target_rows_per_shard = target_rows_per_shard;
    opts.base_name = "t";
    opts.writer.rows_per_page = 32;
    ShardedTableWriter writer(schema, opts, [&](const std::string& name) {
      return fs.NewWritableFile(name);
    });
    EXPECT_TRUE(writer.Append(all).ok());
    manifest = *writer.Finish();

    // Single-file twin, same grouping.
    std::vector<std::vector<ColumnVector>> groups;
    for (size_t r = 0; r < total_rows; r += rows_per_group) {
      std::vector<ColumnVector> g;
      for (const LeafColumn& leaf : schema.leaves()) {
        g.push_back(ColumnVector::ForLeaf(leaf));
      }
      for (size_t c = 0; c < g.size(); ++c) {
        g[c].AppendRows(all[c], r, std::min(total_rows, r + rows_per_group));
      }
      groups.push_back(std::move(g));
    }
    WriterOptions wopts;
    wopts.rows_per_page = 32;
    auto f = fs.NewWritableFile("single");
    EXPECT_TRUE(WriteTableFile(f->get(), schema, groups, wopts).ok());

    auto ds = ShardedTableReader::Open(manifest, [&](const std::string& n) {
      return fs.NewReadableFile(n);
    });
    EXPECT_TRUE(ds.ok()) << ds.status().ToString();
    reader = std::move(*ds);
  }

  /// Ground truth: per-group serial ReadProjection (plan → fetch →
  /// decode on the calling thread), concatenated in shard order.
  std::vector<std::vector<ColumnVector>> SerialConcat(
      const std::vector<uint32_t>& projection) const {
    std::vector<std::vector<ColumnVector>> out;
    for (size_t s = 0; s < reader->num_shards(); ++s) {
      const TableReader* shard = reader->shard_reader(s);
      for (uint32_t g = 0; g < shard->num_row_groups(); ++g) {
        std::vector<ColumnVector> group;
        EXPECT_TRUE(
            shard->ReadProjection(g, projection, ReadOptions{}, &group).ok());
        out.push_back(std::move(group));
      }
    }
    return out;
  }
};

// -------------------------------------------------------------- reader

TEST(ShardedReader, OpenValidatesManifestAgainstFooters) {
  DatasetFixture fx(500, 50, 100);
  EXPECT_EQ(fx.reader->num_rows(), 500u);
  EXPECT_EQ(fx.reader->num_row_groups(), 10u);
  EXPECT_EQ(fx.reader->num_columns(), 4u);

  // A manifest that lies about a shard's row count must be rejected.
  std::vector<ShardInfo> lying = fx.manifest.shards();
  lying[0].num_rows += 1;
  auto bad = ShardedTableReader::Open(ShardManifest(std::move(lying)),
                                      [&](const std::string& n) {
                                        return fx.fs.NewReadableFile(n);
                                      });
  EXPECT_FALSE(bad.ok());
}

TEST(ShardedReader, ScanIsByteIdenticalToPerShardSerialConcat) {
  DatasetFixture fx(900, 60, 180);  // 5 shards x 3 groups
  std::vector<uint32_t> projection = {0, 2, 3};
  auto truth = fx.SerialConcat(projection);
  ASSERT_EQ(truth.size(), fx.reader->num_row_groups());

  for (size_t threads : {1, 2, 4, 8}) {
    auto scan = Scan(fx.reader.get())
                    .ColumnIndices(projection)
                    .Threads(threads)
                    .Collect();
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    ASSERT_EQ(scan->groups.size(), truth.size());
    for (size_t g = 0; g < truth.size(); ++g) {
      EXPECT_EQ(scan->groups[g], truth[g]) << "threads=" << threads
                                           << " global group " << g;
    }
  }
}

TEST(ShardedReader, ConcatColumnMatchesSingleFileRead) {
  DatasetFixture fx(700, 64, 128);
  auto single = *TableReader::Open(*fx.fs.NewReadableFile("single"));
  for (const char* name : {"uid", "score", "tag", "clk_seq"}) {
    auto expect = ReadFullColumn(single.get(), name);
    ASSERT_TRUE(expect.ok());
    auto scan = Scan(fx.reader.get())
                    .Columns({name})
                    .Threads(4)
                    .Collect();
    ASSERT_TRUE(scan.ok());
    auto got = scan->ConcatColumn(0);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, *expect) << name;
  }
}

TEST(ShardedReader, GlobalRowGroupRangeSpansShardEdges) {
  DatasetFixture fx(600, 50, 100);  // 3 shards x 2 groups + ...
  ASSERT_GE(fx.reader->num_shards(), 2u);
  // [1, 4) crosses the shard-0/shard-1 boundary at global group 2.
  auto truth = fx.SerialConcat({1, 3});
  auto scan = Scan(fx.reader.get())
                  .ColumnIndices({1, 3})
                  .RowGroups(1, 4)
                  .Threads(3)
                  .Collect();
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->group_begin, 1u);
  ASSERT_EQ(scan->num_groups(), 3u);
  for (size_t g = 0; g < 3; ++g) {
    EXPECT_EQ(scan->groups[g], truth[g + 1]) << "global group " << g + 1;
  }
  // A well-formed range past the end is an empty scan, not an error.
  auto past = Scan(fx.reader.get()).RowGroups(99, 99).Collect();
  ASSERT_TRUE(past.ok());
  EXPECT_EQ(past->num_groups(), 0u);
  EXPECT_FALSE(
      Scan(fx.reader.get()).RowGroups(4, 1).Collect().ok());
}

TEST(ShardedReader, EmptyShardInTheMiddleContributesNoGroups) {
  InMemoryFileSystem fs;
  Schema schema = MakeMixedSchema();
  WriterOptions wopts;
  wopts.rows_per_page = 16;
  auto a = MakeMixedData(schema, 80, 1);
  auto b = MakeMixedData(schema, 40, 2);
  ASSERT_TRUE(
      WriteTableFile(fs.NewWritableFile("a")->get(), schema, {a}, wopts).ok());
  ASSERT_TRUE(
      WriteTableFile(fs.NewWritableFile("mid")->get(), schema, {}, wopts).ok());
  ASSERT_TRUE(
      WriteTableFile(fs.NewWritableFile("b")->get(), schema, {b}, wopts).ok());

  std::vector<std::unique_ptr<RandomAccessFile>> files;
  for (const char* n : {"a", "mid", "b"}) {
    files.push_back(*fs.NewReadableFile(n));
  }
  auto ds = ShardedTableReader::Open(std::move(files));
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ((*ds)->num_shards(), 3u);
  EXPECT_EQ((*ds)->num_rows(), 120u);
  EXPECT_EQ((*ds)->num_row_groups(), 2u);

  auto scan = Scan(ds->get()).Threads(2).Collect();
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->num_rows(), 120u);
  ColumnVector expect(PhysicalType::kInt64, 0);
  expect.AppendAllFrom(a[0]);
  expect.AppendAllFrom(b[0]);
  EXPECT_EQ(*scan->ConcatColumn(0), expect);
}

TEST(ShardedReader, SingleRowShards) {
  InMemoryFileSystem fs;
  Schema schema = MakeMixedSchema();
  ShardedWriterOptions opts;
  opts.rows_per_group = 1;
  opts.target_rows_per_shard = 1;
  opts.base_name = "tiny";
  opts.writer.rows_per_page = 4;
  ShardedTableWriter writer(schema, opts, [&](const std::string& name) {
    return fs.NewWritableFile(name);
  });
  auto data = MakeMixedData(schema, 5, 9);
  ASSERT_TRUE(writer.Append(data).ok());
  auto manifest = writer.Finish();
  ASSERT_TRUE(manifest.ok());
  ASSERT_EQ(manifest->num_shards(), 5u);

  auto ds = ShardedTableReader::Open(*manifest, [&](const std::string& n) {
    return fs.NewReadableFile(n);
  });
  ASSERT_TRUE(ds.ok());
  auto scan = Scan(ds->get()).Threads(4).Collect();
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->num_rows(), 5u);
  for (size_t c = 0; c < data.size(); ++c) {
    EXPECT_EQ(*scan->ConcatColumn(c), data[c]) << "column " << c;
  }
}

TEST(ShardedReader, RejectsMismatchedShardSchemas) {
  InMemoryFileSystem fs;
  Schema a = MakeMixedSchema();
  Schema b({{"other", DataType::Primitive(PhysicalType::kInt64),
             LogicalType::kPlain, false}});
  WriterOptions wopts;
  ASSERT_TRUE(WriteTableFile(fs.NewWritableFile("a")->get(), a,
                             {MakeMixedData(a, 10, 1)}, wopts)
                  .ok());
  ColumnVector col(PhysicalType::kInt64, 0);
  col.AppendInt(1);
  ASSERT_TRUE(
      WriteTableFile(fs.NewWritableFile("b")->get(), b, {{col}}, wopts).ok());
  std::vector<std::unique_ptr<RandomAccessFile>> files;
  files.push_back(*fs.NewReadableFile("a"));
  files.push_back(*fs.NewReadableFile("b"));
  EXPECT_FALSE(ShardedTableReader::Open(std::move(files)).ok());
}

// --------------------------------------------------------------- cache

TEST(DecodedChunkCache, WarmEpochIsByteIdenticalAndIssuesZeroPreads) {
  DatasetFixture fx(800, 50, 200);
  DecodedChunkCache cache(64 << 20);

  auto cold = Scan(fx.reader.get())
                  .Threads(4)
                  .Cache(&cache)
                  .Collect();
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);

  fx.fs.ResetStats();
  const uint64_t cold_misses = cache.misses();
  auto warm = Scan(fx.reader.get())
                  .Threads(4)
                  .Cache(&cache)
                  .Collect();
  ASSERT_TRUE(warm.ok());
  // Every chunk was cached: the warm epoch does zero I/O...
  EXPECT_EQ(fx.fs.stats().read_ops.load(), 0u);
  EXPECT_EQ(fx.fs.stats().bytes_read.load(), 0u);
  EXPECT_EQ(cache.misses(), cold_misses);
  EXPECT_GT(cache.hits(), 0u);
  // ...and the output is still byte-identical.
  EXPECT_EQ(warm->groups, cold->groups);

  auto uncached = Scan(fx.reader.get()).Threads(1).Collect();
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ(warm->groups, uncached->groups);
}

TEST(DecodedChunkCache, PartiallyCachedGroupsMergeCacheAndFreshReads) {
  DatasetFixture fx(600, 60, 180);
  DecodedChunkCache cache(64 << 20);

  // Warm only column 1, then scan {0, 1, 3}: every group is "mixed" —
  // one slot from the cache, two freshly read.
  auto prime = Scan(fx.reader.get())
                   .ColumnIndices({1})
                   .Cache(&cache)
                   .Collect();
  ASSERT_TRUE(prime.ok());
  uint64_t misses_after_prime = cache.misses();

  auto mixed = Scan(fx.reader.get())
                   .ColumnIndices({0, 1, 3})
                   .Threads(4)
                   .Cache(&cache)
                   .Collect();
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ(cache.hits(), fx.reader->num_row_groups());
  EXPECT_EQ(cache.misses(), misses_after_prime +
                                2 * fx.reader->num_row_groups());

  auto truth = fx.SerialConcat({0, 1, 3});
  ASSERT_EQ(mixed->groups.size(), truth.size());
  for (size_t g = 0; g < truth.size(); ++g) {
    EXPECT_EQ(mixed->groups[g], truth[g]) << "global group " << g;
  }
}

TEST(DecodedChunkCache, EvictsUnderTinyByteBudgetAndStaysCorrect) {
  DatasetFixture fx(800, 50, 200);
  // Budget ~2 chunks: constant churn, most probes miss, and the cache
  // must never hold more than its budget.
  auto probe = Scan(fx.reader.get()).ColumnIndices({3}).Collect();
  ASSERT_TRUE(probe.ok());
  size_t one_chunk = ApproxColumnVectorBytes(probe->groups[0][0]);
  ASSERT_GT(one_chunk, 0u);
  DecodedChunkCache cache(2 * one_chunk + one_chunk / 2);

  auto uncached = Scan(fx.reader.get()).Collect();
  ASSERT_TRUE(uncached.ok());
  for (int epoch = 0; epoch < 3; ++epoch) {
    auto scan = Scan(fx.reader.get())
                    .Threads(4)
                    .Cache(&cache)
                    .Collect();
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan->groups, uncached->groups) << "epoch " << epoch;
    EXPECT_LE(cache.size_bytes(), cache.capacity_bytes());
  }
  // Every full-table chunk is probed once per epoch, as often as the
  // residents: ties keep the residents, so newcomers are refused.
  EXPECT_GT(cache.rejects(), 0u);
  // One column scanned alone out-probes the residents, and its chunks
  // displace them.
  for (int pass = 0; pass < 8 && cache.evictions() == 0; ++pass) {
    auto scan = Scan(fx.reader.get())
                    .ColumnIndices({3})
                    .Threads(4)
                    .Cache(&cache)
                    .Collect();
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan->groups, probe->groups) << "column pass " << pass;
    EXPECT_LE(cache.size_bytes(), cache.capacity_bytes());
  }
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_GT(cache.misses(), 0u);
}

TEST(DecodedChunkCache, OversizedChunkIsNotCached) {
  DecodedChunkCache cache(8);  // 8 bytes: smaller than any real chunk
  ColumnVector big(PhysicalType::kInt64, 0);
  for (int i = 0; i < 100; ++i) big.AppendInt(i);
  cache.Insert(ChunkCacheKey{0, 0, 0, true}, big);
  EXPECT_EQ(cache.num_entries(), 0u);
  EXPECT_EQ(cache.size_bytes(), 0u);
  EXPECT_EQ(cache.rejects(), 1u);
  ColumnVector out;
  EXPECT_FALSE(cache.Lookup(ChunkCacheKey{0, 0, 0, true}, &out));
}

TEST(DecodedChunkCache, LruKeepsHotEntriesUnderPressure) {
  ColumnVector v(PhysicalType::kInt64, 0);
  for (int i = 0; i < 4; ++i) v.AppendInt(i);
  size_t bytes = ApproxColumnVectorBytes(v);
  DecodedChunkCache cache(2 * bytes);  // room for exactly two entries

  ChunkCacheKey a{0, 0, 0, true}, b{0, 0, 1, true}, c{0, 0, 2, true};
  cache.Insert(a, v);
  cache.Insert(b, v);
  ColumnVector out;
  ASSERT_TRUE(cache.Lookup(a, &out));  // refresh a: b is now coldest
  // The scanner's miss probe: c is now probed more often than b.
  ASSERT_FALSE(cache.Lookup(c, &out));
  cache.Insert(c, v);                  // evicts b
  EXPECT_TRUE(cache.Lookup(a, &out));
  EXPECT_FALSE(cache.Lookup(b, &out));
  EXPECT_TRUE(cache.Lookup(c, &out));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(DecodedChunkCache, KeySeparatesReadOptionVariants) {
  ColumnVector v(PhysicalType::kInt64, 0);
  v.AppendInt(7);
  DecodedChunkCache cache(1 << 20);
  cache.Insert(ChunkCacheKey{1, 2, 3, true, false}, v);
  ColumnVector out;
  // filter_deleted and verify_checksums both change what a decode
  // produces/checks; neither variant may serve the other's entry.
  EXPECT_FALSE(cache.Lookup(ChunkCacheKey{1, 2, 3, false, false}, &out));
  EXPECT_FALSE(cache.Lookup(ChunkCacheKey{1, 2, 3, true, true}, &out));
  EXPECT_TRUE(cache.Lookup(ChunkCacheKey{1, 2, 3, true, false}, &out));
  EXPECT_EQ(out, v);
}

/// Sum of ApproxColumnVectorBytes over every chunk of `groups`.
size_t DecodedBytes(const std::vector<std::vector<ColumnVector>>& groups) {
  size_t bytes = 0;
  for (const auto& group : groups) {
    for (const ColumnVector& chunk : group) {
      bytes += ApproxColumnVectorBytes(chunk);
    }
  }
  return bytes;
}

TEST(DecodedChunkCache, CyclicScanKeepsHalfAnEpochDecoded) {
  // Training re-reads the same projection every epoch. With room for
  // half an epoch, plain LRU evicts each chunk before its next use and
  // hits nothing; the admission test keeps the residents, which then
  // hit in every later epoch.
  DatasetFixture fx(1600, 50, 400);
  auto uncached = Scan(fx.reader.get()).Collect();
  ASSERT_TRUE(uncached.ok());
  DecodedChunkCache cache(DecodedBytes(uncached->groups) / 2);
  for (int epoch = 1; epoch <= 4; ++epoch) {
    const uint64_t hits0 = cache.hits(), misses0 = cache.misses();
    const uint64_t evictions0 = cache.evictions();
    auto scan = Scan(fx.reader.get()).Threads(4).Cache(&cache).Collect();
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan->groups, uncached->groups) << "epoch " << epoch;
    EXPECT_LE(cache.size_bytes(), cache.capacity_bytes());
    if (epoch == 1) continue;
    const uint64_t hits = cache.hits() - hits0;
    const uint64_t misses = cache.misses() - misses0;
    const uint64_t evictions = cache.evictions() - evictions0;
    EXPECT_GE(hits * 10, (hits + misses) * 4)
        << "epoch " << epoch << ": " << hits << " hits, " << misses
        << " misses";
    EXPECT_LT(evictions * 10, misses)
        << "epoch " << epoch << ": " << evictions << " evictions";
  }
}

TEST(DecodedChunkCache, ColdNewcomerIsRefused) {
  ColumnVector v(PhysicalType::kInt64, 0);
  for (int i = 0; i < 4; ++i) v.AppendInt(i);
  size_t bytes = ApproxColumnVectorBytes(v);
  DecodedChunkCache cache(2 * bytes);  // room for exactly two entries

  ChunkCacheKey a{0, 0, 0, true}, b{0, 0, 1, true}, c{0, 0, 2, true};
  ColumnVector out;
  // Each chunk is probed once before its insert, as the scanner does.
  ASSERT_FALSE(cache.Lookup(a, &out));
  cache.Insert(a, v);
  ASSERT_FALSE(cache.Lookup(b, &out));
  cache.Insert(b, v);
  const size_t full = cache.size_bytes();
  ASSERT_FALSE(cache.Lookup(c, &out));
  cache.Insert(c, v);  // ties the tail: refused
  EXPECT_FALSE(cache.Lookup(c, &out));
  EXPECT_TRUE(cache.Lookup(a, &out));
  EXPECT_TRUE(cache.Lookup(b, &out));
  EXPECT_EQ(cache.rejects(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.size_bytes(), full);
}

TEST(DecodedChunkCache, ResidentReinsertReplacesWithoutAdmissionTest) {
  ColumnVector v(PhysicalType::kInt64, 0), w(PhysicalType::kInt64, 0);
  ColumnVector wide(PhysicalType::kInt64, 0);
  for (int i = 0; i < 4; ++i) {
    v.AppendInt(i);
    w.AppendInt(100 + i);
    wide.AppendInt(200 + i);
    wide.AppendInt(300 + i);
  }
  const size_t bytes = ApproxColumnVectorBytes(v);
  ASSERT_EQ(ApproxColumnVectorBytes(w), bytes);
  ASSERT_EQ(ApproxColumnVectorBytes(wide), 2 * bytes);
  DecodedChunkCache cache(2 * bytes);  // full with two entries

  ChunkCacheKey a{0, 0, 0, true}, b{0, 0, 1, true};
  cache.Insert(a, v);
  cache.Insert(b, v);
  ColumnVector out;
  ASSERT_TRUE(cache.Lookup(b, &out));  // b outranks a in the sketch
  cache.Insert(a, w);  // two racing scans decoded a: the second replaces
  ASSERT_TRUE(cache.Lookup(a, &out));
  EXPECT_EQ(out, w);
  EXPECT_TRUE(cache.Lookup(b, &out));
  EXPECT_EQ(cache.evictions(), 0u);
  // A replacement that needs room is not tested against the tail
  // either (b still outranks a): it evicts from the tail, as LRU does.
  cache.Insert(a, wide);
  ASSERT_TRUE(cache.Lookup(a, &out));
  EXPECT_EQ(out, wide);
  EXPECT_FALSE(cache.Lookup(b, &out));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.rejects(), 0u);
}

TEST(DecodedChunkCache, AgingLetsNewKeysDisplaceStaleEntries) {
  ColumnVector v(PhysicalType::kInt64, 0);
  for (int i = 0; i < 4; ++i) v.AppendInt(i);
  DecodedChunkCache cache(2 * ApproxColumnVectorBytes(v));

  const ChunkCacheKey stale[2] = {{0, 0, 0, true}, {0, 0, 1, true}};
  const ChunkCacheKey fresh[2] = {{1, 0, 0, true}, {1, 0, 1, true}};
  ColumnVector out;
  cache.Insert(stale[0], v);
  cache.Insert(stale[1], v);
  for (int i = 0; i < 16; ++i) {  // saturate their counters
    ASSERT_TRUE(cache.Lookup(stale[0], &out));
    ASSERT_TRUE(cache.Lookup(stale[1], &out));
  }
  // Saturated newcomers only tie the stale entries: refused.
  for (int i = 0; i < 16; ++i) {
    ASSERT_FALSE(cache.Lookup(fresh[0], &out));
    ASSERT_FALSE(cache.Lookup(fresh[1], &out));
  }
  cache.Insert(fresh[0], v);
  EXPECT_EQ(cache.rejects(), 1u);
  // Only the new keys are probed from here on. Within one halving
  // period the stale counters halve, and the new keys outrank them.
  for (size_t i = 0; i < 10 * DecodedChunkCache::kSketchWidth; ++i) {
    cache.Lookup(fresh[i % 2], &out);
  }
  const uint64_t rejects = cache.rejects();
  cache.Insert(fresh[0], v);
  EXPECT_EQ(cache.evictions(), 1u);
  cache.Insert(fresh[1], v);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.rejects(), rejects);
  for (const ChunkCacheKey& k : fresh) EXPECT_TRUE(cache.Lookup(k, &out));
  for (const ChunkCacheKey& k : stale) EXPECT_FALSE(cache.Lookup(k, &out));
}

TEST(ShardedReader, ConcurrentScansShareOnePoolAndCache) {
  // TSAN target: two dataset scans racing on one shared pool + cache.
  DatasetFixture fx(600, 50, 150);
  ThreadPool pool(4);
  DecodedChunkCache cache(64 << 20);
  auto run = [&] {
    return Scan(fx.reader.get())
        .Pool(&pool)
        .Cache(&cache)
        .Collect();
  };
  auto first = run();
  ASSERT_TRUE(first.ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> scanners;
  scanners.reserve(4);
  for (int t = 0; t < 4; ++t) {
    scanners.emplace_back([&] {
      auto scan = run();
      if (!scan.ok() || scan->groups != first->groups) failures.fetch_add(1);
    });
  }
  for (auto& t : scanners) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ShardedReader, ConcurrentScansShareOneHalfBudgetCache) {
  // TSAN target: the same race with room for half the projection, so
  // lookups, admitted inserts, refusals and evictions all interleave.
  DatasetFixture fx(600, 50, 150);
  ThreadPool pool(4);
  auto uncached = Scan(fx.reader.get()).Pool(&pool).Collect();
  ASSERT_TRUE(uncached.ok());
  DecodedChunkCache cache(DecodedBytes(uncached->groups) / 2);
  auto run = [&] {
    return Scan(fx.reader.get())
        .Pool(&pool)
        .Cache(&cache)
        .Collect();
  };

  std::atomic<int> failures{0};
  std::vector<std::thread> scanners;
  scanners.reserve(4);
  for (int t = 0; t < 4; ++t) {
    scanners.emplace_back([&] {
      for (int epoch = 0; epoch < 3; ++epoch) {
        auto scan = run();
        if (!scan.ok() || scan->groups != uncached->groups) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : scanners) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(cache.size_bytes(), cache.capacity_bytes());
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.rejects(), 0u);
}

}  // namespace
}  // namespace bullion
