// Inline I/O tests for the two OS seams: the AggregatedWriteBuffer
// contract (byte order at any block size, logical-vs-physical
// accounting, a sticky first write error that the failing Append
// itself returns, the partial block written before a WriteAt), a
// committed table that is byte-identical with and without aggregation
// and round-trips through a posix file, and the scan seam's failure
// paths: dropping a stream with decodes in flight, and a read error
// surfacing from Next().

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/bullion.h"

namespace bullion {
namespace {

// ------------------------------------------------------------ tier names

TEST(AioTier, NamesAndDefault) {
  EXPECT_STREQ(AioTierName(AioTier::kSync), "sync");
  EXPECT_STREQ(AioTierName(AioTier::kThreads), "threads");
  EXPECT_STREQ(AioTierName(AioTier::kUring), "uring");
  // Every pread and block write runs on the caller's thread.
  EXPECT_EQ(DefaultAioTier(), AioTier::kSync);
}

// ------------------------------------------- aggregated write contract

/// Write stub that records every physical block it receives.
class RecordingFile : public WritableFile {
 public:
  Status Append(Slice data) override { return AppendBlock(data); }
  Status AppendBlock(Slice data) override {
    if (fail_after_ >= 0 && blocks_.size() >= static_cast<size_t>(fail_after_)) {
      return Status::IOError("device gone");
    }
    blocks_.emplace_back(reinterpret_cast<const char*>(data.data()),
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
  Result<uint64_t> Size() const override {
    uint64_t n = 0;
    for (const auto& b : blocks_) n += b.size();
    return n;
  }

  void FailAfterBlocks(int n) { fail_after_ = n; }
  const std::vector<std::string>& blocks() const { return blocks_; }
  std::string contents() const {
    std::string all;
    for (const auto& b : blocks_) all += b;
    return all;
  }
  int flushes() const { return flushes_; }

 private:
  std::vector<std::string> blocks_;
  int flushes_ = 0;
  int fail_after_ = -1;
};

TEST(AggregatedWriteBuffer, PreservesByteOrderAcrossBlockSizes) {
  // Many appends of coprime sizes so block boundaries split appends at
  // awkward offsets; the physical stream must still concatenate to the
  // exact logical byte sequence.
  std::string truth;
  std::vector<std::string> appends;
  for (size_t i = 0; i < 200; ++i) {
    std::string piece;
    size_t len = (i * 37 + 11) % 97 + 1;
    for (size_t j = 0; j < len; ++j) {
      piece.push_back(static_cast<char>('a' + (i + j) % 26));
    }
    truth += piece;
    appends.push_back(std::move(piece));
  }
  for (size_t block : {size_t{64}, size_t{1000}, size_t{1} << 20}) {
    RecordingFile file;
    {
      AggregatedWriteBuffer agg(&file, block);
      for (const std::string& a : appends) {
        ASSERT_TRUE(agg.Append(Slice(a.data(), a.size())).ok());
      }
      auto size = agg.Size();
      ASSERT_TRUE(size.ok());
      EXPECT_EQ(*size, truth.size());
      ASSERT_TRUE(agg.Flush().ok());
    }
    EXPECT_EQ(file.contents(), truth) << "block=" << block;
    EXPECT_EQ(file.flushes(), 1);
    // Every full block is exactly the configured size; only the tail
    // is smaller. Far fewer physical writes than logical appends.
    const auto& blocks = file.blocks();
    for (size_t b = 0; b + 1 < blocks.size(); ++b) {
      EXPECT_EQ(blocks[b].size(), block) << "block=" << block;
    }
    EXPECT_LT(blocks.size(), appends.size());
  }
}

TEST(AggregatedWriteBuffer, SplitsLogicalFromPhysicalAccounting) {
  InMemoryFileSystem fs;
  auto file = fs.NewWritableFile("agg");
  ASSERT_TRUE(file.ok());
  {
    AggregatedWriteBuffer agg(file->get(), 4096);
    std::string piece(100, 'x');
    for (size_t i = 0; i < 1000; ++i) {
      ASSERT_TRUE(agg.Append(Slice(piece.data(), piece.size())).ok());
    }
    ASSERT_TRUE(agg.Flush().ok());
  }
  // 1000 logical appends; 100'000 bytes / 4096-byte blocks = 24 full
  // blocks + tail = 25 physical write calls.
  EXPECT_EQ(fs.stats().write_ops, 1000u);
  EXPECT_EQ(fs.stats().write_calls, 25u);
  EXPECT_EQ(fs.stats().bytes_written, 100000u);
  EXPECT_EQ(*fs.FileSize("agg"), 100000u);
}

TEST(AggregatedWriteBuffer, WriteErrorIsStickyAndSurfacesEverywhere) {
  RecordingFile file;
  file.FailAfterBlocks(1);  // first block lands, second gets EIO
  AggregatedWriteBuffer agg(&file, 64);
  std::string piece(64, 'y');
  // Each append fills exactly one block, so the second append is the
  // one whose block write fails, and it returns the error itself.
  ASSERT_TRUE(agg.Append(Slice(piece.data(), piece.size())).ok());
  Status st = agg.Append(Slice(piece.data(), piece.size()));
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  // Sticky: every later operation reports the same failure without
  // reaching the base file.
  EXPECT_TRUE(agg.Append(Slice(piece.data(), piece.size())).IsIOError());
  EXPECT_TRUE(agg.Flush().IsIOError());
  EXPECT_TRUE(agg.WriteAt(0, Slice(piece.data(), 1)).IsIOError());
  EXPECT_EQ(file.blocks().size(), 1u);
  EXPECT_EQ(file.flushes(), 0);
}

TEST(AggregatedWriteBuffer, WriteAtWritesThePartialBlockFirst) {
  InMemoryFileSystem fs;
  auto file = fs.NewWritableFile("agg");
  ASSERT_TRUE(file.ok());
  AggregatedWriteBuffer agg(file->get(), 4096);
  std::string piece(100, 'x');
  ASSERT_TRUE(agg.Append(Slice(piece.data(), piece.size())).ok());
  EXPECT_EQ(*fs.FileSize("agg"), 0u);  // still buffered
  // The in-memory file refuses a WriteAt past its end, so this only
  // succeeds if the buffered bytes were written out first.
  ASSERT_TRUE(agg.WriteAt(10, Slice("YZ", 2)).ok());
  ASSERT_TRUE(agg.Flush().ok());
  piece[10] = 'Y';
  piece[11] = 'Z';
  auto reader = fs.NewReadableFile("agg");
  Buffer bytes;
  ASSERT_TRUE((*reader)->Read(0, piece.size(), &bytes).ok());
  EXPECT_EQ(bytes.AsSlice().ToString(), piece);
}

// ------------------------------------------------------------ fixtures

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

/// Writes `rows` rows in groups of 50 into `fs` as file "t".
void WriteFixtureTable(InMemoryFileSystem* fs, const Schema& schema,
                       size_t rows) {
  std::vector<std::vector<ColumnVector>> groups;
  for (size_t r = 0; r < rows; r += 50) {
    groups.push_back(MakeOrderedData(schema, 50, r));
  }
  WriterOptions wopts;
  wopts.rows_per_page = 16;
  auto f = fs->NewWritableFile("t");
  ASSERT_TRUE(WriteTableFile(f->get(), schema, groups, wopts).ok());
}

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

// ------------------------------------------------- scan-seam failures

/// Read wrapper that delays every pread, so the consumer is still
/// reading while earlier reads' decodes run on the workers.
class SlowFile : public RandomAccessFile {
 public:
  explicit SlowFile(std::unique_ptr<RandomAccessFile> base)
      : base_(std::move(base)) {}
  Status Read(uint64_t offset, size_t len, Buffer* out) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return base_->Read(offset, len, out);
  }
  Result<uint64_t> Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<RandomAccessFile> base_;
};

TEST(AioScan, AbortingAStreamWithDecodesInFlightIsSafe) {
  InMemoryFileSystem fs;
  Schema schema = MakeMixedSchema();
  WriteFixtureTable(&fs, schema, 800);
  auto slow = std::make_unique<SlowFile>(*fs.NewReadableFile("t"));
  auto reader = TableReader::Open(std::move(slow));
  ASSERT_TRUE(reader.ok());
  auto stream = Scan(reader->get()).Threads(4).Stream();
  ASSERT_TRUE(stream.ok());
  RowBatch batch;
  auto more = (*stream)->Next(&batch);  // the window is full behind it
  ASSERT_TRUE(more.ok()) << more.status().ToString();
  stream->reset();  // abort: outstanding decodes must join first
  // The reader stays usable after the abort.
  auto again = Scan(reader->get()).Threads(4).Collect();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->num_rows(), 800u);
}

/// Fails every read after the first `ok_reads` — the stream must
/// surface the error from Next(), not hang or crash.
class FailAfterFile : public RandomAccessFile {
 public:
  FailAfterFile(std::unique_ptr<RandomAccessFile> base, int ok_reads)
      : base_(std::move(base)), remaining_(ok_reads) {}
  Status Read(uint64_t offset, size_t len, Buffer* out) const override {
    if (remaining_.fetch_sub(1) <= 0) {
      return Status::IOError("injected EIO");
    }
    return base_->Read(offset, len, out);
  }
  Result<uint64_t> Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  mutable std::atomic<int> remaining_;
};

TEST(AioScan, ReadErrorsSurfaceFromNext) {
  InMemoryFileSystem fs;
  Schema schema = MakeMixedSchema();
  WriteFixtureTable(&fs, schema, 400);
  // Footer/metadata reads succeed; the first data pread fails.
  auto failing = std::make_unique<FailAfterFile>(*fs.NewReadableFile("t"), 4);
  auto reader = TableReader::Open(std::move(failing));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto stream = Scan(reader->get()).Threads(2).Stream();
  ASSERT_TRUE(stream.ok());
  RowBatch batch;
  Status err = Status::OK();
  for (;;) {
    auto more = (*stream)->Next(&batch);
    if (!more.ok()) {
      err = more.status();
      break;
    }
    if (!*more) break;
  }
  EXPECT_TRUE(err.IsIOError()) << err.ToString();
  EXPECT_NE(err.ToString().find("injected EIO"), std::string::npos);
}

// --------------------------------------------------- write-seam identity

TEST(AioWrite, AggregatedCommitStreamIsByteIdenticalToDirectWrites) {
  InMemoryFileSystem fs;
  Schema schema = MakeMixedSchema();
  std::vector<std::vector<ColumnVector>> groups;
  for (size_t r = 0; r < 500; r += 100) {
    groups.push_back(MakeOrderedData(schema, 100, r));
  }
  // Reference: unaggregated direct appends.
  WriterOptions ref_opts;
  ref_opts.rows_per_page = 16;
  ref_opts.write_block_bytes = 0;
  auto ref_file = fs.NewWritableFile("ref");
  ASSERT_TRUE(WriteTableFile(ref_file->get(), schema, groups, ref_opts).ok());
  auto ref_reader = fs.NewReadableFile("ref");
  uint64_t ref_size = *(*ref_reader)->Size();
  Buffer ref_bytes;
  ASSERT_TRUE((*ref_reader)->Read(0, ref_size, &ref_bytes).ok());

  for (size_t block : {size_t{512}, size_t{1} << 20}) {
    WriterOptions opts;
    opts.rows_per_page = 16;
    opts.write_block_bytes = block;
    std::string name = "agg_" + std::to_string(block);
    auto file = fs.NewWritableFile(name);
    ASSERT_TRUE(WriteTableFile(file->get(), schema, groups, opts).ok());
    ASSERT_EQ(*fs.FileSize(name), ref_size);
    auto reader = fs.NewReadableFile(name);
    Buffer bytes;
    ASSERT_TRUE((*reader)->Read(0, ref_size, &bytes).ok());
    EXPECT_EQ(std::memcmp(bytes.data(), ref_bytes.data(), ref_size), 0)
        << "block=" << block;
  }
}

TEST(AioWrite, PosixRoundTripThroughAggregation) {
  // Full posix round trip: TableWriter through the aggregated write
  // stream onto a real fd, scanned back at 1 and 4 threads, compared
  // against the in-memory reference.
  InMemoryFileSystem fs;
  Schema schema = MakeMixedSchema();
  std::vector<std::vector<ColumnVector>> groups;
  for (size_t r = 0; r < 300; r += 50) {
    groups.push_back(MakeOrderedData(schema, 50, r));
  }
  WriterOptions opts;
  opts.rows_per_page = 16;
  auto mem_file = fs.NewWritableFile("ref");
  ASSERT_TRUE(WriteTableFile(mem_file->get(), schema, groups, opts).ok());
  auto mem_reader = *TableReader::Open(*fs.NewReadableFile("ref"));
  auto truth_stream = Scan(mem_reader.get()).Threads(1).Stream();
  std::vector<RowBatch> truth = Drain(truth_stream->get());

  const std::string path = "aio_posix_roundtrip.tmp";
  auto posix_w = OpenPosixWritableFile(path, /*truncate=*/true);
  ASSERT_TRUE(posix_w.ok());
  ASSERT_TRUE(WriteTableFile(posix_w->get(), schema, groups, opts).ok());

  auto posix_r = OpenPosixReadableFile(path);
  ASSERT_TRUE(posix_r.ok());
  EXPECT_EQ(*(*posix_r)->Size(), *fs.FileSize("ref"));
  auto reader = TableReader::Open(std::move(*posix_r));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  for (size_t threads : {1, 4}) {
    auto stream = Scan(reader->get()).Threads(threads).Stream();
    ASSERT_TRUE(stream.ok());
    std::vector<RowBatch> got = Drain(stream->get());
    ASSERT_EQ(got.size(), truth.size());
    for (size_t g = 0; g < got.size(); ++g) {
      EXPECT_EQ(got[g].columns, truth[g].columns) << "group " << g;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bullion
