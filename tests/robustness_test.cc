// Failure-injection and robustness property tests: random corruption
// and truncation must produce clean Status errors (or detectably wrong
// data under verify_checksums), never crashes or hangs.

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/bullion.h"

namespace bullion {
namespace {

Schema SmallSchema() {
  return Schema({
      Field{"a", DataType::Primitive(PhysicalType::kInt64),
            LogicalType::kPlain, false},
      Field{"b", DataType::List(DataType::Primitive(PhysicalType::kInt64)),
            LogicalType::kPlain, false},
      Field{"c", DataType::Primitive(PhysicalType::kBinary),
            LogicalType::kPlain, false},
  });
}

std::vector<ColumnVector> SmallData(const Schema& schema, size_t rows) {
  Random rng(13);
  std::vector<ColumnVector> cols;
  for (const LeafColumn& leaf : schema.leaves()) {
    cols.push_back(ColumnVector::ForLeaf(leaf));
  }
  for (size_t r = 0; r < rows; ++r) {
    cols[0].AppendInt(rng.UniformRange(-1000, 1000));
    std::vector<int64_t> list(rng.Uniform(5));
    for (auto& x : list) x = rng.UniformRange(0, 100);
    cols[1].AppendIntList(list);
    cols[2].AppendBinary("s" + std::to_string(rng.Uniform(50)));
  }
  return cols;
}

std::vector<uint8_t> WriteSmallFile() {
  InMemoryFileSystem fs;
  Schema schema = SmallSchema();
  auto f = fs.NewWritableFile("t");
  BULLION_CHECK_OK(
      WriteTableFile(f->get(), schema, {SmallData(schema, 300)}, {}));
  auto r = fs.NewReadableFile("t");
  Buffer all;
  BULLION_CHECK_OK((*r)->Read(0, static_cast<size_t>(*(*r)->Size()), &all));
  return std::vector<uint8_t>(all.data(), all.data() + all.size());
}

Status TryReadEverything(const std::vector<uint8_t>& bytes,
                         bool verify_checksums) {
  InMemoryFileSystem fs;
  {
    auto f = fs.NewWritableFile("t");
    BULLION_RETURN_NOT_OK((*f)->Append(Slice(bytes.data(), bytes.size())));
  }
  auto reader = TableReader::Open(*fs.NewReadableFile("t"));
  BULLION_RETURN_NOT_OK(reader.status());
  ReadOptions ropts;
  ropts.verify_checksums = verify_checksums;
  for (uint32_t g = 0; g < (*reader)->num_row_groups(); ++g) {
    for (uint32_t c = 0; c < (*reader)->num_columns(); ++c) {
      ColumnVector col;
      BULLION_RETURN_NOT_OK((*reader)->ReadColumnChunk(g, c, ropts, &col));
    }
  }
  return Status::OK();
}

TEST(Robustness, TruncationsNeverCrash) {
  std::vector<uint8_t> bytes = WriteSmallFile();
  // Truncate at a spread of prefixes including all short tails.
  for (size_t len = 0; len < bytes.size();
       len += std::max<size_t>(1, bytes.size() / 200)) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
    Status st = TryReadEverything(cut, false);
    EXPECT_FALSE(st.ok()) << "truncated file of " << len
                          << " bytes must not read fully";
  }
}

TEST(Robustness, SingleByteCorruptionDetectedByChecksums) {
  std::vector<uint8_t> bytes = WriteSmallFile();
  Random rng(17);
  size_t detected = 0, clean_error = 0, silent = 0;
  constexpr int kTrials = 150;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<uint8_t> evil = bytes;
    size_t pos = rng.Uniform(evil.size());
    uint8_t flip = static_cast<uint8_t>(1 + rng.Uniform(255));
    evil[pos] ^= flip;
    Status st = TryReadEverything(evil, /*verify_checksums=*/true);
    if (st.ok()) {
      // The flip landed in checksum/DV/metadata bytes that do not
      // affect decoded data, or the read path didn't touch it.
      ++silent;
    } else if (st.IsCorruption() || st.IsIOError() ||
               st.IsInvalidArgument() || st.IsNotFound() ||
               st.IsOutOfRange()) {
      ++clean_error;
      if (st.IsCorruption()) ++detected;
    }
  }
  // The key property: no crash across all trials, and data-page flips
  // are caught. (Flips in the footer's own checksum arrays make the
  // stored hash wrong -> also Corruption.)
  EXPECT_GT(detected, kTrials / 4);
  EXPECT_EQ(silent + clean_error, static_cast<size_t>(kTrials));
}

TEST(Robustness, PageChecksumCatchesDataFlip) {
  std::vector<uint8_t> bytes = WriteSmallFile();
  // Flip a byte early in the data region (first page).
  std::vector<uint8_t> evil = bytes;
  evil[10] ^= 0x40;
  Status st = TryReadEverything(evil, /*verify_checksums=*/true);
  EXPECT_FALSE(st.ok());
}

TEST(Robustness, GarbageFilesRejected) {
  Random rng(23);
  for (size_t size : {0u, 1u, 7u, 8u, 100u, 4096u}) {
    std::vector<uint8_t> junk(size);
    for (auto& b : junk) b = static_cast<uint8_t>(rng.Next());
    Status st = TryReadEverything(junk, false);
    EXPECT_FALSE(st.ok()) << size;
  }
}

TEST(Robustness, CorruptEncodedBlocksFailCleanly) {
  // Corrupt every byte position of a small encoded block, decode, and
  // require no crash (error or bounded output both fine).
  std::vector<int64_t> data = {1, 5, 5, 5, 9, -3, 1000000, 0};
  for (EncodingType t :
       {EncodingType::kZigZag, EncodingType::kRle, EncodingType::kDelta,
        EncodingType::kForDelta, EncodingType::kDictionary,
        EncodingType::kFastPFor, EncodingType::kChunked}) {
    CascadeOptions opts;
    CascadeContext ctx(opts, 0);
    BufferBuilder out;
    ASSERT_TRUE(EncodeIntBlockAs(t, data, &ctx, &out).ok());
    Buffer block = out.Finish();
    for (size_t pos = 0; pos < block.size(); ++pos) {
      std::vector<uint8_t> evil(block.data(), block.data() + block.size());
      evil[pos] ^= 0xFF;
      std::vector<int64_t> decoded;
      SliceReader reader(Slice(evil.data(), evil.size()));
      Status st = DecodeIntBlock(&reader, &decoded);
      // No assertion on st: silent mis-decodes are possible without
      // checksums; the property is absence of crashes/UB. But output
      // must stay bounded.
      EXPECT_LE(decoded.size(), 1u << 20)
          << EncodingTypeName(t) << " pos " << pos;
    }
  }
}

TEST(Robustness, CorruptDoubleBitPlaneBlocksFailCleanly) {
  // The double twin of CorruptEncodedBlocksFailCleanly for the two
  // bit-plane encodings: every byte flipped with 0x01, 0x80 and 0xFF,
  // and every truncation. No crash, and output stays bounded.
  Random rng(31);
  std::vector<double> data(100);
  for (double& x : data) x = std::tanh(rng.NextGaussian() * 0.5);
  for (EncodingType t :
       {EncodingType::kBitShuffle, EncodingType::kBitShuffleSplit}) {
    CascadeOptions opts;
    CascadeContext ctx(opts, 0);
    BufferBuilder out;
    ASSERT_TRUE(EncodeDoubleBlockAs(t, data, &ctx, &out).ok());
    Buffer block = out.Finish();
    for (size_t pos = 0; pos < block.size(); ++pos) {
      for (uint8_t mask : {0x01, 0x80, 0xFF}) {
        std::vector<uint8_t> evil(block.data(), block.data() + block.size());
        evil[pos] ^= mask;
        std::vector<double> decoded;
        SliceReader reader(Slice(evil.data(), evil.size()));
        Status st = DecodeDoubleBlock(&reader, &decoded);
        EXPECT_LE(decoded.size(), 1u << 20)
            << EncodingTypeName(t) << " pos " << pos << " mask " << +mask;
      }
    }
    for (size_t cut = 0; cut < block.size(); ++cut) {
      std::vector<double> decoded;
      SliceReader reader(block.AsSlice().SubSlice(0, cut));
      // Every byte of either block is needed: a prefix never decodes.
      EXPECT_FALSE(DecodeDoubleBlock(&reader, &decoded).ok())
          << EncodingTypeName(t) << " cut " << cut;
      EXPECT_LE(decoded.size(), data.size());
    }
  }
}

TEST(Robustness, BlockCountBeyondPayloadAllocatesNothing) {
  // A 5-byte block (tag and count, no payload) that claims 2^24 values
  // of an encoding needing bytes per value, or of a tag the domain does
  // not decode, is refused before the output is sized from the count.
  constexpr uint64_t kClaimed = 1u << 24;
  auto header_only = [](EncodingType t) {
    BufferBuilder b;
    WriteBlockHeader(t, kClaimed, &b);
    return b.Finish();
  };
  for (EncodingType t :
       {EncodingType::kTrivial, EncodingType::kFixedBitWidth,
        EncodingType::kVarint, EncodingType::kZigZag,
        EncodingType::kFastPFor, EncodingType::kFastBP128,
        EncodingType::kBitShuffle, EncodingType::kChunked,
        EncodingType::kGorilla, EncodingType::kStringDict}) {
    Buffer block = header_only(t);
    ASSERT_EQ(block.size(), 5u);
    std::vector<int64_t> decoded;
    SliceReader reader(block.AsSlice());
    EXPECT_TRUE(DecodeIntBlock(&reader, &decoded).IsCorruption())
        << EncodingTypeName(t);
    EXPECT_LT(decoded.capacity(), 1u << 20) << EncodingTypeName(t);
  }
  for (EncodingType t : {EncodingType::kBitShuffle, EncodingType::kChunked,
                         EncodingType::kPseudodecimal}) {
    Buffer block = header_only(t);
    std::vector<double> decoded;
    SliceReader reader(block.AsSlice());
    EXPECT_TRUE(DecodeDoubleBlock(&reader, &decoded).IsCorruption())
        << EncodingTypeName(t);
    EXPECT_LT(decoded.capacity(), 1u << 20) << EncodingTypeName(t);
  }
}

TEST(Robustness, DeleteThenCompactThenDeleteAgain) {
  // Lifecycle stress: interleave deletes and compactions.
  InMemoryFileSystem fs;
  Schema schema({
      Field{"v", DataType::Primitive(PhysicalType::kInt64),
            LogicalType::kPlain, true},
  });
  std::vector<ColumnVector> cols;
  cols.push_back(ColumnVector::ForLeaf(schema.leaves()[0]));
  for (int64_t r = 0; r < 5000; ++r) cols[0].AppendInt(r);
  {
    auto f = fs.NewWritableFile("t0");
    ASSERT_TRUE(WriteTableFile(f->get(), schema, {cols}, {}).ok());
  }
  std::string cur = "t0";
  size_t expected = 5000;
  Random rng(29);
  for (int round = 0; round < 3; ++round) {
    // Delete ~5% clustered.
    auto reader = *TableReader::Open(*fs.NewReadableFile(cur));
    uint64_t start = rng.Uniform(expected - 250);
    std::vector<uint64_t> doomed;
    for (uint64_t r = start; r < start + 250; ++r) doomed.push_back(r);
    {
      auto rf = *fs.NewReadableFile(cur);
      auto uf = *fs.OpenForUpdate(cur);
      DeleteExecutor exec(rf.get(), uf.get(), reader->footer());
      auto rep = exec.DeleteRows(doomed, ComplianceLevel::kLevel2);
      ASSERT_TRUE(rep.ok()) << rep.status().ToString();
      expected -= rep->rows_deleted;
    }
    // Compact into the next file.
    auto reader2 = *TableReader::Open(*fs.NewReadableFile(cur));
    std::string next = "t" + std::to_string(round + 1);
    auto dest = *fs.NewWritableFile(next);
    auto rep = CompactTable(reader2.get(), dest.get());
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    ASSERT_EQ(rep->rows_after, expected);
    cur = next;
    auto check = *TableReader::Open(*fs.NewReadableFile(cur));
    ASSERT_TRUE(check->VerifyChecksums().ok());
    ASSERT_EQ(check->num_rows(), expected);
  }
}

}  // namespace
}  // namespace bullion
