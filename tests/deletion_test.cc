// Compliance-deletion tests: deletion vectors (level 1), in-place
// masking (level 2) across every maskable encoding, Merkle checksum
// maintenance, and size consistency.

#include <gtest/gtest.h>

#include "common/random.h"
#include "format/column_vector.h"
#include "format/deletion.h"
#include "format/page.h"
#include "format/reader.h"
#include "format/schema.h"
#include "format/writer.h"
#include "io/file.h"

namespace bullion {
namespace {

struct Fixture {
  InMemoryFileSystem fs;
  Schema schema;
  std::vector<ColumnVector> data;

  explicit Fixture(const std::string& value_kind, size_t rows = 2000,
                   uint64_t seed = 5) {
    std::vector<Field> fields;
    fields.push_back({"v", DataType::Primitive(PhysicalType::kInt64),
                      LogicalType::kPlain, true});
    fields.push_back({"ids",
                      DataType::List(DataType::Primitive(PhysicalType::kInt64)),
                      LogicalType::kPlain, true});
    schema = Schema(std::move(fields));
    Random rng(seed);
    ColumnVector v(PhysicalType::kInt64, 0);
    ColumnVector ids(PhysicalType::kInt64, 1);
    for (size_t r = 0; r < rows; ++r) {
      if (value_kind == "low_card") {
        v.AppendInt(rng.UniformRange(0, 7));
      } else if (value_kind == "runs") {
        v.AppendInt(static_cast<int64_t>(r / 50));
      } else if (value_kind == "varint_friendly") {
        v.AppendInt(rng.UniformRange(0, 1 << 20));
      } else if (value_kind == "negatives") {
        v.AppendInt(rng.UniformRange(-1000000, 1000000));
      } else {
        v.AppendInt(static_cast<int64_t>(rng.Next()));
      }
      std::vector<int64_t> list(3 + rng.Uniform(3));
      for (auto& x : list) x = rng.UniformRange(0, 500);
      ids.AppendIntList(list);
    }
    data.push_back(std::move(v));
    data.push_back(std::move(ids));
  }

  Status Write(uint32_t rows_per_page = 256) {
    WriterOptions wopts;
    wopts.rows_per_page = rows_per_page;
    auto f = fs.NewWritableFile("t");
    if (!f.ok()) return f.status();
    TableWriter writer(schema, f->get(), wopts);
    BULLION_RETURN_NOT_OK(writer.WriteRowGroup(data));
    return writer.Finish();
  }

  Result<std::unique_ptr<TableReader>> OpenReader() {
    auto f = fs.NewReadableFile("t");
    if (!f.ok()) return f.status();
    return TableReader::Open(std::move(*f));
  }

  Result<DeleteReport> Delete(const std::vector<uint64_t>& rows,
                              ComplianceLevel level) {
    auto rf = fs.NewReadableFile("t");
    if (!rf.ok()) return rf.status();
    auto uf = fs.OpenForUpdate("t");
    if (!uf.ok()) return uf.status();
    auto reader = TableReader::Open(std::move(*rf));
    if (!reader.ok()) return reader.status();
    auto rf2 = fs.NewReadableFile("t");
    DeleteExecutor exec(rf2->get(), uf->get(), (*reader)->footer());
    return exec.DeleteRows(rows, level);
  }
};

std::vector<uint8_t> FileBytes(InMemoryFileSystem* fs, const std::string& name) {
  auto file = fs->NewReadableFile(name);
  EXPECT_TRUE(file.ok());
  Buffer buf;
  EXPECT_TRUE((*file)->Read(0, *(*file)->Size(), &buf).ok());
  return std::vector<uint8_t>(buf.data(), buf.data() + buf.size());
}

class DeletionByKind : public ::testing::TestWithParam<std::string> {};

TEST_P(DeletionByKind, Level2MasksAndFilters) {
  Fixture fx(GetParam());
  ASSERT_TRUE(fx.Write().ok());

  std::vector<uint64_t> to_delete = {3, 4, 5, 100, 999, 1500, 1999};
  auto report = fx.Delete(to_delete, ComplianceLevel::kLevel2);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows_deleted, to_delete.size());
  EXPECT_GT(report->pages_rewritten, 0u);

  auto reader = *fx.OpenReader();
  // Checksums must still verify after in-place updates (Merkle path
  // was maintained).
  EXPECT_TRUE(reader->VerifyChecksums().ok());

  ReadOptions filter;
  filter.filter_deleted = true;
  ColumnVector v;
  ASSERT_TRUE(reader->ReadColumnChunk(0, 0, filter, &v).ok());
  EXPECT_EQ(v.num_rows(), fx.data[0].num_rows() - to_delete.size());
  // Surviving values must be the original non-deleted values in order.
  size_t vi = 0;
  for (size_t r = 0; r < fx.data[0].num_rows(); ++r) {
    if (std::find(to_delete.begin(), to_delete.end(), r) != to_delete.end()) {
      continue;
    }
    ASSERT_EQ(v.int_values()[vi], fx.data[0].int_values()[r]) << "row " << r;
    ++vi;
  }

  ColumnVector ids;
  ASSERT_TRUE(reader->ReadColumnChunk(0, 1, filter, &ids).ok());
  EXPECT_EQ(ids.num_rows(), fx.data[1].num_rows() - to_delete.size());
}

TEST_P(DeletionByKind, Level2PhysicallyErases) {
  Fixture fx(GetParam());
  ASSERT_TRUE(fx.Write().ok());

  // Pick a row whose value is distinctive, then check the raw bytes.
  std::vector<uint64_t> to_delete = {700};
  ASSERT_TRUE(fx.Delete(to_delete, ComplianceLevel::kLevel2).ok());

  auto reader = *fx.OpenReader();
  ReadOptions keep;
  keep.filter_deleted = false;
  ColumnVector v;
  ASSERT_TRUE(reader->ReadColumnChunk(0, 0, keep, &v).ok());
  ASSERT_EQ(v.num_rows(), fx.data[0].num_rows());
  // The deleted slot must no longer decode to the original value,
  // unless the original value happens to equal the masked placeholder.
  int64_t original = fx.data[0].int_values()[700];
  int64_t masked = v.int_values()[700];
  if (original != 0) {
    EXPECT_NE(masked, original)
        << "deleted value still recoverable from storage";
  }
}

TEST_P(DeletionByKind, Level1OnlySetsVectors) {
  Fixture fx(GetParam());
  ASSERT_TRUE(fx.Write().ok());
  auto report = fx.Delete({10, 20, 30}, ComplianceLevel::kLevel1);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->pages_rewritten, 0u);
  EXPECT_EQ(report->page_bytes_written, 0u);

  auto reader = *fx.OpenReader();
  ReadOptions filter;
  ColumnVector v;
  ASSERT_TRUE(reader->ReadColumnChunk(0, 0, filter, &v).ok());
  EXPECT_EQ(v.num_rows(), fx.data[0].num_rows() - 3);

  // Level 1 leaves the physical data intact.
  ReadOptions keep;
  keep.filter_deleted = false;
  ColumnVector raw;
  ASSERT_TRUE(reader->ReadColumnChunk(0, 0, keep, &raw).ok());
  EXPECT_EQ(raw.int_values()[10], fx.data[0].int_values()[10]);
}

INSTANTIATE_TEST_SUITE_P(Kinds, DeletionByKind,
                         ::testing::Values("low_card", "runs",
                                           "varint_friendly", "negatives",
                                           "wide"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

TEST(Deletion, RepeatedDeletesAccumulate) {
  Fixture fx("runs");
  ASSERT_TRUE(fx.Write().ok());
  ASSERT_TRUE(fx.Delete({1, 2, 3}, ComplianceLevel::kLevel2).ok());
  ASSERT_TRUE(fx.Delete({4, 5, 6}, ComplianceLevel::kLevel2).ok());
  // Deleting already-deleted rows is a no-op.
  auto rep = fx.Delete({1, 2, 3}, ComplianceLevel::kLevel2);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->rows_deleted, 0u);

  auto reader = *fx.OpenReader();
  EXPECT_TRUE(reader->VerifyChecksums().ok());
  ReadOptions filter;
  ColumnVector v;
  ASSERT_TRUE(reader->ReadColumnChunk(0, 0, filter, &v).ok());
  EXPECT_EQ(v.num_rows(), fx.data[0].num_rows() - 6);
}

// Pages of 10 rows start and end mid-byte in the deletion vector, so a
// filtered read must check each page's own bit range.
TEST(Deletion, FilterAtUnalignedPageEdges) {
  Fixture fx("wide");
  ASSERT_TRUE(fx.Write(/*rows_per_page=*/10).ok());
  const std::vector<uint64_t> to_delete = {0, 9, 10, 19, 25, 1990, 1999};
  ASSERT_TRUE(fx.Delete(to_delete, ComplianceLevel::kLevel1).ok());

  auto reader = *fx.OpenReader();
  ReadOptions filter;
  filter.filter_deleted = true;
  for (uint32_t c = 0; c < 2; ++c) {
    ColumnVector got;
    ASSERT_TRUE(reader->ReadColumnChunk(0, c, filter, &got).ok());
    ColumnVector want(fx.data[c].physical(), fx.data[c].list_depth());
    for (size_t r = 0; r < fx.data[c].num_rows(); ++r) {
      if (std::find(to_delete.begin(), to_delete.end(), r) ==
          to_delete.end()) {
        want.AppendRows(fx.data[c], r, r + 1);
      }
    }
    EXPECT_TRUE(got == want) << "column " << c;
  }
}

TEST(Deletion, Level0Rejected) {
  Fixture fx("runs");
  ASSERT_TRUE(fx.Write().ok());
  EXPECT_FALSE(fx.Delete({1}, ComplianceLevel::kLevel0).ok());
}

TEST(Deletion, OutOfRangeRowRejected) {
  Fixture fx("runs");
  ASSERT_TRUE(fx.Write().ok());
  EXPECT_FALSE(fx.Delete({1u << 30}, ComplianceLevel::kLevel1).ok());
}

TEST(Deletion, SizeConsistency) {
  // In-place deletion must never change the file size (§2.1 criterion).
  Fixture fx("runs");
  ASSERT_TRUE(fx.Write().ok());
  uint64_t before = *fx.fs.FileSize("t");
  Random rng(9);
  std::vector<uint64_t> rows;
  for (int i = 0; i < 40; ++i) rows.push_back(rng.Uniform(2000));
  ASSERT_TRUE(fx.Delete(rows, ComplianceLevel::kLevel2).ok());
  EXPECT_EQ(*fx.fs.FileSize("t"), before);
}

TEST(Deletion, IoFarBelowFullRewrite) {
  // The §2.1 headline: deleting ~2% of rows costs a small fraction of
  // rewriting the file. Deletes are clustered, as in the paper's
  // GDPR workload (a user's rows are adjacent after uid sorting).
  Fixture fx("varint_friendly", 20000);
  ASSERT_TRUE(fx.Write().ok());
  uint64_t file_size = *fx.fs.FileSize("t");
  std::vector<uint64_t> rows;
  for (uint64_t r = 5000; r < 5400; ++r) rows.push_back(r);  // ~2%, clustered
  auto report = fx.Delete(rows, ComplianceLevel::kLevel2);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->total_bytes_written(), file_size / 10)
      << "in-place deletes should write far less than a full rewrite";
}

TEST(Deletion, MultiGroupDeletes) {
  Fixture fx("low_card", 3000);
  InMemoryFileSystem& fs = fx.fs;
  {
    WriterOptions wopts;
    wopts.rows_per_page = 128;
    auto f = fs.NewWritableFile("t");
    TableWriter writer(fx.schema, f->get(), wopts);
    // Three row groups of 1000 rows each.
    for (int g = 0; g < 3; ++g) {
      std::vector<ColumnVector> group;
      ColumnVector v(PhysicalType::kInt64, 0), ids(PhysicalType::kInt64, 1);
      for (int r = 0; r < 1000; ++r) {
        v.AppendInt(fx.data[0].int_values()[g * 1000 + r]);
        ids.AppendIntList(fx.data[1].IntListAt(g * 1000 + r));
      }
      group.push_back(std::move(v));
      group.push_back(std::move(ids));
      ASSERT_TRUE(writer.WriteRowGroup(group).ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
  }
  // Rows spanning all three groups.
  auto rep = fx.Delete({50, 1500, 2999}, ComplianceLevel::kLevel2);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep->rows_deleted, 3u);
  auto reader = *fx.OpenReader();
  EXPECT_TRUE(reader->VerifyChecksums().ok());
  ReadOptions filter;
  uint64_t total = 0;
  for (uint32_t g = 0; g < 3; ++g) {
    ColumnVector v;
    ASSERT_TRUE(reader->ReadColumnChunk(g, 0, filter, &v).ok());
    total += v.num_rows();
  }
  EXPECT_EQ(total, 2997u);
}

TEST(Deletion, RefusedLevel2DeleteLeavesFileUntouched) {
  // Deletable float columns get Chimp pages and deletable binary
  // columns Chunked pages, and neither can be masked in place. The
  // delete must be refused before the int column beside it (column 0,
  // masked first) is rewritten: all or nothing.
  for (PhysicalType second : {PhysicalType::kFloat64, PhysicalType::kBinary}) {
    InMemoryFileSystem fs;
    Schema schema({
        Field{"v", DataType::Primitive(PhysicalType::kInt64),
              LogicalType::kPlain, true},
        Field{"w", DataType::Primitive(second), LogicalType::kPlain, true},
    });
    Random rng(11);
    ColumnVector v(PhysicalType::kInt64, 0);
    ColumnVector w(second, 0);
    for (int r = 0; r < 1000; ++r) {
      v.AppendInt(rng.UniformRange(0, 1 << 20));
      if (second == PhysicalType::kFloat64) {
        w.AppendReal(rng.NextDouble());
      } else {
        w.AppendBinary("user-" + std::to_string(rng.Next()));
      }
    }
    WriterOptions wopts;
    wopts.rows_per_page = 256;
    {
      auto f = fs.NewWritableFile("t");
      TableWriter writer(schema, f->get(), wopts);
      ASSERT_TRUE(writer.WriteRowGroup({v, w}).ok());
      ASSERT_TRUE(writer.Finish().ok());
    }
    const std::vector<uint8_t> before = FileBytes(&fs, "t");

    auto reader = *TableReader::Open(*fs.NewReadableFile("t"));
    auto rf = fs.NewReadableFile("t");
    auto uf = fs.OpenForUpdate("t");
    DeleteExecutor exec(rf->get(), uf->get(), reader->footer());
    std::vector<uint64_t> rows = {3, 700};
    auto report = exec.DeleteRows(rows, ComplianceLevel::kLevel2);
    ASSERT_FALSE(report.ok()) << "second column " << static_cast<int>(second);
    EXPECT_EQ(FileBytes(&fs, "t"), before)
        << "a refused delete rewrote part of the file";
    auto reopened = *TableReader::Open(*fs.NewReadableFile("t"));
    Status verify = reopened->VerifyChecksums();
    EXPECT_TRUE(verify.ok()) << verify.ToString();
    EXPECT_EQ(reopened->footer().DeletedCount(0), 0u);

    // The refusal left the executor's live state clean: a level-1
    // delete through it still hides the rows and keeps the file valid.
    ASSERT_TRUE(exec.DeleteRows(rows, ComplianceLevel::kLevel1).ok());
    reopened = *TableReader::Open(*fs.NewReadableFile("t"));
    EXPECT_TRUE(reopened->VerifyChecksums().ok());
    EXPECT_EQ(reopened->footer().DeletedCount(0), 2u);
  }
}

TEST(Deletion, Level2RefusesPageThatFailsItsChecksum) {
  Fixture fx("wide");
  ASSERT_TRUE(fx.Write().ok());
  uint64_t at = 0;
  {
    auto reader = *fx.OpenReader();
    const FooterView& f = reader->footer();
    const uint32_t page = f.chunk_pages(0, 0).first + 700 / f.rows_per_page();
    at = f.page_offset(page) + f.page_slot_size(page) / 2;
  }
  // Damage one byte of a surviving value in the page that holds row 700.
  {
    Buffer old_byte;
    ASSERT_TRUE((*fx.fs.NewReadableFile("t"))->Read(at, 1, &old_byte).ok());
    const uint8_t flipped = old_byte.data()[0] ^ 0xFF;
    auto uf = *fx.fs.OpenForUpdate("t");
    ASSERT_TRUE(uf->WriteAt(at, Slice(&flipped, 1)).ok());
    ASSERT_TRUE(uf->Flush().ok());
  }

  auto report = fx.Delete({700}, ComplianceLevel::kLevel2);
  ASSERT_FALSE(report.ok()) << "masked a page that fails its checksum";
  EXPECT_TRUE(report.status().IsCorruption()) << report.status().ToString();

  // No fresh hash was written over the damage, so it stays detectable,
  // and the row was not deleted.
  auto reader = *fx.OpenReader();
  EXPECT_FALSE(reader->VerifyChecksums().ok());
  ReadOptions verified;
  verified.verify_checksums = true;
  ColumnVector v;
  EXPECT_FALSE(reader->ReadColumnChunk(0, 0, verified, &v).ok());
  EXPECT_EQ(reader->footer().DeletedCount(0), 0u);
}

TEST(MaskPageRows, EveryDeletableEncodingMasks) {
  // Encode pages forcing each maskable path and verify MaskPageRows
  // keeps size and erases content.
  struct Case {
    std::string name;
    std::vector<int64_t> values;
  };
  Random rng(21);
  std::vector<Case> cases;
  {
    Case c{"dict_low_card", {}};
    for (int i = 0; i < 512; ++i) c.values.push_back(rng.UniformRange(0, 5));
    cases.push_back(c);
  }
  {
    Case c{"rle_runs", {}};
    for (int i = 0; i < 512; ++i) c.values.push_back(i / 64);
    cases.push_back(c);
  }
  {
    Case c{"wide_trivial", {}};
    for (int i = 0; i < 512; ++i) {
      c.values.push_back(static_cast<int64_t>(rng.Next()));
    }
    cases.push_back(c);
  }
  for (const Case& c : cases) {
    ColumnVector col(PhysicalType::kInt64, 0);
    for (int64_t v : c.values) col.AppendInt(v);
    PageEncodeOptions popts;
    popts.deletable = true;
    auto page = EncodePage(col, 0, c.values.size(), popts);
    ASSERT_TRUE(page.ok()) << c.name;
    std::vector<uint8_t> bytes(page->data.data(),
                               page->data.data() + page->data.size());
    size_t size_before = bytes.size();
    std::vector<uint32_t> rows = {7, 8, 100};
    std::vector<uint8_t> none(c.values.size(), 0);
    ASSERT_TRUE(MaskPageRows(&bytes, rows, none).ok()) << c.name;
    EXPECT_EQ(bytes.size(), size_before) << c.name;

    // The page must still decode; non-deleted rows must be intact, and
    // masked rows must no longer hold their original values (unless the
    // original value already equals the mask placeholder).
    ColumnVector decoded(PhysicalType::kInt64, 0);
    ASSERT_TRUE(
        DecodePage(Slice(bytes.data(), bytes.size()), &decoded).ok())
        << c.name;
    if (decoded.num_rows() == c.values.size()) {
      // Masking path (no physical removal).
      for (size_t r = 0; r < c.values.size(); ++r) {
        bool is_masked =
            std::find(rows.begin(), rows.end(), r) != rows.end();
        if (!is_masked) {
          EXPECT_EQ(decoded.int_values()[r], c.values[r])
              << c.name << " row " << r;
        } else if (c.values[r] != decoded.int_values()[r]) {
          // Erased, as required.
        }
      }
    } else {
      // RLE removal path: survivors in order.
      ASSERT_EQ(decoded.num_rows(), c.values.size() - rows.size()) << c.name;
      size_t di = 0;
      for (size_t r = 0; r < c.values.size(); ++r) {
        if (std::find(rows.begin(), rows.end(), r) != rows.end()) continue;
        EXPECT_EQ(decoded.int_values()[di++], c.values[r])
            << c.name << " row " << r;
      }
    }
  }
}

TEST(MaskPageRows, CorruptPageYieldsStatusNeverFault) {
  // Each deletable page kind with every byte flipped in turn: masking
  // must return a Status (OK or not) without touching memory outside
  // the page. The sanitizer builds turn any stray access into a fault.
  Random rng(21);
  const int64_t dict[4] = {1234567890123, 987654321987, 5555555555555, 42};
  std::vector<ColumnVector> pages(7, ColumnVector(PhysicalType::kInt64, 0));
  for (int i = 0; i < 512; ++i) {
    pages[0].AppendInt(rng.UniformRange(0, 5));              // bit-packed
    pages[1].AppendInt(i / 64);                              // RLE
    pages[2].AppendInt(static_cast<int64_t>(rng.Next()));    // trivial
    pages[3].AppendInt(rng.UniformRange(0, 100000));         // bit-packed
    pages[4].AppendInt(dict[rng.Uniform(4)]);                // dictionary
    pages[5].AppendInt(1000000000 + rng.UniformRange(0, 100000));  // FOR
    pages[6].AppendInt(rng.Bernoulli(0.95)                   // varint
                           ? rng.UniformRange(0, 100)
                           : rng.UniformRange(0, int64_t{1} << 40));
  }
  ColumnVector lists(PhysicalType::kInt64, 1);
  for (int i = 0; i < 512; ++i) {
    std::vector<int64_t> list(3 + rng.Uniform(3));
    for (auto& x : list) x = rng.UniformRange(0, 500);
    lists.AppendIntList(list);
  }
  pages.push_back(std::move(lists));

  const std::vector<uint32_t> rows = {7, 8, 100};
  const std::vector<uint8_t> none(512, 0);
  for (size_t k = 0; k < pages.size(); ++k) {
    PageEncodeOptions popts;
    popts.deletable = true;
    auto page = EncodePage(pages[k], 0, 512, popts);
    ASSERT_TRUE(page.ok()) << "page " << k;
    const std::vector<uint8_t> bytes(page->data.data(),
                                     page->data.data() + page->data.size());
    std::vector<uint8_t> masked = bytes;
    ASSERT_TRUE(MaskPageRows(&masked, rows, none).ok()) << "page " << k;
    for (size_t i = 0; i < bytes.size(); ++i) {
      for (uint8_t flip : {0x01, 0x80, 0xFF}) {
        std::vector<uint8_t> corrupt = bytes;
        corrupt[i] ^= flip;
        MaskPageRows(&corrupt, rows, none).IgnoreError();
        ASSERT_EQ(corrupt.size(), bytes.size());
      }
    }
  }
}

}  // namespace
}  // namespace bullion
