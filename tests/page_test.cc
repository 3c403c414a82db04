// Page-layer tests: deletable encoding decision tree, sparse-delta
// pages, page corruption handling, and float/binary page round-trips.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/random.h"
#include "encoding/cascade.h"
#include "format/page.h"

namespace bullion {
namespace {

ColumnVector IntColumn(const std::vector<int64_t>& values) {
  ColumnVector col(PhysicalType::kInt64, 0);
  for (int64_t v : values) col.AppendInt(v);
  return col;
}

TEST(DeletableEncoding, DecisionTreePicksExpectedFamilies) {
  Random rng(3);
  struct Case {
    const char* name;
    std::vector<int64_t> values;
    std::vector<EncodingType> acceptable;
  };
  std::vector<Case> cases;
  {
    Case c{"low_cardinality", {}, {EncodingType::kDictionary,
                                   EncodingType::kFixedBitWidth}};
    for (int i = 0; i < 1000; ++i) c.values.push_back(rng.UniformRange(0, 5));
    cases.push_back(std::move(c));
  }
  {
    Case c{"long_runs", {}, {EncodingType::kRle}};
    for (int i = 0; i < 1000; ++i) c.values.push_back(i / 100);
    cases.push_back(std::move(c));
  }
  {
    Case c{"small_nonneg", {}, {EncodingType::kVarint,
                                EncodingType::kFixedBitWidth,
                                EncodingType::kDictionary,
                                EncodingType::kForDelta}};
    for (int i = 0; i < 1000; ++i) {
      c.values.push_back(rng.UniformRange(0, 100000));
    }
    cases.push_back(std::move(c));
  }
  {
    Case c{"negatives_wide", {}, {EncodingType::kForDelta,
                                  EncodingType::kTrivial}};
    for (int i = 0; i < 1000; ++i) {
      c.values.push_back(static_cast<int64_t>(rng.Next()));
    }
    cases.push_back(std::move(c));
  }
  for (const Case& c : cases) {
    BufferBuilder out;
    uint8_t encoding = 0;
    ASSERT_TRUE(EncodeDeletableIntValues(c.values, /*allow_rle=*/true, &out,
                                         &encoding)
                    .ok())
        << c.name;
    EncodingType chosen = static_cast<EncodingType>(encoding);
    bool acceptable = false;
    for (EncodingType t : c.acceptable) {
      if (t == chosen) acceptable = true;
    }
    EXPECT_TRUE(acceptable) << c.name << " chose "
                            << EncodingTypeName(chosen);
    // Whatever was chosen must round-trip.
    Buffer buf = out.Finish();
    SliceReader reader(buf.AsSlice());
    std::vector<int64_t> decoded;
    ASSERT_TRUE(DecodeIntBlock(&reader, &decoded).ok()) << c.name;
    EXPECT_EQ(decoded, c.values) << c.name;
  }
}

TEST(DeletableEncoding, RleSuppressedWhenDisallowed) {
  std::vector<int64_t> runs;
  for (int i = 0; i < 1000; ++i) runs.push_back(i / 100);
  BufferBuilder out;
  uint8_t encoding = 0;
  ASSERT_TRUE(
      EncodeDeletableIntValues(runs, /*allow_rle=*/false, &out, &encoding)
          .ok());
  EXPECT_NE(static_cast<EncodingType>(encoding), EncodingType::kRle);
}

TEST(Page, GenericIntPageRoundTrip) {
  Random rng(5);
  std::vector<int64_t> values(777);
  for (auto& v : values) v = rng.UniformRange(-100, 100);
  ColumnVector col = IntColumn(values);
  PageEncodeOptions opts;
  auto page = EncodePage(col, 100, 600, opts);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->row_count, 500u);
  ColumnVector out(PhysicalType::kInt64, 0);
  ASSERT_TRUE(DecodePage(page->data.AsSlice(), &out).ok());
  ASSERT_EQ(out.num_rows(), 500u);
  for (size_t i = 0; i < 500; ++i) {
    EXPECT_EQ(out.int_values()[i], values[100 + i]);
  }
}

TEST(Page, SparseDeltaPageForIdSequences) {
  // Realistic clk_seq_cids shape: long window, wide id universe. (With
  // tiny windows the generic cascade wins — a legitimate crossover the
  // sweep in bench_sparse_delta maps out.)
  Random rng(11);
  ColumnVector col(PhysicalType::kInt64, 1);
  std::vector<int64_t> window(64);
  for (auto& x : window) x = rng.UniformRange(0, 1 << 30);
  for (int r = 0; r < 300; ++r) {
    if (r % 2 == 0) {
      window.insert(window.begin(), rng.UniformRange(0, 1 << 30));
      window.pop_back();
    }
    col.AppendIntList(window);
  }
  PageEncodeOptions opts;
  opts.use_sparse_delta = true;
  auto sparse_page = EncodePage(col, 0, 300, opts);
  ASSERT_TRUE(sparse_page.ok());
  EXPECT_EQ(static_cast<EncodingType>(sparse_page->encoding),
            EncodingType::kSparseDelta);

  PageEncodeOptions generic;
  auto generic_page = EncodePage(col, 0, 300, generic);
  ASSERT_TRUE(generic_page.ok());
  EXPECT_LT(sparse_page->data.size(), generic_page->data.size());

  ColumnVector out(PhysicalType::kInt64, 1);
  ASSERT_TRUE(DecodePage(sparse_page->data.AsSlice(), &out).ok());
  EXPECT_EQ(out, ColumnVector(col));
}

TEST(Page, FloatAndBinaryPages) {
  Random rng(9);
  {
    ColumnVector col(PhysicalType::kFloat64, 0);
    for (int i = 0; i < 400; ++i) col.AppendReal(rng.NextGaussian());
    auto page = EncodePage(col, 0, 400, {});
    ASSERT_TRUE(page.ok());
    ColumnVector out(PhysicalType::kFloat64, 0);
    ASSERT_TRUE(DecodePage(page->data.AsSlice(), &out).ok());
    EXPECT_EQ(out, col);
  }
  {
    ColumnVector col(PhysicalType::kBinary, 1);
    for (int i = 0; i < 200; ++i) {
      col.AppendBinaryList({"a" + std::to_string(i), "bb"});
    }
    auto page = EncodePage(col, 0, 200, {});
    ASSERT_TRUE(page.ok());
    ColumnVector out(PhysicalType::kBinary, 1);
    ASSERT_TRUE(DecodePage(page->data.AsSlice(), &out).ok());
    EXPECT_EQ(out, col);
  }
}

TEST(Page, BitShuffleDoublePagesStillDecode) {
  // Files written before BitShuffleSplit hold tag-13 (BitShuffle) double
  // values blocks. The cascade no longer writes that tag, so the page is
  // built by hand in the generic layout:
  // [format][list depth][offsets block][values block].
  Random rng(21);
  ColumnVector col(PhysicalType::kFloat64, 1);
  for (int r = 0; r < 64; ++r) {
    std::vector<double> row(1 + rng.Uniform(15));
    for (double& x : row) x = std::tanh(rng.NextGaussian() * 0.5);
    col.AppendRealList(row);
  }
  BufferBuilder page;
  page.Append<uint8_t>(static_cast<uint8_t>(PageFormat::kGeneric));
  page.Append<uint8_t>(1);
  CascadeOptions opts;
  CascadeContext ctx(opts, 0);
  ASSERT_TRUE(ctx.EncodeIntChild(col.offsets()[0], &page).ok());
  ASSERT_TRUE(EncodeDoubleBlockAs(EncodingType::kBitShuffle,
                                  col.real_values(), &ctx, &page)
                  .ok());
  Buffer bytes = page.Finish();

  // The writer's page of the same rows never carries tag 13.
  auto written = EncodePage(col, 0, col.num_rows(), {});
  ASSERT_TRUE(written.ok());
  EXPECT_NE(written->encoding, static_cast<uint8_t>(EncodingType::kBitShuffle));

  for (Slice encoded : {bytes.AsSlice(), written->data.AsSlice()}) {
    ColumnVector out(PhysicalType::kFloat64, 1);
    ASSERT_TRUE(DecodePage(encoded, &out).ok());
    EXPECT_EQ(out.offsets(), col.offsets());
    ASSERT_EQ(out.real_values().size(), col.real_values().size());
    EXPECT_EQ(std::memcmp(out.real_values().data(), col.real_values().data(),
                          col.real_values().size() * sizeof(double)),
              0);
  }
}

TEST(Page, CorruptPageFailsCleanly) {
  ColumnVector col = IntColumn({1, 2, 3, 4, 5, 6, 7, 8});
  auto page = EncodePage(col, 0, 8, {});
  ASSERT_TRUE(page.ok());

  // Truncations at every prefix must return an error, never crash.
  for (size_t len = 0; len < page->data.size(); ++len) {
    ColumnVector out(PhysicalType::kInt64, 0);
    Status st = DecodePage(page->data.AsSlice().SubSlice(0, len), &out);
    // Some prefixes may decode an empty page "successfully" if the
    // header says zero; the key property is no crash and no garbage
    // rows beyond the encoded count.
    if (st.ok()) {
      EXPECT_LE(out.num_rows(), 8u);
    }
  }

  // Unknown page format byte.
  std::vector<uint8_t> bytes(page->data.data(),
                             page->data.data() + page->data.size());
  bytes[0] = 0x77;
  ColumnVector out(PhysicalType::kInt64, 0);
  EXPECT_FALSE(DecodePage(Slice(bytes.data(), bytes.size()), &out).ok());
}

TEST(Page, DepthMismatchRejected) {
  ColumnVector col = IntColumn({1, 2, 3});
  auto page = EncodePage(col, 0, 3, {});
  ASSERT_TRUE(page.ok());
  ColumnVector wrong_depth(PhysicalType::kInt64, 1);
  EXPECT_FALSE(DecodePage(page->data.AsSlice(), &wrong_depth).ok());

  // Shapes no page layout holds: a file whose column record declares
  // list<list<float64>> or list<list<list<int64>>> is corrupt, even when
  // the page itself carries that many offset levels.
  ColumnVector floats2(PhysicalType::kFloat64, 2);  // [[0.5, 1.5], [2.5]]
  floats2.mutable_offsets() = {{0, 2}, {0, 2, 3}};
  floats2.mutable_real_values() = {0.5, 1.5, 2.5};
  ColumnVector ints3(PhysicalType::kInt64, 3);  // [[[1, 2], [3]]]
  ints3.mutable_offsets() = {{0, 1}, {0, 2}, {0, 2, 3}};
  ints3.mutable_int_values() = {1, 2, 3};
  for (const ColumnVector& shape : {floats2, ints3}) {
    auto nested = EncodePage(shape, 0, 1, {});
    ASSERT_TRUE(nested.ok());
    ColumnVector out(shape.physical(), shape.list_depth());
    Status st = DecodePage(nested->data.AsSlice(), &out);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
    EXPECT_EQ(out.num_rows(), 0u);
  }
}

TEST(Page, DecodeNeedsAnEmptyColumn) {
  auto page = EncodePage(IntColumn({1, 2, 3}), 0, 3, {});
  ASSERT_TRUE(page.ok());
  ColumnVector out = IntColumn({9});
  Status st = DecodePage(page->data.AsSlice(), &out);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_EQ(out, IntColumn({9}));
}

}  // namespace
}  // namespace bullion
