#include "format/page.h"

#include <algorithm>
#include <unordered_map>

#include "common/varint.h"
#include "encoding/cascade.h"
#include "encoding/int_codecs.h"
#include "encoding/stats.h"
#include "format/sparse_delta.h"

namespace bullion {

namespace {

/// Dictionary with the reserved mask entry: sorted distinct entries as
/// FOR-delta (handles negatives), codes as absolute FixedBitWidth, so a
/// masked code is 0. Neither child has a child stream of its own.
Status EncodeDeletableDictionary(std::span<const int64_t> values,
                                 BufferBuilder* out) {
  WriteBlockHeader(EncodingType::kDictionary, values.size(), out);
  std::vector<int64_t> entries(values.begin(), values.end());
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  std::unordered_map<int64_t, int64_t> index;
  index.reserve(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    index[entries[i]] = static_cast<int64_t>(i) + 1;  // 0 = mask slot
  }
  out->Append<uint8_t>(1);  // has_mask
  varint::PutVarint64(out, entries.size());
  WriteBlockHeader(EncodingType::kForDelta, entries.size(), out);
  BULLION_RETURN_NOT_OK(intcodec::EncodeForDelta(entries, out));
  std::vector<int64_t> codes(values.size());
  for (size_t i = 0; i < values.size(); ++i) codes[i] = index[values[i]];
  WriteBlockHeader(EncodingType::kFixedBitWidth, codes.size(), out);
  return intcodec::EncodeFixedBitWidth(codes, out);
}

}  // namespace

Status EncodeDeletableRle(std::span<const int64_t> values,
                          BufferBuilder* out) {
  CascadeOptions opts;
  opts.allowed = {EncodingType::kZigZag};
  opts.max_depth = 1;
  CascadeContext ctx(opts, 1);  // at the depth limit: children are ZigZag
  WriteBlockHeader(EncodingType::kRle, values.size(), out);
  return intcodec::EncodeRle(values, &ctx, out);
}

Status EncodeDeletableIntValues(std::span<const int64_t> values,
                                bool allow_rle, BufferBuilder* out,
                                uint8_t* encoding_out) {
  IntStats stats = ComputeIntStats(values);

  struct Candidate {
    EncodingType type;
    Buffer buf;
  };
  std::vector<Candidate> candidates;

  auto try_candidate = [&](EncodingType t, auto encode_fn) {
    BufferBuilder b;
    Status st = encode_fn(&b);
    if (st.ok()) candidates.push_back({t, b.Finish()});
  };

  if (!stats.DistinctCapped() && stats.distinct <= 4096 &&
      stats.distinct * 2 <= std::max<size_t>(stats.count, 1)) {
    try_candidate(EncodingType::kDictionary, [&](BufferBuilder* b) {
      return EncodeDeletableDictionary(values, b);
    });
  }
  if (allow_rle && stats.run_count * 2 <= std::max<size_t>(stats.count, 1)) {
    try_candidate(EncodingType::kRle, [&](BufferBuilder* b) {
      return EncodeDeletableRle(values, b);
    });
  }
  if (stats.non_negative) {
    try_candidate(EncodingType::kVarint, [&](BufferBuilder* b) {
      WriteBlockHeader(EncodingType::kVarint, values.size(), b);
      return intcodec::EncodeVarint(values, b);
    });
    try_candidate(EncodingType::kFixedBitWidth, [&](BufferBuilder* b) {
      WriteBlockHeader(EncodingType::kFixedBitWidth, values.size(), b);
      return intcodec::EncodeFixedBitWidth(values, b);
    });
  }
  try_candidate(EncodingType::kForDelta, [&](BufferBuilder* b) {
    WriteBlockHeader(EncodingType::kForDelta, values.size(), b);
    return intcodec::EncodeForDelta(values, b);
  });
  try_candidate(EncodingType::kTrivial, [&](BufferBuilder* b) {
    WriteBlockHeader(EncodingType::kTrivial, values.size(), b);
    return intcodec::EncodeTrivial(values, b);
  });

  if (candidates.empty()) {
    return Status::Unknown("no deletable encoding candidate");
  }
  size_t best = 0;
  for (size_t i = 1; i < candidates.size(); ++i) {
    if (candidates[i].buf.size() < candidates[best].buf.size()) best = i;
  }
  *encoding_out = static_cast<uint8_t>(candidates[best].type);
  out->AppendSlice(candidates[best].buf.AsSlice());
  return Status::OK();
}

Result<EncodedPage> EncodePage(const ColumnVector& col, size_t row_begin,
                               size_t row_end,
                               const PageEncodeOptions& options) {
  ColumnVector page_rows(col.physical(), col.list_depth());
  page_rows.AppendRows(col, row_begin, row_end);
  uint32_t row_count = static_cast<uint32_t>(row_end - row_begin);
  BufferBuilder out;

  // Sparse-delta fast path: whole page encoded jointly.
  if (options.use_sparse_delta && page_rows.list_depth() == 1 &&
      page_rows.domain() == ValueDomain::kInt) {
    out.Append<uint8_t>(static_cast<uint8_t>(PageFormat::kSparseDelta));
    BULLION_ASSIGN_OR_RETURN(
        Buffer block,
        EncodeSparseDeltaColumn(page_rows.offsets()[0], page_rows.int_values(),
                                options.cascade));
    out.AppendSlice(block.AsSlice());
    return EncodedPage{out.Finish(), row_count,
                       static_cast<uint8_t>(EncodingType::kSparseDelta)};
  }

  out.Append<uint8_t>(static_cast<uint8_t>(PageFormat::kGeneric));
  out.Append<uint8_t>(static_cast<uint8_t>(page_rows.list_depth()));

  CascadeContext ctx(options.cascade, 0);
  for (int level = 0; level < page_rows.list_depth(); ++level) {
    BULLION_RETURN_NOT_OK(
        ctx.EncodeIntChild(page_rows.offsets()[level], &out));
  }

  EncodingType chosen = EncodingType::kTrivial;
  switch (page_rows.domain()) {
    case ValueDomain::kInt: {
      if (options.deletable) {
        uint8_t encoding = 0;
        BULLION_RETURN_NOT_OK(EncodeDeletableIntValues(
            page_rows.int_values(), /*allow_rle=*/page_rows.list_depth() == 0,
            &out, &encoding));
        chosen = static_cast<EncodingType>(encoding);
      } else {
        BULLION_ASSIGN_OR_RETURN(
            Buffer block, EncodeInt64Column(page_rows.int_values(),
                                            options.cascade, &chosen));
        out.AppendSlice(block.AsSlice());
      }
      break;
    }
    case ValueDomain::kReal: {
      BULLION_ASSIGN_OR_RETURN(
          Buffer block, EncodeDoubleColumn(page_rows.real_values(),
                                           options.cascade, &chosen));
      out.AppendSlice(block.AsSlice());
      break;
    }
    case ValueDomain::kBinary: {
      BULLION_ASSIGN_OR_RETURN(
          Buffer block, EncodeStringColumn(page_rows.bin_values(),
                                           options.cascade, &chosen));
      out.AppendSlice(block.AsSlice());
      break;
    }
  }
  return EncodedPage{out.Finish(), row_count, static_cast<uint8_t>(chosen)};
}

namespace {

/// Checks a decoded page's offset levels before anything indexes
/// through them (decoded bytes may be corrupt; see
/// tests/robustness_test.cc), then drops what no row references. The
/// check runs inside-out: the innermost level indexes the leaf values,
/// each outer level the items of the level below.
Status CheckListLevels(ColumnVector* col) {
  const int depth = col->list_depth();
  if (depth == 0) return Status::OK();
  std::vector<std::vector<int64_t>>& offsets = col->mutable_offsets();
  int64_t upper = static_cast<int64_t>(col->LeafCount());
  for (int level = depth - 1; level >= 0; --level) {
    const std::vector<int64_t>& offs = offsets[level];
    if (offs.empty() || offs.front() != 0) {
      return Status::Corruption("page offsets must start at 0");
    }
    for (size_t i = 1; i < offs.size(); ++i) {
      if (offs[i] < offs[i - 1]) {
        return Status::Corruption("page offsets not monotone");
      }
    }
    if (offs.back() > upper) {
      return Status::Corruption("page offsets exceed value count");
    }
    upper = static_cast<int64_t>(offs.size()) - 1;
  }
  // Rows reference items [0, offsets[0].back()) of the level below,
  // and so on down to the values; the rest is unreferenced padding.
  for (int level = 0; level + 1 < depth; ++level) {
    offsets[level + 1].resize(static_cast<size_t>(offsets[level].back()) + 1);
  }
  const size_t used = static_cast<size_t>(offsets[depth - 1].back());
  switch (col->domain()) {
    case ValueDomain::kInt:
      col->mutable_int_values().resize(used);
      break;
    case ValueDomain::kReal:
      col->mutable_real_values().resize(used);
      break;
    case ValueDomain::kBinary:
      col->mutable_bin_values().resize(used);
      break;
  }
  return Status::OK();
}

}  // namespace

Status DecodePage(Slice page, ColumnVector* out) {
  if (out->num_rows() != 0 || out->LeafCount() != 0) {
    return Status::InvalidArgument("DecodePage needs an empty column");
  }
  const int depth = out->list_depth();
  if (!PageLayoutHolds(out->domain(), depth)) {
    return Status::Corruption("no page layout for list depth " +
                              std::to_string(depth) +
                              (depth == 2 ? " of non-int values" : ""));
  }
  SliceReader in(page);
  if (in.remaining() < 1) return Status::Corruption("empty page");
  PageFormat format = static_cast<PageFormat>(in.Read<uint8_t>());

  // Offsets and values decode straight into a page-local column's
  // storage; once checked, they move into *out as they are, so *out
  // stays empty on any error.
  ColumnVector col(out->physical(), depth);
  std::vector<std::vector<int64_t>>& offsets = col.mutable_offsets();
  if (format == PageFormat::kSparseDelta) {
    if (depth != 1 || col.domain() != ValueDomain::kInt) {
      return Status::Corruption("sparse-delta page needs int list column");
    }
    BULLION_RETURN_NOT_OK(DecodeSparseDeltaColumn(
        page.SubSlice(1, page.size() - 1), &offsets[0],
        &col.mutable_int_values()));
  } else if (format == PageFormat::kGeneric) {
    if (in.remaining() < 1) return Status::Corruption("page missing depth");
    if (in.Read<uint8_t>() != depth) {
      return Status::Corruption("page list depth mismatch");
    }
    for (int level = 0; level < depth; ++level) {
      BULLION_RETURN_NOT_OK(DecodeIntBlock(&in, &offsets[level]));
    }
    switch (col.domain()) {
      case ValueDomain::kInt:
        BULLION_RETURN_NOT_OK(DecodeIntBlock(&in, &col.mutable_int_values()));
        break;
      case ValueDomain::kReal:
        BULLION_RETURN_NOT_OK(
            DecodeDoubleBlock(&in, &col.mutable_real_values()));
        break;
      case ValueDomain::kBinary:
        BULLION_RETURN_NOT_OK(
            DecodeStringBlock(&in, &col.mutable_bin_values()));
        break;
    }
  } else {
    return Status::Corruption("unknown page format");
  }
  BULLION_RETURN_NOT_OK(CheckListLevels(&col));
  *out = std::move(col);
  return Status::OK();
}

}  // namespace bullion
