// Cascade selection, block dispatch, and the public encoding API.

#include "encoding/cascade.h"

#include <algorithm>
#include <limits>

#include "encoding/bool_codecs.h"
#include "encoding/float_codecs.h"
#include "encoding/int_codecs.h"
#include "encoding/stats.h"
#include "encoding/string_codecs.h"

namespace bullion {

namespace {

/// Values the selector trial-encodes from a larger input (full data is
/// used when smaller than this).
constexpr size_t kSampleValues = 8192;

/// Takes up to `target` values as up-to-8 evenly spaced contiguous
/// chunks, preserving local run/delta structure the selector must see.
template <typename T>
std::vector<T> SampleChunks(std::span<const T> values, size_t target) {
  if (values.size() <= target) return std::vector<T>(values.begin(), values.end());
  size_t n_chunks = 8;
  size_t chunk = target / n_chunks;
  std::vector<T> out;
  out.reserve(chunk * n_chunks);
  for (size_t c = 0; c < n_chunks; ++c) {
    size_t start = (values.size() - chunk) * c / (n_chunks - 1);
    for (size_t i = 0; i < chunk; ++i) out.push_back(values[start + i]);
  }
  return out;
}

double ScoreCost(const CascadeOptions& opts, EncodingType t, size_t est_bytes,
                 size_t count) {
  EncodingCost c = GetEncodingCost(t);
  return opts.w_size * static_cast<double>(est_bytes) +
         opts.w_decode * c.decode * static_cast<double>(count);
}

}  // namespace

// ---------------------------------------------------------------------------
// Forced block encoders (header + payload).
// ---------------------------------------------------------------------------

Status EncodeIntBlockAs(EncodingType type, std::span<const int64_t> values,
                        CascadeContext* ctx, BufferBuilder* out) {
  WriteBlockHeader(type, values.size(), out);
  switch (type) {
    case EncodingType::kTrivial:
      return intcodec::EncodeTrivial(values, out);
    case EncodingType::kVarint:
      return intcodec::EncodeVarint(values, out);
    case EncodingType::kZigZag:
      return intcodec::EncodeZigZag(values, out);
    case EncodingType::kFixedBitWidth:
      return intcodec::EncodeFixedBitWidth(values, out);
    case EncodingType::kForDelta:
      return intcodec::EncodeForDelta(values, out);
    case EncodingType::kDelta:
      return intcodec::EncodeDelta(values, ctx, out);
    case EncodingType::kConstant:
      return intcodec::EncodeConstant(values, out);
    case EncodingType::kMainlyConstant:
      return intcodec::EncodeMainlyConstant(values, ctx, out);
    case EncodingType::kRle:
      return intcodec::EncodeRle(values, ctx, out);
    case EncodingType::kDictionary:
      return intcodec::EncodeDictionary(values, ctx,
                                        /*reserve_mask_entry=*/false, out);
    case EncodingType::kHuffman:
      return intcodec::EncodeHuffman(values, out);
    case EncodingType::kFastPFor:
      return intcodec::EncodeFastPFor(values, out);
    case EncodingType::kFastBP128:
      return intcodec::EncodeFastBP128(values, out);
    case EncodingType::kBitShuffle:
      return intcodec::EncodeBitShuffle(values, out);
    case EncodingType::kChunked:
      return intcodec::EncodeChunked(values, out);
    default:
      return Status::InvalidArgument(
          "encoding not available in int domain: " +
          std::string(EncodingTypeName(type)));
  }
}

namespace {

/// Payload dispatch shared by every int block entry point: decodes
/// exactly `n` values into out[0..n) through the block decoders.
/// Sentinel/Nullable also produce validity and keep vector-based
/// decoders; they pass through a temp here (rare at this layer).
Status DecodeIntPayloadInto(EncodingType type, SliceReader* in, size_t n,
                            int64_t* out) {
  switch (type) {
    case EncodingType::kTrivial:
      return intcodec::DecodeTrivialInto(in, n, out);
    case EncodingType::kVarint:
      return intcodec::DecodeVarintInto(in, n, out);
    case EncodingType::kZigZag:
      return intcodec::DecodeZigZagInto(in, n, out);
    case EncodingType::kFixedBitWidth:
      return intcodec::DecodeFixedBitWidthInto(in, n, out);
    case EncodingType::kForDelta:
      return intcodec::DecodeForDeltaInto(in, n, out);
    case EncodingType::kDelta:
      return intcodec::DecodeDeltaInto(in, n, out);
    case EncodingType::kConstant:
      return intcodec::DecodeConstantInto(in, n, out);
    case EncodingType::kMainlyConstant:
      return intcodec::DecodeMainlyConstantInto(in, n, out);
    case EncodingType::kRle:
      return intcodec::DecodeRleInto(in, n, out);
    case EncodingType::kDictionary:
      return intcodec::DecodeDictionaryInto(in, n, out);
    case EncodingType::kHuffman:
      return intcodec::DecodeHuffmanInto(in, n, out);
    case EncodingType::kFastPFor:
      return intcodec::DecodeFastPForInto(in, n, out);
    case EncodingType::kFastBP128:
      return intcodec::DecodeFastBP128Into(in, n, out);
    case EncodingType::kBitShuffle:
      return intcodec::DecodeBitShuffleInto(in, n, out);
    case EncodingType::kChunked:
      return intcodec::DecodeChunkedInto(in, n, out);
    case EncodingType::kSentinel: {
      std::vector<int64_t> tmp;
      BULLION_RETURN_NOT_OK(intcodec::DecodeSentinel(in, n, &tmp, nullptr));
      std::copy(tmp.begin(), tmp.end(), out);
      return Status::OK();
    }
    case EncodingType::kNullable: {
      std::vector<int64_t> tmp;
      BULLION_RETURN_NOT_OK(
          intcodec::DecodeNullable(in, n, /*null_fill=*/0, &tmp, nullptr));
      std::copy(tmp.begin(), tmp.end(), out);
      return Status::OK();
    }
    default:
      return Status::Corruption("unexpected encoding in int block: " +
                                std::string(EncodingTypeName(type)));
  }
}

}  // namespace

Status DecodeIntBlock(SliceReader* in, std::vector<int64_t>* out) {
  BULLION_ASSIGN_OR_RETURN(BlockHeader header, ReadBlockHeader(in));
  out->resize(header.count);
  return DecodeIntPayloadInto(header.type, in, header.count, out->data());
}

Status DecodeIntBlockInto(SliceReader* in, std::span<int64_t> out) {
  BULLION_ASSIGN_OR_RETURN(BlockHeader header, ReadBlockHeader(in));
  if (header.count != out.size()) {
    return Status::Corruption("int block count mismatch with destination");
  }
  return DecodeIntPayloadInto(header.type, in, out.size(), out.data());
}

Status EncodeDoubleBlockAs(EncodingType type, std::span<const double> values,
                           CascadeContext* ctx, BufferBuilder* out) {
  WriteBlockHeader(type, values.size(), out);
  switch (type) {
    case EncodingType::kTrivial:
      return floatcodec::EncodeTrivial(values, out);
    case EncodingType::kGorilla:
      return floatcodec::EncodeGorilla(values, out);
    case EncodingType::kChimp:
      return floatcodec::EncodeChimp(values, out);
    case EncodingType::kPseudodecimal:
      return floatcodec::EncodePseudodecimal(values, out);
    case EncodingType::kAlp:
      return floatcodec::EncodeAlp(values, ctx, out);
    case EncodingType::kChunked:
      return floatcodec::EncodeChunked(values, out);
    case EncodingType::kBitShuffle:
      return floatcodec::EncodeBitShuffle(values, out);
    case EncodingType::kBitShuffleSplit:
      return floatcodec::EncodeBitShuffleSplit(values, out);
    default:
      return Status::InvalidArgument(
          "encoding not available in double domain: " +
          std::string(EncodingTypeName(type)));
  }
}

Status DecodeDoubleBlock(SliceReader* in, std::vector<double>* out) {
  BULLION_ASSIGN_OR_RETURN(BlockHeader header, ReadBlockHeader(in));
  size_t n = header.count;
  switch (header.type) {
    case EncodingType::kTrivial:
      return floatcodec::DecodeTrivial(in, n, out);
    case EncodingType::kGorilla:
      return floatcodec::DecodeGorilla(in, n, out);
    case EncodingType::kChimp:
      return floatcodec::DecodeChimp(in, n, out);
    case EncodingType::kPseudodecimal:
      return floatcodec::DecodePseudodecimal(in, n, out);
    case EncodingType::kAlp:
      return floatcodec::DecodeAlp(in, n, out);
    case EncodingType::kChunked:
      return floatcodec::DecodeChunked(in, n, out);
    case EncodingType::kBitShuffle:
      return floatcodec::DecodeBitShuffle(in, n, out);
    case EncodingType::kBitShuffleSplit:
      return floatcodec::DecodeBitShuffleSplit(in, n, out);
    default:
      return Status::Corruption("unexpected encoding in double block: " +
                                std::string(EncodingTypeName(header.type)));
  }
}

Status EncodeStringBlockAs(EncodingType type,
                           std::span<const std::string> values,
                           CascadeContext* ctx, BufferBuilder* out) {
  WriteBlockHeader(type, values.size(), out);
  switch (type) {
    case EncodingType::kStringTrivial:
      return stringcodec::EncodeTrivial(values, ctx, out);
    case EncodingType::kStringDict:
      return stringcodec::EncodeDict(values, ctx, out);
    case EncodingType::kFsst:
      return stringcodec::EncodeFsst(values, ctx, out);
    case EncodingType::kChunked:
      return stringcodec::EncodeChunked(values, ctx, out);
    default:
      return Status::InvalidArgument(
          "encoding not available in string domain: " +
          std::string(EncodingTypeName(type)));
  }
}

Status DecodeStringBlock(SliceReader* in, std::vector<std::string>* out) {
  BULLION_ASSIGN_OR_RETURN(BlockHeader header, ReadBlockHeader(in));
  size_t n = header.count;
  switch (header.type) {
    case EncodingType::kStringTrivial:
      return stringcodec::DecodeTrivial(in, n, out);
    case EncodingType::kStringDict:
      return stringcodec::DecodeDict(in, n, out);
    case EncodingType::kFsst:
      return stringcodec::DecodeFsst(in, n, out);
    case EncodingType::kChunked:
      return stringcodec::DecodeChunked(in, n, out);
    default:
      return Status::Corruption("unexpected encoding in string block: " +
                                std::string(EncodingTypeName(header.type)));
  }
}

Status EncodeBoolBlockAs(EncodingType type, std::span<const uint8_t> values,
                         CascadeContext* ctx, BufferBuilder* out) {
  WriteBlockHeader(type, values.size(), out);
  switch (type) {
    case EncodingType::kTrivial:
      return boolcodec::EncodeTrivial(values, out);
    case EncodingType::kSparseBool:
      return boolcodec::EncodeSparse(values, out);
    case EncodingType::kBoolRle:
      return boolcodec::EncodeRle(values, ctx, out);
    case EncodingType::kRoaring:
      return boolcodec::EncodeRoaring(values, out);
    default:
      return Status::InvalidArgument(
          "encoding not available in bool domain: " +
          std::string(EncodingTypeName(type)));
  }
}

Status DecodeBoolBlock(SliceReader* in, std::vector<uint8_t>* out) {
  BULLION_ASSIGN_OR_RETURN(BlockHeader header, ReadBlockHeader(in));
  size_t n = header.count;
  switch (header.type) {
    case EncodingType::kTrivial:
      return boolcodec::DecodeTrivial(in, n, out);
    case EncodingType::kSparseBool:
      return boolcodec::DecodeSparse(in, n, out);
    case EncodingType::kBoolRle:
      return boolcodec::DecodeRle(in, n, out);
    case EncodingType::kRoaring:
      return boolcodec::DecodeRoaring(in, n, out);
    default:
      return Status::Corruption("unexpected encoding in bool block: " +
                                std::string(EncodingTypeName(header.type)));
  }
}

// ---------------------------------------------------------------------------
// Candidate generation, gated on full-data stats so a sampled winner can
// never fail on the full column.
// ---------------------------------------------------------------------------

namespace {

std::vector<EncodingType> IntCandidates(const IntStats& s,
                                        const CascadeOptions& opts) {
  std::vector<EncodingType> c;
  if (s.count == 0) return {EncodingType::kTrivial};
  if (s.distinct == 1) {
    c.push_back(EncodingType::kConstant);
  }
  if (!s.DistinctCapped() && s.distinct > 1 &&
      s.top_frequency * 10 >= s.count * 6) {
    c.push_back(EncodingType::kMainlyConstant);
  }
  if (s.run_count * 2 <= s.count) c.push_back(EncodingType::kRle);
  if (!s.DistinctCapped() && s.distinct * 2 <= s.count && s.distinct > 1) {
    c.push_back(EncodingType::kDictionary);
  }
  if (!s.DistinctCapped() && s.distinct <= intcodec::kMaxHuffmanAlphabet) {
    c.push_back(EncodingType::kHuffman);
  }
  if (s.non_negative) {
    c.push_back(EncodingType::kFixedBitWidth);
    c.push_back(EncodingType::kVarint);
  } else {
    c.push_back(EncodingType::kZigZag);
  }
  c.push_back(EncodingType::kForDelta);
  c.push_back(EncodingType::kFastBP128);
  c.push_back(EncodingType::kFastPFor);
  if (s.count >= 2 &&
      (s.sorted_non_decreasing ||
       s.mean_abs_delta * 16 <
           static_cast<double>(s.max) - static_cast<double>(s.min) ||
       s.range_bit_width > 32)) {
    c.push_back(EncodingType::kDelta);
  }
  c.push_back(EncodingType::kBitShuffle);
  c.push_back(EncodingType::kChunked);
  c.push_back(EncodingType::kTrivial);

  std::vector<EncodingType> filtered;
  for (EncodingType t : c) {
    if (opts.IsAllowed(t)) filtered.push_back(t);
  }
  if (filtered.empty()) filtered.push_back(EncodingType::kTrivial);
  return filtered;
}

std::vector<EncodingType> DoubleCandidates(const FloatStats& s,
                                           const CascadeOptions& opts) {
  std::vector<EncodingType> c;
  c.push_back(EncodingType::kGorilla);
  c.push_back(EncodingType::kChimp);
  if (s.decimal_fraction >= 0.9) c.push_back(EncodingType::kAlp);
  if (s.decimal_fraction >= 0.5) c.push_back(EncodingType::kPseudodecimal);
  c.push_back(EncodingType::kBitShuffleSplit);
  c.push_back(EncodingType::kChunked);
  c.push_back(EncodingType::kTrivial);
  std::vector<EncodingType> filtered;
  for (EncodingType t : c) {
    if (opts.IsAllowed(t)) filtered.push_back(t);
  }
  if (filtered.empty()) filtered.push_back(EncodingType::kTrivial);
  return filtered;
}

std::vector<EncodingType> StringCandidates(const StringStats& s,
                                           const CascadeOptions& opts) {
  std::vector<EncodingType> c;
  if (!s.DistinctCapped() && s.distinct * 2 <= s.count && s.count > 0) {
    c.push_back(EncodingType::kStringDict);
  }
  if (s.avg_length >= 4.0) c.push_back(EncodingType::kFsst);
  c.push_back(EncodingType::kChunked);
  c.push_back(EncodingType::kStringTrivial);
  std::vector<EncodingType> filtered;
  for (EncodingType t : c) {
    if (opts.IsAllowed(t)) filtered.push_back(t);
  }
  if (filtered.empty()) filtered.push_back(EncodingType::kStringTrivial);
  return filtered;
}

std::vector<EncodingType> BoolCandidates(const BoolStats& s,
                                         const CascadeOptions& opts) {
  std::vector<EncodingType> c;
  if (s.density() <= 0.2) c.push_back(EncodingType::kSparseBool);
  if (s.run_count * 4 <= s.count) c.push_back(EncodingType::kBoolRle);
  c.push_back(EncodingType::kRoaring);
  c.push_back(EncodingType::kTrivial);
  std::vector<EncodingType> filtered;
  for (EncodingType t : c) {
    if (opts.IsAllowed(t)) filtered.push_back(t);
  }
  if (filtered.empty()) filtered.push_back(EncodingType::kTrivial);
  return filtered;
}

/// Trial-encodes candidates on the sample and returns the argmin-cost
/// encoding. `encode_fn(type, sample, &builder)` must write a block.
template <typename T, typename EncodeFn>
Result<SelectionDecision> SelectBest(std::span<const T> full,
                                     const std::vector<EncodingType>& cands,
                                     const CascadeOptions& opts,
                                     EncodeFn&& encode_fn) {
  std::vector<T> sample_storage = SampleChunks(full, kSampleValues);
  std::span<const T> sample(sample_storage);
  double scale = sample.empty()
                     ? 1.0
                     : static_cast<double>(full.size()) /
                           static_cast<double>(sample.size());

  SelectionDecision best{EncodingType::kTrivial,
                         std::numeric_limits<double>::infinity(), 0};
  bool found = false;
  for (EncodingType t : cands) {
    BufferBuilder trial;
    Status st = encode_fn(t, sample, &trial);
    if (!st.ok()) continue;  // candidate ineligible on this data
    size_t est = static_cast<size_t>(static_cast<double>(trial.size()) * scale);
    double cost = ScoreCost(opts, t, est, full.size());
    if (cost < best.cost) {
      best = SelectionDecision{t, cost, trial.size()};
      found = true;
    }
  }
  if (!found) {
    return Status::Unknown("no eligible encoding candidate");
  }
  return best;
}

}  // namespace

// ---------------------------------------------------------------------------
// CascadeContext children.
// ---------------------------------------------------------------------------

Status CascadeContext::EncodeIntChild(std::span<const int64_t> values,
                                      BufferBuilder* out) {
  if (AtDepthLimit()) {
    // Cheap fallback at the recursion floor. When the caller pinned a
    // single allowed encoding (deletable pages need deterministic,
    // deletion-monotone children), honor it; otherwise FOR-delta, which
    // is always applicable and never expands much.
    EncodingType leaf_type = options_.allowed.size() == 1
                                 ? options_.allowed[0]
                                 : EncodingType::kForDelta;
    CascadeContext leaf(options_, depth_ + 1);
    return EncodeIntBlockAs(leaf_type, values, &leaf, out);
  }
  CascadeContext child(options_, depth_ + 1);
  IntStats stats = ComputeIntStats(values);
  std::vector<EncodingType> cands = IntCandidates(stats, options_);
  BULLION_ASSIGN_OR_RETURN(
      SelectionDecision decision,
      SelectBest<int64_t>(values, cands, options_,
                          [&](EncodingType t, std::span<const int64_t> s,
                              BufferBuilder* b) {
                            CascadeContext trial_ctx(options_, depth_ + 1);
                            return EncodeIntBlockAs(t, s, &trial_ctx, b);
                          }));
  return EncodeIntBlockAs(decision.chosen, values, &child, out);
}

Status CascadeContext::EncodeBoolChild(std::span<const uint8_t> values,
                                       BufferBuilder* out) {
  if (AtDepthLimit()) {
    CascadeContext leaf(options_, depth_ + 1);
    return EncodeBoolBlockAs(EncodingType::kTrivial, values, &leaf, out);
  }
  CascadeContext child(options_, depth_ + 1);
  BoolStats stats = ComputeBoolStats(values);
  std::vector<EncodingType> cands = BoolCandidates(stats, options_);
  BULLION_ASSIGN_OR_RETURN(
      SelectionDecision decision,
      SelectBest<uint8_t>(values, cands, options_,
                          [&](EncodingType t, std::span<const uint8_t> s,
                              BufferBuilder* b) {
                            CascadeContext trial_ctx(options_, depth_ + 1);
                            return EncodeBoolBlockAs(t, s, &trial_ctx, b);
                          }));
  return EncodeBoolBlockAs(decision.chosen, values, &child, out);
}

// ---------------------------------------------------------------------------
// Public cascade entry points.
// ---------------------------------------------------------------------------

Result<Buffer> EncodeInt64ColumnWithDecision(std::span<const int64_t> values,
                                             const CascadeOptions& options,
                                             SelectionDecision* decision) {
  CascadeContext ctx(options, 0);
  IntStats stats = ComputeIntStats(values);
  std::vector<EncodingType> cands = IntCandidates(stats, options);
  BULLION_ASSIGN_OR_RETURN(
      SelectionDecision best,
      SelectBest<int64_t>(values, cands, options,
                          [&](EncodingType t, std::span<const int64_t> s,
                              BufferBuilder* b) {
                            CascadeContext trial_ctx(options, 1);
                            return EncodeIntBlockAs(t, s, &trial_ctx, b);
                          }));
  if (decision != nullptr) *decision = best;
  BufferBuilder out;
  CascadeContext child(options, 1);
  BULLION_RETURN_NOT_OK(EncodeIntBlockAs(best.chosen, values, &child, &out));
  return out.Finish();
}

Result<Buffer> EncodeInt64Column(std::span<const int64_t> values,
                                 const CascadeOptions& options) {
  return EncodeInt64ColumnWithDecision(values, options, nullptr);
}

Status DecodeInt64Column(Slice block, std::vector<int64_t>* out) {
  SliceReader reader(block);
  return DecodeIntBlock(&reader, out);
}

Result<Buffer> EncodeDoubleColumn(std::span<const double> values,
                                  const CascadeOptions& options) {
  std::vector<double> sample = SampleChunks(values, kSampleValues);
  FloatStats stats = ComputeFloatStats(sample);
  std::vector<EncodingType> cands = DoubleCandidates(stats, options);
  BULLION_ASSIGN_OR_RETURN(
      SelectionDecision best,
      SelectBest<double>(values, cands, options,
                         [&](EncodingType t, std::span<const double> s,
                             BufferBuilder* b) {
                           CascadeContext trial_ctx(options, 1);
                           return EncodeDoubleBlockAs(t, s, &trial_ctx, b);
                         }));
  BufferBuilder out;
  CascadeContext child(options, 1);
  BULLION_RETURN_NOT_OK(EncodeDoubleBlockAs(best.chosen, values, &child, &out));
  return out.Finish();
}

Status DecodeDoubleColumn(Slice block, std::vector<double>* out) {
  SliceReader reader(block);
  return DecodeDoubleBlock(&reader, out);
}

Result<Buffer> EncodeStringColumn(std::span<const std::string> values,
                                  const CascadeOptions& options) {
  StringStats stats = ComputeStringStats(values);
  std::vector<EncodingType> cands = StringCandidates(stats, options);
  BULLION_ASSIGN_OR_RETURN(
      SelectionDecision best,
      SelectBest<std::string>(values, cands, options,
                              [&](EncodingType t,
                                  std::span<const std::string> s,
                                  BufferBuilder* b) {
                                CascadeContext trial_ctx(options, 1);
                                return EncodeStringBlockAs(t, s, &trial_ctx, b);
                              }));
  BufferBuilder out;
  CascadeContext child(options, 1);
  BULLION_RETURN_NOT_OK(EncodeStringBlockAs(best.chosen, values, &child, &out));
  return out.Finish();
}

Status DecodeStringColumn(Slice block, std::vector<std::string>* out) {
  SliceReader reader(block);
  return DecodeStringBlock(&reader, out);
}

Result<Buffer> EncodeBoolColumn(std::span<const uint8_t> values,
                                const CascadeOptions& options) {
  BoolStats stats = ComputeBoolStats(values);
  std::vector<EncodingType> cands = BoolCandidates(stats, options);
  BULLION_ASSIGN_OR_RETURN(
      SelectionDecision best,
      SelectBest<uint8_t>(values, cands, options,
                          [&](EncodingType t, std::span<const uint8_t> s,
                              BufferBuilder* b) {
                            CascadeContext trial_ctx(options, 1);
                            return EncodeBoolBlockAs(t, s, &trial_ctx, b);
                          }));
  BufferBuilder out;
  CascadeContext child(options, 1);
  BULLION_RETURN_NOT_OK(EncodeBoolBlockAs(best.chosen, values, &child, &out));
  return out.Finish();
}

Status DecodeBoolColumn(Slice block, std::vector<uint8_t>* out) {
  SliceReader reader(block);
  return DecodeBoolBlock(&reader, out);
}

Result<Buffer> EncodeNullableInt64Column(std::span<const int64_t> values,
                                         std::span<const uint8_t> validity,
                                         const CascadeOptions& options) {
  BufferBuilder out;
  WriteBlockHeader(EncodingType::kNullable, values.size(), &out);
  CascadeContext ctx(options, 0);
  BULLION_RETURN_NOT_OK(intcodec::EncodeNullable(values, validity, &ctx, &out));
  return out.Finish();
}

Status DecodeNullableInt64Column(Slice block, int64_t null_fill,
                                 std::vector<int64_t>* values,
                                 std::vector<uint8_t>* validity) {
  SliceReader reader(block);
  BULLION_ASSIGN_OR_RETURN(BlockHeader header, ReadBlockHeader(&reader));
  if (header.type != EncodingType::kNullable) {
    return Status::Corruption("expected nullable block");
  }
  return intcodec::DecodeNullable(&reader, header.count, null_fill, values,
                                  validity);
}

Result<EncodingType> PeekEncodingType(Slice block) {
  SliceReader reader(block);
  BULLION_ASSIGN_OR_RETURN(BlockHeader header, ReadBlockHeader(&reader));
  return header.type;
}

}  // namespace bullion
