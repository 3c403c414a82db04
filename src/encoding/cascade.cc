// Cascade selection, block dispatch, and the public encoding API.

#include "encoding/cascade.h"

#include <algorithm>
#include <limits>

#include "common/bit_util.h"
#include "encoding/bool_codecs.h"
#include "encoding/deflate_util.h"
#include "encoding/float_codecs.h"
#include "encoding/int_codecs.h"
#include "encoding/stats.h"
#include "encoding/string_codecs.h"

namespace bullion {

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
      return intcodec::EncodeDictionary(values, ctx, out);
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

/// Whether the payload left in `in` can hold `n` values of `type`: false
/// for a tag no int decoder reads, and for an encoding that needs a
/// fixed share of bytes per value when the payload is too short.
/// Checked before DecodeIntBlock sizes its output from a header count;
/// each decoder still checks the exact bytes it reads.
bool IntPayloadCanHold(EncodingType type, const SliceReader& in, size_t n) {
  const size_t avail = in.remaining();
  switch (type) {
    case EncodingType::kTrivial:
      return n <= avail / sizeof(int64_t);
    case EncodingType::kVarint:
    case EncodingType::kZigZag:
      return n <= avail;  // one byte per value at least
    case EncodingType::kFixedBitWidth: {
      if (avail < 1) return false;
      SliceReader width_reader = in;
      size_t width = width_reader.Read<uint8_t>();
      return width <= 64 && bit_util::RoundUpToBytes(n * width) <= avail - 1;
    }
    case EncodingType::kFastBP128:
    case EncodingType::kFastPFor:
      // A base varint and a width byte per 128-value miniblock.
      return (n + 127) / 128 * 2 <= avail;
    case EncodingType::kChunked:
    case EncodingType::kBitShuffle:
      return n * sizeof(int64_t) <= deflate_util::kMaxInflateRatio * avail;
    case EncodingType::kForDelta:
    case EncodingType::kDelta:
    case EncodingType::kConstant:
    case EncodingType::kMainlyConstant:
    case EncodingType::kRle:
    case EncodingType::kDictionary:
    case EncodingType::kHuffman:
    case EncodingType::kSentinel:
    case EncodingType::kNullable:
      return true;  // a few bytes can hold any count
    default:
      return false;
  }
}

}  // namespace

Status DecodeIntBlock(SliceReader* in, std::vector<int64_t>* out) {
  BULLION_ASSIGN_OR_RETURN(BlockHeader header, ReadBlockHeader(in));
  if (!IntPayloadCanHold(header.type, *in, header.count)) {
    return Status::Corruption("int block payload cannot hold its count: " +
                              std::string(EncodingTypeName(header.type)));
  }
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
// Selection: candidates, then one trial loop per block.
// ---------------------------------------------------------------------------

namespace {

/// Inputs larger than this are trial-encoded on a sample of this size.
constexpr size_t kSampleValues = 8192;

/// The values the selector trial-encodes: the input itself when it fits
/// in kSampleValues, else 8 evenly spaced contiguous chunks copied into
/// `storage`, which keep the local run and delta structure the selector
/// must see.
template <typename T>
std::span<const T> Sample(std::span<const T> values, std::vector<T>* storage) {
  if (values.size() <= kSampleValues) return values;
  constexpr size_t kChunks = 8;
  constexpr size_t kChunk = kSampleValues / kChunks;
  storage->reserve(kSampleValues);
  for (size_t c = 0; c < kChunks; ++c) {
    auto first = values.begin() + (values.size() - kChunk) * c / (kChunks - 1);
    storage->insert(storage->end(), first, first + kChunk);
  }
  return *storage;
}

double ScoreCost(const CascadeOptions& opts, EncodingType t, size_t est_bytes,
                 size_t count) {
  EncodingCost c = GetEncodingCost(t);
  return opts.w_size * static_cast<double>(est_bytes) +
         opts.w_decode * c.decode * static_cast<double>(count);
}

/// Keeps the candidates `opts` allows, in order, or `fallback` alone
/// when it allows none of them.
std::vector<EncodingType> KeepAllowed(std::vector<EncodingType> c,
                                      const CascadeOptions& opts,
                                      EncodingType fallback) {
  std::erase_if(c, [&](EncodingType t) { return !opts.IsAllowed(t); });
  if (c.empty()) c.push_back(fallback);
  return c;
}

// Candidate builders, one per domain. Int, string and bool candidates
// are gated on full-input stats, so a winner picked on a sample can
// never fail on the full input; double candidates come from the sample.

std::vector<EncodingType> Candidates(std::span<const int64_t> values,
                                     std::span<const int64_t> /*sample*/,
                                     const CascadeOptions& opts) {
  IntStats s = ComputeIntStats(values);
  if (s.count == 0) return {EncodingType::kTrivial};
  std::vector<EncodingType> c;
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
  return KeepAllowed(std::move(c), opts, EncodingType::kTrivial);
}

std::vector<EncodingType> Candidates(std::span<const double> /*values*/,
                                     std::span<const double> sample,
                                     const CascadeOptions& opts) {
  FloatStats s = ComputeFloatStats(sample);
  std::vector<EncodingType> c;
  c.push_back(EncodingType::kGorilla);
  c.push_back(EncodingType::kChimp);
  if (s.decimal_fraction >= 0.9) c.push_back(EncodingType::kAlp);
  if (s.decimal_fraction >= 0.5) c.push_back(EncodingType::kPseudodecimal);
  c.push_back(EncodingType::kBitShuffleSplit);
  c.push_back(EncodingType::kChunked);
  c.push_back(EncodingType::kTrivial);
  return KeepAllowed(std::move(c), opts, EncodingType::kTrivial);
}

std::vector<EncodingType> Candidates(std::span<const std::string> values,
                                     std::span<const std::string> /*sample*/,
                                     const CascadeOptions& opts) {
  StringStats s = ComputeStringStats(values);
  std::vector<EncodingType> c;
  if (!s.DistinctCapped() && s.distinct * 2 <= s.count && s.count > 0) {
    c.push_back(EncodingType::kStringDict);
  }
  if (s.avg_length >= 4.0) c.push_back(EncodingType::kFsst);
  c.push_back(EncodingType::kChunked);
  c.push_back(EncodingType::kStringTrivial);
  return KeepAllowed(std::move(c), opts, EncodingType::kStringTrivial);
}

std::vector<EncodingType> Candidates(std::span<const uint8_t> values,
                                     std::span<const uint8_t> /*sample*/,
                                     const CascadeOptions& opts) {
  BoolStats s = ComputeBoolStats(values);
  std::vector<EncodingType> c;
  if (s.density() <= 0.2) c.push_back(EncodingType::kSparseBool);
  if (s.run_count * 4 <= s.count) c.push_back(EncodingType::kBoolRle);
  c.push_back(EncodingType::kRoaring);
  c.push_back(EncodingType::kTrivial);
  return KeepAllowed(std::move(c), opts, EncodingType::kTrivial);
}

/// The cascade selector. It trial-encodes each candidate on the input,
/// or on its sample when the input is larger, scores the trials, and
/// returns the cheapest one as the block (strict `<`: the first of
/// equal-cost candidates wins). Only a winner whose trial ran on a
/// sample is encoded again, on the full input. Trials encode their
/// child streams at `child_depth`. `encode_as` is the domain's
/// Encode*BlockAs.
template <typename T>
Result<Buffer> SelectBlock(std::span<const T> values,
                           const CascadeOptions& opts, int child_depth,
                           Status (*encode_as)(EncodingType,
                                               std::span<const T>,
                                               CascadeContext*, BufferBuilder*),
                           EncodingType* chosen) {
  std::vector<T> sample_storage;
  std::span<const T> sample = Sample(values, &sample_storage);
  double scale = sample.empty() ? 1.0
                                : static_cast<double>(values.size()) /
                                      static_cast<double>(sample.size());

  BufferBuilder best;
  EncodingType best_type = EncodingType::kTrivial;
  double best_cost = std::numeric_limits<double>::infinity();
  bool found = false;
  for (EncodingType t : Candidates(values, sample, opts)) {
    BufferBuilder trial;
    CascadeContext trial_ctx(opts, child_depth);
    // A failed trial means the candidate is ineligible on this data.
    if (!encode_as(t, sample, &trial_ctx, &trial).ok()) continue;
    size_t est = static_cast<size_t>(static_cast<double>(trial.size()) * scale);
    double cost = ScoreCost(opts, t, est, values.size());
    if (cost < best_cost) {
      best = std::move(trial);
      best_type = t;
      best_cost = cost;
      found = true;
    }
  }
  if (!found) return Status::Unknown("no eligible encoding candidate");
  if (sample.size() < values.size()) {
    best = BufferBuilder();
    CascadeContext ctx(opts, child_depth);
    BULLION_RETURN_NOT_OK(encode_as(best_type, values, &ctx, &best));
  }
  if (chosen != nullptr) *chosen = best_type;
  return best.Finish();
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
  BULLION_ASSIGN_OR_RETURN(
      Buffer block,
      SelectBlock(values, options_, depth_ + 1, &EncodeIntBlockAs, nullptr));
  out->AppendSlice(block.AsSlice());
  return Status::OK();
}

Status CascadeContext::EncodeBoolChild(std::span<const uint8_t> values,
                                       BufferBuilder* out) {
  if (AtDepthLimit()) {
    CascadeContext leaf(options_, depth_ + 1);
    return EncodeBoolBlockAs(EncodingType::kTrivial, values, &leaf, out);
  }
  BULLION_ASSIGN_OR_RETURN(
      Buffer block,
      SelectBlock(values, options_, depth_ + 1, &EncodeBoolBlockAs, nullptr));
  out->AppendSlice(block.AsSlice());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Public cascade entry points.
// ---------------------------------------------------------------------------

Result<Buffer> EncodeInt64Column(std::span<const int64_t> values,
                                 const CascadeOptions& options,
                                 EncodingType* chosen) {
  return SelectBlock(values, options, 1, &EncodeIntBlockAs, chosen);
}

Status DecodeInt64Column(Slice block, std::vector<int64_t>* out) {
  SliceReader reader(block);
  return DecodeIntBlock(&reader, out);
}

Result<Buffer> EncodeDoubleColumn(std::span<const double> values,
                                  const CascadeOptions& options,
                                  EncodingType* chosen) {
  return SelectBlock(values, options, 1, &EncodeDoubleBlockAs, chosen);
}

Status DecodeDoubleColumn(Slice block, std::vector<double>* out) {
  SliceReader reader(block);
  return DecodeDoubleBlock(&reader, out);
}

Result<Buffer> EncodeStringColumn(std::span<const std::string> values,
                                  const CascadeOptions& options,
                                  EncodingType* chosen) {
  return SelectBlock(values, options, 1, &EncodeStringBlockAs, chosen);
}

Status DecodeStringColumn(Slice block, std::vector<std::string>* out) {
  SliceReader reader(block);
  return DecodeStringBlock(&reader, out);
}

Result<Buffer> EncodeBoolColumn(std::span<const uint8_t> values,
                                const CascadeOptions& options,
                                EncodingType* chosen) {
  return SelectBlock(values, options, 1, &EncodeBoolBlockAs, chosen);
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

}  // namespace bullion
