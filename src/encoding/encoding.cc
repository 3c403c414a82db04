#include "encoding/encoding.h"

namespace bullion {

std::string_view EncodingTypeName(EncodingType t) {
  switch (t) {
    case EncodingType::kTrivial:
      return "Trivial";
    case EncodingType::kRle:
      return "RLE";
    case EncodingType::kDictionary:
      return "Dictionary";
    case EncodingType::kFixedBitWidth:
      return "FixedBitWidth";
    case EncodingType::kVarint:
      return "Varint";
    case EncodingType::kZigZag:
      return "ZigZag";
    case EncodingType::kDelta:
      return "Delta";
    case EncodingType::kForDelta:
      return "FOR-Delta";
    case EncodingType::kConstant:
      return "Constant";
    case EncodingType::kMainlyConstant:
      return "MainlyConstant";
    case EncodingType::kSentinel:
      return "Sentinel";
    case EncodingType::kNullable:
      return "Nullable";
    case EncodingType::kSparseBool:
      return "SparseBool";
    case EncodingType::kBitShuffle:
      return "BitShuffle";
    case EncodingType::kHuffman:
      return "Huffman";
    case EncodingType::kFastPFor:
      return "FastPFOR";
    case EncodingType::kFastBP128:
      return "FastBP128";
    case EncodingType::kFsst:
      return "FSST";
    case EncodingType::kGorilla:
      return "Gorilla";
    case EncodingType::kChimp:
      return "Chimp";
    case EncodingType::kPseudodecimal:
      return "Pseudodecimal";
    case EncodingType::kAlp:
      return "ALP";
    case EncodingType::kRoaring:
      return "Roaring";
    case EncodingType::kChunked:
      return "Chunked";
    case EncodingType::kStringDict:
      return "StringDict";
    case EncodingType::kStringTrivial:
      return "StringTrivial";
    case EncodingType::kBoolRle:
      return "BoolRLE";
    case EncodingType::kSparseDelta:
      return "SparseDelta";
    case EncodingType::kBitShuffleSplit:
      return "BitShuffleSplit";
    case EncodingType::kNumEncodings:
      break;
  }
  return "Unknown";
}

EncodingCost GetEncodingCost(EncodingType t) {
  // Relative per-value decode factors, Trivial = 1. Static (not measured at
  // runtime) so cascade selection is deterministic across machines.
  switch (t) {
    case EncodingType::kTrivial:
    case EncodingType::kStringTrivial:
      return {1.0};
    case EncodingType::kConstant:
      return {0.5};
    case EncodingType::kFixedBitWidth:
    case EncodingType::kForDelta:
      return {2.0};
    case EncodingType::kFastBP128:
      return {2.0};
    case EncodingType::kFastPFor:
      return {2.5};
    case EncodingType::kVarint:
    case EncodingType::kZigZag:
      return {2.5};
    case EncodingType::kDelta:
      return {3.0};
    case EncodingType::kRle:
    case EncodingType::kBoolRle:
      return {2.0};
    case EncodingType::kDictionary:
    case EncodingType::kStringDict:
      return {2.0};
    case EncodingType::kMainlyConstant:
      return {1.5};
    case EncodingType::kSentinel:
    case EncodingType::kNullable:
      return {2.5};
    case EncodingType::kSparseBool:
      return {1.5};
    case EncodingType::kHuffman:
      return {8.0};
    case EncodingType::kBitShuffle:
      return {8.0};
    case EncodingType::kBitShuffleSplit:
      // BitShuffle's 8.0 times the decode-throughput ratio of
      // bench_encodings' BitShuffle-f64 and BitShuffleSplit-f64 rows
      // (65536 values per block, where the untranspose dominates;
      // embedding pages of 64-512 values decode 3-5x faster).
      return {7.4};
    case EncodingType::kFsst:
      return {4.0};
    case EncodingType::kGorilla:
    case EncodingType::kChimp:
      return {5.0};
    case EncodingType::kPseudodecimal:
      return {4.0};
    case EncodingType::kAlp:
      return {3.0};
    case EncodingType::kRoaring:
      return {2.0};
    case EncodingType::kChunked:
      return {6.0};
    case EncodingType::kSparseDelta:
      return {5.0};
    case EncodingType::kNumEncodings:
      break;
  }
  return {1.0};
}

}  // namespace bullion
