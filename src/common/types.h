// Physical and logical type enums shared across the format, encoding,
// and quantization layers.

#pragma once

#include <cstdint>
#include <string_view>

namespace bullion {

/// Physical storage type of a leaf column.
enum class PhysicalType : uint8_t {
  kInt8 = 0,
  kInt16 = 1,
  kInt32 = 2,
  kInt64 = 3,
  kFloat16 = 4,
  kBFloat16 = 5,
  kFloat32 = 6,
  kFloat64 = 7,
  kBinary = 8,   // variable-length bytes / strings
  kBool = 9,
  kFloat8E4M3 = 10,
  kFloat8E5M2 = 11,
};

/// Logical shape of a column (what the schema user sees). Nested shapes
/// (list, struct) are represented in format/schema.h; this enum covers
/// the leaf interpretation.
enum class LogicalType : uint8_t {
  kPlain = 0,       // the physical type as-is
  kTimestamp = 1,   // int64 micros
  kEmbedding = 2,   // float vector normalized to (-1, 1)
  kIdSequence = 3,  // sparse-feature id list (clk_seq_cids style); §2.2 deltas
  kQualityScore = 4,
};

/// Byte width of a fixed-size physical type; 0 for kBinary.
inline int ByteWidth(PhysicalType t) {
  switch (t) {
    case PhysicalType::kInt8:
    case PhysicalType::kBool:
    case PhysicalType::kFloat8E4M3:
    case PhysicalType::kFloat8E5M2:
      return 1;
    case PhysicalType::kInt16:
    case PhysicalType::kFloat16:
    case PhysicalType::kBFloat16:
      return 2;
    case PhysicalType::kInt32:
    case PhysicalType::kFloat32:
      return 4;
    case PhysicalType::kInt64:
    case PhysicalType::kFloat64:
      return 8;
    case PhysicalType::kBinary:
      return 0;
  }
  return 0;
}

inline std::string_view PhysicalTypeName(PhysicalType t) {
  switch (t) {
    case PhysicalType::kInt8:
      return "int8";
    case PhysicalType::kInt16:
      return "int16";
    case PhysicalType::kInt32:
      return "int32";
    case PhysicalType::kInt64:
      return "int64";
    case PhysicalType::kFloat16:
      return "float16";
    case PhysicalType::kBFloat16:
      return "bfloat16";
    case PhysicalType::kFloat32:
      return "float32";
    case PhysicalType::kFloat64:
      return "float64";
    case PhysicalType::kBinary:
      return "binary";
    case PhysicalType::kBool:
      return "bool";
    case PhysicalType::kFloat8E4M3:
      return "float8_e4m3";
    case PhysicalType::kFloat8E5M2:
      return "float8_e5m2";
  }
  return "unknown";
}

}  // namespace bullion
