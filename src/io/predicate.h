// Scan predicates and zone maps: the pure policy half of predicate
// pushdown.
//
// A Filter is one `column <op> value` comparison (or a single-column
// `column IN (v1, v2, ...)` disjunction via CompareOp::kIn); a
// FilterClause ORs several Filters across columns; a scan's clause
// list is an implicit AND of those ORs (conjunctive normal form). A
// ZoneMap is the min/max summary of one column over some extent (a
// page, or a column chunk merged from its pages), and ZoneMapMayMatch
// answers the only question pruning needs: "could ANY value inside
// this extent satisfy the predicate?" A `false` answer is a proof —
// the extent is skipped before any pread is issued; a `true` answer
// means fetch + decode and let the residual row-level evaluation
// (format/column_vector.h) make the result exact. A clause prunes an
// extent only when EVERY term of the disjunction prunes it.
//
// Binary columns carry prefix zone maps: the first 8 bytes of each
// value packed big-endian into a u64 (PackPrefix), which is monotone
// (non-strict) with respect to lexicographic order — so string keys
// prune through the same integer comparisons as ints, at the cost of
// never pruning on a shared 8-byte prefix.
//
// Like io/read_planner.h, nothing here touches a file or a footer:
// the format layer extracts ZoneMaps from footer statistics, the exec
// and dataset layers decide what to prune, and this header stays a
// dependency-free leaf that is testable with plain values.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.h"

namespace bullion {

/// Does this physical type have the natural value order predicates and
/// zone maps rely on? True integers (the int domain minus fp16/bf16/
/// fp8 bit patterns) and float32/float64. The single source of truth
/// for the writer's stats computation, the planner's filter
/// validation, and the residual mask evaluator — they must agree or
/// pruning desynchronizes from evaluation.
inline bool HasPredicateOrder(PhysicalType t) {
  switch (t) {
    case PhysicalType::kInt8:
    case PhysicalType::kInt16:
    case PhysicalType::kInt32:
    case PhysicalType::kInt64:
    case PhysicalType::kBool:
    case PhysicalType::kFloat32:
    case PhysicalType::kFloat64:
      return true;
    default:
      return false;
  }
}

/// Comparison operator of a scan predicate.
enum class CompareOp : uint8_t {
  kEq = 0,  // ==
  kNe = 1,  // !=
  kLt = 2,  // <
  kLe = 3,  // <=
  kGt = 4,  // >
  kGe = 5,  // >=
  kIn = 6,  // IN (v1, v2, ...) — matches Filter::values, not ::value
};

/// Packs the first (up to) 8 bytes of `s` big-endian into a u64,
/// zero-padding short strings. Monotone non-strict w.r.t.
/// lexicographic byte order: a <= b implies PackPrefix(a) <=
/// PackPrefix(b) — the property every binary-column pruning rule rests
/// on. Strings sharing an 8-byte prefix collapse to the same value, so
/// comparisons against the packed form can never prove strict order
/// beyond the prefix (the rules in ZoneMapMayMatch account for that).
inline uint64_t PackPrefix(std::string_view s) {
  uint64_t packed = 0;
  const size_t n = s.size() < 8 ? s.size() : 8;
  for (size_t i = 0; i < n; ++i) {
    packed |= static_cast<uint64_t>(static_cast<uint8_t>(s[i]))
              << (8 * (7 - i));
  }
  return packed;
}

/// \brief A typed comparison constant: an int64, a double, or a byte
/// string (for binary columns).
///
/// Comparisons between an int column and a real constant (and vice
/// versa) promote to double, so `Filter("uid", kLt, 3.5)` means what it
/// says. Binary constants only compare against binary columns.
struct FilterValue {
  bool is_real = false;
  bool is_binary = false;
  int64_t i = 0;
  double r = 0.0;
  std::string s;

  FilterValue() = default;
  // Implicit by design: filter literals read as Filter("uid", kLt, 7)
  // and Filter("sku", kEq, "ab-1291").
  FilterValue(int64_t v) : is_real(false), i(v) {}  // NOLINT(google-explicit-constructor)
  FilterValue(int v) : is_real(false), i(v) {}      // NOLINT(google-explicit-constructor)
  FilterValue(double v) : is_real(true), r(v) {}    // NOLINT(google-explicit-constructor)
  FilterValue(std::string v) : is_binary(true), s(std::move(v)) {}  // NOLINT(google-explicit-constructor)
  FilterValue(std::string_view v) : is_binary(true), s(v) {}        // NOLINT(google-explicit-constructor)
  FilterValue(const char* v) : is_binary(true), s(v) {}             // NOLINT(google-explicit-constructor)

  double AsReal() const { return is_real ? r : static_cast<double>(i); }

  bool operator==(const FilterValue& o) const = default;
};

/// \brief One pushed-down predicate: `column <op> value`, or the
/// single-column disjunction `column IN (values...)`.
///
/// `column` names a scalar (non-list) integer, float, or binary leaf;
/// predicates on list or raw-bit-pattern float columns (fp16/bf16/fp8)
/// are rejected at scan build with a clear Status. Binary columns
/// accept only kEq / kNe / kIn — their zone maps are order-summaries,
/// but row-level byte comparisons beyond equality are not implemented.
struct Filter {
  std::string column;
  CompareOp op = CompareOp::kEq;
  FilterValue value;                 // all ops except kIn
  std::vector<FilterValue> values;   // kIn only

  Filter() = default;
  Filter(std::string column, CompareOp op, FilterValue value)
      : column(std::move(column)), op(op), value(std::move(value)) {}
  Filter(std::string column, std::vector<FilterValue> in_values)
      : column(std::move(column)),
        op(CompareOp::kIn),
        values(std::move(in_values)) {}
};

/// \brief A disjunction of Filters, possibly across columns:
/// `a == 1 OR b < 2`. A scan's clause list is an implicit AND of
/// clauses. A one-term clause is an ordinary filter.
struct FilterClause {
  std::vector<Filter> any_of;

  FilterClause() = default;
  explicit FilterClause(std::vector<Filter> terms)
      : any_of(std::move(terms)) {}
  // Implicit by design: APIs taking clauses accept plain Filters.
  FilterClause(Filter f) {  // NOLINT(google-explicit-constructor)
    any_of.push_back(std::move(f));
  }
};

/// \brief Min/max summary of one column over one extent.
///
/// `valid == false` means "unknown" (no statistics recorded — e.g. a
/// footer written before the stats section existed); pruning must then
/// assume the extent may match.
struct ZoneMap {
  bool valid = false;
  bool is_real = false;    // which min/max pair is meaningful
  bool is_binary = false;  // min_b/max_b hold PackPrefix bounds
  int64_t min_i = 0;
  int64_t max_i = 0;
  double min_r = 0.0;
  double max_r = 0.0;
  uint64_t min_b = 0;  // PackPrefix of the smallest value
  uint64_t max_b = 0;  // PackPrefix of the largest value

  static ZoneMap OfInts(int64_t min_v, int64_t max_v) {
    ZoneMap z;
    z.valid = true;
    z.min_i = min_v;
    z.max_i = max_v;
    return z;
  }
  static ZoneMap OfReals(double min_v, double max_v) {
    ZoneMap z;
    z.valid = true;
    z.is_real = true;
    z.min_r = min_v;
    z.max_r = max_v;
    return z;
  }
  /// Bounds are already-packed prefixes (see PackPrefix).
  static ZoneMap OfBinaryPrefixes(uint64_t min_prefix, uint64_t max_prefix) {
    ZoneMap z;
    z.valid = true;
    z.is_binary = true;
    z.min_b = min_prefix;
    z.max_b = max_prefix;
    return z;
  }

  /// Widens this zone map to also cover `o` (aggregation across the
  /// pages of a chunk). Either side being invalid poisons the result: an
  /// extent with an unknown part has an unknown whole.
  void Merge(const ZoneMap& o);

  bool operator==(const ZoneMap& o) const = default;
};

/// Could any value in `zone` satisfy `<op> value`? Conservative: an
/// invalid zone map (or any doubt, including a zone/value domain
/// mismatch) answers true. Never answers false for an extent that
/// contains a matching row — that is the pruning soundness contract
/// the scan tests pin down. kIn is a Filter-level op; passing it here
/// answers true (use the Filter overload).
bool ZoneMapMayMatch(const ZoneMap& zone, CompareOp op,
                     const FilterValue& value);

/// Filter-level overload: handles kIn as a disjunction over
/// Filter::values (may-match iff any member may match; an empty IN
/// list matches nothing and always prunes).
bool ZoneMapMayMatch(const ZoneMap& zone, const Filter& filter);

/// Printable operator ("==", "<", ...) for error messages.
const char* CompareOpName(CompareOp op);

}  // namespace bullion
