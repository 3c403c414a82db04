// In-memory representation of one leaf column's data for a batch of
// rows. Values live in one of three domains (int64, double, binary);
// list nesting is carried by offset arrays, like Arrow's variable-size
// list layout. Pages hold every domain at depth 0 and 1 and int at
// depth 2 (format/page.h); writers refuse any other leaf.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "format/schema.h"
#include "io/predicate.h"

namespace bullion {

/// Value domain a physical type maps to for encoding purposes.
enum class ValueDomain : uint8_t { kInt = 0, kReal = 1, kBinary = 2 };

inline ValueDomain DomainOf(PhysicalType t) {
  switch (t) {
    case PhysicalType::kFloat32:
    case PhysicalType::kFloat64:
      return ValueDomain::kReal;
    case PhysicalType::kBinary:
      return ValueDomain::kBinary;
    default:
      // Narrow ints, bools, and fp16/bf16/fp8 bit patterns ride the int
      // domain.
      return ValueDomain::kInt;
  }
}

/// \brief Columnar data for one leaf over a row batch.
///
/// offsets[level] has (#items at that level + 1) entries, starting at
/// 0, and its last entry is the item count of the level below (the
/// leaf values for the innermost level); level 0 is the row level. For
/// list_depth == 0 there are no offset arrays and one value per row.
///
/// AppendRows is the one row copy: every gather, slice, concatenation
/// and realignment goes through it, so the offset rebasing lives in
/// one place.
class ColumnVector {
 public:
  ColumnVector() = default;
  ColumnVector(PhysicalType physical, int list_depth)
      : physical_(physical), list_depth_(list_depth) {
    offsets_.resize(static_cast<size_t>(list_depth));
    for (auto& level : offsets_) level.push_back(0);
  }

  static ColumnVector ForLeaf(const LeafColumn& leaf) {
    return ColumnVector(leaf.physical, leaf.list_depth);
  }

  PhysicalType physical() const { return physical_; }
  int list_depth() const { return list_depth_; }
  ValueDomain domain() const { return DomainOf(physical_); }

  /// Number of rows in the batch.
  size_t num_rows() const {
    if (list_depth_ == 0) return LeafCount();
    return offsets_[0].size() - 1;
  }

  /// Number of leaf values.
  size_t LeafCount() const {
    switch (domain()) {
      case ValueDomain::kInt:
        return int_values_.size();
      case ValueDomain::kReal:
        return real_values_.size();
      case ValueDomain::kBinary:
        return bin_values_.size();
    }
    return 0;
  }

  // -- Appending (writer side) ---------------------------------------------

  /// Appends a scalar row (list_depth must be 0). Like every append,
  /// extends a materialized validity bitmap with a 1 (valid).
  void AppendInt(int64_t v) {
    int_values_.push_back(v);
    MarkRowValid();
  }
  void AppendReal(double v) {
    real_values_.push_back(v);
    MarkRowValid();
  }
  void AppendBinary(std::string v) {
    bin_values_.push_back(std::move(v));
    MarkRowValid();
  }

  /// Appends a list<int> row (list_depth must be 1).
  void AppendIntList(const std::vector<int64_t>& v) {
    int_values_.insert(int_values_.end(), v.begin(), v.end());
    offsets_[0].push_back(static_cast<int64_t>(int_values_.size()));
    MarkRowValid();
  }
  void AppendRealList(const std::vector<double>& v) {
    real_values_.insert(real_values_.end(), v.begin(), v.end());
    offsets_[0].push_back(static_cast<int64_t>(real_values_.size()));
    MarkRowValid();
  }
  void AppendBinaryList(const std::vector<std::string>& v) {
    bin_values_.insert(bin_values_.end(), v.begin(), v.end());
    offsets_[0].push_back(static_cast<int64_t>(bin_values_.size()));
    MarkRowValid();
  }

  /// Appends a list<list<int>> row (list_depth must be 2).
  void AppendIntListList(const std::vector<std::vector<int64_t>>& v) {
    for (const auto& inner : v) {
      int_values_.insert(int_values_.end(), inner.begin(), inner.end());
      offsets_[1].push_back(static_cast<int64_t>(int_values_.size()));
    }
    offsets_[0].push_back(static_cast<int64_t>(offsets_[1].size() - 1));
    MarkRowValid();
  }

  /// Appends one zero/empty row: 0, 0.0, "" or an empty list. A null
  /// row also gets a 0 bit in the validity bitmap, which materializes
  /// on the first null, so dense (never-null) vectors pay no storage.
  /// Null rows are schema-evolution back-fill — a shard written before
  /// a nullable trailing column existed reads that column as all-null
  /// (dataset/evolution.h). Valid zero rows stand in for physically
  /// erased rows when the reader realigns a page (§2.1).
  void AppendPlaceholderRow(bool null);
  void AppendNullRow() { AppendPlaceholderRow(/*null=*/true); }

  // -- Validity (nullable columns) -----------------------------------------

  /// Per-row validity, 1 = present. Empty means every row is valid —
  /// the common dense case stores nothing.
  const std::vector<uint8_t>& validity() const { return validity_; }
  bool has_validity() const { return !validity_.empty(); }
  bool IsNull(size_t row) const {
    return !validity_.empty() && validity_[row] == 0;
  }
  size_t null_count() const {
    size_t n = 0;
    for (uint8_t v : validity_) n += v == 0;
    return n;
  }

  // -- Access (reader side) ------------------------------------------------

  const std::vector<int64_t>& int_values() const { return int_values_; }
  const std::vector<double>& real_values() const { return real_values_; }
  const std::vector<std::string>& bin_values() const { return bin_values_; }
  std::vector<int64_t>& mutable_int_values() { return int_values_; }
  std::vector<double>& mutable_real_values() { return real_values_; }
  std::vector<std::string>& mutable_bin_values() { return bin_values_; }

  const std::vector<std::vector<int64_t>>& offsets() const { return offsets_; }
  std::vector<std::vector<int64_t>>& mutable_offsets() { return offsets_; }

  /// The [begin,end) leaf range of row `row` at list_depth 1.
  std::pair<int64_t, int64_t> ListRange(size_t row) const {
    return {offsets_[0][row], offsets_[0][row + 1]};
  }

  /// Row `row` as a vector<int64> (list_depth 1, int domain).
  std::vector<int64_t> IntListAt(size_t row) const {
    auto [b, e] = ListRange(row);
    return std::vector<int64_t>(int_values_.begin() + b,
                                int_values_.begin() + e);
  }
  std::vector<double> RealListAt(size_t row) const {
    auto [b, e] = ListRange(row);
    return std::vector<double>(real_values_.begin() + b,
                               real_values_.begin() + e);
  }

  /// Gathers rows so out[i] = in[perm[i]]. perm may be any row-index
  /// sequence (a permutation for quality-aware reordering §2.5, or a
  /// subset for survivor selection in delete-by-rewrite); each run of
  /// consecutive indices is one AppendRows. An index past the last row
  /// returns InvalidArgument.
  Result<ColumnVector> Permute(const std::vector<uint32_t>& perm) const;

  /// Appends rows [begin, end) of `src`, another vector of this one's
  /// physical type and list depth, with begin <= end <= src.num_rows().
  /// Values, validity and every level's offsets are copied in bulk:
  /// the list levels are walked outside-in, each level's row or item
  /// range selecting the next level's, and each copied offset is
  /// rebased onto this vector's item count. Works for any domain at
  /// any depth; values `src` holds past its last offset are not copied.
  void AppendRows(const ColumnVector& src, size_t begin, size_t end);

  /// Appends every row of `src`: AppendRows over its whole range.
  void AppendAllFrom(const ColumnVector& src) {
    AppendRows(src, 0, src.num_rows());
  }

  bool operator==(const ColumnVector& o) const {
    return physical_ == o.physical_ && list_depth_ == o.list_depth_ &&
           offsets_ == o.offsets_ && int_values_ == o.int_values_ &&
           real_values_ == o.real_values_ && bin_values_ == o.bin_values_ &&
           SameValidity(o);
  }

 private:
  /// Row-wise validity equality: an empty bitmap equals an all-ones
  /// one, so a vector that never saw a null compares equal regardless
  /// of whether the bitmap was ever materialized.
  bool SameValidity(const ColumnVector& o) const;
  /// Keeps a materialized bitmap one entry per row after a valid row.
  void MarkRowValid() {
    if (!validity_.empty()) validity_.push_back(1);
  }

  PhysicalType physical_ = PhysicalType::kInt64;
  int list_depth_ = 0;
  std::vector<std::vector<int64_t>> offsets_;
  std::vector<int64_t> int_values_;
  std::vector<double> real_values_;
  std::vector<std::string> bin_values_;
  /// Empty, or one byte per row (1 = valid). Values/offsets of null
  /// rows hold zero/empty placeholders so every consumer that ignores
  /// validity still sees well-formed data.
  std::vector<uint8_t> validity_;
};

/// Permutation that sorts `scores` descending (highest quality first).
std::vector<uint32_t> SortPermutationDescending(
    const std::vector<double>& scores);

// -- Residual predicate evaluation (exec/batch_stream.h) -------------------
//
// Zone maps prune whole extents; these make the surviving rows exact.
// The comparison semantics match ZoneMapMayMatch: int column vs int
// constant compares as int64, anything involving a real promotes to
// double, and a null row never matches any predicate.

/// Writes the per-row match vector of one Filter into `match` (resized
/// to `col.num_rows()`; 1 = row satisfies the filter, null rows never
/// match). This is the OR-able primitive: clause evaluation unions
/// several of these before ANDing into the selection mask. Supports
/// every CompareOp including kIn; numeric columns are the zone-map set
/// (scalar true-integer and float32/64), binary columns accept
/// kEq/kNe/kIn with byte-string constants.
Status FilterMatchMask(const ColumnVector& col, const Filter& filter,
                       std::vector<uint8_t>* match);

/// ANDs `mask` with the disjunction of `clause.any_of` evaluated per
/// row: `cols[i]` carries the data of `clause.any_of[i]`'s column (the
/// caller resolves names to fetched vectors; entries may repeat when
/// terms share a column). All vectors must have `mask->size()` rows.
Status UpdateClauseMask(const std::vector<const ColumnVector*>& cols,
                        const FilterClause& clause,
                        std::vector<uint8_t>* mask);

/// Row indices whose mask byte is 1, in row order — feed to
/// ColumnVector::Permute to materialize the surviving rows.
std::vector<uint32_t> SelectionFromMask(const std::vector<uint8_t>& mask);

}  // namespace bullion
