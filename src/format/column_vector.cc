#include "format/column_vector.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

namespace bullion {

bool ColumnVector::SameValidity(const ColumnVector& o) const {
  if (validity_.empty() && o.validity_.empty()) return true;
  const size_t n = num_rows();
  if (n != o.num_rows()) return false;
  for (size_t i = 0; i < n; ++i) {
    if (IsNull(i) != o.IsNull(i)) return false;
  }
  return true;
}

void ColumnVector::AppendPlaceholderRow(bool null) {
  const size_t rows_before = num_rows();
  if (list_depth_ > 0) {
    offsets_[0].push_back(offsets_[0].back());  // a row with no items
  } else {
    switch (domain()) {
      case ValueDomain::kInt:
        int_values_.push_back(0);
        break;
      case ValueDomain::kReal:
        real_values_.push_back(0.0);
        break;
      case ValueDomain::kBinary:
        bin_values_.emplace_back();
        break;
    }
  }
  if (null || !validity_.empty()) {
    validity_.resize(rows_before, 1);  // materializes on the first null
    validity_.push_back(null ? 0 : 1);
  }
}

void ColumnVector::AppendRows(const ColumnVector& src, size_t begin,
                              size_t end) {
  const size_t rows_before = num_rows();
  if (!src.validity_.empty()) {
    validity_.resize(rows_before, 1);
    validity_.insert(validity_.end(), src.validity_.begin() + begin,
                     src.validity_.begin() + end);
  } else if (!validity_.empty()) {
    validity_.resize(rows_before + (end - begin), 1);
  }
  // Outside-in: [begin, end) indexes level 0's entries; the items they
  // span are the range copied at the next level, and the innermost
  // level's span is the leaf value range. Each copied offset moves from
  // src's item numbering onto the items this vector already holds.
  for (int level = 0; level < list_depth_; ++level) {
    const std::vector<int64_t>& from = src.offsets_[level];
    std::vector<int64_t>& to = offsets_[level];
    const int64_t shift = to.back() - from[begin];
    const size_t old_size = to.size();
    to.resize(old_size + (end - begin));
    for (size_t i = 0; i < end - begin; ++i) {
      to[old_size + i] = from[begin + 1 + i] + shift;
    }
    begin = static_cast<size_t>(from[begin]);
    end = static_cast<size_t>(from[end]);
  }
  switch (domain()) {
    case ValueDomain::kInt:
      int_values_.insert(int_values_.end(), src.int_values_.begin() + begin,
                         src.int_values_.begin() + end);
      break;
    case ValueDomain::kReal:
      real_values_.insert(real_values_.end(),
                          src.real_values_.begin() + begin,
                          src.real_values_.begin() + end);
      break;
    case ValueDomain::kBinary:
      bin_values_.insert(bin_values_.end(), src.bin_values_.begin() + begin,
                         src.bin_values_.begin() + end);
      break;
  }
}

Result<ColumnVector> ColumnVector::Permute(
    const std::vector<uint32_t>& perm) const {
  ColumnVector out(physical_, list_depth_);
  const size_t rows = num_rows();
  for (size_t i = 0; i < perm.size();) {
    if (perm[i] >= rows) {
      return Status::InvalidArgument("gather index out of range");
    }
    size_t j = i + 1;
    while (j < perm.size() && perm[j] < rows &&
           perm[j] == static_cast<size_t>(perm[j - 1]) + 1) {
      ++j;
    }
    out.AppendRows(*this, perm[i], perm[i] + (j - i));
    i = j;
  }
  return out;
}

namespace {

template <typename T>
bool CompareRow(T a, CompareOp op, T b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
    case CompareOp::kIn:
      break;  // handled by the set paths below, never row-by-row
  }
  return false;
}

/// Match vector of `col IN (values)` on a numeric column. Two probe
/// sets mirror the single-compare promotion rules: an int row matches
/// an int member as int64 and a real member as double.
Status InMatchNumeric(const ColumnVector& col,
                      const std::vector<FilterValue>& values,
                      std::vector<uint8_t>* match) {
  std::unordered_set<int64_t> int_set;
  std::unordered_set<double> real_set;
  for (const FilterValue& v : values) {
    if (v.is_binary) {
      return Status::InvalidArgument(
          "IN list mixes a byte-string member with a numeric column");
    }
    if (v.is_real) {
      real_set.insert(v.r);
    } else {
      int_set.insert(v.i);
      real_set.insert(static_cast<double>(v.i));
    }
  }
  const bool col_is_int = col.domain() == ValueDomain::kInt;
  const size_t n = match->size();
  for (size_t r = 0; r < n; ++r) {
    if (col.IsNull(r)) continue;
    bool hit;
    if (col_is_int) {
      const int64_t x = col.int_values()[r];
      hit = int_set.count(x) != 0 ||
            (!real_set.empty() &&
             real_set.count(static_cast<double>(x)) != 0);
    } else {
      hit = real_set.count(col.real_values()[r]) != 0;
    }
    if (hit) (*match)[r] = 1;
  }
  return Status::OK();
}

/// Match vector of one filter on a binary column (kEq / kNe / kIn over
/// byte strings; ordering ops are not implemented row-level, matching
/// the planner's rejection).
Status BinaryMatch(const ColumnVector& col, const Filter& filter,
                   std::vector<uint8_t>* match) {
  const std::vector<std::string>& v = col.bin_values();
  const size_t n = match->size();
  if (filter.op == CompareOp::kIn) {
    std::unordered_set<std::string_view> set;
    for (const FilterValue& m : filter.values) {
      if (!m.is_binary) {
        return Status::InvalidArgument(
            "IN list mixes a numeric member with a binary column");
      }
      set.insert(m.s);
    }
    for (size_t r = 0; r < n; ++r) {
      if (!col.IsNull(r) && set.count(v[r]) != 0) (*match)[r] = 1;
    }
    return Status::OK();
  }
  if (filter.op != CompareOp::kEq && filter.op != CompareOp::kNe) {
    return Status::InvalidArgument(
        "binary columns support only ==, !=, and IN predicates");
  }
  if (!filter.value.is_binary) {
    return Status::InvalidArgument(
        "numeric constant compared against a binary column");
  }
  const bool want_eq = filter.op == CompareOp::kEq;
  for (size_t r = 0; r < n; ++r) {
    if (!col.IsNull(r) && (v[r] == filter.value.s) == want_eq) {
      (*match)[r] = 1;
    }
  }
  return Status::OK();
}

}  // namespace

Status FilterMatchMask(const ColumnVector& col, const Filter& filter,
                       std::vector<uint8_t>* match) {
  if (col.list_depth() != 0) {
    return Status::InvalidArgument("predicate on a list column");
  }
  match->assign(col.num_rows(), 0);
  if (col.domain() == ValueDomain::kBinary) {
    if (col.physical() != PhysicalType::kBinary) {
      return Status::InvalidArgument("predicate on unsupported column type");
    }
    return BinaryMatch(col, filter, match);
  }
  if (!HasPredicateOrder(col.physical())) {
    return Status::InvalidArgument(
        "predicate on unsupported column type (raw-bit float)");
  }
  if (filter.op == CompareOp::kIn) {
    return InMatchNumeric(col, filter.values, match);
  }
  if (filter.value.is_binary) {
    return Status::InvalidArgument(
        "byte-string constant compared against a numeric column");
  }
  const bool col_is_int = col.domain() == ValueDomain::kInt;
  const size_t n = match->size();
  if (col_is_int && !filter.value.is_real) {
    const std::vector<int64_t>& v = col.int_values();
    for (size_t r = 0; r < n; ++r) {
      if (!col.IsNull(r) && CompareRow<int64_t>(v[r], filter.op,
                                                filter.value.i)) {
        (*match)[r] = 1;
      }
    }
    return Status::OK();
  }
  const double c = filter.value.AsReal();
  for (size_t r = 0; r < n; ++r) {
    if (col.IsNull(r)) continue;
    double x = col_is_int ? static_cast<double>(col.int_values()[r])
                          : col.real_values()[r];
    if (CompareRow<double>(x, filter.op, c)) (*match)[r] = 1;
  }
  return Status::OK();
}

Status UpdateClauseMask(const std::vector<const ColumnVector*>& cols,
                        const FilterClause& clause,
                        std::vector<uint8_t>* mask) {
  if (cols.size() != clause.any_of.size()) {
    return Status::InvalidArgument("clause term/column count mismatch");
  }
  if (clause.any_of.empty()) {
    return Status::InvalidArgument("empty filter clause");
  }
  // Union the term match vectors, then AND the union into the mask.
  std::vector<uint8_t> any(mask->size(), 0);
  std::vector<uint8_t> match;
  for (size_t t = 0; t < clause.any_of.size(); ++t) {
    if (cols[t]->num_rows() != mask->size()) {
      return Status::InvalidArgument("predicate mask size mismatch");
    }
    BULLION_RETURN_NOT_OK(FilterMatchMask(*cols[t], clause.any_of[t],
                                            &match));
    for (size_t r = 0; r < any.size(); ++r) any[r] |= match[r];
  }
  for (size_t r = 0; r < mask->size(); ++r) {
    if (!any[r]) (*mask)[r] = 0;
  }
  return Status::OK();
}

std::vector<uint32_t> SelectionFromMask(const std::vector<uint8_t>& mask) {
  std::vector<uint32_t> sel;
  for (size_t r = 0; r < mask.size(); ++r) {
    if (mask[r]) sel.push_back(static_cast<uint32_t>(r));
  }
  return sel;
}

std::vector<uint32_t> SortPermutationDescending(
    const std::vector<double>& scores) {
  std::vector<uint32_t> perm(scores.size());
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return scores[a] > scores[b];
  });
  return perm;
}

}  // namespace bullion
