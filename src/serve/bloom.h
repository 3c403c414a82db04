// Split-block Bloom filters: the "definitely not here" membership
// check behind the point-lookup serving tier (src/serve/README.md).
//
// A filter is an array of 256-bit blocks (8 x u32). One key probes ONE
// block — chosen by the hash's high 32 bits via multiply-shift — and
// sets/tests 8 bits inside it, one per 32-bit lane, each picked by an
// odd-constant multiply of the hash's low 32 bits (the classic
// split-block scheme: cache-line locality, SIMD-friendly lanes, and a
// false-positive rate within ~1.3x of a classic Bloom filter at the
// same bits/key).
//
// Filters are built per column chunk during the parallel encode stage
// (format/writer.cc) from the chunk's key hashes and serialized into
// the version-3 footer next to the zone maps. Readers probe through
// the zero-copy BloomFilterView, so a lookup that misses costs one
// footer-resident block read and no pread.
//
// Soundness contract (mirrors ZoneMapMayMatch): MayContain() never
// answers false for a key that was added — deletes only remove rows,
// so a filter built at write time stays a superset of the live keys.
// A missing filter (empty bytes) must be treated as "may contain" by
// callers; a present filter always has at least one block.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "io/predicate.h"

namespace bullion {

/// Do values of this column shape feed Bloom filters? Scalar
/// integer-domain columns with a predicate order, and scalar binary
/// columns — the column shapes point lookups key on. Never reals:
/// -0.0 == 0.0 and NaN != NaN make bitwise hashing diverge from value
/// equality, so a float filter could wrongly exclude a matching chunk.
inline bool BloomEligibleColumn(PhysicalType t, int list_depth) {
  if (list_depth != 0) return false;
  if (t == PhysicalType::kBinary) return true;
  return HasPredicateOrder(t) && t != PhysicalType::kFloat32 &&
         t != PhysicalType::kFloat64;
}

/// Seed for every key hash that feeds a Bloom filter. Fixed forever:
/// it is part of the on-disk format (write-side and probe-side hashes
/// must agree across versions).
constexpr uint64_t kBloomHashSeed = 0xb10f11e55eedULL;

/// Hash of an integer-domain key (the raw int64, little-endian bytes).
inline uint64_t BloomHashInt(int64_t v) {
  return XxHash64(&v, sizeof(v), kBloomHashSeed);
}

/// Hash of a binary-domain key (the raw bytes).
inline uint64_t BloomHashBinary(std::string_view s) {
  return XxHash64(s.data(), s.size(), kBloomHashSeed);
}

/// Bytes per split block (8 lanes x 4 bytes = one cache half-line).
constexpr size_t kBloomBlockBytes = 32;

/// Hash of a filter constant in column physical type `t`'s Bloom
/// domain. Sets `*h` and returns true when the constant's type aligns
/// with how the writer hashed the column's keys (int constant vs
/// integer column, byte string vs binary column); returns false on any
/// mismatch — including real-valued constants, which are never hashed
/// (see BloomEligibleColumn) — and the caller must then treat the
/// extent as possibly containing the value.
inline bool BloomHashFilterValue(PhysicalType t, const FilterValue& v,
                                 uint64_t* h) {
  if (t == PhysicalType::kBinary) {
    if (!v.is_binary) return false;
    *h = BloomHashBinary(v.s);
    return true;
  }
  if (v.is_binary || v.is_real) return false;
  *h = BloomHashInt(v.i);
  return true;
}

/// True if the serialized filter `bits`, built over a column of
/// physical type `t`, proves that no row holds any of the equality
/// constants `filter` probes for. Only kEq / kIn can be disproven by
/// membership, and kIn needs every member absent; malformed bytes or a
/// type-mismatched constant answer false (cannot prune). Counts each
/// hashed probe in bullion.bloom.probes and each proven absence in
/// bullion.bloom.negatives.
bool BloomProvesAbsent(Slice bits, PhysicalType t, const Filter& filter);

/// \brief Owning split-block Bloom filter builder (write side).
class BloomFilter {
 public:
  BloomFilter() = default;

  /// A filter sized for `expected_keys` at `bits_per_key` (clamped to
  /// at least one block). bits_per_key <= 0 yields an empty (absent)
  /// filter.
  static BloomFilter Sized(size_t expected_keys, double bits_per_key);

  /// Builds a filter over `hashes` at `bits_per_key`. Deterministic:
  /// the result depends only on the hash multiset and the sizing.
  static BloomFilter Build(const std::vector<uint64_t>& hashes,
                           double bits_per_key);

  bool empty() const { return words_.empty(); }
  size_t num_blocks() const { return words_.size() / 8; }

  void AddHash(uint64_t h);
  bool MayContain(uint64_t h) const;

  /// Serialized form: the block words, little-endian u32s. Parse back
  /// with BloomFilterView::Wrap.
  std::string ToBytes() const;

 private:
  explicit BloomFilter(size_t num_blocks) : words_(num_blocks * 8, 0) {}

  std::vector<uint32_t> words_;
};

/// \brief Zero-copy probe view over serialized filter bytes (a footer
/// bloom section). The bytes must outlive the view.
class BloomFilterView {
 public:
  BloomFilterView() = default;

  /// Wraps serialized bytes. Empty bytes are rejected — model "no
  /// filter recorded" as the absence of bytes at the call site, not as
  /// an empty view (an empty filter would answer "definitely not" for
  /// every key, which is the opposite of the safe default).
  static Result<BloomFilterView> Wrap(Slice bytes);

  size_t num_blocks() const { return bytes_.size() / kBloomBlockBytes; }
  bool MayContain(uint64_t h) const;

 private:
  Slice bytes_;
};

/// Expected false-positive rate of a split-block filter holding
/// `num_keys` keys in `num_blocks` blocks (the standard per-block
/// binomial approximation; serve/README.md derives it). Exposed so the
/// bench can report predicted vs. measured FPR.
double BloomExpectedFpr(size_t num_keys, size_t num_blocks);

}  // namespace bullion
