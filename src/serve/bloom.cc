#include "serve/bloom.h"

#include <cmath>
#include <cstring>

#include "obs/metrics.h"

namespace bullion {
namespace {

// Odd salt constants (the split-block standard set). Each lane i sets
// bit ((h32 * kSalt[i]) >> 27) — a multiply-shift hash into [0, 32).
constexpr uint32_t kSalt[8] = {0x47b6137bU, 0x44974d91U, 0x8824ad5bU,
                               0xa2b7289dU, 0x705495c7U, 0x2df1424bU,
                               0x9efc4947U, 0x5c6bfb31U};

// Maps the high 32 hash bits onto [0, num_blocks) without division:
// multiply-shift keeps the distribution uniform for any block count,
// so sizing never has to round to a power of two.
inline size_t BlockIndex(uint64_t h, size_t num_blocks) {
  return static_cast<size_t>(((h >> 32) * static_cast<uint64_t>(num_blocks)) >>
                             32);
}

// The 8 lane masks for a key, from the low 32 hash bits.
inline void LaneMasks(uint64_t h, uint32_t masks[8]) {
  const uint32_t key = static_cast<uint32_t>(h);
  for (int i = 0; i < 8; ++i) {
    masks[i] = 1u << ((key * kSalt[i]) >> 27);
  }
}

}  // namespace

BloomFilter BloomFilter::Sized(size_t expected_keys, double bits_per_key) {
  if (bits_per_key <= 0.0) return BloomFilter();
  const double bits = static_cast<double>(expected_keys) * bits_per_key;
  const double block_bits = static_cast<double>(kBloomBlockBytes) * 8.0;
  size_t num_blocks = static_cast<size_t>(std::ceil(bits / block_bits));
  if (num_blocks == 0) num_blocks = 1;
  return BloomFilter(num_blocks);
}

BloomFilter BloomFilter::Build(const std::vector<uint64_t>& hashes,
                               double bits_per_key) {
  BloomFilter filter = Sized(hashes.size(), bits_per_key);
  if (filter.empty()) return filter;
  for (uint64_t h : hashes) filter.AddHash(h);
  return filter;
}

void BloomFilter::AddHash(uint64_t h) {
  if (empty()) return;
  uint32_t* block = &words_[BlockIndex(h, num_blocks()) * 8];
  uint32_t masks[8];
  LaneMasks(h, masks);
  for (int i = 0; i < 8; ++i) block[i] |= masks[i];
}

bool BloomFilter::MayContain(uint64_t h) const {
  if (empty()) return false;
  const uint32_t* block = &words_[BlockIndex(h, num_blocks()) * 8];
  uint32_t masks[8];
  LaneMasks(h, masks);
  for (int i = 0; i < 8; ++i) {
    if ((block[i] & masks[i]) == 0) return false;
  }
  return true;
}

std::string BloomFilter::ToBytes() const {
  std::string out(words_.size() * sizeof(uint32_t), '\0');
  // Little-endian u32 words; the project already assumes a
  // little-endian host throughout the on-disk structs.
  if (!out.empty()) std::memcpy(out.data(), words_.data(), out.size());
  return out;
}

Result<BloomFilterView> BloomFilterView::Wrap(Slice bytes) {
  if (bytes.empty() || bytes.size() % kBloomBlockBytes != 0) {
    return Status::Corruption("bloom filter bytes must be a positive multiple "
                              "of the 32-byte block size");
  }
  BloomFilterView view;
  view.bytes_ = bytes;
  return view;
}

bool BloomFilterView::MayContain(uint64_t h) const {
  if (bytes_.empty()) return true;  // No filter: cannot exclude anything.
  const uint8_t* block =
      bytes_.data() + BlockIndex(h, num_blocks()) * kBloomBlockBytes;
  uint32_t masks[8];
  LaneMasks(h, masks);
  for (int i = 0; i < 8; ++i) {
    uint32_t word;
    std::memcpy(&word, block + i * sizeof(uint32_t), sizeof(word));
    if ((word & masks[i]) == 0) return false;
  }
  return true;
}

bool BloomProvesAbsent(Slice bits, PhysicalType t, const Filter& filter) {
  if (filter.op != CompareOp::kEq && filter.op != CompareOp::kIn) {
    return false;
  }
  Result<BloomFilterView> view = BloomFilterView::Wrap(bits);
  if (!view.ok()) return false;
  static obs::Counter* probes =
      obs::MetricsRegistry::Global().GetCounter("bullion.bloom.probes");
  static obs::Counter* negatives =
      obs::MetricsRegistry::Global().GetCounter("bullion.bloom.negatives");
  auto provably_absent = [&](const FilterValue& v) {
    uint64_t h = 0;
    if (!BloomHashFilterValue(t, v, &h)) return false;
    probes->Increment();
    if (view->MayContain(h)) return false;
    negatives->Increment();
    return true;
  };
  if (filter.op == CompareOp::kEq) return provably_absent(filter.value);
  // kIn: every member must be provably absent (the empty list is
  // already pruned by the zone-map test).
  for (const FilterValue& v : filter.values) {
    if (!provably_absent(v)) return false;
  }
  return !filter.values.empty();
}

double BloomExpectedFpr(size_t num_keys, size_t num_blocks) {
  if (num_blocks == 0) return 1.0;
  // Keys land uniformly on blocks; a probed block holding c keys
  // answers a false positive with ~(1 - e^{-8c/256})^8 (classic Bloom
  // formula inside one 256-bit block with 8 probe bits). Using the
  // mean load c = n/B is a tight approximation at the loads we run.
  const double load =
      static_cast<double>(num_keys) / static_cast<double>(num_blocks);
  const double per_bit = 1.0 - std::exp(-8.0 * load / 256.0);
  return std::pow(per_bit, 8.0);
}

}  // namespace bullion
