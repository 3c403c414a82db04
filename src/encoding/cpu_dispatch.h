// Runtime CPU-feature detection and SIMD-tier selection for the block
// codec kernels (encoding/block_codec.h).
//
// Tiers form a total order; every tier decodes/encodes the SAME wire
// format byte-for-byte — a tier is purely an implementation of the
// kernels, never a format variant:
//
//   kScalar  bit-at-a-time reference loops (the pre-rework code).
//            Always available, always correct; the other tiers are
//            cross-checked against it.
//   kSwar    portable word-at-a-time kernels (64-bit loads, branchless
//            shift/mask, 8x8 bit-matrix transposes for BitShuffle). No
//            intrinsics; available on every substrate.
//   kAvx2    AVX2 gather/variable-shift bit-unpacking, SIMD zigzag and
//            frame-of-reference transforms, and F16C hardware float16
//            conversion (encoding/simd_kernels.cc); bit packing, varint
//            decode and the BitShuffle transpose reuse the SWAR kernels.
//            Selected only when cpuid reports the features at startup.
//
// Selection happens once (thread-safe function-local static); tests and
// benches can clamp the active tier with ScopedSimdTierCap or the
// BULLION_SIMD environment variable ("scalar" | "swar" | "avx2") to
// cross-check kernels or measure each tier.

#pragma once

#include <cstdint>
#include <string_view>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define BULLION_X86_DISPATCH 1
#else
#define BULLION_X86_DISPATCH 0
#endif

namespace bullion {
namespace simd {

/// Kernel implementation tiers, best-last. Values index the dispatch
/// tables in block_codec.cc.
enum class SimdTier : uint8_t {
  kScalar = 0,
  kSwar = 1,
  kAvx2 = 2,
};
constexpr int kNumSimdTiers = 3;

std::string_view SimdTierName(SimdTier t);

/// CPU features relevant to the kernel tiers, detected once via cpuid
/// (all false on non-x86 substrates).
struct CpuFeatures {
  bool sse42 = false;
  bool avx2 = false;
  bool f16c = false;
  bool avx512f = false;  // detected and reported; no kernels yet
};

const CpuFeatures& GetCpuFeatures();

/// Highest tier this build + this CPU can run (ignores any cap).
SimdTier BestSupportedTier();

/// The tier the dispatcher will actually hand out: BestSupportedTier()
/// clamped by the BULLION_SIMD env var (read once) and by any active
/// SetSimdTierCap.
SimdTier ActiveSimdTier();

/// Process-global tier cap, for tests/benches that must compare kernel
/// tiers. Thread-safe to read; setting it while other threads decode is
/// safe (they pick up the cap on their next block) but benchmarks
/// should set it before spawning work.
void SetSimdTierCap(SimdTier cap);
void ClearSimdTierCap();

/// RAII form of SetSimdTierCap/ClearSimdTierCap.
class ScopedSimdTierCap {
 public:
  explicit ScopedSimdTierCap(SimdTier cap) { SetSimdTierCap(cap); }
  ~ScopedSimdTierCap() { ClearSimdTierCap(); }
  ScopedSimdTierCap(const ScopedSimdTierCap&) = delete;
  ScopedSimdTierCap& operator=(const ScopedSimdTierCap&) = delete;
};

}  // namespace simd
}  // namespace bullion
