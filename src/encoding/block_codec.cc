#include "encoding/block_codec.h"

#include <cmath>
#include <cstring>
#include <vector>

#include "encoding/block_kernels_inl.h"

namespace bullion {
namespace blockcodec {

#if BULLION_X86_DISPATCH
// AVX2 / F16C kernels, compiled with per-function target attributes in
// simd_kernels.cc. Only callable when cpuid reports the features — the
// dispatch tables below hand them out strictly behind that check.
namespace avx2 {
void UnpackBits(const uint8_t* in, size_t in_bytes, size_t n, int width,
                uint64_t* out);
void AddBase(int64_t base, size_t n, int64_t* inout);
void SubBase(const int64_t* in, int64_t base, size_t n, uint64_t* out);
void ZigZagEncode(const int64_t* in, size_t n, uint64_t* out);
void ZigZagDecode(const uint64_t* in, size_t n, int64_t* out);
void F16Encode(const float* in, size_t n, uint16_t* out);
void F16Decode(const uint16_t* in, size_t n, float* out);
}  // namespace avx2
#endif

namespace {

using namespace detail;

constexpr Kernels kScalarKernels = {
    simd::SimdTier::kScalar, &UnpackBitsScalar, &PackBitsScalar,
    &AddBaseScalar,          &SubBaseScalar,    &ZigZagEncodeScalar,
    &ZigZagDecodeScalar,     &VarintDecodeScalar,
    &F16EncodeScalar,        &F16DecodeScalar,
    &TransposeBitsScalar,    &UntransposeBitsScalar,
};

constexpr Kernels kSwarKernels = {
    simd::SimdTier::kSwar, &UnpackBitsSwar, &PackBitsSwar,
    &AddBaseScalar,        &SubBaseScalar,  &ZigZagEncodeScalar,
    &ZigZagDecodeScalar,   &VarintDecodeSwar,
    &F16EncodeScalar,      &F16DecodeScalar,
    &TransposeBitsSwar,    &UntransposeBitsSwar,
};

#if BULLION_X86_DISPATCH
// Packing and varint decode stay on the SWAR implementations in the
// AVX2 tier: encode is bounded by the pack RMW chain and varint by the
// data-dependent length decode, where AVX2 buys nothing on this layout.
// The bit-plane transpose stays on SWAR too: BitShuffle decode is
// bounded by inflate once the transpose is word-at-a-time.
// F16C kernels are only installed when cpuid reports f16c as well.
Kernels MakeAvx2Kernels() {
  Kernels k = {
      simd::SimdTier::kAvx2, &avx2::UnpackBits, &PackBitsSwar,
      &avx2::AddBase,        &avx2::SubBase,    &avx2::ZigZagEncode,
      &avx2::ZigZagDecode,   &VarintDecodeSwar,
      &F16EncodeScalar,      &F16DecodeScalar,
      &TransposeBitsSwar,    &UntransposeBitsSwar,
  };
  if (simd::GetCpuFeatures().f16c) {
    k.f16_encode = &avx2::F16Encode;
    k.f16_decode = &avx2::F16Decode;
  }
  return k;
}
#endif

/// Exercises every AVX2 kernel against the scalar reference on inputs
/// that cover the divergence-prone corners (every bit width, lane
/// tails, zigzag sign boundaries, float specials incl. NaN payloads and
/// subnormals). Any mismatch — e.g. a substrate running with FTZ/DAZ
/// set, or a cpuid lie — disqualifies the tier for the whole process.
bool ProbeAvxKernels() {
#if !BULLION_X86_DISPATCH
  return false;
#else
  const simd::CpuFeatures& f = simd::GetCpuFeatures();
  if (!f.avx2) return false;
  const Kernels a = MakeAvx2Kernels();

  // Deterministic pseudo-random values (xorshift) + structured corners.
  uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };

  constexpr size_t kN = kBlockValues + 13;  // force a non-lane-multiple tail
  std::vector<uint64_t> values(kN);

  // Bit packing: every width, random payloads masked to width.
  std::vector<uint8_t> packed;
  std::vector<uint64_t> ref(kN), got(kN);
  for (int width = 0; width <= 64; ++width) {
    for (size_t i = 0; i < kN; ++i) values[i] = next() & WidthMask(width);
    const size_t bytes = (kN * static_cast<size_t>(width) + 7) / 8;
    packed.assign(bytes, 0);
    PackBitsScalar(values.data(), kN, width, packed.data());
    UnpackBitsScalar(packed.data(), bytes, kN, width, ref.data());
    a.unpack_bits(packed.data(), bytes, kN, width, got.data());
    if (std::memcmp(ref.data(), got.data(), kN * 8) != 0) return false;
  }

  // ZigZag + frame-of-reference on sign boundaries and extremes.
  std::vector<int64_t> sv(kN), sref(kN), sgot(kN);
  for (size_t i = 0; i < kN; ++i) sv[i] = static_cast<int64_t>(next());
  sv[0] = 0;
  sv[1] = -1;
  sv[2] = INT64_MAX;
  sv[3] = INT64_MIN;
  ZigZagEncodeScalar(sv.data(), kN, ref.data());
  a.zigzag_encode(sv.data(), kN, got.data());
  if (std::memcmp(ref.data(), got.data(), kN * 8) != 0) return false;
  ZigZagDecodeScalar(ref.data(), kN, sref.data());
  a.zigzag_decode(ref.data(), kN, sgot.data());
  if (std::memcmp(sref.data(), sgot.data(), kN * 8) != 0) return false;

  SubBaseScalar(sv.data(), -123456789, kN, ref.data());
  a.sub_base(sv.data(), -123456789, kN, got.data());
  if (std::memcmp(ref.data(), got.data(), kN * 8) != 0) return false;
  sref = sv;
  sgot = sv;
  AddBaseScalar(INT64_MIN + 7, kN, sref.data());
  a.add_base(INT64_MIN + 7, kN, sgot.data());
  if (std::memcmp(sref.data(), sgot.data(), kN * 8) != 0) return false;

  // Float16, only if the F16C kernels are installed.
  if (a.f16_encode != &F16EncodeScalar) {
    std::vector<float> fv;
    const float specials[] = {
        0.0f, -0.0f, 1.0f, -1.0f, 65504.0f, -65504.0f, 65520.0f, 1e9f,
        5.96e-8f, 6.1e-5f, 1.0f / 3.0f,
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::quiet_NaN(),
        -std::numeric_limits<float>::quiet_NaN(),
        bullion::detail::BitsToFloat(0x7F800001u),  // signalling-NaN payload
        bullion::detail::BitsToFloat(0xFFC12345u),  // negative NaN w/ payload
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(),
    };
    fv.assign(specials, specials + sizeof(specials) / sizeof(specials[0]));
    while (fv.size() < kN) {
      uint32_t u = static_cast<uint32_t>(next());
      fv.push_back(bullion::detail::BitsToFloat(u));
    }
    std::vector<uint16_t> href(fv.size()), hgot(fv.size());
    F16EncodeScalar(fv.data(), fv.size(), href.data());
    a.f16_encode(fv.data(), fv.size(), hgot.data());
    if (std::memcmp(href.data(), hgot.data(), href.size() * 2) != 0) {
      return false;
    }
    std::vector<float> fref(href.size()), fgot(href.size());
    // Include every exponent/mantissa class in the decode probe.
    for (size_t i = 0; i < href.size(); ++i) {
      href[i] = static_cast<uint16_t>(next());
    }
    F16DecodeScalar(href.data(), href.size(), fref.data());
    a.f16_decode(href.data(), href.size(), fgot.data());
    if (std::memcmp(fref.data(), fgot.data(), fref.size() * 4) != 0) {
      return false;
    }
  }
  return true;
#endif
}

}  // namespace

bool AvxKernelsUsable() {
  static const bool usable = ProbeAvxKernels();
  return usable;
}

const Kernels& KernelsForTier(simd::SimdTier tier) {
#if BULLION_X86_DISPATCH
  if (tier >= simd::SimdTier::kAvx2 &&
      simd::BestSupportedTier() >= simd::SimdTier::kAvx2) {
    static const Kernels avx = MakeAvx2Kernels();
    return avx;
  }
#endif
  if (tier >= simd::SimdTier::kSwar) return kSwarKernels;
  return kScalarKernels;
}

const Kernels& ActiveKernels() {
  return KernelsForTier(simd::ActiveSimdTier());
}

}  // namespace blockcodec
}  // namespace bullion
