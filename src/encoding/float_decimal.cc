// Decimal-origin float codecs (Pseudodecimal, ALP) plus Trivial,
// Chunked, BitShuffle and BitShuffleSplit for the double domain.

#include <bit>
#include <cmath>
#include <cstring>
#include <memory>

#include "common/bit_util.h"
#include "common/varint.h"
#include "encoding/block_codec.h"
#include "encoding/cascade.h"
#include "encoding/deflate_util.h"
#include "encoding/float_codecs.h"

namespace bullion {
namespace floatcodec {

namespace {

const double kPow10[19] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,
                           1e7,  1e8,  1e9,  1e10, 1e11, 1e12, 1e13,
                           1e14, 1e15, 1e16, 1e17, 1e18};

/// True when v reconstructs exactly from round(v * 10^e) / 10^e.
bool DecimalRoundTrip(double v, int e, int64_t* mantissa) {
  if (!std::isfinite(v)) return false;
  // -0.0 would decode as +0.0; keep it as a raw exception.
  if (v == 0.0 && std::signbit(v)) return false;
  double scaled = v * kPow10[e];
  if (std::abs(scaled) >= 1.125899906842624e15) return false;  // 2^50
  double rounded = std::nearbyint(scaled);
  if (rounded / kPow10[e] != v) return false;
  *mantissa = static_cast<int64_t>(rounded);
  return true;
}

uint64_t DoubleBits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, 8);
  return u;
}

double BitsToDouble(uint64_t u) {
  double d;
  std::memcpy(&d, &u, 8);
  return d;
}

}  // namespace

double ProbeDecimalExponent(std::span<const double> v, int* best_exponent) {
  size_t best_hits = 0;
  *best_exponent = 0;
  for (int e = 0; e <= 14; ++e) {
    size_t hits = 0;
    int64_t m;
    for (double x : v) {
      if (DecimalRoundTrip(x, e, &m)) ++hits;
    }
    if (hits > best_hits) {
      best_hits = hits;
      *best_exponent = e;
    }
    if (hits == v.size()) break;
  }
  return v.empty() ? 0.0
                   : static_cast<double>(best_hits) /
                         static_cast<double>(v.size());
}

Status EncodeTrivial(std::span<const double> v, BufferBuilder* out) {
  out->AppendBytes(v.data(), v.size() * sizeof(double));
  return Status::OK();
}

Status DecodeTrivial(SliceReader* in, size_t n, std::vector<double>* out) {
  if (in->remaining() < n * sizeof(double)) {
    return Status::Corruption("float trivial payload truncated");
  }
  Slice bytes = in->ReadBytes(n * sizeof(double));
  out->resize(n);
  if (n > 0) std::memcpy(out->data(), bytes.data(), bytes.size());
  return Status::OK();
}

// Pseudodecimal: per value a control byte
//   [tag:1][exponent:4] (tag 1 = decimal, 0 = raw exception)
// followed by a zigzag varint mantissa (decimal) or 8 raw bytes.
Status EncodePseudodecimal(std::span<const double> v, BufferBuilder* out) {
  for (double x : v) {
    int64_t mantissa = 0;
    int found_e = -1;
    for (int e = 0; e <= 14; ++e) {
      if (DecimalRoundTrip(x, e, &mantissa)) {
        found_e = e;
        break;
      }
    }
    if (found_e >= 0) {
      out->Append<uint8_t>(static_cast<uint8_t>(0x80 | found_e));
      varint::PutVarint64(out, varint::ZigZagEncode(mantissa));
    } else {
      out->Append<uint8_t>(0);
      uint64_t bits = DoubleBits(x);
      out->Append<uint64_t>(bits);
    }
  }
  return Status::OK();
}

Status DecodePseudodecimal(SliceReader* in, size_t n,
                           std::vector<double>* out) {
  out->clear();
  // Every value needs at least its control byte: refuse a header count
  // the payload cannot hold before sizing anything from it.
  if (n > in->remaining()) {
    return Status::Corruption("pseudodecimal count exceeds payload");
  }
  out->reserve(n);
  Slice rest = in->ReadBytes(in->remaining());
  size_t pos = 0;
  for (size_t i = 0; i < n; ++i) {
    if (pos >= rest.size()) {
      return Status::Corruption("pseudodecimal truncated");
    }
    uint8_t ctl = rest[pos++];
    if (ctl & 0x80) {
      int e = ctl & 0x0F;
      uint64_t zz;
      if (!varint::GetVarint64(rest, &pos, &zz)) {
        return Status::Corruption("pseudodecimal mantissa truncated");
      }
      out->push_back(static_cast<double>(varint::ZigZagDecode(zz)) /
                     kPow10[e]);
    } else {
      if (rest.size() - pos < 8) {
        return Status::Corruption("pseudodecimal raw truncated");
      }
      uint64_t bits;
      std::memcpy(&bits, rest.data() + pos, 8);
      pos += 8;
      out->push_back(BitsToDouble(bits));
    }
  }
  in->Seek(in->position() - rest.size() + pos);
  return Status::OK();
}

// ALP: one exponent for the whole block.
//   [e: u8][n_exceptions: varint]
//   [mantissas child int block]               (exceptions hold 0)
//   per exception: [idx varint][raw 8 bytes]
Status EncodeAlp(std::span<const double> v, CascadeContext* ctx,
                 BufferBuilder* out) {
  int e = 0;
  ProbeDecimalExponent(v, &e);
  std::vector<int64_t> mantissas(v.size(), 0);
  std::vector<std::pair<size_t, uint64_t>> exceptions;
  for (size_t i = 0; i < v.size(); ++i) {
    int64_t m;
    if (DecimalRoundTrip(v[i], e, &m)) {
      mantissas[i] = m;
    } else {
      exceptions.push_back({i, DoubleBits(v[i])});
    }
  }
  out->Append<uint8_t>(static_cast<uint8_t>(e));
  varint::PutVarint64(out, exceptions.size());
  BULLION_RETURN_NOT_OK(ctx->EncodeIntChild(mantissas, out));
  for (const auto& [idx, bits] : exceptions) {
    varint::PutVarint64(out, idx);
    out->Append<uint64_t>(bits);
  }
  return Status::OK();
}

Status DecodeAlp(SliceReader* in, size_t n, std::vector<double>* out) {
  if (in->remaining() < 1) return Status::Corruption("alp header truncated");
  int e = in->Read<uint8_t>();
  if (e > 18) return Status::Corruption("alp exponent out of range");
  Slice rest = in->ReadBytes(in->remaining());
  size_t pos = 0;
  uint64_t n_exc;
  if (!varint::GetVarint64(rest, &pos, &n_exc)) {
    return Status::Corruption("alp exception count truncated");
  }
  in->Seek(in->position() - rest.size() + pos);

  std::vector<int64_t> mantissas;
  BULLION_RETURN_NOT_OK(DecodeIntBlock(in, &mantissas));
  if (mantissas.size() != n) return Status::Corruption("alp child count");

  out->resize(n);
  for (size_t i = 0; i < n; ++i) {
    (*out)[i] = static_cast<double>(mantissas[i]) / kPow10[e];
  }

  rest = in->ReadBytes(in->remaining());
  pos = 0;
  for (uint64_t x = 0; x < n_exc; ++x) {
    uint64_t idx;
    if (!varint::GetVarint64(rest, &pos, &idx) || rest.size() - pos < 8) {
      return Status::Corruption("alp exception truncated");
    }
    if (idx >= n) return Status::Corruption("alp exception idx range");
    uint64_t bits;
    std::memcpy(&bits, rest.data() + pos, 8);
    pos += 8;
    (*out)[idx] = BitsToDouble(bits);
  }
  in->Seek(in->position() - rest.size() + pos);
  return Status::OK();
}

Status EncodeChunked(std::span<const double> v, BufferBuilder* out) {
  return deflate_util::CompressChunked(
      Slice(reinterpret_cast<const uint8_t*>(v.data()),
            v.size() * sizeof(double)),
      out);
}

Status DecodeChunked(SliceReader* in, size_t n, std::vector<double>* out) {
  if (n * sizeof(double) > deflate_util::kMaxInflateRatio * in->remaining()) {
    return Status::Corruption("chunked payload too short for its count");
  }
  out->resize(n);
  return deflate_util::DecompressChunked(
      in, n * sizeof(double), reinterpret_cast<uint8_t*>(out->data()));
}

namespace {

/// The IEEE-754 bit patterns of v as BitShuffle's 64 bit planes.
std::vector<uint8_t> TransposeDoubles(std::span<const double> v) {
  const size_t n = v.size();
  std::vector<uint64_t> bits(n);
  if (n > 0) std::memcpy(bits.data(), v.data(), n * sizeof(double));
  std::vector<uint8_t> planes(blockcodec::BitPlaneBytes(n));
  blockcodec::ActiveKernels().transpose_bits(bits.data(), n, planes.data());
  return planes;
}

/// Inverse of TransposeDoubles: out receives exactly n values.
void UntransposeDoubles(const uint8_t* planes, size_t n,
                        std::vector<double>* out) {
  std::unique_ptr<uint64_t[]> bits(new uint64_t[n]);
  blockcodec::ActiveKernels().untranspose_bits(planes, n, bits.get());
  out->resize(n);
  if (n > 0) std::memcpy(out->data(), bits.get(), n * sizeof(double));
}

// BitShuffleSplit plane classes, 2 bits per plane in a 16-byte map.
constexpr uint8_t kPlaneZeros = 0;
constexpr uint8_t kPlaneOnes = 1;
constexpr uint8_t kPlaneRaw = 2;
constexpr uint8_t kPlaneDeflated = 3;
constexpr size_t kPlaneMapBytes = 16;

uint8_t PlaneClass(const uint8_t* map, size_t p) {
  return (map[p / 4] >> (2 * (p % 4))) & 3;
}

/// Writes one BitShuffleSplit payload: the class map, the raw planes in
/// plane order, then one Chunked stream of the deflated planes.
Status WriteSplitPayload(const std::vector<uint8_t>& planes, size_t plane_bytes,
                         const uint8_t (&classes)[64], BufferBuilder* out) {
  uint8_t map[kPlaneMapBytes] = {};
  for (size_t p = 0; p < 64; ++p) {
    map[p / 4] |= static_cast<uint8_t>(classes[p] << (2 * (p % 4)));
  }
  out->AppendBytes(map, kPlaneMapBytes);
  std::vector<uint8_t> deflated;
  for (size_t p = 0; p < 64; ++p) {
    const uint8_t* plane = planes.data() + p * plane_bytes;
    if (classes[p] == kPlaneRaw) out->AppendBytes(plane, plane_bytes);
    if (classes[p] == kPlaneDeflated) {
      deflated.insert(deflated.end(), plane, plane + plane_bytes);
    }
  }
  if (deflated.empty()) return Status::OK();
  return deflate_util::CompressChunked(Slice(deflated.data(), deflated.size()),
                                       out);
}

}  // namespace

Status EncodeBitShuffle(std::span<const double> v, BufferBuilder* out) {
  std::vector<uint8_t> planes = TransposeDoubles(v);
  return deflate_util::CompressChunked(Slice(planes.data(), planes.size()),
                                       out);
}

Status DecodeBitShuffle(SliceReader* in, size_t n, std::vector<double>* out) {
  if (n * sizeof(double) > deflate_util::kMaxInflateRatio * in->remaining()) {
    return Status::Corruption("bitshuffle payload too short for its count");
  }
  std::vector<uint8_t> planes(blockcodec::BitPlaneBytes(n));
  BULLION_RETURN_NOT_OK(
      deflate_util::DecompressChunked(in, planes.size(), planes.data()));
  UntransposeDoubles(planes.data(), n, out);
  return Status::OK();
}

Status EncodeBitShuffleSplit(std::span<const double> v, BufferBuilder* out) {
  const size_t n = v.size();
  const size_t plane_bytes = (n + 7) / 8;
  std::vector<uint8_t> planes = TransposeDoubles(v);
  // `split` stores near-random planes raw; `all_deflated` deflates every
  // non-constant plane, which wins when the raw planes still hold
  // structure deflate finds (random-walk and timestamp mantissas).
  uint8_t split[64] = {}, all_deflated[64] = {};
  bool any_raw = false;
  for (size_t p = 0; p < 64; ++p) {
    size_t ones = 0;  // pad bits are zero
    for (size_t b = 0; b < plane_bytes; ++b) {
      ones += static_cast<size_t>(std::popcount(planes[p * plane_bytes + b]));
    }
    if (ones == 0 || ones == n) {
      split[p] = all_deflated[p] = ones == 0 ? kPlaneZeros : kPlaneOnes;
      continue;
    }
    all_deflated[p] = kPlaneDeflated;
    // Raw when the set-bit density lies strictly inside (0.4, 0.6).
    const bool raw = 5 * ones > 2 * n && 5 * ones < 3 * n;
    split[p] = raw ? kPlaneRaw : kPlaneDeflated;
    any_raw = any_raw || raw;
  }
  BufferBuilder split_payload;
  BULLION_RETURN_NOT_OK(
      WriteSplitPayload(planes, plane_bytes, split, &split_payload));
  if (any_raw) {
    BufferBuilder deflated_payload;
    BULLION_RETURN_NOT_OK(WriteSplitPayload(planes, plane_bytes, all_deflated,
                                            &deflated_payload));
    if (deflated_payload.size() < split_payload.size()) {
      out->AppendSlice(deflated_payload.AsSlice());
      return Status::OK();
    }
  }
  out->AppendSlice(split_payload.AsSlice());
  return Status::OK();
}

Status DecodeBitShuffleSplit(SliceReader* in, size_t n,
                             std::vector<double>* out) {
  if (in->remaining() < kPlaneMapBytes) {
    return Status::Corruption("bitshuffle-split plane map truncated");
  }
  Slice map = in->ReadBytes(kPlaneMapBytes);
  const size_t plane_bytes = (n + 7) / 8;
  size_t n_raw = 0, n_deflated = 0;
  for (size_t p = 0; p < 64; ++p) {
    n_raw += PlaneClass(map.data(), p) == kPlaneRaw;
    n_deflated += PlaneClass(map.data(), p) == kPlaneDeflated;
  }
  // Both checks come before any allocation sized from n.
  if (n_raw * plane_bytes > in->remaining()) {
    return Status::Corruption("bitshuffle-split raw planes truncated");
  }
  Slice raw = in->ReadBytes(n_raw * plane_bytes);
  const size_t deflated_bytes = n_deflated * plane_bytes;
  if (deflated_bytes > deflate_util::kMaxInflateRatio * in->remaining()) {
    return Status::Corruption("bitshuffle-split deflated planes truncated");
  }
  // Every plane byte is written below. The deflated planes inflate
  // packed at the front; walking down from plane 63, each plane's slot
  // lies above every packed plane still to move.
  std::unique_ptr<uint8_t[]> planes(new uint8_t[blockcodec::BitPlaneBytes(n)]);
  if (n_deflated > 0) {
    BULLION_RETURN_NOT_OK(
        deflate_util::DecompressChunked(in, deflated_bytes, planes.get()));
  }
  size_t packed = n_deflated;
  const uint8_t* raw_end = raw.data() + raw.size();
  for (size_t p = 64; p-- > 0 && plane_bytes > 0;) {
    uint8_t* plane = planes.get() + p * plane_bytes;
    switch (PlaneClass(map.data(), p)) {
      case kPlaneZeros:
        std::memset(plane, 0, plane_bytes);
        break;
      case kPlaneOnes:
        std::memset(plane, 0xFF, plane_bytes);  // pad bits are ignored
        break;
      case kPlaneRaw:
        raw_end -= plane_bytes;
        std::memcpy(plane, raw_end, plane_bytes);
        break;
      case kPlaneDeflated:
        if (--packed != p) {
          std::memcpy(plane, planes.get() + packed * plane_bytes, plane_bytes);
        }
        break;
    }
  }
  UntransposeDoubles(planes.get(), n, out);
  return Status::OK();
}

}  // namespace floatcodec
}  // namespace bullion
