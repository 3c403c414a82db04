// Decimal-origin float codecs (Pseudodecimal, ALP) plus Trivial,
// Chunked, and BitShuffle for the double domain.

#include <cmath>
#include <cstring>

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
  out->resize(n);
  return deflate_util::DecompressChunked(
      in, n * sizeof(double), reinterpret_cast<uint8_t*>(out->data()));
}

Status EncodeBitShuffle(std::span<const double> v, BufferBuilder* out) {
  const size_t n = v.size();
  std::vector<uint64_t> bits(n);
  if (n > 0) std::memcpy(bits.data(), v.data(), n * sizeof(double));
  std::vector<uint8_t> planes(blockcodec::BitPlaneBytes(n));
  blockcodec::ActiveKernels().transpose_bits(bits.data(), n, planes.data());
  return deflate_util::CompressChunked(Slice(planes.data(), planes.size()),
                                       out);
}

Status DecodeBitShuffle(SliceReader* in, size_t n, std::vector<double>* out) {
  std::vector<uint8_t> planes(blockcodec::BitPlaneBytes(n));
  BULLION_RETURN_NOT_OK(
      deflate_util::DecompressChunked(in, planes.size(), planes.data()));
  std::vector<uint64_t> bits(n);
  blockcodec::ActiveKernels().untranspose_bits(planes.data(), n, bits.data());
  out->resize(n);
  if (n > 0) std::memcpy(out->data(), bits.data(), n * sizeof(double));
  return Status::OK();
}

}  // namespace floatcodec
}  // namespace bullion
