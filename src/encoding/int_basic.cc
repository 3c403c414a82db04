// Basic integer codecs: Trivial, Varint, ZigZag, FixedBitWidth,
// ForDelta, Delta, Constant. Hot loops run through the block kernels
// (encoding/block_codec.h): packed payloads are written straight into
// the output buffer (BufferBuilder::AppendZeros) and decoded straight
// into the caller's span — no per-value dispatch, no push_back growth.

#include <algorithm>

#include "common/bit_util.h"
#include "common/varint.h"
#include "encoding/block_codec.h"
#include "encoding/cascade.h"
#include "encoding/int_codecs.h"

namespace bullion {
namespace intcodec {

namespace {

inline uint64_t* AsU64(int64_t* p) { return reinterpret_cast<uint64_t*>(p); }
inline const uint64_t* AsU64(const int64_t* p) {
  return reinterpret_cast<const uint64_t*>(p);
}

}  // namespace

Status EncodeTrivial(std::span<const int64_t> v, BufferBuilder* out) {
  out->AppendBytes(v.data(), v.size() * sizeof(int64_t));
  return Status::OK();
}

Status DecodeTrivialInto(SliceReader* in, size_t n, int64_t* out) {
  if (in->remaining() < n * sizeof(int64_t)) {
    return Status::Corruption("trivial payload truncated");
  }
  Slice bytes = in->ReadBytes(n * sizeof(int64_t));
  if (n > 0) std::memcpy(out, bytes.data(), bytes.size());
  return Status::OK();
}

Status EncodeVarint(std::span<const int64_t> v, BufferBuilder* out) {
  for (int64_t x : v) {
    if (x < 0) {
      return Status::InvalidArgument("varint encoding requires non-negative");
    }
    varint::PutVarint64(out, static_cast<uint64_t>(x));
  }
  return Status::OK();
}

Status DecodeVarintInto(SliceReader* in, size_t n, int64_t* out) {
  Slice rest = in->ReadBytes(in->remaining());
  size_t consumed = blockcodec::ActiveKernels().varint_decode(
      rest.data(), rest.size(), n, AsU64(out));
  if (consumed == SIZE_MAX) {
    return Status::Corruption("varint payload truncated");
  }
  in->Seek(in->position() - rest.size() + consumed);
  return Status::OK();
}

Status EncodeZigZag(std::span<const int64_t> v, BufferBuilder* out) {
  for (int64_t x : v) {
    varint::PutVarint64(out, varint::ZigZagEncode(x));
  }
  return Status::OK();
}

Status DecodeZigZagInto(SliceReader* in, size_t n, int64_t* out) {
  const blockcodec::Kernels& k = blockcodec::ActiveKernels();
  Slice rest = in->ReadBytes(in->remaining());
  size_t consumed = k.varint_decode(rest.data(), rest.size(), n, AsU64(out));
  if (consumed == SIZE_MAX) {
    return Status::Corruption("zigzag payload truncated");
  }
  k.zigzag_decode(AsU64(out), n, out);
  in->Seek(in->position() - rest.size() + consumed);
  return Status::OK();
}

Status EncodeFixedBitWidth(std::span<const int64_t> v, BufferBuilder* out) {
  uint64_t max_val = 0;
  for (int64_t x : v) {
    if (x < 0) {
      return Status::InvalidArgument(
          "fixed-bit-width encoding requires non-negative");
    }
    max_val = std::max(max_val, static_cast<uint64_t>(x));
  }
  int width = std::max(1, bit_util::BitWidth(max_val));
  out->Append<uint8_t>(static_cast<uint8_t>(width));
  uint8_t* dst = out->AppendZeros(
      bit_util::RoundUpToBytes(v.size() * static_cast<size_t>(width)));
  // Non-negative int64 values bit-pack as their uint64 representation.
  blockcodec::ActiveKernels().pack_bits(AsU64(v.data()), v.size(), width, dst);
  return Status::OK();
}

Status DecodeFixedBitWidthInto(SliceReader* in, size_t n, int64_t* out) {
  if (in->remaining() < 1) return Status::Corruption("fbw payload truncated");
  int width = in->Read<uint8_t>();
  if (width > 64) return Status::Corruption("fbw width out of range");
  size_t bytes = bit_util::RoundUpToBytes(n * static_cast<size_t>(width));
  if (in->remaining() < bytes) {
    return Status::Corruption("fbw packed data truncated");
  }
  Slice packed = in->ReadBytes(bytes);
  blockcodec::ActiveKernels().unpack_bits(packed.data(), packed.size(), n,
                                          width, AsU64(out));
  return Status::OK();
}

Status EncodeForDelta(std::span<const int64_t> v, BufferBuilder* out) {
  if (v.empty()) return Status::OK();
  int64_t base = *std::min_element(v.begin(), v.end());
  uint64_t max_off = 0;
  for (int64_t x : v) {
    max_off = std::max(max_off,
                       static_cast<uint64_t>(x) - static_cast<uint64_t>(base));
  }
  int width = std::max(1, bit_util::BitWidth(max_off));
  varint::PutVarint64(out, varint::ZigZagEncode(base));
  out->Append<uint8_t>(static_cast<uint8_t>(width));
  const blockcodec::Kernels& k = blockcodec::ActiveKernels();
  std::vector<uint64_t> offsets(v.size());
  k.sub_base(v.data(), base, v.size(), offsets.data());
  uint8_t* dst = out->AppendZeros(
      bit_util::RoundUpToBytes(v.size() * static_cast<size_t>(width)));
  k.pack_bits(offsets.data(), offsets.size(), width, dst);
  return Status::OK();
}

Status DecodeForDeltaInto(SliceReader* in, size_t n, int64_t* out) {
  if (n == 0) return Status::OK();
  Slice rest = in->ReadBytes(in->remaining());
  size_t pos = 0;
  uint64_t zz;
  if (!varint::GetVarint64(rest, &pos, &zz)) {
    return Status::Corruption("for-delta base truncated");
  }
  int64_t base = varint::ZigZagDecode(zz);
  if (pos >= rest.size()) return Status::Corruption("for-delta width missing");
  int width = rest[pos++];
  if (width > 64) return Status::Corruption("for-delta width out of range");
  size_t bytes = bit_util::RoundUpToBytes(n * static_cast<size_t>(width));
  if (rest.size() - pos < bytes) {
    return Status::Corruption("for-delta packed data truncated");
  }
  const blockcodec::Kernels& k = blockcodec::ActiveKernels();
  k.unpack_bits(rest.data() + pos, bytes, n, width, AsU64(out));
  k.add_base(base, n, out);
  pos += bytes;
  in->Seek(in->position() - rest.size() + pos);
  return Status::OK();
}

Status EncodeDelta(std::span<const int64_t> v, CascadeContext* ctx,
                   BufferBuilder* out) {
  if (v.empty()) return Status::OK();
  varint::PutVarint64(out, varint::ZigZagEncode(v[0]));
  if (v.size() == 1) return Status::OK();
  std::vector<int64_t> deltas(v.size() - 1);
  for (size_t i = 1; i < v.size(); ++i) {
    // Two's-complement wraparound is well-defined via unsigned math and
    // reverses exactly on decode.
    deltas[i - 1] = static_cast<int64_t>(static_cast<uint64_t>(v[i]) -
                                         static_cast<uint64_t>(v[i - 1]));
  }
  blockcodec::ActiveKernels().zigzag_encode(deltas.data(), deltas.size(),
                                            AsU64(deltas.data()));
  return ctx->EncodeIntChild(deltas, out);
}

Status DecodeDeltaInto(SliceReader* in, size_t n, int64_t* out) {
  if (n == 0) return Status::OK();
  Slice rest = in->ReadBytes(in->remaining());
  size_t pos = 0;
  uint64_t zz;
  if (!varint::GetVarint64(rest, &pos, &zz)) {
    return Status::Corruption("delta first value truncated");
  }
  in->Seek(in->position() - rest.size() + pos);
  out[0] = varint::ZigZagDecode(zz);
  if (n > 1) {
    // Decode the zigzag'd deltas straight into the output tail, undo
    // the zigzag in place, then prefix-sum.
    BULLION_RETURN_NOT_OK(
        DecodeIntBlockInto(in, std::span<int64_t>(out + 1, n - 1)));
    blockcodec::ActiveKernels().zigzag_decode(AsU64(out + 1), n - 1, out + 1);
    for (size_t i = 1; i < n; ++i) {
      out[i] = static_cast<int64_t>(static_cast<uint64_t>(out[i - 1]) +
                                    static_cast<uint64_t>(out[i]));
    }
  }
  return Status::OK();
}

Status EncodeConstant(std::span<const int64_t> v, BufferBuilder* out) {
  if (v.empty()) return Status::OK();
  for (int64_t x : v) {
    if (x != v[0]) {
      return Status::InvalidArgument("constant encoding requires one value");
    }
  }
  varint::PutVarint64(out, varint::ZigZagEncode(v[0]));
  return Status::OK();
}

Status DecodeConstantInto(SliceReader* in, size_t n, int64_t* out) {
  if (n == 0) return Status::OK();
  Slice rest = in->ReadBytes(in->remaining());
  size_t pos = 0;
  uint64_t zz;
  if (!varint::GetVarint64(rest, &pos, &zz)) {
    return Status::Corruption("constant value truncated");
  }
  in->Seek(in->position() - rest.size() + pos);
  std::fill_n(out, n, varint::ZigZagDecode(zz));
  return Status::OK();
}

}  // namespace intcodec
}  // namespace bullion
