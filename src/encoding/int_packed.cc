// Block-packed integer codecs: FastBP128, FastPFor (patched
// frame-of-reference), BitShuffle (+deflate), and Chunked for ints.
// FastPFor/FastBP128 keep the Lemire-family layout (per-128 miniblocks,
// per-block width, patched exceptions); since a 128-value miniblock of
// any fixed width starts byte-aligned, each decodes independently
// through the dispatched block kernels (encoding/block_codec.h).

#include <algorithm>

#include "common/bit_util.h"
#include "common/varint.h"
#include "encoding/block_codec.h"
#include "encoding/deflate_util.h"
#include "encoding/int_codecs.h"

namespace bullion {
namespace intcodec {

namespace {

constexpr size_t kBlockSize = 128;

/// Per-block frame of reference: returns min of the block.
int64_t BlockMin(std::span<const int64_t> block) {
  return *std::min_element(block.begin(), block.end());
}

inline uint64_t* AsU64(int64_t* p) { return reinterpret_cast<uint64_t*>(p); }

}  // namespace

Status EncodeFastBP128(std::span<const int64_t> v, BufferBuilder* out) {
  const blockcodec::Kernels& k = blockcodec::ActiveKernels();
  std::vector<uint64_t> offsets(std::min(kBlockSize, v.size()));
  size_t n_blocks = (v.size() + kBlockSize - 1) / kBlockSize;
  for (size_t b = 0; b < n_blocks; ++b) {
    size_t off = b * kBlockSize;
    size_t len = std::min(kBlockSize, v.size() - off);
    std::span<const int64_t> block = v.subspan(off, len);
    int64_t base = BlockMin(block);
    k.sub_base(block.data(), base, len, offsets.data());
    uint64_t max_off = 0;
    for (size_t i = 0; i < len; ++i) max_off = std::max(max_off, offsets[i]);
    int width = std::max(1, bit_util::BitWidth(max_off));
    varint::PutVarint64(out, varint::ZigZagEncode(base));
    out->Append<uint8_t>(static_cast<uint8_t>(width));
    uint8_t* dst = out->AppendZeros(
        bit_util::RoundUpToBytes(len * static_cast<size_t>(width)));
    k.pack_bits(offsets.data(), len, width, dst);
  }
  return Status::OK();
}

Status DecodeFastBP128Into(SliceReader* in, size_t n, int64_t* out) {
  const blockcodec::Kernels& k = blockcodec::ActiveKernels();
  Slice rest = in->ReadBytes(in->remaining());
  size_t pos = 0;
  size_t done = 0;
  while (done < n) {
    size_t len = std::min(kBlockSize, n - done);
    uint64_t zz;
    if (!varint::GetVarint64(rest, &pos, &zz)) {
      return Status::Corruption("bp128 base truncated");
    }
    int64_t base = varint::ZigZagDecode(zz);
    if (pos >= rest.size()) return Status::Corruption("bp128 width missing");
    int width = rest[pos++];
    if (width > 64) return Status::Corruption("bp128 width out of range");
    size_t bytes = bit_util::RoundUpToBytes(len * static_cast<size_t>(width));
    if (rest.size() - pos < bytes) {
      return Status::Corruption("bp128 packed truncated");
    }
    k.unpack_bits(rest.data() + pos, bytes, len, width, AsU64(out + done));
    k.add_base(base, len, out + done);
    pos += bytes;
    done += len;
  }
  in->Seek(in->position() - rest.size() + pos);
  return Status::OK();
}

// FastPFor block layout:
//   [base: zigzag varint][width: u8]
//   [packed (v - base) & ((1<<width)-1), len values]
//   [n_exceptions: varint]
//   per exception: [idx: varint][high bits: varint]
// Width is chosen as the 87.5th percentile bit width of the block so
// ~1/8 of values become exceptions at most.
Status EncodeFastPFor(std::span<const int64_t> v, BufferBuilder* out) {
  const blockcodec::Kernels& k = blockcodec::ActiveKernels();
  size_t n_blocks = (v.size() + kBlockSize - 1) / kBlockSize;
  for (size_t b = 0; b < n_blocks; ++b) {
    size_t off = b * kBlockSize;
    size_t len = std::min(kBlockSize, v.size() - off);
    std::span<const int64_t> block = v.subspan(off, len);
    int64_t base = BlockMin(block);

    std::vector<uint64_t> offsets(len);
    std::vector<int> widths(len);
    k.sub_base(block.data(), base, len, offsets.data());
    for (size_t i = 0; i < len; ++i) {
      widths[i] = bit_util::BitWidth(offsets[i]);
    }
    std::vector<int> sorted_widths = widths;
    std::sort(sorted_widths.begin(), sorted_widths.end());
    int width =
        std::max(1, sorted_widths[(len * 7) / 8 == len ? len - 1 : (len * 7) / 8]);

    varint::PutVarint64(out, varint::ZigZagEncode(base));
    out->Append<uint8_t>(static_cast<uint8_t>(width));

    std::vector<uint64_t> low(len);
    std::vector<std::pair<size_t, uint64_t>> exceptions;
    uint64_t mask = width == 64 ? ~0ull : ((1ull << width) - 1);
    for (size_t i = 0; i < len; ++i) {
      low[i] = offsets[i] & mask;
      if (widths[i] > width) {
        exceptions.push_back({i, offsets[i] >> width});
      }
    }
    uint8_t* dst = out->AppendZeros(
        bit_util::RoundUpToBytes(len * static_cast<size_t>(width)));
    k.pack_bits(low.data(), len, width, dst);
    varint::PutVarint64(out, exceptions.size());
    for (const auto& [idx, high] : exceptions) {
      varint::PutVarint64(out, idx);
      varint::PutVarint64(out, high);
    }
  }
  return Status::OK();
}

Status DecodeFastPForInto(SliceReader* in, size_t n, int64_t* out) {
  const blockcodec::Kernels& k = blockcodec::ActiveKernels();
  Slice rest = in->ReadBytes(in->remaining());
  size_t pos = 0;
  size_t done = 0;
  while (done < n) {
    size_t len = std::min(kBlockSize, n - done);
    uint64_t zz;
    if (!varint::GetVarint64(rest, &pos, &zz)) {
      return Status::Corruption("pfor base truncated");
    }
    int64_t base = varint::ZigZagDecode(zz);
    if (pos >= rest.size()) return Status::Corruption("pfor width missing");
    int width = rest[pos++];
    if (width > 64) return Status::Corruption("pfor width out of range");
    size_t bytes = bit_util::RoundUpToBytes(len * static_cast<size_t>(width));
    if (rest.size() - pos < bytes) {
      return Status::Corruption("pfor packed truncated");
    }
    uint64_t* low = AsU64(out + done);
    k.unpack_bits(rest.data() + pos, bytes, len, width, low);
    pos += bytes;
    uint64_t n_exc;
    if (!varint::GetVarint64(rest, &pos, &n_exc)) {
      return Status::Corruption("pfor exception count truncated");
    }
    // A valid encoder only emits exceptions for values wider than
    // `width`, which is impossible at width 64 — and `high << 64` would
    // be UB, so reject rather than reconstruct.
    if (n_exc > 0 && width >= 64) {
      return Status::Corruption("pfor exceptions at full width");
    }
    for (uint64_t e = 0; e < n_exc; ++e) {
      uint64_t idx, high;
      if (!varint::GetVarint64(rest, &pos, &idx) ||
          !varint::GetVarint64(rest, &pos, &high)) {
        return Status::Corruption("pfor exception truncated");
      }
      if (idx >= len) return Status::Corruption("pfor exception idx range");
      low[idx] |= high << width;
    }
    k.add_base(base, len, out + done);
    done += len;
  }
  in->Seek(in->position() - rest.size() + pos);
  return Status::OK();
}

// BitShuffle: transpose the n x 64 bit matrix of values so bit plane j
// holds bit j of every value, then deflate the planes. Low-entropy high
// bits become long zero runs that deflate collapses.
Status EncodeBitShuffle(std::span<const int64_t> v, BufferBuilder* out) {
  std::vector<uint8_t> planes(blockcodec::BitPlaneBytes(v.size()));
  blockcodec::ActiveKernels().transpose_bits(
      reinterpret_cast<const uint64_t*>(v.data()), v.size(), planes.data());
  return deflate_util::CompressChunked(
      Slice(planes.data(), planes.size()), out);
}

Status DecodeBitShuffleInto(SliceReader* in, size_t n, int64_t* out) {
  std::vector<uint8_t> planes(blockcodec::BitPlaneBytes(n));
  BULLION_RETURN_NOT_OK(
      deflate_util::DecompressChunked(in, planes.size(), planes.data()));
  blockcodec::ActiveKernels().untranspose_bits(planes.data(), n, AsU64(out));
  return Status::OK();
}

Status EncodeChunked(std::span<const int64_t> v, BufferBuilder* out) {
  return deflate_util::CompressChunked(
      Slice(reinterpret_cast<const uint8_t*>(v.data()),
            v.size() * sizeof(int64_t)),
      out);
}

Status DecodeChunkedInto(SliceReader* in, size_t n, int64_t* out) {
  return deflate_util::DecompressChunked(in, n * sizeof(int64_t),
                                         reinterpret_cast<uint8_t*>(out));
}

}  // namespace intcodec
}  // namespace bullion
