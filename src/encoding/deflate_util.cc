#include "encoding/deflate_util.h"

#include <zlib.h>

#include <algorithm>
#include <vector>

#include "common/varint.h"

namespace bullion {
namespace deflate_util {

namespace {

/// Compresses `input` with deflate at the default level.
Status Compress(Slice input, std::vector<uint8_t>* out) {
  uLongf bound = compressBound(static_cast<uLong>(input.size()));
  out->resize(bound);
  int rc = compress2(out->data(), &bound, input.data(),
                     static_cast<uLong>(input.size()), Z_DEFAULT_COMPRESSION);
  if (rc != Z_OK) {
    return Status::IOError("deflate failed: " + std::to_string(rc));
  }
  out->resize(bound);
  return Status::OK();
}

/// Inflates `input` into exactly `raw_size` bytes at `out`.
Status Decompress(Slice input, size_t raw_size, uint8_t* out) {
  uLongf dest_len = static_cast<uLongf>(raw_size);
  int rc = uncompress(out, &dest_len, input.data(),
                      static_cast<uLong>(input.size()));
  if (rc != Z_OK || dest_len != raw_size) {
    return Status::Corruption("inflate failed: " + std::to_string(rc));
  }
  return Status::OK();
}

}  // namespace

Status CompressChunked(Slice input, BufferBuilder* out) {
  size_t n_chunks = (input.size() + kChunkSize - 1) / kChunkSize;
  varint::PutVarint64(out, n_chunks);
  for (size_t c = 0; c < n_chunks; ++c) {
    size_t off = c * kChunkSize;
    size_t len = std::min(kChunkSize, input.size() - off);
    std::vector<uint8_t> comp;
    BULLION_RETURN_NOT_OK(Compress(input.SubSlice(off, len), &comp));
    varint::PutVarint64(out, len);
    varint::PutVarint64(out, comp.size());
    out->AppendBytes(comp.data(), comp.size());
  }
  return Status::OK();
}

Status DecompressChunked(SliceReader* in, size_t raw_size, uint8_t* out) {
  Slice rest = in->ReadBytes(in->remaining());
  size_t pos = 0;
  uint64_t n_chunks;
  if (!varint::GetVarint64(rest, &pos, &n_chunks)) {
    return Status::Corruption("chunked: chunk count truncated");
  }
  size_t done = 0;
  for (uint64_t c = 0; c < n_chunks; ++c) {
    uint64_t raw_len, comp_len;
    if (!varint::GetVarint64(rest, &pos, &raw_len) ||
        !varint::GetVarint64(rest, &pos, &comp_len)) {
      return Status::Corruption("chunked: chunk header truncated");
    }
    if (raw_len > kChunkSize) {
      return Status::Corruption("chunked: raw length exceeds chunk size");
    }
    if (raw_len > raw_size - done) {
      return Status::Corruption("chunked: raw lengths exceed block size");
    }
    if (rest.size() - pos < comp_len) {
      return Status::Corruption("chunked: chunk payload truncated");
    }
    BULLION_RETURN_NOT_OK(
        Decompress(rest.SubSlice(pos, comp_len), raw_len, out + done));
    pos += comp_len;
    done += raw_len;
  }
  if (done != raw_size) {
    return Status::Corruption("chunked: raw lengths short of block size");
  }
  in->Seek(in->position() - rest.size() + pos);
  return Status::OK();
}

}  // namespace deflate_util
}  // namespace bullion
