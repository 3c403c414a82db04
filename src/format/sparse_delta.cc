#include "format/sparse_delta.h"

#include <algorithm>
#include <unordered_map>

#include "encoding/cascade.h"

namespace bullion {

WindowMatch FindBestWindow(std::span<const int64_t> prev,
                           std::span<const int64_t> cur,
                           size_t min_overlap) {
  WindowMatch best{false, 0, 0, 0, static_cast<size_t>(cur.size())};
  if (prev.empty() || cur.empty()) return best;

  // For each alignment shift between cur and prev, find the longest run
  // of equal elements. shift = (index in cur) - (index in prev);
  // shift in [-(prev.size()-1), cur.size()-1].
  size_t best_len = 0;
  for (int64_t shift = -(static_cast<int64_t>(prev.size()) - 1);
       shift < static_cast<int64_t>(cur.size()); ++shift) {
    size_t p_begin = shift < 0 ? static_cast<size_t>(-shift) : 0;
    size_t c_begin = shift > 0 ? static_cast<size_t>(shift) : 0;
    size_t len = std::min(prev.size() - p_begin, cur.size() - c_begin);
    size_t run = 0;
    size_t run_start_c = c_begin;
    size_t run_start_p = p_begin;
    for (size_t k = 0; k < len; ++k) {
      if (cur[c_begin + k] == prev[p_begin + k]) {
        if (run == 0) {
          run_start_c = c_begin + k;
          run_start_p = p_begin + k;
        }
        ++run;
        if (run > best_len) {
          best_len = run;
          best.range_start = run_start_p;
          best.range_end = run_start_p + run;
          best.head_len = run_start_c;
          best.tail_len = cur.size() - (run_start_c + run);
        }
      } else {
        run = 0;
      }
    }
  }
  best.is_delta = best_len >= min_overlap;
  if (!best.is_delta) {
    best.range_start = best.range_end = 0;
    best.head_len = 0;
    best.tail_len = cur.size();
  }
  return best;
}

Result<Buffer> EncodeSparseDeltaColumn(std::span<const int64_t> offsets,
                                       std::span<const int64_t> values,
                                       const CascadeOptions& cascade) {
  if (offsets.empty()) {
    return Status::InvalidArgument("offsets must have at least one entry");
  }
  size_t num_rows = offsets.size() - 1;

  std::vector<uint8_t> flags;             // 1 = delta
  std::vector<int64_t> range_starts;      // per delta row
  std::vector<int64_t> range_ends;        // per delta row
  std::vector<int64_t> head_lens;         // per row
  std::vector<int64_t> tail_lens;         // per row
  std::vector<int64_t> data;              // bases + heads + tails
  flags.reserve(num_rows);

  std::span<const int64_t> prev;
  for (size_t r = 0; r < num_rows; ++r) {
    size_t b = static_cast<size_t>(offsets[r]);
    size_t e = static_cast<size_t>(offsets[r + 1]);
    std::span<const int64_t> cur = values.subspan(b, e - b);
    WindowMatch m = FindBestWindow(prev, cur, kMinSparseOverlap);
    if (m.is_delta) {
      flags.push_back(1);
      range_starts.push_back(static_cast<int64_t>(m.range_start));
      range_ends.push_back(static_cast<int64_t>(m.range_end));
      head_lens.push_back(static_cast<int64_t>(m.head_len));
      tail_lens.push_back(static_cast<int64_t>(m.tail_len));
      data.insert(data.end(), cur.begin(), cur.begin() + m.head_len);
      data.insert(data.end(), cur.end() - m.tail_len, cur.end());
    } else {
      flags.push_back(0);
      head_lens.push_back(0);
      tail_lens.push_back(static_cast<int64_t>(cur.size()));
      data.insert(data.end(), cur.begin(), cur.end());
    }
    prev = cur;
  }

  // Block layout: [tag][num_rows varint] then metadata children then
  // the bulk data child.
  BufferBuilder out;
  WriteBlockHeader(EncodingType::kSparseDelta, num_rows, &out);
  CascadeContext ctx(cascade, 0);
  BULLION_RETURN_NOT_OK(ctx.EncodeBoolChild(flags, &out));
  BULLION_RETURN_NOT_OK(ctx.EncodeIntChild(range_starts, &out));
  BULLION_RETURN_NOT_OK(ctx.EncodeIntChild(range_ends, &out));
  BULLION_RETURN_NOT_OK(ctx.EncodeIntChild(head_lens, &out));
  BULLION_RETURN_NOT_OK(ctx.EncodeIntChild(tail_lens, &out));
  // Bulk data: mini-batch reads, infrequent filtering -> block compress.
  BULLION_RETURN_NOT_OK(
      EncodeIntBlockAs(EncodingType::kChunked, data, &ctx, &out));
  return out.Finish();
}

Status DecodeSparseDeltaColumn(Slice block, std::vector<int64_t>* offsets,
                               std::vector<int64_t>* values) {
  SliceReader in(block);
  BULLION_ASSIGN_OR_RETURN(BlockHeader header, ReadBlockHeader(&in));
  if (header.type != EncodingType::kSparseDelta) {
    return Status::Corruption("expected sparse-delta block");
  }
  size_t num_rows = header.count;

  std::vector<uint8_t> flags;
  std::vector<int64_t> range_starts, range_ends, head_lens, tail_lens, data;
  BULLION_RETURN_NOT_OK(DecodeBoolBlock(&in, &flags));
  BULLION_RETURN_NOT_OK(DecodeIntBlock(&in, &range_starts));
  BULLION_RETURN_NOT_OK(DecodeIntBlock(&in, &range_ends));
  BULLION_RETURN_NOT_OK(DecodeIntBlock(&in, &head_lens));
  BULLION_RETURN_NOT_OK(DecodeIntBlock(&in, &tail_lens));
  BULLION_RETURN_NOT_OK(DecodeIntBlock(&in, &data));
  if (flags.size() != num_rows || head_lens.size() != num_rows ||
      tail_lens.size() != num_rows) {
    return Status::Corruption("sparse-delta metadata count mismatch");
  }

  offsets->clear();
  values->clear();
  offsets->push_back(0);
  size_t data_pos = 0;
  size_t delta_idx = 0;
  std::vector<int64_t> prev;
  for (size_t r = 0; r < num_rows; ++r) {
    std::vector<int64_t> cur;
    size_t head = static_cast<size_t>(head_lens[r]);
    size_t tail = static_cast<size_t>(tail_lens[r]);
    if (flags[r]) {
      if (delta_idx >= range_starts.size()) {
        return Status::Corruption("sparse-delta range stream exhausted");
      }
      size_t s = static_cast<size_t>(range_starts[delta_idx]);
      size_t e = static_cast<size_t>(range_ends[delta_idx]);
      ++delta_idx;
      if (s > e || e > prev.size()) {
        return Status::Corruption("sparse-delta range out of bounds");
      }
      if (data_pos + head + tail > data.size()) {
        return Status::Corruption("sparse-delta data stream exhausted");
      }
      cur.reserve(head + (e - s) + tail);
      cur.insert(cur.end(), data.begin() + data_pos,
                 data.begin() + data_pos + head);
      data_pos += head;
      cur.insert(cur.end(), prev.begin() + s, prev.begin() + e);
      cur.insert(cur.end(), data.begin() + data_pos,
                 data.begin() + data_pos + tail);
      data_pos += tail;
    } else {
      if (data_pos + tail > data.size()) {
        return Status::Corruption("sparse-delta base stream exhausted");
      }
      cur.assign(data.begin() + data_pos, data.begin() + data_pos + tail);
      data_pos += tail;
    }
    values->insert(values->end(), cur.begin(), cur.end());
    offsets->push_back(static_cast<int64_t>(values->size()));
    prev = std::move(cur);
  }
  if (delta_idx != range_starts.size() || data_pos != data.size()) {
    return Status::Corruption("sparse-delta trailing payload");
  }
  return Status::OK();
}

}  // namespace bullion
