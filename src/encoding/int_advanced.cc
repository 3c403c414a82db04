// Composite integer codecs: RLE, Dictionary, MainlyConstant, Sentinel,
// Nullable, Huffman.

#include <algorithm>
#include <map>
#include <queue>
#include <unordered_map>

#include "common/bit_util.h"
#include "common/varint.h"
#include "encoding/cascade.h"
#include "encoding/int_codecs.h"

namespace bullion {
namespace intcodec {

Status EncodeRle(std::span<const int64_t> v, CascadeContext* ctx,
                 BufferBuilder* out) {
  std::vector<int64_t> run_values;
  std::vector<int64_t> run_lengths;
  for (size_t i = 0; i < v.size();) {
    size_t j = i + 1;
    while (j < v.size() && v[j] == v[i]) ++j;
    run_values.push_back(v[i]);
    run_lengths.push_back(static_cast<int64_t>(j - i));
    i = j;
  }
  BULLION_RETURN_NOT_OK(ctx->EncodeIntChild(run_values, out));
  return ctx->EncodeIntChild(run_lengths, out);
}

Status DecodeRleInto(SliceReader* in, size_t n, int64_t* out) {
  std::vector<int64_t> run_values;
  std::vector<int64_t> run_lengths;
  BULLION_RETURN_NOT_OK(DecodeIntBlock(in, &run_values));
  BULLION_RETURN_NOT_OK(DecodeIntBlock(in, &run_lengths));
  if (run_values.size() != run_lengths.size()) {
    return Status::Corruption("rle run children size mismatch");
  }
  size_t done = 0;
  for (size_t r = 0; r < run_values.size(); ++r) {
    if (run_lengths[r] < 0) return Status::Corruption("negative run length");
    // Cap expansion at the header count so corrupted run lengths
    // cannot loop unboundedly.
    if (static_cast<uint64_t>(run_lengths[r]) > n - done) {
      return Status::Corruption("rle run overflows declared count");
    }
    std::fill_n(out + done, static_cast<size_t>(run_lengths[r]),
                run_values[r]);
    done += static_cast<size_t>(run_lengths[r]);
  }
  if (done != n) return Status::Corruption("rle total count mismatch");
  return Status::OK();
}

Status EncodeDictionary(std::span<const int64_t> v, CascadeContext* ctx,
                        BufferBuilder* out) {
  // Sorted distinct entries; codes reference them.
  std::vector<int64_t> entries(v.begin(), v.end());
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());

  std::unordered_map<int64_t, int64_t> index;
  index.reserve(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    index[entries[i]] = static_cast<int64_t>(i);
  }

  out->Append<uint8_t>(0);  // has_mask
  varint::PutVarint64(out, entries.size());
  BULLION_RETURN_NOT_OK(ctx->EncodeIntChild(entries, out));

  std::vector<int64_t> codes(v.size());
  for (size_t i = 0; i < v.size(); ++i) codes[i] = index[v[i]];
  return ctx->EncodeIntChild(codes, out);
}

Status DecodeDictionaryInto(SliceReader* in, size_t n, int64_t* out) {
  if (in->remaining() < 2) return Status::Corruption("dict header truncated");
  uint8_t has_mask = in->Read<uint8_t>();
  Slice rest = in->ReadBytes(in->remaining());
  size_t pos = 0;
  uint64_t n_entries;
  if (!varint::GetVarint64(rest, &pos, &n_entries)) {
    return Status::Corruption("dict entry count truncated");
  }
  in->Seek(in->position() - rest.size() + pos);

  std::vector<int64_t> entries;
  BULLION_RETURN_NOT_OK(DecodeIntBlock(in, &entries));
  if (entries.size() != n_entries) {
    return Status::Corruption("dict child count mismatch");
  }
  // Codes decode straight into the destination, then get replaced by
  // their dictionary entries in place — no n-sized temp.
  BULLION_RETURN_NOT_OK(DecodeIntBlockInto(in, std::span<int64_t>(out, n)));
  int64_t code_base = has_mask ? 1 : 0;
  for (size_t i = 0; i < n; ++i) {
    int64_t code = out[i];
    if (has_mask && code == 0) {
      // Deletion-masked slot decodes to 0; callers consult the deletion
      // vector to skip these rows (format/deletion.cc).
      out[i] = 0;
      continue;
    }
    int64_t idx = code - code_base;
    if (idx < 0 || static_cast<uint64_t>(idx) >= entries.size()) {
      return Status::Corruption("dict code out of range");
    }
    out[i] = entries[static_cast<size_t>(idx)];
  }
  return Status::OK();
}

Status EncodeMainlyConstant(std::span<const int64_t> v, CascadeContext* ctx,
                            BufferBuilder* out) {
  if (v.empty()) return Status::OK();
  // Majority value by frequency.
  std::unordered_map<int64_t, size_t> freq;
  for (int64_t x : v) ++freq[x];
  int64_t constant = v[0];
  size_t best = 0;
  for (const auto& [val, f] : freq) {
    if (f > best) {
      best = f;
      constant = val;
    }
  }
  std::vector<int64_t> positions;
  std::vector<int64_t> values;
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i] != constant) {
      positions.push_back(static_cast<int64_t>(i));
      values.push_back(v[i]);
    }
  }
  varint::PutVarint64(out, varint::ZigZagEncode(constant));
  varint::PutVarint64(out, positions.size());
  if (!positions.empty()) {
    BULLION_RETURN_NOT_OK(ctx->EncodeIntChild(positions, out));
    BULLION_RETURN_NOT_OK(ctx->EncodeIntChild(values, out));
  }
  return Status::OK();
}

Status DecodeMainlyConstantInto(SliceReader* in, size_t n, int64_t* out) {
  if (n == 0) return Status::OK();
  Slice rest = in->ReadBytes(in->remaining());
  size_t pos = 0;
  uint64_t zz, n_exc;
  if (!varint::GetVarint64(rest, &pos, &zz) ||
      !varint::GetVarint64(rest, &pos, &n_exc)) {
    return Status::Corruption("mainly-constant header truncated");
  }
  in->Seek(in->position() - rest.size() + pos);
  std::fill_n(out, n, varint::ZigZagDecode(zz));
  if (n_exc > 0) {
    std::vector<int64_t> positions;
    std::vector<int64_t> values;
    BULLION_RETURN_NOT_OK(DecodeIntBlock(in, &positions));
    BULLION_RETURN_NOT_OK(DecodeIntBlock(in, &values));
    if (positions.size() != n_exc || values.size() != n_exc) {
      return Status::Corruption("mainly-constant child count mismatch");
    }
    for (size_t i = 0; i < positions.size(); ++i) {
      if (positions[i] < 0 || static_cast<uint64_t>(positions[i]) >= n) {
        return Status::Corruption("mainly-constant position out of range");
      }
      out[static_cast<size_t>(positions[i])] = values[i];
    }
  }
  return Status::OK();
}

Status EncodeSentinel(std::span<const int64_t> v,
                      std::span<const uint8_t> validity, int64_t sentinel,
                      CascadeContext* ctx, BufferBuilder* out) {
  if (!validity.empty() && validity.size() != v.size()) {
    return Status::InvalidArgument("sentinel validity size mismatch");
  }
  // The sentinel must not collide with a live value.
  for (size_t i = 0; i < v.size(); ++i) {
    bool valid = validity.empty() || validity[i];
    if (valid && v[i] == sentinel) {
      return Status::InvalidArgument("sentinel value collides with data");
    }
  }
  varint::PutVarint64(out, varint::ZigZagEncode(sentinel));
  std::vector<int64_t> merged(v.begin(), v.end());
  for (size_t i = 0; i < merged.size(); ++i) {
    bool valid = validity.empty() || validity[i];
    if (!valid) merged[i] = sentinel;
  }
  return ctx->EncodeIntChild(merged, out);
}

Status DecodeSentinel(SliceReader* in, size_t n, std::vector<int64_t>* out,
                      std::vector<uint8_t>* validity) {
  out->clear();
  if (n == 0) return Status::OK();
  Slice rest = in->ReadBytes(in->remaining());
  size_t pos = 0;
  uint64_t zz;
  if (!varint::GetVarint64(rest, &pos, &zz)) {
    return Status::Corruption("sentinel header truncated");
  }
  in->Seek(in->position() - rest.size() + pos);
  int64_t sentinel = varint::ZigZagDecode(zz);
  BULLION_RETURN_NOT_OK(DecodeIntBlock(in, out));
  if (out->size() != n) return Status::Corruption("sentinel count mismatch");
  if (validity != nullptr) {
    validity->resize(n);
    for (size_t i = 0; i < n; ++i) {
      (*validity)[i] = (*out)[i] != sentinel ? 1 : 0;
    }
  }
  return Status::OK();
}

Status EncodeNullable(std::span<const int64_t> v,
                      std::span<const uint8_t> validity, CascadeContext* ctx,
                      BufferBuilder* out) {
  if (validity.size() != v.size()) {
    return Status::InvalidArgument("nullable validity size mismatch");
  }
  std::vector<int64_t> dense;
  dense.reserve(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    if (validity[i]) dense.push_back(v[i]);
  }
  BULLION_RETURN_NOT_OK(ctx->EncodeBoolChild(validity, out));
  return ctx->EncodeIntChild(dense, out);
}

Status DecodeNullable(SliceReader* in, size_t n, int64_t null_fill,
                      std::vector<int64_t>* out,
                      std::vector<uint8_t>* validity) {
  std::vector<uint8_t> valid;
  std::vector<int64_t> dense;
  BULLION_RETURN_NOT_OK(DecodeBoolBlock(in, &valid));
  BULLION_RETURN_NOT_OK(DecodeIntBlock(in, &dense));
  if (valid.size() != n) return Status::Corruption("nullable validity count");
  out->clear();
  out->reserve(n);
  size_t next = 0;
  for (size_t i = 0; i < n; ++i) {
    if (valid[i]) {
      if (next >= dense.size()) {
        return Status::Corruption("nullable dense values exhausted");
      }
      out->push_back(dense[next++]);
    } else {
      out->push_back(null_fill);
    }
  }
  if (next != dense.size()) {
    return Status::Corruption("nullable dense values excess");
  }
  if (validity != nullptr) *validity = std::move(valid);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Canonical Huffman over the distinct-value alphabet.
//
// Payload: [alphabet_size: varint]
//          [alphabet values: zigzag varint each, sorted]
//          [code length per symbol: u8 each]
//          [bit count: varint][packed bitstream]
// ---------------------------------------------------------------------------

namespace {

struct HuffmanNode {
  size_t freq;
  int symbol;  // -1 for interior
  int left = -1, right = -1;
};

/// Computes code lengths via a standard Huffman heap over the alphabet.
void ComputeCodeLengths(const std::vector<size_t>& freqs,
                        std::vector<int>* lengths) {
  size_t n = freqs.size();
  lengths->assign(n, 0);
  if (n == 1) {
    (*lengths)[0] = 1;
    return;
  }
  std::vector<HuffmanNode> nodes;
  nodes.reserve(2 * n);
  using Entry = std::pair<size_t, int>;  // (freq, node index)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (size_t i = 0; i < n; ++i) {
    nodes.push_back({freqs[i], static_cast<int>(i)});
    heap.push({freqs[i], static_cast<int>(i)});
  }
  while (heap.size() > 1) {
    auto [fa, a] = heap.top();
    heap.pop();
    auto [fb, b] = heap.top();
    heap.pop();
    HuffmanNode parent{fa + fb, -1, a, b};
    nodes.push_back(parent);
    heap.push({fa + fb, static_cast<int>(nodes.size() - 1)});
  }
  // Depth-first traversal assigning depths as code lengths.
  std::vector<std::pair<int, int>> stack = {{heap.top().second, 0}};
  while (!stack.empty()) {
    auto [idx, depth] = stack.back();
    stack.pop_back();
    const HuffmanNode& node = nodes[static_cast<size_t>(idx)];
    if (node.symbol >= 0) {
      (*lengths)[static_cast<size_t>(node.symbol)] = std::max(1, depth);
    } else {
      stack.push_back({node.left, depth + 1});
      stack.push_back({node.right, depth + 1});
    }
  }
}

/// Assigns canonical codes from lengths (symbols pre-sorted by value;
/// canonical order: by (length, symbol index)).
void AssignCanonicalCodes(const std::vector<int>& lengths,
                          std::vector<uint64_t>* codes) {
  size_t n = lengths.size();
  codes->assign(n, 0);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return lengths[a] < lengths[b];
  });
  uint64_t code = 0;
  int prev_len = 0;
  for (size_t k = 0; k < n; ++k) {
    size_t sym = order[k];
    int len = lengths[sym];
    code <<= (len - prev_len);
    (*codes)[sym] = code;
    ++code;
    prev_len = len;
  }
}

}  // namespace

Status EncodeHuffman(std::span<const int64_t> v, BufferBuilder* out) {
  std::map<int64_t, size_t> freq;
  for (int64_t x : v) ++freq[x];
  if (freq.size() > kMaxHuffmanAlphabet) {
    return Status::InvalidArgument("huffman alphabet too large");
  }
  std::vector<int64_t> alphabet;
  std::vector<size_t> freqs;
  std::unordered_map<int64_t, size_t> sym_index;
  for (const auto& [val, f] : freq) {
    sym_index[val] = alphabet.size();
    alphabet.push_back(val);
    freqs.push_back(f);
  }
  varint::PutVarint64(out, alphabet.size());
  if (alphabet.empty()) return Status::OK();

  std::vector<int> lengths;
  ComputeCodeLengths(freqs, &lengths);
  if (*std::max_element(lengths.begin(), lengths.end()) > 57) {
    return Status::InvalidArgument("huffman code too long");
  }
  std::vector<uint64_t> codes;
  AssignCanonicalCodes(lengths, &codes);

  for (int64_t a : alphabet) {
    varint::PutVarint64(out, varint::ZigZagEncode(a));
  }
  for (int len : lengths) out->Append<uint8_t>(static_cast<uint8_t>(len));

  BitWriter bw;
  for (int64_t x : v) {
    size_t s = sym_index[x];
    // Emit MSB-first so canonical prefix decoding works.
    uint64_t code = codes[s];
    for (int b = lengths[s] - 1; b >= 0; --b) {
      bw.WriteBit((code >> b) & 1);
    }
  }
  varint::PutVarint64(out, bw.bit_count());
  const std::vector<uint8_t>& bytes = bw.bytes();
  out->AppendBytes(bytes.data(), bytes.size());
  return Status::OK();
}

Status DecodeHuffmanInto(SliceReader* in, size_t n, int64_t* out) {
  Slice rest = in->ReadBytes(in->remaining());
  size_t pos = 0;
  uint64_t alpha_n;
  if (!varint::GetVarint64(rest, &pos, &alpha_n)) {
    return Status::Corruption("huffman alphabet size truncated");
  }
  if (alpha_n == 0) {
    if (n != 0) return Status::Corruption("huffman empty alphabet");
    in->Seek(in->position() - rest.size() + pos);
    return Status::OK();
  }
  std::vector<int64_t> alphabet(alpha_n);
  for (uint64_t i = 0; i < alpha_n; ++i) {
    uint64_t zz;
    if (!varint::GetVarint64(rest, &pos, &zz)) {
      return Status::Corruption("huffman alphabet truncated");
    }
    alphabet[i] = varint::ZigZagDecode(zz);
  }
  std::vector<int> lengths(alpha_n);
  for (uint64_t i = 0; i < alpha_n; ++i) {
    if (pos >= rest.size()) return Status::Corruption("huffman lengths cut");
    lengths[i] = rest[pos++];
    // The encoder rejects codes longer than 57 bits; anything wider is
    // corruption and would overflow the canonical-code shifts.
    if (lengths[i] > 57) {
      return Status::Corruption("huffman code length out of range");
    }
  }
  std::vector<uint64_t> codes;
  AssignCanonicalCodes(lengths, &codes);

  uint64_t bit_count;
  if (!varint::GetVarint64(rest, &pos, &bit_count)) {
    return Status::Corruption("huffman bit count truncated");
  }
  size_t byte_count = bit_util::RoundUpToBytes(bit_count);
  if (rest.size() - pos < byte_count) {
    return Status::Corruption("huffman bitstream truncated");
  }
  Slice bits = rest.SubSlice(pos, byte_count);
  pos += byte_count;

  // Decode by walking (code, length) pairs; build a map from
  // (length, code) to symbol for O(max_len) per symbol decoding.
  std::map<std::pair<int, uint64_t>, size_t> decode_map;
  for (size_t s = 0; s < codes.size(); ++s) {
    decode_map[{lengths[s], codes[s]}] = s;
  }

  BitReader br(bits);
  size_t consumed = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t code = 0;
    int len = 0;
    while (true) {
      if (consumed >= bit_count) {
        return Status::Corruption("huffman bitstream exhausted");
      }
      code = (code << 1) | (br.ReadBit() ? 1 : 0);
      ++consumed;
      ++len;
      auto it = decode_map.find({len, code});
      if (it != decode_map.end()) {
        out[i] = alphabet[it->second];
        break;
      }
      if (len > 57) return Status::Corruption("huffman invalid code");
    }
  }
  in->Seek(in->position() - rest.size() + pos);
  return Status::OK();
}

}  // namespace intcodec
}  // namespace bullion
