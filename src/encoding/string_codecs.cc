#include "encoding/string_codecs.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>

#include "common/varint.h"
#include "encoding/cascade.h"
#include "encoding/deflate_util.h"

namespace bullion {
namespace stringcodec {

namespace {

Status DecodeLengths(SliceReader* in, size_t n, std::vector<int64_t>* lengths,
                     size_t* total) {
  BULLION_RETURN_NOT_OK(DecodeIntBlock(in, lengths));
  if (lengths->size() != n) {
    return Status::Corruption("string lengths child count mismatch");
  }
  *total = 0;
  for (int64_t len : *lengths) {
    if (len < 0) return Status::Corruption("negative string length");
    if (static_cast<uint64_t>(len) > SIZE_MAX - *total) {
      return Status::Corruption("string lengths overflow");
    }
    *total += static_cast<size_t>(len);
  }
  return Status::OK();
}

}  // namespace

Status EncodeTrivial(std::span<const std::string> v, CascadeContext* ctx,
                     BufferBuilder* out) {
  std::vector<int64_t> lengths(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    lengths[i] = static_cast<int64_t>(v[i].size());
  }
  BULLION_RETURN_NOT_OK(ctx->EncodeIntChild(lengths, out));
  for (const std::string& s : v) out->AppendBytes(s.data(), s.size());
  return Status::OK();
}

Status DecodeTrivial(SliceReader* in, size_t n,
                     std::vector<std::string>* out) {
  std::vector<int64_t> lengths;
  size_t total = 0;
  BULLION_RETURN_NOT_OK(DecodeLengths(in, n, &lengths, &total));
  if (in->remaining() < total) {
    return Status::Corruption("string bytes truncated");
  }
  Slice bytes = in->ReadBytes(total);
  out->clear();
  out->reserve(n);
  size_t off = 0;
  for (int64_t len : lengths) {
    out->push_back(bytes.SubSlice(off, static_cast<size_t>(len)).ToString());
    off += static_cast<size_t>(len);
  }
  return Status::OK();
}

Status EncodeDict(std::span<const std::string> v, CascadeContext* ctx,
                  BufferBuilder* out) {
  std::vector<std::string> entries(v.begin(), v.end());
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  std::unordered_map<std::string, int64_t> index;
  index.reserve(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    index[entries[i]] = static_cast<int64_t>(i);
  }
  varint::PutVarint64(out, entries.size());
  std::vector<int64_t> entry_lengths(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    entry_lengths[i] = static_cast<int64_t>(entries[i].size());
  }
  BULLION_RETURN_NOT_OK(ctx->EncodeIntChild(entry_lengths, out));
  for (const std::string& e : entries) out->AppendBytes(e.data(), e.size());
  std::vector<int64_t> codes(v.size());
  for (size_t i = 0; i < v.size(); ++i) codes[i] = index[v[i]];
  return ctx->EncodeIntChild(codes, out);
}

Status DecodeDict(SliceReader* in, size_t n, std::vector<std::string>* out) {
  Slice rest = in->ReadBytes(in->remaining());
  size_t pos = 0;
  uint64_t n_entries;
  if (!varint::GetVarint64(rest, &pos, &n_entries)) {
    return Status::Corruption("string dict entry count truncated");
  }
  in->Seek(in->position() - rest.size() + pos);

  std::vector<int64_t> entry_lengths;
  size_t total = 0;
  BULLION_RETURN_NOT_OK(
      DecodeLengths(in, n_entries, &entry_lengths, &total));
  if (in->remaining() < total) {
    return Status::Corruption("string dict bytes truncated");
  }
  Slice bytes = in->ReadBytes(total);
  std::vector<std::string> entries;
  entries.reserve(n_entries);
  size_t off = 0;
  for (int64_t len : entry_lengths) {
    entries.push_back(bytes.SubSlice(off, static_cast<size_t>(len)).ToString());
    off += static_cast<size_t>(len);
  }
  std::vector<int64_t> codes;
  BULLION_RETURN_NOT_OK(DecodeIntBlock(in, &codes));
  if (codes.size() != n) return Status::Corruption("dict codes count");
  out->clear();
  out->reserve(n);
  for (int64_t code : codes) {
    if (code < 0 || static_cast<uint64_t>(code) >= entries.size()) {
      return Status::Corruption("string dict code out of range");
    }
    out->push_back(entries[static_cast<size_t>(code)]);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// FSST (simplified): greedily train up to 255 symbols of length 2..8 on
// the corpus sample by repeatedly taking the highest-gain substrings.
// Encoding replaces the longest symbol match with its 1-byte code;
// bytes with no match are emitted as [0xFF escape][literal].
// ---------------------------------------------------------------------------

namespace {

constexpr uint8_t kEscape = 0xFF;
constexpr size_t kMaxSymbols = 255;  // codes 0..254
constexpr size_t kMaxSymbolLen = 8;

struct SymbolTable {
  std::vector<std::string> symbols;
  // Longest-match lookup: map from 2-byte prefix to candidate symbol
  // indices sorted by descending length, plus a direct map for
  // single-byte symbols (real FSST also spends codes on frequent single
  // bytes — each avoids a 2-byte escape).
  std::unordered_map<uint16_t, std::vector<uint32_t>> prefix_index;
  int16_t byte_code[256];

  void BuildIndex() {
    prefix_index.clear();
    for (int i = 0; i < 256; ++i) byte_code[i] = -1;
    for (uint32_t i = 0; i < symbols.size(); ++i) {
      const std::string& s = symbols[i];
      if (s.size() == 1) {
        byte_code[static_cast<uint8_t>(s[0])] = static_cast<int16_t>(i);
        continue;
      }
      uint16_t p = static_cast<uint16_t>(
          (static_cast<uint8_t>(s[0]) << 8) | static_cast<uint8_t>(s[1]));
      prefix_index[p].push_back(i);
    }
    for (auto& [p, vec] : prefix_index) {
      std::sort(vec.begin(), vec.end(), [&](uint32_t a, uint32_t b) {
        return symbols[a].size() > symbols[b].size();
      });
    }
  }

  /// Longest symbol matching a prefix of data[pos..]; -1 if none.
  int Match(const std::string& data, size_t pos) const {
    if (pos + 2 <= data.size()) {
      uint16_t p = static_cast<uint16_t>(
          (static_cast<uint8_t>(data[pos]) << 8) |
          static_cast<uint8_t>(data[pos + 1]));
      auto it = prefix_index.find(p);
      if (it != prefix_index.end()) {
        for (uint32_t idx : it->second) {
          const std::string& s = symbols[idx];
          if (pos + s.size() <= data.size() &&
              data.compare(pos, s.size(), s) == 0) {
            return static_cast<int>(idx);
          }
        }
      }
    }
    return byte_code[static_cast<uint8_t>(data[pos])];
  }
};

SymbolTable TrainSymbolTable(std::span<const std::string> corpus) {
  // Count substring frequencies of lengths 2..8 on a bounded sample.
  // The byte budget and the position stride keep training cost low even
  // when the encoder is trial-run per page by the cascade selector.
  std::unordered_map<std::string, size_t> freq;
  freq.reserve(1 << 14);
  constexpr size_t kBudget = 128 << 10;  // bytes of sample scanned
  size_t scanned = 0;
  size_t stride = 1;
  {
    size_t total = 0;
    for (const std::string& s : corpus) total += s.size();
    stride = std::max<size_t>(1, total / kBudget);
  }
  size_t byte_freq[256] = {};
  for (const std::string& s : corpus) {
    if (scanned >= kBudget * stride) break;
    for (size_t pos = 0; pos < s.size(); pos += stride) {
      ++byte_freq[static_cast<uint8_t>(s[pos])];
      for (size_t len = 2; len <= kMaxSymbolLen && pos + len <= s.size();
           ++len) {
        ++freq[s.substr(pos, len)];
      }
    }
    scanned += s.size();
  }
  // Gain of a multi-byte symbol: replaces len literal bytes (2 encoded
  // bytes each, escape + byte) with 1 code -> 2*len - 1 per occurrence.
  // Gain of a single-byte symbol: avoids the escape -> 1 per occurrence.
  std::vector<std::pair<int64_t, std::string>> scored;
  scored.reserve(freq.size() + 256);
  for (auto& [sub, f] : freq) {
    if (f < 2) continue;
    scored.push_back(
        {static_cast<int64_t>((2 * sub.size() - 1) * f), sub});
  }
  for (int b = 0; b < 256; ++b) {
    if (byte_freq[b] < 2) continue;
    scored.push_back({static_cast<int64_t>(byte_freq[b]),
                      std::string(1, static_cast<char>(b))});
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  SymbolTable table;
  for (const auto& [gain, sub] : scored) {
    if (table.symbols.size() >= kMaxSymbols) break;
    table.symbols.push_back(sub);
  }
  table.BuildIndex();
  return table;
}

}  // namespace

Status EncodeFsst(std::span<const std::string> v, CascadeContext* ctx,
                  BufferBuilder* out) {
  SymbolTable table = TrainSymbolTable(v);

  out->Append<uint8_t>(static_cast<uint8_t>(table.symbols.size()));
  for (const std::string& s : table.symbols) {
    out->Append<uint8_t>(static_cast<uint8_t>(s.size()));
    out->AppendBytes(s.data(), s.size());
  }

  std::string encoded;
  std::vector<int64_t> enc_lengths(v.size());
  std::vector<int64_t> raw_lengths(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    const std::string& s = v[i];
    raw_lengths[i] = static_cast<int64_t>(s.size());
    size_t start = encoded.size();
    size_t pos = 0;
    while (pos < s.size()) {
      int m = table.Match(s, pos);
      if (m >= 0) {
        encoded.push_back(static_cast<char>(m));
        pos += table.symbols[static_cast<size_t>(m)].size();
      } else {
        encoded.push_back(static_cast<char>(kEscape));
        encoded.push_back(s[pos]);
        ++pos;
      }
    }
    enc_lengths[i] = static_cast<int64_t>(encoded.size() - start);
  }

  BULLION_RETURN_NOT_OK(ctx->EncodeIntChild(enc_lengths, out));
  varint::PutVarint64(out, encoded.size());
  out->AppendBytes(encoded.data(), encoded.size());
  return Status::OK();
}

Status DecodeFsst(SliceReader* in, size_t n, std::vector<std::string>* out) {
  if (in->remaining() < 1) return Status::Corruption("fsst header truncated");
  size_t n_syms = in->Read<uint8_t>();
  std::vector<std::string> symbols(n_syms);
  for (size_t i = 0; i < n_syms; ++i) {
    if (in->remaining() < 1) return Status::Corruption("fsst symbol cut");
    size_t len = in->Read<uint8_t>();
    if (in->remaining() < len) return Status::Corruption("fsst symbol cut");
    symbols[i] = in->ReadBytes(len).ToString();
  }
  std::vector<int64_t> enc_lengths;
  BULLION_RETURN_NOT_OK(DecodeIntBlock(in, &enc_lengths));
  if (enc_lengths.size() != n) {
    return Status::Corruption("fsst lengths count mismatch");
  }
  Slice rest = in->ReadBytes(in->remaining());
  size_t pos = 0;
  uint64_t total;
  if (!varint::GetVarint64(rest, &pos, &total)) {
    return Status::Corruption("fsst total truncated");
  }
  if (rest.size() - pos < total) {
    return Status::Corruption("fsst encoded bytes truncated");
  }
  Slice encoded = rest.SubSlice(pos, total);
  pos += total;

  out->clear();
  out->reserve(n);
  size_t off = 0;
  for (size_t i = 0; i < n; ++i) {
    if (enc_lengths[i] < 0) return Status::Corruption("fsst negative length");
    size_t len = static_cast<size_t>(enc_lengths[i]);
    if (off + len > encoded.size()) {
      return Status::Corruption("fsst encoded overrun");
    }
    std::string s;
    size_t p = off;
    size_t end = off + len;
    while (p < end) {
      uint8_t code = encoded[p++];
      if (code == kEscape) {
        if (p >= end) return Status::Corruption("fsst dangling escape");
        s.push_back(static_cast<char>(encoded[p++]));
      } else {
        if (code >= symbols.size()) {
          return Status::Corruption("fsst code out of range");
        }
        s += symbols[code];
      }
    }
    out->push_back(std::move(s));
    off = end;
  }
  in->Seek(in->position() - rest.size() + pos);
  return Status::OK();
}

Status EncodeChunked(std::span<const std::string> v, CascadeContext* ctx,
                     BufferBuilder* out) {
  std::vector<int64_t> lengths(v.size());
  std::string all;
  for (size_t i = 0; i < v.size(); ++i) {
    lengths[i] = static_cast<int64_t>(v[i].size());
    all += v[i];
  }
  BULLION_RETURN_NOT_OK(ctx->EncodeIntChild(lengths, out));
  return deflate_util::CompressChunked(Slice(all), out);
}

Status DecodeChunked(SliceReader* in, size_t n,
                     std::vector<std::string>* out) {
  std::vector<int64_t> lengths;
  size_t total = 0;
  BULLION_RETURN_NOT_OK(DecodeLengths(in, n, &lengths, &total));
  // The lengths come from a child block, not the header count, so bound
  // them by what the payload can inflate to before sizing the output.
  if (total / deflate_util::kMaxInflateRatio > in->remaining()) {
    return Status::Corruption("chunked string lengths exceed payload");
  }
  std::vector<uint8_t> raw(total);
  BULLION_RETURN_NOT_OK(
      deflate_util::DecompressChunked(in, raw.size(), raw.data()));
  out->clear();
  out->reserve(n);
  size_t off = 0;
  for (int64_t len : lengths) {
    out->push_back(std::string(
        reinterpret_cast<const char*>(raw.data()) + off,
        static_cast<size_t>(len)));
    off += static_cast<size_t>(len);
  }
  return Status::OK();
}

}  // namespace stringcodec
}  // namespace bullion
