#include "format/reader.h"

#include <algorithm>

#include "format/merkle.h"
#include "format/page.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bullion {

namespace {

/// Times one decode into bullion.format.decode_chunk_ns: one sample per
/// decoded chunk and one per decoded page run, failed decodes included.
class DecodeTimer {
 public:
  DecodeTimer() = default;
  DecodeTimer(const DecodeTimer&) = delete;
  DecodeTimer& operator=(const DecodeTimer&) = delete;
  ~DecodeTimer() {
    static obs::LatencyHistogram* decode_hist =
        obs::MetricsRegistry::Global().GetHistogram(
            "bullion.format.decode_chunk_ns");
    decode_hist->Record(obs::NowNs() - start_ns_);
  }

 private:
  const uint64_t start_ns_ = obs::NowNs();
};

}  // namespace

Result<std::unique_ptr<TableReader>> TableReader::Open(
    std::unique_ptr<RandomAccessFile> file) {
  BULLION_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  if (size < kTrailerSize) return Status::Corruption("file too small");

  // pread 1: the 8-byte trailer.
  Buffer trailer;
  BULLION_RETURN_NOT_OK(
      file->Read(size - kTrailerSize, kTrailerSize, &trailer));
  BULLION_ASSIGN_OR_RETURN(auto loc, ReadTrailer(trailer.AsSlice(), size));
  auto [footer_offset, footer_size] = loc;

  // pread 2: the footer region, wrapped zero-copy.
  auto reader = std::unique_ptr<TableReader>(new TableReader());
  BULLION_RETURN_NOT_OK(
      file->Read(footer_offset, footer_size, &reader->footer_buffer_));
  BULLION_ASSIGN_OR_RETURN(
      reader->footer_view_,
      FooterView::Parse(reader->footer_buffer_.AsSlice(), footer_offset));
  reader->file_ = std::move(file);
  return reader;
}

Result<std::vector<uint32_t>> TableReader::ResolveColumns(
    const std::vector<std::string>& names) const {
  std::vector<uint32_t> out;
  out.reserve(names.size());
  for (const std::string& name : names) {
    BULLION_ASSIGN_OR_RETURN(uint32_t c, footer_view_.FindColumn(name));
    out.push_back(c);
  }
  return out;
}

Status TableReader::DecodePages(uint32_t g, uint32_t c, uint32_t page_begin,
                                uint32_t page_end, Slice bytes,
                                uint64_t bytes_offset,
                                const ReadOptions& options,
                                ColumnVector* out) const {
  DecodeTimer timer;
  const FooterView& f = footer_view_;
  ColumnRecord rec = f.column_record(c);
  const uint32_t first_page = f.chunk_pages(g, c).first;
  if (first_page + page_end > f.total_pages()) {
    return Status::Corruption("chunk pages exceed total pages");
  }

  uint32_t row0 = 0;  // group-relative first row of the current page
  for (uint32_t p = first_page; p < first_page + page_begin; ++p) {
    row0 += f.page_row_count(p);
  }
  for (uint32_t p = first_page + page_begin; p < first_page + page_end; ++p) {
    if (f.page_offset(p) < bytes_offset) {
      return Status::Corruption("page offset before chunk start");
    }
    uint64_t page_off = f.page_offset(p) - bytes_offset;
    uint64_t slot = f.page_slot_size(p);
    if (page_off + slot > bytes.size()) {
      return Status::Corruption("page extends past chunk bytes");
    }
    Slice page = bytes.SubSlice(page_off, slot);
    if (options.verify_checksums) {
      if (HashPage(page) != f.page_hash(p)) {
        return Status::Corruption("page checksum mismatch at page " +
                                  std::to_string(p));
      }
    }
    ColumnVector decoded(static_cast<PhysicalType>(rec.physical),
                         rec.list_depth);
    BULLION_RETURN_NOT_OK(DecodePage(page, &decoded));

    const uint32_t expected = f.page_row_count(p);
    const size_t got = decoded.num_rows();
    if (got > expected) {
      return Status::Corruption("page decoded more rows than recorded");
    }
    if (got == expected && (!options.filter_deleted ||
                            !f.AnyDeleted(g, row0, row0 + expected))) {
      out->AppendAllFrom(decoded);
      row0 += expected;
      continue;
    }
    // Realign against the deletion vector, one run of live rows at a
    // time. A full page still holds its masked rows, which a filtered
    // read skips. A shortened page lost its erased rows (§2.1 RLE
    // path), and an unfiltered read stands a valid zero in for each. In
    // a group without deletes the values run out first: a shortened
    // page there is corrupt.
    const bool shortened = got < expected;
    size_t ti = 0;  // next decoded row
    for (uint32_t r = 0; r < expected;) {
      if (f.IsDeleted(g, row0 + r)) {
        if (!shortened) {
          ++ti;
        } else if (!options.filter_deleted) {
          out->AppendPlaceholderRow(/*null=*/false);
        }
        ++r;
        continue;
      }
      uint32_t live_end = r + 1;
      while (live_end < expected && !f.IsDeleted(g, row0 + live_end)) {
        ++live_end;
      }
      const size_t n = live_end - r;
      if (ti + n > got) {
        return Status::Corruption("page realign: values exhausted");
      }
      out->AppendRows(decoded, ti, ti + n);
      ti += n;
      r = live_end;
    }
    if (ti != got) {
      return Status::Corruption("page realign: trailing values");
    }
    row0 += expected;
  }
  return Status::OK();
}

Status TableReader::ReadColumnChunk(uint32_t g, uint32_t c,
                                    const ReadOptions& options,
                                    ColumnVector* out) const {
  const FooterView& f = footer_view_;
  if (g >= f.num_row_groups() || c >= f.num_columns()) {
    return Status::InvalidArgument("group/column out of range");
  }
  auto [first_page, end_page] = f.chunk_pages(g, c);
  uint64_t begin = f.chunk_offset(g, c);
  uint64_t end = f.page_offset(end_page);  // sentinel-safe
  Buffer bytes;
  BULLION_RETURN_NOT_OK(file_->Read(begin, end - begin, &bytes));
  ColumnRecord rec = f.column_record(c);
  *out = ColumnVector(static_cast<PhysicalType>(rec.physical), rec.list_depth);
  BULLION_TRACE_SPAN("read.decode_chunk");
  return DecodePages(g, c, 0, end_page - first_page, bytes.AsSlice(), begin,
                     options, out);
}

Result<ReadPlan> TableReader::PlanProjection(
    uint32_t g, const std::vector<uint32_t>& columns,
    const ReadOptions& options) const {
  const FooterView& f = footer_view_;
  if (g >= f.num_row_groups()) {
    return Status::InvalidArgument("group out of range");
  }
  std::vector<ChunkRequest> requests;
  requests.reserve(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    uint32_t c = columns[i];
    if (c >= f.num_columns()) {
      return Status::InvalidArgument("column out of range");
    }
    auto [first_page, end_page] = f.chunk_pages(g, c);
    (void)first_page;
    requests.push_back(
        ChunkRequest{f.chunk_offset(g, c), f.page_offset(end_page), i});
  }
  ReadPlanOptions plan_options;
  plan_options.coalesce_gap_bytes = options.coalesce_gap_bytes;
  plan_options.max_coalesced_bytes = options.max_coalesced_bytes;
  return BuildReadPlan(std::move(requests), plan_options);
}

Result<std::pair<uint64_t, uint64_t>> TableReader::PageRunExtent(
    uint32_t g, uint32_t c, uint32_t page_begin, uint32_t page_end) const {
  const FooterView& f = footer_view_;
  if (g >= f.num_row_groups() || c >= f.num_columns()) {
    return Status::InvalidArgument("group/column out of range");
  }
  auto [first_page, end_page] = f.chunk_pages(g, c);
  if (page_begin >= page_end || end_page - first_page < page_end) {
    return Status::InvalidArgument("page run out of chunk range");
  }
  // page_offset(first_page + page_end) is sentinel-safe at the chunk's
  // (and the file's) last page.
  return std::make_pair(f.page_offset(first_page + page_begin),
                        f.page_offset(first_page + page_end));
}

Status TableReader::DecodePageRun(uint32_t g, uint32_t c, uint32_t page_begin,
                                  uint32_t page_end, Slice bytes,
                                  const ReadOptions& options,
                                  ColumnVector* out) const {
  BULLION_ASSIGN_OR_RETURN(auto extent,
                           PageRunExtent(g, c, page_begin, page_end));
  if (bytes.size() != extent.second - extent.first) {
    return Status::InvalidArgument("page run bytes size mismatch");
  }
  ColumnRecord rec = footer_view_.column_record(c);
  *out = ColumnVector(static_cast<PhysicalType>(rec.physical), rec.list_depth);
  return DecodePages(g, c, page_begin, page_end, bytes, extent.first, options,
                     out);
}

Status TableReader::DecodeCoalescedRead(uint32_t g,
                                        const std::vector<uint32_t>& columns,
                                        const CoalescedRead& read, Slice bytes,
                                        const ReadOptions& options,
                                        std::vector<ColumnVector>* out) const {
  const FooterView& f = footer_view_;
  if (bytes.size() != read.size()) {
    return Status::InvalidArgument("coalesced read bytes size mismatch");
  }
  for (const ChunkRequest& r : read.chunks) {
    if (r.user_index >= columns.size() || r.user_index >= out->size()) {
      return Status::InvalidArgument("chunk user_index out of range");
    }
    uint32_t c = columns[r.user_index];
    ColumnRecord rec = f.column_record(c);
    ColumnVector col(static_cast<PhysicalType>(rec.physical), rec.list_depth);
    Slice chunk = bytes.SubSlice(r.begin - read.begin, r.size());
    auto [first_page, end_page] = f.chunk_pages(g, c);
    BULLION_TRACE_SPAN("read.decode_chunk");
    BULLION_RETURN_NOT_OK(DecodePages(g, c, 0, end_page - first_page, chunk,
                                      r.begin, options, &col));
    (*out)[r.user_index] = std::move(col);
  }
  return Status::OK();
}

Status TableReader::ReadProjection(uint32_t g,
                                   const std::vector<uint32_t>& columns,
                                   const ReadOptions& options,
                                   std::vector<ColumnVector>* out) const {
  BULLION_ASSIGN_OR_RETURN(ReadPlan plan, PlanProjection(g, columns, options));
  out->clear();
  out->resize(columns.size());
  Buffer bytes;
  for (const CoalescedRead& read : plan.reads) {
    {
      BULLION_TRACE_SPAN("read.fetch");
      BULLION_RETURN_NOT_OK(file_->Read(read.begin, read.size(), &bytes));
    }
    BULLION_RETURN_NOT_OK(
        DecodeCoalescedRead(g, columns, read, bytes.AsSlice(), options, out));
  }
  return Status::OK();
}

Status TableReader::VerifyChecksums() const {
  const FooterView& f = footer_view_;
  std::vector<uint64_t> page_hashes(f.total_pages());
  for (uint32_t p = 0; p < f.total_pages(); ++p) {
    Buffer page;
    BULLION_RETURN_NOT_OK(
        file_->Read(f.page_offset(p), f.page_slot_size(p), &page));
    page_hashes[p] = HashPage(page.AsSlice());
    if (page_hashes[p] != f.page_hash(p)) {
      return Status::Corruption("page hash mismatch at page " +
                                std::to_string(p));
    }
  }
  std::vector<uint32_t> pages_per_group(f.num_row_groups());
  for (uint32_t g = 0; g < f.num_row_groups(); ++g) {
    auto [b, e] = f.group_page_range(g);
    pages_per_group[g] = e - b;
  }
  MerkleTree tree(std::move(page_hashes), std::move(pages_per_group));
  for (uint32_t g = 0; g < f.num_row_groups(); ++g) {
    if (tree.group_hash(g) != f.group_hash(g)) {
      return Status::Corruption("group hash mismatch at group " +
                                std::to_string(g));
    }
  }
  if (tree.root() != f.root_hash()) {
    return Status::Corruption("root hash mismatch");
  }
  return Status::OK();
}

}  // namespace bullion
