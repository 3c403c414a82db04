#include "format/writer.h"

#include <algorithm>
#include <cmath>

#include "format/merkle.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/bloom.h"

namespace bullion {

ZoneMap ComputeZoneMap(const ColumnVector& column, size_t row_begin,
                       size_t row_end) {
  // Scalar columns whose type has a predicate order (io/predicate.h:
  // true ints and float32/64) get value bounds; scalar binary columns
  // get bounded-prefix bounds; everything else stays "unknown" and is
  // never pruned. Scalar columns hold one value per row, so the row
  // range indexes the value arrays directly.
  if (column.list_depth() != 0 || row_begin >= row_end) {
    return ZoneMap{};
  }
  if (column.physical() == PhysicalType::kBinary) {
    const std::vector<std::string>& v = column.bin_values();
    auto [lo, hi] =
        std::minmax_element(v.begin() + row_begin, v.begin() + row_end);
    return ZoneMap::OfBinaryPrefixes(PackPrefix(*lo), PackPrefix(*hi));
  }
  if (!HasPredicateOrder(column.physical())) {
    return ZoneMap{};
  }
  if (column.domain() == ValueDomain::kInt) {
    const std::vector<int64_t>& v = column.int_values();
    auto [lo, hi] =
        std::minmax_element(v.begin() + row_begin, v.begin() + row_end);
    return ZoneMap::OfInts(*lo, *hi);
  }
  const std::vector<double>& v = column.real_values();
  double lo = v[row_begin], hi = v[row_begin];
  for (size_t r = row_begin; r < row_end; ++r) {
    if (std::isnan(v[r])) return ZoneMap{};  // NaN breaks ordering
    lo = std::min(lo, v[r]);
    hi = std::max(hi, v[r]);
  }
  return ZoneMap::OfReals(lo, hi);
}

Status ValidateWriterOptions(const WriterOptions& options,
                             const Schema& schema) {
  if (options.rows_per_page == 0) {
    return Status::InvalidArgument("rows_per_page must be positive");
  }
  if (!options.column_order.empty()) {
    if (options.column_order.size() != schema.num_leaves()) {
      return Status::InvalidArgument("column_order size mismatch");
    }
    std::vector<bool> seen(schema.num_leaves(), false);
    for (uint32_t c : options.column_order) {
      if (c >= schema.num_leaves()) {
        return Status::InvalidArgument("column_order entry " +
                                       std::to_string(c) +
                                       " is not a leaf column index");
      }
      if (seen[c]) {
        return Status::InvalidArgument("column_order repeats column " +
                                       std::to_string(c));
      }
      seen[c] = true;
    }
  }
  if (options.quality_sort_column >= 0 &&
      static_cast<uint32_t>(options.quality_sort_column) >=
          schema.num_leaves()) {
    return Status::InvalidArgument("quality sort column out of range");
  }
  return Status::OK();
}

Result<StagedRowGroup> StageRowGroup(
    const Schema& schema, const WriterOptions& options,
    std::shared_ptr<const std::vector<ColumnVector>> columns) {
  BULLION_RETURN_NOT_OK(ValidateWriterOptions(options, schema));
  return StageValidatedRowGroup(schema, options, std::move(columns));
}

Result<StagedRowGroup> StageValidatedRowGroup(
    const Schema& schema, const WriterOptions& options,
    std::shared_ptr<const std::vector<ColumnVector>> columns) {
  BULLION_TRACE_SPAN("write.stage");
  if (columns == nullptr) {
    return Status::InvalidArgument("null column batch");
  }
  if (columns->size() != schema.num_leaves()) {
    return Status::InvalidArgument(
        "row group has " + std::to_string(columns->size()) +
        " columns, schema has " + std::to_string(schema.num_leaves()) +
        " leaves");
  }
  size_t rows = columns->empty() ? 0 : (*columns)[0].num_rows();
  for (const ColumnVector& col : *columns) {
    if (col.num_rows() != rows) {
      return Status::InvalidArgument("row group columns disagree on rows");
    }
    // Null rows exist only as read-side back-fill for columns a shard
    // predates (dataset/evolution.h); pages have no validity stream, so
    // writing them would silently turn nulls into zeros.
    if (col.null_count() > 0) {
      return Status::NotImplemented(
          "batch contains null rows; pages cannot encode validity");
    }
  }
  if (rows == 0) return Status::InvalidArgument("empty row group");

  if (options.quality_sort_column >= 0) {
    uint32_t qc = static_cast<uint32_t>(options.quality_sort_column);
    const ColumnVector& qcol = (*columns)[qc];
    if (qcol.domain() != ValueDomain::kReal || qcol.list_depth() != 0) {
      return Status::InvalidArgument("quality column must be scalar float");
    }
    std::vector<uint32_t> perm =
        SortPermutationDescending(qcol.real_values());
    auto sorted = std::make_shared<std::vector<ColumnVector>>();
    sorted->reserve(columns->size());
    for (const ColumnVector& col : *columns) {
      BULLION_ASSIGN_OR_RETURN(ColumnVector p, col.Permute(perm));
      sorted->push_back(std::move(p));
    }
    columns = std::move(sorted);
  }

  StagedRowGroup staged;
  staged.columns = std::move(columns);
  staged.row_count = static_cast<uint32_t>(rows);
  staged.compute_page_stats = options.write_chunk_stats;
  staged.bloom_bits_per_key =
      options.write_chunk_stats ? options.bloom_bits_per_key : 0.0;
  if (options.column_order.empty()) {
    staged.order.resize(schema.num_leaves());
    for (uint32_t c = 0; c < staged.order.size(); ++c) staged.order[c] = c;
  } else {
    staged.order = options.column_order;
  }

  staged.column_task_begin.reserve(staged.order.size() + 1);
  for (uint32_t c : staged.order) {
    staged.column_task_begin.push_back(staged.tasks.size());
    const LeafColumn& leaf = schema.leaves()[c];
    const ColumnVector& col = (*staged.columns)[c];

    PageEncodeOptions popts;
    popts.cascade = options.cascade;
    popts.deletable = options.compliance == ComplianceLevel::kLevel2 &&
                      leaf.deletable && col.domain() == ValueDomain::kInt;
    popts.use_sparse_delta = options.enable_sparse_delta &&
                             leaf.logical == LogicalType::kIdSequence &&
                             leaf.list_depth == 1 &&
                             col.domain() == ValueDomain::kInt &&
                             !popts.deletable;
    popts.min_sparse_overlap = options.min_sparse_overlap;

    for (size_t row = 0; row < rows; row += options.rows_per_page) {
      size_t end = std::min(rows, row + options.rows_per_page);
      staged.tasks.push_back(PageEncodeTask{c, row, end, popts});
    }
  }
  staged.column_task_begin.push_back(staged.tasks.size());
  return staged;
}

Result<EncodedPage> EncodeStagedPage(const StagedRowGroup& staged,
                                     size_t task) {
  BULLION_TRACE_SPAN("write.encode_page");
  static obs::LatencyHistogram* encode_hist =
      obs::MetricsRegistry::Global().GetHistogram(
          "bullion.format.encode_page_ns");
  const uint64_t encode_start = obs::NowNs();
  if (task >= staged.tasks.size()) {
    return Status::InvalidArgument("staged task index out of range");
  }
  const PageEncodeTask& t = staged.tasks[task];
  const ColumnVector& col = (*staged.columns)[t.column];
  BULLION_ASSIGN_OR_RETURN(EncodedPage page,
                           EncodePage(col, t.row_begin, t.row_end, t.options));
  // Zone maps and Bloom key hashes ride the parallel encode stage so
  // the ordered commit stage stays I/O-only.
  if (staged.compute_page_stats) {
    page.zone = ComputeZoneMap(col, t.row_begin, t.row_end);
    if (staged.bloom_bits_per_key > 0.0 &&
        BloomEligibleColumn(col.physical(), col.list_depth())) {
      page.key_hashes.reserve(t.row_end - t.row_begin);
      if (col.domain() == ValueDomain::kInt) {
        const std::vector<int64_t>& v = col.int_values();
        for (size_t r = t.row_begin; r < t.row_end; ++r) {
          page.key_hashes.push_back(BloomHashInt(v[r]));
        }
      } else {
        const std::vector<std::string>& v = col.bin_values();
        for (size_t r = t.row_begin; r < t.row_end; ++r) {
          page.key_hashes.push_back(BloomHashBinary(v[r]));
        }
      }
    }
  }
  encode_hist->Record(obs::NowNs() - encode_start);
  return page;
}

TableWriter::TableWriter(Schema schema, WritableFile* file,
                         WriterOptions options)
    : schema_(std::move(schema)),
      file_(file),
      options_(std::move(options)),
      init_status_(ValidateWriterOptions(options_, schema_)),
      footer_(schema_, options_.rows_per_page, options_.compliance,
              options_.write_chunk_stats,
              options_.bloom_bits_per_key > 0.0) {
  if (options_.write_block_bytes > 0) {
    agg_ = std::make_unique<AggregatedWriteBuffer>(
        file_, options_.write_block_bytes);
    sink_ = agg_.get();
  } else {
    sink_ = file_;
  }
}

Result<StagedRowGroup> TableWriter::StageRowGroup(
    std::shared_ptr<const std::vector<ColumnVector>> columns) const {
  BULLION_RETURN_NOT_OK(init_status_);
  // Options were validated at construction and are immutable.
  return StageValidatedRowGroup(schema_, options_, std::move(columns));
}

Status TableWriter::WriteRowGroup(const std::vector<ColumnVector>& columns) {
  BULLION_RETURN_NOT_OK(init_status_);
  if (finished_) return Status::InvalidArgument("writer already finished");
  // Borrow the batch: the serial path commits before returning, so no
  // ownership transfer is needed.
  std::shared_ptr<const std::vector<ColumnVector>> borrowed(
      &columns, [](const std::vector<ColumnVector>*) {});
  BULLION_ASSIGN_OR_RETURN(
      StagedRowGroup staged,
      StageValidatedRowGroup(schema_, options_, std::move(borrowed)));
  std::vector<EncodedPage> pages;
  pages.reserve(staged.tasks.size());
  for (size_t t = 0; t < staged.tasks.size(); ++t) {
    BULLION_ASSIGN_OR_RETURN(EncodedPage page, EncodeStagedPage(staged, t));
    pages.push_back(std::move(page));
  }
  return CommitEncodedGroup(staged, pages);
}

Status TableWriter::CommitEncodedGroup(const StagedRowGroup& staged,
                                       const std::vector<EncodedPage>& pages) {
  BULLION_TRACE_SPAN("write.commit_group");
  BULLION_RETURN_NOT_OK(init_status_);
  if (finished_) return Status::InvalidArgument("writer already finished");
  if (pages.size() != staged.tasks.size()) {
    return Status::InvalidArgument("encoded page count disagrees with stage");
  }
  footer_.BeginRowGroup(staged.row_count);
  const bool with_bloom =
      options_.write_chunk_stats && options_.bloom_bits_per_key > 0.0;
  if (options_.write_chunk_stats && column_stats_.empty()) {
    column_stats_.resize(schema_.num_leaves());
  }
  if (with_bloom && column_key_hashes_.empty()) {
    column_key_hashes_.resize(schema_.num_leaves());
  }
  for (size_t oi = 0; oi < staged.order.size(); ++oi) {
    uint32_t c = staged.order[oi];
    uint64_t chunk_offset = offset_;
    uint32_t first_page = 0;
    bool first = true;
    // The chunk's zone map is the merge of its pages' zones and its
    // Bloom filter is built from the page-order concatenation of the
    // pages' key hashes — both were computed by the (parallel) encode
    // stage, and merging/concatenation here is schedule-independent, so
    // the footer stays deterministic.
    ZoneMap chunk_zone;
    std::vector<uint64_t> chunk_hashes;
    for (size_t t = staged.column_task_begin[oi];
         t < staged.column_task_begin[oi + 1]; ++t) {
      const EncodedPage& page = pages[t];
      uint64_t hash = HashPage(page.data.AsSlice());
      uint32_t page_idx =
          footer_.AddPage(offset_, page.row_count, page.encoding, hash);
      if (first) {
        first_page = page_idx;
        first = false;
        chunk_zone = page.zone;
      } else {
        chunk_zone.Merge(page.zone);
      }
      if (with_bloom) {
        chunk_hashes.insert(chunk_hashes.end(), page.key_hashes.begin(),
                            page.key_hashes.end());
      }
      BULLION_RETURN_NOT_OK(sink_->Append(page.data.AsSlice()));
      offset_ += page.data.size();
      if (options_.stats != nullptr) options_.stats->pages_encoded += 1;
    }
    footer_.SetChunk(group_index_, c, chunk_offset, first_page);
    if (options_.write_chunk_stats) {
      footer_.SetChunkStats(group_index_, c, RecordFromZoneMap(chunk_zone));
      if (group_index_ == 0) {
        column_stats_[c] = chunk_zone;
      } else {
        column_stats_[c].Merge(chunk_zone);
      }
    }
    if (with_bloom && !chunk_hashes.empty()) {
      footer_.SetChunkBloom(
          group_index_, c,
          BloomFilter::Build(chunk_hashes, options_.bloom_bits_per_key)
              .ToBytes());
      column_key_hashes_[c].insert(column_key_hashes_[c].end(),
                                   chunk_hashes.begin(),
                                   chunk_hashes.end());
    }
  }
  num_rows_ += staged.row_count;
  ++group_index_;
  return Status::OK();
}

std::vector<ZoneMap> TableWriter::AggregatedColumnStats() const {
  if (!column_stats_.empty()) return column_stats_;
  return std::vector<ZoneMap>(schema_.num_leaves());
}

std::vector<std::string> TableWriter::AggregatedColumnBlooms() const {
  std::vector<std::string> blooms(schema_.num_leaves());
  for (size_t c = 0; c < column_key_hashes_.size(); ++c) {
    if (column_key_hashes_[c].empty()) continue;
    blooms[c] = BloomFilter::Build(column_key_hashes_[c],
                                   options_.bloom_bits_per_key)
                    .ToBytes();
  }
  return blooms;
}

Status TableWriter::Finish() {
  BULLION_RETURN_NOT_OK(init_status_);
  if (finished_) return Status::InvalidArgument("writer already finished");
  finished_ = true;
  BULLION_ASSIGN_OR_RETURN(Buffer footer, footer_.Finish(offset_, num_rows_));
  BULLION_RETURN_NOT_OK(sink_->Append(footer.AsSlice()));
  BufferBuilder trailer;
  trailer.Append<uint32_t>(static_cast<uint32_t>(footer.size()));
  trailer.Append<uint32_t>(kFooterMagic);
  BULLION_RETURN_NOT_OK(sink_->Append(trailer.AsSlice()));
  // Aggregated sink: barrier over in-flight blocks + tail write, then
  // the base fsync — every byte is on the device before Finish returns.
  return sink_->Flush();
}

}  // namespace bullion
