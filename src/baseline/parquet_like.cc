#include "baseline/parquet_like.h"

#include <algorithm>

#include "baseline/thrift_like.h"
#include "common/logging.h"

namespace bullion {
namespace baseline {

namespace {

/// Min/max statistics as 8-byte strings (Parquet stores binary stats).
std::string StatBytes(int64_t v) {
  return std::string(reinterpret_cast<const char*>(&v), 8);
}

}  // namespace

ParquetLikeWriter::ParquetLikeWriter(Schema schema, WritableFile* file,
                                     ParquetLikeWriterOptions options)
    : schema_(std::move(schema)), file_(file), options_(options) {
  for (const LeafColumn& leaf : schema_.leaves()) {
    SchemaElement el;
    el.name = leaf.name;
    el.physical_type = static_cast<int64_t>(leaf.physical);
    el.list_depth = leaf.list_depth;
    el.logical = static_cast<int64_t>(leaf.logical);
    meta_.schema.push_back(std::move(el));
  }
  // Magic prologue, as in Parquet.
  BufferBuilder b;
  b.Append<uint32_t>(kParquetLikeMagic);
  BULLION_CHECK_OK(file_->Append(b.AsSlice()));
  offset_ = 4;
}

Status ParquetLikeWriter::WriteRowGroup(
    const std::vector<ColumnVector>& columns) {
  if (columns.size() != schema_.num_leaves()) {
    return Status::InvalidArgument("column count mismatch");
  }
  size_t rows = columns.empty() ? 0 : columns[0].num_rows();
  if (rows == 0) return Status::InvalidArgument("empty row group");

  RowGroupMeta rg;
  rg.num_rows = static_cast<int64_t>(rows);
  for (uint32_t c = 0; c < columns.size(); ++c) {
    const LeafColumn& leaf = schema_.leaves()[c];
    const ColumnVector& col = columns[c];
    ColumnChunkMeta cc;
    cc.path_in_schema = leaf.name;
    cc.file_offset = static_cast<int64_t>(offset_);
    cc.data_page_offset = cc.file_offset;
    cc.physical_type = static_cast<int64_t>(leaf.physical);
    cc.list_depth = leaf.list_depth;
    cc.num_values = static_cast<int64_t>(col.LeafCount());

    PageEncodeOptions popts;
    popts.cascade = options_.cascade;
    for (size_t row = 0; row < rows; row += options_.rows_per_page) {
      size_t end = std::min(rows, row + options_.rows_per_page);
      BULLION_ASSIGN_OR_RETURN(EncodedPage page,
                               EncodePage(col, row, end, popts));
      cc.page_offsets.push_back(static_cast<int64_t>(offset_));
      cc.page_row_counts.push_back(page.row_count);
      cc.encodings.push_back(page.encoding);
      BULLION_RETURN_NOT_OK(file_->Append(page.data.AsSlice()));
      offset_ += page.data.size();
    }
    cc.total_compressed_size =
        static_cast<int64_t>(offset_) - cc.file_offset;
    cc.total_uncompressed_size = cc.total_compressed_size;
    if (col.domain() == ValueDomain::kInt && !col.int_values().empty()) {
      auto [mn, mx] = std::minmax_element(col.int_values().begin(),
                                          col.int_values().end());
      cc.stat_min = StatBytes(*mn);
      cc.stat_max = StatBytes(*mx);
    }
    rg.total_byte_size += cc.total_compressed_size;
    rg.columns.push_back(std::move(cc));
  }
  meta_.num_rows += static_cast<int64_t>(rows);
  meta_.row_groups.push_back(std::move(rg));
  return Status::OK();
}

Status ParquetLikeWriter::Finish() {
  if (finished_) return Status::InvalidArgument("already finished");
  finished_ = true;
  Buffer blob = SerializeFileMetaData(meta_);
  BULLION_RETURN_NOT_OK(file_->Append(blob.AsSlice()));
  BufferBuilder trailer;
  trailer.Append<uint32_t>(static_cast<uint32_t>(blob.size()));
  trailer.Append<uint32_t>(kParquetLikeMagic);
  BULLION_RETURN_NOT_OK(file_->Append(trailer.AsSlice()));
  return file_->Flush();
}

// ---------------------------------------------------------------------------
// FileMetaData <-> thrift blob.
// ---------------------------------------------------------------------------

Buffer SerializeFileMetaData(const FileMetaData& meta) {
  thriftlike::Writer w;
  w.StructBegin();
  w.FieldI64(1, meta.version);
  w.FieldI64(2, meta.num_rows);
  w.FieldBinary(3, meta.created_by);
  w.FieldListBegin(4, thriftlike::WireType::kStruct,
                   static_cast<uint32_t>(meta.schema.size()));
  for (const SchemaElement& el : meta.schema) {
    w.StructBegin();
    w.FieldBinary(1, el.name);
    w.FieldI64(2, el.physical_type);
    w.FieldI64(3, el.list_depth);
    w.FieldI64(4, el.logical);
    w.StructEnd();
  }
  w.FieldListBegin(5, thriftlike::WireType::kStruct,
                   static_cast<uint32_t>(meta.row_groups.size()));
  for (const RowGroupMeta& rg : meta.row_groups) {
    w.StructBegin();
    w.FieldI64(1, rg.num_rows);
    w.FieldI64(2, rg.total_byte_size);
    w.FieldListBegin(3, thriftlike::WireType::kStruct,
                     static_cast<uint32_t>(rg.columns.size()));
    for (const ColumnChunkMeta& cc : rg.columns) {
      w.StructBegin();
      w.FieldBinary(1, cc.path_in_schema);
      w.FieldI64(2, cc.file_offset);
      w.FieldI64(3, cc.total_compressed_size);
      w.FieldI64(4, cc.total_uncompressed_size);
      w.FieldI64(5, cc.num_values);
      w.FieldI64(6, cc.data_page_offset);
      w.FieldI64(7, cc.codec);
      w.FieldI64(8, cc.physical_type);
      w.FieldI64(9, cc.list_depth);
      w.FieldListBegin(10, thriftlike::WireType::kI64,
                       static_cast<uint32_t>(cc.page_offsets.size()));
      for (int64_t v : cc.page_offsets) w.RawI64(v);
      w.FieldListBegin(11, thriftlike::WireType::kI64,
                       static_cast<uint32_t>(cc.page_row_counts.size()));
      for (int64_t v : cc.page_row_counts) w.RawI64(v);
      w.FieldListBegin(12, thriftlike::WireType::kI64,
                       static_cast<uint32_t>(cc.encodings.size()));
      for (int64_t v : cc.encodings) w.RawI64(v);
      w.FieldBinary(13, cc.stat_min);
      w.FieldBinary(14, cc.stat_max);
      w.FieldI64(15, cc.null_count);
      w.StructEnd();
    }
    w.StructEnd();
  }
  w.StructEnd();
  return w.Finish();
}

namespace {

Result<std::vector<int64_t>> ReadI64List(thriftlike::Reader* r) {
  BULLION_ASSIGN_OR_RETURN(thriftlike::Reader::ListHeader lh,
                           r->ReadListHeader());
  std::vector<int64_t> out;
  out.reserve(lh.count);
  for (uint32_t i = 0; i < lh.count; ++i) {
    BULLION_ASSIGN_OR_RETURN(int64_t v, r->ReadI64());
    out.push_back(v);
  }
  return out;
}

Result<ColumnChunkMeta> ParseColumnChunk(thriftlike::Reader* r) {
  ColumnChunkMeta cc;
  r->StructBegin();
  while (true) {
    BULLION_ASSIGN_OR_RETURN(thriftlike::Reader::FieldHeader h,
                             r->NextField());
    if (h.stop) break;
    switch (h.id) {
      case 1: {
        BULLION_ASSIGN_OR_RETURN(cc.path_in_schema, r->ReadBinary());
        break;
      }
      case 2: {
        BULLION_ASSIGN_OR_RETURN(cc.file_offset, r->ReadI64());
        break;
      }
      case 3: {
        BULLION_ASSIGN_OR_RETURN(cc.total_compressed_size, r->ReadI64());
        break;
      }
      case 4: {
        BULLION_ASSIGN_OR_RETURN(cc.total_uncompressed_size, r->ReadI64());
        break;
      }
      case 5: {
        BULLION_ASSIGN_OR_RETURN(cc.num_values, r->ReadI64());
        break;
      }
      case 6: {
        BULLION_ASSIGN_OR_RETURN(cc.data_page_offset, r->ReadI64());
        break;
      }
      case 7: {
        BULLION_ASSIGN_OR_RETURN(cc.codec, r->ReadI64());
        break;
      }
      case 8: {
        BULLION_ASSIGN_OR_RETURN(cc.physical_type, r->ReadI64());
        break;
      }
      case 9: {
        BULLION_ASSIGN_OR_RETURN(cc.list_depth, r->ReadI64());
        break;
      }
      case 10: {
        BULLION_ASSIGN_OR_RETURN(cc.page_offsets, ReadI64List(r));
        break;
      }
      case 11: {
        BULLION_ASSIGN_OR_RETURN(cc.page_row_counts, ReadI64List(r));
        break;
      }
      case 12: {
        BULLION_ASSIGN_OR_RETURN(cc.encodings, ReadI64List(r));
        break;
      }
      case 13: {
        BULLION_ASSIGN_OR_RETURN(cc.stat_min, r->ReadBinary());
        break;
      }
      case 14: {
        BULLION_ASSIGN_OR_RETURN(cc.stat_max, r->ReadBinary());
        break;
      }
      case 15: {
        BULLION_ASSIGN_OR_RETURN(cc.null_count, r->ReadI64());
        break;
      }
      default:
        BULLION_RETURN_NOT_OK(r->SkipValue(h.type));
    }
  }
  r->StructEnd();
  return cc;
}

}  // namespace

Result<FileMetaData> ParseFileMetaData(Slice blob) {
  thriftlike::Reader r(blob);
  FileMetaData meta;
  r.StructBegin();
  while (true) {
    BULLION_ASSIGN_OR_RETURN(thriftlike::Reader::FieldHeader h,
                             r.NextField());
    if (h.stop) break;
    switch (h.id) {
      case 1: {
        BULLION_ASSIGN_OR_RETURN(meta.version, r.ReadI64());
        break;
      }
      case 2: {
        BULLION_ASSIGN_OR_RETURN(meta.num_rows, r.ReadI64());
        break;
      }
      case 3: {
        BULLION_ASSIGN_OR_RETURN(meta.created_by, r.ReadBinary());
        break;
      }
      case 4: {
        BULLION_ASSIGN_OR_RETURN(thriftlike::Reader::ListHeader lh,
                                 r.ReadListHeader());
        for (uint32_t i = 0; i < lh.count; ++i) {
          SchemaElement el;
          r.StructBegin();
          while (true) {
            BULLION_ASSIGN_OR_RETURN(thriftlike::Reader::FieldHeader fh,
                                     r.NextField());
            if (fh.stop) break;
            switch (fh.id) {
              case 1: {
                BULLION_ASSIGN_OR_RETURN(el.name, r.ReadBinary());
                break;
              }
              case 2: {
                BULLION_ASSIGN_OR_RETURN(el.physical_type, r.ReadI64());
                break;
              }
              case 3: {
                BULLION_ASSIGN_OR_RETURN(el.list_depth, r.ReadI64());
                break;
              }
              case 4: {
                BULLION_ASSIGN_OR_RETURN(el.logical, r.ReadI64());
                break;
              }
              default:
                BULLION_RETURN_NOT_OK(r.SkipValue(fh.type));
            }
          }
          r.StructEnd();
          meta.schema.push_back(std::move(el));
        }
        break;
      }
      case 5: {
        BULLION_ASSIGN_OR_RETURN(thriftlike::Reader::ListHeader lh,
                                 r.ReadListHeader());
        for (uint32_t i = 0; i < lh.count; ++i) {
          RowGroupMeta rg;
          r.StructBegin();
          while (true) {
            BULLION_ASSIGN_OR_RETURN(thriftlike::Reader::FieldHeader fh,
                                     r.NextField());
            if (fh.stop) break;
            switch (fh.id) {
              case 1: {
                BULLION_ASSIGN_OR_RETURN(rg.num_rows, r.ReadI64());
                break;
              }
              case 2: {
                BULLION_ASSIGN_OR_RETURN(rg.total_byte_size, r.ReadI64());
                break;
              }
              case 3: {
                BULLION_ASSIGN_OR_RETURN(thriftlike::Reader::ListHeader ch,
                                         r.ReadListHeader());
                for (uint32_t k = 0; k < ch.count; ++k) {
                  BULLION_ASSIGN_OR_RETURN(ColumnChunkMeta cc,
                                           ParseColumnChunk(&r));
                  rg.columns.push_back(std::move(cc));
                }
                break;
              }
              default:
                BULLION_RETURN_NOT_OK(r.SkipValue(fh.type));
            }
          }
          r.StructEnd();
          meta.row_groups.push_back(std::move(rg));
        }
        break;
      }
      default:
        BULLION_RETURN_NOT_OK(r.SkipValue(h.type));
    }
  }
  return meta;
}

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

Result<std::unique_ptr<ParquetLikeReader>> ParquetLikeReader::Open(
    std::unique_ptr<RandomAccessFile> file) {
  BULLION_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  if (size < 12) return Status::Corruption("file too small");
  Buffer trailer;
  BULLION_RETURN_NOT_OK(file->Read(size - 8, 8, &trailer));
  SliceReader tr(trailer.AsSlice());
  uint32_t blob_size = tr.Read<uint32_t>();
  uint32_t magic = tr.Read<uint32_t>();
  if (magic != kParquetLikeMagic) {
    return Status::Corruption("not a parquet-like file");
  }
  if (blob_size + 12 > size) return Status::Corruption("bad footer size");

  auto reader = std::unique_ptr<ParquetLikeReader>(new ParquetLikeReader());
  Buffer blob;
  BULLION_RETURN_NOT_OK(file->Read(size - 8 - blob_size, blob_size, &blob));
  // Full deserialization, unconditionally — the Parquet cost profile.
  BULLION_ASSIGN_OR_RETURN(reader->meta_, ParseFileMetaData(blob.AsSlice()));
  reader->file_ = std::move(file);
  return reader;
}

Result<uint32_t> ParquetLikeReader::FindColumn(const std::string& name) const {
  for (uint32_t c = 0; c < meta_.schema.size(); ++c) {
    if (meta_.schema[c].name == name) return c;
  }
  return Status::NotFound("no column named " + name);
}

Status ParquetLikeReader::ReadColumnChunk(uint32_t g, uint32_t c,
                                          ColumnVector* out) const {
  if (g >= meta_.row_groups.size()) {
    return Status::InvalidArgument("row group out of range");
  }
  const RowGroupMeta& rg = meta_.row_groups[g];
  if (c >= rg.columns.size()) {
    return Status::InvalidArgument("column out of range");
  }
  const ColumnChunkMeta& cc = rg.columns[c];
  Buffer bytes;
  BULLION_RETURN_NOT_OK(file_->Read(
      static_cast<uint64_t>(cc.file_offset),
      static_cast<size_t>(cc.total_compressed_size), &bytes));
  *out = ColumnVector(static_cast<PhysicalType>(cc.physical_type),
                      static_cast<int>(cc.list_depth));
  for (size_t p = 0; p < cc.page_offsets.size(); ++p) {
    uint64_t off =
        static_cast<uint64_t>(cc.page_offsets[p] - cc.file_offset);
    uint64_t end = (p + 1 < cc.page_offsets.size())
                       ? static_cast<uint64_t>(cc.page_offsets[p + 1] -
                                               cc.file_offset)
                       : static_cast<uint64_t>(cc.total_compressed_size);
    ColumnVector decoded(out->physical(), out->list_depth());
    BULLION_RETURN_NOT_OK(
        DecodePage(bytes.AsSlice().SubSlice(off, end - off), &decoded));
    out->AppendAllFrom(decoded);
  }
  return Status::OK();
}

Result<ParquetLikeReader::RewriteReport> ParquetLikeReader::DeleteRowsByRewrite(
    std::span<const uint64_t> row_ids, WritableFile* dest,
    const ParquetLikeWriterOptions& options) const {
  RewriteReport report;
  std::vector<uint64_t> sorted(row_ids.begin(), row_ids.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  // Reconstruct the logical schema from parsed metadata.
  std::vector<Field> fields;
  for (const SchemaElement& el : meta_.schema) {
    DataType t =
        DataType::Primitive(static_cast<PhysicalType>(el.physical_type));
    for (int d = 0; d < el.list_depth; ++d) t = DataType::List(std::move(t));
    fields.push_back(Field{el.name, std::move(t),
                           static_cast<LogicalType>(el.logical), false});
  }
  Schema schema(std::move(fields));

  ParquetLikeWriter writer(schema, dest, options);
  uint64_t first_row = 0;
  size_t cursor = 0;
  for (uint32_t g = 0; g < meta_.row_groups.size(); ++g) {
    const RowGroupMeta& rg = meta_.row_groups[g];
    uint64_t rows = static_cast<uint64_t>(rg.num_rows);
    // Which rows of this group survive.
    std::vector<uint32_t> keep;
    keep.reserve(rows);
    size_t local_cursor = cursor;
    for (uint64_t r = 0; r < rows; ++r) {
      uint64_t global = first_row + r;
      while (local_cursor < sorted.size() && sorted[local_cursor] < global) {
        ++local_cursor;
      }
      if (local_cursor < sorted.size() && sorted[local_cursor] == global) {
        ++report.rows_deleted;
      } else {
        keep.push_back(static_cast<uint32_t>(r));
      }
    }
    cursor = local_cursor;

    std::vector<ColumnVector> surviving;
    for (uint32_t c = 0; c < rg.columns.size(); ++c) {
      ColumnVector col;
      BULLION_RETURN_NOT_OK(ReadColumnChunk(g, c, &col));
      report.bytes_read +=
          static_cast<uint64_t>(rg.columns[c].total_compressed_size);
      BULLION_ASSIGN_OR_RETURN(ColumnVector kept, col.Permute(keep));
      surviving.push_back(std::move(kept));
    }
    if (!keep.empty()) {
      BULLION_RETURN_NOT_OK(writer.WriteRowGroup(surviving));
    }
    first_row += rows;
  }
  BULLION_RETURN_NOT_OK(writer.Finish());
  BULLION_ASSIGN_OR_RETURN(uint64_t out_size, dest->Size());
  report.bytes_written = out_size;
  return report;
}

}  // namespace baseline
}  // namespace bullion
