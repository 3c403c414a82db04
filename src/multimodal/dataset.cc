#include "multimodal/dataset.h"

#include <algorithm>

#include "common/random.h"

namespace bullion {
namespace multimodal {

Schema MetaTableSchema() {
  std::vector<Field> fields;
  fields.push_back({"sample_id", DataType::Primitive(PhysicalType::kInt64),
                    LogicalType::kPlain, false});
  fields.push_back({"quality", DataType::Primitive(PhysicalType::kFloat64),
                    LogicalType::kQualityScore, false});
  fields.push_back({"caption", DataType::Primitive(PhysicalType::kBinary),
                    LogicalType::kPlain, false});
  fields.push_back({"frame_highlights",
                    DataType::List(DataType::Primitive(PhysicalType::kBinary)),
                    LogicalType::kPlain, false});
  fields.push_back({"media_offset", DataType::Primitive(PhysicalType::kInt64),
                    LogicalType::kPlain, false});
  fields.push_back({"media_index", DataType::Primitive(PhysicalType::kInt64),
                    LogicalType::kPlain, false});
  return Schema(std::move(fields));
}

DatasetWriter::DatasetWriter(WritableFile* meta_file, WritableFile* media_file,
                             DatasetWriterOptions options)
    : meta_file_(meta_file), media_file_(media_file), options_(options) {}

Status DatasetWriter::Write(const std::vector<Sample>& samples) {
  // 1. Media table first: append blobs, collect locators.
  avro::AvroSchema media_schema;
  media_schema.fields.push_back({"sample_id", avro::Type::kLong});
  media_schema.fields.push_back({"content", avro::Type::kBytes});
  avro::AvroWriterOptions avro_opts;
  avro_opts.block_bytes = options_.media_block_bytes;
  avro::AvroWriter media(media_schema, media_file_, avro_opts);
  std::vector<avro::RecordLocator> locators(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    avro::Record rec;
    rec.push_back(samples[i].sample_id);
    rec.push_back(samples[i].media_blob);
    BULLION_ASSIGN_OR_RETURN(locators[i], media.Append(rec));
  }
  BULLION_RETURN_NOT_OK(media.Finish());

  // 2. Meta table, optionally quality-presorted across the whole batch
  // (row reordering, §2.5).
  std::vector<uint32_t> order(samples.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  if (options_.quality_sorted) {
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return samples[a].quality > samples[b].quality;
    });
  }

  Schema schema = MetaTableSchema();
  WriterOptions wopts;
  wopts.rows_per_page = options_.rows_per_page;
  TableWriter writer(schema, meta_file_, wopts);
  for (size_t start = 0; start < samples.size();
       start += options_.rows_per_group) {
    size_t end =
        std::min(samples.size(), start + options_.rows_per_group);
    std::vector<ColumnVector> cols;
    for (const LeafColumn& leaf : schema.leaves()) {
      cols.push_back(ColumnVector::ForLeaf(leaf));
    }
    for (size_t k = start; k < end; ++k) {
      const Sample& s = samples[order[k]];
      const avro::RecordLocator& loc = locators[order[k]];
      cols[0].AppendInt(s.sample_id);
      cols[1].AppendReal(s.quality);
      cols[2].AppendBinary(s.caption);
      cols[3].AppendBinaryList(s.frame_highlights);
      cols[4].AppendInt(static_cast<int64_t>(loc.block_offset));
      cols[5].AppendInt(loc.index_in_block);
    }
    BULLION_RETURN_NOT_OK(writer.WriteRowGroup(std::move(cols)));
  }
  return writer.Finish();
}

Result<std::unique_ptr<TrainingReader>> TrainingReader::Open(
    std::unique_ptr<RandomAccessFile> meta_file,
    std::unique_ptr<RandomAccessFile> media_file) {
  auto reader = std::unique_ptr<TrainingReader>(new TrainingReader());
  BULLION_ASSIGN_OR_RETURN(reader->meta_,
                           TableReader::Open(std::move(meta_file)));
  BULLION_ASSIGN_OR_RETURN(reader->media_,
                           avro::AvroReader::Open(std::move(media_file)));
  return reader;
}

Result<TrainingScanStats> TrainingReader::Scan(double min_quality,
                                               double full_media_fraction) {
  TrainingScanStats stats;
  Random rng(0xFEED);
  ReadOptions ropts;
  std::vector<std::string> names = {"quality", "caption", "frame_highlights",
                                    "media_offset", "media_index"};
  BULLION_ASSIGN_OR_RETURN(std::vector<uint32_t> cols,
                           meta_->ResolveColumns(names));
  for (uint32_t g = 0; g < meta_->num_row_groups(); ++g) {
    // Two-phase read: quality column first (cheap), then the heavy
    // columns only when the group contains selected samples. With a
    // quality-sorted layout, trailing groups are skipped entirely.
    ColumnVector quality;
    BULLION_RETURN_NOT_OK(
        meta_->ReadColumnChunk(g, cols[0], ropts, &quality));
    stats.samples_scanned += quality.num_rows();
    std::vector<uint32_t> selected;
    for (size_t r = 0; r < quality.real_values().size(); ++r) {
      if (quality.real_values()[r] >= min_quality) {
        selected.push_back(static_cast<uint32_t>(r));
      }
    }
    if (selected.empty()) continue;

    std::vector<ColumnVector> heavy;
    BULLION_RETURN_NOT_OK(meta_->ReadProjection(
        g, {cols[1], cols[2], cols[3], cols[4]}, ropts, &heavy));
    const ColumnVector& caption = heavy[0];
    const ColumnVector& frames = heavy[1];
    const ColumnVector& media_off = heavy[2];
    const ColumnVector& media_idx = heavy[3];
    for (uint32_t r : selected) {
      ++stats.samples_selected;
      stats.frame_bytes_read += caption.bin_values()[r].size();
      auto [fb, fe] = frames.ListRange(r);
      for (int64_t j = fb; j < fe; ++j) {
        stats.frame_bytes_read += frames.bin_values()[j].size();
      }
      if (rng.Bernoulli(full_media_fraction)) {
        avro::RecordLocator loc;
        loc.block_offset =
            static_cast<uint64_t>(media_off.int_values()[r]);
        loc.index_in_block =
            static_cast<uint32_t>(media_idx.int_values()[r]);
        BULLION_ASSIGN_OR_RETURN(avro::Record rec,
                                 media_->ReadRecord(loc));
        ++stats.full_media_lookups;
        stats.frame_bytes_read += std::get<std::string>(rec[1]).size();
      }
    }
  }
  return stats;
}

}  // namespace multimodal
}  // namespace bullion
