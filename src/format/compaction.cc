#include "format/compaction.h"

#include <algorithm>
#include <numeric>

namespace bullion {

WriterOptions LayoutWriterOptions(const FooterView& footer) {
  WriterOptions options;
  options.rows_per_page = footer.rows_per_page();
  options.compliance = footer.compliance();
  // Recover the physical placement order from group 0's chunk offsets:
  // the writer laid chunks down in placement order, so sorting columns
  // by their chunk offset reproduces it. (With zero groups there is no
  // placement to preserve.)
  if (footer.num_row_groups() > 0 && footer.num_columns() > 1) {
    std::vector<uint32_t> order(footer.num_columns());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return footer.chunk_offset(0, a) < footer.chunk_offset(0, b);
    });
    options.column_order = std::move(order);
  }
  return options;
}

Result<CompactionReport> CompactTable(TableReader* reader,
                                      WritableFile* dest,
                                      const WriterOptions* options,
                                      ThreadPool* pool) {
  CompactionReport report;
  report.rows_before = reader->num_rows();

  Schema schema = reader->footer().ReconstructSchema();
  WriterOptions wopts =
      options != nullptr ? *options : LayoutWriterOptions(reader->footer());
  // Silently accepting a zero rows_per_page / bad column_order here
  // would corrupt the rewrite long after the misconfiguration; fail
  // like every other writer entry point does.
  BULLION_RETURN_NOT_OK(ValidateWriterOptions(wopts, schema));
  TableWriter writer(schema, dest, wopts, pool);

  std::vector<uint32_t> all_columns(reader->num_columns());
  std::iota(all_columns.begin(), all_columns.end(), 0);
  ReadOptions ropts;
  ropts.filter_deleted = true;
  for (uint32_t g = 0; g < reader->num_row_groups(); ++g) {
    std::vector<ColumnVector> cols;
    BULLION_RETURN_NOT_OK(
        reader->ReadProjection(g, all_columns, ropts, &cols));
    if (cols.empty() || cols[0].num_rows() == 0) continue;  // all deleted
    report.rows_after += cols[0].num_rows();
    ++report.row_groups_after;
    BULLION_RETURN_NOT_OK(writer.WriteRowGroup(std::move(cols)));
  }
  BULLION_RETURN_NOT_OK(writer.Finish());
  BULLION_ASSIGN_OR_RETURN(report.bytes_written, dest->Size());
  return report;
}

double DeletedFraction(const TableReader& reader) {
  const FooterView& f = reader.footer();
  return f.num_rows() == 0
             ? 0.0
             : static_cast<double>(f.TotalDeletedCount()) /
                   static_cast<double>(f.num_rows());
}

}  // namespace bullion
