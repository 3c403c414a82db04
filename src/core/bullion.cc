#include "core/bullion.h"

namespace bullion {

Status WriteTableFile(WritableFile* file, const Schema& schema,
                      const std::vector<std::vector<ColumnVector>>& groups,
                      const WriterOptions& options, size_t threads) {
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  TableWriter writer(schema, file, options, pool.get());
  for (const auto& group : groups) {
    // Borrow, don't copy: `groups` outlives the write.
    BULLION_RETURN_NOT_OK(writer.WriteRowGroup(
        std::shared_ptr<const std::vector<ColumnVector>>(
            &group, [](const std::vector<ColumnVector>*) {})));
  }
  return writer.Finish();
}

Result<ColumnVector> ReadFullColumn(TableReader* reader,
                                    const std::string& column,
                                    const ReadOptions& options,
                                    size_t threads) {
  BULLION_ASSIGN_OR_RETURN(ScanResult scan, Scan(reader)
                                                .Columns({column})
                                                .Threads(threads)
                                                .Options(options)
                                                .Collect());
  return scan.ConcatColumn(0);
}

}  // namespace bullion
