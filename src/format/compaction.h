// Compaction: reclaims the space of deleted rows.
//
// In-place deletion (§2.1) is the compliance fast path — data is erased
// immediately without rewriting the file — but masked slots and RLE
// padding still occupy their original bytes. Once a file accumulates
// enough deletions, a background rewrite reclaims the space. This is
// the deliberate division of labour the paper implies: urgent erasure
// is in-place and cheap; space reclamation is deferred and batched.
//
// The rewrite is one TableWriter (format/writer.h): pass a shared
// exec::ThreadPool and each surviving row group's page encodes fan out
// across its workers while commits land in row-group order — the
// output file is byte-identical to a serial compaction at any thread
// count. Dataset-level compaction (pick shards by deleted fraction, GC
// the replaced files, refresh the manifest) lives in
// dataset/evolution.h.

#pragma once

#include "common/result.h"
#include "common/status.h"
#include "format/reader.h"
#include "format/writer.h"
#include "io/file.h"

namespace bullion {

class ThreadPool;  // exec/thread_pool.h

struct CompactionReport {
  uint64_t rows_before = 0;
  uint64_t rows_after = 0;
  uint32_t row_groups_after = 0;
  uint64_t bytes_written = 0;
};

/// Derives WriterOptions matching the source file's physical layout:
/// rows_per_page, compliance level, and the chunk placement order
/// (§3 feature reordering) recovered from the footer's chunk offsets.
/// Rows are copied in stored order, so a quality-sorted layout (§2.5)
/// survives verbatim without re-sorting (quality_sort_column stays
/// disabled — the surviving rows of a sorted group are already sorted).
WriterOptions LayoutWriterOptions(const FooterView& footer);

/// Rewrites `reader`'s table into `dest` without the deleted rows.
/// The schema is reconstructed at leaf level from the footer. With
/// `options == nullptr` (the default) the rewritten file preserves the
/// source's physical layout via LayoutWriterOptions — page size,
/// compliance level, and column placement order all carry over; pass
/// explicit options to relayout instead. Options are validated up
/// front either way. A non-null `pool` fans page encodes out across
/// its workers; output bytes are identical either way. Returns after
/// `dest` was flushed (TableWriter::Finish).
Result<CompactionReport> CompactTable(TableReader* reader,
                                      WritableFile* dest,
                                      const WriterOptions* options = nullptr,
                                      ThreadPool* pool = nullptr);

/// Fraction of rows deleted across all groups (compaction trigger
/// heuristic: compact when this exceeds a policy threshold).
double DeletedFraction(const TableReader& reader);

}  // namespace bullion
