// Bullion: a column store for machine learning.
//
// Umbrella public header. Include this to get the full API:
//
//   Schema / ColumnVector      -- format/schema.h, format/column_vector.h
//   TableWriter / TableReader  -- format/writer.h, format/reader.h
//   Read planning              -- io/read_planner.h (coalesced pread plans)
//   Unified scan               -- core/scan.h (bullion::Scan front door:
//                                 Stream() or Collect()),
//                                 exec/batch_stream.h, io/predicate.h
//   Thread pool                -- exec/thread_pool.h
//   Sharded datasets           -- dataset/* (multi-file logical tables)
//   Point-lookup serving       -- serve/* (split-block Bloom filters,
//                                 the bullion::Lookup front door with
//                                 late materialization)
//   DeleteExecutor             -- format/deletion.h (§2.1)
//   Sparse sliding-window delta-- format/sparse_delta.h (§2.2)
//   Flat footer                -- format/footer.h (§2.3)
//   Cascading encodings        -- encoding/cascade.h (§2.6, Table 2)
//   Storage quantization       -- quant/* (§2.4)
//   Multimodal meta+media      -- multimodal/* (§2.5)
//   Parquet-like baseline      -- baseline/parquet_like.h
//   Observability              -- obs/* (metrics registry, latency
//                                 histograms, PipelineReport, Chrome-
//                                 trace spans via BULLION_TRACE)
//
// The read stack is layered plan → fetch → decode: TableReader plans a
// projection into coalesced preads (io/read_planner.h), fetches each
// range, and decodes the covered chunks. The exec/ layer drives those
// same stages concurrently behind ONE unified streaming front door —
// bullion::Scan works identically over a single file and a sharded
// dataset (one planner sees both as a list of shards; a file is one
// shard), returns a pull-based BatchStream of bounded RowBatches, and
// pushes Filter predicates down to footer zone maps and chunk Bloom
// filters so irrelevant row groups never cost a pread:
//
//   auto reader = TableReader::Open(std::move(file));
//   auto stream = Scan(reader->get())           // or Scan(dataset.get())
//                     .Columns({"uid", "score"})
//                     .Filter("score", CompareOp::kGt, 0.9)
//                     .Threads(8)
//                     .BatchRows(65536)         // bounded memory
//                     .Stream();
//   RowBatch batch;
//   while (*(*stream)->Next(&batch)) Consume(batch.columns);
//
// Collect() drains the same stream into memory instead; without
// filters it holds one entry per row group:
//
//   auto scan = Scan(reader->get())
//                   .Columns({"uid", "score"})  // default: all leaves
//                   .RowGroups(0, (*reader)->num_row_groups())
//                   .Threads(8)                 // <=1 = serial path
//                   .Collect();
//   auto uid = scan->ConcatColumn(0);           // across row groups
//
// Output is byte-identical to the serial TableReader path at any
// thread count.
//
// The write stack is its twin, layered stage → encode → commit:
// TableWriter stages a batch into per-column page-encode tasks
// (format/writer.h), encodes each page, and commits the encoded pages
// in deterministic placement order. Given a ThreadPool, the page
// encodes of up to 2 × workers row groups run on it while commits
// land in order on the calling thread:
//
//   ThreadPool pool(8);                          // encode workers
//   TableWriter writer(schema, file, options, &pool);
//   writer.WriteRowGroup(std::move(batch));
//   writer.Finish();
//
// Files are byte-identical to a write without a pool at any thread
// count — all placement decisions happen in the ordered commit stage.
//
// Sharded datasets (dataset/*): a logical table at production scale is
// many Bullion files. ShardedTableWriter splits an append stream into
// shards by target rows-per-shard — with ShardedWriteBuilder(...)
// .Threads(N) every shard's TableWriter encodes on one shared pool,
// and a full shard's file is finished while the next shard's first
// group encodes, so every shard file is byte-identical to a serial
// write.
// ShardManifest records the shard list and global row-group index;
// ShardedTableReader scans them as one table, fanning every shard's
// coalesced reads through ONE shared ThreadPool. An optional
// DecodedChunkCache (byte-budgeted LRU of decoded chunks behind a
// frequency-gated admission test) lets repeated training epochs skip
// fetch + decode — fully cached row groups issue zero preads (see
// DecodedChunkCache::hits()), and a budget smaller than an epoch still
// keeps part of every epoch decoded. The same
// bullion::Scan front door reads a dataset:
//
//   auto ds = ShardedTableReader::Open(manifest, open_fn);
//   DecodedChunkCache cache(256 << 20);
//   auto scan = Scan(ds->get())
//                   .Columns({"uid", "clk_seq"})
//                   .Threads(8)                 // one pool, all shards
//                   .Cache(&cache)              // warm epochs skip I/O
//                   .Collect();
//   auto uid = scan->ConcatColumn(0);           // across every shard
//
// Output is byte-identical to concatenating per-shard serial reads at
// any thread/shard count.
//
// Datasets are LIVE (dataset/evolution.h): DatasetAppender opens an
// existing dataset and appends new shards through the same parallel
// write pipeline, publishing a v2 manifest (per-shard deleted counts +
// generations) only after the new files are durable; appends may add
// nullable trailing columns, which older shards back-fill with nulls
// at scan time. DatasetCompactor reclaims §2.1 tombstones: shards at
// or above a deleted-fraction threshold are rewritten via CompactTable
// (page encodes fanned across the shared pool, layout preserved),
// replaced files are garbage-collected, and the shard generation bump
// keeps the DecodedChunkCache from ever serving pre-compaction chunks:
//
//   auto app = DatasetAppender::Open(manifest, schema, open_rd, open_wr);
//   (*app)->Append(batch);
//   ShardManifest m2 = *(*app)->Finish();        // generation + 1
//
//   DatasetCompactor compactor(open_rd, open_wr, remove_fn);
//   DatasetCompactionOptions copts;              // threshold/threads/cache
//   auto rep = compactor.Compact(m2, copts);     // rewrites + GCs shards
//
// Quickstart: see examples/quickstart.cpp.

#pragma once

#include "common/float16.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "core/scan.h"
#include "dataset/chunk_cache.h"
#include "dataset/evolution.h"
#include "dataset/shard_manifest.h"
#include "dataset/sharded_reader.h"
#include "dataset/sharded_writer.h"
#include "encoding/cascade.h"
#include "exec/thread_pool.h"
#include "format/column_vector.h"
#include "format/compaction.h"
#include "format/deletion.h"
#include "format/footer.h"
#include "format/merkle.h"
#include "format/reader.h"
#include "format/schema.h"
#include "format/sparse_delta.h"
#include "format/user_events.h"
#include "format/writer.h"
#include "io/file.h"
#include "multimodal/dataset.h"
#include "obs/metrics.h"
#include "obs/pipeline_report.h"
#include "obs/trace.h"
#include "quant/int_rehash.h"
#include "quant/mixed_precision.h"
#include "quant/quantize.h"
#include "serve/bloom.h"
#include "serve/lookup.h"

namespace bullion {

/// Library version.
inline constexpr const char* kVersionString = "0.1.0";

/// Convenience: writes a complete table (one call, many row groups)
/// through one TableWriter. `threads` > 1 encodes on a pool of that
/// many workers made for this call; <= 1 keeps the write serial.
/// Output bytes are identical either way.
Status WriteTableFile(WritableFile* file, const Schema& schema,
                      const std::vector<std::vector<ColumnVector>>& groups,
                      const WriterOptions& options = {}, size_t threads = 1);

/// Convenience: reads one full column across all row groups
/// (concatenated) through Scan(...).Collect(); `threads` <= 1 keeps
/// the scan serial.
Result<ColumnVector> ReadFullColumn(TableReader* reader,
                                    const std::string& column,
                                    const ReadOptions& options = {},
                                    size_t threads = 1);

}  // namespace bullion
