// Quickstart: define a schema, write a Bullion file to disk, stream a
// filtered projection back through the unified bullion::Scan front
// door (filter → stream → batch loop, with zone-map pruning skipping
// row groups before any pread), shard the same table across multiple
// files and stream THAT through the identical API, re-scan warm
// through the decoded-chunk cache, append to the live dataset,
// tombstone + compact a shard (with GC and cache invalidation), and
// delete a user's rows in place.
//
// Scan(...).Collect() drains the same stream into memory instead —
// equivalent output, just fully buffered; both forms appear below.
//
//   ./build/quickstart [/tmp/quickstart.bullion]

#include <cstdio>
#include <string>

#include "core/bullion.h"

using namespace bullion;  // NOLINT(google-build-using-namespace)

int main(int argc, char** argv) {
  std::string path = argc > 1 ? argv[1] : "/tmp/quickstart.bullion";

  // Every pipeline stage below carries trace spans (src/obs/README.md):
  //   BULLION_TRACE=/tmp/trace.json ./build/quickstart
  // writes a Chrome-trace JSON at exit — open it in ui.perfetto.dev.
  if (obs::TracingEnabled()) {
    std::printf("tracing active (BULLION_TRACE): spans will be written "
                "at exit\n");
  }

  // 1. Schema: a scalar id, a float score, and a sparse id sequence.
  //    Marking "uid" deletable opts it into in-place erasure (§2.1).
  Schema schema({
      Field{"uid", DataType::Primitive(PhysicalType::kInt64),
            LogicalType::kPlain, /*deletable=*/true},
      Field{"score", DataType::Primitive(PhysicalType::kFloat64),
            LogicalType::kPlain, false},
      Field{"clk_seq", DataType::List(DataType::Primitive(PhysicalType::kInt64)),
            LogicalType::kIdSequence, false},
  });

  // 2. Build one row group of columnar data.
  std::vector<ColumnVector> cols;
  for (const LeafColumn& leaf : schema.leaves()) {
    cols.push_back(ColumnVector::ForLeaf(leaf));
  }
  std::vector<int64_t> window = {92, 82, 66, 18, 67};
  for (int64_t r = 0; r < 10000; ++r) {
    cols[0].AppendInt(r / 4);                 // uid: 4 events per user
    cols[1].AppendReal(0.001 * (r % 997));    // score
    if (r % 3 == 0) {                         // sliding window drift
      window.insert(window.begin(), 100 + r);
      window.pop_back();
    }
    cols[2].AppendIntList(window);
  }

  // 3. Write — four row groups, so the footer records four sets of
  //    per-chunk zone maps for the filtered scan below to prune with.
  {
    auto file = OpenPosixWritableFile(path, /*truncate=*/true);
    if (!file.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   file.status().ToString().c_str());
      return 1;
    }
    std::vector<std::vector<ColumnVector>> groups;
    for (size_t begin = 0; begin < 10000; begin += 2500) {
      std::vector<ColumnVector> g;
      for (const LeafColumn& leaf : schema.leaves()) {
        g.push_back(ColumnVector::ForLeaf(leaf));
      }
      for (size_t c = 0; c < g.size(); ++c) {
        g[c].AppendRows(cols[c], begin, begin + 2500);
      }
      groups.push_back(std::move(g));
    }
    WriterOptions options;
    options.rows_per_page = 1024;
    Status st = WriteTableFile(file->get(), schema, groups, options);
    if (!st.ok()) {
      std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::printf("wrote %s\n", path.c_str());

  // 4. Open (two preads: trailer + flat footer) and STREAM a filtered
  //    projection through the unified front door: filter → stream →
  //    batch loop. The writer recorded per-chunk min/max zone maps in
  //    the footer, so row groups the filter provably misses are pruned
  //    before a single pread; surviving groups decode across two
  //    worker threads and arrive as bounded RowBatches — a terabyte
  //    table streams through the same fixed memory footprint.
  auto reader = TableReader::Open(*OpenPosixReadableFile(path));
  if (!reader.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 reader.status().ToString().c_str());
    return 1;
  }
  std::printf("rows=%llu columns=%u groups=%u\n",
              static_cast<unsigned long long>((*reader)->num_rows()),
              (*reader)->num_columns(), (*reader)->num_row_groups());

  {
    obs::PipelineReport scan_report;
    auto stream = Scan(reader->get())
                      .Columns({"uid", "score"})
                      .Filter("uid", CompareOp::kGe, 2000)  // skips groups
                      .Threads(2)
                      .BatchRows(1024)  // bounded memory
                      .Report(&scan_report)
                      .Stream();
    if (!stream.ok()) {
      std::fprintf(stderr, "stream failed: %s\n",
                   stream.status().ToString().c_str());
      return 1;
    }
    uint64_t rows = 0, batches = 0;
    RowBatch batch;
    for (;;) {
      auto more = (*stream)->Next(&batch);
      if (!more.ok()) {
        std::fprintf(stderr, "stream failed: %s\n",
                     more.status().ToString().c_str());
        return 1;
      }
      if (!*more) break;
      rows += batch.num_rows();  // train / aggregate here, batch by batch
      ++batches;
    }
    std::printf(
        "streamed uid >= 2000: %llu rows in %llu bounded batches, "
        "%llu row groups pruned by zone maps before any pread\n",
        static_cast<unsigned long long>(rows),
        static_cast<unsigned long long>(batches),
        static_cast<unsigned long long>(scan_report.groups_pruned.load()));
  }

  // 4b. Collect() drains the same stream into memory (no filters, one
  //     entry per row group) — equivalent output, fully buffered.
  auto scan = Scan(reader->get())
                  .Columns({"score", "clk_seq"})
                  .Threads(2)
                  .Collect();
  if (!scan.ok()) {
    std::fprintf(stderr, "scan failed: %s\n",
                 scan.status().ToString().c_str());
    return 1;
  }
  auto seq = scan->ConcatColumn(1);
  std::printf("scanned %llu rows across %zu groups; clk_seq row 0: [",
              static_cast<unsigned long long>(scan->num_rows()),
              scan->num_groups());
  for (int64_t v : seq->IntListAt(0)) std::printf(" %lld", (long long)v);
  std::printf(" ]\n");

  // 5. Sharded dataset: production tables span many files. Split the
  //    same stream into shards with a MULTI-THREADED write — every
  //    shard's page encodes run on one pool, a full shard finishes
  //    while the next shard's first group encodes, commits land in
  //    order, and the shard files are byte-identical to a serial
  //    write. Then scan them as ONE logical table — all shards
  //    fan through one pool, and a DecodedChunkCache makes the second
  //    (warm) epoch skip fetch + decode entirely.
  {
    auto sharded_w = ShardedWriteBuilder(schema,
                                         [](const std::string& name) {
                                           return OpenPosixWritableFile(
                                               name, /*truncate=*/true);
                                         })
                         .BaseName(path)
                         .RowsPerShard(4096)  // -> 3 shards for 10k rows
                         .RowsPerGroup(2048)
                         .RowsPerPage(1024)
                         .Threads(2)  // parallel page encoding
                         .Build();
    if (!sharded_w.ok()) {
      std::fprintf(stderr, "shard writer failed: %s\n",
                   sharded_w.status().ToString().c_str());
      return 1;
    }
    Status st = (*sharded_w)->Append(cols);
    if (!st.ok()) {
      std::fprintf(stderr, "shard append failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    {
      auto manifest = (*sharded_w)->Finish();
      if (!manifest.ok()) {
        std::fprintf(stderr, "shard write failed: %s\n",
                     manifest.status().ToString().c_str());
        return 1;
      }
      auto ds = ShardedTableReader::Open(
          *manifest,
          [](const std::string& name) { return OpenPosixReadableFile(name); });
      if (!ds.ok()) {
        std::fprintf(stderr, "dataset open failed: %s\n",
                     ds.status().ToString().c_str());
        return 1;
      }
      DecodedChunkCache cache(64 << 20);
      auto epoch = [&] {
        return Scan(ds->get())
            .Columns({"score", "clk_seq"})
            .Threads(2)
            .Cache(&cache)
            .Collect();
      };
      auto cold = epoch();  // fills the cache
      uint64_t cold_hits = cache.hits(), cold_misses = cache.misses();
      auto warm = epoch();  // every chunk served decoded from the LRU
      if (!cold.ok() || !warm.ok()) {
        std::fprintf(stderr, "dataset scan failed\n");
        return 1;
      }
      // Counters accumulate across epochs; report the warm delta only.
      uint64_t warm_hits = cache.hits() - cold_hits;
      uint64_t warm_probes = warm_hits + cache.misses() - cold_misses;
      std::printf(
          "sharded: %zu shards, %llu rows; warm epoch re-scan hit cache "
          "%llu/%llu probes (identical output: %s)\n",
          manifest->num_shards(),
          static_cast<unsigned long long>((*ds)->num_rows()),
          static_cast<unsigned long long>(warm_hits),
          static_cast<unsigned long long>(warm_probes),
          warm->groups == cold->groups ? "yes" : "NO");

      // 5a. The SAME streaming front door works over the dataset: each
      //     shard footer's zone maps prune its row groups before they
      //     are touched, and surviving groups stream through the
      //     shared cache.
      {
        obs::PipelineReport scan_report;
        auto stream = Scan(ds->get())
                          .Columns({"uid", "score"})
                          .Filter("uid", CompareOp::kLt, 1000)
                          .Threads(2)
                          .Cache(&cache)
                          .Report(&scan_report)
                          .Stream();
        if (!stream.ok()) {
          std::fprintf(stderr, "dataset stream failed: %s\n",
                       stream.status().ToString().c_str());
          return 1;
        }
        uint64_t rows = 0;
        RowBatch batch;
        for (;;) {
          auto more = (*stream)->Next(&batch);
          if (!more.ok()) {
            std::fprintf(stderr, "dataset stream failed: %s\n",
                         more.status().ToString().c_str());
            return 1;
          }
          if (!*more) break;
          rows += batch.num_rows();
        }
        std::printf(
            "streamed dataset uid < 1000: %llu rows, %llu group(s) pruned "
            "before any pread\n",
            static_cast<unsigned long long>(rows),
            static_cast<unsigned long long>(scan_report.groups_pruned.load()));
      }

      // 5a'. Point lookups through the serving tier: the writer
      //      recorded per-chunk Bloom filters (footer v3) by default,
      //      so bullion::Lookup answers "uid == K?" by probing each
      //      shard footer's filters before any pread and then
      //      late-materializes only the page runs holding surviving
      //      rows. Compare bytes fetched with the equivalent filtered
      //      scan — same rows, less I/O.
      {
        obs::PipelineReport lookup_report;
        auto hit = Lookup(ds->get())
                       .Key("uid", int64_t{777})
                       .Columns({"uid", "score", "clk_seq"})
                       .Report(&lookup_report)
                       .Run();
        if (!hit.ok()) {
          std::fprintf(stderr, "lookup failed: %s\n",
                       hit.status().ToString().c_str());
          return 1;
        }
        obs::PipelineReport scan_report;
        auto stream = Scan(ds->get())
                          .Columns({"uid", "score", "clk_seq"})
                          .Filter("uid", CompareOp::kEq, 777)
                          .Report(&scan_report)
                          .Stream();
        if (!stream.ok()) {
          std::fprintf(stderr, "scan failed: %s\n",
                       stream.status().ToString().c_str());
          return 1;
        }
        uint64_t scan_rows = 0;
        RowBatch batch;
        for (;;) {
          auto more = (*stream)->Next(&batch);
          if (!more.ok()) return 1;
          if (!*more) break;
          scan_rows += batch.num_rows();
        }
        obs::PipelineReport miss_report;
        auto miss = Lookup(ds->get())
                        .Key("uid", int64_t{424242})
                        .Report(&miss_report)
                        .Run();
        if (!miss.ok() || miss->num_rows() != 0) {
          std::fprintf(stderr, "miss lookup failed\n");
          return 1;
        }
        std::printf(
            "point lookup uid==777: %zu rows (scan agrees: %llu), "
            "%llu bytes fetched via late materialization vs %llu for "
            "the filtered scan; absent key fetched %llu bytes\n",
            hit->num_rows(), static_cast<unsigned long long>(scan_rows),
            static_cast<unsigned long long>(lookup_report.bytes.load()),
            static_cast<unsigned long long>(scan_report.bytes.load()),
            static_cast<unsigned long long>(miss_report.bytes.load()));
      }

      // 5b. The dataset is LIVE: append more rows through the same
      //     parallel pipeline. The appender continues the shard
      //     numbering and publishes a v2 manifest with the generation
      //     bumped — only after the new files are durable.
      auto read_fn = [](const std::string& name) {
        return OpenPosixReadableFile(name);
      };
      auto write_fn = [](const std::string& name) {
        return OpenPosixWritableFile(name, /*truncate=*/true);
      };
      auto appender = DatasetAppender::Open(*manifest, schema, read_fn,
                                            write_fn);
      if (!appender.ok() || !(*appender)->Append(cols).ok()) {
        std::fprintf(stderr, "append failed\n");
        return 1;
      }
      auto live = (*appender)->Finish();
      if (!live.ok()) {
        std::fprintf(stderr, "append publish failed: %s\n",
                     live.status().ToString().c_str());
        return 1;
      }
      std::printf("appended: %zu shards, %llu rows (generation %llu)\n",
                  live->num_shards(),
                  static_cast<unsigned long long>(live->total_rows()),
                  static_cast<unsigned long long>(live->generation()));

      // 5c. Tombstone a third of shard 0's rows in place, then let the
      //     compactor reclaim the space: the shard is rewritten without
      //     its deleted rows (encodes fanned across workers), the old
      //     file is GC'd, and the generation bump invalidates any
      //     cached pre-compaction chunks.
      {
        const std::string& victim = live->shard(0).name;
        auto vf = OpenPosixReadableFile(victim);
        auto rf = OpenPosixReadableFile(victim);
        auto uf = OpenPosixWritableFile(victim, /*truncate=*/false);
        if (!vf.ok() || !rf.ok() || !uf.ok()) {
          std::fprintf(stderr, "shard reopen failed\n");
          return 1;
        }
        auto reader = TableReader::Open(std::move(*vf));
        if (!reader.ok()) {
          std::fprintf(stderr, "shard open failed: %s\n",
                       reader.status().ToString().c_str());
          return 1;
        }
        DeleteExecutor del(rf->get(), uf->get(), (*reader)->footer());
        std::vector<uint64_t> doomed;
        for (uint64_t r = 0; r < (*reader)->num_rows(); r += 3) {
          doomed.push_back(r);
        }
        if (!del.DeleteRows(doomed, ComplianceLevel::kLevel2).ok()) {
          std::fprintf(stderr, "shard delete failed\n");
          return 1;
        }
      }
      DatasetCompactor compactor(read_fn, write_fn,
                                 [](const std::string& name) {
                                   return std::remove(name.c_str()) == 0
                                              ? Status::OK()
                                              : Status::IOError(
                                                    "unlink " + name);
                                 });
      DatasetCompactionOptions copts;
      copts.min_deleted_fraction = 0.25;
      copts.threads = 2;
      copts.cache = &cache;  // drop stale decoded chunks eagerly
      auto compacted = compactor.Compact(*live, copts);
      if (!compacted.ok()) {
        std::fprintf(stderr, "compaction failed: %s\n",
                     compacted.status().ToString().c_str());
        return 1;
      }
      std::printf(
          "compacted %zu/%zu shards: %llu rows reclaimed, %llu -> %llu "
          "bytes, %zu file(s) GC'd, %llu cached chunks invalidated "
          "(generation %llu)\n",
          compacted->shards_compacted, compacted->shards_examined,
          static_cast<unsigned long long>(compacted->rows_reclaimed),
          static_cast<unsigned long long>(compacted->bytes_before),
          static_cast<unsigned long long>(compacted->bytes_after),
          compacted->replaced_files.size(),
          static_cast<unsigned long long>(cache.invalidations()),
          static_cast<unsigned long long>(
              compacted->manifest.generation()));
      auto evolved = ShardedTableReader::Open(compacted->manifest, read_fn);
      if (!evolved.ok()) {
        std::fprintf(stderr, "post-compaction open failed: %s\n",
                     evolved.status().ToString().c_str());
        return 1;
      }
      auto rescan = Scan(evolved->get())
                        .Columns({"score", "clk_seq"})
                        .Threads(2)
                        .Cache(&cache)
                        .Collect();
      if (!rescan.ok()) {
        std::fprintf(stderr, "post-compaction scan failed\n");
        return 1;
      }
      std::printf("post-compaction scan: %llu rows (zero deleted left)\n",
                  static_cast<unsigned long long>(rescan->num_rows()));
    }
  }

  // 6. GDPR-style delete: physically erase user 7's rows (28..31).
  {
    auto rf = OpenPosixReadableFile(path);
    auto uf = OpenPosixWritableFile(path, /*truncate=*/false);
    DeleteExecutor exec(rf->get(), uf->get(), (*reader)->footer());
    std::vector<uint64_t> rows = {28, 29, 30, 31};
    auto report = exec.DeleteRows(rows, ComplianceLevel::kLevel2);
    if (!report.ok()) {
      std::fprintf(stderr, "delete failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "deleted %llu rows in place: %llu pages rewritten, %llu bytes "
        "(file untouched otherwise)\n",
        static_cast<unsigned long long>(report->rows_deleted),
        static_cast<unsigned long long>(report->pages_rewritten),
        static_cast<unsigned long long>(report->total_bytes_written()));
  }

  // 7. Re-open: deleted rows are gone from reads, checksums still hold.
  auto reader2 = TableReader::Open(*OpenPosixReadableFile(path));
  auto uid = ReadFullColumn(reader2->get(), "uid");
  std::printf("rows visible after delete: %zu (was 10000)\n",
              uid->num_rows());
  Status verify = (*reader2)->VerifyChecksums();
  std::printf("checksum verification: %s\n", verify.ToString().c_str());
  return verify.ok() ? 0 : 1;
}
