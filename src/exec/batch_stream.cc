#include "exec/batch_stream.h"

#include <algorithm>
#include <utility>

#include "dataset/chunk_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/bloom.h"

namespace bullion {

namespace {

// ---------------------------------------------------------------- planning

/// Resolves a projection spec against a footer: explicit indices win,
/// then names (clear NotFound for unknown ones), then all leaves.
Result<std::vector<uint32_t>> ResolveProjection(
    const FooterView& footer, const std::vector<uint32_t>& indices,
    const std::vector<std::string>& names) {
  std::vector<uint32_t> out;
  if (!indices.empty()) {
    for (uint32_t c : indices) {
      if (c >= footer.num_columns()) {
        return Status::InvalidArgument(
            "column index " + std::to_string(c) + " out of range (table has " +
            std::to_string(footer.num_columns()) + " leaf columns)");
      }
    }
    return indices;
  }
  if (!names.empty()) {
    out.reserve(names.size());
    for (const std::string& name : names) {
      BULLION_ASSIGN_OR_RETURN(uint32_t c, footer.FindColumn(name));
      out.push_back(c);
    }
    return out;
  }
  out.resize(footer.num_columns());
  for (uint32_t c = 0; c < footer.num_columns(); ++c) out[c] = c;
  return out;
}

/// \brief Projection + filters resolved into the stream's fetch set.
struct StreamColumnPlan {
  std::vector<uint32_t> fetch_columns;
  size_t num_projected = 0;
  /// term_slots[i][j] is the fetch slot of spec.filters[i].any_of[j].
  std::vector<std::vector<size_t>> term_slots;
};

/// Resolves spec.columns/column_names/filters against `footer`:
/// projection first, filter-only columns appended, clause terms bound
/// to fetch slots. Rejects predicates on unknown names and on column
/// types without an order (lists, raw-bit-pattern floats); binary
/// columns are accepted for kEq / kNe / kIn.
Result<StreamColumnPlan> PlanStreamColumns(const FooterView& footer,
                                           const ScanStreamSpec& spec) {
  StreamColumnPlan plan;
  BULLION_ASSIGN_OR_RETURN(
      plan.fetch_columns,
      ResolveProjection(footer, spec.columns, spec.column_names));
  plan.num_projected = plan.fetch_columns.size();
  plan.term_slots.reserve(spec.filters.size());
  for (const FilterClause& clause : spec.filters) {
    if (clause.any_of.empty()) {
      return Status::InvalidArgument(
          "empty filter clause (a disjunction of nothing matches no row)");
    }
    std::vector<size_t> slots;
    slots.reserve(clause.any_of.size());
    for (const Filter& f : clause.any_of) {
      BULLION_ASSIGN_OR_RETURN(uint32_t c, footer.FindColumn(f.column));
      ColumnRecord rec = footer.column_record(c);
      const auto physical = static_cast<PhysicalType>(rec.physical);
      const bool binary = physical == PhysicalType::kBinary;
      if (rec.list_depth != 0 || (!binary && !HasPredicateOrder(physical))) {
        return Status::InvalidArgument(
            "predicate on column '" + f.column +
            "': only scalar integer, float32/64, and binary columns support "
            "filters");
      }
      if (binary && f.op != CompareOp::kEq && f.op != CompareOp::kNe &&
          f.op != CompareOp::kIn) {
        return Status::InvalidArgument(
            "predicate on binary column '" + f.column +
            "': only ==, !=, and IN are supported");
      }
      // Constant domains are checked here, not mid-scan: a mismatch
      // would otherwise surface as a row-evaluation error only for
      // groups that survive pruning.
      auto domain_ok = [binary](const FilterValue& v) {
        return binary == v.is_binary;
      };
      if (f.op == CompareOp::kIn) {
        for (const FilterValue& v : f.values) {
          if (!domain_ok(v)) {
            return Status::InvalidArgument(
                "predicate on column '" + f.column +
                "': IN list member type does not match the column");
          }
        }
      } else if (!domain_ok(f.value)) {
        return Status::InvalidArgument(
            binary ? "predicate on binary column '" + f.column +
                         "': constant must be a byte string"
                   : "predicate on column '" + f.column +
                         "': byte-string constant on a numeric column");
      }
      // Bind to an existing fetch slot when the column is already
      // projected (or filtered twice); append a filter-only slot
      // otherwise.
      size_t slot = plan.fetch_columns.size();
      for (size_t i = 0; i < plan.fetch_columns.size(); ++i) {
        if (plan.fetch_columns[i] == c) {
          slot = i;
          break;
        }
      }
      if (slot == plan.fetch_columns.size()) plan.fetch_columns.push_back(c);
      slots.push_back(slot);
    }
    plan.term_slots.push_back(std::move(slots));
  }
  return plan;
}

/// True if `footer`'s zone maps and chunk Bloom filters prove no row
/// of group `local_group` can satisfy spec.filters (some clause's
/// every term is provably false). A term on a column the footer
/// predates is always false: the group back-fills it with nulls.
/// Scans that keep deleted rows prune on nothing else (their
/// placeholder values are not covered by the recorded bounds, and
/// deletes make the filters stale-but-superset only for filtered
/// scans).
bool GroupProvablyEmpty(const FooterView& footer, uint32_t local_group,
                        const ScanStreamSpec& spec,
                        const StreamColumnPlan& plan) {
  for (size_t ci = 0; ci < spec.filters.size(); ++ci) {
    const std::vector<Filter>& terms = spec.filters[ci].any_of;
    bool all_terms_empty = !terms.empty();
    for (size_t ti = 0; ti < terms.size(); ++ti) {
      uint32_t col = plan.fetch_columns[plan.term_slots[ci][ti]];
      // A column this footer predates back-fills as null, which
      // matches no row: the term is empty here.
      if (col >= footer.num_columns()) continue;
      // Scans that keep deleted rows see zero/empty placeholders for
      // physically erased values; the recorded bounds (and the
      // write-time Bloom filters) don't cover those, so pruning on
      // them would be unsound.
      if (!spec.read_options.filter_deleted) {
        all_terms_empty = false;
        break;
      }
      ZoneMap zone = footer.chunk_zone_map(local_group, col);
      if (!ZoneMapMayMatch(zone, terms[ti])) continue;
      // No filter recorded (pre-Bloom footer, ineligible column): the
      // chunk may hold any key.
      Slice bloom = footer.has_chunk_blooms()
                        ? footer.chunk_bloom(local_group, col)
                        : Slice();
      const auto physical =
          static_cast<PhysicalType>(footer.column_record(col).physical);
      if (bloom.empty() || !BloomProvesAbsent(bloom, physical, terms[ti])) {
        all_terms_empty = false;
        break;
      }
    }
    if (all_terms_empty) return true;
  }
  return false;
}

}  // namespace

Result<std::unique_ptr<BatchStream>> OpenScanStream(
    std::vector<ScanShard> shards, const ScanStreamSpec& spec,
    DecodedChunkCache* cache) {
  // Planning runs from here until the stream, whose wall time starts in
  // its constructor, exists.
  const uint64_t plan_start_ns = spec.report != nullptr ? obs::NowNs() : 0;
  auto new_stream = [&] {
    if (spec.report != nullptr) {
      spec.report->plan_ns.fetch_add(obs::NowNs() - plan_start_ns,
                                     std::memory_order_relaxed);
    }
    return std::unique_ptr<BatchStream>(new BatchStream(spec, cache));
  };
  if (spec.group_begin > spec.group_end) {
    return Status::InvalidArgument("row-group range begin past end");
  }
  if (shards.empty()) {
    if (!spec.columns.empty()) {
      // Explicit indices take precedence over names (as everywhere),
      // and a zero-shard dataset has zero leaf columns.
      return Status::InvalidArgument(
          "column index out of range (dataset has no shards)");
    }
    if (!spec.column_names.empty() || !spec.filters.empty()) {
      return Status::NotFound("dataset has no shards");
    }
    return new_stream();
  }

  // The newest (last) shard carries the schema; earlier shards are
  // validated prefixes of it (ShardedTableReader::Open).
  const FooterView& ref = shards.back().reader->footer();
  BULLION_ASSIGN_OR_RETURN(StreamColumnPlan plan,
                           PlanStreamColumns(ref, spec));
  uint32_t total_groups = 0;
  for (const ScanShard& shard : shards) {
    total_groups += shard.reader->num_row_groups();
  }
  const uint32_t group_end = std::min(spec.group_end, total_groups);
  const uint32_t group_begin = std::min(spec.group_begin, group_end);

  // Global group numbers run shard after shard; each shard contributes
  // the part of its range that falls inside [group_begin, group_end).
  std::vector<BatchStream::Unit> units;
  units.reserve(group_end - group_begin);
  uint32_t shard_begin = 0;  // global number of the shard's first group
  for (uint32_t s = 0; s < shards.size() && shard_begin < group_end; ++s) {
    const TableReader* reader = shards[s].reader;
    const FooterView& footer = reader->footer();
    const uint32_t shard_end = shard_begin + footer.num_row_groups();
    const uint32_t end = std::min(group_end, shard_end);
    for (uint32_t g = std::max(group_begin, shard_begin); g < end; ++g) {
      const uint32_t local = g - shard_begin;
      if (!spec.filters.empty() &&
          GroupProvablyEmpty(footer, local, spec, plan)) {
        if (spec.report != nullptr) {
          spec.report->groups_pruned.fetch_add(1, std::memory_order_relaxed);
        }
        continue;
      }
      units.push_back(
          BatchStream::Unit{reader, s, shards[s].generation, local, g});
    }
    shard_begin = shard_end;
  }

  std::unique_ptr<BatchStream> stream = new_stream();
  stream->fetch_records_.reserve(plan.fetch_columns.size());
  for (uint32_t c : plan.fetch_columns) {
    stream->fetch_records_.push_back(ref.column_record(c));
  }
  stream->projected_columns_.assign(
      plan.fetch_columns.begin(),
      plan.fetch_columns.begin() + plan.num_projected);
  stream->projected_records_.assign(
      stream->fetch_records_.begin(),
      stream->fetch_records_.begin() + plan.num_projected);
  stream->residual_slot_.assign(plan.fetch_columns.size(), 0);
  for (const std::vector<size_t>& slots : plan.term_slots) {
    for (size_t slot : slots) stream->residual_slot_[slot] = 1;
  }
  stream->fetch_columns_ = std::move(plan.fetch_columns);
  stream->term_slots_ = std::move(plan.term_slots);
  stream->group_begin_ = group_begin;
  stream->units_ = std::move(units);
  return stream;
}

// ------------------------------------------------------- materializing

uint64_t ScanResult::num_rows() const {
  uint64_t rows = 0;
  for (const auto& group : groups) {
    if (!group.empty()) rows += group[0].num_rows();
  }
  return rows;
}

Result<ColumnVector> ScanResult::ConcatColumn(size_t slot) const {
  if (slot >= columns.size()) {
    return Status::InvalidArgument("projection slot out of range");
  }
  ColumnVector out(static_cast<PhysicalType>(column_records[slot].physical),
                   column_records[slot].list_depth);
  for (const auto& group : groups) {
    out.AppendAllFrom(group[slot]);
  }
  return out;
}

Status ScanResult::DrainStream(BatchStream* stream) {
  columns = stream->columns();
  column_records = stream->column_records();
  group_begin = stream->group_begin();
  groups.clear();
  groups.reserve(stream->num_units());
  RowBatch batch;
  for (;;) {
    BULLION_ASSIGN_OR_RETURN(bool more, stream->Next(&batch));
    if (!more) break;
    groups.push_back(std::move(batch.columns));
  }
  return Status::OK();
}

// ------------------------------------------------------------- the stream

namespace {

/// Extra coalesced reads in flight per worker.
constexpr size_t kPrefetchPerWorker = 2;

/// RAII: adds the enclosing scope's duration to a report stage counter
/// (no-op on a null destination). Covers every exit path, including
/// the Status-macro early returns.
class StageTimer {
 public:
  explicit StageTimer(std::atomic<uint64_t>* dst)
      : dst_(dst), start_ns_(dst != nullptr ? obs::NowNs() : 0) {}
  ~StageTimer() {
    if (dst_ != nullptr) {
      dst_->fetch_add(obs::NowNs() - start_ns_, std::memory_order_relaxed);
    }
  }

 private:
  std::atomic<uint64_t>* dst_;
  uint64_t start_ns_;
};

}  // namespace

/// One row group inside the in-flight window.
struct BatchStream::InFlight {
  const Unit* unit = nullptr;
  /// The group's deleted-row count in its shard's footer: part of
  /// every cache key, because in-place deletes change what a decode
  /// produces without bumping the shard generation.
  uint32_t deleted = 0;
  /// Fetch-slot outputs; back-filled and cached slots are filled at
  /// submission, missing slots receive their decode after the join.
  std::vector<ColumnVector> out;
  /// Leaf columns actually fetched and the fetch slots they land in.
  std::vector<uint32_t> missing_cols;
  std::vector<size_t> missing_slots;
  /// The coalesced reads that fetch missing_cols. Decode tasks read it
  /// until they retire, and the slot outlives every task.
  ReadPlan plan;
  /// Decode target of the missing columns (user_index coordinates).
  std::vector<ColumnVector> temp;
  /// Bytes of each coalesced read, one per plan read; filled by the
  /// consumer's pread, consumed by that read's decode task.
  std::vector<Buffer> read_bufs;
  /// Late materialization: fetch slots deferred past the residual.
  /// Phase 1 fetched only the filter slots; these are filled at emit
  /// time from the surviving page runs, already compacted.
  std::vector<size_t> late_slots;

  // Guarded by the stream's mu_:
  size_t pending = 0;
  size_t first_error_read = SIZE_MAX;
  Status error;
};

BatchStream::BatchStream(const ScanStreamSpec& spec, DecodedChunkCache* cache)
    : spec_(spec), cache_(cache) {
  ThreadPool* pool = spec_.pool;
  if (pool == nullptr && spec_.threads > 1) {
    owned_pool_ = std::make_unique<ThreadPool>(spec_.threads);
    pool = owned_pool_.get();
  }
  size_t workers =
      pool != nullptr ? std::max<size_t>(1, pool->num_threads()) : 1;
  // Serial streams hold one group at a time; parallel streams decode
  // ahead by the prefetch window so consumers never starve the pool.
  group_window_ = (pool == nullptr || pool->num_threads() <= 1)
                      ? 1
                      : workers + kPrefetchPerWorker;
  tasks_ = std::make_unique<TaskGroup>(pool,
                                       workers * (1 + kPrefetchPerWorker));
  start_ns_ = obs::NowNs();
}

// tasks_ (declared last, destroyed first) joins the decode tasks before
// the InFlight slots they write into tear down.
BatchStream::~BatchStream() { RecordWall(); }

void BatchStream::RecordWall() {
  if (wall_recorded_ || spec_.report == nullptr) return;
  wall_recorded_ = true;
  spec_.report->wall_ns.fetch_add(obs::NowNs() - start_ns_,
                                  std::memory_order_relaxed);
}

ChunkCacheKey BatchStream::CacheKey(const InFlight& fl,
                                    uint32_t column) const {
  return ChunkCacheKey{fl.unit->shard,
                       fl.unit->local_group,
                       column,
                       spec_.read_options.filter_deleted,
                       spec_.read_options.verify_checksums,
                       fl.unit->generation,
                       fl.deleted};
}

Status BatchStream::SubmitNext() {
  BULLION_TRACE_SPAN("scan.prepare");
  // prepare_ns stops before the fan-out loop: Submit() blocking on the
  // read window is backpressure, not preparation cost.
  auto prep_timer = std::make_unique<StageTimer>(
      spec_.report != nullptr ? &spec_.report->prepare_ns : nullptr);
  const Unit& unit = units_[next_submit_];
  const FooterView& footer = unit.reader->footer();
  auto fl = std::make_unique<InFlight>();
  fl->unit = &unit;
  fl->deleted = footer.DeletedCount(unit.local_group);
  const size_t nfetch = fetch_columns_.size();
  fl->out.resize(nfetch);

  // Late materialization defers every non-filter slot to emit time
  // (phase 2) — sound only when the group has no in-place deletes,
  // because phase 2 addresses rows positionally by page.
  const bool late =
      spec_.late_materialize && !spec_.filters.empty() && fl->deleted == 0;
  for (size_t slot = 0; slot < nfetch; ++slot) {
    const uint32_t col = fetch_columns_[slot];
    if (col >= footer.num_columns()) {
      // The shard predates this (nullable) column: back-fill one null
      // row per surviving row of the group — no pread, no decode, no
      // cache traffic.
      const ColumnRecord& rec = fetch_records_[slot];
      ColumnVector nulls(static_cast<PhysicalType>(rec.physical),
                         rec.list_depth);
      uint32_t rows = footer.group_row_count(unit.local_group);
      if (spec_.read_options.filter_deleted) rows -= fl->deleted;
      for (uint32_t r = 0; r < rows; ++r) nulls.AppendNullRow();
      fl->out[slot] = std::move(nulls);
      continue;
    }
    if (late && !residual_slot_[slot]) {
      fl->late_slots.push_back(slot);
      continue;
    }
    if (cache_ != nullptr) {
      const bool hit = cache_->Lookup(CacheKey(*fl, col), &fl->out[slot]);
      if (spec_.report != nullptr) {
        (hit ? spec_.report->cache_hits : spec_.report->cache_misses)
            .fetch_add(1, std::memory_order_relaxed);
      }
      if (hit) continue;
    }
    fl->missing_slots.push_back(slot);
    fl->missing_cols.push_back(col);
  }
  if (fl->missing_cols.empty()) {
    // Fully served from cache/back-fill: no I/O at all.
    in_flight_.push_back(std::move(fl));
    return Status::OK();
  }

  BULLION_ASSIGN_OR_RETURN(
      fl->plan, unit.reader->PlanProjection(unit.local_group, fl->missing_cols,
                                            spec_.read_options));
  const size_t n = fl->plan.reads.size();
  fl->temp.resize(fl->missing_cols.size());
  fl->read_bufs.resize(n);
  fl->pending = n;
  InFlight* p = fl.get();
  in_flight_.push_back(std::move(fl));
  prep_timer.reset();

  // Each read is issued here and its decode task submitted as soon as
  // its bytes are in, so decode overlaps the reads after it. Submit
  // blocks while the decode window is full; the group window bounds
  // how many plans are outstanding.
  for (size_t i = 0; i < n; ++i) {
    const CoalescedRead& read = p->plan.reads[i];
    Status st;
    {
      BULLION_TRACE_SPAN("scan.fetch");
      st = unit.reader->file()->Read(read.begin, read.size(),
                                     &p->read_bufs[i]);
    }
    if (!st.ok()) {
      // The unit fails with this read; the rest of its plan is moot.
      MutexLock lock(&mu_);
      RetireReadsLocked(p, i, n - i, std::move(st));
      break;
    }
    tasks_->Submit([this, p, i] {
      BULLION_TRACE_SPAN("scan.fetch_decode");
      const uint64_t work_start = obs::NowNs();
      const Unit& u = *p->unit;
      const CoalescedRead& read = p->plan.reads[i];
      Status st = u.reader->DecodeCoalescedRead(
          u.local_group, p->missing_cols, read, p->read_bufs[i].AsSlice(),
          spec_.read_options, &p->temp);
      // Fresh decodes are published while the stream is still in
      // flight; this task owns exactly the slots its read covers.
      if (st.ok() && cache_ != nullptr) {
        for (const ChunkRequest& r : read.chunks) {
          cache_->Insert(CacheKey(*p, p->missing_cols[r.user_index]),
                         p->temp[r.user_index]);
        }
      }
      if (spec_.report != nullptr) {
        const uint64_t dt = obs::NowNs() - work_start;
        spec_.report->work_ns.fetch_add(dt, std::memory_order_relaxed);
        spec_.report->work_hist.Record(dt);
        spec_.report->bytes.fetch_add(read.size(), std::memory_order_relaxed);
      }
      // Retiring the last read lets the consumer free `p`: touch
      // nothing of it afterwards.
      {
        MutexLock lock(&mu_);
        RetireReadsLocked(p, i, 1, st);
      }
      cv_.NotifyAll();
      return st;
    });
  }
  return Status::OK();
}

void BatchStream::RetireReadsLocked(InFlight* fl, size_t i, size_t count,
                                    Status st) {
  if (!st.ok() && i < fl->first_error_read) {
    fl->first_error_read = i;
    fl->error = std::move(st);
  }
  fl->pending -= count;
}

Status BatchStream::MaterializeLateSlots(
    InFlight* fl, const std::vector<uint32_t>& selection) {
  BULLION_TRACE_SPAN("scan.late_materialize");
  // Phase 2's page-run reads and decodes are fetch + decode work, like
  // the coalesced reads of phase 1.
  StageTimer work_timer(spec_.report != nullptr ? &spec_.report->work_ns
                                                : nullptr);
  const Unit& unit = *fl->unit;
  // No survivors: every deferred slot becomes an empty column of its
  // type — the group costs zero phase-2 preads.
  if (selection.empty()) {
    for (size_t slot : fl->late_slots) {
      const ColumnRecord& rec = fetch_records_[slot];
      fl->out[slot] = ColumnVector(static_cast<PhysicalType>(rec.physical),
                                   rec.list_depth);
    }
    return Status::OK();
  }

  // Surviving pages, as maximal contiguous runs of chunk-relative page
  // indices. Every chunk of a group shares this page/row layout
  // (rows_per_page is file-global), so the runs are computed once and
  // reused for every deferred slot.
  const uint32_t rpp = unit.reader->footer().rows_per_page();
  if (rpp == 0) return Status::Corruption("footer rows_per_page is zero");
  std::vector<std::pair<uint32_t, uint32_t>> page_runs;
  for (uint32_t r : selection) {
    const uint32_t p = r / rpp;
    if (!page_runs.empty() && p < page_runs.back().second) continue;
    if (!page_runs.empty() && p == page_runs.back().second) {
      ++page_runs.back().second;
    } else {
      page_runs.emplace_back(p, p + 1);
    }
  }

  // Each deferred slot reads and decodes its page runs in a plain loop
  // on this thread; the first failed read or decode is the group's
  // error.
  struct Run {
    uint32_t row_begin = 0;  // group-relative first row of the run
    ColumnVector decoded;
  };
  const RandomAccessFile* file = unit.reader->file();
  Buffer bytes;
  uint64_t bytes_fetched = 0;
  for (size_t slot : fl->late_slots) {
    const uint32_t col = fetch_columns_[slot];
    std::vector<Run> runs(page_runs.size());
    for (size_t k = 0; k < page_runs.size(); ++k) {
      const auto [pb, pe] = page_runs[k];
      BULLION_ASSIGN_OR_RETURN(auto extent, unit.reader->PageRunExtent(
                                                unit.local_group, col, pb, pe));
      const size_t len = extent.second - extent.first;
      BULLION_RETURN_NOT_OK(file->Read(extent.first, len, &bytes));
      bytes_fetched += len;
      runs[k].row_begin = pb * rpp;
      BULLION_RETURN_NOT_OK(unit.reader->DecodePageRun(
          unit.local_group, col, pb, pe, bytes.AsSlice(),
          spec_.read_options, &runs[k].decoded));
    }
    // Gather the survivors into a compacted column, one append per run
    // of consecutive survivors inside a page run.
    const ColumnRecord& rec = fetch_records_[slot];
    ColumnVector compact(static_cast<PhysicalType>(rec.physical),
                         rec.list_depth);
    size_t ri = 0;
    for (size_t i = 0; i < selection.size();) {
      const uint32_t r = selection[i];
      while (ri < runs.size() &&
             r >= runs[ri].row_begin + runs[ri].decoded.num_rows()) {
        ++ri;
      }
      if (ri == runs.size() || r < runs[ri].row_begin) {
        return Status::Unknown("late materialization lost a surviving row");
      }
      const size_t run_end = runs[ri].row_begin + runs[ri].decoded.num_rows();
      size_t j = i + 1;
      while (j < selection.size() && selection[j] < run_end &&
             selection[j] == selection[j - 1] + 1) {
        ++j;
      }
      const size_t local = r - runs[ri].row_begin;
      compact.AppendRows(runs[ri].decoded, local, local + (j - i));
      i = j;
    }
    fl->out[slot] = std::move(compact);
  }
  if (spec_.report != nullptr) {
    spec_.report->bytes.fetch_add(bytes_fetched,
                                     std::memory_order_relaxed);
  }
  return Status::OK();
}

Status BatchStream::EmitBatches(InFlight* fl) {
  BULLION_TRACE_SPAN("scan.emit");
  std::atomic<uint64_t>* emit_ns =
      spec_.report != nullptr ? &spec_.report->emit_ns : nullptr;
  auto emit_timer = std::make_unique<StageTimer>(emit_ns);
  // Hand the fetched slots their decodes (back-filled and cached slots
  // already hold theirs).
  for (size_t j = 0; j < fl->missing_slots.size(); ++j) {
    fl->out[fl->missing_slots[j]] = std::move(fl->temp[j]);
  }
  // With late materialization, deferred slots are still empty here —
  // take the row count from a slot that has data (at least one filter
  // slot always does: late units have a non-empty residual).
  std::vector<uint8_t> is_late(fl->out.size(), 0);
  for (size_t slot : fl->late_slots) is_late[slot] = 1;
  size_t rows = 0;
  for (size_t slot = 0; slot < fl->out.size(); ++slot) {
    if (!is_late[slot]) {
      rows = fl->out[slot].num_rows();
      break;
    }
  }

  std::vector<uint32_t> selection;
  bool filtered = false;
  if (!spec_.filters.empty()) {
    std::vector<uint8_t> mask(rows, 1);
    std::vector<const ColumnVector*> cols;
    for (size_t ci = 0; ci < spec_.filters.size(); ++ci) {
      cols.clear();
      for (size_t slot : term_slots_[ci]) cols.push_back(&fl->out[slot]);
      BULLION_RETURN_NOT_OK(UpdateClauseMask(cols, spec_.filters[ci], &mask));
    }
    selection = SelectionFromMask(mask);
    filtered = selection.size() != rows;
  }

  // Phase 2: fetch + decode only the page runs holding survivors of
  // the deferred slots; they come back already compacted to the
  // selection (and are never permuted again below). That time is
  // work_ns, not emit_ns.
  if (!fl->late_slots.empty()) {
    emit_timer.reset();
    BULLION_RETURN_NOT_OK(MaterializeLateSlots(fl, selection));
    emit_timer = std::make_unique<StageTimer>(emit_ns);
  }

  // Project the surviving rows.
  std::vector<ColumnVector> proj;
  proj.reserve(projected_columns_.size());
  for (size_t slot = 0; slot < projected_columns_.size(); ++slot) {
    if (filtered && !is_late[slot]) {
      BULLION_ASSIGN_OR_RETURN(ColumnVector kept,
                               fl->out[slot].Permute(selection));
      proj.push_back(std::move(kept));
    } else {
      proj.push_back(std::move(fl->out[slot]));
    }
  }
  const size_t out_rows = filtered ? selection.size() : rows;
  if (spec_.report != nullptr) {
    spec_.report->units.fetch_add(1, std::memory_order_relaxed);
    spec_.report->rows.fetch_add(out_rows, std::memory_order_relaxed);
  }

  if (spec_.batch_rows == 0 || out_rows <= spec_.batch_rows) {
    // One batch covers the group (batch_rows == 0 is the one-batch-
    // per-row-group contract, emitted even at zero rows, so an
    // unfiltered Collect() holds one entry per row group; a bounded
    // batch that fits is the same thing): hand the columns over
    // without re-copying. Exception: bounded streams drop empty
    // groups — only the unbounded contract needs them.
    if (spec_.batch_rows != 0 && out_rows == 0) return Status::OK();
    RowBatch batch;
    batch.group = fl->unit->global_group;
    batch.columns = std::move(proj);
    ready_.push_back(std::move(batch));
    return Status::OK();
  }
  // Bounded batches: slice the group's survivors.
  for (size_t b = 0; b < out_rows; b += spec_.batch_rows) {
    size_t e = std::min(out_rows, b + static_cast<size_t>(spec_.batch_rows));
    RowBatch batch;
    batch.group = fl->unit->global_group;
    batch.columns.reserve(proj.size());
    for (const ColumnVector& col : proj) {
      ColumnVector part(col.physical(), col.list_depth());
      part.AppendRows(col, b, e);
      batch.columns.push_back(std::move(part));
    }
    ready_.push_back(std::move(batch));
  }
  return Status::OK();
}

Result<bool> BatchStream::Next(RowBatch* out) {
  BULLION_RETURN_NOT_OK(status_);
  for (;;) {
    if (!ready_.empty()) {
      *out = std::move(ready_.front());
      ready_.pop_front();
      if (spec_.report != nullptr) {
        spec_.report->batches.fetch_add(1, std::memory_order_relaxed);
      }
      return true;
    }
    // Keep the group window full before blocking on the head.
    while (next_submit_ < units_.size() &&
           in_flight_.size() < group_window_) {
      Status st = SubmitNext();
      ++next_submit_;
      if (!st.ok()) {
        status_ = st;
        return st;
      }
    }
    if (in_flight_.empty()) {
      RecordWall();
      return false;  // fully drained
    }

    InFlight* head = in_flight_.front().get();
    {
      // Time blocked on the window head = the consumer's stall: the
      // signal that says "more workers would help here".
      StageTimer stall_timer(spec_.report != nullptr
                                 ? &spec_.report->stall_ns
                                 : nullptr);
      MutexLock lock(&mu_);
      while (head->pending != 0) cv_.Wait(mu_);
      if (!head->error.ok()) status_ = head->error;
    }
    if (!status_.ok()) return status_;
    Status st = EmitBatches(head);
    in_flight_.pop_front();
    if (!st.ok()) {
      status_ = st;
      return st;
    }
  }
}

}  // namespace bullion
