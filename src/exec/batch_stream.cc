#include "exec/batch_stream.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/bloom.h"

namespace bullion {

// ---------------------------------------------------------------- planning

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

Result<StreamColumnPlan> PlanStreamColumns(const FooterView& footer,
                                           const ScanStreamSpec& spec) {
  StreamColumnPlan plan;
  BULLION_ASSIGN_OR_RETURN(
      plan.fetch_columns,
      ResolveProjection(footer, spec.columns, spec.column_names));
  plan.num_projected = plan.fetch_columns.size();
  plan.residual.reserve(spec.filters.size());
  for (const FilterClause& clause : spec.filters) {
    if (clause.any_of.empty()) {
      return Status::InvalidArgument(
          "empty filter clause (a disjunction of nothing matches no row)");
    }
    ResolvedClause resolved;
    resolved.any_of.reserve(clause.any_of.size());
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
      resolved.any_of.push_back(ResolvedFilter{slot, f});
    }
    plan.residual.push_back(std::move(resolved));
  }
  return plan;
}

bool GroupProvablyEmpty(const FooterView& footer, uint32_t local_group,
                        const StreamColumnPlan& plan,
                        const ReadOptions& read_options) {
  // Scans that keep deleted rows see zero/empty placeholders for
  // physically erased values; the recorded bounds (and the write-time
  // Bloom filters) don't cover those, so pruning would be unsound.
  if (!read_options.filter_deleted) return false;
  for (const ResolvedClause& clause : plan.residual) {
    bool all_terms_empty = !clause.any_of.empty();
    for (const ResolvedFilter& f : clause.any_of) {
      uint32_t col = plan.fetch_columns[f.fetch_slot];
      // Columns this footer predates (schema-evolution back-fill) are
      // decided by the shard-level pass, not per group.
      if (col >= footer.num_columns()) continue;
      ZoneMap zone = footer.chunk_zone_map(local_group, col);
      if (!ZoneMapMayMatch(zone, f.filter)) continue;
      // No filter recorded (pre-Bloom footer, ineligible column): the
      // chunk may hold any key.
      Slice bloom = footer.has_chunk_blooms()
                        ? footer.chunk_bloom(local_group, col)
                        : Slice();
      const auto physical =
          static_cast<PhysicalType>(footer.column_record(col).physical);
      if (bloom.empty() || !BloomProvesAbsent(bloom, physical, f.filter)) {
        all_terms_empty = false;
        break;
      }
    }
    if (all_terms_empty) return true;
  }
  return false;
}

Result<std::unique_ptr<BatchStream>> OpenScanStream(
    const TableReader* reader, const ScanStreamSpec& spec) {
  const FooterView& f = reader->footer();
  BULLION_ASSIGN_OR_RETURN(StreamColumnPlan plan,
                           PlanStreamColumns(f, spec));
  if (spec.group_begin > spec.group_end) {
    return Status::InvalidArgument("row-group range begin past end");
  }
  uint32_t group_end = std::min(spec.group_end, f.num_row_groups());
  uint32_t group_begin = std::min(spec.group_begin, group_end);

  std::vector<StreamUnit> units;
  units.reserve(group_end - group_begin);
  for (uint32_t g = group_begin; g < group_end; ++g) {
    if (!plan.residual.empty() &&
        GroupProvablyEmpty(f, g, plan, spec.read_options)) {
      if (spec.report != nullptr) {
        spec.report->groups_pruned.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    StreamUnit unit;
    unit.reader = reader;
    unit.local_group = g;
    unit.global_group = g;
    units.push_back(std::move(unit));
  }

  BatchStreamOptions options = StreamOptionsFor(spec);
  options.fetch_columns = std::move(plan.fetch_columns);
  options.num_projected = plan.num_projected;
  options.fetch_records.reserve(options.fetch_columns.size());
  for (uint32_t c : options.fetch_columns) {
    options.fetch_records.push_back(f.column_record(c));
  }
  options.residual = std::move(plan.residual);
  options.group_begin = group_begin;
  return BatchStream::Create(std::move(units), std::move(options));
}

BatchStreamOptions StreamOptionsFor(const ScanStreamSpec& spec) {
  BatchStreamOptions options;
  options.late_materialize = spec.late_materialize;
  options.batch_rows = spec.batch_rows;
  options.threads = spec.threads;
  options.prefetch_depth = spec.prefetch_depth;
  options.read_options = spec.read_options;
  options.pool = spec.pool;
  options.report = spec.report;
  return options;
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
  const StreamUnit* unit = nullptr;
  /// Fetch-slot outputs; preset slots are filled at submission, missing
  /// slots receive their decode after the join.
  std::vector<ColumnVector> out;
  std::vector<uint8_t> preset;
  /// Leaf columns actually fetched (missing from the preset) and the
  /// fetch slots they land in.
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

Result<std::unique_ptr<BatchStream>> BatchStream::Create(
    std::vector<StreamUnit> units, BatchStreamOptions options) {
  if (options.num_projected > options.fetch_columns.size() ||
      options.fetch_records.size() != options.fetch_columns.size()) {
    return Status::InvalidArgument("batch stream fetch set inconsistent");
  }
  for (const ResolvedClause& clause : options.residual) {
    if (clause.any_of.empty()) {
      return Status::InvalidArgument("empty residual clause");
    }
    for (const ResolvedFilter& f : clause.any_of) {
      if (f.fetch_slot >= options.fetch_columns.size()) {
        return Status::InvalidArgument("residual filter slot out of range");
      }
    }
  }
  for (const StreamUnit& u : units) {
    if (u.reader == nullptr) {
      return Status::InvalidArgument("stream unit has no reader");
    }
  }
  return std::unique_ptr<BatchStream>(
      new BatchStream(std::move(units), std::move(options)));
}

BatchStream::BatchStream(std::vector<StreamUnit> units,
                         BatchStreamOptions options)
    : options_(std::move(options)), units_(std::move(units)) {
  projected_columns_.assign(
      options_.fetch_columns.begin(),
      options_.fetch_columns.begin() + options_.num_projected);
  projected_records_.assign(
      options_.fetch_records.begin(),
      options_.fetch_records.begin() + options_.num_projected);
  residual_slot_.assign(options_.fetch_columns.size(), 0);
  residual_clauses_.reserve(options_.residual.size());
  for (const ResolvedClause& clause : options_.residual) {
    FilterClause fc;
    fc.any_of.reserve(clause.any_of.size());
    for (const ResolvedFilter& f : clause.any_of) {
      residual_slot_[f.fetch_slot] = 1;
      fc.any_of.push_back(f.filter);
    }
    residual_clauses_.push_back(std::move(fc));
  }

  ThreadPool* pool = options_.pool;
  if (pool == nullptr && options_.threads > 1) {
    owned_pool_ = std::make_unique<ThreadPool>(options_.threads);
    pool = owned_pool_.get();
  }
  size_t workers =
      pool != nullptr ? std::max<size_t>(1, pool->num_threads()) : 1;
  // Serial streams hold one group at a time; parallel streams decode
  // ahead by the prefetch window so consumers never starve the pool.
  group_window_ = (pool == nullptr || pool->num_threads() <= 1)
                      ? 1
                      : workers + options_.prefetch_depth;
  tasks_ = std::make_unique<TaskGroup>(
      pool, workers * (1 + options_.prefetch_depth));
  start_ns_ = obs::NowNs();
}

// tasks_ (declared last, destroyed first) joins the decode tasks before
// the InFlight slots they write into tear down.
BatchStream::~BatchStream() { RecordWall(); }

void BatchStream::RecordWall() {
  if (wall_recorded_ || options_.report == nullptr) return;
  wall_recorded_ = true;
  options_.report->wall_ns.fetch_add(obs::NowNs() - start_ns_,
                                     std::memory_order_relaxed);
}

Status BatchStream::SubmitNext() {
  BULLION_TRACE_SPAN("scan.prepare");
  // prepare_ns stops before the fan-out loop: Submit() blocking on the
  // read window is backpressure, not preparation cost.
  auto prep_timer = std::make_unique<StageTimer>(
      options_.report != nullptr ? &options_.report->prepare_ns : nullptr);
  const StreamUnit& unit = units_[next_submit_];
  auto fl = std::make_unique<InFlight>();
  fl->unit = &unit;
  const size_t nfetch = options_.fetch_columns.size();
  fl->out.resize(nfetch);
  fl->preset.assign(nfetch, 0);
  if (unit.prepare) unit.prepare(&fl->out, &fl->preset);

  // Late materialization defers every non-filter slot to emit time
  // (phase 2) — sound only when the group has no in-place deletes,
  // because phase 2 addresses rows positionally by page.
  const bool late = options_.late_materialize && !options_.residual.empty() &&
                    unit.reader->footer().DeletedCount(unit.local_group) == 0;
  for (size_t slot = 0; slot < nfetch; ++slot) {
    if (fl->preset[slot]) continue;
    if (late && !residual_slot_[slot]) {
      fl->late_slots.push_back(slot);
      continue;
    }
    fl->missing_slots.push_back(slot);
    fl->missing_cols.push_back(options_.fetch_columns[slot]);
  }
  if (fl->missing_cols.empty()) {
    // Fully served from cache/back-fill: no I/O at all.
    in_flight_.push_back(std::move(fl));
    return Status::OK();
  }

  BULLION_ASSIGN_OR_RETURN(
      fl->plan, unit.reader->PlanProjection(unit.local_group, fl->missing_cols,
                                            options_.read_options));
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
      const StreamUnit& u = *p->unit;
      const CoalescedRead& read = p->plan.reads[i];
      Status st = u.reader->DecodeCoalescedRead(
          u.local_group, p->missing_cols, read, p->read_bufs[i].AsSlice(),
          options_.read_options, &p->temp);
      if (st.ok() && u.publish) u.publish(p->missing_cols, read, &p->temp);
      if (options_.report != nullptr) {
        const uint64_t dt = obs::NowNs() - work_start;
        options_.report->work_ns.fetch_add(dt, std::memory_order_relaxed);
        options_.report->work_hist.Record(dt);
        options_.report->bytes.fetch_add(read.size(),
                                         std::memory_order_relaxed);
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
  const StreamUnit& unit = *fl->unit;
  // No survivors: every deferred slot becomes an empty column of its
  // type — the group costs zero phase-2 preads.
  if (selection.empty()) {
    for (size_t slot : fl->late_slots) {
      const ColumnRecord& rec = options_.fetch_records[slot];
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
    const uint32_t col = options_.fetch_columns[slot];
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
          options_.read_options, &runs[k].decoded));
    }
    // Gather the survivors into a compacted column.
    const ColumnRecord& rec = options_.fetch_records[slot];
    ColumnVector compact(static_cast<PhysicalType>(rec.physical),
                         rec.list_depth);
    size_t ri = 0;
    for (uint32_t r : selection) {
      while (ri < runs.size() &&
             r >= runs[ri].row_begin + runs[ri].decoded.num_rows()) {
        ++ri;
      }
      if (ri == runs.size() || r < runs[ri].row_begin) {
        return Status::Unknown("late materialization lost a surviving row");
      }
      compact.AppendRowFrom(runs[ri].decoded,
                            static_cast<int64_t>(r - runs[ri].row_begin));
    }
    fl->out[slot] = std::move(compact);
  }
  if (options_.report != nullptr) {
    options_.report->bytes.fetch_add(bytes_fetched,
                                     std::memory_order_relaxed);
  }
  return Status::OK();
}

Status BatchStream::EmitBatches(InFlight* fl) {
  BULLION_TRACE_SPAN("scan.emit");
  StageTimer emit_timer(options_.report != nullptr
                            ? &options_.report->emit_ns
                            : nullptr);
  // Hand the fetched slots their decodes (preset slots already hold
  // theirs).
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
  if (!options_.residual.empty()) {
    std::vector<uint8_t> mask(rows, 1);
    std::vector<const ColumnVector*> cols;
    for (size_t ci = 0; ci < options_.residual.size(); ++ci) {
      const ResolvedClause& clause = options_.residual[ci];
      cols.clear();
      cols.reserve(clause.any_of.size());
      for (const ResolvedFilter& f : clause.any_of) {
        cols.push_back(&fl->out[f.fetch_slot]);
      }
      BULLION_RETURN_NOT_OK(
          UpdateClauseMask(cols, residual_clauses_[ci], &mask));
    }
    selection = SelectionFromMask(mask);
    filtered = selection.size() != rows;
  }

  // Phase 2: fetch + decode only the page runs holding survivors of
  // the deferred slots; they come back already compacted to the
  // selection (and are never permuted again below).
  if (!fl->late_slots.empty()) {
    BULLION_RETURN_NOT_OK(MaterializeLateSlots(fl, selection));
  }

  // Project the surviving rows.
  std::vector<ColumnVector> proj;
  proj.reserve(options_.num_projected);
  for (size_t slot = 0; slot < options_.num_projected; ++slot) {
    if (filtered && !is_late[slot]) {
      BULLION_ASSIGN_OR_RETURN(ColumnVector kept,
                               fl->out[slot].Permute(selection));
      proj.push_back(std::move(kept));
    } else {
      proj.push_back(std::move(fl->out[slot]));
    }
  }
  const size_t out_rows = filtered ? selection.size() : rows;
  if (options_.report != nullptr) {
    options_.report->units.fetch_add(1, std::memory_order_relaxed);
    options_.report->rows.fetch_add(out_rows, std::memory_order_relaxed);
  }

  if (options_.batch_rows == 0 || out_rows <= options_.batch_rows) {
    // One batch covers the group (batch_rows == 0 is the one-batch-
    // per-row-group contract, emitted even at zero rows, so an
    // unfiltered Collect() holds one entry per row group; a bounded
    // batch that fits is the same thing): hand the columns over
    // without re-copying. Exception: bounded streams drop empty
    // groups — only the unbounded contract needs them.
    if (options_.batch_rows != 0 && out_rows == 0) return Status::OK();
    RowBatch batch;
    batch.group = fl->unit->global_group;
    batch.columns = std::move(proj);
    ready_.push_back(std::move(batch));
    return Status::OK();
  }
  // Bounded batches: slice the group's survivors.
  for (size_t b = 0; b < out_rows; b += options_.batch_rows) {
    size_t e = std::min(out_rows, b + static_cast<size_t>(options_.batch_rows));
    std::vector<uint32_t> slice(e - b);
    for (size_t r = b; r < e; ++r) slice[r - b] = static_cast<uint32_t>(r);
    RowBatch batch;
    batch.group = fl->unit->global_group;
    batch.columns.reserve(proj.size());
    for (const ColumnVector& col : proj) {
      BULLION_ASSIGN_OR_RETURN(ColumnVector part, col.Permute(slice));
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
      if (options_.report != nullptr) {
        options_.report->batches.fetch_add(1, std::memory_order_relaxed);
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
      // signal that says "deeper prefetch or more workers would help
      // here".
      StageTimer stall_timer(options_.report != nullptr
                                 ? &options_.report->stall_ns
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
