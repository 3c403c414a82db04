// ingest_delete: a live table that keeps ingesting users while serving
// GDPR erasure requests in place.
//
// The dataset holds uid-sorted users with several contiguous rows each
// (the clustered delete shape of bench_deletion), written at compliance
// level 2. One benchmark thread and the shared 2-worker pool repeat a
// fixed cycle: append one shard of new users through DatasetAppender;
// erase a fixed number of single users from the oldest shards through
// DeleteExecutor::DeleteRows at level 2, with row ids from the
// benchmark's own model; and every few cycles run
// DatasetCompactor::Compact at its default threshold on the same pool.
// It is the only workload where cascade encode, write I/O, in-place
// erasure and compaction dominate.

#include <cstdio>

#include "workload.h"

namespace perfbench {
namespace {

using bullion::ComplianceLevel;
using bullion::DatasetAppender;
using bullion::DatasetCompactor;
using bullion::Field;
using bullion::PhysicalType;
using bullion::ShardManifest;
using bullion::ThreadPool;

constexpr uint32_t kRowsPerUser = 8;
constexpr uint32_t kUsersPerShard = 256;
constexpr uint32_t kRowsPerShard = kRowsPerUser * kUsersPerShard;
constexpr uint32_t kSetupShards = 128;
constexpr uint32_t kRowsPerGroup = 1024;
constexpr uint32_t kRowsPerPage = 128;
constexpr uint32_t kIdsPerRow = 8;
/// The cycle: one appended shard, kDeletesPerCycle single-user
/// erasures spread over the kDeleteWindow oldest shards that still
/// hold users, and a compaction pass every kCompactEvery cycles.
/// Erasing as many users as a cycle appends keeps the live table (and
/// with it the manifest, which republishes every shard's Bloom filters
/// on each publish) at its set-up size, so per-cycle cost and bytes
/// written per user byte level off instead of growing with run length.
constexpr uint32_t kDeletesPerCycle = kUsersPerShard;
constexpr uint32_t kDeleteWindow = 8;
constexpr uint32_t kCompactEvery = 4;
constexpr uint32_t kWarmupCycles = 4 * kCompactEvery;
constexpr const char* kManifest = "del.manifest";

/// The int columns are deletable: level 2 erases their values in place.
/// `score` and `tag` are hidden by the deletion vector only — the writer
/// gives float and binary pages Gorilla/Chimp/Chunked encodings that
/// DeleteRows cannot mask, so a deletable float or binary column makes
/// every level-2 delete fail.
bullion::Schema IngestSchema() {
  auto prim = [](PhysicalType t) { return bullion::DataType::Primitive(t); };
  return bullion::Schema({
      Field{"uid", prim(PhysicalType::kInt64), bullion::LogicalType::kPlain, true},
      Field{"event_ts", prim(PhysicalType::kInt64), bullion::LogicalType::kPlain, true},
      Field{"clicks", prim(PhysicalType::kInt64), bullion::LogicalType::kPlain, true},
      Field{"score", prim(PhysicalType::kFloat64), bullion::LogicalType::kPlain, false},
      Field{"tag", prim(PhysicalType::kBinary), bullion::LogicalType::kPlain, false},
      Field{"ids", bullion::DataType::List(prim(PhysicalType::kInt64)),
            bullion::LogicalType::kIdSequence, true},
  });
}
constexpr size_t kSparseColumn = 5;

/// What the benchmark knows about one user without asking the store.
struct UserRec {
  int64_t uid = 0;
  uint32_t first_row = 0;  // in the shard file as it is now
  bool live = true;
  uint32_t sparse_bytes = 0;
  uint32_t dense_bytes = 0;
};

struct ShardModel {
  std::string name;
  uint32_t generation = 0;
  std::vector<UserRec> users;  // file order
  uint32_t live_users = 0;
};

class IngestDelete : public Workload {
 public:
  void Generate(uint64_t seed) override {
    seed_ = seed;
    schema_ = IngestSchema();
    next_uid_ = 0;
    setup_users_.clear();
    setup_batch_ = MakeUsers(kSetupShards * kUsersPerShard, &setup_users_);
    setup_user_bytes_ = UserBytesOf(setup_users_);
  }

  Status Setup(Seam* seam) override {
    seam_ = seam;
    shards_.clear();
    erased_.clear();
    next_uid_ = kSetupShards * kUsersPerShard;
    timed_user_bytes_ = 0;
    if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(kPoolWorkers);
    BULLION_ASSIGN_OR_RETURN(
        auto writer, bullion::ShardedWriteBuilder(schema_, seam->WriteOpener())
                         .BaseName("del")
                         .RowsPerShard(kRowsPerShard)
                         .RowsPerGroup(kRowsPerGroup)
                         .RowsPerPage(kRowsPerPage)
                         .Pool(pool_.get())
                         .Build());
    BULLION_RETURN_NOT_OK(writer->Append(setup_batch_));
    BULLION_ASSIGN_OR_RETURN(manifest_, writer->Finish());
    BULLION_RETURN_NOT_OK(Publish(manifest_));
    BULLION_ASSIGN_OR_RETURN(bullion::Buffer blob, seam->ReadWholeFile(kManifest));
    BULLION_ASSIGN_OR_RETURN(ShardManifest reread, ShardManifest::Parse(blob.AsSlice()));
    {
      ScopedSpan span("dataset.open");
      BULLION_RETURN_NOT_OK(
          bullion::ShardedTableReader::Open(reread, seam->ReadOpener()).status());
    }
    for (size_t s = 0; s < manifest_.num_shards(); ++s) {
      ShardModel m;
      m.name = manifest_.shard(s).name;
      m.users.assign(setup_users_.begin() + s * kUsersPerShard,
                     setup_users_.begin() + (s + 1) * kUsersPerShard);
      m.live_users = kUsersPerShard;
      shards_.push_back(std::move(m));
    }
    return Status::OK();
  }

  void ReleaseInputs() override {
    setup_batch_.clear();
    setup_batch_.shrink_to_fit();
  }

  Status Warmup() override {
    PhaseOutcome scratch;
    for (uint32_t c = 0; c < kWarmupCycles; ++c) Cycle(c, &scratch, /*timed=*/false);
    if (scratch.failed != 0) return Status::Corruption("warm-up cycle failed");
    return Status::OK();
  }

  PhaseOutcome Run(double seconds, bool /*traced*/) override {
    PhaseOutcome out;
    pages_rewritten_ = delete_bytes_ = requests_ = compact_bytes_ = 0;
    out.Start(NowNs());
    const uint64_t deadline = out.start_ns + static_cast<uint64_t>(seconds * 1e9);
    // Whole compaction periods only, so every run ends in the same state
    // of the delete/compact rhythm (tombstones just reclaimed) and
    // ops_per_s weighs compaction passes by their share of the cycles.
    for (uint32_t c = 0; out.end_ns < deadline || c % kCompactEvery != 0; ++c) {
      Cycle(c, &out, /*timed=*/true);
      out.end_ns = NowNs();
    }
    out.peak_rss_mb = PeakRssMb();
    return out;
  }

  uint64_t Verify() override {
    uint64_t failed = 0;
    auto fail = [&](const char* what, const Status& st) {
      std::fprintf(stderr, "ingest_delete: %s: %s\n", what, st.ToString().c_str());
      ++failed;
    };
    auto blob = seam_->ReadWholeFile(kManifest);
    if (!blob.ok()) {
      fail("read manifest", blob.status());
      return failed;
    }
    auto manifest = ShardManifest::Parse(blob->AsSlice());
    if (!manifest.ok()) {
      fail("parse manifest", manifest.status());
      return failed;
    }
    auto ds = bullion::ShardedTableReader::Open(*manifest, seam_->ReadOpener());
    if (!ds.ok()) {
      fail("open dataset", ds.status());
      return failed;
    }
    // Full scan of the final manifest == the model: appended rows minus
    // erased users, in order.
    std::vector<ColumnVector> got;
    for (const bullion::LeafColumn& leaf : schema_.leaves()) {
      got.push_back(ColumnVector::ForLeaf(leaf));
    }
    auto stream = bullion::Scan(ds->get()).Pool(pool_.get()).Stream();
    if (!stream.ok()) {
      fail("open scan", stream.status());
      return failed;
    }
    bullion::RowBatch batch;
    for (;;) {
      auto more = (*stream)->Next(&batch);
      if (!more.ok()) {
        fail("scan", more.status());
        return failed;
      }
      if (!*more) break;
      for (size_t c = 0; c < got.size(); ++c) got[c].AppendAllFrom(batch.columns[c]);
    }
    std::vector<ColumnVector> want;
    for (const bullion::LeafColumn& leaf : schema_.leaves()) {
      want.push_back(ColumnVector::ForLeaf(leaf));
    }
    uint64_t live_rows = 0;
    for (const ShardModel& s : shards_) {
      for (const UserRec& u : s.users) {
        if (!u.live) continue;
        AppendUserRows(u.uid, &want);
        live_rows += kRowsPerUser;
      }
    }
    if (got != want) {
      fail("final scan", Status::Corruption("differs from the model"));
    }
    // A lookup of every erased uid must find nothing.
    uint64_t resurfaced = 0;
    for (int64_t uid : erased_) {
      auto r = bullion::Lookup(ds->get()).Key("uid", uid).Columns({"uid"}).Run();
      if (!r.ok() || r->num_rows() != 0) ++resurfaced;
    }
    if (resurfaced != 0) {
      fail("erased uid lookups", Status::Corruption(std::to_string(resurfaced) +
                                                    " erased users still found"));
    }
    std::printf("ingest_delete: final scan %llu live rows vs model %llu; %zu erased "
                "uids looked up, %llu found\n",
                static_cast<unsigned long long>(got[0].num_rows()),
                static_cast<unsigned long long>(live_rows), erased_.size(),
                static_cast<unsigned long long>(resurfaced));
    return failed;
  }

  uint64_t setup_user_bytes() const override { return setup_user_bytes_; }
  uint64_t timed_user_bytes() const override { return timed_user_bytes_; }
  UserBytesSplit live_user_bytes() const override {
    UserBytesSplit split;
    for (const ShardModel& s : shards_) {
      for (const UserRec& u : s.users) {
        if (!u.live) continue;
        split.sparse += u.sparse_bytes;
        split.dense += u.dense_bytes;
      }
    }
    return split;
  }
  std::vector<std::string> live_files() const override {
    std::vector<std::string> files{kManifest};
    for (const auto& s : manifest_.shards()) files.push_back(s.name);
    return files;
  }

  void LayerMetrics(MetricMap* out) const override {
    const double requests = static_cast<double>(requests_ == 0 ? 1 : requests_);
    (*out)["format.delete_pages_rewritten_per_request"] = pages_rewritten_ / requests;
    (*out)["format.delete_bytes_written_per_request"] = delete_bytes_ / requests;
    (*out)["dataset.compact_rewritten_bytes_per_user_byte"] =
        timed_user_bytes_ == 0
            ? 0
            : static_cast<double>(compact_bytes_) / timed_user_bytes_;
  }

  std::string SizesJson() const override {
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "{\"setup_rows\": %u, \"leaves\": %zu, \"setup_shards\": %u, "
        "\"rows_per_user\": %u, \"rows_per_shard\": %u, \"rows_per_group\": %u, "
        "\"rows_per_page\": %u, \"compliance_level\": 2, "
        "\"cycle\": {\"appended_users\": %u, \"deletes\": %u, "
        "\"delete_window_shards\": %u, \"compact_every_cycles\": %u, "
        "\"compact_min_deleted_fraction\": %.2f}, "
        "\"cycle_threads\": 1, \"pool_workers\": %zu}",
        kSetupShards * kRowsPerShard, schema_.num_leaves(), kSetupShards,
        kRowsPerUser, kRowsPerShard, kRowsPerGroup, kRowsPerPage, kUsersPerShard,
        kDeletesPerCycle, kDeleteWindow, kCompactEvery,
        bullion::DatasetCompactionOptions{}.min_deleted_fraction, kPoolWorkers);
    return buf;
  }

 private:
  /// Rows of user `uid`, a pure function of (seed, uid): the model
  /// regenerates them for the final check instead of keeping them.
  void AppendUserRows(int64_t uid, std::vector<ColumnVector>* cols) const {
    int64_t window[kRowsPerUser + kIdsPerRow];
    for (size_t k = 0; k < kRowsPerUser + kIdsPerRow; ++k) {
      window[k] = static_cast<int64_t>(Mix(seed_, static_cast<uint64_t>(uid) * 64 + k) &
                                       ((1 << 20) - 1));
    }
    for (uint32_t j = 0; j < kRowsPerUser; ++j) {
      const uint64_t h = Mix(seed_ ^ 0x5bd1e995, static_cast<uint64_t>(uid) * 16 + j);
      (*cols)[0].AppendInt(uid);
      (*cols)[1].AppendInt(uid * 1000 + j * 7);
      (*cols)[2].AppendInt(static_cast<int64_t>(h % 1000));
      (*cols)[3].AppendReal(static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0));
      (*cols)[4].AppendBinary("u" + std::to_string(h % 99991));
      (*cols)[5].AppendIntList(std::vector<int64_t>(window + j, window + j + kIdsPerRow));
    }
  }

  /// `n` new users (uids continue the dataset's sequence) as one batch;
  /// their model records go to `users`. In the timed phase this is under
  /// 1% of a cycle and counts in the wall time.
  std::vector<ColumnVector> MakeUsers(uint32_t n, std::vector<UserRec>* users) {
    std::vector<ColumnVector> cols;
    for (const bullion::LeafColumn& leaf : schema_.leaves()) {
      cols.push_back(ColumnVector::ForLeaf(leaf));
    }
    for (uint32_t i = 0; i < n; ++i) {
      UserRec u;
      u.uid = next_uid_++;
      u.first_row = (i % kUsersPerShard) * kRowsPerUser;
      const size_t row0 = cols[0].num_rows();
      AppendUserRows(u.uid, &cols);
      for (size_t c = 0; c < cols.size(); ++c) {
        const uint64_t b = UserBytes(cols[c], row0, row0 + kRowsPerUser);
        (c == kSparseColumn ? u.sparse_bytes : u.dense_bytes) += static_cast<uint32_t>(b);
      }
      users->push_back(u);
    }
    return cols;
  }

  static uint64_t UserBytesOf(const std::vector<UserRec>& users) {
    uint64_t b = 0;
    for (const UserRec& u : users) b += u.sparse_bytes + u.dense_bytes;
    return b;
  }

  Status Publish(const ShardManifest& m) {
    const bullion::Buffer blob = m.Serialize();
    return seam_->WriteWholeFile(kManifest, blob.AsSlice());
  }

  /// One cycle: append, erase, and (every kCompactEvery) compact. Each
  /// step is one attempted request; deletion latencies go to `out`. The
  /// cycle's appended rows are its ops, so delete and compaction time
  /// count in what it costs to ingest them.
  void Cycle(uint32_t c, PhaseOutcome* out, bool timed) {
    Tracer::SetRequest(c + 1);
    ScopedSpan span("bench.cycle");
    out->attempted += 1;
    const Status appended = AppendShard(out, timed);
    if (!appended.ok()) {
      std::fprintf(stderr, "ingest_delete: append: %s\n", appended.ToString().c_str());
      out->failed += 1;
    }
    for (uint32_t d = 0; d < kDeletesPerCycle; ++d) {
      out->attempted += 1;
      const uint64_t t0 = NowNs();
      const Status st = DeleteOneUser(timed);
      out->AddLatency(t0, NowNs());
      if (!st.ok()) {
        std::fprintf(stderr, "ingest_delete: delete: %s\n", st.ToString().c_str());
        out->failed += 1;
      }
    }
    if (c % kCompactEvery == kCompactEvery - 1) {
      out->attempted += 1;
      const Status st = Compact(timed);
      if (!st.ok()) {
        std::fprintf(stderr, "ingest_delete: compact: %s\n", st.ToString().c_str());
        out->failed += 1;
      }
    }
  }

  Status AppendShard(PhaseOutcome* out, bool timed) {
    std::vector<UserRec> users;
    std::vector<ColumnVector> batch = MakeUsers(kUsersPerShard, &users);
    ScopedSpan span("dataset.append");
    bullion::DatasetAppendOptions opts;
    opts.writer.target_rows_per_shard = kRowsPerShard;
    opts.writer.rows_per_group = kRowsPerGroup;
    opts.writer.writer.rows_per_page = kRowsPerPage;
    opts.base_name = "del";
    BULLION_ASSIGN_OR_RETURN(
        auto appender, DatasetAppender::Open(manifest_, schema_, seam_->ReadOpener(),
                                             seam_->WriteOpener(), opts, pool_.get()));
    BULLION_RETURN_NOT_OK(appender->Append(batch));
    BULLION_ASSIGN_OR_RETURN(ShardManifest next, appender->Finish());
    BULLION_RETURN_NOT_OK(Publish(next));
    if (next.num_shards() != manifest_.num_shards() + 1) {
      return Status::Corruption("append did not add exactly one shard");
    }
    manifest_ = std::move(next);
    ShardModel m;
    m.name = manifest_.shard(manifest_.num_shards() - 1).name;
    m.users = std::move(users);
    m.live_users = kUsersPerShard;
    shards_.push_back(std::move(m));
    if (timed) {
      out->ops += kRowsPerShard;
      timed_user_bytes_ += UserBytesOf(shards_.back().users);
    }
    return Status::OK();
  }

  /// Erases one user drawn uniformly from the live users of the
  /// kDeleteWindow oldest shards that still hold any, opening the
  /// shard for update as a deletion service would.
  Status DeleteOneUser(bool timed) {
    std::vector<size_t> window;
    uint32_t candidates = 0;
    for (size_t s = 0; s + 1 < shards_.size() && window.size() < kDeleteWindow; ++s) {
      if (shards_[s].live_users == 0) continue;
      window.push_back(s);
      candidates += shards_[s].live_users;
    }
    if (candidates == 0) return Status::InvalidArgument("no live users to erase");
    uint64_t pick = Mix(seed_ ^ 0xde1e7e, erased_.size() + 1) % candidates;
    size_t s = window.back();
    for (size_t w : window) {
      if (pick < shards_[w].live_users) {
        s = w;
        break;
      }
      pick -= shards_[w].live_users;
    }
    ShardModel& shard = shards_[s];
    UserRec* victim = nullptr;
    for (UserRec& u : shard.users) {
      if (u.live && pick-- == 0) {
        victim = &u;
        break;
      }
    }
    if (victim == nullptr) return Status::Unknown("model lost a live user");
    std::vector<uint64_t> rows(kRowsPerUser);
    for (uint32_t j = 0; j < kRowsPerUser; ++j) rows[j] = victim->first_row + j;

    BULLION_ASSIGN_OR_RETURN(auto file, seam_->OpenRead(shard.name));
    auto reader = [&] {
      ScopedSpan span("format.table_open");
      return bullion::TableReader::Open(std::move(file));
    }();
    BULLION_RETURN_NOT_OK(reader.status());
    BULLION_ASSIGN_OR_RETURN(auto read_file, seam_->OpenRead(shard.name));
    BULLION_ASSIGN_OR_RETURN(auto update_file, seam_->OpenUpdate(shard.name));
    bullion::DeleteExecutor executor(read_file.get(), update_file.get(),
                                     (*reader)->footer());
    auto report = [&] {
      ScopedSpan span("format.delete_rows");
      return executor.DeleteRows(rows, ComplianceLevel::kLevel2);
    }();
    BULLION_RETURN_NOT_OK(report.status());
    if (report->rows_deleted != kRowsPerUser) {
      return Status::Corruption("delete removed " +
                                std::to_string(report->rows_deleted) + " rows");
    }
    victim->live = false;
    shard.live_users -= 1;
    erased_.push_back(victim->uid);
    if (timed) {
      requests_ += 1;
      pages_rewritten_ += report->pages_rewritten;
      delete_bytes_ += report->total_bytes_written();
    }
    return Status::OK();
  }

  Status Compact(bool timed) {
    ScopedSpan span("dataset.compact");
    DatasetCompactor compactor(seam_->ReadOpener(), seam_->WriteOpener(),
                               [this](const std::string& n) { return seam_->Remove(n); });
    bullion::DatasetCompactionOptions opts;  // default threshold
    opts.pool = pool_.get();
    opts.publish = [this](const ShardManifest& m) { return Publish(m); };
    const uint64_t written0 = seam_->Snapshot().bytes_written;
    BULLION_ASSIGN_OR_RETURN(bullion::DatasetCompactionReport report,
                             compactor.Compact(manifest_, opts));
    if (timed) compact_bytes_ += seam_->Snapshot().bytes_written - written0;
    if (report.manifest.num_shards() != shards_.size()) {
      return Status::Corruption("compaction changed the shard count");
    }
    for (size_t s = 0; s < shards_.size(); ++s) {
      const bullion::ShardInfo& info = report.manifest.shard(s);
      ShardModel& m = shards_[s];
      if (info.generation == m.generation) continue;
      // Rewritten: erased users are gone, survivors keep their order.
      std::vector<UserRec> kept;
      for (UserRec u : m.users) {
        if (!u.live) continue;
        u.first_row = static_cast<uint32_t>(kept.size()) * kRowsPerUser;
        kept.push_back(u);
      }
      m.users = std::move(kept);
      m.name = info.name;
      m.generation = info.generation;
      if (info.num_rows != uint64_t{m.live_users} * kRowsPerUser) {
        return Status::Corruption("compacted shard row count differs from model");
      }
    }
    manifest_ = std::move(report.manifest);
    return Status::OK();
  }

  uint64_t seed_ = 0;
  bullion::Schema schema_;
  Seam* seam_ = nullptr;
  std::unique_ptr<ThreadPool> pool_;
  ShardManifest manifest_;
  std::vector<ShardModel> shards_;
  std::vector<int64_t> erased_;
  int64_t next_uid_ = 0;
  std::vector<ColumnVector> setup_batch_;
  std::vector<UserRec> setup_users_;
  uint64_t setup_user_bytes_ = 0, timed_user_bytes_ = 0;
  uint64_t requests_ = 0, pages_rewritten_ = 0, delete_bytes_ = 0;
  uint64_t compact_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeIngestDelete() {
  return std::make_unique<IngestDelete>();
}

}  // namespace perfbench
