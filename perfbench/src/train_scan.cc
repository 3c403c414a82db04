// train_scan: epochs of a training job over a wide ads table.
//
// Each epoch re-opens the dataset from its manifest, as a fresh job
// would, and streams a fixed ~10% projection (one field of every
// Table 1 type plus extra id sequences) through bullion::Scan on the
// shared 2-worker pool, one batch per row group. The shared decoded-
// chunk cache is budgeted at half of one epoch's decoded projection,
// so the sequential epoch floods the LRU: this is the workload that
// does not fit the program's cache.

#include <cstdio>
#include <set>

#include "workload.h"
#include "workload/ads_schema.h"

namespace perfbench {
namespace {

using bullion::BatchStream;
using bullion::DecodedChunkCache;
using bullion::RowBatch;
using bullion::ShardedTableReader;
using bullion::ShardManifest;
using bullion::ThreadPool;

constexpr double kSchemaScale = 0.01;  // Table 1 scaled: 188 leaves
constexpr size_t kShards = 8;
/// 64 row groups per epoch: each epoch's first batch, which carries the
/// re-open, is 1/64 of the latency samples, so the p99 lands near the
/// middle of that mode instead of in its upper tail, where a few host
/// scheduling stalls would set it.
constexpr size_t kGroupsPerShard = 8;
constexpr uint32_t kRowsPerGroup = 64;
constexpr size_t kRows = kShards * kGroupsPerShard * kRowsPerGroup;
constexpr size_t kExtraSequenceFields = 2;
/// One timed epoch in this many (seeded) re-checks value checksums.
constexpr uint64_t kChecksumEvery = 8;
constexpr const char* kManifest = "ads.manifest";

/// One field of every Table 1 type (all of its leaves), then extra
/// list<int64> id sequences — the fixed slice a training job reads.
std::vector<std::string> PickProjection(const bullion::Schema& schema) {
  std::vector<std::string> names;
  std::set<std::string> seen_types;
  size_t extra = 0;
  for (const bullion::Field& f : schema.fields()) {
    const std::string type = f.name.substr(0, f.name.rfind('_'));
    const bool first_of_type = seen_types.insert(type).second;
    const bool extra_seq = !first_of_type &&
                           f.logical == bullion::LogicalType::kIdSequence &&
                           extra < kExtraSequenceFields;
    if (!first_of_type && !extra_seq) continue;
    if (extra_seq) ++extra;
    auto leaves = schema.LeavesOfField(f.name);
    if (!leaves.ok()) continue;
    for (uint32_t leaf : *leaves) names.push_back(schema.leaves()[leaf].name);
  }
  return names;
}

class TrainScan : public Workload {
 public:
  void Generate(uint64_t seed) override {
    seed_ = seed;
    schema_ = bullion::workload::BuildAdsSchema(kSchemaScale);
    data_ = bullion::workload::GenerateAdsData(schema_, kRows, seed);
    projection_ = PickProjection(schema_);

    user_bytes_ = {};
    for (size_t c = 0; c < data_.size(); ++c) {
      const bullion::LeafColumn& leaf = schema_.leaves()[c];
      const bool sparse = leaf.list_depth == 1 &&
                          leaf.physical == bullion::PhysicalType::kInt64 &&
                          leaf.logical == bullion::LogicalType::kIdSequence;
      (sparse ? user_bytes_.sparse : user_bytes_.dense) += UserBytes(data_[c]);
    }
    // Expected per-(group, projected column) checksums and the decoded
    // size of one epoch's projection (the cache budget's base).
    expected_.assign(kRows / kRowsPerGroup, {});
    decoded_epoch_bytes_ = 0;
    for (const std::string& name : projection_) {
      const uint32_t c = *schema_.LeafIndex(name);
      decoded_epoch_bytes_ += DecodedBytes(data_[c]);
      for (size_t g = 0; g < expected_.size(); ++g) {
        expected_[g].push_back(Checksum(data_[c], g * kRowsPerGroup,
                                        (g + 1) * kRowsPerGroup));
      }
    }
    cache_budget_ = decoded_epoch_bytes_ / 2;
  }

  Status Setup(Seam* seam) override {
    reader_.reset();
    seam_ = seam;
    if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(kPoolWorkers);
    BULLION_ASSIGN_OR_RETURN(
        auto writer, bullion::ShardedWriteBuilder(schema_, seam->WriteOpener())
                         .BaseName("ads")
                         .RowsPerShard(kRows / kShards)
                         .RowsPerGroup(kRowsPerGroup)
                         .Pool(pool_.get())
                         .Build());
    BULLION_RETURN_NOT_OK(writer->Append(data_));
    BULLION_ASSIGN_OR_RETURN(ShardManifest manifest, writer->Finish());
    const bullion::Buffer blob = manifest.Serialize();
    BULLION_RETURN_NOT_OK(seam->WriteWholeFile(kManifest, blob.AsSlice()));
    BULLION_ASSIGN_OR_RETURN(reader_, OpenDataset());
    cache_ = std::make_unique<DecodedChunkCache>(cache_budget_);
    return Status::OK();
  }

  void ReleaseInputs() override {
    data_.clear();
    data_.shrink_to_fit();
  }

  Status Warmup() override {
    PhaseOutcome scratch;
    // Two epochs: the first faults in the allocator's arenas and the
    // cache, the second runs in the steady state; both check values.
    for (uint64_t e = 0; e < 2; ++e) {
      BULLION_RETURN_NOT_OK(Epoch(e, /*check_values=*/true, nullptr, &scratch));
    }
    if (scratch.failed != 0) return Status::Corruption("warm-up epoch wrong");
    return Status::OK();
  }

  PhaseOutcome Run(double seconds, bool traced) override {
    PhaseOutcome out;
    report_ = std::make_unique<bullion::obs::PipelineReport>();
    cache_hits0_ = cache_->hits();
    cache_misses0_ = cache_->misses();
    cache_evictions0_ = cache_->evictions();
    out.Start(NowNs());
    const uint64_t deadline = out.start_ns + static_cast<uint64_t>(seconds * 1e9);
    for (uint64_t e = 1; out.end_ns < deadline; ++e) {
      const bool check = Mix(seed_, e) % kChecksumEvery == 0;
      const Status st = Epoch(e + 1, check, traced ? report_.get() : nullptr, &out);
      if (!st.ok()) {
        std::fprintf(stderr, "train_scan: epoch %llu failed: %s\n",
                     static_cast<unsigned long long>(e), st.ToString().c_str());
      }
      out.end_ns = NowNs();
    }
    out.peak_rss_mb = PeakRssMb();
    ops_ = out.ops;
    return out;
  }

  uint64_t Verify() override {
    // Every timed epoch already checked row counts and group order, and
    // its sampled value checksums; one more fully checked epoch after
    // the timed phase confirms the final state.
    PhaseOutcome scratch;
    const Status st = Epoch(0, /*check_values=*/true, nullptr, &scratch);
    return scratch.failed + (st.ok() ? 0 : 1);
  }

  uint64_t setup_user_bytes() const override { return user_bytes_.total(); }
  uint64_t timed_user_bytes() const override { return 0; }
  UserBytesSplit live_user_bytes() const override { return user_bytes_; }
  std::vector<std::string> live_files() const override {
    std::vector<std::string> files{kManifest};
    for (const auto& s : reader_->manifest().shards()) files.push_back(s.name);
    return files;
  }

  void LayerMetrics(MetricMap* out) const override {
    const double hits = static_cast<double>(cache_->hits() - cache_hits0_);
    const double misses = static_cast<double>(cache_->misses() - cache_misses0_);
    const double ops = static_cast<double>(ops_ == 0 ? 1 : ops_);
    (*out)["dataset.cache_hit_ratio"] =
        hits + misses == 0 ? 0 : hits / (hits + misses);
    (*out)["dataset.cache_evictions_per_op"] =
        (cache_->evictions() - cache_evictions0_) / ops;
    const double wall = static_cast<double>(report_->wall_ns.load());
    (*out)["exec.work_us_per_op"] = report_->work_ns.load() / 1e3 / ops;
    (*out)["exec.stall_frac"] = wall == 0 ? 0 : report_->stall_ns.load() / wall;
  }

  uint64_t unseen_read_bytes() const override { return report_->bytes.load(); }

  std::string SizesJson() const override {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"rows\": %zu, \"leaves\": %zu, \"shards\": %zu, "
        "\"rows_per_group\": %u, \"projection_leaves\": %zu, "
        "\"decoded_epoch_bytes\": %llu, \"cache_budget_bytes\": %zu, "
        "\"pool_workers\": %zu, \"consumer_threads\": 1}",
        kRows, schema_.num_leaves(), kShards, kRowsPerGroup,
        projection_.size(), static_cast<unsigned long long>(decoded_epoch_bytes_),
        cache_budget_, kPoolWorkers);
    return buf;
  }

 private:
  Result<std::unique_ptr<ShardedTableReader>> OpenDataset() {
    BULLION_ASSIGN_OR_RETURN(bullion::Buffer blob, seam_->ReadWholeFile(kManifest));
    auto manifest = [&] {
      ScopedSpan span("dataset.manifest_parse");
      return ShardManifest::Parse(blob.AsSlice());
    }();
    BULLION_RETURN_NOT_OK(manifest.status());
    ScopedSpan span("dataset.open");
    return ShardedTableReader::Open(*manifest, seam_->ReadOpener());
  }

  /// One epoch as a fresh training job runs it. Counts one attempted
  /// request per row group and a failure for every missing or wrong
  /// batch; `out` gets each batch's time blocked in Next() (the
  /// first also carries the manifest read, open and plan).
  Status Epoch(uint64_t epoch, bool check_values,
               bullion::obs::PipelineReport* report, PhaseOutcome* out) {
    Tracer::SetRequest(epoch);
    ScopedSpan epoch_span("bench.epoch");
    const uint32_t groups = static_cast<uint32_t>(expected_.size());
    out->attempted += groups;
    uint64_t t0 = NowNs();
    auto ds = OpenDataset();
    if (!ds.ok()) {
      out->failed += groups;
      return ds.status();
    }
    bullion::ScanStreamBuilder scan = bullion::Scan(ds->get());
    scan.Columns(projection_).Pool(pool_.get()).Cache(cache_.get());
    if (report != nullptr) scan.Report(report);
    auto stream = [&] {
      ScopedSpan span("exec.stream_open");
      return scan.Stream();
    }();
    if (!stream.ok()) {
      out->failed += groups;
      return stream.status();
    }
    RowBatch batch;
    uint32_t next_group = 0;
    for (;;) {
      auto more = [&] {
        ScopedSpan span("exec.next");
        return (*stream)->Next(&batch);
      }();
      if (!more.ok()) {
        out->failed += groups - next_group;
        return more.status();
      }
      if (!*more) break;
      const uint64_t now = NowNs();
      out->AddLatency(t0, now);
      bool good = next_group < groups && batch.group == next_group &&
                  batch.num_rows() == kRowsPerGroup &&
                  batch.columns.size() == projection_.size();
      if (good && check_values) {
        for (size_t c = 0; c < batch.columns.size(); ++c) {
          good = good && Checksum(batch.columns[c]) == expected_[next_group][c];
        }
      }
      if (good) {
        out->ops += batch.num_rows();
      } else {
        out->failed += 1;
      }
      ++next_group;
      t0 = NowNs();
    }
    if (next_group < groups) out->failed += groups - next_group;
    return Status::OK();
  }

  uint64_t seed_ = 0;
  bullion::Schema schema_;
  std::vector<ColumnVector> data_;
  std::vector<std::string> projection_;
  std::vector<std::vector<uint64_t>> expected_;  // [group][projected column]
  UserBytesSplit user_bytes_;
  uint64_t decoded_epoch_bytes_ = 0;
  size_t cache_budget_ = 0;

  Seam* seam_ = nullptr;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ShardedTableReader> reader_;
  std::unique_ptr<DecodedChunkCache> cache_;
  std::unique_ptr<bullion::obs::PipelineReport> report_ =
      std::make_unique<bullion::obs::PipelineReport>();
  uint64_t cache_hits0_ = 0, cache_misses0_ = 0, cache_evictions0_ = 0;
  uint64_t ops_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeTrainScan() { return std::make_unique<TrainScan>(); }

}  // namespace perfbench
