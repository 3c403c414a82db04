// serve_lookup: a ranking service fetching features by key.
//
// Two closed-loop client threads each wait on one
// Lookup(ds).Key("uid", k).Columns(...).Cache(&cache).Run() at a time,
// with library defaults, over a Bloom-filtered keyed table (footer v3,
// manifest v4). Keys are Zipf(1.1) over a seeded permutation of the
// rows; every third key is an in-zone miss (an odd uid), the others
// hit. With hits and misses 1:1 the median request would sit in the
// gap between the two latency modes (a miss the Bloom filters answer
// costs a few microseconds, a hit a few hundred) and jump between them
// from run to run; at 2:1 it is a stable point of the hit mode. The shared
// cache holds the Zipf-hot chunks but well under the table's decoded
// size: this is the workload that fits the program's cache.

#include <cstdio>
#include <thread>

#include "common/random.h"
#include "workload.h"
#include "workload/zipf.h"

namespace perfbench {
namespace {

using bullion::DecodedChunkCache;
using bullion::Field;
using bullion::LookupResult;
using bullion::PhysicalType;
using bullion::ShardedTableReader;
using bullion::ShardManifest;

constexpr size_t kRows = size_t{1} << 18;
constexpr size_t kShards = 8;
constexpr uint32_t kRowsPerGroup = 4096;
constexpr uint32_t kRowsPerPage = 256;
constexpr size_t kSeqLength = 8;
constexpr double kZipfS = 1.1;
constexpr size_t kClients = 2;
constexpr size_t kCacheBudget = size_t{4} << 20;
constexpr uint64_t kWarmupLookups = 20000;
/// One lookup in this many (seeded) is kept and re-checked byte for
/// byte against the equivalent filtered Scan after the timed phase.
constexpr uint64_t kRecheckEvery = 512;
constexpr const char* kManifest = "serve.manifest";

const std::vector<std::string>& Projection() {
  static const std::vector<std::string> kProjection = {"uid", "clicks", "score",
                                                       "tag", "seq"};
  return kProjection;
}

bullion::Schema ServeSchema() {
  auto prim = [](PhysicalType t) { return bullion::DataType::Primitive(t); };
  return bullion::Schema({
      Field{"uid", prim(PhysicalType::kInt64), bullion::LogicalType::kPlain, false},
      Field{"clicks", prim(PhysicalType::kInt64), bullion::LogicalType::kPlain, false},
      Field{"score", prim(PhysicalType::kFloat64), bullion::LogicalType::kPlain, false},
      Field{"tag", prim(PhysicalType::kBinary), bullion::LogicalType::kPlain, false},
      Field{"seq", bullion::DataType::List(prim(PhysicalType::kInt64)),
            bullion::LogicalType::kIdSequence, false},
  });
}

struct Sampled {
  int64_t key = 0;
  LookupResult result;
};

class ServeLookup : public Workload {
 public:
  void Generate(uint64_t seed) override {
    seed_ = seed;
    schema_ = ServeSchema();
    bullion::Random rng(seed);
    // Rank -> row is an affine bijection mod 2^18, so hot keys scatter
    // over every shard instead of piling into the first row group.
    perm_mul_ = (rng.Next() | 1) & (kRows - 1);
    perm_add_ = rng.Next() & (kRows - 1);

    data_.clear();
    for (const bullion::LeafColumn& leaf : schema_.leaves()) {
      data_.push_back(ColumnVector::ForLeaf(leaf));
    }
    std::vector<int64_t> window(kSeqLength);
    for (auto& x : window) x = static_cast<int64_t>(rng.Uniform(1 << 20));
    for (size_t r = 0; r < kRows; ++r) {
      data_[0].AppendInt(2 * static_cast<int64_t>(r));
      data_[1].AppendInt(static_cast<int64_t>(rng.Uniform(1000)));
      data_[2].AppendReal(rng.NextDouble());
      data_[3].AppendBinary("t" + std::to_string(rng.Uniform(100000)));
      if (rng.Bernoulli(0.25)) {
        window.insert(window.begin(), static_cast<int64_t>(rng.Uniform(1 << 20)));
        window.pop_back();
      }
      data_[4].AppendIntList(window);
    }
    user_bytes_ = {};
    decoded_bytes_ = 0;
    for (size_t c = 0; c < data_.size(); ++c) {
      (c == 4 ? user_bytes_.sparse : user_bytes_.dense) += UserBytes(data_[c]);
      decoded_bytes_ += DecodedBytes(data_[c]);
    }
  }

  Status Setup(Seam* seam) override {
    reader_.reset();
    cache_.reset();
    seam_ = seam;
    {
      bullion::ThreadPool pool(kPoolWorkers);
      BULLION_ASSIGN_OR_RETURN(
          auto writer, bullion::ShardedWriteBuilder(schema_, seam->WriteOpener())
                           .BaseName("serve")
                           .RowsPerShard(kRows / kShards)
                           .RowsPerGroup(kRowsPerGroup)
                           .RowsPerPage(kRowsPerPage)
                           .Pool(&pool)
                           .Build());
      BULLION_RETURN_NOT_OK(writer->Append(data_));
      BULLION_ASSIGN_OR_RETURN(ShardManifest manifest, writer->Finish());
      const bullion::Buffer blob = manifest.Serialize();
      BULLION_RETURN_NOT_OK(seam->WriteWholeFile(kManifest, blob.AsSlice()));
    }
    BULLION_ASSIGN_OR_RETURN(bullion::Buffer blob, seam->ReadWholeFile(kManifest));
    BULLION_ASSIGN_OR_RETURN(ShardManifest manifest,
                             ShardManifest::Parse(blob.AsSlice()));
    {
      ScopedSpan span("dataset.open");
      BULLION_ASSIGN_OR_RETURN(reader_,
                               ShardedTableReader::Open(manifest, seam->ReadOpener()));
    }
    cache_ = std::make_unique<DecodedChunkCache>(kCacheBudget);
    return Status::OK();
  }

  void ReleaseInputs() override {
    // Truth needs only the key -> row mapping (uid = 2 * row); the byte
    // for byte re-check compares against a filtered Scan.
    data_.clear();
    data_.shrink_to_fit();
  }

  Status Warmup() override {
    Phase(/*seconds=*/0, kWarmupLookups / kClients, /*traced=*/false,
          /*stream=*/1000);
    if (last_.failed != 0) return Status::Corruption("warm-up lookup wrong");
    return Status::OK();
  }

  PhaseOutcome Run(double seconds, bool traced) override {
    reports_.clear();
    for (size_t t = 0; t < kClients; ++t) {
      reports_.push_back(std::make_unique<bullion::obs::PipelineReport>());
    }
    hits0_ = cache_->hits();
    misses0_ = cache_->misses();
    evictions0_ = cache_->evictions();
    Phase(seconds, /*max_per_client=*/0, traced, /*stream=*/++phase_);
    return last_;
  }

  uint64_t Verify() override {
    uint64_t failed = 0;
    for (const Sampled& s : sampled_) {
      auto stream = bullion::Scan(reader_.get())
                        .Columns(Projection())
                        .Filter("uid", bullion::CompareOp::kEq, s.key)
                        .Stream();
      if (!stream.ok()) {
        ++failed;
        continue;
      }
      std::vector<ColumnVector> want;
      bullion::RowBatch batch;
      bool ok = true;
      for (;;) {
        auto more = (*stream)->Next(&batch);
        if (!more.ok()) ok = false;
        if (!more.ok() || !*more) break;
        if (want.empty()) {
          want = std::move(batch.columns);
          continue;
        }
        for (size_t c = 0; c < want.size(); ++c) want[c].AppendAllFrom(batch.columns[c]);
      }
      const size_t want_rows = want.empty() ? 0 : want[0].num_rows();
      ok = ok && want_rows == s.result.num_rows();
      if (ok && want_rows > 0) ok = want == s.result.columns;
      if (!ok) ++failed;
    }
    std::printf("serve_lookup: re-checked %zu sampled lookups against filtered "
                "Scan, %llu mismatched\n",
                sampled_.size(), static_cast<unsigned long long>(failed));
    sampled_.clear();
    return failed;
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
    const double hits = static_cast<double>(cache_->hits() - hits0_);
    const double misses = static_cast<double>(cache_->misses() - misses0_);
    const double ops = static_cast<double>(last_.ops == 0 ? 1 : last_.ops);
    (*out)["dataset.cache_hit_ratio"] =
        hits + misses == 0 ? 0 : hits / (hits + misses);
    (*out)["dataset.cache_evictions_per_op"] =
        (cache_->evictions() - evictions0_) / ops;
    double work = 0, stall = 0, wall = 0;
    for (const auto& r : reports_) {
      work += static_cast<double>(r->work_ns.load());
      stall += static_cast<double>(r->stall_ns.load());
      wall += static_cast<double>(r->wall_ns.load());
    }
    (*out)["exec.work_us_per_op"] = work / 1e3 / ops;
    (*out)["exec.stall_frac"] = wall == 0 ? 0 : stall / wall;
  }

  uint64_t unseen_read_bytes() const override {
    uint64_t bytes = 0;
    for (const auto& r : reports_) bytes += r->bytes.load();
    return bytes;
  }

  std::string SizesJson() const override {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"rows\": %zu, \"leaves\": %zu, \"shards\": %zu, "
        "\"rows_per_group\": %u, \"rows_per_page\": %u, "
        "\"projection_leaves\": %zu, \"decoded_table_bytes\": %llu, "
        "\"cache_budget_bytes\": %zu, \"zipf_s\": %.2f, \"hit_fraction\": 0.667, "
        "\"client_threads\": %zu, \"bloom_bits_per_key\": 10}",
        kRows, schema_.num_leaves(), kShards, kRowsPerGroup, kRowsPerPage,
        Projection().size(), static_cast<unsigned long long>(decoded_bytes_),
        kCacheBudget, kZipfS, kClients);
    return buf;
  }

 private:
  int64_t KeyFor(uint64_t rank, bool hit) const {
    const uint64_t row = (rank * perm_mul_ + perm_add_) & (kRows - 1);
    return 2 * static_cast<int64_t>(row) + (hit ? 0 : 1);
  }

  /// Runs both clients until `seconds` pass (or `max_per_client`
  /// lookups each when nonzero) and leaves the outcome in last_.
  /// `stream` separates the key streams of warm-up and timed phases.
  void Phase(double seconds, uint64_t max_per_client, bool traced,
             uint64_t stream) {
    std::vector<PhaseOutcome> outs(kClients);
    std::vector<std::vector<Sampled>> samples(kClients);
    const uint64_t start = NowNs();
    for (PhaseOutcome& o : outs) o.Start(start);
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    std::vector<std::thread> clients;
    for (size_t t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t] {
        bullion::ZipfGenerator zipf(kRows, kZipfS,
                                    seed_ * 1000003 + stream * 101 + t);
        bullion::Random pick(seed_ ^ (stream << 32) ^ (t + 1));
        PhaseOutcome& out = outs[t];
        for (uint64_t i = 0;; ++i) {
          if (max_per_client != 0 ? i >= max_per_client : NowNs() >= deadline) {
            break;
          }
          const bool hit = (i % 3) != 2;
          const int64_t key = KeyFor(zipf.Next(), hit);
          Tracer::SetRequest(((t + 1) << 48) | i);
          auto builder = bullion::Lookup(reader_.get())
                             .Key("uid", key)
                             .Columns(Projection())
                             .Cache(cache_.get());
          if (traced) builder.Report(reports_[t].get());
          const uint64_t t0 = NowNs();
          auto result = [&] {
            ScopedSpan span("serve.run", hit ? 1 : 0);
            return builder.Run();
          }();
          out.AddLatency(t0, NowNs());
          ++out.attempted;
          const size_t rows = result.ok() ? result->num_rows() : 0;
          const bool good =
              result.ok() && rows == (hit ? 1u : 0u) &&
              (!hit || (result->columns.size() == Projection().size() &&
                        result->columns[0].int_values()[0] == key));
          if (!good) {
            ++out.failed;
            continue;
          }
          ++out.ops;
          if (pick.Uniform(kRecheckEvery) == 0) {
            samples[t].push_back(Sampled{key, std::move(*result)});
          }
        }
        out.end_ns = NowNs();
      });
    }
    for (auto& c : clients) c.join();
    outs[0].peak_rss_mb = PeakRssMb();
    for (size_t t = 1; t < kClients; ++t) outs[0].Merge(outs[t]);
    last_ = std::move(outs[0]);
    for (auto& client_samples : samples) {
      for (Sampled& s : client_samples) sampled_.push_back(std::move(s));
    }
  }

  uint64_t seed_ = 0;
  bullion::Schema schema_;
  std::vector<ColumnVector> data_;
  uint64_t perm_mul_ = 1, perm_add_ = 0;
  UserBytesSplit user_bytes_;
  uint64_t decoded_bytes_ = 0;

  Seam* seam_ = nullptr;
  std::unique_ptr<ShardedTableReader> reader_;
  std::unique_ptr<DecodedChunkCache> cache_;
  std::vector<std::unique_ptr<bullion::obs::PipelineReport>> reports_;
  std::vector<Sampled> sampled_;
  PhaseOutcome last_;
  uint64_t phase_ = 1;
  uint64_t hits0_ = 0, misses0_ = 0, evictions0_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeServeLookup() {
  return std::make_unique<ServeLookup>();
}

}  // namespace perfbench
