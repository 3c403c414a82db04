// bullion_perfbench: runs one workload of the repository benchmark and
// prints its metrics (see perfbench/README.md). perfbench/run.py builds
// this binary and is the command to call:
//
//   python3 perfbench/run.py --workload train_scan --seed 1 --seconds 20
//       --trace 0
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end
// set; with --trace 1 they are the per-layer set, derived from a traced
// timed phase, and the spans are written as Chrome trace-event JSON.

#include <malloc.h>
#include <sched.h>
#include <sys/mount.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "encoding/cpu_dispatch.h"
#include "io/aio.h"
#include "workload.h"

namespace perfbench {
namespace {

/// Setups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Spans written to the trace file (every span feeds the metrics); more
/// would make a file Perfetto loads slowly.
constexpr size_t kMaxTraceFileSpans = 200000;

enum WorkloadBit : unsigned { kTrain = 1, kServe = 2, kIngest = 4, kAll = 7 };

struct MetricDef {
  const char* name;
  const char* unit;
  unsigned applies;  // WorkloadBit mask; elsewhere the metric is absent
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s", kAll},
    {"ops_per_s", "1/s", kAll},
    {"latency_us", "us", kAll},
    {"latency_tail_us", "us", kAll},
    {"stored_bytes_per_user_byte", "ratio", kAll},
    {"written_bytes_per_user_byte", "ratio", kAll},
    {"peak_rss_mb", "MB", kAll},
};

const MetricDef kPerLayer[] = {
    {"serve.hit_us", "us", kServe},
    {"serve.miss_us", "us", kServe},
    {"serve.bloom_negative_ratio", "ratio", kServe},
    {"dataset.open_us", "us", kTrain},
    {"dataset.cache_hit_ratio", "ratio", kTrain | kServe},
    {"dataset.cache_evictions_per_op", "count/op", kTrain | kServe},
    {"dataset.cache_insert_us_per_op", "us/op", kTrain | kServe},
    {"dataset.append_ms", "ms", kIngest},
    {"dataset.compact_ms", "ms", kIngest},
    {"dataset.compact_rewritten_bytes_per_user_byte", "ratio", kIngest},
    {"exec.stream_open_us", "us", kTrain},
    {"exec.work_us_per_op", "us/op", kTrain | kServe},
    {"exec.stall_frac", "ratio", kTrain | kServe},
    {"exec.queue_wait_us", "us", kTrain | kIngest},
    {"format.decode_us_per_op", "us/op", kAll},
    {"format.decode_chunks_per_op", "count/op", kAll},
    {"format.encode_us_per_op", "us/op", kAll},
    {"format.setup_encode_s", "s", kAll},
    {"format.delete_us", "us", kIngest},
    {"format.delete_pages_rewritten_per_request", "count/req", kIngest},
    {"format.delete_bytes_written_per_request", "B/req", kIngest},
    {"encoding.sparse_stored_bytes_per_user_byte", "ratio", kAll},
    {"encoding.dense_stored_bytes_per_user_byte", "ratio", kAll},
    {"io.reads_per_op", "count/op", kAll},
    {"io.read_bytes_per_op", "B/op", kAll},
    {"io.read_busy_us_per_op", "us/op", kAll},
    {"io.aio_inflight_us", "us", kAll},
    {"io.write_calls_per_op", "count/op", kAll},
    {"io.write_busy_us_per_op", "us/op", kAll},
    {"io.flush_calls_per_op", "count/op", kAll},
    {"io.failed_ops", "count", kAll},
    {"process.cpu_us_per_op", "us/op", kAll},
    {"process.sys_frac", "ratio", kAll},
    {"process.minor_faults_per_op", "count/op", kAll},
    {"process.vol_ctx_switches_per_op", "count/op", kAll},
    {"process.setup_peak_rss_mb", "MB", kAll},
    {"process.steal_frac", "ratio", kAll},
    {"trace.overhead_frac", "ratio", kAll},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string scratch;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !v.empty();
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && a->seconds > 0;
    } else if (k == "--trace") {
      have_trace = v == "0" || v == "1";
      a->trace = v == "1";
    } else if (k == "--scratch") {
      a->scratch = v;
    } else if (k == "--out") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && have_trace &&
         !a->workload.empty() && !a->scratch.empty() && !a->out_dir.empty();
}

unsigned BitOf(const std::string& workload) {
  if (workload == "train_scan") return kTrain;
  if (workload == "serve_lookup") return kServe;
  if (workload == "ingest_delete") return kIngest;
  return 0;
}

std::string FsTypeName(const std::string& dir) {
  struct statfs st{};
  if (::statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994ul: return "tmpfs";
    case 0xEF53ul: return "ext4";
    case 0x794C7630ul: return "overlay";
    case 0x58465342ul: return "xfs";
    case 0x9123683Eul: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

/// Mounts a private tmpfs over `dir` so no benchmark write waits on
/// the disk, while every file stays inside the checkout. Needs
/// CAP_SYS_ADMIN; without it the run uses `dir` as it is and the
/// provenance line records the filesystem actually used. Must run
/// before any thread starts (mount namespaces are per thread).
bool MountPrivateTmpfs(const std::string& dir) {
  if (::unshare(CLONE_NEWNS) != 0) return false;
  if (::mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0) {
    return false;
  }
  return ::mount("tmpfs", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
                 "size=4g,mode=0700") == 0;
}

/// Removes everything the run wrote under the scratch directory, on
/// every exit path that returns from main.
class ScratchGuard {
 public:
  explicit ScratchGuard(std::string dir) : dir_(std::move(dir)) {}
  ~ScratchGuard() {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
      std::filesystem::remove_all(entry.path(), ec);
    }
  }
  ScratchGuard(const ScratchGuard&) = delete;
  ScratchGuard& operator=(const ScratchGuard&) = delete;

 private:
  std::string dir_;
};

uint64_t FileBytes(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

struct Snapshots {
  SeamSnapshot seam;
  RegistrySnapshot reg;
  ProcessSnapshot proc;
};

Snapshots TakeAll(const Seam& seam) {
  return Snapshots{seam.Snapshot(), RegistrySnapshot::Take(), ProcessSnapshot::Take()};
}

/// One set-up in a fresh directory: the seam, its wall time and the
/// encode work it did.
struct SetupRun {
  std::unique_ptr<Seam> seam;
  double seconds = 0;
  double encode_s = 0;
  SeamSnapshot after;
};

Status RunSetup(Workload* w, const std::string& dir, SetupRun* out) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("mkdir " + dir + ": " + ec.message());
  out->seam = std::make_unique<Seam>(dir);
  const RegistrySnapshot reg0 = RegistrySnapshot::Take();
  const uint64_t t0 = NowNs();
  BULLION_RETURN_NOT_OK(w->Setup(out->seam.get()));
  out->seconds = (NowNs() - t0) / 1e9;
  out->encode_s = (RegistrySnapshot::Take() - reg0).encode_sum / 1e9;
  out->after = out->seam->Snapshot();
  return Status::OK();
}

void PrintJsonMetric(std::string* json, const char* name, double value,
                     const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                json->size() > 1 ? ", " : "", name, value, unit);
  *json += buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::string& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
}

double SafeDiv(double a, double b) { return b == 0 ? 0 : a / b; }

/// An untraced timed phase runs as consecutive parts of kPartSeconds
/// until --seconds have passed. Each part is a whole Workload::Run()
/// (whole epochs; ingest_delete's whole compaction periods, so its
/// parts run longer), so every part carries the workload's full mix of
/// work. The timing metrics describe the parts with the least host CPU
/// steal, taken until they cover a fortieth of the phase's wall time
/// and hold kMinQuietSamples requests: on a shared host the hypervisor
/// steals CPU in bursts, and a few percent of steal can add half to a
/// p99 or take a third off lookup throughput. Short parts find the
/// short quiet stretches of a busy host. A traced phase is one part:
/// the workloads' layer figures cover their last Run().
constexpr double kPartSeconds = 0.2;
constexpr double kQuietShare = 1.0 / 40;
constexpr size_t kMinQuietSamples = 2000;

/// A timed phase run as consecutive Run()s.
struct Timed {
  uint64_t ops = 0, attempted = 0, failed = 0;
  double wall_s = 0;
  double peak_rss_mb = -1;
  /// Per part.
  std::vector<uint64_t> part_ops;
  std::vector<double> part_wall_s, part_steal, part_p50_us, part_p99_us;
  std::vector<bool> quiet;
  /// Over the quiet parts: summed ops over summed wall time, and latency
  /// p50/p99 over every request they completed.
  double ops_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  size_t samples = 0;
};

Timed RunTimed(Workload* w, double seconds, bool traced, double part_seconds) {
  Timed t;
  std::vector<std::vector<float>> latency;
  const uint64_t end_ns = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  for (uint64_t now = NowNs(); now < end_ns; now = NowNs()) {
    const CpuStat c0 = CpuStat::Read();
    const PhaseOutcome o = w->Run(std::min(part_seconds, (end_ns - now) / 1e9), traced);
    t.part_steal.push_back(StealFrac(c0, CpuStat::Read()));
    t.part_ops.push_back(o.ops);
    t.part_wall_s.push_back(o.wall_s());
    latency.emplace_back(o.latency_us.begin(), o.latency_us.end());
    const std::vector<double> part_lat(o.latency_us.begin(), o.latency_us.end());
    t.part_p50_us.push_back(Quantile(part_lat, 0.5));
    t.part_p99_us.push_back(Quantile(part_lat, 0.99));
    t.ops += o.ops;
    t.attempted += o.attempted;
    t.failed += o.failed;
    t.wall_s += o.wall_s();
    t.peak_rss_mb = std::max(t.peak_rss_mb, o.peak_rss_mb);
  }
  // Least steal first; ties take evenly spaced parts first, so with no
  // steal the quiet parts still span the whole phase.
  const size_t parts = latency.size();
  const size_t stride = std::max<size_t>(1, static_cast<size_t>(1 / kQuietShare));
  std::vector<size_t> order;
  for (size_t first = 0; first < stride; ++first) {
    for (size_t k = first; k < parts; k += stride) order.push_back(k);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return t.part_steal[a] < t.part_steal[b]; });
  t.quiet.assign(parts, false);
  uint64_t quiet_ops = 0;
  double quiet_wall_s = 0;
  std::vector<double> lat;
  for (size_t i = 0; i < parts && (quiet_wall_s < kQuietShare * t.wall_s ||
                                   lat.size() < kMinQuietSamples);
       ++i) {
    const size_t k = order[i];
    t.quiet[k] = true;
    quiet_ops += t.part_ops[k];
    quiet_wall_s += t.part_wall_s[k];
    lat.insert(lat.end(), latency[k].begin(), latency[k].end());
  }
  t.ops_per_s = SafeDiv(static_cast<double>(quiet_ops), quiet_wall_s);
  t.p50_us = Quantile(lat, 0.5);
  t.p99_us = Quantile(lat, 0.99);
  t.samples = lat.size();
  return t;
}

/// Stored bytes of the live dataset and the encoding.* split, read from
/// the shard footers through the seam.
struct Stored {
  uint64_t file_bytes = 0;
  uint64_t manifest_bytes = 0;
  uint64_t sparse_chunk_bytes = 0;
  uint64_t dense_chunk_bytes = 0;
};

Result<Stored> MeasureStored(const Workload& w, Seam* seam) {
  Stored s;
  for (const std::string& name : w.live_files()) {
    const uint64_t bytes = FileBytes(seam->Path(name));
    s.file_bytes += bytes;
    if (name.find(".manifest") != std::string::npos) {
      s.manifest_bytes += bytes;
      continue;
    }
    BULLION_ASSIGN_OR_RETURN(auto file, seam->OpenRead(name));
    BULLION_ASSIGN_OR_RETURN(auto reader, bullion::TableReader::Open(std::move(file)));
    const bullion::FooterView& f = reader->footer();
    for (uint32_t c = 0; c < f.num_columns(); ++c) {
      (IsSparseLeaf(f.column_record(c)) ? s.sparse_chunk_bytes
                                        : s.dense_chunk_bytes) += ChunkBytes(f, c);
    }
  }
  return s;
}

int Main(int argc, char** argv) {
  for (const char* var : {"BULLION_AIO", "BULLION_SIMD", "BULLION_TRACE", "BULLION_ODIRECT"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "refusing to run: %s is set and changes the program under test\n",
                   var);
      return 2;
    }
  }
  Args args;
  if (!ParseArgs(argc, argv, &args) || BitOf(args.workload) == 0) {
    std::fprintf(stderr,
                 "usage: bullion_perfbench --workload train_scan|serve_lookup|"
                 "ingest_delete --seed N --seconds S --trace 0|1 --scratch DIR "
                 "--out DIR\n");
    return 2;
  }
  const unsigned bit = BitOf(args.workload);
  const bool tmpfs = MountPrivateTmpfs(args.scratch);
  ScratchGuard guard(args.scratch);
  // Declared before the workload, which keeps pointers into the seam of
  // the last set-up: the workload is destroyed first on every exit.
  SetupRun current;
  std::unique_ptr<Workload> w = bit == kTrain   ? MakeTrainScan()
                                : bit == kServe ? MakeServeLookup()
                                                : MakeIngestDelete();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  w->Generate(args.seed);
  std::printf("sizes %s\n", w->SizesJson().c_str());

  // ---------------------------------------------------------------- setup
  // Untraced runs set up kSetupRepeats times (setup_s is the median) and
  // time the last dataset; traced runs set up once per timed phase: an
  // untraced phase for the overhead baseline, then the traced one.
  const int setups = args.trace ? 2 : kSetupRepeats;
  std::vector<double> setup_seconds;
  uint64_t attempted = 0, failed = 0;
  double untraced_ops_per_s = 0;
  for (int k = 0; k < setups; ++k) {
    SetupRun next;
    if (args.trace) ResetPeakRss();
    const Status st =
        RunSetup(w.get(), args.scratch + "/setup-" + std::to_string(k), &next);
    if (!st.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_seconds.push_back(next.seconds);
    if (current.seam != nullptr) {
      std::error_code ec;
      std::filesystem::remove_all(current.seam->dir(), ec);
    }
    current = std::move(next);
    if (args.trace && k == 0) {
      // The untraced baseline phase of a traced run.
      if (const Status ws = w->Warmup(); !ws.ok()) {
        std::fprintf(stderr, "warm-up failed: %s\n", ws.ToString().c_str());
        return 1;
      }
      const Timed base =
          RunTimed(w.get(), args.seconds, /*traced=*/false, args.seconds);
      untraced_ops_per_s = base.ops_per_s;
      attempted += base.attempted;
      failed += base.failed + w->Verify();
    }
  }
  std::printf("setup_s samples:");
  for (double s : setup_seconds) std::printf(" %.4f", s);
  std::printf("\n");
  w->ReleaseInputs();
  ::malloc_trim(0);
  const double setup_peak_rss_mb = PeakRssMb();
  Seam* seam = current.seam.get();

  if (const Status ws = w->Warmup(); !ws.ok()) {
    std::fprintf(stderr, "warm-up failed: %s\n", ws.ToString().c_str());
    return 1;
  }

  // ----------------------------------------------------------- timed phase
  ResetPeakRss();
  const Snapshots before = TakeAll(*seam);
  Tracer::Clear();
  Tracer::Enable(args.trace);
  const Timed out = RunTimed(w.get(), args.seconds, args.trace,
                             args.trace ? args.seconds : kPartSeconds);
  Tracer::Enable(false);
  const Snapshots after = TakeAll(*seam);
  const uint64_t verify_failed = w->Verify();
  attempted += out.attempted;
  failed += out.failed + verify_failed;

  const double steal = StealFrac(before.proc.cpu, after.proc.cpu);
  std::printf("provenance {\"nproc\": %ld, \"aio_tier\": \"%s\", \"simd_tier\": \"%s\", "
              "\"scratch_fs\": \"%s\", \"private_tmpfs\": %s, \"seed\": %llu, "
              "\"steal_frac\": %.6f}\n",
              ::sysconf(_SC_NPROCESSORS_ONLN),
              bullion::AioTierName(bullion::DefaultAioTier()),
              std::string(bullion::simd::SimdTierName(bullion::simd::ActiveSimdTier()))
                  .c_str(),
              FsTypeName(args.scratch).c_str(), tmpfs ? "true" : "false",
              static_cast<unsigned long long>(args.seed), steal);

  auto stored = MeasureStored(*w, seam);
  if (!stored.ok()) {
    std::fprintf(stderr, "stored-bytes probe failed: %s\n",
                 stored.status().ToString().c_str());
    return 1;
  }
  const UserBytesSplit live = w->live_user_bytes();
  std::printf("stored: %zu live files, %llu bytes (manifest %llu), %llu live user bytes\n",
              w->live_files().size(), static_cast<unsigned long long>(stored->file_bytes),
              static_cast<unsigned long long>(stored->manifest_bytes),
              static_cast<unsigned long long>(live.total()));
  const double ops = static_cast<double>(out.ops);
  const size_t quiet_parts =
      static_cast<size_t>(std::count(out.quiet.begin(), out.quiet.end(), true));
  std::printf("timed phase: %llu ops in %.3f s; %zu latency samples in the %zu quiet "
              "parts (of %zu); %llu of %llu requests failed\n",
              static_cast<unsigned long long>(out.ops), out.wall_s, out.samples, quiet_parts,
              out.quiet.size(), static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("parts (ops/s, steal, p50 us, p99 us, * = quiet):");
  for (size_t k = 0; k < out.quiet.size(); ++k) {
    std::printf(" %.0f/%.3f/%.1f/%.1f%s",
                SafeDiv(static_cast<double>(out.part_ops[k]), out.part_wall_s[k]),
                out.part_steal[k], out.part_p50_us[k], out.part_p99_us[k],
                out.quiet[k] ? "*" : "");
  }
  std::printf("\n");

  std::string json = "{";
  if (!args.trace) {
    const SeamSnapshot timed = after.seam - before.seam;
    // A workload that ingests in its timed phase reports that phase's
    // steady-state write amplification; mixing in the bulk load would
    // weight the two by how many cycles the run happened to complete.
    // The read workloads write only in set-up.
    const bool timed_ingest = w->timed_user_bytes() > 0;
    const double written = static_cast<double>(
        timed_ingest ? timed.bytes_written : current.after.bytes_written);
    const double ingested = static_cast<double>(
        timed_ingest ? w->timed_user_bytes() : w->setup_user_bytes());
    std::printf("written: setup %llu bytes, timed %llu bytes; user bytes ingested: "
                "setup %llu, timed %llu\n",
                static_cast<unsigned long long>(current.after.bytes_written),
                static_cast<unsigned long long>(timed.bytes_written),
                static_cast<unsigned long long>(w->setup_user_bytes()),
                static_cast<unsigned long long>(w->timed_user_bytes()));
    const double values[] = {
        Quantile(setup_seconds, 0.5),
        out.ops_per_s,
        out.p50_us,
        out.p99_us,
        SafeDiv(static_cast<double>(stored->file_bytes), static_cast<double>(live.total())),
        SafeDiv(written, ingested),
        out.peak_rss_mb,
    };
    std::printf("%-34s %16s %8s\n", "end-to-end metric", "value", "unit");
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      std::printf("%-34s %16.6g %8s\n", kEndToEnd[i].name, values[i], kEndToEnd[i].unit);
      PrintJsonMetric(&json, kEndToEnd[i].name, values[i], kEndToEnd[i].unit);
    }
  } else {
    const std::vector<SpanRecord> spans = Tracer::Collect();
    const std::map<std::string, SpanStats> by_name = SummarizeSpans(spans);
    const std::string trace_path =
        args.out_dir + "/" + args.workload + ".trace.json";
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const bool wrote = WriteChromeTrace(spans, kMaxTraceFileSpans, trace_path);
    std::printf("trace: %zu spans, the first %zu written to %s%s\n", spans.size(),
                std::min(spans.size(), kMaxTraceFileSpans), trace_path.c_str(),
                wrote ? "" : " (write failed)");

    auto span_total = [&](const char* name) {
      auto it = by_name.find(name);
      return it == by_name.end() ? 0.0 : it->second.total_us;
    };
    auto span_p50 = [&](const char* name) {
      auto it = by_name.find(name);
      return it == by_name.end() ? 0.0 : Quantile(it->second.durations_us, 0.5);
    };
    auto span_mean = [&](const char* name) {
      auto it = by_name.find(name);
      return it == by_name.end() ? 0.0 : Mean(it->second.durations_us);
    };
    auto span_p50_arg = [&](const char* name, int arg) {
      auto it = by_name.find(name);
      return it == by_name.end() ? 0.0
                                 : Quantile(it->second.durations_us_by_arg[arg], 0.5);
    };

    // Per-layer self time: each span's duration minus its children's.
    std::map<std::string, std::pair<double, double>> layers;  // self, total
    for (const auto& [name, st] : by_name) {
      const std::string layer = name.substr(0, name.find('.'));
      layers[layer].first += st.self_us;
      layers[layer].second += st.total_us;
    }
    std::printf("%-10s %14s %14s %12s\n", "layer", "self_ms", "total_ms", "self_us/op");
    for (const auto& [layer, t] : layers) {
      std::printf("%-10s %14.3f %14.3f %12.4f\n", layer.c_str(), t.first / 1e3,
                  t.second / 1e3, SafeDiv(t.first, ops));
    }
    std::printf("%-26s %8s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "p50_us");
    for (const auto& [name, st] : by_name) {
      std::printf("%-26s %8llu %12.3f %12.3f %10.2f\n", name.c_str(),
                  static_cast<unsigned long long>(st.count), st.total_us / 1e3,
                  st.self_us / 1e3, Quantile(st.durations_us, 0.5));
    }

    const SeamSnapshot io = after.seam - before.seam;
    const RegistrySnapshot reg = after.reg - before.reg;
    const bool uring = bullion::DefaultAioTier() == bullion::AioTier::kUring;
    // Ring reads bypass the seam: count them from the AIO deltas (every
    // aggregated write block also passes through the AIO lane).
    const double ring_reads =
        uring && reg.aio_inflight_count > io.append_blocks
            ? static_cast<double>(reg.aio_inflight_count - io.append_blocks)
            : 0.0;
    const double cpu_s = (after.proc.user_s - before.proc.user_s) +
                         (after.proc.sys_s - before.proc.sys_s);
    const double traced_ops_per_s = out.ops_per_s;

    MetricMap m;
    m["serve.hit_us"] = span_p50_arg("serve.run", 1);
    m["serve.miss_us"] = span_p50_arg("serve.run", 0);
    m["serve.bloom_negative_ratio"] =
        SafeDiv(static_cast<double>(reg.bloom_negatives), static_cast<double>(reg.bloom_probes));
    m["dataset.open_us"] = span_p50("dataset.open");
    m["dataset.cache_insert_us_per_op"] = SafeDiv(reg.cache_insert_sum / 1e3, ops);
    m["dataset.append_ms"] = span_mean("dataset.append") / 1e3;
    m["dataset.compact_ms"] = span_mean("dataset.compact") / 1e3;
    m["exec.stream_open_us"] = span_p50("exec.stream_open");
    m["exec.queue_wait_us"] =
        SafeDiv(reg.queue_wait_sum / 1e3, static_cast<double>(reg.queue_wait_count));
    m["format.decode_us_per_op"] = SafeDiv(reg.decode_sum / 1e3, ops);
    m["format.decode_chunks_per_op"] = SafeDiv(static_cast<double>(reg.decode_count), ops);
    m["format.encode_us_per_op"] = SafeDiv(reg.encode_sum / 1e3, ops);
    m["format.setup_encode_s"] = current.encode_s;
    m["format.delete_us"] = span_p50("format.delete_rows");
    m["encoding.sparse_stored_bytes_per_user_byte"] =
        SafeDiv(static_cast<double>(stored->sparse_chunk_bytes), static_cast<double>(live.sparse));
    m["encoding.dense_stored_bytes_per_user_byte"] =
        SafeDiv(static_cast<double>(stored->dense_chunk_bytes), static_cast<double>(live.dense));
    m["io.reads_per_op"] = SafeDiv(static_cast<double>(io.reads) + ring_reads, ops);
    m["io.read_bytes_per_op"] = SafeDiv(
        static_cast<double>(io.read_bytes + (uring ? w->unseen_read_bytes() : 0)), ops);
    m["io.read_busy_us_per_op"] = SafeDiv(span_total("io.read"), ops);
    m["io.aio_inflight_us"] = SafeDiv(reg.aio_inflight_sum / 1e3,
                                      static_cast<double>(reg.aio_inflight_count));
    m["io.write_calls_per_op"] = SafeDiv(static_cast<double>(io.write_calls()), ops);
    m["io.write_busy_us_per_op"] =
        SafeDiv(span_total("io.append") + span_total("io.append_block") +
                    span_total("io.write_at") + span_total("io.flush"),
                ops);
    m["io.flush_calls_per_op"] = SafeDiv(static_cast<double>(io.flushes), ops);
    m["io.failed_ops"] = static_cast<double>(io.failed);
    m["process.cpu_us_per_op"] = SafeDiv(cpu_s * 1e6, ops);
    m["process.sys_frac"] = SafeDiv(after.proc.sys_s - before.proc.sys_s, cpu_s);
    m["process.minor_faults_per_op"] = SafeDiv(
        static_cast<double>(after.proc.minor_faults - before.proc.minor_faults), ops);
    m["process.vol_ctx_switches_per_op"] = SafeDiv(
        static_cast<double>(after.proc.vol_ctx_switches - before.proc.vol_ctx_switches), ops);
    m["process.setup_peak_rss_mb"] = setup_peak_rss_mb;
    m["process.steal_frac"] = steal;
    m["trace.overhead_frac"] =
        SafeDiv(untraced_ops_per_s - traced_ops_per_s, untraced_ops_per_s);
    w->LayerMetrics(&m);

    std::printf("trace overhead: untraced %.1f ops/s, traced %.1f ops/s\n",
                untraced_ops_per_s, traced_ops_per_s);
    std::printf("%-46s %16s %10s\n", "per-layer metric", "value", "unit");
    for (const MetricDef& def : kPerLayer) {
      const bool applies = (def.applies & bit) != 0;
      const double value = applies ? m[def.name] : 0.0;
      if (applies) {
        std::printf("%-46s %16.6g %10s\n", def.name, value, def.unit);
      } else {
        std::printf("%-46s %16s %10s\n", def.name, "absent", def.unit);
      }
      // The result line must carry every per-layer metric; one that does
      // not apply to this workload reads 0 there and "absent" above.
      PrintJsonMetric(&json, def.name, value, def.unit);
    }
  }
  const bool correct = failed == 0 && attempted > 0;
  PrintResult(correct, attempted == 0 ? 1 : attempted, failed, json);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
