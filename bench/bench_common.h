// Shared helpers for the benchmark harness: table printing in the
// style of the paper's figures, wall-clock helpers for the custom
// (non-google-benchmark) report sections, the shared IoStats reporter
// (human table + JSON) every bench uses instead of hand-rolled printf
// blocks, and BenchJsonWriter for the committed BENCH_*.json artifacts
// (bench sections + a full obs registry snapshot).

#pragma once

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "io/io_stats.h"
#include "obs/metrics.h"

namespace bullion {
namespace bench {

/// Microsecond wall clock.
inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times `fn()` and returns elapsed microseconds (single shot; callers
/// repeat as needed).
template <typename Fn>
double TimeUs(Fn&& fn) {
  double t0 = NowUs();
  fn();
  return NowUs() - t0;
}

/// Times `fn()` repeated until >= min_total_us elapsed; returns the
/// mean per-iteration microseconds.
template <typename Fn>
double TimeUsAveraged(Fn&& fn, double min_total_us = 50000.0) {
  // Warm-up.
  fn();
  double total = 0;
  int iters = 0;
  while (total < min_total_us) {
    total += TimeUs(fn);
    ++iters;
  }
  return total / iters;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// The one IoStats reporter every bench shares: prints the non-zero
/// counters of `s` as aligned `name value` pairs under `label`. Pass a
/// Snapshot() (or IoStatsDelta of two) — phase accounting without
/// Reset()-ing stats other scans may share.
inline void PrintIoStats(const std::string& label, const IoStatsSnapshot& s) {
  const std::pair<const char*, uint64_t> rows[] = {
#define BULLION_X(name) {#name, s.name},
      BULLION_IO_COUNTERS(BULLION_X)
#undef BULLION_X
  };
  std::printf("io [%s]:", label.c_str());
  bool any = false;
  for (const auto& [name, value] : rows) {
    if (value == 0) continue;
    std::printf(" %s=%" PRIu64, name, value);
    any = true;
  }
  std::printf(any ? "\n" : " (all zero)\n");
}

/// JSON object form of the same counters (all fields, zeros included,
/// so committed artifacts diff cleanly run-over-run).
inline std::string IoStatsJson(const IoStatsSnapshot& s) {
  std::string out;
  const char* sep = "{";
#define BULLION_X(name)                              \
  out += sep;                                        \
  out += "\"" #name "\": " + std::to_string(s.name); \
  sep = ", ";
  BULLION_IO_COUNTERS(BULLION_X)
#undef BULLION_X
  return out + "}";
}

/// Accumulates named sections of pre-serialized JSON and writes one
/// BENCH_<name>.json next to the binary, appending a full metrics
/// registry snapshot (pread/decode latency histograms, queue depth,
/// stage counters) so the committed artifact carries the observability
/// view alongside the bench's own numbers.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// `json_value` must already be valid JSON (object/array/number).
  void AddSection(const std::string& key, const std::string& json_value) {
    sections_.emplace_back(key, json_value);
  }
  void AddIoStats(const std::string& key, const IoStatsSnapshot& s) {
    AddSection(key, IoStatsJson(s));
  }

  /// Writes BENCH_<name>.json: the added sections plus a "metrics" key
  /// holding MetricsRegistry::Global()'s snapshot. Returns false (with
  /// a stderr note) if the file cannot be opened.
  bool WriteWithMetrics() const {
    std::string path = "BENCH_" + bench_name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n");
    for (const auto& [key, value] : sections_) {
      std::fprintf(f, "  \"%s\": %s,\n", key.c_str(), value.c_str());
    }
    std::fprintf(f, "  \"metrics\": %s\n}\n",
                 obs::MetricsRegistry::Global().ToJson().c_str());
    std::fclose(f);
    std::printf("  wrote %s (%zu sections + registry snapshot)\n",
                path.c_str(), sections_.size());
    return true;
  }

 private:
  std::string bench_name_;
  std::vector<std::pair<std::string, std::string>> sections_;
};

}  // namespace bench
}  // namespace bullion
