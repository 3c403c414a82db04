#include "obs/metrics.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace bullion {
namespace obs {

namespace {

/// Quantile estimate from a consistent local bucket array: the value
/// at rank ceil(q * count), taken at its bucket's midpoint and clamped
/// to the observed [min, max].
double BucketQuantile(const uint64_t (&buckets)[LatencyHistogram::kNumBuckets],
                      uint64_t count, uint64_t min, uint64_t max, double q) {
  if (count == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  if (rank >= count) rank = count - 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    seen += buckets[i];
    if (seen > rank) {
      double mid = static_cast<double>(LatencyHistogram::BucketLowerBound(i)) +
                   static_cast<double>(LatencyHistogram::BucketWidth(i) - 1) /
                       2.0;
      if (mid < static_cast<double>(min)) mid = static_cast<double>(min);
      if (mid > static_cast<double>(max)) mid = static_cast<double>(max);
      return mid;
    }
  }
  return static_cast<double>(max);
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; the registry's
/// dotted names map '.' (and anything else) to '_'.
std::string PrometheusName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

void AppendF(std::string* out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list again;
  va_copy(again, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (n > 0) {
    const size_t old_size = out->size();
    out->resize(old_size + static_cast<size_t>(n));
    // Writes n chars plus a terminator onto the string's own one.
    std::vsnprintf(out->data() + old_size, static_cast<size_t>(n) + 1, fmt,
                   again);
  }
  va_end(again);
}

HistogramSnapshot LatencyHistogram::Snapshot() const {
  // Read the buckets once into a local array, then derive everything
  // from that copy: count always equals the sum of the bucket counts
  // the quantiles walked, even under concurrent recording.
  uint64_t local[kNumBuckets];
  uint64_t count = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    local[i] = buckets_[i].load(std::memory_order_relaxed);
    count += local[i];
  }
  HistogramSnapshot snap;
  snap.count = count;
  snap.sum = sum_.load(std::memory_order_relaxed);
  uint64_t min = min_.load(std::memory_order_relaxed);
  snap.min = count == 0 || min == UINT64_MAX ? 0 : min;
  snap.max = max_.load(std::memory_order_relaxed);
  snap.p50 = BucketQuantile(local, count, snap.min, snap.max, 0.50);
  snap.p90 = BucketQuantile(local, count, snap.min, snap.max, 0.90);
  snap.p99 = BucketQuantile(local, count, snap.min, snap.max, 0.99);
  snap.p999 = BucketQuantile(local, count, snap.min, snap.max, 0.999);
  return snap;
}

void LatencyHistogram::Reset() {
  for (size_t i = 0; i < kNumBuckets; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
  return slot.get();
}

RegistrySnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(&mu_);
  RegistrySnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace_back(name, h->Snapshot());
  }
  return snap;
}

void MetricsRegistry::ResetAll() {
  MutexLock lock(&mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // lint:allow(raw-new) immortal
  return *registry;
}

std::string RegistrySnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    AppendF(&out, "%s\n    \"%s\": %" PRIu64, i ? "," : "",
            counters[i].first.c_str(), counters[i].second);
  }
  out += counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  for (size_t i = 0; i < gauges.size(); ++i) {
    AppendF(&out, "%s\n    \"%s\": %" PRId64, i ? "," : "",
            gauges[i].first.c_str(), gauges[i].second);
  }
  out += gauges.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i].second;
    AppendF(&out,
            "%s\n    \"%s\": {\"count\": %" PRIu64 ", \"sum\": %" PRIu64
            ", \"min\": %" PRIu64 ", \"max\": %" PRIu64
            ", \"mean\": %.1f, \"p50\": %.1f, \"p90\": %.1f, \"p99\": %.1f, "
            "\"p999\": %.1f}",
            i ? "," : "", histograms[i].first.c_str(), h.count, h.sum, h.min,
            h.max, h.mean(), h.p50, h.p90, h.p99, h.p999);
  }
  out += histograms.empty() ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string RegistrySnapshot::ToPrometheusText() const {
  std::string out;
  for (const auto& [name, v] : counters) {
    std::string pn = PrometheusName(name);
    AppendF(&out, "# TYPE %s counter\n%s %" PRIu64 "\n", pn.c_str(),
            pn.c_str(), v);
  }
  for (const auto& [name, v] : gauges) {
    std::string pn = PrometheusName(name);
    AppendF(&out, "# TYPE %s gauge\n%s %" PRId64 "\n", pn.c_str(), pn.c_str(),
            v);
  }
  for (const auto& [name, h] : histograms) {
    std::string pn = PrometheusName(name);
    AppendF(&out, "# TYPE %s summary\n", pn.c_str());
    AppendF(&out, "%s{quantile=\"0.5\"} %.1f\n", pn.c_str(), h.p50);
    AppendF(&out, "%s{quantile=\"0.9\"} %.1f\n", pn.c_str(), h.p90);
    AppendF(&out, "%s{quantile=\"0.99\"} %.1f\n", pn.c_str(), h.p99);
    AppendF(&out, "%s{quantile=\"0.999\"} %.1f\n", pn.c_str(), h.p999);
    AppendF(&out, "%s_sum %" PRIu64 "\n", pn.c_str(), h.sum);
    AppendF(&out, "%s_count %" PRIu64 "\n", pn.c_str(), h.count);
  }
  return out;
}

}  // namespace obs
}  // namespace bullion
