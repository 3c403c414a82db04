#include "obs/pipeline_report.h"

#include <cinttypes>

namespace bullion {
namespace obs {

void PipelineReport::Reset() {
  rows.store(0, std::memory_order_relaxed);
  bytes.store(0, std::memory_order_relaxed);
  units.store(0, std::memory_order_relaxed);
  batches.store(0, std::memory_order_relaxed);
  groups_pruned.store(0, std::memory_order_relaxed);
  cache_hits.store(0, std::memory_order_relaxed);
  cache_misses.store(0, std::memory_order_relaxed);
  plan_ns.store(0, std::memory_order_relaxed);
  prepare_ns.store(0, std::memory_order_relaxed);
  work_ns.store(0, std::memory_order_relaxed);
  emit_ns.store(0, std::memory_order_relaxed);
  stall_ns.store(0, std::memory_order_relaxed);
  wall_ns.store(0, std::memory_order_relaxed);
  work_hist.Reset();
}

std::string PipelineReport::ToString() const {
  HistogramSnapshot h = work_hist.Snapshot();
  double wall_ms =
      static_cast<double>(wall_ns.load(std::memory_order_relaxed)) / 1e6;
  std::string out;
  AppendF(&out,
          "pipeline: %" PRIu64 " rows, %" PRIu64 " units, %" PRIu64
          " batches in %.3f ms (%.0f rows/s, %.1f MB/s)\n",
          rows.load(std::memory_order_relaxed),
          units.load(std::memory_order_relaxed),
          batches.load(std::memory_order_relaxed), wall_ms, rows_per_sec(),
          bytes_per_sec() / 1048576.0);
  AppendF(&out, "  pruned: %" PRIu64 " row groups\n",
          groups_pruned.load(std::memory_order_relaxed));
  AppendF(&out, "  cache: %" PRIu64 " hits, %" PRIu64 " misses\n",
          cache_hits.load(std::memory_order_relaxed),
          cache_misses.load(std::memory_order_relaxed));
  AppendF(
      &out,
      "  stages (ms): plan %.3f (before wall) | prepare %.3f | work %.3f "
      "(summed over workers) | emit %.3f | stall %.3f\n",
      static_cast<double>(plan_ns.load(std::memory_order_relaxed)) / 1e6,
      static_cast<double>(prepare_ns.load(std::memory_order_relaxed)) / 1e6,
      static_cast<double>(work_ns.load(std::memory_order_relaxed)) / 1e6,
      static_cast<double>(emit_ns.load(std::memory_order_relaxed)) / 1e6,
      static_cast<double>(stall_ns.load(std::memory_order_relaxed)) / 1e6);
  AppendF(&out,
          "  work unit (us): p50 %.1f  p90 %.1f  p99 %.1f  max %.1f  "
          "(%" PRIu64 " units)\n",
          h.p50 / 1e3, h.p90 / 1e3, h.p99 / 1e3,
          static_cast<double>(h.max) / 1e3, h.count);
  return out;
}

std::string PipelineReport::ToJson() const {
  HistogramSnapshot h = work_hist.Snapshot();
  std::string out;
  AppendF(
      &out,
      "{\"rows\": %" PRIu64 ", \"bytes\": %" PRIu64 ", \"units\": %" PRIu64
      ", \"batches\": %" PRIu64 ", \"groups_pruned\": %" PRIu64
      ", \"cache_hits\": %" PRIu64 ", \"cache_misses\": %" PRIu64
      ", \"wall_ns\": %" PRIu64
      ", \"rows_per_sec\": %.0f, \"bytes_per_sec\": %.0f"
      ", \"plan_ns\": %" PRIu64 ", \"prepare_ns\": %" PRIu64
      ", \"work_ns\": %" PRIu64
      ", \"emit_ns\": %" PRIu64 ", \"stall_ns\": %" PRIu64
      ", \"work_hist\": {\"count\": %" PRIu64 ", \"sum\": %" PRIu64
      ", \"min\": %" PRIu64 ", \"max\": %" PRIu64
      ", \"p50\": %.1f, \"p90\": %.1f, \"p99\": %.1f, \"p999\": %.1f}}",
      rows.load(std::memory_order_relaxed),
      bytes.load(std::memory_order_relaxed),
      units.load(std::memory_order_relaxed),
      batches.load(std::memory_order_relaxed),
      groups_pruned.load(std::memory_order_relaxed),
      cache_hits.load(std::memory_order_relaxed),
      cache_misses.load(std::memory_order_relaxed),
      wall_ns.load(std::memory_order_relaxed), rows_per_sec(), bytes_per_sec(),
      plan_ns.load(std::memory_order_relaxed),
      prepare_ns.load(std::memory_order_relaxed),
      work_ns.load(std::memory_order_relaxed),
      emit_ns.load(std::memory_order_relaxed),
      stall_ns.load(std::memory_order_relaxed), h.count, h.sum, h.min, h.max,
      h.p50, h.p90, h.p99, h.p999);
  return out;
}

}  // namespace obs
}  // namespace bullion
