// SimulatedDevice: converts IoStats into modeled wall-clock time for a
// parameterized storage device (seek latency + sequential bandwidth).
// The paper's I/O arguments (deletion rewrite cost, scattered reads on
// multimodal training) are about bytes moved and seeks incurred; this
// model lets benches report a device-relative "modeled time" that is
// stable across build machines.

#pragma once

#include <cstdint>

#include "io/io_stats.h"

namespace bullion {

/// \brief Cost model for a storage device.
struct DeviceModel {
  /// Fixed cost per non-contiguous operation (microseconds).
  double seek_us = 100.0;
  /// Sequential throughput (bytes per microsecond == MB/s / ~1).
  double bandwidth_bytes_per_us = 500.0;  // ~500 MB/s (SATA SSD class)
  /// Fixed per-operation software overhead (microseconds).
  double per_op_us = 5.0;

  /// A cloud-object-store-like profile: expensive seeks, high bandwidth.
  static DeviceModel ObjectStore() {
    return DeviceModel{8000.0, 2000.0, 50.0};
  }
  /// NVMe-like profile: cheap seeks, very high bandwidth.
  static DeviceModel Nvme() { return DeviceModel{10.0, 3000.0, 2.0}; }
  /// HDD-like profile: very expensive seeks, moderate bandwidth.
  static DeviceModel Hdd() { return DeviceModel{8000.0, 150.0, 5.0}; }
};

/// Modeled time in microseconds to execute the I/O recorded in `stats`
/// (a Snapshot() or an IoStatsDelta phase) on a device described by
/// `model`.
///
/// Per-operation cost is charged per SYSCALL, not per logical request:
/// the write side uses write_calls (physical writes the device saw),
/// falling back to write_ops for stats recorded before the counter
/// split so hand-built IoStats in older tests/benches keep modeling.
/// Charging per logical append would bill an aggregated commit (many
/// page appends, one block write) as if every page were its own
/// syscall — erasing exactly the batching win the model exists to
/// show.
inline double ModeledTimeUs(const IoStatsSnapshot& stats,
                            const DeviceModel& model) {
  double total_bytes =
      static_cast<double>(stats.bytes_read + stats.bytes_written);
  uint64_t write_calls =
      stats.write_calls != 0 ? stats.write_calls : stats.write_ops;
  double total_ops = static_cast<double>(stats.read_ops + write_calls);
  return static_cast<double>(stats.seeks) * model.seek_us +
         total_bytes / model.bandwidth_bytes_per_us +
         total_ops * model.per_op_us;
}

}  // namespace bullion
