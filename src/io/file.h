// File abstractions. RandomAccessFile/WritableFile mirror the RocksDB
// Env surface: positional reads (pread-style) and append/overwrite
// writes. Two implementations are provided:
//   * InMemoryFile / InMemoryFileSystem — deterministic, used by tests
//     and benches (with IoStats accounting).
//   * PosixReadableFile / PosixWritableFile — real files for the
//     examples and perfbench.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "io/io_stats.h"

namespace bullion {

/// \brief Positional-read file handle (pread semantics).
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  /// Reads `len` bytes at `offset` into `scratch`; returns the bytes
  /// actually read as a Buffer. Short reads are errors except at EOF.
  ///
  /// Contract: Read must be safe to call from multiple threads
  /// concurrently on one handle — the parallel scanner (src/exec)
  /// shares a single RandomAccessFile across its workers.
  /// Implementations must not rely on per-handle mutable state (file
  /// position, shared scratch buffers) without synchronization.
  virtual Status Read(uint64_t offset, size_t len, Buffer* out) const = 0;

  /// Total file size.
  virtual Result<uint64_t> Size() const = 0;

  /// Stays for perfbench, which overrides it; the library never calls it.
  virtual int RawFd() const { return -1; }
};

/// \brief Writable file handle supporting append and positional
/// overwrite (needed by in-place deletion: rewrite one page).
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  /// Appends bytes at the end of the file. Counts as one LOGICAL write
  /// (IoStats::write_ops) and one physical call (write_calls).
  virtual Status Append(Slice data) = 0;

  /// Appends one block assembled by AggregatedWriteBuffer (io/aio.h).
  /// Identical bytes-on-disk to Append, but accounted as a PHYSICAL
  /// write only (write_calls, not write_ops): the logical appends
  /// inside the block were already counted when the buffer absorbed
  /// them. The default forwards to Append for implementations without
  /// split accounting.
  virtual Status AppendBlock(Slice data) { return Append(data); }

  /// Overwrites `data.size()` bytes at `offset`. Must not extend the
  /// file (in-place update discipline).
  virtual Status WriteAt(uint64_t offset, Slice data) = 0;

  virtual Status Flush() = 0;
  virtual Result<uint64_t> Size() const = 0;

  /// IoStats this file reports into (null when unaccounted), so
  /// wrapping layers can record logical ops against the same counters.
  virtual IoStats* stats() const { return nullptr; }

  /// Stays for perfbench (see RandomAccessFile::RawFd).
  virtual int RawFd() const { return -1; }
};

/// \brief An in-memory file; cheap, deterministic, instrumented.
///
/// Reads and writes update the owning file system's IoStats (if any).
class InMemoryFile {
 public:
  std::vector<uint8_t> data;
};

class InMemoryFileSystem;

/// Readable view over an InMemoryFile with stats accounting. Read() is
/// thread-safe (the parallel scanner shares one handle across
/// workers); seek accounting uses an atomic last-end marker, so under
/// concurrent reads the seek count reflects the interleaved order the
/// operations actually hit the "device" in.
class InMemoryReadableFile : public RandomAccessFile {
 public:
  InMemoryReadableFile(std::shared_ptr<InMemoryFile> file, IoStats* stats)
      : file_(std::move(file)), stats_(stats), last_end_(UINT64_MAX) {}

  Status Read(uint64_t offset, size_t len, Buffer* out) const override;
  Result<uint64_t> Size() const override;

 private:
  std::shared_ptr<InMemoryFile> file_;
  IoStats* stats_;
  mutable std::atomic<uint64_t> last_end_;
};

/// Writable handle over an InMemoryFile with stats accounting.
class InMemoryWritableFile : public WritableFile {
 public:
  InMemoryWritableFile(std::shared_ptr<InMemoryFile> file, IoStats* stats)
      : file_(std::move(file)), stats_(stats), last_end_(UINT64_MAX) {}

  Status Append(Slice data) override;
  Status AppendBlock(Slice data) override;
  Status WriteAt(uint64_t offset, Slice data) override;
  Status Flush() override;
  Result<uint64_t> Size() const override;
  IoStats* stats() const override { return stats_; }

 private:
  Status AppendImpl(Slice data, bool logical);

  std::shared_ptr<InMemoryFile> file_;
  IoStats* stats_;
  std::atomic<uint64_t> last_end_;
};

/// \brief A name → InMemoryFile map with shared IoStats.
class InMemoryFileSystem {
 public:
  /// Creates (or truncates) a file and returns a writable handle.
  Result<std::unique_ptr<WritableFile>> NewWritableFile(const std::string& name);

  /// Opens an existing file for positional reads.
  Result<std::unique_ptr<RandomAccessFile>> NewReadableFile(
      const std::string& name) const;

  /// Opens an existing file for in-place updates (no truncation).
  Result<std::unique_ptr<WritableFile>> OpenForUpdate(const std::string& name);

  bool Exists(const std::string& name) const;
  Result<uint64_t> FileSize(const std::string& name) const;
  Status Delete(const std::string& name);

  IoStats& stats() { return stats_; }
  const IoStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

 private:
  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<InMemoryFile>> files_ GUARDED_BY(mu_);
  IoStats stats_;  // internally atomic; recorded lock-free
};

/// POSIX-backed implementations for the examples and perfbench.
Result<std::unique_ptr<RandomAccessFile>> OpenPosixReadableFile(
    const std::string& path);
/// Opens (creating if needed) `path` for appends at its end and
/// in-place updates; `truncate` empties it first.
Result<std::unique_ptr<WritableFile>> OpenPosixWritableFile(
    const std::string& path, bool truncate);

}  // namespace bullion
