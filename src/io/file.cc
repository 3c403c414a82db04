#include "io/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/metrics.h"

namespace bullion {

namespace {

/// Every file implementation reports op latency into one shared set of
/// registry histograms (p50/p99 per pread, write and flush). Pointers
/// are fetched once; recording is lock-free.
struct IoLatencyMetrics {
  obs::LatencyHistogram* pread_ns;
  obs::LatencyHistogram* write_ns;
  obs::LatencyHistogram* flush_ns;
};

IoLatencyMetrics& IoMetrics() {
  static IoLatencyMetrics m{
      obs::MetricsRegistry::Global().GetHistogram("bullion.io.pread_ns"),
      obs::MetricsRegistry::Global().GetHistogram("bullion.io.write_ns"),
      obs::MetricsRegistry::Global().GetHistogram("bullion.io.flush_ns")};
  return m;
}

/// RAII: records the enclosing scope's duration into `hist`.
class ScopedLatency {
 public:
  explicit ScopedLatency(obs::LatencyHistogram* hist)
      : hist_(hist), start_ns_(obs::NowNs()) {}
  ~ScopedLatency() { hist_->Record(obs::NowNs() - start_ns_); }

 private:
  obs::LatencyHistogram* hist_;
  uint64_t start_ns_;
};

void AccountRead(IoStats* stats, uint64_t offset, size_t len,
                 std::atomic<uint64_t>* last_end) {
  if (stats == nullptr) return;
  stats->read_ops += 1;
  stats->bytes_read += len;
  if (last_end->exchange(offset + len) != offset) stats->seeks += 1;
}

/// A direct write: one logical request that is also one physical
/// syscall (write_ops and write_calls both bump). Aggregated block
/// writes account separately (AccountBlockWrite): the logical ops were
/// already counted when the aggregation buffer absorbed the appends.
void AccountWrite(IoStats* stats, uint64_t offset, size_t len,
                  std::atomic<uint64_t>* last_end) {
  if (stats == nullptr) return;
  stats->write_ops += 1;
  stats->write_calls += 1;
  stats->bytes_written += len;
  if (last_end->exchange(offset + len) != offset) stats->seeks += 1;
}

void AccountBlockWrite(IoStats* stats, uint64_t offset, size_t len,
                       std::atomic<uint64_t>* last_end) {
  if (stats == nullptr) return;
  stats->write_calls += 1;
  stats->bytes_written += len;
  if (last_end->exchange(offset + len) != offset) stats->seeks += 1;
}

}  // namespace

Status InMemoryReadableFile::Read(uint64_t offset, size_t len,
                                  Buffer* out) const {
  ScopedLatency latency(IoMetrics().pread_ns);
  if (offset > file_->data.size()) {
    return Status::OutOfRange("read past end of file");
  }
  size_t avail = file_->data.size() - offset;
  size_t n = std::min(len, avail);
  if (n < len) {
    return Status::OutOfRange("short read: requested " + std::to_string(len) +
                              " at offset " + std::to_string(offset) +
                              ", only " + std::to_string(n) + " available");
  }
  out->Resize(n);
  std::memcpy(out->mutable_data(), file_->data.data() + offset, n);
  AccountRead(stats_, offset, n, &last_end_);
  return Status::OK();
}

Result<uint64_t> InMemoryReadableFile::Size() const {
  return static_cast<uint64_t>(file_->data.size());
}

Status InMemoryWritableFile::AppendImpl(Slice data, bool logical) {
  ScopedLatency latency(IoMetrics().write_ns);
  uint64_t offset = file_->data.size();
  file_->data.insert(file_->data.end(), data.data(), data.data() + data.size());
  if (logical) {
    AccountWrite(stats_, offset, data.size(), &last_end_);
  } else {
    AccountBlockWrite(stats_, offset, data.size(), &last_end_);
  }
  return Status::OK();
}

Status InMemoryWritableFile::Append(Slice data) {
  return AppendImpl(data, /*logical=*/true);
}

Status InMemoryWritableFile::AppendBlock(Slice data) {
  return AppendImpl(data, /*logical=*/false);
}

Status InMemoryWritableFile::WriteAt(uint64_t offset, Slice data) {
  ScopedLatency latency(IoMetrics().write_ns);
  if (offset + data.size() > file_->data.size()) {
    return Status::InvalidArgument(
        "WriteAt would extend file: in-place updates must stay within the "
        "original size");
  }
  std::memcpy(file_->data.data() + offset, data.data(), data.size());
  AccountWrite(stats_, offset, data.size(), &last_end_);
  return Status::OK();
}

Status InMemoryWritableFile::Flush() {
  ScopedLatency latency(IoMetrics().flush_ns);
  if (stats_ != nullptr) stats_->flush_calls += 1;
  return Status::OK();
}

Result<uint64_t> InMemoryWritableFile::Size() const {
  return static_cast<uint64_t>(file_->data.size());
}

Result<std::unique_ptr<WritableFile>> InMemoryFileSystem::NewWritableFile(
    const std::string& name) {
  MutexLock lock(&mu_);
  auto file = std::make_shared<InMemoryFile>();
  files_[name] = file;
  return std::unique_ptr<WritableFile>(
      new InMemoryWritableFile(std::move(file), &stats_));
}

Result<std::unique_ptr<RandomAccessFile>> InMemoryFileSystem::NewReadableFile(
    const std::string& name) const {
  MutexLock lock(&mu_);
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("no such file: " + name);
  return std::unique_ptr<RandomAccessFile>(new InMemoryReadableFile(
      it->second, const_cast<IoStats*>(&stats_)));
}

Result<std::unique_ptr<WritableFile>> InMemoryFileSystem::OpenForUpdate(
    const std::string& name) {
  MutexLock lock(&mu_);
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("no such file: " + name);
  return std::unique_ptr<WritableFile>(
      new InMemoryWritableFile(it->second, &stats_));
}

bool InMemoryFileSystem::Exists(const std::string& name) const {
  MutexLock lock(&mu_);
  return files_.count(name) > 0;
}

Result<uint64_t> InMemoryFileSystem::FileSize(const std::string& name) const {
  MutexLock lock(&mu_);
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("no such file: " + name);
  return static_cast<uint64_t>(it->second->data.size());
}

Status InMemoryFileSystem::Delete(const std::string& name) {
  MutexLock lock(&mu_);
  if (files_.erase(name) == 0) return Status::NotFound("no such file: " + name);
  return Status::OK();
}

namespace {

/// Positional reads over a POSIX fd.
class PosixReadableFile : public RandomAccessFile {
 public:
  explicit PosixReadableFile(int fd) : fd_(fd) {}
  ~PosixReadableFile() override { ::close(fd_); }

  Status Read(uint64_t offset, size_t len, Buffer* out) const override {
    ScopedLatency latency(IoMetrics().pread_ns);
    out->Resize(len);
    size_t done = 0;
    while (done < len) {
      ssize_t n = ::pread(fd_, out->mutable_data() + done, len - done,
                          static_cast<off_t>(offset + done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(std::string("pread: ") + std::strerror(errno));
      }
      if (n == 0) return Status::OutOfRange("short read at EOF");
      done += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Result<uint64_t> Size() const override {
    struct stat st;
    if (::fstat(fd_, &st) != 0) {
      return Status::IOError(std::string("fstat: ") + std::strerror(errno));
    }
    return static_cast<uint64_t>(st.st_size);
  }

 private:
  int fd_;
};

class PosixWritableFile : public WritableFile {
 public:
  explicit PosixWritableFile(int fd) : fd_(fd) {}
  ~PosixWritableFile() override { ::close(fd_); }

  Status Append(Slice data) override {
    ScopedLatency latency(IoMetrics().write_ns);
    size_t done = 0;
    while (done < data.size()) {
      ssize_t n = ::write(fd_, data.data() + done, data.size() - done);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(std::string("write: ") + std::strerror(errno));
      }
      done += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status WriteAt(uint64_t offset, Slice data) override {
    ScopedLatency latency(IoMetrics().write_ns);
    BULLION_ASSIGN_OR_RETURN(uint64_t size, Size());
    if (offset + data.size() > size) {
      return Status::InvalidArgument("WriteAt would extend file");
    }
    size_t done = 0;
    while (done < data.size()) {
      ssize_t n = ::pwrite(fd_, data.data() + done, data.size() - done,
                           static_cast<off_t>(offset + done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(std::string("pwrite: ") + std::strerror(errno));
      }
      done += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Flush() override {
    ScopedLatency latency(IoMetrics().flush_ns);
    if (::fsync(fd_) != 0) {
      return Status::IOError(std::string("fsync: ") + std::strerror(errno));
    }
    return Status::OK();
  }

  Result<uint64_t> Size() const override {
    struct stat st;
    if (::fstat(fd_, &st) != 0) {
      return Status::IOError(std::string("fstat: ") + std::strerror(errno));
    }
    return static_cast<uint64_t>(st.st_size);
  }

 private:
  int fd_;
};

}  // namespace

Result<std::unique_ptr<RandomAccessFile>> OpenPosixReadableFile(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  return std::unique_ptr<RandomAccessFile>(new PosixReadableFile(fd));
}

Result<std::unique_ptr<WritableFile>> OpenPosixWritableFile(
    const std::string& path, bool truncate) {
  int flags = O_RDWR | O_CREAT | (truncate ? O_TRUNC : 0);
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  if (!truncate) {
    if (::lseek(fd, 0, SEEK_END) < 0) {
      ::close(fd);
      return Status::IOError("lseek " + path + ": " + std::strerror(errno));
    }
  }
  return std::unique_ptr<WritableFile>(new PosixWritableFile(fd));
}

}  // namespace bullion
