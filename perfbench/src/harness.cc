#include "harness.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ------------------------------------------------------------------ spans

std::atomic<bool> Tracer::enabled_{false};

namespace {

/// One recording thread's spans. Only the owner appends; the mutex lets
/// Collect() read from another thread, so it is uncontended in steady
/// state.
struct ThreadBuffer {
  bullion::Mutex mu;
  // A deque never copies recorded spans as it grows.
  std::deque<SpanRecord> spans GUARDED_BY(mu);
  uint32_t tid = 0;  // set once at registration
};

struct TraceState {
  bullion::Mutex mu;
  // Buffers outlive their threads so pool workers' spans survive.
  std::vector<std::shared_ptr<ThreadBuffer>> buffers GUARDED_BY(mu);
  uint32_t next_tid GUARDED_BY(mu) = 1;
};

TraceState& State() {
  // Immortal: AIO lane threads may still finish a span during exit.
  static TraceState* state = new TraceState();  // lint:allow(raw-new)
  return *state;
}

std::atomic<uint64_t> g_next_span_id{1};
thread_local uint64_t t_parent = 0;
thread_local uint64_t t_request = 0;

ThreadBuffer* LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer;
  if (buffer == nullptr) {
    buffer = std::make_shared<ThreadBuffer>();
    TraceState& s = State();
    bullion::MutexLock lock(&s.mu);
    buffer->tid = s.next_tid++;
    s.buffers.push_back(buffer);
  }
  return buffer.get();
}

}  // namespace

void Tracer::Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

void Tracer::SetRequest(uint64_t request) { t_request = request; }

std::vector<SpanRecord> Tracer::Collect() {
  std::vector<SpanRecord> all;
  TraceState& s = State();
  bullion::MutexLock lock(&s.mu);
  for (const auto& b : s.buffers) {
    bullion::MutexLock block(&b->mu);
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return all;
}

void Tracer::Clear() {
  TraceState& s = State();
  bullion::MutexLock lock(&s.mu);
  for (const auto& b : s.buffers) {
    bullion::MutexLock block(&b->mu);
    b->spans.clear();
  }
}

ScopedSpan::ScopedSpan(const char* name, int64_t arg)
    : on_(Tracer::Enabled()) {
  if (!on_) return;
  rec_.name = name;
  rec_.arg = arg;
  rec_.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = t_parent;
  rec_.request = t_request;
  saved_parent_ = t_parent;
  t_parent = rec_.id;
  rec_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  rec_.end_ns = NowNs();
  t_parent = saved_parent_;
  ThreadBuffer* b = LocalBuffer();
  rec_.tid = b->tid;
  bullion::MutexLock lock(&b->mu);
  b->spans.push_back(rec_);
}

std::map<std::string, SpanStats> SummarizeSpans(
    const std::vector<SpanRecord>& spans) {
  // Children nest on their parent's thread (the parent is the calling
  // thread's innermost open span), so their intervals never overlap
  // and the covered part of a parent is the sum of child durations.
  std::unordered_map<uint64_t, uint64_t> child_ns;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SpanStats> out;
  for (const SpanRecord& s : spans) {
    SpanStats& st = out[s.name];
    const uint64_t dur = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    const uint64_t covered = it == child_ns.end() ? 0 : std::min(it->second, dur);
    st.count += 1;
    st.total_us += dur / 1e3;
    st.self_us += (dur - covered) / 1e3;
    st.durations_us.push_back(dur / 1e3);
    if (s.arg == 0 || s.arg == 1) st.durations_us_by_arg[s.arg].push_back(dur / 1e3);
  }
  return out;
}

bool WriteChromeTrace(const std::vector<SpanRecord>& spans, size_t max_spans,
                      const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const uint64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fputs("[", f);
  for (size_t i = 0; i < spans.size() && i < max_spans; ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%" PRIu32
                 ",\"args\":{\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"request\":%" PRIu64 ",\"arg\":%" PRId64 "}}",
                 i == 0 ? "" : ",", s.name, (s.start_ns - t0) / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, s.tid, s.id, s.parent,
                 s.request, s.arg);
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0;
}

// --------------------------------------------------------------- the seam

namespace {

void Count(std::atomic<uint64_t>* c, uint64_t n = 1) {
  c->fetch_add(n, std::memory_order_relaxed);
}

Status Counted(SeamCounters* c, Status st) {
  if (!st.ok()) Count(&c->failed);
  return st;
}

class SeamReadableFile : public RandomAccessFile {
 public:
  SeamReadableFile(std::unique_ptr<RandomAccessFile> base, SeamCounters* c)
      : base_(std::move(base)), c_(c) {}

  Status Read(uint64_t offset, size_t len, bullion::Buffer* out) const override {
    ScopedSpan span("io.read");
    Count(&c_->reads);
    Count(&c_->read_bytes, len);
    return Counted(c_, base_->Read(offset, len, out));
  }
  Result<uint64_t> Size() const override { return base_->Size(); }
  int RawFd() const override { return base_->RawFd(); }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  SeamCounters* c_;
};

class SeamWritableFile : public WritableFile {
 public:
  SeamWritableFile(std::unique_ptr<WritableFile> base, SeamCounters* c)
      : base_(std::move(base)), c_(c) {}

  Status Append(bullion::Slice data) override {
    ScopedSpan span("io.append");
    Count(&c_->appends);
    Count(&c_->bytes_written, data.size());
    return Counted(c_, base_->Append(data));
  }
  Status AppendBlock(bullion::Slice data) override {
    ScopedSpan span("io.append_block");
    Count(&c_->append_blocks);
    Count(&c_->bytes_written, data.size());
    return Counted(c_, base_->AppendBlock(data));
  }
  Status WriteAt(uint64_t offset, bullion::Slice data) override {
    ScopedSpan span("io.write_at");
    Count(&c_->write_ats);
    Count(&c_->bytes_written, data.size());
    return Counted(c_, base_->WriteAt(offset, data));
  }
  Status Flush() override {
    ScopedSpan span("io.flush");
    Count(&c_->flushes);
    return Counted(c_, base_->Flush());
  }
  Result<uint64_t> Size() const override { return base_->Size(); }
  bullion::IoStats* stats() const override { return base_->stats(); }
  int RawFd() const override { return base_->RawFd(); }

 private:
  std::unique_ptr<WritableFile> base_;
  SeamCounters* c_;
};

}  // namespace

SeamSnapshot SeamSnapshot::operator-(const SeamSnapshot& o) const {
  SeamSnapshot d;
  d.reads = reads - o.reads;
  d.read_bytes = read_bytes - o.read_bytes;
  d.appends = appends - o.appends;
  d.append_blocks = append_blocks - o.append_blocks;
  d.write_ats = write_ats - o.write_ats;
  d.bytes_written = bytes_written - o.bytes_written;
  d.flushes = flushes - o.flushes;
  d.failed = failed - o.failed;
  return d;
}

namespace {

/// Wraps a freshly opened POSIX handle in its counting seam type.
template <typename Counting, typename File>
Result<std::unique_ptr<File>> Wrap(Result<std::unique_ptr<File>> base, SeamCounters* c) {
  if (!base.ok()) {
    Count(&c->failed);
    return base.status();
  }
  return std::unique_ptr<File>(std::make_unique<Counting>(std::move(*base), c));
}

}  // namespace

Result<std::unique_ptr<RandomAccessFile>> Seam::OpenRead(const std::string& name) {
  ScopedSpan span("io.open");
  return Wrap<SeamReadableFile>(bullion::OpenPosixReadableFile(Path(name)), &counters_);
}

Result<std::unique_ptr<WritableFile>> Seam::OpenWrite(const std::string& name) {
  ScopedSpan span("io.open");
  return Wrap<SeamWritableFile>(bullion::OpenPosixWritableFile(Path(name), /*truncate=*/true),
                                &counters_);
}

Result<std::unique_ptr<WritableFile>> Seam::OpenUpdate(const std::string& name) {
  ScopedSpan span("io.open");
  return Wrap<SeamWritableFile>(bullion::OpenPosixWritableFile(Path(name), /*truncate=*/false),
                                &counters_);
}

Status Seam::Remove(const std::string& name) {
  ScopedSpan span("io.remove");
  if (::unlink(Path(name).c_str()) != 0) {
    Count(&counters_.failed);
    return Status::IOError("unlink " + name + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status Seam::WriteWholeFile(const std::string& name, bullion::Slice data) {
  BULLION_ASSIGN_OR_RETURN(auto f, OpenWrite(name));
  BULLION_RETURN_NOT_OK(f->Append(data));
  return f->Flush();
}

Result<bullion::Buffer> Seam::ReadWholeFile(const std::string& name) {
  BULLION_ASSIGN_OR_RETURN(auto f, OpenRead(name));
  BULLION_ASSIGN_OR_RETURN(uint64_t size, f->Size());
  bullion::Buffer buf;
  BULLION_RETURN_NOT_OK(f->Read(0, size, &buf));
  return buf;
}

SeamSnapshot Seam::Snapshot() const {
  auto ld = [](const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  SeamSnapshot s;
  s.reads = ld(counters_.reads);
  s.read_bytes = ld(counters_.read_bytes);
  s.appends = ld(counters_.appends);
  s.append_blocks = ld(counters_.append_blocks);
  s.write_ats = ld(counters_.write_ats);
  s.bytes_written = ld(counters_.bytes_written);
  s.flushes = ld(counters_.flushes);
  s.failed = ld(counters_.failed);
  return s;
}

// ------------------------------------------------------- registry deltas

RegistrySnapshot RegistrySnapshot::Take() {
  auto& reg = bullion::obs::MetricsRegistry::Global();
  static auto* queue_wait = reg.GetHistogram("bullion.exec.queue_wait_ns");
  static auto* decode = reg.GetHistogram("bullion.format.decode_chunk_ns");
  static auto* encode = reg.GetHistogram("bullion.format.encode_page_ns");
  static auto* insert = reg.GetHistogram("bullion.cache.insert_ns");
  static auto* inflight = reg.GetHistogram("bullion.aio.inflight_ns");
  static auto* probes = reg.GetCounter("bullion.bloom.probes");
  static auto* negatives = reg.GetCounter("bullion.bloom.negatives");
  RegistrySnapshot r;
  auto take = [](bullion::obs::LatencyHistogram* h, uint64_t* count,
                 uint64_t* sum) {
    bullion::obs::HistogramSnapshot s = h->Snapshot();
    *count = s.count;
    *sum = s.sum;
  };
  take(queue_wait, &r.queue_wait_count, &r.queue_wait_sum);
  take(decode, &r.decode_count, &r.decode_sum);
  take(encode, &r.encode_count, &r.encode_sum);
  take(insert, &r.cache_insert_count, &r.cache_insert_sum);
  take(inflight, &r.aio_inflight_count, &r.aio_inflight_sum);
  r.bloom_probes = probes->value();
  r.bloom_negatives = negatives->value();
  return r;
}

RegistrySnapshot RegistrySnapshot::operator-(const RegistrySnapshot& o) const {
  RegistrySnapshot d;
  d.queue_wait_count = queue_wait_count - o.queue_wait_count;
  d.queue_wait_sum = queue_wait_sum - o.queue_wait_sum;
  d.decode_count = decode_count - o.decode_count;
  d.decode_sum = decode_sum - o.decode_sum;
  d.encode_count = encode_count - o.encode_count;
  d.encode_sum = encode_sum - o.encode_sum;
  d.cache_insert_count = cache_insert_count - o.cache_insert_count;
  d.cache_insert_sum = cache_insert_sum - o.cache_insert_sum;
  d.aio_inflight_count = aio_inflight_count - o.aio_inflight_count;
  d.aio_inflight_sum = aio_inflight_sum - o.aio_inflight_sum;
  d.bloom_probes = bloom_probes - o.bloom_probes;
  d.bloom_negatives = bloom_negatives - o.bloom_negatives;
  return d;
}

// -------------------------------------------------------- process probes

ProcessSnapshot ProcessSnapshot::Take() {
  ProcessSnapshot p;
  rusage ru{};
  if (::getrusage(RUSAGE_SELF, &ru) == 0) {
    p.user_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6;
    p.sys_s = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6;
    p.minor_faults = static_cast<uint64_t>(ru.ru_minflt);
    p.vol_ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw);
  }
  p.cpu = CpuStat::Read();
  return p;
}

CpuStat CpuStat::Read() {
  CpuStat c;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return c;
  // cpu  user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                  &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) c.total += x;
    c.steal = v[7];
  }
  std::fclose(f);
  return c;
}

double StealFrac(const CpuStat& a, const CpuStat& b) {
  const uint64_t total = b.total - a.total;
  return total == 0 ? 0.0 : static_cast<double>(b.steal - a.steal) / total;
}

bool ResetPeakRss() {
  int fd = ::open("/proc/self/clear_refs", O_WRONLY);
  if (fd < 0) return false;
  const bool ok = ::write(fd, "5", 1) == 1;
  ::close(fd);
  return ok;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return -1;
}

// ----------------------------------------------------------- measurement

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

namespace {

// Physical widths as the store's user sees them. Kept here rather than
// taken from the library so the user-byte denominator never moves with
// a library change.
uint64_t PhysicalWidth(bullion::PhysicalType t) {
  using bullion::PhysicalType;
  switch (t) {
    case PhysicalType::kInt8:
    case PhysicalType::kBool:
    case PhysicalType::kFloat8E4M3:
    case PhysicalType::kFloat8E5M2:
      return 1;
    case PhysicalType::kInt16:
    case PhysicalType::kFloat16:
    case PhysicalType::kBFloat16:
      return 2;
    case PhysicalType::kInt32:
    case PhysicalType::kFloat32:
      return 4;
    case PhysicalType::kInt64:
    case PhysicalType::kFloat64:
      return 8;
    case PhysicalType::kBinary:
      return 0;
  }
  return 8;
}

/// Leaf value range [begin, end) covered by rows [row_begin, row_end).
std::pair<size_t, size_t> LeafRange(const ColumnVector& v, size_t row_begin,
                                    size_t row_end) {
  size_t b = row_begin, e = row_end;
  for (int level = 0; level < v.list_depth(); ++level) {
    const auto& off = v.offsets()[static_cast<size_t>(level)];
    b = static_cast<size_t>(off[b]);
    e = static_cast<size_t>(off[e]);
  }
  return {b, e};
}

struct Hasher {
  uint64_t h = 0x243F6A8885A308D3ull;
  void Add(uint64_t v) {
    h ^= v * 0x9E3779B97F4A7C15ull;
    h = (h << 31 | h >> 33) * 0xBF58476D1CE4E5B9ull;
  }
  uint64_t Finish() const {
    uint64_t x = h;
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    return x;
  }
};

}  // namespace

uint64_t UserBytes(const ColumnVector& v, size_t row_begin, size_t row_end) {
  uint64_t bytes = 0;
  // 4 bytes per list length, at every nesting level.
  size_t b = row_begin, e = row_end;
  for (int level = 0; level < v.list_depth(); ++level) {
    bytes += 4 * (e - b);
    const auto& off = v.offsets()[static_cast<size_t>(level)];
    b = static_cast<size_t>(off[b]);
    e = static_cast<size_t>(off[e]);
  }
  if (v.physical() == bullion::PhysicalType::kBinary) {
    for (size_t i = b; i < e; ++i) bytes += v.bin_values()[i].size();
  } else {
    bytes += PhysicalWidth(v.physical()) * (e - b);
  }
  return bytes;
}

uint64_t Checksum(const ColumnVector& v, size_t row_begin, size_t row_end) {
  Hasher hs;
  hs.Add(row_end - row_begin);
  size_t b = row_begin, e = row_end;
  for (int level = 0; level < v.list_depth(); ++level) {
    const auto& off = v.offsets()[static_cast<size_t>(level)];
    for (size_t i = b; i < e; ++i) {
      hs.Add(static_cast<uint64_t>(off[i + 1] - off[i]));
    }
    b = static_cast<size_t>(off[b]);
    e = static_cast<size_t>(off[e]);
  }
  switch (v.domain()) {
    case bullion::ValueDomain::kInt:
      for (size_t i = b; i < e; ++i) {
        hs.Add(static_cast<uint64_t>(v.int_values()[i]));
      }
      break;
    case bullion::ValueDomain::kReal:
      for (size_t i = b; i < e; ++i) {
        uint64_t bits = 0;
        std::memcpy(&bits, &v.real_values()[i], sizeof(bits));
        hs.Add(bits);
      }
      break;
    case bullion::ValueDomain::kBinary:
      for (size_t i = b; i < e; ++i) {
        const std::string& s = v.bin_values()[i];
        hs.Add(s.size());
        for (size_t k = 0; k < s.size(); k += 8) {
          uint64_t word = 0;
          std::memcpy(&word, s.data() + k, std::min<size_t>(8, s.size() - k));
          hs.Add(word);
        }
      }
      break;
  }
  return hs.Finish();
}

uint64_t DecodedBytes(const ColumnVector& v) {
  uint64_t bytes = 0;
  for (const auto& level : v.offsets()) bytes += 8 * level.size();
  auto [b, e] = LeafRange(v, 0, v.num_rows());
  if (v.domain() == bullion::ValueDomain::kBinary) {
    for (size_t i = b; i < e; ++i) {
      bytes += sizeof(std::string) + v.bin_values()[i].size();
    }
  } else {
    bytes += 8 * (e - b);
  }
  return bytes;
}

uint64_t ChunkBytes(const bullion::FooterView& footer, uint32_t column) {
  uint64_t bytes = 0;
  for (uint32_t g = 0; g < footer.num_row_groups(); ++g) {
    auto [first, last] = footer.chunk_pages(g, column);
    for (uint32_t p = first; p < last; ++p) bytes += footer.page_slot_size(p);
  }
  return bytes;
}

bool IsSparseLeaf(const bullion::ColumnRecord& rec) {
  return rec.list_depth == 1 &&
         rec.physical == static_cast<uint8_t>(bullion::PhysicalType::kInt64) &&
         rec.logical == static_cast<uint8_t>(bullion::LogicalType::kIdSequence);
}

}  // namespace perfbench
