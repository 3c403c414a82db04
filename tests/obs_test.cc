// Observability subsystem tests: histogram bucket math and quantile
// accuracy, multi-threaded recording (exercised under TSAN in CI),
// registry snapshot consistency and serialization, Chrome-trace JSON
// validity, the disabled-tracing contract, IoStats snapshot/delta
// phase accounting, and PipelineReport populated end-to-end by real
// scans and writes.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/bullion.h"

namespace bullion {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::HistogramSnapshot;
using obs::LatencyHistogram;
using obs::MetricsRegistry;

// ---------------------------------------------------------------------------
// A minimal JSON validator: enough of RFC 8259 to reject malformed
// output from ToJson() / the trace serializer (unbalanced structure,
// trailing commas, bad numbers). Returns true iff `s` is one complete
// JSON value.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) return true;
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Expect(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek('}')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek(']')) return true;
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(']')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool String() {
    if (!Expect('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    return Expect('"');
  }
  bool Number() {
    size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* lit) {
    for (const char* p = lit; *p; ++p) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
      ++pos_;
    }
    return true;
  }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Expect(char c) { return Peek(c); }

  const std::string& s_;
  size_t pos_ = 0;
};

bool IsValidJson(const std::string& s) { return JsonChecker(s).Valid(); }

TEST(JsonChecker, SanityOnKnownInputs) {
  EXPECT_TRUE(IsValidJson("{}"));
  EXPECT_TRUE(IsValidJson("[1, 2.5, \"x\", {\"k\": [true, null]}]"));
  EXPECT_FALSE(IsValidJson("{\"k\": 1,}"));   // trailing comma
  EXPECT_FALSE(IsValidJson("[1, 2"));          // unbalanced
  EXPECT_FALSE(IsValidJson("{\"k\" 1}"));      // missing colon
  EXPECT_FALSE(IsValidJson("{} extra"));       // trailing garbage
}

// ---------------------------------------------------------------------------
// LatencyHistogram

TEST(LatencyHistogram, SmallValuesAreExact) {
  // Values 0..3 get dedicated buckets: bucket lower bound == value and
  // width 1, so quantiles on tiny values are exact, not estimates.
  for (uint64_t v = 0; v < 4; ++v) {
    size_t b = LatencyHistogram::BucketIndex(v);
    EXPECT_EQ(b, static_cast<size_t>(v));
    EXPECT_EQ(LatencyHistogram::BucketLowerBound(b), v);
    EXPECT_EQ(LatencyHistogram::BucketWidth(b), 1u);
  }
}

TEST(LatencyHistogram, BucketInvariantsAcrossRange) {
  // Every probe value must land in a bucket whose [lower, lower+width)
  // range contains it, and bucket indices must be monotone in value.
  std::vector<uint64_t> probes;
  for (uint64_t v = 0; v < 300; ++v) probes.push_back(v);
  for (int shift = 9; shift < 63; shift += 3) {
    uint64_t base = uint64_t{1} << shift;
    probes.push_back(base - 1);
    probes.push_back(base);
    probes.push_back(base + base / 3);
  }
  probes.push_back(UINT64_MAX);

  size_t prev_bucket = 0;
  uint64_t prev_value = 0;
  for (uint64_t v : probes) {
    size_t b = LatencyHistogram::BucketIndex(v);
    ASSERT_LT(b, LatencyHistogram::kNumBuckets) << "v=" << v;
    uint64_t lo = LatencyHistogram::BucketLowerBound(b);
    uint64_t w = LatencyHistogram::BucketWidth(b);
    EXPECT_LE(lo, v) << "v=" << v;
    // lo + w can overflow only for the last bucket of the top octave.
    if (lo + w > lo) EXPECT_LT(v, lo + w) << "v=" << v;
    if (v >= prev_value) EXPECT_GE(b, prev_bucket) << "v=" << v;
    prev_bucket = b;
    prev_value = v;
  }
}

TEST(LatencyHistogram, CountSumMinMax) {
  LatencyHistogram h;
  HistogramSnapshot empty = h.Snapshot();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.sum, 0u);
  EXPECT_EQ(empty.min, 0u);
  EXPECT_EQ(empty.max, 0u);
  EXPECT_EQ(empty.mean(), 0.0);

  h.Record(100);
  h.Record(200);
  h.Record(7);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 307u);
  EXPECT_EQ(s.min, 7u);
  EXPECT_EQ(s.max, 200u);
  EXPECT_NEAR(s.mean(), 307.0 / 3, 1e-9);
  // Quantiles are clamped into [min, max].
  EXPECT_GE(s.p50, 7.0);
  EXPECT_LE(s.p999, 200.0);

  h.Reset();
  EXPECT_EQ(h.Snapshot().count, 0u);
}

TEST(LatencyHistogram, QuantileAccuracyOnUniformData) {
  // 1..100000 recorded once each: exact pXX is XX% of 100000. The
  // log-bucket midpoint estimate must stay within the documented
  // ~12.5% relative error (we allow 15% for the midpoint rounding).
  constexpr uint64_t kN = 100000;
  LatencyHistogram h;
  for (uint64_t v = 1; v <= kN; ++v) h.Record(v);
  HistogramSnapshot s = h.Snapshot();
  ASSERT_EQ(s.count, kN);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, kN);

  const struct {
    double estimate;
    double exact;
  } cases[] = {
      {s.p50, 0.50 * kN},
      {s.p90, 0.90 * kN},
      {s.p99, 0.99 * kN},
      {s.p999, 0.999 * kN},
  };
  for (const auto& c : cases) {
    EXPECT_NEAR(c.estimate, c.exact, 0.15 * c.exact)
        << "estimate " << c.estimate << " vs exact " << c.exact;
  }
}

TEST(LatencyHistogram, MultithreadedRecordingLosesNothing) {
  // Relaxed-atomic recording from many threads must drop no samples:
  // count and sum are conserved exactly. (TSAN job re-runs this.)
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  LatencyHistogram h;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(1 + (t * kPerThread + i) % 1000);
      }
    });
  }
  for (auto& th : threads) th.join();

  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 1000u);
  // Sum of 8 full cycles over 1..1000 (kThreads*kPerThread/1000 cycles).
  uint64_t cycles = kThreads * kPerThread / 1000;
  EXPECT_EQ(s.sum, cycles * (1000 * 1001 / 2));
}

// ---------------------------------------------------------------------------
// Counter / Gauge / MetricsRegistry

TEST(Metrics, CounterAndGaugeBasics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);

  Gauge g;
  g.Set(10);
  g.Add(-3);
  g.Add(5);
  EXPECT_EQ(g.value(), 12);
  g.Add(-20);
  EXPECT_EQ(g.value(), -8);  // gauges may go negative transiently
  g.Reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(Metrics, RegistryReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* c1 = reg.GetCounter("test.counter");
  Counter* c2 = reg.GetCounter("test.counter");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(reg.GetCounter("test.other"), c1);
  Gauge* g1 = reg.GetGauge("test.gauge");
  EXPECT_EQ(g1, reg.GetGauge("test.gauge"));
  LatencyHistogram* h1 = reg.GetHistogram("test.hist_ns");
  EXPECT_EQ(h1, reg.GetHistogram("test.hist_ns"));
}

TEST(Metrics, RegistrySnapshotAndSerialization) {
  MetricsRegistry reg;
  reg.GetCounter("unit.reads")->Increment(7);
  reg.GetGauge("unit.depth")->Set(-3);
  LatencyHistogram* h = reg.GetHistogram("unit.lat_ns");
  h->Record(100);
  h->Record(900);

  obs::RegistrySnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "unit.reads");
  EXPECT_EQ(snap.counters[0].second, 7u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, -3);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 2u);
  EXPECT_EQ(snap.histograms[0].second.sum, 1000u);

  std::string json = snap.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"unit.reads\""), std::string::npos);
  EXPECT_NE(json.find("\"unit.lat_ns\""), std::string::npos);

  std::string prom = snap.ToPrometheusText();
  // Prometheus rewrites dots to underscores and declares types.
  EXPECT_NE(prom.find("# TYPE unit_reads counter"), std::string::npos) << prom;
  EXPECT_NE(prom.find("# TYPE unit_depth gauge"), std::string::npos);
  EXPECT_NE(prom.find("unit_reads 7"), std::string::npos);
  EXPECT_NE(prom.find("unit_depth -3"), std::string::npos);
  EXPECT_NE(prom.find("unit_lat_ns_count 2"), std::string::npos);
  EXPECT_EQ(prom.find("unit.reads"), std::string::npos);  // no raw dots

  reg.ResetAll();
  EXPECT_EQ(reg.GetCounter("unit.reads")->value(), 0u);
  EXPECT_EQ(reg.GetHistogram("unit.lat_ns")->Snapshot().count, 0u);
}

TEST(Metrics, GlobalRegistryIsWiredToThePipelines) {
  // A real write + scan must leave samples in the canonical metric
  // names (these are the names src/obs/README.md documents).
  MetricsRegistry& reg = MetricsRegistry::Global();
  LatencyHistogram* encode = reg.GetHistogram("bullion.format.encode_page_ns");
  LatencyHistogram* decode = reg.GetHistogram("bullion.format.decode_chunk_ns");
  HistogramSnapshot encode_before = encode->Snapshot();
  HistogramSnapshot decode_before = decode->Snapshot();

  Schema schema({Field{"v", DataType::Primitive(PhysicalType::kInt64),
                       LogicalType::kPlain, false}});
  std::vector<ColumnVector> cols;
  for (const LeafColumn& leaf : schema.leaves()) {
    cols.push_back(ColumnVector::ForLeaf(leaf));
  }
  for (int64_t i = 0; i < 256; ++i) cols[0].AppendInt(i);

  InMemoryFileSystem fs;
  {
    auto f = fs.NewWritableFile("t");
    TableWriter writer(schema, f->get(), WriterOptions{});
    ASSERT_TRUE(writer.WriteRowGroup(cols).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto reader = TableReader::Open(*fs.NewReadableFile("t"));
  ASSERT_TRUE(reader.ok());
  auto stream = Scan(reader->get()).Stream();
  ASSERT_TRUE(stream.ok());
  RowBatch batch;
  uint64_t rows = 0;
  for (;;) {
    auto more = (*stream)->Next(&batch);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    rows += batch.num_rows();
  }
  EXPECT_EQ(rows, 256u);

  EXPECT_GT(encode->Snapshot().count, encode_before.count);
  EXPECT_GT(decode->Snapshot().count, decode_before.count);
}

// ---------------------------------------------------------------------------
// IoStats snapshot / delta

static_assert(sizeof(IoStatsSnapshot) == 8 * sizeof(uint64_t),
              "a new IoStats counter needs a line in SetCounters and "
              "ExpectCounters");

/// Sets counter i (in list order) to (i + 1) * scale. The values are
/// distinct, so an operation that drops or swaps a counter mismatches.
void SetCounters(IoStats* s, uint64_t scale) {
  s->read_ops = 1 * scale;
  s->bytes_read = 2 * scale;
  s->write_ops = 3 * scale;
  s->write_calls = 4 * scale;
  s->bytes_written = 5 * scale;
  s->seeks = 6 * scale;
  s->pages_encoded = 7 * scale;
  s->flush_calls = 8 * scale;
}

void ExpectCounters(const IoStatsSnapshot& s, uint64_t scale) {
  EXPECT_EQ(s.read_ops, 1 * scale);
  EXPECT_EQ(s.bytes_read, 2 * scale);
  EXPECT_EQ(s.write_ops, 3 * scale);
  EXPECT_EQ(s.write_calls, 4 * scale);
  EXPECT_EQ(s.bytes_written, 5 * scale);
  EXPECT_EQ(s.seeks, 6 * scale);
  EXPECT_EQ(s.pages_encoded, 7 * scale);
  EXPECT_EQ(s.flush_calls, 8 * scale);
}

TEST(IoStats, SnapshotAndDelta) {
  IoStats stats;
  SetCounters(&stats, 1);
  const IoStatsSnapshot before = stats.Snapshot();
  ExpectCounters(before, 1);

  const IoStats copy(stats);
  ExpectCounters(copy.Snapshot(), 1);
  IoStats assigned;
  assigned = stats;
  ExpectCounters(assigned.Snapshot(), 1);

  IoStats more;
  SetCounters(&more, 10);
  stats += more;
  const IoStatsSnapshot after = stats.Snapshot();
  ExpectCounters(after, 11);
  ExpectCounters(more.Snapshot(), 10);  // the addend is unchanged

  ExpectCounters(IoStatsDelta(before, after), 10);
  ExpectCounters(IoStatsDelta(after, after), 0);

  stats.Reset();
  ExpectCounters(stats.Snapshot(), 0);
  ExpectCounters(copy.Snapshot(), 1);  // copies share no state
}

// ---------------------------------------------------------------------------
// Tracing

TEST(Trace, DisabledByDefaultAndZeroEvents) {
  ASSERT_FALSE(obs::TracingEnabled());
  {
    BULLION_TRACE_SPAN("should.not.record");
  }
  // A session opened after disabled spans sees none of them.
  ASSERT_TRUE(obs::StartTracing("").ok());
  EXPECT_EQ(obs::BufferedTraceEvents(), 0u);
  auto json = obs::StopTracing();
  ASSERT_TRUE(json.ok());
  EXPECT_TRUE(IsValidJson(*json)) << *json;
  EXPECT_EQ(json->find("should.not.record"), std::string::npos);
}

TEST(Trace, SessionProducesValidChromeJson) {
  ASSERT_TRUE(obs::StartTracing("").ok());
  EXPECT_TRUE(obs::TracingEnabled());
  // Double-start must fail while a session is live.
  EXPECT_FALSE(obs::StartTracing("").ok());

  {
    BULLION_TRACE_SPAN("test.outer");
    BULLION_TRACE_SPAN("test.inner");
  }
  EXPECT_GE(obs::BufferedTraceEvents(), 2u);

  auto json = obs::StopTracing();
  ASSERT_TRUE(json.ok());
  EXPECT_FALSE(obs::TracingEnabled());
  EXPECT_TRUE(IsValidJson(*json)) << *json;
  // Chrome trace-event complete events.
  EXPECT_NE(json->find("\"ph\": \"X\""), std::string::npos) << *json;
  EXPECT_NE(json->find("test.outer"), std::string::npos);
  EXPECT_NE(json->find("test.inner"), std::string::npos);

  // Buffers were cleared: a fresh session starts empty.
  ASSERT_TRUE(obs::StartTracing("").ok());
  EXPECT_EQ(obs::BufferedTraceEvents(), 0u);
  ASSERT_TRUE(obs::StopTracing().ok());
}

TEST(Trace, MultithreadedSpansAllArrive) {
  ASSERT_TRUE(obs::StartTracing("").ok());
  constexpr size_t kThreads = 4;
  constexpr size_t kSpansPerThread = 50;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (size_t i = 0; i < kSpansPerThread; ++i) {
        BULLION_TRACE_SPAN("test.mt");
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(obs::BufferedTraceEvents(), kThreads * kSpansPerThread);
  auto json = obs::StopTracing();
  ASSERT_TRUE(json.ok());
  EXPECT_TRUE(IsValidJson(*json));
}

TEST(Trace, PipelineEmitsStageSpans) {
  // The acceptance bar: a traced write + scan produces spans from at
  // least three distinct pipeline stages.
  ASSERT_TRUE(obs::StartTracing("").ok());

  Schema schema({Field{"v", DataType::Primitive(PhysicalType::kInt64),
                       LogicalType::kPlain, false}});
  std::vector<ColumnVector> cols;
  for (const LeafColumn& leaf : schema.leaves()) {
    cols.push_back(ColumnVector::ForLeaf(leaf));
  }
  for (int64_t i = 0; i < 512; ++i) cols[0].AppendInt(i);

  InMemoryFileSystem fs;
  {
    auto f = fs.NewWritableFile("t");
    ThreadPool pool(2);
    TableWriter writer(schema, f->get(), {}, &pool);
    ASSERT_TRUE(writer.WriteRowGroup(std::move(cols)).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto reader = TableReader::Open(*fs.NewReadableFile("t"));
  ASSERT_TRUE(reader.ok());
  auto stream = Scan(reader->get()).Threads(2).Stream();
  ASSERT_TRUE(stream.ok());
  RowBatch batch;
  for (;;) {
    auto more = (*stream)->Next(&batch);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
  }

  auto json = obs::StopTracing();
  ASSERT_TRUE(json.ok());
  EXPECT_TRUE(IsValidJson(*json));
  size_t stages = 0;
  for (const char* name :
       {"scan.prepare", "scan.fetch_decode", "scan.emit", "read.fetch",
        "read.decode_chunk", "write.stage", "write.encode_page",
        "write.commit_group"}) {
    if (json->find(name) != std::string::npos) ++stages;
  }
  EXPECT_GE(stages, 3u) << *json;
}

// ---------------------------------------------------------------------------
// PipelineReport

TEST(PipelineReport, PopulatedByScan) {
  Schema schema({Field{"uid", DataType::Primitive(PhysicalType::kInt64),
                       LogicalType::kPlain, true},
                 Field{"score", DataType::Primitive(PhysicalType::kFloat64),
                       LogicalType::kPlain, false}});
  constexpr size_t kRows = 4096, kRowsPerGroup = 512;
  InMemoryFileSystem fs;
  {
    std::vector<std::vector<ColumnVector>> groups;
    for (size_t r = 0; r < kRows; r += kRowsPerGroup) {
      std::vector<ColumnVector> cols;
      for (const LeafColumn& leaf : schema.leaves()) {
        cols.push_back(ColumnVector::ForLeaf(leaf));
      }
      for (size_t i = 0; i < kRowsPerGroup; ++i) {
        cols[0].AppendInt(static_cast<int64_t>(r + i));
        cols[1].AppendReal(static_cast<double>(r + i));
      }
      groups.push_back(std::move(cols));
    }
    auto f = fs.NewWritableFile("t");
    ASSERT_TRUE(WriteTableFile(f->get(), schema, groups).ok());
  }
  auto reader = TableReader::Open(*fs.NewReadableFile("t"));
  ASSERT_TRUE(reader.ok());

  obs::PipelineReport report;
  auto stream = Scan(reader->get()).Threads(2).Report(&report).Stream();
  ASSERT_TRUE(stream.ok());
  RowBatch batch;
  uint64_t rows = 0, batches = 0;
  for (;;) {
    auto more = (*stream)->Next(&batch);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    rows += batch.num_rows();
    ++batches;
  }
  stream->reset();  // destructor records wall time

  EXPECT_EQ(report.rows.load(), kRows);
  EXPECT_EQ(report.units.load(), kRows / kRowsPerGroup);
  EXPECT_EQ(report.batches.load(), batches);
  EXPECT_GT(report.bytes.load(), 0u);
  EXPECT_GT(report.wall_ns.load(), 0u);
  EXPECT_GT(report.work_ns.load(), 0u);
  // One work_hist sample per coalesced read; a unit (row group) issues
  // at least one.
  EXPECT_GE(report.work_hist.Snapshot().count, report.units.load());
  EXPECT_GT(report.rows_per_sec(), 0.0);

  EXPECT_FALSE(report.ToString().empty());
  std::string json = report.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"work_ns\""), std::string::npos) << json;

  report.Reset();
  EXPECT_EQ(report.rows.load(), 0u);
  EXPECT_EQ(report.wall_ns.load(), 0u);
  EXPECT_EQ(report.work_hist.Snapshot().count, 0u);
}

TEST(PipelineReport, JsonStaysValidAtExtremeValues) {
  // Every counter at its widest (20 digits) and wall_ns = 1 makes the
  // throughput fields as long as they get: the serializer must not
  // truncate the object.
  obs::PipelineReport report;
  for (std::atomic<uint64_t>* field :
       {&report.rows, &report.bytes, &report.units, &report.batches,
        &report.groups_pruned, &report.cache_hits, &report.cache_misses,
        &report.plan_ns, &report.prepare_ns, &report.work_ns,
        &report.emit_ns, &report.stall_ns}) {
    field->store(UINT64_MAX);
  }
  report.wall_ns.store(1);
  report.work_hist.Record(UINT64_MAX);

  const std::string json = report.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"groups_pruned\": 18446744073709551615"),
            std::string::npos)
      << json;
  EXPECT_NE(report.ToString().find("18446744073709551615 row groups"),
            std::string::npos);

  EXPECT_NE(json.find("\"plan_ns\": 18446744073709551615"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"cache_hits\": 18446744073709551615"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"cache_misses\": 18446744073709551615"),
            std::string::npos)
      << json;
  EXPECT_NE(report.ToString().find("cache: 18446744073709551615 hits, "
                                   "18446744073709551615 misses"),
            std::string::npos);

  report.Reset();
  EXPECT_EQ(report.groups_pruned.load(), 0u);
  EXPECT_EQ(report.plan_ns.load(), 0u);
  EXPECT_EQ(report.cache_hits.load(), 0u);
  EXPECT_EQ(report.cache_misses.load(), 0u);
}

TEST(PipelineReport, PopulatedByParallelWrite) {
  Schema schema({Field{"v", DataType::Primitive(PhysicalType::kInt64),
                       LogicalType::kPlain, false}});
  constexpr size_t kGroups = 6, kRowsPerGroup = 300;
  std::vector<std::vector<ColumnVector>> groups;
  for (size_t g = 0; g < kGroups; ++g) {
    std::vector<ColumnVector> cols;
    for (const LeafColumn& leaf : schema.leaves()) {
      cols.push_back(ColumnVector::ForLeaf(leaf));
    }
    for (size_t i = 0; i < kRowsPerGroup; ++i) {
      cols[0].AppendInt(static_cast<int64_t>(g * kRowsPerGroup + i));
    }
    groups.push_back(std::move(cols));
  }

  InMemoryFileSystem fs;
  obs::PipelineReport report;
  {
    auto f = fs.NewWritableFile("t");
    WriterOptions wopts;
    wopts.rows_per_page = 64;
    ThreadPool pool(2);
    TableWriter writer(schema, f->get(), wopts, &pool, &report);
    for (auto& g : groups) {
      ASSERT_TRUE(writer.WriteRowGroup(std::move(g)).ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
  }

  EXPECT_EQ(report.rows.load(), kGroups * kRowsPerGroup);
  EXPECT_EQ(report.units.load(), kGroups);
  EXPECT_GT(report.batches.load(), 0u);  // one per encoded page
  EXPECT_GT(report.bytes.load(), 0u);
  EXPECT_GT(report.wall_ns.load(), 0u);
  EXPECT_GT(report.work_ns.load(), 0u);
  EXPECT_GT(report.prepare_ns.load(), 0u);
  EXPECT_EQ(report.work_hist.Snapshot().count, report.batches.load());
  EXPECT_TRUE(IsValidJson(report.ToJson()));
}

}  // namespace
}  // namespace bullion
