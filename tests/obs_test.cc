// Unit tests for the observability subsystem (src/obs/): counter, gauge, and
// histogram semantics; shard merging under concurrent writers (run under TSan
// via ci/sanitize.sh); scoped-trace nesting and ring-buffer bounds; and the
// JSON exporters (Chrome trace + StatsSnapshot), validated by parsing the
// output back with io::ParseJsonValue.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "io/json_value.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/trace.h"

namespace ubigraph::obs {
namespace {

// Each test works against its own registry/sink where possible; tests that
// exercise Global() reset it so order does not matter.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().Reset();
    MetricsRegistry::Global().set_enabled(true);
    TraceSink::Global().Clear();
    TraceSink::Global().set_enabled(true);
  }
};

TEST_F(ObsTest, CounterStartsAtZeroAndAccumulates) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("test.counter");
  EXPECT_EQ(c->Value(), 0);
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->Value(), 42);
  c->Add(-2);  // deltas may be negative (e.g. corrections)
  EXPECT_EQ(c->Value(), 40);
}

TEST_F(ObsTest, RegistryReturnsStableHandleForSameName) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("same");
  Counter* b = reg.GetCounter("same");
  EXPECT_EQ(a, b);
  EXPECT_NE(reg.GetCounter("other"), a);
  EXPECT_EQ(a->name(), "same");
}

TEST_F(ObsTest, CounterMergesShardsFromConcurrentWriters) {
  // 8 writers hammer one counter; the merged value must equal the exact
  // total and the per-shard breakdown must sum to it. TSan-clean by design:
  // every shard access is atomic.
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("concurrent");
  constexpr int kWriters = 8;
  constexpr int kPerWriter = 100000;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([c] {
      for (int i = 0; i < kPerWriter; ++i) c->Increment();
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(c->Value(), int64_t{kWriters} * kPerWriter);
  std::vector<int64_t> shards = c->ShardValues();
  ASSERT_EQ(shards.size(), kNumShards);
  int64_t shard_sum = 0;
  for (int64_t v : shards) shard_sum += v;
  EXPECT_EQ(shard_sum, c->Value());
}

TEST_F(ObsTest, GaugeSetAddAndHighWater) {
  MetricsRegistry reg;
  Gauge* g = reg.GetGauge("depth");
  EXPECT_EQ(g->Value(), 0);
  g->Set(7);
  EXPECT_EQ(g->Value(), 7);
  g->Add(3);
  EXPECT_EQ(g->Value(), 10);
  g->UpdateMax(5);  // lower: no change
  EXPECT_EQ(g->Value(), 10);
  g->UpdateMax(25);  // higher: raises
  EXPECT_EQ(g->Value(), 25);
}

TEST_F(ObsTest, GaugeUpdateMaxIsMonotonicUnderContention) {
  MetricsRegistry reg;
  Gauge* g = reg.GetGauge("hwm");
  std::vector<std::thread> writers;
  for (int w = 0; w < 8; ++w) {
    writers.emplace_back([g, w] {
      for (int i = 0; i < 20000; ++i) g->UpdateMax(w * 20000 + i);
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(g->Value(), 7 * 20000 + 19999);
}

TEST_F(ObsTest, HistogramEmptySnapshot) {
  MetricsRegistry reg;
  LatencyHistogram* h = reg.GetHistogram("empty");
  LatencyHistogram::Snapshot s = h->Merge();
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.sum, 0);
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.max, 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.Percentile(0.5), 0);
}

TEST_F(ObsTest, HistogramRecordsExactCountSumMinMax) {
  MetricsRegistry reg;
  LatencyHistogram* h = reg.GetHistogram("lat");
  for (int64_t v : {3, 10, 100, 1000, 64}) h->Record(v);
  LatencyHistogram::Snapshot s = h->Merge();
  EXPECT_EQ(s.count, 5);
  EXPECT_EQ(s.sum, 3 + 10 + 100 + 1000 + 64);
  EXPECT_EQ(s.min, 3);
  EXPECT_EQ(s.max, 1000);
  EXPECT_DOUBLE_EQ(s.mean(), (3 + 10 + 100 + 1000 + 64) / 5.0);
}

TEST_F(ObsTest, HistogramPercentilesAreBucketAccurate) {
  // 100 samples of value 10 and one of 10000: p50/p90 land in 10's bucket
  // (upper bound 15 = 2^4 - 1), p99... still in 10's bucket at rank 101*0.99
  // = 100th sample; the outlier is only visible at max.
  MetricsRegistry reg;
  LatencyHistogram* h = reg.GetHistogram("p");
  for (int i = 0; i < 100; ++i) h->Record(10);
  h->Record(10000);
  LatencyHistogram::Snapshot s = h->Merge();
  EXPECT_EQ(s.Percentile(0.50), 15);  // bucket [8, 16) upper bound
  EXPECT_EQ(s.Percentile(0.90), 15);
  EXPECT_EQ(s.max, 10000);
  // p100 must reach the outlier's bucket, capped at the observed max.
  EXPECT_EQ(s.Percentile(1.0), 10000);
}

TEST_F(ObsTest, HistogramBucketBoundsArePowersOfTwo) {
  EXPECT_EQ(LatencyHistogram::Snapshot::BucketUpperBound(0), 0);
  EXPECT_EQ(LatencyHistogram::Snapshot::BucketUpperBound(1), 1);
  EXPECT_EQ(LatencyHistogram::Snapshot::BucketUpperBound(4), 15);
  EXPECT_EQ(LatencyHistogram::Snapshot::BucketUpperBound(10), 1023);
}

TEST_F(ObsTest, HistogramMergesConcurrentRecorders) {
  MetricsRegistry reg;
  LatencyHistogram* h = reg.GetHistogram("mt");
  constexpr int kWriters = 8;
  constexpr int kPerWriter = 50000;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([h] {
      for (int i = 1; i <= kPerWriter; ++i) h->Record(i);
    });
  }
  for (auto& t : writers) t.join();
  LatencyHistogram::Snapshot s = h->Merge();
  EXPECT_EQ(s.count, int64_t{kWriters} * kPerWriter);
  EXPECT_EQ(s.sum, int64_t{kWriters} * kPerWriter * (kPerWriter + 1) / 2);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, kPerWriter);
}

TEST_F(ObsTest, RegistryResetZeroesValuesButKeepsHandles) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("r.c");
  Gauge* g = reg.GetGauge("r.g");
  LatencyHistogram* h = reg.GetHistogram("r.h");
  c->Add(5);
  g->Set(9);
  h->Record(123);
  reg.Reset();
  EXPECT_EQ(c->Value(), 0);
  EXPECT_EQ(g->Value(), 0);
  EXPECT_EQ(h->Merge().count, 0);
  // Handles stay registered and usable.
  EXPECT_EQ(reg.GetCounter("r.c"), c);
  c->Increment();
  EXPECT_EQ(c->Value(), 1);
}

TEST_F(ObsTest, DisabledRegistryMakesFlushHelpersNoOps) {
  MetricsRegistry::Global().set_enabled(false);
  AddCounter("disabled.counter", 10);
  SetGauge("disabled.gauge", 10);
  RecordLatency("disabled.hist", 10);
  MetricsRegistry::Global().set_enabled(true);
  // The helpers must not have registered or recorded anything.
  StatsSnapshot snap = StatsSnapshot::Capture();
  EXPECT_EQ(snap.FindCounter("disabled.counter"), nullptr);
  EXPECT_EQ(snap.FindGauge("disabled.gauge"), nullptr);
  EXPECT_EQ(snap.FindHistogram("disabled.hist"), nullptr);
}

TEST_F(ObsTest, ForEachVisitsInNameOrder) {
  MetricsRegistry reg;
  reg.GetCounter("b");
  reg.GetCounter("a");
  reg.GetCounter("c");
  std::vector<std::string> names;
  reg.ForEachCounter([&](const Counter& c) { names.push_back(c.name()); });
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "c"}));
}

// ---------------------------------------------------------------------------
// Tracing.

TEST_F(ObsTest, ScopedTraceRecordsNestedSpansWithDepth) {
  TraceSink sink(64);
  {
    ScopedTrace outer("outer", "test", &sink);
    {
      ScopedTrace inner("inner", "test", &sink);
    }
  }
  std::vector<TraceEvent> events = sink.Events();
  ASSERT_EQ(events.size(), 2u);
  // Children close first, so the inner span is recorded first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0);
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[0].category, "test");
  // The outer span brackets the inner one in time.
  EXPECT_LE(events[1].start_us, events[0].start_us);
  EXPECT_GE(events[1].start_us + events[1].duration_us,
            events[0].start_us + events[0].duration_us);
}

TEST_F(ObsTest, DisabledSinkDropsSpans) {
  TraceSink sink(64);
  sink.set_enabled(false);
  {
    ScopedTrace span("dropped", "test", &sink);
  }
  EXPECT_TRUE(sink.Events().empty());
}

TEST_F(ObsTest, RingBufferOverwritesOldestAndCountsDropped) {
  TraceSink sink(4);
  for (int i = 0; i < 10; ++i) {
    TraceEvent e;
    e.name = "e";
    e.name += std::to_string(i);
    sink.Push(std::move(e));
  }
  uint64_t dropped = 0;
  std::vector<TraceEvent> events = sink.Events(&dropped);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(dropped, 6u);
  // Oldest-first order of the surviving tail.
  EXPECT_EQ(events[0].name, "e6");
  EXPECT_EQ(events[3].name, "e9");
}

TEST_F(ObsTest, ChromeTraceExportIsValidJson) {
  TraceSink sink(16);
  {
    ScopedTrace span("PageRank \"quoted\"", "kernel", &sink);
  }
  std::string json = sink.ExportChromeTrace();
  auto parsed = io::ParseJsonValue(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
  const io::JsonValue* events = (*parsed)->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, io::JsonValue::kArray);
  ASSERT_EQ(events->array.size(), 1u);
  const io::JsonValue& e = *events->array[0];
  ASSERT_NE(e.Get("name"), nullptr);
  EXPECT_EQ(e.Get("name")->string, "PageRank \"quoted\"");
  ASSERT_NE(e.Get("ph"), nullptr);
  EXPECT_EQ(e.Get("ph")->string, "X");
  EXPECT_NE(e.Get("ts"), nullptr);
  EXPECT_NE(e.Get("dur"), nullptr);
  ASSERT_NE(e.Get("pid"), nullptr);
  EXPECT_EQ(e.Get("pid")->number, 1.0);
  ASSERT_NE(e.Get("args"), nullptr);
  EXPECT_NE(e.Get("args")->Get("depth"), nullptr);
}

// ---------------------------------------------------------------------------
// StatsSnapshot export.

TEST_F(ObsTest, SnapshotCapturesAndFindsMetrics) {
  MetricsRegistry reg;
  reg.GetCounter("snap.counter")->Add(17);
  reg.GetGauge("snap.gauge")->Set(-4);
  reg.GetHistogram("snap.hist")->Record(200);
  StatsSnapshot snap = StatsSnapshot::Capture(&reg);
  const CounterSnapshot* c = snap.FindCounter("snap.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 17);
  ASSERT_EQ(c->shards.size(), 1u);  // single writer: one non-zero shard
  EXPECT_EQ(c->shards[0].second, 17);
  const GaugeSnapshot* g = snap.FindGauge("snap.gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value, -4);
  const HistogramSnapshot* h = snap.FindHistogram("snap.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1);
  EXPECT_EQ(h->sum, 200);
  EXPECT_EQ(snap.FindCounter("absent"), nullptr);
}

TEST_F(ObsTest, SnapshotJsonRoundTripsThroughParser) {
  MetricsRegistry reg;
  reg.GetCounter("json.counter")->Add(99);
  reg.GetGauge("json.gauge")->Set(123);
  LatencyHistogram* h = reg.GetHistogram("json.hist");
  for (int i = 1; i <= 10; ++i) h->Record(i);
  StatsSnapshot snap = StatsSnapshot::Capture(&reg);
  std::string json = snap.ToJson();
  auto parsed = io::ParseJsonValue(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
  const io::JsonValue* counters = (*parsed)->Get("counters");
  ASSERT_NE(counters, nullptr);
  const io::JsonValue* c = counters->Get("json.counter");
  ASSERT_NE(c, nullptr);
  ASSERT_NE(c->Get("value"), nullptr);
  EXPECT_EQ(c->Get("value")->number, 99.0);
  ASSERT_NE(c->Get("shards"), nullptr);
  const io::JsonValue* gauges = (*parsed)->Get("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->Get("json.gauge"), nullptr);
  EXPECT_EQ(gauges->Get("json.gauge")->number, 123.0);
  const io::JsonValue* hists = (*parsed)->Get("histograms");
  ASSERT_NE(hists, nullptr);
  const io::JsonValue* hj = hists->Get("json.hist");
  ASSERT_NE(hj, nullptr);
  EXPECT_EQ(hj->Get("count")->number, 10.0);
  EXPECT_EQ(hj->Get("sum")->number, 55.0);
  EXPECT_NE(hj->Get("p50"), nullptr);
  EXPECT_NE(hj->Get("p99"), nullptr);
}

TEST_F(ObsTest, SnapshotAsciiRenderMentionsEveryMetric) {
  MetricsRegistry reg;
  reg.GetCounter("ascii.counter")->Add(5);
  reg.GetGauge("ascii.gauge")->Set(6);
  reg.GetHistogram("ascii.hist")->Record(7);
  std::string text = StatsSnapshot::Capture(&reg).RenderAscii();
  EXPECT_NE(text.find("ascii.counter"), std::string::npos);
  EXPECT_NE(text.find("ascii.gauge"), std::string::npos);
  EXPECT_NE(text.find("ascii.hist"), std::string::npos);
}

TEST_F(ObsTest, ThreadIdsAreSmallAndStable) {
  int here = ThisThreadId();
  EXPECT_GE(here, 0);
  EXPECT_EQ(ThisThreadId(), here);  // stable across calls
  EXPECT_LT(ThisThreadShard(), kNumShards);
  int other = -1;
  std::thread t([&other] { other = ThisThreadId(); });
  t.join();
  EXPECT_GE(other, 0);
  EXPECT_NE(other, here);
}

}  // namespace
}  // namespace ubigraph::obs
