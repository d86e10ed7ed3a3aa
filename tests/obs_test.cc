// Unit tests for the observability layer (src/obs): the lock-free metric
// registry's exactness under concurrency, span-tree aggregation, the JSON
// writer, the shared wrbpg-obs-v1 document shape, and the search's
// wave fan-out counter.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis.h"
#include "dataflows/tree_graph.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/span.h"
#include "schedulers/brute_force.h"

namespace wrbpg::obs {
namespace {

// Every test starts from a clean slate; names persist across tests (the
// registry is process-wide and append-only) but values are zeroed.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    ResetAll();
  }
};

TEST_F(ObsTest, RegistrationIsIdempotent) {
  const MetricId a = RegisterCounter("test.idempotent");
  const MetricId b = RegisterCounter("test.idempotent");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, kInvalidMetric);
  EXPECT_EQ(RegisterCounter(""), kInvalidMetric);
}

TEST_F(ObsTest, CounterSumsAndGaugeMaxes) {
  const Counter c("test.counter");
  const Gauge g("test.gauge");
  c.Add(3);
  c.Add();
  g.Max(7);
  g.Max(4);  // lower: must not regress the high-water mark
  EXPECT_EQ(ReadMetric("test.counter"), 4u);
  EXPECT_EQ(ReadMetric("test.gauge"), 7u);
  EXPECT_EQ(ReadMetric("test.never-registered"), 0u);
}

// The concurrency contract: N threads hammering one counter lose no
// increments — the folded total is exactly N * kAdds, including the
// contributions of threads that have already exited (retired totals) —
// and a gauge folds to the true maximum across all shards.
TEST_F(ObsTest, ConcurrentHammerFoldsToExactTotals) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAdds = 50'000;
  const Counter c("test.hammer");
  const Gauge g("test.hammer-gauge");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &g, t] {
      for (std::uint64_t i = 0; i < kAdds; ++i) c.Add(1);
      g.Max(static_cast<std::uint64_t>(t) * 100);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ReadMetric("test.hammer"), kThreads * kAdds);
  EXPECT_EQ(ReadMetric("test.hammer-gauge"), (kThreads - 1) * 100u);

  // Snapshots taken while writers are live must never tear; re-hammer with
  // a concurrent reader and check the final fold is still exact.
  std::thread writer([&c] {
    for (std::uint64_t i = 0; i < kAdds; ++i) c.Add(1);
  });
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t seen = ReadMetric("test.hammer");
    EXPECT_GE(seen, kThreads * kAdds);
    EXPECT_LE(seen, (kThreads + 1) * kAdds);
  }
  writer.join();
  EXPECT_EQ(ReadMetric("test.hammer"), (kThreads + 1) * kAdds);
}

TEST_F(ObsTest, DisabledCollectionDropsWrites) {
  const Counter c("test.toggle");
  c.Add(1);
  SetEnabled(false);
  c.Add(100);
  SetEnabled(true);
  c.Add(1);
  EXPECT_EQ(ReadMetric("test.toggle"), 2u);
}

TEST_F(ObsTest, ResetZeroesValuesButKeepsNames) {
  const Counter c("test.reset");
  c.Add(5);
  ResetMetrics();
  EXPECT_EQ(ReadMetric("test.reset"), 0u);
  c.Add(2);  // the handle's id survives the reset
  EXPECT_EQ(ReadMetric("test.reset"), 2u);
}

TEST_F(ObsTest, SnapshotIsSortedByName) {
  RegisterCounter("test.zz");
  RegisterCounter("test.aa");
  const std::vector<MetricValue> snapshot = SnapshotMetrics();
  for (std::size_t i = 1; i < snapshot.size(); ++i) {
    EXPECT_LT(snapshot[i - 1].name, snapshot[i].name);
  }
}

SpanNode FindChild(const SpanNode& node, const std::string& name) {
  for (const SpanNode& child : node.children) {
    if (child.name == name) return child;
  }
  ADD_FAILURE() << "span '" << name << "' not found under '" << node.name
                << "'";
  return SpanNode{};
}

TEST_F(ObsTest, SpansNestAndAggregateByName) {
  {
    ScopedSpan outer("test.outer");
    for (int i = 0; i < 3; ++i) {
      ScopedSpan inner("test.inner");
    }
  }
  {
    ScopedSpan outer("test.outer");  // second hit merges into the same node
  }
  const SpanNode root = SnapshotSpans();
  const SpanNode outer = FindChild(root, "test.outer");
  EXPECT_EQ(outer.count, 2u);
  EXPECT_GE(outer.total_ms, 0.0);
  const SpanNode inner = FindChild(outer, "test.inner");
  EXPECT_EQ(inner.count, 3u);
  // total time is additive down the tree.
  EXPECT_LE(inner.total_ms, outer.total_ms);
}

TEST_F(ObsTest, SpansMergeAcrossThreads) {
  auto work = [] {
    ScopedSpan span("test.worker");
    ScopedSpan child("test.worker-child");
  };
  std::thread a(work), b(work);
  a.join();
  b.join();
  work();  // and once on this thread
  const SpanNode root = SnapshotSpans();
  EXPECT_EQ(FindChild(root, "test.worker").count, 3u);
  EXPECT_EQ(FindChild(FindChild(root, "test.worker"), "test.worker-child")
                .count,
            3u);
}

TEST_F(ObsTest, RecordSpanFilesUnderCurrentSpan) {
  {
    ScopedSpan outer("test.record-outer");
    RecordSpan("test.recorded", 12.5);
    RecordSpan("test.recorded", 2.5);
  }
  const SpanNode outer =
      FindChild(SnapshotSpans(), "test.record-outer");
  const SpanNode recorded = FindChild(outer, "test.recorded");
  EXPECT_EQ(recorded.count, 2u);
  EXPECT_DOUBLE_EQ(recorded.total_ms, 15.0);
}

TEST_F(ObsTest, DisabledSpanStaysInertAcrossReenable) {
  SetEnabled(false);
  {
    ScopedSpan span("test.inert");
    SetEnabled(true);  // re-enabled before the span closes
  }
  for (const SpanNode& child : SnapshotSpans().children) {
    EXPECT_NE(child.name, "test.inert");
  }
}

TEST(Json, DumpsScalarsAndContainersInOrder) {
  Json doc = Json::Object();
  doc.Set("b", 2);
  doc.Set("a", 1);  // insertion order, not key order
  doc.Set("flag", true);
  doc.Set("pi", 0.5);
  doc.Set("none", Json());
  Json arr = Json::Array();
  arr.Push("x");
  arr.Push(std::uint64_t{18446744073709551615ull});
  doc.Set("arr", std::move(arr));
  EXPECT_EQ(doc.Dump(0),
            "{\"b\":2,\"a\":1,\"flag\":true,\"pi\":0.5,"
            "\"none\":null,\"arr\":[\"x\",18446744073709551615]}\n");
}

TEST(Json, EscapesStringsPerRfc8259) {
  EXPECT_EQ(Json::Escape("plain"), "plain");
  EXPECT_EQ(Json::Escape("quote\" slash\\"), "quote\\\" slash\\\\");
  EXPECT_EQ(Json::Escape("tab\tnewline\n"), "tab\\tnewline\\n");
  EXPECT_EQ(Json::Escape(std::string_view("ctrl\x01", 5)), "ctrl\\u0001");
}

TEST(Json, DoublesKeepTheirTypeAndRoundTrip) {
  // Integral-valued doubles keep a ".0" so consumers see a float; every
  // finite double round-trips through std::stod.
  EXPECT_EQ(Json(2.0).Dump(0), "2.0\n");
  const double v = 80.604142;
  EXPECT_EQ(std::stod(Json(v).Dump(0)), v);
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).Dump(0), "null\n");
}

TEST_F(ObsTest, ObsDocumentHasTheStableSchemaPrefix) {
  const Counter c("test.doc-counter");
  c.Add(9);
  {
    ScopedSpan span("test.doc-span");
  }
  const Json doc = ObsDocument("unit-test");
  const std::string dumped = doc.Dump();
  EXPECT_NE(dumped.find("\"schema\": \"wrbpg-obs-v1\""), std::string::npos);
  EXPECT_NE(dumped.find("\"tool\": \"unit-test\""), std::string::npos);
  EXPECT_NE(dumped.find("\"test.doc-counter\": 9"), std::string::npos);
  EXPECT_NE(dumped.find("\"test.doc-span\""), std::string::npos);
  EXPECT_NE(dumped.find("\"counters\""), std::string::npos);
  EXPECT_NE(dumped.find("\"gauges\""), std::string::npos);
  EXPECT_NE(dumped.find("\"spans\""), std::string::npos);
}

TEST_F(ObsTest, RenderReportShowsSpansAndMetrics) {
  const Counter c("test.report-counter");
  c.Add(3);
  {
    ScopedSpan span("test.report-span");
  }
  const std::string report = RenderReport();
  EXPECT_NE(report.find("test.report-span"), std::string::npos);
  EXPECT_NE(report.find("test.report-counter = 3"), std::string::npos);
}

// search.waves_fanned mirrors SearchStats::waves_fanned: zero for a
// sequential search, and positive once a multi-threaded dijkstra search
// grows a wave past FanOutCutoff and sends it to the pool.
TEST_F(ObsTest, SearchCountsFannedWaves) {
  const TreeGraph tree = BuildPerfectTree(2, 3);
  const Weight budget = 2 * MinValidBudget(tree.graph);
  const BruteForceScheduler scheduler(tree.graph);
  BruteForceOptions options;
  options.engine = SearchEngine::kDijkstra;
  SearchStats stats;
  options.stats = &stats;

  options.threads = 1;
  scheduler.Run(budget, options);
  EXPECT_EQ(stats.waves_fanned, 0u);
  EXPECT_EQ(ReadMetric("search.waves_fanned"), 0u);

  ResetAll();
  options.threads = 2;
  scheduler.Run(budget, options);
  ASSERT_GE(stats.max_frontier, FanOutCutoff(2));
  EXPECT_EQ(ReadMetric("search.waves_fanned"), stats.waves_fanned);
  EXPECT_LT(stats.waves_fanned, stats.waves);
  if (std::thread::hardware_concurrency() > 1) {
    EXPECT_GT(stats.waves_fanned, 0u);
  }
}

}  // namespace
}  // namespace wrbpg::obs
