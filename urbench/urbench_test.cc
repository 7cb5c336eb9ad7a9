// Tests of the benchmark's own rules: percentile support, span self time,
// and the determinism of the generated request streams.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "report.h"
#include "spans.h"
#include "workload.h"

namespace urbench {
namespace {

TEST(TailSupportTest, NeedsTenSamplesBeyondThePercentile) {
  EXPECT_TRUE(TailSupported(1000, 0.99));
  EXPECT_FALSE(TailSupported(999, 0.99));
  EXPECT_TRUE(TailSupported(100, 0.90));
  EXPECT_FALSE(TailSupported(99, 0.90));
  EXPECT_TRUE(TailSupported(20, 0.50));
  EXPECT_FALSE(TailSupported(0, 0.50));
}

TEST(TailSupportTest, HighestSupportedQuantileLeavesTenBeyond) {
  EXPECT_DOUBLE_EQ(SupportedTailQuantile(5000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(SupportedTailQuantile(400, 0.99), 0.975);
  EXPECT_TRUE(TailSupported(400, SupportedTailQuantile(400, 0.99)));
  EXPECT_DOUBLE_EQ(SupportedTailQuantile(9, 0.99), 0.0);
}

TEST(TailSupportTest, QuantileInterpolatesBetweenOrderStatistics) {
  std::vector<double> values;
  for (int i = 100; i >= 0; --i) values.push_back(i);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0}, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

Span MakeSpan(std::int64_t start, std::int64_t end) {
  Span span;
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

TEST(SelfTimeTest, SubtractsTheUnionOfChildIntervals) {
  const Span parent = MakeSpan(0, 100);
  EXPECT_EQ(SelfTimeNs(parent, {}), 100);
  // [10,30] and [20,40] overlap: they cover 30, not 40.
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(10, 30), MakeSpan(20, 40)}), 70);
  // Children are clipped to the parent: [-5,5] covers 5, [90,120] 10.
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(90, 120), MakeSpan(10, 30),
                                MakeSpan(-5, 5), MakeSpan(20, 40)}),
            55);
  // Nested and duplicated children count once.
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(10, 60), MakeSpan(20, 30),
                                MakeSpan(10, 60)}),
            50);
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(0, 100)}), 0);
  EXPECT_EQ(SelfTimeNs(parent, {MakeSpan(100, 200)}), 100);
}

TEST(SelfTimeTest, SpanLogFindsChildrenByParent) {
  SpanLog log;
  const std::uint64_t root = SpanLog::NewId();
  log.Add("child", 10, 20, root);
  log.Add("other", 10, 20, 0);
  log.Add("root", 0, 50, 0, "", root);
  ASSERT_NE(log.Find(root), nullptr);
  ASSERT_EQ(log.ChildrenOf(root).size(), 1u);
  EXPECT_EQ(SelfTimeNs(*log.Find(root), log.ChildrenOf(root)), 40);
}

std::string StreamBytes(Workload workload, std::uint64_t seed, int client,
                        const std::vector<Brush>* pool, int count) {
  RequestStream stream(workload, seed, client, pool);
  std::string bytes;
  for (int i = 0; i < count; ++i) {
    bytes += HttpPost("/v1/query", stream.Next().body, "");
  }
  return bytes;
}

TEST(RequestStreamTest, SameSeedGivesByteIdenticalStream) {
  for (const Workload workload :
       {Workload::kSession, Workload::kCrowd, Workload::kLive}) {
    SCOPED_TRACE(WorkloadName(workload));
    const std::vector<Brush> pool_a = CrowdPool(7, 128);
    const std::vector<Brush> pool_b = CrowdPool(7, 128);
    for (int client = 0; client < 4; ++client) {
      const std::string a = StreamBytes(workload, 7, client, &pool_a, 400);
      EXPECT_EQ(a, StreamBytes(workload, 7, client, &pool_b, 400));
      EXPECT_NE(a, StreamBytes(workload, 8, client, &pool_a, 400));
    }
  }
}

TEST(RequestStreamTest, IngestPlanIsSeedDeterministic) {
  const IngestPlan a =
      MakeIngestPlan(3, "live", 20, 50, kMonthEnd, kLiveSpanSeconds);
  const IngestPlan b =
      MakeIngestPlan(3, "live", 20, 50, kMonthEnd, kLiveSpanSeconds);
  const IngestPlan c =
      MakeIngestPlan(4, "live", 20, 50, kMonthEnd, kLiveSpanSeconds);
  EXPECT_EQ(a.bodies, b.bodies);
  EXPECT_NE(a.bodies, c.bodies);
  ASSERT_EQ(a.rows.size(), 1000u);
  for (std::size_t i = 1; i < a.rows.size(); ++i) {
    EXPECT_LE(a.rows.t(i - 1), a.rows.t(i));  // batches arrive in time order
  }
}

TEST(RequestStreamTest, IngestPlanStaysInsideTheLiveWindow) {
  // Short and long runs alike append only rows the live readers brush.
  for (const std::size_t batches : {10u, 400u, 6000u}) {
    const IngestPlan plan =
        MakeIngestPlan(5, "live", batches, 50, kMonthEnd, kLiveSpanSeconds);
    ASSERT_EQ(plan.rows.size(), batches * 50);
    for (std::size_t i = 0; i < plan.rows.size(); ++i) {
      ASSERT_GE(plan.rows.t(i), kLiveQueryBegin);
      ASSERT_LT(plan.rows.t(i), kLiveQueryEnd);
    }
    // The appended rows cover the whole appended day, not a prefix of it.
    EXPECT_GE(plan.rows.t(plan.rows.size() - 1),
              kLiveQueryEnd - kLiveSpanSeconds / 4);
  }
}

TEST(RequestStreamTest, FreshStatesNeverRepeatOrHitThePool) {
  const std::vector<Brush> pool = CrowdPool(11, 128);
  std::set<std::string> pooled;
  for (const Brush& brush : pool) pooled.insert(brush.Body());
  EXPECT_EQ(pooled.size(), pool.size());
  std::set<std::string> fresh;
  std::size_t fresh_count = 0;
  for (int client = 0; client < 4; ++client) {
    RequestStream stream(Workload::kCrowd, 11, client, &pool);
    for (int i = 0; i < 2000; ++i) {
      const QueryRequest request = stream.Next();
      if (request.pooled) {
        EXPECT_EQ(pooled.count(request.body), 1u);
        continue;
      }
      ++fresh_count;
      EXPECT_EQ(pooled.count(request.body), 0u) << request.body;
      fresh.insert(request.body);
    }
  }
  EXPECT_EQ(fresh.size(), fresh_count);  // unique across all four clients
  // The revisit share is set by the generator (probability 0.5).
  EXPECT_NEAR(1.0 - fresh_count / 8000.0, RequestStream::kRevisitProbability,
              0.03);
}

}  // namespace
}  // namespace urbench
