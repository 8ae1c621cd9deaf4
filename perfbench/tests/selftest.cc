// Unit tests of the benchmark's own logic (src/bench_lib.h): the oracle and
// reply digest, the percentile rule, the acknowledgment window, span self
// time and the layout tiling check.
#include <gtest/gtest.h>

#include <random>

#include "bench_lib.h"

namespace perfbench {
namespace {

TEST(Oracle, MatchesBruteForceOnSmallColumn) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> ra(110.0, 260.0);
  std::vector<std::pair<double, int64_t>> rows;
  for (int64_t i = 0; i < 500; ++i) rows.push_back({ra(rng), 1000 + i});
  rows.push_back(rows[3]);  // a duplicate row and a duplicate ra
  rows.push_back({rows[5].first, 42});
  const Oracle oracle(rows);
  for (int q = 0; q < 300; ++q) {
    double lo = ra(rng), hi = ra(rng);
    if (q % 3 == 0) lo = hi = rows[q % rows.size()].first;  // point query
    if (lo > hi) std::swap(lo, hi);
    std::vector<int64_t> want;
    for (const auto& r : rows) {
      if (lo <= r.first && r.first <= hi) want.push_back(r.second);
    }
    std::sort(want.begin(), want.end());
    EXPECT_EQ(oracle.Count(lo, hi), want.size());
    std::vector<int64_t> got;
    oracle.ForEach(lo, hi, [&](int64_t v) { got.push_back(v); });
    Digest reply, oracle_digest;
    for (auto it = got.rbegin(); it != got.rend(); ++it) reply.Add(*it);  // any order
    for (int64_t v : want) oracle_digest.Add(v);
    EXPECT_TRUE(reply == oracle_digest);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);
    if (!want.empty()) {
      reply.Add(want[0]);  // one extra row
      EXPECT_FALSE(reply == oracle_digest);
    }
  }
  EXPECT_EQ(oracle.Count(300.0, 400.0), 0u);
  EXPECT_EQ(oracle.Count(0.0, 1000.0), rows.size());
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50.0), 50.0);
  EXPECT_EQ(Percentile(v, 99.0), 99.0);
  EXPECT_EQ(Percentile(v, 100.0), 100.0);
  EXPECT_EQ(Percentile({3.0}, 99.0), 3.0);
}

TEST(Percentile, MedianOnlyBelowFortySamples) {
  EXPECT_EQ(HighestSupportedPercentile(0), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(39), 50.0);
  // 40 samples: the 75th percentile is rank 30, 10 samples beyond it.
  EXPECT_EQ(HighestSupportedPercentile(40), 75.0);
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(99), 75.0);    // p90 rank 90, 9 beyond
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);   // p90 rank 90, 10 beyond
  EXPECT_EQ(HighestSupportedPercentile(199), 90.0);   // p95 rank 190, 9 beyond
  EXPECT_EQ(HighestSupportedPercentile(200), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 95.0);   // p99 rank 990, 9 beyond
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);  // p99 rank 990, 10 beyond
  EXPECT_EQ(HighestSupportedPercentile(9999), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
}

TEST(AckWindow, BoundsConcurrentInserts) {
  // Rows sorted by ra; ticks: sent < acked.
  const std::vector<InsertedRow> rows = {
      {150.0, 1, 4},   // acked before the select is sent (tick 5): must count
      {151.0, 6, 9},   // sent before the reply (tick 8), acked after: may count
      {152.0, 9, 12},  // sent after the reply: must not count
      {300.0, 1, 2},   // outside the range
  };
  const CountWindow w = AckWindow(rows, 10, 140.0, 160.0, 5, 8);
  EXPECT_EQ(w.lo, 11u);
  EXPECT_EQ(w.hi, 12u);
  EXPECT_FALSE(w.Contains(10));
  EXPECT_TRUE(w.Contains(11));
  EXPECT_TRUE(w.Contains(12));
  EXPECT_FALSE(w.Contains(13));
  // Inclusive bounds, and nothing concurrent: the window is one value.
  const CountWindow exact = AckWindow(rows, 0, 150.0, 151.0, 100, 101);
  EXPECT_EQ(exact.lo, 2u);
  EXPECT_EQ(exact.hi, 2u);
}

TEST(Spans, SelfTimeSubtractsCoveredChildTime) {
  std::vector<Span> s;
  s.push_back({"root", 0, 100, -1, 1});
  s.push_back({"a", 10, 30, 0, 1});
  s.push_back({"b", 20, 50, 0, 1});   // overlaps a: 10..50 covered once
  s.push_back({"c", 90, 120, 0, 1});  // reaches past the root: clipped to 90..100
  s.push_back({"a.child", 12, 18, 1, 1});
  s.push_back({"other", 0, 7, -1, 2});
  const std::vector<int64_t> self = SelfTimes(s);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
  EXPECT_EQ(self[5], 7);
}

TEST(Layout, TilingCheck) {
  EXPECT_EQ(CheckTiling({{0, 1, 5}, {1, 3, 0}, {3, 4, 2}}, 0, 4), "");
  EXPECT_EQ(CheckTiling({{1, 3, 0}, {0, 1, 5}, {3, 4, 2}}, 0, 4), "");  // any order
  EXPECT_NE(CheckTiling({{0, 1, 5}, {2, 4, 2}}, 0, 4), "");              // gap
  EXPECT_NE(CheckTiling({{0, 2, 5}, {1, 4, 2}}, 0, 4), "");              // overlap
  EXPECT_NE(CheckTiling({{0, 1, 5}, {1, 3, 2}}, 0, 4), "");              // short
  EXPECT_NE(CheckTiling({}, 0, 4), "");
}

}  // namespace
}  // namespace perfbench
