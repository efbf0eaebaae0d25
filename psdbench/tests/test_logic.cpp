// The benchmark's own rules: percentile support, the knee search, request
// conservation and span self time.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "logic.hpp"

namespace psdbench {
namespace {

TEST(Percentile, SamplesBeyondUsesCeilingRank) {
  EXPECT_EQ(samples_beyond(100, 9900), 1u);   // rank 99 of 100
  EXPECT_EQ(samples_beyond(1000, 9900), 10u);
  EXPECT_EQ(samples_beyond(999, 9900), 9u);  // rank ceil(989.01) = 990
  EXPECT_EQ(samples_beyond(10000, 9990), 10u);
  EXPECT_EQ(samples_beyond(0, 5000), 0u);
}

TEST(Percentile, HighestSupportedNeedsTenBeyond) {
  EXPECT_EQ(highest_supported_percentile(19).percent, 0.0);  // p50: 9 beyond
  EXPECT_EQ(highest_supported_percentile(20).percent, 50.0);
  EXPECT_EQ(highest_supported_percentile(99).percent, 50.0);  // p90: 9 beyond
  EXPECT_EQ(highest_supported_percentile(100).percent, 90.0);
  EXPECT_EQ(highest_supported_percentile(999).percent, 90.0);
  const SupportedPercentile p99 = highest_supported_percentile(1000);
  EXPECT_EQ(p99.percent, 99.0);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_EQ(highest_supported_percentile(10000).percent, 99.9);
  EXPECT_EQ(highest_supported_percentile(100000).percent, 99.99);
  EXPECT_EQ(highest_supported_percentile(10'000'000).percent, 99.99);
  EXPECT_EQ(highest_supported_percentile(1000, 11).percent, 90.0);
}

TEST(Knee, FindsThresholdWithinBisectionResolution) {
  const double knee = 2.77e6;
  const KneeResult r = knee_search(450e3, 1.5, 8, 4,
                                   [&](double rate) { return rate <= knee; });
  EXPECT_TRUE(r.bracketed);
  EXPECT_LE(r.rate, knee);
  // Four geometric bisections of a x1.5 bracket: within 1.5^(1/16).
  EXPECT_GT(r.rate, knee / std::pow(1.5, 1.0 / 16.0));
  // 1 start + 5 up-steps (the 5th fails) + 4 bisections.
  EXPECT_EQ(r.rungs.size(), 10u);
  for (const Rung& g : r.rungs) EXPECT_EQ(g.pass, g.rate <= knee);
}

TEST(Knee, SearchesDownWhenTheStartFails) {
  const KneeResult r = knee_search(1000.0, 2.0, 8, 0,
                                   [](double rate) { return rate <= 300.0; });
  EXPECT_TRUE(r.bracketed);
  EXPECT_DOUBLE_EQ(r.rate, 250.0);
  ASSERT_EQ(r.rungs.size(), 3u);  // 1000 fail, 500 fail, 250 pass
  EXPECT_FALSE(r.rungs[1].pass);
  EXPECT_TRUE(r.rungs[2].pass);
}

TEST(Knee, UnbracketedWhenNothingFailsOrNothingPasses) {
  const KneeResult up = knee_search(1.0, 2.0, 3, 4, [](double) { return true; });
  EXPECT_FALSE(up.bracketed);
  EXPECT_DOUBLE_EQ(up.rate, 8.0);  // capped after 3 steps, no bisection
  EXPECT_EQ(up.rungs.size(), 4u);
  const KneeResult none =
      knee_search(1.0, 2.0, 3, 4, [](double) { return false; });
  EXPECT_FALSE(none.bracketed);
  EXPECT_EQ(none.rate, 0.0);
  EXPECT_EQ(none.rungs.size(), 4u);
}

TEST(Conservation, BalancedFlowsHaveNoResidual) {
  const ClassFlow f{1000, 700, 10, 250, 25, 15};
  EXPECT_EQ(conservation_residual(f), 0);
  std::string why;
  EXPECT_EQ(conservation_violations({f, f}, &why), 0u);
  EXPECT_TRUE(why.empty());
}

TEST(Conservation, NamesTheFirstUnbalancedClass) {
  const ClassFlow ok{10, 10, 0, 0, 0, 0};
  const ClassFlow lost{10, 7, 0, 0, 0, 0};    // 3 unaccounted
  const ClassFlow extra{10, 9, 1, 1, 1, 0};   // 2 counted twice
  EXPECT_EQ(conservation_residual(lost), 3);
  EXPECT_EQ(conservation_residual(extra), -2);
  std::string why;
  EXPECT_EQ(conservation_violations({ok, lost, extra}, &why), 5u);
  EXPECT_EQ(why, "class 1 residual 3");
}

TEST(Spans, SelfTimeSubtractsDirectChildrenOnly) {
  // root [0,100) > child a [10,40) > grandchild [15,25); child b [50,90).
  const std::vector<Span> spans = {
      {0, -1, 0, 100}, {1, 0, 10, 40}, {2, 1, 15, 25}, {1, 0, 50, 90}};
  const std::vector<double> self = self_times_ns(spans, 3);
  EXPECT_DOUBLE_EQ(self[0], 100 - 30 - 40);
  EXPECT_DOUBLE_EQ(self[1], (30 - 10) + 40);
  EXPECT_DOUBLE_EQ(self[2], 10);
  // Self times partition the roots' wall time.
  EXPECT_DOUBLE_EQ(self[0] + self[1] + self[2], 100);
}

TEST(Spans, SiblingRootsAddUp) {
  const std::vector<Span> spans = {{0, -1, 0, 5}, {0, -1, 10, 12}};
  EXPECT_DOUBLE_EQ(self_times_ns(spans, 1)[0], 7);
}

TEST(Digest, OrderAndContentMatter) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("ab", fnv1a("c")), fnv1a("c", fnv1a("ab")));
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
}

}  // namespace
}  // namespace psdbench
