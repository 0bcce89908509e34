#include "workload/distributions.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace dcqcn {
namespace {

TEST(EmpiricalSizeCdf, SamplesWithinRange) {
  auto cdf = EmpiricalSizeCdf::StorageBackend();
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const Bytes b = cdf.Sample(rng);
    EXPECT_GE(b, 1);
    EXPECT_LE(b, 4000 * kKB);
  }
}

TEST(EmpiricalSizeCdf, QuantilesMatchKnots) {
  auto cdf = EmpiricalSizeCdf::StorageBackend();
  Rng rng(2);
  std::vector<Bytes> samples;
  for (int i = 0; i < 50000; ++i) samples.push_back(cdf.Sample(rng));
  std::sort(samples.begin(), samples.end());
  // Median near 32 KB (within the interpolated decade).
  const Bytes median = samples[samples.size() / 2];
  EXPECT_GT(median, 16 * kKB);
  EXPECT_LT(median, 64 * kKB);
  // 90th percentile near 1 MB.
  const Bytes p90 = samples[samples.size() * 9 / 10];
  EXPECT_GT(p90, 500 * kKB);
  EXPECT_LT(p90, 1500 * kKB);
}

TEST(EmpiricalSizeCdf, HeavyTailCarriesBytes) {
  // The top 10% of transfers should carry the majority of bytes.
  auto cdf = EmpiricalSizeCdf::StorageBackend();
  Rng rng(3);
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) {
    samples.push_back(static_cast<double>(cdf.Sample(rng)));
  }
  std::sort(samples.begin(), samples.end());
  double total = 0, tail = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    total += samples[i];
    if (i >= samples.size() * 9 / 10) tail += samples[i];
  }
  EXPECT_GT(tail / total, 0.5);
}

TEST(EmpiricalSizeCdf, ScaledKeepsShape) {
  auto big = EmpiricalSizeCdf::StorageBackend();
  auto small = EmpiricalSizeCdf::StorageBackendScaled(0.1);
  EXPECT_NEAR(static_cast<double>(small.MeanApprox()) /
                  static_cast<double>(big.MeanApprox()),
              0.1, 0.03);
}

TEST(EmpiricalSizeCdf, TinyScaleStillStrictlyIncreasing) {
  // The 1 KB floor must not produce duplicate knots (ctor CHECKs).
  auto cdf = EmpiricalSizeCdf::StorageBackendScaled(1e-4);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) EXPECT_GE(cdf.Sample(rng), 1 * kKB);
}

TEST(EmpiricalSizeCdf, Deterministic) {
  auto cdf = EmpiricalSizeCdf::StorageBackend();
  Rng a(5), b(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(cdf.Sample(a), cdf.Sample(b));
}

TEST(EmpiricalSizeCdf, RejectsBadKnots) {
  EXPECT_DEATH(EmpiricalSizeCdf({}), "");
  EXPECT_DEATH(EmpiricalSizeCdf({{0.5, 1000}}), "");
  EXPECT_DEATH(EmpiricalSizeCdf({{0.5, 1000}, {0.4, 2000}}), "");
  EXPECT_DEATH(EmpiricalSizeCdf({{0.5, 1000}, {1.0, 500}}), "");
  // Duplicate probability, last knot != 1.0, sub-byte sizes.
  EXPECT_DEATH(EmpiricalSizeCdf({{0.5, 1000}, {0.5, 2000}}), "");
  EXPECT_DEATH(EmpiricalSizeCdf({{0.5, 1000}, {0.9, 2000}}), "");
  EXPECT_DEATH(EmpiricalSizeCdf({{0.5, 0}, {1.0, 2000}}), "");
}

TEST(EmpiricalSizeCdf, BoundaryMassBelowFirstKnotIsExact) {
  // All probability mass at or below the first knot returns the first knot's
  // size exactly (p -> 0 clamps, no extrapolation below the head), and no
  // draw ever exceeds the last knot (p -> 1 clamps to the tail).
  EmpiricalSizeCdf cdf({{0.5, 1000}, {1.0, 100000}});
  Rng rng(11);
  int head = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const Bytes b = cdf.Sample(rng);
    EXPECT_GE(b, 1000);
    EXPECT_LE(b, 100000);
    if (b == 1000) ++head;
  }
  // ~50% of u-draws land at or below p=0.5 and must clamp to exactly 1000.
  EXPECT_GT(head, kDraws * 45 / 100);
  EXPECT_LT(head, kDraws * 55 / 100);
}

TEST(EmpiricalSizeCdf, InterpolatesInLogSpaceWithinADecade) {
  // One segment spanning a full decade: the median draw sits at the
  // *geometric* midpoint sqrt(1000 * 10000) ~= 3162, not the arithmetic
  // midpoint 5500 — the signature of log-space interpolation.
  EmpiricalSizeCdf cdf({{0.0, 1000}, {1.0, 10000}});
  Rng rng(12);
  std::vector<Bytes> samples;
  for (int i = 0; i < 50000; ++i) samples.push_back(cdf.Sample(rng));
  std::sort(samples.begin(), samples.end());
  const Bytes median = samples[samples.size() / 2];
  EXPECT_GT(median, 3000);
  EXPECT_LT(median, 3350);
}

TEST(EmpiricalSizeCdf, MeanApproxIsDeterministicAndSeedStable) {
  auto cdf = EmpiricalSizeCdf::StorageBackend();
  // Same seed => bit-identical estimate (MeanApprox owns its Rng; it never
  // draws from a caller's stream).
  EXPECT_EQ(cdf.MeanApprox(20000, 7), cdf.MeanApprox(20000, 7));
  // Different seeds estimate the same underlying mean within a few percent.
  const double a = static_cast<double>(cdf.MeanApprox(20000, 1));
  const double b = static_cast<double>(cdf.MeanApprox(20000, 99));
  EXPECT_NEAR(a / b, 1.0, 0.05);
}

TEST(EmpiricalSizeCdf, MeanApproxMemoMatchesAFreshEstimateOnEveryThread) {
  // The estimate is memoized per (knots, samples, seed); a cached answer
  // must equal the direct draw loop bit for bit, however many threads ask.
  auto cdf = EmpiricalSizeCdf::ByName("alibaba-storage", 0.37);
  auto fresh = [&cdf](int samples, uint64_t seed) {
    Rng rng(seed);
    double sum = 0;
    for (int i = 0; i < samples; ++i) {
      sum += static_cast<double>(cdf.Sample(rng));
    }
    return static_cast<Bytes>(sum / samples);
  };
  std::vector<Bytes> seen(4, -1);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back(
        [&cdf, &seen, t] { seen[t] = cdf.MeanApprox(3000, 5); });
  }
  for (std::thread& t : threads) t.join();
  for (Bytes b : seen) EXPECT_EQ(b, fresh(3000, 5));
  // Warm repeats, a copy of the distribution, and neighbouring keys.
  EXPECT_EQ(cdf.MeanApprox(3000, 5), fresh(3000, 5));
  EXPECT_EQ(EmpiricalSizeCdf::ByName("alibaba-storage", 0.37).MeanApprox(
                3000, 5),
            fresh(3000, 5));
  EXPECT_EQ(cdf.MeanApprox(3000, 6), fresh(3000, 6));
  EXPECT_EQ(cdf.MeanApprox(2999, 5), fresh(2999, 5));
}

TEST(EmpiricalSizeCdf, ByNameCoversEveryRegisteredName) {
  for (const std::string& name : EmpiricalSizeCdf::Names()) {
    auto cdf = EmpiricalSizeCdf::ByName(name);
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) EXPECT_GE(cdf.Sample(rng), 1);
  }
  EXPECT_DEATH(EmpiricalSizeCdf::ByName("no-such-distribution"), "");
}

TEST(EmpiricalSizeCdf, NamedDistributionsMatchPublishedShape) {
  Rng rng(14);
  auto websearch = EmpiricalSizeCdf::WebSearch();
  std::vector<Bytes> ws;
  for (int i = 0; i < 50000; ++i) ws.push_back(websearch.Sample(rng));
  std::sort(ws.begin(), ws.end());
  // Median ~29 KB, max clamped to the 30 MB update tail.
  EXPECT_GT(ws[ws.size() / 2], 15 * kKB);
  EXPECT_LT(ws[ws.size() / 2], 60 * kKB);
  EXPECT_LE(ws.back(), 30000 * kKB);

  auto alibaba = EmpiricalSizeCdf::AlibabaStorage();
  std::vector<Bytes> ali;
  for (int i = 0; i < 50000; ++i) ali.push_back(alibaba.Sample(rng));
  std::sort(ali.begin(), ali.end());
  // Block-IO dominated: p75 comfortably inside the 64 KB knot, tail to 2 MB
  // compactions (the empirical p80 straddles the knot, so test p75).
  EXPECT_LE(ali[ali.size() * 3 / 4], 64 * kKB);
  EXPECT_LE(ali.back(), 2000 * kKB);
}

TEST(EmpiricalSizeCdf, ByNameScalingFloorsAtOneKbAndStaysMonotone) {
  // Extreme compression collapses every knot toward the 1 KB floor; the
  // +1-byte monotonicity repair must keep the ctor CHECKs satisfied for
  // every named distribution.
  for (const std::string& name : EmpiricalSizeCdf::Names()) {
    auto cdf = EmpiricalSizeCdf::ByName(name, 1e-6);
    Rng rng(15);
    for (int i = 0; i < 1000; ++i) EXPECT_GE(cdf.Sample(rng), 1 * kKB);
  }
  // Moderate scaling preserves shape: scaled mean tracks the factor.
  auto full = EmpiricalSizeCdf::ByName("websearch");
  auto tenth = EmpiricalSizeCdf::ByName("websearch", 0.1);
  EXPECT_NEAR(static_cast<double>(tenth.MeanApprox()) /
                  static_cast<double>(full.MeanApprox()),
              0.1, 0.03);
}

}  // namespace
}  // namespace dcqcn
