#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include "runner/runner.h"

namespace dcqcn {
namespace {

// --- LazyMt19937_64 is std::mt19937_64, output for output ---

// Draw counts that straddle the lazy/standard hand-off (156) and the
// standard engine's own twists (312, 624).
constexpr int kLengths[] = {1, 155, 156, 157, 311, 312, 313, 624, 625};

std::vector<uint64_t> EngineSeeds() {
  std::vector<uint64_t> seeds = {0, 1, 5489, ~uint64_t{0}};
  for (uint64_t base : {1ull, 7ull, 42ull}) {
    for (uint64_t t = 0; t < 4; ++t) {
      seeds.push_back(runner::DeriveTrialSeed(base, t));
    }
  }
  return seeds;
}

// SenderQp's per-flow seed.
uint64_t QpSeed(uint64_t flow_id) { return flow_id * 2654435761ULL + 12345; }

// Asserts the next `n` outputs of both engines agree.
template <typename A, typename B>
void ExpectSameOutputs(A& a, B& b, int n, uint64_t seed) {
  for (int i = 0; i < n; ++i) {
    const uint64_t x = a();
    const uint64_t y = b();
    ASSERT_EQ(x, y) << "seed " << seed << " output " << i;
  }
}

TEST(LazyMt, MatchesStdForEverySeedAndLength) {
  for (uint64_t seed : EngineSeeds()) {
    for (int n : kLengths) {
      LazyMt19937_64 lazy(seed);
      std::mt19937_64 ref(seed);
      ExpectSameOutputs(lazy, ref, n, seed);
    }
  }
}

TEST(LazyMt, MatchesStdForEveryQpSeed) {
  for (uint64_t id = 0; id <= 10000; ++id) {
    const uint64_t seed = QpSeed(id);
    LazyMt19937_64 lazy(seed);
    std::mt19937_64 ref(seed);
    // Flow ids are cheap to cover past the hand-off; every 97th goes past
    // the standard engine's second twist too.
    ExpectSameOutputs(lazy, ref, id % 97 == 0 ? 625 : 157, seed);
  }
}

TEST(LazyMt, DefaultAndReseedMatchStd) {
  LazyMt19937_64 lazy;
  std::mt19937_64 ref;
  ExpectSameOutputs(lazy, ref, 400, LazyMt19937_64::default_seed);
  lazy.seed(99);
  ref.seed(99);
  ExpectSameOutputs(lazy, ref, 400, 99);
}

TEST(LazyMt, CopiesAndMovesContinueTheStream) {
  for (int at : {0, 1, 100, 155, 156, 157, 400}) {
    LazyMt19937_64 lazy(7);
    std::mt19937_64 ref(7);
    ExpectSameOutputs(lazy, ref, at, 7);
    LazyMt19937_64 copy(lazy);
    LazyMt19937_64 assigned(1);
    assigned = lazy;
    std::mt19937_64 ref_copy(ref);
    std::mt19937_64 ref_assigned(ref);
    // The original and its copies advance independently.
    ExpectSameOutputs(lazy, ref, 300, 7);
    ExpectSameOutputs(copy, ref_copy, 300, 7);
    ExpectSameOutputs(assigned, ref_assigned, 300, 7);
    LazyMt19937_64 moved(std::move(copy));
    ExpectSameOutputs(moved, ref_copy, 300, 7);
    LazyMt19937_64 move_assigned(3);
    move_assigned = std::move(moved);
    ExpectSameOutputs(move_assigned, ref_copy, 300, 7);
  }
}

TEST(LazyMt, DiscardMatchesStd) {
  for (int pre : {0, 10, 155, 156, 200}) {
    for (unsigned long long z : {0ull, 1ull, 145ull, 146ull, 156ull, 157ull,
                                 312ull, 1000ull}) {
      LazyMt19937_64 lazy(11);
      std::mt19937_64 ref(11);
      ExpectSameOutputs(lazy, ref, pre, 11);
      lazy.discard(z);
      ref.discard(z);
      ExpectSameOutputs(lazy, ref, 200, 11);
    }
  }
}

TEST(LazyMt, ShuffleThroughRngEngineMatchesStd) {
  for (uint64_t seed : EngineSeeds()) {
    for (int n : {5, 64, 300}) {
      std::vector<int> a(static_cast<size_t>(n));
      std::iota(a.begin(), a.end(), 0);
      std::vector<int> b = a;
      Rng rng(seed);
      std::mt19937_64 ref(seed);
      std::shuffle(a.begin(), a.end(), rng.engine());
      std::shuffle(b.begin(), b.end(), ref);
      EXPECT_EQ(a, b) << "seed " << seed << " n " << n;
      EXPECT_EQ(rng.NextU64(), ref());
    }
  }
}

// Rng's helpers as they read over std::mt19937_64 — the reference the lazy
// engine must reproduce bit for bit.
struct StdRng {
  explicit StdRng(uint64_t seed) : engine(seed) {}
  double Uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine);
  }
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine);
  }
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine);
  }
  double Exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine);
  }
  double Pareto(double x_m, double a) {
    double u = Uniform();
    if (u >= 1.0) u = std::nextafter(1.0, 0.0);
    return x_m / std::pow(1.0 - u, 1.0 / a);
  }
  double LogNormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine);
  }
  std::mt19937_64 engine;
};

TEST(LazyMt, RngHelpersMatchStdEngine) {
  std::vector<uint64_t> seeds = EngineSeeds();
  for (uint64_t id : {0ull, 1ull, 77ull, 9999ull}) seeds.push_back(QpSeed(id));
  for (uint64_t seed : seeds) {
    Rng rng(seed);
    StdRng ref(seed);
    // Mixed helpers, so the draw count crosses 156 and 312 mid-sequence
    // (LogNormal takes two draws per call).
    for (int i = 0; i < 160; ++i) {
      ASSERT_EQ(rng.Uniform(), ref.Uniform()) << seed << " " << i;
      ASSERT_EQ(rng.Uniform(-3.0, 5.0), ref.Uniform(-3.0, 5.0));
      ASSERT_EQ(rng.UniformInt(0, 1000), ref.UniformInt(0, 1000));
      ASSERT_EQ(rng.UniformInt(-5, 5), ref.UniformInt(-5, 5));
      ASSERT_EQ(rng.Chance(0.3), ref.Uniform() < 0.3);
      ASSERT_EQ(rng.Exponential(2.5), ref.Exponential(2.5));
      ASSERT_EQ(rng.Pareto(2.0, 1.2), ref.Pareto(2.0, 1.2));
      ASSERT_EQ(rng.LogNormal(1.0, 0.5), ref.LogNormal(1.0, 0.5));
    }
    EXPECT_EQ(rng.NextU64(), ref.engine());
  }
}

TEST(LazyMt, LazyStateIsSmall) {
  EXPECT_LE(sizeof(LazyMt19937_64), 48u);
  EXPECT_LT(sizeof(Rng), sizeof(std::mt19937_64) / 32);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    double u = r.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    double u = r.Uniform(5.0, 6.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 6.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = r.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceMatchesProbability) {
  Rng r(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.Chance(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng r(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.Exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(Rng, ParetoBoundedBelowByScale) {
  Rng r(17);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.Pareto(2.0, 1.5), 2.0);
}

TEST(Rng, LogNormalPositive) {
  Rng r(19);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(r.LogNormal(0.0, 1.0), 0.0);
}

// --- edge parameters for the runner-facing draw helpers ---
// The experiment runner derives per-trial seeds and hands each trial its own
// Rng; sweeps routinely push Pareto/Exponential parameters to extremes
// (heavy tails a→1, tiny transfer sizes), so the helpers must stay finite
// and in-range there.

TEST(Rng, ExponentialTinyAndHugeMeanStayFiniteAndPositive) {
  Rng r(23);
  for (int i = 0; i < 1000; ++i) {
    const double tiny = r.Exponential(1e-12);
    EXPECT_GT(tiny, 0.0);
    EXPECT_TRUE(std::isfinite(tiny));
    const double huge = r.Exponential(1e18);
    EXPECT_GT(huge, 0.0);
    EXPECT_TRUE(std::isfinite(huge));
  }
}

TEST(Rng, ExponentialMeanScalesLinearly) {
  Rng r(29);
  const int n = 20000;
  double s1 = 0, s1000 = 0;
  for (int i = 0; i < n; ++i) s1 += r.Exponential(1.0);
  for (int i = 0; i < n; ++i) s1000 += r.Exponential(1000.0);
  EXPECT_NEAR(s1 / n, 1.0, 0.05);
  EXPECT_NEAR(s1000 / n / 1000.0, 1.0, 0.05);
}

TEST(Rng, ParetoHeavyTailNearOneStaysFinite) {
  // a → 1 is the heavy-tail regime the DC flow-size distributions use; the
  // u ≥ 1 clamp must keep even the worst draw finite.
  Rng r(31);
  for (int i = 0; i < 100000; ++i) {
    const double v = r.Pareto(1.0, 1.05);
    EXPECT_GE(v, 1.0);
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(Rng, ParetoLargeShapeConcentratesAtScale) {
  // a → ∞ degenerates to the scale point x_m.
  Rng r(37);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.Pareto(3.0, 1000.0);
    EXPECT_GE(v, 3.0);
    EXPECT_LT(v, 3.1);
  }
}

TEST(Rng, ParetoTinyScaleKeepsBound) {
  Rng r(41);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.Pareto(1e-9, 2.0);
    EXPECT_GE(v, 1e-9);
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(Rng, ParetoMeanMatchesClosedForm) {
  // E[X] = a·x_m/(a−1) for a > 1; a = 3 keeps the variance small enough
  // for a tight statistical check.
  Rng r(43);
  const int n = 200000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += r.Pareto(2.0, 3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);  // 3·2/(3−1) = 3
}

}  // namespace
}  // namespace dcqcn
