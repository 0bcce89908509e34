// Deterministic random number generation.
//
// Every stochastic component (RED marking, ECMP seeds, workload generators,
// per-QP timer and pacing jitter) takes an explicit Rng so whole simulations
// replay bit-identically from a seed. The generator is a thin wrapper over
// LazyMt19937_64 — std::mt19937_64, output for output — with the small set of
// draw helpers the library needs.
//
// Why lazy: every sender QP owns an Rng seeded by its flow id, and a
// short flow draws a handful of jitter values. A std::mt19937_64 is 2.5 KiB
// and seeds and twists all 312 state words before its first output.
// LazyMt19937_64 is ~40 bytes and serves the first 156 outputs straight from
// the seeding recurrence (below); only a stream that draws a 157th value
// builds the standard 312-word state.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <random>

#include "common/check.h"

namespace dcqcn {

// Exact MT19937-64 (the std::mt19937_64 sequence for every seed) with a
// deferred state. Seeding writes x[0] = seed, x[i] = f·(x[i-1] ^ x[i-1]>>62)
// + i for i < 312, and the first twist's word j < 156 reads only seed words
// j, j+1 and j+156 (its third operand, x[j+m] with m = 156, is not yet
// rewritten). So two cursors stepping the recurrence — one at j, one at
// j+156 — yield outputs 0..155 in O(156) once (priming the second cursor at
// the first draw) plus O(1) per draw. Output 156 onward comes from a heap
// std::mt19937_64 seeded alike and advanced by 156: the standard state.
// Copies are deep; a moved-from engine stays valid.
class LazyMt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr result_type default_seed = 5489u;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit LazyMt19937_64(result_type s = default_seed) { seed(s); }
  LazyMt19937_64(const LazyMt19937_64& o)
      : seed_(o.seed_),
        lo_(o.lo_),
        hi_(o.hi_),
        pos_(o.pos_),
        full_(o.full_ ? std::make_unique<std::mt19937_64>(*o.full_)
                      : nullptr) {}
  LazyMt19937_64& operator=(const LazyMt19937_64& o) {
    if (this != &o) *this = LazyMt19937_64(o);
    return *this;
  }
  LazyMt19937_64(LazyMt19937_64&&) noexcept = default;
  LazyMt19937_64& operator=(LazyMt19937_64&&) noexcept = default;

  void seed(result_type s) {
    seed_ = s;
    pos_ = kUnprimed;
    full_.reset();
  }

  result_type operator()() {
    if (pos_ < kShort) [[likely]] return NextShort();
    return NextSlow();
  }

  void discard(unsigned long long z) {
    for (; z > 0 && (pos_ < kShort || pos_ == kUnprimed); --z) (*this)();
    if (z == 0) return;
    if (!full_) Materialize();
    full_->discard(z);
  }

 private:
  static constexpr uint32_t kShort = 156;  // n - m: outputs served lazily
  static constexpr uint32_t kUnprimed = ~uint32_t{0};
  static constexpr uint64_t kF = 6364136223846793005ULL;
  static constexpr uint64_t kA = 0xB5026F5AA96619E9ULL;
  static constexpr uint64_t kUpper = ~uint64_t{0} << 31;

  static uint64_t SeedStep(uint64_t prev, uint64_t index) {
    return kF * (prev ^ (prev >> 62)) + index;
  }

  // Output pos_: the first twist of words pos_, pos_+1 and pos_+156.
  result_type NextShort() {
    const uint64_t next_lo = SeedStep(lo_, pos_ + 1);
    const uint64_t y = (lo_ & kUpper) | (next_lo & ~kUpper);
    uint64_t z = hi_ ^ (y >> 1) ^ ((y & 1) ? kA : 0);
    lo_ = next_lo;
    hi_ = SeedStep(hi_, pos_ + kShort + 1);
    ++pos_;
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

  result_type NextSlow() {
    if (full_) return (*full_)();
    if (pos_ == kUnprimed) {
      lo_ = hi_ = seed_;
      for (uint64_t i = 1; i <= kShort; ++i) hi_ = SeedStep(hi_, i);
      pos_ = 0;
      return NextShort();
    }
    Materialize();
    return (*full_)();
  }

  void Materialize() {
    full_ = std::make_unique<std::mt19937_64>(seed_);
    full_->discard(kShort);
    pos_ = kShort;
  }

  uint64_t seed_ = default_seed;
  uint64_t lo_ = 0;  // seed word x[pos_]
  uint64_t hi_ = 0;  // seed word x[pos_ + 156]
  uint32_t pos_ = kUnprimed;  // outputs drawn, while < 156
  std::unique_ptr<std::mt19937_64> full_;  // the standard state, from 156 on
};

class Rng {
 public:
  explicit Rng(uint64_t seed = 1) : engine_(seed) {}

  // Uniform double in [0, 1).
  double Uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    DCQCN_DCHECK(lo <= hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    DCQCN_DCHECK(lo <= hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  // Bernoulli draw.
  bool Chance(double p) { return Uniform() < p; }

  // Exponential with the given mean (> 0).
  double Exponential(double mean) {
    DCQCN_DCHECK(mean > 0);
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  // Pareto with scale x_m and shape a (heavy tail for a close to 1).
  double Pareto(double x_m, double a) {
    DCQCN_DCHECK(x_m > 0 && a > 0);
    double u = Uniform();
    if (u >= 1.0) u = std::nextafter(1.0, 0.0);
    return x_m / std::pow(1.0 - u, 1.0 / a);
  }

  // Log-normal with parameters of the underlying normal.
  double LogNormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  uint64_t NextU64() { return engine_(); }

  LazyMt19937_64& engine() { return engine_; }

 private:
  LazyMt19937_64 engine_;
};

}  // namespace dcqcn
