#include "trace/distributions.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <tuple>

#include "common/check.h"

namespace dcqcn {

EmpiricalSizeCdf::EmpiricalSizeCdf(
    std::vector<std::pair<double, Bytes>> knots)
    : knots_(std::move(knots)) {
  DCQCN_CHECK(knots_.size() >= 2);
  DCQCN_CHECK(knots_.front().first >= 0.0);
  DCQCN_CHECK(std::abs(knots_.back().first - 1.0) < 1e-12);
  for (size_t i = 1; i < knots_.size(); ++i) {
    DCQCN_CHECK(knots_[i].first > knots_[i - 1].first);
    DCQCN_CHECK(knots_[i].second > knots_[i - 1].second);
  }
  DCQCN_CHECK(knots_.front().second >= 1);
}

Bytes EmpiricalSizeCdf::Sample(Rng& rng) const {
  const double u = rng.Uniform();
  if (u <= knots_.front().first) return knots_.front().second;
  for (size_t i = 1; i < knots_.size(); ++i) {
    if (u <= knots_[i].first) {
      const double p0 = knots_[i - 1].first;
      const double p1 = knots_[i].first;
      const double frac = (u - p0) / (p1 - p0);
      const double lg0 = std::log(static_cast<double>(knots_[i - 1].second));
      const double lg1 = std::log(static_cast<double>(knots_[i].second));
      return static_cast<Bytes>(std::exp(lg0 + frac * (lg1 - lg0)));
    }
  }
  return knots_.back().second;
}

Bytes EmpiricalSizeCdf::MeanApprox(int samples, uint64_t seed) const {
  // Memoized per (knots, samples, seed): every Poisson workload set-up asks
  // for the same 20 000-draw estimate. The estimate is a pure function of
  // the key, so a cached value is bit-identical to a fresh one. Shared by
  // runner threads (--jobs); the lock is held only for lookup and insert.
  using Key = std::tuple<std::vector<std::pair<double, Bytes>>, int, uint64_t>;
  static std::mutex mu;
  static std::map<Key, Bytes> memo;
  Key key{knots_, samples, seed};
  {
    std::lock_guard<std::mutex> lock(mu);
    if (auto it = memo.find(key); it != memo.end()) return it->second;
  }
  Rng rng(seed);
  double sum = 0;
  for (int i = 0; i < samples; ++i) {
    sum += static_cast<double>(Sample(rng));
  }
  const auto mean = static_cast<Bytes>(sum / samples);
  // Bounded: callers use a handful of distributions; a generator of
  // endless distinct CDFs just stops being cached.
  constexpr size_t kMaxMemo = 256;
  std::lock_guard<std::mutex> lock(mu);
  if (memo.size() < kMaxMemo) memo.emplace(std::move(key), mean);
  return mean;
}

EmpiricalSizeCdf EmpiricalSizeCdf::StorageBackend() {
  return EmpiricalSizeCdf({
      {0.10, 2 * kKB},
      {0.30, 8 * kKB},
      {0.50, 32 * kKB},
      {0.70, 128 * kKB},
      {0.90, 1000 * kKB},
      {0.98, 2000 * kKB},
      {1.00, 4000 * kKB},
  });
}

EmpiricalSizeCdf EmpiricalSizeCdf::Scaled(
    std::vector<std::pair<double, Bytes>> knots, double factor) {
  DCQCN_CHECK(factor > 0);
  Bytes prev = 0;
  for (auto& [p, b] : knots) {
    b = std::max<Bytes>(
        {1 * kKB, prev + 1,
         static_cast<Bytes>(static_cast<double>(b) * factor)});
    prev = b;
  }
  return EmpiricalSizeCdf(std::move(knots));
}

EmpiricalSizeCdf EmpiricalSizeCdf::StorageBackendScaled(double factor) {
  return Scaled({{0.10, 2 * kKB},
                 {0.30, 8 * kKB},
                 {0.50, 32 * kKB},
                 {0.70, 128 * kKB},
                 {0.90, 1000 * kKB},
                 {0.98, 2000 * kKB},
                 {1.00, 4000 * kKB}},
                factor);
}

EmpiricalSizeCdf EmpiricalSizeCdf::WebSearch() {
  return EmpiricalSizeCdf({
      {0.15, 6 * kKB},
      {0.30, 13 * kKB},
      {0.50, 29 * kKB},
      {0.70, 100 * kKB},
      {0.80, 300 * kKB},
      {0.90, 1000 * kKB},
      {0.95, 5000 * kKB},
      {1.00, 30000 * kKB},
  });
}

EmpiricalSizeCdf EmpiricalSizeCdf::AlibabaStorage() {
  return EmpiricalSizeCdf({
      {0.20, 4 * kKB},
      {0.50, 16 * kKB},
      {0.80, 64 * kKB},
      {0.95, 256 * kKB},
      {1.00, 2000 * kKB},
  });
}

EmpiricalSizeCdf EmpiricalSizeCdf::ByName(const std::string& name,
                                          double scale) {
  if (name == "storage-backend") return StorageBackendScaled(scale);
  std::vector<std::pair<double, Bytes>> knots;
  if (name == "websearch") {
    knots = {{0.15, 6 * kKB},    {0.30, 13 * kKB},   {0.50, 29 * kKB},
             {0.70, 100 * kKB},  {0.80, 300 * kKB},  {0.90, 1000 * kKB},
             {0.95, 5000 * kKB}, {1.00, 30000 * kKB}};
  } else if (name == "alibaba-storage") {
    knots = {{0.20, 4 * kKB},
             {0.50, 16 * kKB},
             {0.80, 64 * kKB},
             {0.95, 256 * kKB},
             {1.00, 2000 * kKB}};
  } else {
    DCQCN_CHECK(false);  // unknown size-CDF name; see Names()
  }
  return Scaled(std::move(knots), scale);
}

std::vector<std::string> EmpiricalSizeCdf::Names() {
  return {"storage-backend", "websearch", "alibaba-storage"};
}

}  // namespace dcqcn
