#include "stats/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace dcqcn {

double Percentile(std::vector<double> values, double p) {
  DCQCN_CHECK(!values.empty());
  DCQCN_CHECK(p >= 0.0 && p <= 1.0);
  std::sort(values.begin(), values.end());
  const double idx = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  if (values.empty()) return s;
  s.count = values.size();
  s.min = Percentile(values, 0.0);
  s.p10 = Percentile(values, 0.10);
  s.p25 = Percentile(values, 0.25);
  s.median = Percentile(values, 0.50);
  s.p75 = Percentile(values, 0.75);
  s.p90 = Percentile(values, 0.90);
  s.max = Percentile(values, 1.0);
  double sum = 0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());
  return s;
}

double JainIndex(const std::vector<double>& values) {
  DCQCN_CHECK(!values.empty());
  double sum = 0, sumsq = 0;
  for (double v : values) {
    sum += v;
    sumsq += v * v;
  }
  if (sumsq == 0) return 1.0;
  return sum * sum / (static_cast<double>(values.size()) * sumsq);
}

void Cdf::Sort() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Cdf::Quantile(double p) const {
  DCQCN_CHECK(!values_.empty());
  Sort();
  return Percentile(values_, p);
}

double Cdf::FractionBelow(double v) const {
  DCQCN_CHECK(!values_.empty());
  Sort();
  const auto it = std::upper_bound(values_.begin(), values_.end(), v);
  return static_cast<double>(it - values_.begin()) /
         static_cast<double>(values_.size());
}

std::vector<std::pair<double, double>> Cdf::Points(int n) const {
  DCQCN_CHECK(n >= 2);
  std::vector<std::pair<double, double>> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double p = static_cast<double>(i) / (n - 1);
    out.emplace_back(p, Quantile(p));
  }
  return out;
}

double TimeSeries::MeanOver(Time from, Time to) const {
  double sum = 0;
  int n = 0;
  for (const auto& [t, v] : points) {
    if (t >= from && t < to) {
      sum += v;
      ++n;
    }
  }
  return n > 0 ? sum / n : 0.0;
}

double TimeSeries::MaxOver(Time from, Time to) const {
  double best = 0;
  for (const auto& [t, v] : points) {
    if (t >= from && t < to) best = std::max(best, v);
  }
  return best;
}

TailStats TailOver(const TimeSeries& series, Time from) {
  return TailOver(series, from, kTimeMax);
}

TailStats TailOver(const TimeSeries& series, Time from, Time to) {
  TailStats s;
  bool first = true;
  for (const auto& [t, v] : series.points) {
    if (t < from || t >= to) continue;
    s.mean += v;
    s.max = first ? v : std::max(s.max, v);
    s.min = first ? v : std::min(s.min, v);
    first = false;
    ++s.count;
  }
  if (s.count == 0) return s;  // all-zero, not NaN
  s.mean /= static_cast<double>(s.count);
  for (const auto& [t, v] : series.points) {
    if (t >= from && t < to) s.stddev += (v - s.mean) * (v - s.mean);
  }
  s.stddev = std::sqrt(s.stddev / static_cast<double>(s.count));
  return s;
}

}  // namespace dcqcn
