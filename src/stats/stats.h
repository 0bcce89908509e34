// Descriptive statistics used by tests, examples and the benchmark harness:
// percentiles, CDFs, summaries, Jain's fairness index.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"

namespace dcqcn {

// p in [0, 1]; linear interpolation between order statistics. The paper's
// "10th percentile" tail metric is Percentile(v, 0.10).
double Percentile(std::vector<double> values, double p);

struct Summary {
  double min = 0, p10 = 0, p25 = 0, median = 0, p75 = 0, p90 = 0, max = 0;
  double mean = 0;
  size_t count = 0;

  friend bool operator==(const Summary& a, const Summary& b) {
    return a.min == b.min && a.p10 == b.p10 && a.p25 == b.p25 &&
           a.median == b.median && a.p75 == b.p75 && a.p90 == b.p90 &&
           a.max == b.max && a.mean == b.mean && a.count == b.count;
  }
  friend bool operator!=(const Summary& a, const Summary& b) {
    return !(a == b);
  }
};

Summary Summarize(const std::vector<double>& values);

// Jain's fairness index: (sum x)^2 / (n * sum x^2); 1.0 = perfectly fair.
double JainIndex(const std::vector<double>& values);

// Empirical CDF container. Optionally capped: SetCap(n) turns the container
// into a deterministic reservoir sample (Vitter's algorithm R with a
// splitmix64 hash of the sample index as the random source — no shared RNG
// stream, so capped runs stay invariant across jobs/shard counts). size()
// always reports the true number of Add calls; quantiles come from the
// reservoir. Uncapped (the default) is byte-identical to the historical
// grow-forever container. Million-flow trials cap their FCT/slowdown CDFs
// so runner memory stays bounded by the cap, not the flow count.
class Cdf {
 public:
  // Call before the first Add. 0 = unlimited (default).
  void SetCap(size_t n) { cap_ = n; }
  void Add(double v) {
    ++total_;
    sorted_ = false;
    if (cap_ == 0 || values_.size() < cap_) {
      values_.push_back(v);
      return;
    }
    // Keep each of the `total_` samples with probability cap/total.
    uint64_t z = total_ + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const uint64_t j = z % total_;
    if (j < cap_) values_[static_cast<size_t>(j)] = v;
  }
  size_t size() const { return static_cast<size_t>(total_); }
  // Number of retained samples (== size() unless capped).
  size_t reservoir_size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  // Value at quantile p in [0,1].
  double Quantile(double p) const;
  // Fraction of samples <= v.
  double FractionBelow(double v) const;
  // `n` evenly spaced (quantile, value) points for printing.
  std::vector<std::pair<double, double>> Points(int n) const;
  // Sorted copy of the samples (feed to Summarize for TrialResult output).
  std::vector<double> Values() const {
    Sort();
    return values_;
  }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
  size_t cap_ = 0;
  uint64_t total_ = 0;
  void Sort() const;
};

// Time series of (time, value) samples.
struct TimeSeries {
  std::vector<std::pair<Time, double>> points;

  void Add(Time t, double v) { points.emplace_back(t, v); }
  // Mean of values with t in [from, to).
  double MeanOver(Time from, Time to) const;
  double MaxOver(Time from, Time to) const;
};

// Moments of a time series' settled tail (t >= from) — what the Fig. 12
// queue-stability tables report. An empty window yields count == 0 and all
// fields zero (never NaN).
struct TailStats {
  double mean = 0, stddev = 0, max = 0, min = 0;
  size_t count = 0;
};

TailStats TailOver(const TimeSeries& series, Time from);

// Same, restricted to samples with t in [from, to).
TailStats TailOver(const TimeSeries& series, Time from, Time to);

}  // namespace dcqcn
