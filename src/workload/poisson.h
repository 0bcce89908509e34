// Open-loop Poisson flow arrivals as a WorkloadPattern (`--workload=poisson`),
// migrated from the former src/trace/arrivals.{h,cc} driver.
//
// Samples exponential inter-arrival times at a target offered load, picks
// random distinct (src, dst) host pairs, and draws sizes from a named
// flow-size distribution — the standard open-loop load-sweep driver of
// datacenter-transport studies, and a realistic background-traffic source.
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "workload/distributions.h"
#include "workload/workload.h"

namespace dcqcn {
namespace workload {

struct PoissonOptions {
  // Offered load in bits/s across the whole host set. The arrival rate is
  // load / mean_flow_size.
  Rate offered_load = Gbps(40);
  double size_scale = 1.0;
  // One of EmpiricalSizeCdf::Names().
  std::string size_cdf = "storage-backend";
  uint64_t seed = 1;
  // Optional cap on concurrently active generated flows (0 = unlimited);
  // protects against overload collapse in long overloaded runs. Suppressed
  // arrivals count as metrics().skipped.
  int max_in_flight = 0;
};

class PoissonPattern : public WorkloadPattern {
 public:
  explicit PoissonPattern(const PoissonOptions& opts);

  const char* name() const override { return "poisson"; }
  void Begin(WorkloadHost& host) override;

  // Mean inter-arrival time implied by the configuration.
  Time mean_interarrival() const { return mean_gap_; }

 private:
  void ScheduleNext(WorkloadHost& host);
  void LaunchOne(WorkloadHost& host);

  PoissonOptions opts_;
  Rng rng_;
  EmpiricalSizeCdf sizes_;
  Time mean_gap_ = 0;
};

}  // namespace workload
}  // namespace dcqcn
