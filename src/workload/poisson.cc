#include "workload/poisson.h"

namespace dcqcn {
namespace workload {

PoissonPattern::PoissonPattern(const PoissonOptions& opts)
    : opts_(opts),
      rng_(opts.seed),
      sizes_(EmpiricalSizeCdf::ByName(opts.size_cdf, opts.size_scale)) {
  DCQCN_CHECK(opts_.offered_load > 0);
  const double mean_bytes = static_cast<double>(sizes_.MeanApprox());
  const double flows_per_sec =
      opts_.offered_load / 8.0 / mean_bytes;  // bytes/s over bytes/flow
  mean_gap_ = static_cast<Time>(1e12 / flows_per_sec);
  DCQCN_CHECK(mean_gap_ > 0);
}

void PoissonPattern::Begin(WorkloadHost& host) { ScheduleNext(host); }

void PoissonPattern::ScheduleNext(WorkloadHost& host) {
  const Time gap =
      static_cast<Time>(rng_.Exponential(static_cast<double>(mean_gap_)));
  host.ScheduleIn(gap, [this, &host] {
    LaunchOne(host);
    ScheduleNext(host);
  });
}

void PoissonPattern::LaunchOne(WorkloadHost& host) {
  WorkloadMetrics& m = host.metrics();
  if (opts_.max_in_flight > 0 && m.in_flight >= opts_.max_in_flight) {
    ++m.skipped;
    return;
  }
  const auto n = static_cast<int64_t>(host.num_hosts());
  const auto s = rng_.UniformInt(0, n - 1);
  int64_t d = s;
  while (d == s) d = rng_.UniformInt(0, n - 1);

  EmitSpec e;
  e.src = static_cast<int>(s);
  e.dst = static_cast<int>(d);
  e.size_bytes = sizes_.Sample(rng_);
  e.ecmp_salt = rng_.NextU64();
  host.LaunchFlow(e);
}

}  // namespace workload
}  // namespace dcqcn
