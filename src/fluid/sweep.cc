#include "fluid/sweep.h"

#include <cmath>

#include "common/check.h"

namespace dcqcn {

ConvergenceResult TwoFlowConvergence(const FluidParams& params,
                                     double sim_seconds, double measure_from,
                                     double sample_period) {
  FluidParams p = params;
  p.num_flows = 2;
  FluidModel m(p);
  m.StartFlow(0, p.line_rate_pps);           // 40 Gbps
  m.StartFlow(1, p.line_rate_pps / 8.0);     // 5 Gbps

  ConvergenceResult r;
  double next_sample = sample_period;
  double diff_sum = 0, q_sum = 0;
  int n_measured = 0;
  while (m.time() < sim_seconds) {
    m.Step();
    if (m.time() >= next_sample) {
      next_sample += sample_period;
      const double diff = std::abs(m.FlowRateGbps(0) - m.FlowRateGbps(1));
      r.diff_series.Add(static_cast<Time>(m.time() * 1e12), diff);
      if (m.time() >= measure_from) {
        diff_sum += diff;
        q_sum += m.queue_bytes();
        ++n_measured;
      }
    }
  }
  DCQCN_CHECK(n_measured > 0);
  r.mean_abs_diff_gbps = diff_sum / n_measured;
  r.final_abs_diff_gbps = std::abs(m.FlowRateGbps(0) - m.FlowRateGbps(1));
  r.mean_queue_bytes = q_sum / n_measured;
  return r;
}

TimeSeries IncastQueueSeries(const FluidParams& params, int n,
                             double sim_seconds, double sample_period) {
  FluidParams p = params;
  p.num_flows = n;
  FluidModel m(p);
  for (int i = 0; i < n; ++i) m.StartFlow(i, p.line_rate_pps);

  TimeSeries series;
  double next_sample = 0;
  while (m.time() < sim_seconds) {
    m.Step();
    if (m.time() >= next_sample) {
      next_sample += sample_period;
      series.Add(static_cast<Time>(m.time() * 1e12), m.queue_bytes());
    }
  }
  return series;
}

runner::TrialSpec IncastQueueTrial(std::string name, const FluidParams& params,
                                   int n, double sim_seconds,
                                   double sample_period, Time tail_from) {
  runner::TrialSpec spec;
  spec.name = std::move(name);
  spec.run = [params, n, sim_seconds, sample_period,
              tail_from](const runner::TrialContext&) {
    runner::TrialResult r;
    TimeSeries q = IncastQueueSeries(params, n, sim_seconds, sample_period);
    const TailStats tail = TailOver(q, tail_from);
    r.metrics["tail_mean_bytes"] = tail.mean;
    r.metrics["tail_stddev_bytes"] = tail.stddev;
    r.metrics["tail_min_bytes"] = tail.min;
    r.metrics["tail_max_bytes"] = tail.max;
    r.counters["tail_samples"] = static_cast<int64_t>(tail.count);
    r.series["queue_bytes"] = std::move(q);
    return r;
  };
  return spec;
}

}  // namespace dcqcn
