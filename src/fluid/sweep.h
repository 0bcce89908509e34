// Parameter-sweep drivers over the fluid model (§5.2, Figs. 11 and 12).
#pragma once

#include <string>
#include <vector>

#include "fluid/fluid_model.h"
#include "runner/runner.h"
#include "stats/stats.h"

namespace dcqcn {

// The §5.2 two-flow experiment: one flow starts at 40 Gbps, the other at
// 5 Gbps, and the model is solved for `sim_seconds`. The convergence metric
// is the mean |R1 - R2| (Gbps) over [measure_from, sim_seconds) — the
// z-axis of Fig. 11 (lower is better).
struct ConvergenceResult {
  double mean_abs_diff_gbps = 0;
  double final_abs_diff_gbps = 0;
  double mean_queue_bytes = 0;
  TimeSeries diff_series;  // |R1-R2| sampled at `sample_period`
};

ConvergenceResult TwoFlowConvergence(const FluidParams& params,
                                     double sim_seconds = 0.2,
                                     double measure_from = 0.1,
                                     double sample_period = 1e-3);

// The Fig. 12 experiment: N:1 incast, all flows start at line rate at t=0;
// returns the queue-length time series (bytes) sampled every
// `sample_period` seconds.
TimeSeries IncastQueueSeries(const FluidParams& params, int n,
                             double sim_seconds = 0.1,
                             double sample_period = 0.5e-3);

// ---------- runner adapters ----------
//
// Each sweep cell packaged as an independent trial for the parallel
// experiment runner (runner/runner.h). The fluid model is deterministic
// (no Rng), so these trials are pure functions of their parameters; the
// runner still stamps each result with its derived seed for uniform
// serialization.

// Fig. 12 cell: N:1 incast queue trace. Result carries the queue series
// ("queue_bytes") plus tail moments over [tail_from, end) as metrics
// ("tail_mean_bytes", "tail_stddev_bytes", "tail_min_bytes",
// "tail_max_bytes").
runner::TrialSpec IncastQueueTrial(std::string name, const FluidParams& params,
                                   int n, double sim_seconds = 0.1,
                                   double sample_period = 0.5e-3,
                                   Time tail_from = Milliseconds(50));

}  // namespace dcqcn
