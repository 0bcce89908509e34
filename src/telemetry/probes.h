// Registry-driven periodic samplers.
//
// ProbeSet is the one periodic sampler the benches, examples and tests use:
// N named probes, one shared period, one repeating event. Each probe is
// either a gauge (sample the probe function directly — queue depth) or a
// rate (sample a cumulative byte counter and convert the per-period delta to
// Gbps — flow goodput).
// Results land in per-probe TimeSeries and can be exported into a
// MetricRegistry as histograms of the settled tail.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/event_queue.h"
#include "stats/stats.h"
#include "telemetry/metric_registry.h"

namespace dcqcn {
namespace telemetry {

class ProbeSet {
 public:
  ProbeSet(EventQueue* eq, Time period) : eq_(eq), period_(period) {
    DCQCN_CHECK(eq != nullptr && period > 0);
  }

  // Sample `fn` directly each period. Returns the probe index.
  size_t AddGauge(std::string name, std::function<double()> fn,
                  MetricLabels labels = {});

  // `cumulative_bytes` must be monotonic; the series holds the per-period
  // delta converted to Gbps (goodput over the last window).
  size_t AddRate(std::string name, std::function<Bytes()> cumulative_bytes,
                 MetricLabels labels = {});

  // Arms the repeating sampling event; first sample fires one period from
  // now. Call after all probes are added (adding later still works — new
  // probes join at the next tick).
  void Start() { Arm(); }

  size_t NumProbes() const { return probes_.size(); }
  const std::string& Name(size_t idx) const { return probes_[idx].name; }
  const TimeSeries& Series(size_t idx) const { return probes_[idx].series; }

  double MeanOver(size_t idx, Time from, Time to) const {
    return probes_[idx].series.MeanOver(from, to);
  }

  Cdf ToCdf(size_t idx, Time from = 0) const {
    Cdf c;
    for (const auto& [t, v] : probes_[idx].series.points) {
      if (t >= from) c.Add(v);
    }
    return c;
  }

  // One histogram per probe: every sample with t >= from, observed under the
  // probe's name + labels.
  void ExportTo(MetricRegistry* registry, Time from = 0) const;

 private:
  struct Probe {
    std::string name;
    MetricLabels labels;
    std::function<double()> gauge;    // exactly one of gauge / rate set
    std::function<Bytes()> rate;
    Bytes last_bytes = 0;
    TimeSeries series;
  };

  void Arm() {
    eq_->ScheduleIn(period_, [this] {
      const Time now = eq_->Now();
      for (Probe& probe : probes_) Sample(probe, now);
      Arm();
    });
  }

  void Sample(Probe& probe, Time now);

  EventQueue* eq_;
  Time period_;
  std::vector<Probe> probes_;
};

}  // namespace telemetry
}  // namespace dcqcn
