// WorkloadHost backed by a live Network: the bridge between a pure
// WorkloadPattern and the simulator (flow-id assignment, FlowSpec stamping,
// completion dispatch, uniform metrics).
#pragma once

#include <functional>
#include <vector>

#include "cc/cc_policy.h"
#include "net/network.h"
#include "runner/runner.h"
#include "telemetry/metric_registry.h"
#include "workload/workload.h"

namespace dcqcn {
namespace workload {

class SimWorkloadHost : public WorkloadHost {
 public:
  // `hosts` is the pattern's host universe (EmitSpec indices address it).
  // Every generated flow runs the registered CcPolicy `cc_policy`, so --cc
  // composes with any pattern.
  SimWorkloadHost(Network& net, std::vector<RdmaNic*> hosts,
                  int16_t cc_policy = kDcqcnPolicyId);
  // perfbench only; deleted by the benchmark PR. CHECK-fails unless `mode`
  // is `cc_policy`'s registered mode.
  SimWorkloadHost(Network& net, std::vector<RdmaNic*> hosts,
                  TransportMode mode, int16_t cc_policy);

  // Attaches completion dispatch for `pattern` and starts it. Call once;
  // `pattern` must outlive this host's event activity.
  void Begin(WorkloadPattern& pattern);

  // Stops emission: subsequent LaunchFlow returns -1, EnqueueOnFlow returns
  // false, ScheduleIn drops callbacks. In-flight flows keep completing, so
  // running the network after this drains the workload to
  // in_flight == 0 (the conformance suite's quiescence check).
  void StopEmission() { stopped_ = true; }
  bool emission_stopped() const { return stopped_; }

  // Split launch for layered hosts (VerbsWorkloadHost): reserve a real
  // network flow id now, start the wire flow later. ReserveFlowId is just
  // the network's id counter; LaunchFlowWithId is LaunchFlow with the id
  // pinned, returning false instead of launching once draining started.
  int ReserveFlowId();
  bool LaunchFlowWithId(const EmitSpec& spec, int flow_id);

  // WorkloadHost seam.
  Time Now() const override { return net_.eq().Now(); }
  int num_hosts() const override { return static_cast<int>(hosts_.size()); }
  int LaunchFlow(const EmitSpec& spec) override;
  bool EnqueueOnFlow(int flow_id, Bytes bytes) override;
  void ScheduleIn(Time delay, std::function<void()> cb) override;
  WorkloadMetrics& metrics() override { return metrics_; }
  const WorkloadMetrics& metrics() const { return metrics_; }

 private:
  void OnCompletion(const FlowRecord& rec);

  // Dense flow-id-indexed ownership map (grown on launch; flow ids are
  // network-wide sequential, so this is shared-vector cheap and O(1) on the
  // per-completion hot path — no hashing).
  struct FlowSlot {
    SenderQp* qp = nullptr;
    uint64_t tag = 0;
    bool owned = false;
  };

  Network& net_;
  std::vector<RdmaNic*> hosts_;
  int16_t cc_policy_;
  WorkloadPattern* pattern_ = nullptr;
  bool stopped_ = false;
  std::vector<FlowSlot> slots_;
  WorkloadMetrics metrics_;
};

// Folds the uniform metrics into a TrialResult: wl.* counters plus
// summaries for each non-empty distribution. Deterministic (std::map keys).
void FillTrialResult(const WorkloadMetrics& m, runner::TrialResult* out);

// Same metrics into the telemetry registry (wl.started counter, wl.in_flight
// gauge, wl.fct_us / wl.slowdown / wl.iteration_us histograms).
void ExportMetrics(const WorkloadMetrics& m, telemetry::MetricRegistry* reg);

}  // namespace workload
}  // namespace dcqcn
