// WorkloadHost that routes every emission through each source host's
// HostPathDevice (src/host/): the glue that makes `--host` compose with
// `--workload` and `--cc` without touching any pattern.
//
// Layering: a pattern emits against this host exactly as it would against
// SimWorkloadHost — same seam, same semantics. The difference is WHEN the
// wire sees the message:
//
//   pattern.LaunchFlow ──► device.Post (verbs SQ, doorbell, PCIe, caches)
//        │                       │ ... host-side delay ...
//        │                       └──► inner.LaunchFlowWithId  (wire starts)
//   wire completes ──► device.OnWireComplete (CQE DMA + poll)
//                            └──► pattern.OnFlowComplete
//
// Flow ids are reserved eagerly (SimWorkloadHost::ReserveFlowId) so the
// pattern gets a real network flow id synchronously; the wire flow starts
// at the device's launch instant. Per-QP launches are FIFO, so closed-loop
// EnqueueOnFlow follow-ups (only issued from OnFlowComplete, i.e. after the
// flow launched) always find their warm QP.
//
// Draining: StopEmission forwards to the inner host. Emissions already
// inside a device when emission stops launch into a stopped inner host,
// which declines them — the device retires those WRs and accounting still
// closes (wl.started == wl.completed, host counters close per
// host_device.h). The workload conformance suite runs every registered
// pattern through this wrapper too.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "host/host_device.h"
#include "workload/sim_host.h"
#include "workload/workload.h"

namespace dcqcn {
namespace workload {

class VerbsWorkloadHost : public WorkloadHost {
 public:
  // Same contract as SimWorkloadHost; every NIC in `hosts` must have a
  // HostPathDevice attached (NicConfig::host_path.enabled).
  VerbsWorkloadHost(Network& net, std::vector<RdmaNic*> hosts,
                    int16_t cc_policy = kDcqcnPolicyId);
  // perfbench only; deleted by the benchmark PR. CHECK-fails unless `mode`
  // is `cc_policy`'s registered mode.
  VerbsWorkloadHost(Network& net, std::vector<RdmaNic*> hosts,
                    TransportMode mode, int16_t cc_policy);
  ~VerbsWorkloadHost() override;

  // Attaches completion dispatch for `pattern` and starts it. Call once.
  void Begin(WorkloadPattern& pattern);

  void StopEmission() { inner_.StopEmission(); }
  bool emission_stopped() const { return inner_.emission_stopped(); }

  // WorkloadHost seam (what patterns call).
  Time Now() const override { return inner_.Now(); }
  int num_hosts() const override { return inner_.num_hosts(); }
  int LaunchFlow(const EmitSpec& spec) override;
  bool EnqueueOnFlow(int flow_id, Bytes bytes) override;
  void ScheduleIn(Time delay, std::function<void()> cb) override;
  WorkloadMetrics& metrics() override { return inner_.metrics(); }
  const WorkloadMetrics& metrics() const { return inner_.metrics(); }

 private:
  // Adapter registered with the inner host: forwards Begin / wire-side
  // completions back to this wrapper (which defers pattern notification
  // behind the device's CQE path).
  class Shim;

  host::HostPathDevice* DeviceFor(int host_index);
  void OnWireComplete(const FlowRecord& rec, uint64_t tag);

  SimWorkloadHost inner_;
  std::vector<host::HostPathDevice*> devices_;  // per host index
  std::unique_ptr<Shim> shim_;
  WorkloadPattern* pattern_ = nullptr;
  std::vector<int> flow_src_;  // flow id -> source host index
};

// Host-path device counters summed over a set of NICs (NICs without a
// device are skipped): the one totals readout the Clos sweeps and
// scenario_cli report. Per-node detail is in the host.* telemetry
// namespace.
struct HostPathTally {
  int64_t wr_posted = 0;
  int64_t wr_launched = 0;
  int64_t wr_completed = 0;
  int64_t wr_retired = 0;
  int64_t doorbells = 0;
  int64_t sq_stalls = 0;
  int64_t qp_hits = 0;
  int64_t qp_misses = 0;
  int64_t mr_hits = 0;
  int64_t mr_misses = 0;

  int64_t qp_lookups() const { return qp_hits + qp_misses; }
  // QP-context cache misses per lookup, in percent (0 with no lookups).
  double qp_miss_pct() const {
    return qp_lookups() > 0 ? 100.0 * static_cast<double>(qp_misses) /
                                  static_cast<double>(qp_lookups())
                            : 0.0;
  }
};
HostPathTally TallyHostPath(const std::vector<RdmaNic*>& nics);

}  // namespace workload
}  // namespace dcqcn
