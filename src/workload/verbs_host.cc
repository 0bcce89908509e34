#include "workload/verbs_host.h"

#include <utility>

#include "nic/rdma_nic.h"

namespace dcqcn {
namespace workload {

class VerbsWorkloadHost::Shim : public WorkloadPattern {
 public:
  explicit Shim(VerbsWorkloadHost* outer) : outer_(outer) {}
  const char* name() const override { return "verbs-shim"; }
  void Begin(WorkloadHost& host) override {
    (void)host;  // the real pattern sees the wrapper, not the inner host
    outer_->pattern_->Begin(*outer_);
  }
  void OnFlowComplete(WorkloadHost& host, const FlowRecord& rec,
                      uint64_t tag) override {
    (void)host;
    outer_->OnWireComplete(rec, tag);
  }

 private:
  VerbsWorkloadHost* outer_;
};

VerbsWorkloadHost::VerbsWorkloadHost(Network& net, std::vector<RdmaNic*> hosts,
                                     int16_t cc_policy)
    : inner_(net, hosts, cc_policy), shim_(new Shim(this)) {
  devices_.reserve(hosts.size());
  for (RdmaNic* h : hosts) {
    DCQCN_CHECK(h->host_path() != nullptr);  // --host requires enabled devices
    devices_.push_back(h->host_path());
  }
}

VerbsWorkloadHost::VerbsWorkloadHost(Network& net, std::vector<RdmaNic*> hosts,
                                     TransportMode mode, int16_t cc_policy)
    : VerbsWorkloadHost(net, std::move(hosts), cc_policy) {
  DCQCN_CHECK(mode == CcPolicyInfoById(cc_policy).mode);
}

VerbsWorkloadHost::~VerbsWorkloadHost() = default;

void VerbsWorkloadHost::Begin(WorkloadPattern& pattern) {
  DCQCN_CHECK(pattern_ == nullptr);  // Begin is one-shot
  pattern_ = &pattern;
  inner_.Begin(*shim_);
}

host::HostPathDevice* VerbsWorkloadHost::DeviceFor(int host_index) {
  DCQCN_CHECK(host_index >= 0 &&
              static_cast<size_t>(host_index) < devices_.size());
  return devices_[static_cast<size_t>(host_index)];
}

int VerbsWorkloadHost::LaunchFlow(const EmitSpec& spec) {
  if (inner_.emission_stopped()) return -1;
  DCQCN_CHECK(spec.src >= 0 && spec.src < num_hosts());
  DCQCN_CHECK(spec.size_bytes > 0);
  // Reserve the real network flow id now (the pattern needs it
  // synchronously); the wire flow starts at the device's launch instant.
  const int fid = inner_.ReserveFlowId();
  if (flow_src_.size() <= static_cast<size_t>(fid)) {
    flow_src_.resize(static_cast<size_t>(fid) + 1, -1);
  }
  flow_src_[static_cast<size_t>(fid)] = spec.src;
  host::HostPathDevice* dev = DeviceFor(spec.src);
  dev->CreateQp(fid);
  dev->Post(fid, dev->config().workload_verb, spec.size_bytes,
            [this, spec, fid] { return inner_.LaunchFlowWithId(spec, fid); });
  return fid;
}

bool VerbsWorkloadHost::EnqueueOnFlow(int flow_id, Bytes bytes) {
  if (inner_.emission_stopped()) return false;
  DCQCN_CHECK(flow_id >= 0 &&
              static_cast<size_t>(flow_id) < flow_src_.size());
  DCQCN_CHECK(bytes > 0);
  host::HostPathDevice* dev = DeviceFor(flow_src_[static_cast<size_t>(flow_id)]);
  dev->Post(flow_id, dev->config().workload_verb, bytes,
            [this, flow_id, bytes] {
              return inner_.EnqueueOnFlow(flow_id, bytes);
            });
  return true;
}

void VerbsWorkloadHost::ScheduleIn(Time delay, std::function<void()> cb) {
  inner_.ScheduleIn(delay, std::move(cb));
}

void VerbsWorkloadHost::OnWireComplete(const FlowRecord& rec, uint64_t tag) {
  const int fid = rec.spec.flow_id;
  DCQCN_CHECK(fid >= 0 && static_cast<size_t>(fid) < flow_src_.size());
  host::HostPathDevice* dev = DeviceFor(flow_src_[static_cast<size_t>(fid)]);
  // The pattern learns about the completion only after the CQE is DMA'd and
  // polled — host-side completion latency is part of the model.
  dev->OnWireComplete(fid, [this, rec, tag] {
    pattern_->OnFlowComplete(*this, rec, tag);
  });
}

HostPathTally TallyHostPath(const std::vector<RdmaNic*>& nics) {
  HostPathTally t;
  for (const RdmaNic* nic : nics) {
    const host::HostPathDevice* d = nic->host_path();
    if (d == nullptr) continue;
    t.wr_posted += d->stats().wr_posted;
    t.wr_launched += d->stats().wr_launched;
    t.wr_completed += d->stats().wr_completed;
    t.wr_retired += d->stats().wr_retired;
    t.doorbells += d->stats().doorbells;
    t.sq_stalls += d->stats().sq_stalls;
    t.qp_hits += d->qp_cache().hits();
    t.qp_misses += d->qp_cache().misses();
    t.mr_hits += d->mr_cache().hits();
    t.mr_misses += d->mr_cache().misses();
  }
  return t;
}

}  // namespace workload
}  // namespace dcqcn
