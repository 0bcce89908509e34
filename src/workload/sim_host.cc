#include "workload/sim_host.h"

#include <utility>

namespace dcqcn {
namespace workload {

SimWorkloadHost::SimWorkloadHost(Network& net, std::vector<RdmaNic*> hosts,
                                 int16_t cc_policy)
    : net_(net), hosts_(std::move(hosts)), cc_policy_(cc_policy) {
  DCQCN_CHECK(hosts_.size() >= 2);
}

SimWorkloadHost::SimWorkloadHost(Network& net, std::vector<RdmaNic*> hosts,
                                 TransportMode mode, int16_t cc_policy)
    : SimWorkloadHost(net, std::move(hosts), cc_policy) {
  DCQCN_CHECK(mode == CcPolicyInfoById(cc_policy).mode);
}

void SimWorkloadHost::Begin(WorkloadPattern& pattern) {
  DCQCN_CHECK(pattern_ == nullptr);  // Begin is one-shot
  pattern_ = &pattern;
  // Through the Network chokepoint: inline per-NIC callbacks in the default
  // engine (identical to registering on each host directly), canonical
  // barrier replay in the sharded engine. OnCompletion filters on flow
  // ownership, so hearing about every NIC's completions changes nothing.
  net_.AddCompletionHandler(
      [this](const FlowRecord& rec) { OnCompletion(rec); });
  pattern.Begin(*this);
}

int SimWorkloadHost::ReserveFlowId() { return net_.NextFlowId(); }

int SimWorkloadHost::LaunchFlow(const EmitSpec& spec) {
  if (stopped_) return -1;
  const int fid = ReserveFlowId();
  DCQCN_CHECK(LaunchFlowWithId(spec, fid));
  return fid;
}

bool SimWorkloadHost::LaunchFlowWithId(const EmitSpec& spec, int flow_id) {
  if (stopped_) return false;
  DCQCN_CHECK(spec.src >= 0 && spec.src < num_hosts());
  DCQCN_CHECK(spec.dst >= 0 && spec.dst < num_hosts());
  DCQCN_CHECK(spec.src != spec.dst);
  DCQCN_CHECK(spec.size_bytes > 0);  // unbounded flows never complete

  FlowSpec f;
  f.flow_id = flow_id;
  f.src_host = hosts_[static_cast<size_t>(spec.src)]->id();
  f.dst_host = hosts_[static_cast<size_t>(spec.dst)]->id();
  f.priority = spec.priority;
  f.size_bytes = spec.size_bytes;
  f.start_time = net_.eq().Now();
  f.cc_policy = cc_policy_;
  f.ecmp_salt = spec.ecmp_salt;
  SenderQp* qp = net_.StartFlow(f);

  if (slots_.size() <= static_cast<size_t>(f.flow_id)) {
    slots_.resize(static_cast<size_t>(f.flow_id) + 1);
  }
  FlowSlot& slot = slots_[static_cast<size_t>(f.flow_id)];
  slot.qp = qp;
  slot.tag = spec.tag;
  slot.owned = true;

  ++metrics_.started;
  ++metrics_.in_flight;
  return true;
}

bool SimWorkloadHost::EnqueueOnFlow(int flow_id, Bytes bytes) {
  if (stopped_) return false;
  DCQCN_CHECK(flow_id >= 0 && static_cast<size_t>(flow_id) < slots_.size());
  FlowSlot& slot = slots_[static_cast<size_t>(flow_id)];
  DCQCN_CHECK(slot.owned && slot.qp != nullptr);
  DCQCN_CHECK(bytes > 0);
  slot.qp->EnqueueMessage(bytes);
  ++metrics_.started;
  ++metrics_.in_flight;
  return true;
}

void SimWorkloadHost::ScheduleIn(Time delay, std::function<void()> cb) {
  if (stopped_) return;
  net_.eq().ScheduleIn(delay, std::move(cb));
}

void SimWorkloadHost::OnCompletion(const FlowRecord& rec) {
  const auto id = static_cast<size_t>(rec.spec.flow_id);
  if (id >= slots_.size() || !slots_[id].owned) return;  // not ours

  ++metrics_.completed;
  --metrics_.in_flight;
  metrics_.goodput_gbps.Add(rec.goodput() / 1e9);
  metrics_.fct_us.Add(ToMicroseconds(rec.fct()));
  // Slowdown vs the source's unloaded line rate: the application-level
  // metric modern CC papers report (1.0 = ideal, dimensionless across
  // sizes).
  const Rate line = net_.host(rec.spec.src_host)->line_rate();
  if (line > 0 && rec.bytes > 0) {
    const double ideal_ps = static_cast<double>(rec.bytes) * 8.0 * 1e12 / line;
    metrics_.slowdown.Add(static_cast<double>(rec.fct()) / ideal_ps);
  }
  pattern_->OnFlowComplete(*this, rec, slots_[id].tag);
}

void FillTrialResult(const WorkloadMetrics& m, runner::TrialResult* out) {
  out->counters["wl_started"] = m.started;
  out->counters["wl_completed"] = m.completed;
  out->counters["wl_skipped"] = m.skipped;
  out->counters["wl_in_flight"] = m.in_flight;
  if (!m.goodput_gbps.empty()) {
    out->summaries["wl_goodput_gbps"] = Summarize(m.goodput_gbps.Values());
  }
  if (!m.fct_us.empty()) {
    out->summaries["wl_fct_us"] = Summarize(m.fct_us.Values());
  }
  if (!m.slowdown.empty()) {
    out->summaries["wl_slowdown"] = Summarize(m.slowdown.Values());
  }
  if (!m.iteration_us.empty()) {
    out->summaries["wl_iteration_us"] = Summarize(m.iteration_us.Values());
  }
}

void ExportMetrics(const WorkloadMetrics& m, telemetry::MetricRegistry* reg) {
  reg->Counter("wl.started") += m.started;
  reg->Counter("wl.completed") += m.completed;
  reg->Counter("wl.skipped") += m.skipped;
  reg->Gauge("wl.in_flight") = m.in_flight;
  for (double v : m.fct_us.Values()) reg->Observe("wl.fct_us", {}, v);
  for (double v : m.slowdown.Values()) reg->Observe("wl.slowdown", {}, v);
  for (double v : m.iteration_us.Values()) {
    reg->Observe("wl.iteration_us", {}, v);
  }
}

}  // namespace workload
}  // namespace dcqcn
