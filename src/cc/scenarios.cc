#include "cc/scenarios.h"

#include <cstdarg>
#include <cstdio>

#include "net/topology.h"

namespace dcqcn {
namespace cc {
namespace {

// One tracked flow of a scenario: where it terminates and which NICs hold
// its sender/receiver state.
struct TrackedFlow {
  int flow_id = -1;
  int src_host = -1;
  int dst_host = -1;
};

void Append(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out->append(buf);
}

TrackedFlow StartFlow(Network& net, RdmaNic* src, RdmaNic* dst, Bytes size,
                      int16_t policy, Time start) {
  FlowSpec f;
  f.flow_id = net.NextFlowId();
  f.src_host = src->id();
  f.dst_host = dst->id();
  f.size_bytes = size;
  f.cc_policy = policy;
  f.start_time = start;
  net.StartFlow(f);
  return TrackedFlow{f.flow_id, f.src_host, f.dst_host};
}

// Samples every tracked flow's sender and receiver state into the trace.
void SampleFlows(std::string* out, Network& net,
                 const std::vector<TrackedFlow>& flows) {
  for (const TrackedFlow& tf : flows) {
    const SenderQp* qp = net.host(tf.src_host)->FindQp(tf.flow_id);
    const Bytes delivered =
        net.host(tf.dst_host)->ReceiverDeliveredBytes(tf.flow_id);
    Append(out,
           "  flow=%d rate=%.17g delivered=%lld cnps=%lld sent=%lld "
           "retx=%lld cwnd=%lld dctcp_alpha=%.17g\n",
           tf.flow_id, qp->current_rate(),
           static_cast<long long>(delivered),
           static_cast<long long>(qp->counters().cnps_received),
           static_cast<long long>(qp->counters().packets_sent),
           static_cast<long long>(qp->counters().retransmitted_packets),
           static_cast<long long>(qp->cwnd()), qp->dctcp_alpha());
  }
}

// Runs to `duration` in `samples` equal steps, sampling after each, then
// folds in fabric totals and every completion record.
std::string RunAndDigest(Network& net, const std::vector<TrackedFlow>& flows,
                         Time duration, int samples, std::string header) {
  std::string out = std::move(header);
  for (int s = 1; s <= samples; ++s) {
    net.RunUntil(duration * s / samples);
    Append(&out, "t=%lld\n",
           static_cast<long long>(net.eq().Now()));
    SampleFlows(&out, net, flows);
  }
  int64_t rx = 0, tx = 0, drops = 0, marks = 0, pauses = 0, qcn_sent = 0,
          qcn_dropped = 0;
  for (const auto& sw : net.switches()) {
    const SwitchCounters& c = sw->counters();
    rx += c.rx_packets;
    tx += c.tx_packets;
    drops += c.dropped_packets;
    marks += c.ecn_marked_packets;
    pauses += c.pause_frames_sent;
    qcn_sent += c.qcn_feedback_sent;
    qcn_dropped += c.qcn_feedback_dropped;
  }
  Append(&out,
         "fabric rx=%lld tx=%lld drops=%lld marks=%lld pauses=%lld "
         "qcn=%lld/%lld cnps=%lld naks=%lld ooo=%lld\n",
         static_cast<long long>(rx), static_cast<long long>(tx),
         static_cast<long long>(drops), static_cast<long long>(marks),
         static_cast<long long>(pauses), static_cast<long long>(qcn_sent),
         static_cast<long long>(qcn_dropped),
         static_cast<long long>(net.TotalCnpsSent()),
         static_cast<long long>(net.TotalNaks()),
         static_cast<long long>(net.TotalOutOfOrderPackets()));
  for (const auto& h : net.hosts()) {
    for (const FlowRecord& rec : h->completed_flows()) {
      Append(&out, "done flow=%d bytes=%lld fct=%lld\n", rec.spec.flow_id,
             static_cast<long long>(rec.bytes),
             static_cast<long long>(rec.fct()));
    }
  }
  return out;
}

void SwitchDefaultsFor(TransportMode mode, SwitchConfig* cfg) {
  if (mode == TransportMode::kTimely) {
    cfg->red.enabled = false;
  } else if (mode == TransportMode::kQcn) {
    cfg->red.enabled = false;
    cfg->qcn.enabled = true;
  }
}

TopologyOptions TopoFor(int16_t policy) {
  TopologyOptions opt;
  ApplyCcSwitchDefaults(policy, &opt.switch_config);
  return opt;
}

// fig08-style parking lot: four staggered 8 MB transfers into one receiver
// through a single switch; the stagger is short enough that all four
// overlap, so the digest sees fairness convergence *and* completion.
std::string Fig08(int16_t policy, uint64_t seed) {
  Network net(seed);
  StarTopology topo = BuildStar(net, 5, TopoFor(policy));
  std::vector<TrackedFlow> flows;
  for (int i = 0; i < 4; ++i) {
    flows.push_back(StartFlow(net, topo.hosts[static_cast<size_t>(i)],
                              topo.hosts[4], 8 * kMiB, policy,
                              i * Microseconds(200)));
  }
  return RunAndDigest(net, flows, Milliseconds(12), 6, "scenario=fig08\n");
}

// fig09-style Clos victim: a cross-pod incast into R while a victim flow
// crosses the congested ToR; exercises routed CNP/feedback paths and PFC
// back-pressure across tiers.
std::string Fig09(int16_t policy, uint64_t seed) {
  Network net(seed);
  ClosTopology topo = BuildClos(net, 2, TopoFor(policy));
  std::vector<TrackedFlow> flows;
  RdmaNic* r = topo.host(3, 0);
  flows.push_back(StartFlow(net, topo.host(0, 0), r, 0, policy, 0));
  flows.push_back(StartFlow(net, topo.host(1, 0), r, 0, policy, 0));
  flows.push_back(StartFlow(net, topo.host(2, 0), r, 0, policy, 0));
  flows.push_back(StartFlow(net, topo.host(2, 1), r, 0, policy, 0));
  // Victim: pod-0-internal, shares T1's uplinks with the incast senders.
  flows.push_back(StartFlow(net, topo.host(0, 1), topo.host(1, 1), 0, policy,
                            Milliseconds(1)));
  return RunAndDigest(net, flows, Milliseconds(10), 5, "scenario=fig09\n");
}

// Star victim: a 6:1 incast plus an unrelated flow whose ingress shares the
// switch buffer — the PFC-collateral-damage shape on one switch.
std::string Victim(int16_t policy, uint64_t seed) {
  Network net(seed);
  StarTopology topo = BuildStar(net, 8, TopoFor(policy));
  std::vector<TrackedFlow> flows;
  for (int i = 0; i < 6; ++i) {
    flows.push_back(StartFlow(net, topo.hosts[static_cast<size_t>(i)],
                              topo.hosts[6], 0, policy, 0));
  }
  flows.push_back(StartFlow(net, topo.hosts[7], topo.hosts[5], 0, policy, 0));
  return RunAndDigest(net, flows, Milliseconds(10), 5, "scenario=victim\n");
}

// 8:1 greedy incast through one switch — the densest feedback workload.
std::string Incast(int16_t policy, uint64_t seed) {
  Network net(seed);
  StarTopology topo = BuildStar(net, 9, TopoFor(policy));
  std::vector<TrackedFlow> flows;
  for (int i = 0; i < 8; ++i) {
    flows.push_back(StartFlow(net, topo.hosts[static_cast<size_t>(i)],
                              topo.hosts[8], 0, policy, 0));
  }
  return RunAndDigest(net, flows, Milliseconds(10), 5, "scenario=incast\n");
}

}  // namespace

std::vector<std::string> ConformanceScenarios() {
  return {"fig08", "fig09", "victim", "incast"};
}

void ApplyCcSwitchDefaults(int16_t policy, SwitchConfig* cfg) {
  SwitchDefaultsFor(CcPolicyInfoById(policy).mode, cfg);
}

void ApplyCcSwitchDefaults(TransportMode mode, SwitchConfig* cfg) {
  SwitchDefaultsFor(mode, cfg);
}

std::string RunScenarioTrace(const std::string& scenario, int16_t policy,
                             uint64_t seed) {
  if (scenario == "fig08") return Fig08(policy, seed);
  if (scenario == "fig09") return Fig09(policy, seed);
  if (scenario == "victim") return Victim(policy, seed);
  if (scenario == "incast") return Incast(policy, seed);
  DCQCN_CHECK(false && "unknown conformance scenario");
  return "";
}

GoldenStarRun RunGoldenStar(int16_t policy, uint64_t seed) {
  Network net(seed);
  TopologyOptions opt;
  ApplyCcSwitchDefaults(policy, &opt.switch_config);
  StarTopology topo = BuildStar(net, 3, opt);
  for (int i = 0; i < 2; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[2]->id();
    f.size_bytes = 0;  // greedy
    f.cc_policy = policy;
    net.StartFlow(f);
  }
  net.RunFor(Milliseconds(2));

  GoldenStarRun g;
  g.sw = topo.sw->counters();
  for (int i = 0; i < 2; ++i) {
    g.delivered[i] = topo.hosts[2]->ReceiverDeliveredBytes(i);
    const SenderQp* qp = topo.hosts[static_cast<size_t>(i)]->FindQp(i);
    g.rate_bps[i] = qp->current_rate();
    g.cnps[i] = qp->counters().cnps_received;
    g.pkts_sent[i] = qp->counters().packets_sent;
    g.cwnd[i] = qp->cwnd();
    g.dctcp_alpha[i] = qp->dctcp_alpha();
  }
  return g;
}

uint64_t TraceFingerprint(const std::string& trace) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : trace) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace cc
}  // namespace dcqcn
