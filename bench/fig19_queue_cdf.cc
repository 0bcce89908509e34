// Figure 19 — egress queue length CDF at the congested port: DCQCN vs
// DCTCP, 20:1 incast.
//
// Paper (hardware counters): 90th-percentile queue 76.6 KB with DCQCN vs
// 162.9 KB with DCTCP. DCTCP needs a large ECN threshold (160 KB per the
// DCTCP guidelines at 40 Gbps with LSO bursts) while DCQCN's hardware rate
// limiters tolerate Kmin = 5 KB.
#include <cstdio>

#include "net/topology.h"
#include "telemetry/probes.h"

using namespace dcqcn;

namespace {

Cdf RunIncast(int16_t policy, const RedEcnConfig& red, int degree) {
  Network net(12);
  TopologyOptions opt;
  opt.switch_config.red = red;
  StarTopology topo = BuildStar(net, degree + 1, opt);
  for (int i = 0; i < degree; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[static_cast<size_t>(degree)]->id();
    f.size_bytes = 0;
    f.cc_policy = policy;
    net.StartFlow(f);
  }
  telemetry::ProbeSet probes(&net.eq(), Microseconds(10));
  const size_t queue = probes.AddGauge("queue_bytes", [&] {
    return static_cast<double>(
        topo.sw->EgressQueueBytes(degree, kDataPriority));
  });
  probes.Start();
  net.RunFor(Milliseconds(40));
  return probes.ToCdf(queue, Milliseconds(10));  // skip the start-up transient
}

}  // namespace

int main() {
  std::printf("Figure 19: instantaneous egress queue at the congested port "
              "(KB)\n");
  std::printf("%8s | %12s %12s | %12s %12s\n", "", "DCQCN p50", "p90",
              "DCTCP p50", "p90");
  for (int degree : {2, 8, 20}) {
    const Cdf dcqcn_q = RunIncast(CcPolicyIdByName("dcqcn"),
                                  RedEcnConfig::Deployment(), degree);
    const Cdf dctcp_q = RunIncast(CcPolicyIdByName("dctcp"),
                                  RedEcnConfig::CutOff(160 * kKB), degree);
    std::printf("%6d:1 | %12.1f %12.1f | %12.1f %12.1f\n", degree,
                dcqcn_q.Quantile(0.5) / 1e3, dcqcn_q.Quantile(0.9) / 1e3,
                dctcp_q.Quantile(0.5) / 1e3, dctcp_q.Quantile(0.9) / 1e3);
  }
  std::printf(
      "\npaper shape: DCQCN's queue is roughly half of DCTCP's (90th pct: "
      "76.6 KB vs 162.9 KB on their testbed); DCTCP is pinned near its "
      "160 KB ECN threshold while DCQCN's shallow Kmin keeps the queue "
      "short.\nknown deviation: at very high incast degree the aggregate "
      "additive-increase of N senders overruns the gentle RED slope and "
      "the DCQCN queue oscillates up to ~Kmax (the paper's own fluid model "
      "predicts the same, cf. fig12 bench at 16:1).\n");
  return 0;
}
