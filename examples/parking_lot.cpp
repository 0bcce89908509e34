// Multi-bottleneck ("parking lot") scenario — §7 / Fig. 20 of the paper.
//
// Three flows on the Clos testbed:
//   f1: H1 (under T1) -> R1 (under T2)
//   f2: H2 (under T1) -> R2 (under T4)
//   f3: H3 (under T3) -> R2 (under T4)
// with ECMP salts chosen so f1 and f2 share the SAME T1 uplink. f2 then has
// two bottlenecks (the shared uplink and T4->R2); max-min fairness says all
// three should get 20 Gbps, but a flow with two bottlenecks sees congestion
// signals from both. DCTCP-style cut-off marking punishes it doubly; the
// RED-like gentle marking of the deployment parameters mitigates this.
#include <cstdio>

#include "net/topology.h"
#include "telemetry/probes.h"

using namespace dcqcn;

namespace {

// Finds an ECMP salt such that the flow's packets leave `sw` on `want_port`.
uint64_t FindSalt(const SharedBufferSwitch& sw, int flow_id, int dst,
                  int want_port) {
  for (uint64_t salt = 0; salt < 4096; ++salt) {
    if (sw.EcmpSelect(FlowEcmpKey(flow_id, salt), dst) == want_port) {
      return salt;
    }
  }
  return 0;  // unreachable for 2-way ECMP
}

void Run(const DcqcnParams& params, const char* label) {
  Network net(3);
  TopologyOptions opt;
  opt.switch_config.red = params.red;
  opt.nic_config.params = params;
  ClosTopology topo = BuildClos(net, 2, opt);

  RdmaNic* h1 = topo.host(0, 0);
  RdmaNic* h2 = topo.host(0, 1);
  RdmaNic* h3 = topo.host(2, 0);
  RdmaNic* r1 = topo.host(1, 0);
  RdmaNic* r2 = topo.host(3, 0);

  // Force f1 and f2 onto the same T1 uplink (port hosts_per_tor = first
  // uplink) — "Consider the case when ECMP maps f1 and f2 to the same
  // uplink from T1."
  const int uplink = topo.hosts_per_tor;
  FlowSpec f1, f2, f3;
  f1.flow_id = 1;
  f1.src_host = h1->id();
  f1.dst_host = r1->id();
  f1.ecmp_salt = FindSalt(*topo.tors[0], f1.flow_id, f1.dst_host, uplink);
  f2.flow_id = 2;
  f2.src_host = h2->id();
  f2.dst_host = r2->id();
  f2.ecmp_salt = FindSalt(*topo.tors[0], f2.flow_id, f2.dst_host, uplink);
  f3.flow_id = 3;
  f3.src_host = h3->id();
  f3.dst_host = r2->id();
  for (FlowSpec* f : {&f1, &f2, &f3}) {
    f->size_bytes = 0;  // greedy
    f->mode = TransportMode::kRdmaDcqcn;
    net.StartFlow(*f);
  }

  telemetry::ProbeSet probes(&net.eq(), Milliseconds(1));
  probes.AddRate("f1", [&] { return r1->ReceiverDeliveredBytes(1); });
  probes.AddRate("f2", [&] { return r2->ReceiverDeliveredBytes(2); });
  probes.AddRate("f3", [&] { return r2->ReceiverDeliveredBytes(3); });
  probes.Start();
  net.RunFor(Milliseconds(150));

  const Time from = Milliseconds(75), to = Milliseconds(150);
  std::printf("%-28s f1=%5.2f  f2=%5.2f  f3=%5.2f Gbps  (max-min fair: 20)\n",
              label, probes.MeanOver(0, from, to),
              probes.MeanOver(1, from, to), probes.MeanOver(2, from, to));
}

}  // namespace

int main() {
  std::printf("Parking-lot scenario: f2 crosses two bottlenecks\n\n");
  Run(DcqcnParams::FastTimerCutoff(), "cut-off marking (DCTCP-like)");
  Run(DcqcnParams::Deployment(), "RED-like marking (deployment)");
  std::printf(
      "\nWith cut-off marking the two-bottleneck flow (f2) is starved; "
      "RED-like marking narrows the gap.\n");
  return 0;
}
