// Figure 20 — multi-bottleneck (parking lot) scenario (§7).
//
// f1: H1(T1)->R1(T2), f2: H2(T1)->R2(T4), f3: H3(T3)->R2(T4), with ECMP
// salts chosen so f1 and f2 collide on one T1 uplink. f2 crosses two
// bottlenecks; max-min fairness would give all three 20 Gbps. Cut-off
// (DCTCP-like) marking starves f2 because it sees congestion signals from
// both bottlenecks; the deployment's RED-like marking mitigates (but does
// not fully solve) the problem.
#include <cstdio>

#include "net/topology.h"
#include "telemetry/probes.h"

using namespace dcqcn;

namespace {

uint64_t FindSalt(const SharedBufferSwitch& sw, int flow_id, int dst,
                  int want_port) {
  for (uint64_t salt = 0; salt < 4096; ++salt) {
    if (sw.EcmpSelect(FlowEcmpKey(flow_id, salt), dst) == want_port) {
      return salt;
    }
  }
  return 0;
}

struct Rates {
  double f1, f2, f3;
};

Rates Run(const DcqcnParams& params) {
  Network net(3);
  TopologyOptions opt;
  opt.switch_config.red = params.red;
  opt.nic_config.params = params;
  ClosTopology topo = BuildClos(net, 2, opt);
  RdmaNic* r1 = topo.host(1, 0);
  RdmaNic* r2 = topo.host(3, 0);

  const int uplink = topo.hosts_per_tor;  // T1's first uplink port
  FlowSpec f1, f2, f3;
  f1.flow_id = 1;
  f1.src_host = topo.host(0, 0)->id();
  f1.dst_host = r1->id();
  f1.ecmp_salt = FindSalt(*topo.tors[0], 1, f1.dst_host, uplink);
  f2.flow_id = 2;
  f2.src_host = topo.host(0, 1)->id();
  f2.dst_host = r2->id();
  f2.ecmp_salt = FindSalt(*topo.tors[0], 2, f2.dst_host, uplink);
  f3.flow_id = 3;
  f3.src_host = topo.host(2, 0)->id();
  f3.dst_host = r2->id();
  for (FlowSpec* f : {&f1, &f2, &f3}) {
    f->size_bytes = 0;
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
  return Rates{probes.MeanOver(0, from, to), probes.MeanOver(1, from, to),
               probes.MeanOver(2, from, to)};
}

}  // namespace

int main() {
  std::printf("Figure 20(b): parking-lot goodput, tail window (Gbps; "
              "max-min fair = 20 each)\n");
  std::printf("%-28s %8s %8s %8s\n", "marking scheme", "f1", "f2", "f3");
  const Rates cutoff = Run(DcqcnParams::FastTimerCutoff());
  std::printf("%-28s %8.2f %8.2f %8.2f\n", "cut-off (DCTCP-like)", cutoff.f1,
              cutoff.f2, cutoff.f3);
  const Rates red = Run(DcqcnParams::Deployment());
  std::printf("%-28s %8.2f %8.2f %8.2f\n", "RED-like (deployment)", red.f1,
              red.f2, red.f3);
  std::printf("\npaper shape: the two-bottleneck flow f2 is starved under "
              "cut-off marking and recovers much of its share under "
              "RED-like marking\n");
  std::printf("measured   : f2 %.2f -> %.2f Gbps\n", cutoff.f2, red.f2);
  return 0;
}
