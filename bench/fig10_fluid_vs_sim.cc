// Figure 10 — "Fluid model closely matches implementation."
//
// Two greedy DCQCN flows into one receiver through one 40 Gbps switch; the
// second flow joins mid-run at line rate. We plot the second flow's rate
// from (a) the packet-level simulator (the stand-in for the Mellanox
// firmware) and (b) the §5 fluid model, and report the RMS gap.
#include <cmath>
#include <cstdio>

#include "fluid/fluid_model.h"
#include "net/topology.h"
#include "telemetry/probes.h"

using namespace dcqcn;

int main() {
  constexpr Time kJoin = Milliseconds(5);
  constexpr Time kEnd = Milliseconds(60);
  constexpr Time kSample = Milliseconds(1);

  // --- packet-level "implementation" ---
  Network net(4);
  StarTopology topo = BuildStar(net, 3, TopologyOptions{});
  for (int i = 0; i < 2; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[2]->id();
    f.size_bytes = 0;
    f.start_time = i == 0 ? 0 : kJoin;
    f.mode = TransportMode::kRdmaDcqcn;
    net.StartFlow(f);
  }
  telemetry::ProbeSet probes(&net.eq(), kSample);
  const size_t flow2 = probes.AddRate(
      "flow2", [&] { return topo.hosts[2]->ReceiverDeliveredBytes(1); });
  probes.Start();
  net.RunFor(kEnd);

  // --- fluid model ---
  FluidParams fp = FluidParams::FromDcqcn(DcqcnParams::Deployment(),
                                          Gbps(40), 2);
  FluidModel fm(fp);
  fm.StartFlow(0);
  fm.StartFlowAt(1, ToSeconds(kJoin));

  std::printf("Figure 10: sending rate of the second flow (Gbps)\n");
  std::printf("%8s %14s %12s\n", "t(ms)", "implementation", "fluid");
  double sq_err = 0;
  int n = 0;
  const auto& series = probes.Series(flow2);
  for (const auto& [t, sim_rate] : series.points) {
    fm.RunUntil(ToSeconds(t));
    const double fluid_rate = fm.flow(1).active ? fm.FlowRateGbps(1) : 0.0;
    if (ToMilliseconds(t) >= 6.0) {  // compare after the join transient
      sq_err += (sim_rate - fluid_rate) * (sim_rate - fluid_rate);
      ++n;
    }
    if (static_cast<int64_t>(ToMilliseconds(t)) % 4 == 0) {
      std::printf("%8.1f %14.2f %12.2f\n", ToMilliseconds(t), sim_rate,
                  fluid_rate);
    }
  }
  std::printf("\npaper shape: the model tracks the firmware's rate curve\n");
  std::printf("measured   : RMS gap %.2f Gbps over [6ms, 60ms]\n",
              std::sqrt(sq_err / n));
  return 0;
}
