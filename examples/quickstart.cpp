// Quickstart: two DCQCN senders share one 40 Gbps bottleneck.
//
// Demonstrates the core public API in ~40 lines of logic:
//   1. build a network (star topology: one switch, three hosts),
//   2. start two greedy DCQCN flows into the same receiver,
//   3. watch their rates converge to the fair share (~20 Gbps each)
//      while the bottleneck queue stays shallow.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "net/topology.h"
#include "telemetry/probes.h"

using namespace dcqcn;

int main() {
  Network net(/*seed=*/1);

  // One 40 Gbps switch with the paper's deployment configuration (PFC with
  // dynamic thresholds, RED/ECN with Kmin=5KB Kmax=200KB Pmax=1%).
  TopologyOptions opt;
  StarTopology topo = BuildStar(net, /*num_hosts=*/3, opt);

  // Flow 0 starts at t=0; flow 1 joins at t=2ms. DCQCN flows start at full
  // line rate — there is no slow start.
  for (int i = 0; i < 2; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[2]->id();
    f.size_bytes = 0;  // greedy
    f.start_time = i * Milliseconds(2);
    f.mode = TransportMode::kRdmaDcqcn;
    net.StartFlow(f);
  }

  // Sample each flow's goodput every millisecond and the bottleneck queue
  // every 50 us.
  telemetry::ProbeSet rates(&net.eq(), Milliseconds(1));
  rates.AddRate("flow0",
                [&] { return topo.hosts[2]->ReceiverDeliveredBytes(0); });
  rates.AddRate("flow1",
                [&] { return topo.hosts[2]->ReceiverDeliveredBytes(1); });
  rates.Start();
  telemetry::ProbeSet queue(&net.eq(), Microseconds(50));
  queue.AddGauge("queue_bytes", [&] {
    return static_cast<double>(topo.sw->EgressQueueBytes(2, kDataPriority));
  });
  queue.Start();

  net.RunFor(Milliseconds(60));

  std::printf("time(ms)  flow0(Gbps)  flow1(Gbps)\n");
  const auto& s0 = rates.Series(0);
  const auto& s1 = rates.Series(1);
  for (size_t i = 3; i < s0.points.size(); i += 4) {
    std::printf("%7.1f  %11.2f  %11.2f\n", ToMilliseconds(s0.points[i].first),
                s0.points[i].second, s1.points[i].second);
  }
  Cdf qcdf = queue.ToCdf(0, Milliseconds(5));
  std::printf("\nbottleneck queue: median=%.1f KB  p90=%.1f KB  max=%.1f KB\n",
              qcdf.Quantile(0.5) / 1e3, qcdf.Quantile(0.9) / 1e3,
              qcdf.Quantile(1.0) / 1e3);
  std::printf("fair share is 20 Gbps per flow; CNPs received: %lld / %lld\n",
              static_cast<long long>(
                  topo.hosts[0]->FindQp(0)->counters().cnps_received),
              static_cast<long long>(
                  topo.hosts[1]->FindQp(1)->counters().cnps_received));
  return 0;
}
