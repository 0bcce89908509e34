// Ablation — NIC clock desynchronization (timer/pacing jitter).
//
// Real NICs' rate-increase timers are not phase-locked across servers. In a
// perfectly deterministic simulation all N senders of an incast cut and
// recover in lockstep, so their rate sum swings through C together and the
// bottleneck queue oscillates far more than hardware shows. This ablation
// quantifies that modeling choice (DESIGN.md documents it).
#include <cstdio>

#include "net/topology.h"
#include "telemetry/probes.h"

using namespace dcqcn;

namespace {

struct Result {
  double q50, q90, total_gbps;
};

Result Run(double timer_jitter, double pacing_jitter, int k) {
  TopologyOptions opt;
  opt.nic_config.timer_jitter = timer_jitter;
  opt.nic_config.pacing_jitter = pacing_jitter;
  Network net(13);
  StarTopology topo = BuildStar(net, k + 1, opt);
  for (int i = 0; i < k; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[static_cast<size_t>(k)]->id();
    f.size_bytes = 0;
    net.StartFlow(f);
  }
  telemetry::ProbeSet probes(&net.eq(), Microseconds(10));
  const size_t queue = probes.AddGauge("queue_bytes", [&] {
    return static_cast<double>(topo.sw->EgressQueueBytes(k, kDataPriority));
  });
  probes.Start();
  net.RunFor(Milliseconds(10));
  Bytes before = 0;
  for (int i = 0; i < k; ++i) {
    before += topo.hosts[static_cast<size_t>(k)]->ReceiverDeliveredBytes(i);
  }
  net.RunFor(Milliseconds(20));
  Bytes after = 0;
  for (int i = 0; i < k; ++i) {
    after += topo.hosts[static_cast<size_t>(k)]->ReceiverDeliveredBytes(i);
  }
  const Cdf q = probes.ToCdf(queue, Milliseconds(10));
  return Result{q.Quantile(0.5) / 1e3, q.Quantile(0.9) / 1e3,
                static_cast<double>(after - before) * 8 / 20e-3 / 1e9};
}

}  // namespace

int main() {
  std::printf("Ablation: NIC clock jitter (queue KB / utilization, 30 ms "
              "runs)\n\n");
  std::printf("%6s | %22s | %26s\n", "", "no jitter", "10%% timer + 2%% pacing");
  std::printf("%6s | %6s %6s %8s | %6s %6s %8s\n", "incast", "q50", "q90",
              "Gbps", "q50", "q90", "Gbps");
  for (int k : {4, 8, 16}) {
    const Result off = Run(0.0, 0.0, k);
    const Result on = Run(0.10, 0.02, k);
    std::printf("%4d:1 | %6.0f %6.0f %8.2f | %6.0f %6.0f %8.2f\n", k,
                off.q50, off.q90, off.total_gbps, on.q50, on.q90,
                on.total_gbps);
  }
  std::printf("\nobservation: at these scales the queue statistics are "
              "dominated by the shared marking episodes rather than timer "
              "phase, so jitter changes little — evidence that the fleet's "
              "synchronization happens through the congestion signal "
              "itself; jitter remains on by default for realism\n");
  return 0;
}
