// Ablation — loss recovery granularity: go-back-0 (ConnectX-3 era, a loss
// restarts the whole message) vs go-back-N (per-packet rewind).
//
// The paper's Fig. 18 "DCQCN without PFC" collapse hinges on this NIC
// behavior; later NICs (and the paper's §7 discussion of non-congestion
// losses) motivated better recovery. Sweep the lossy per-queue cap (tighter
// cap = higher loss pressure) for a 4:1 incast of 4 MB chunks and compare
// delivered goodput.
#include <cstdio>

#include "net/topology.h"

using namespace dcqcn;

namespace {

double Run(bool go_back_zero, Bytes cap) {
  TopologyOptions opt;
  opt.switch_config.pfc_enabled = false;
  opt.switch_config.lossy_egress_cap = cap;
  opt.nic_config.go_back_zero = go_back_zero;
  Network net(11);
  StarTopology topo = BuildStar(net, 5, opt);
  for (int i = 0; i < 4; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[4]->id();
    f.size_bytes = 4000 * kKB;
    net.StartFlow(f);
    // Closed loop: next chunk on completion (fresh QP, line-rate start).
    topo.hosts[static_cast<size_t>(i)]->AddCompletionCallback(
        [&net, &topo, i](const FlowRecord& r) {
          FlowSpec nf = r.spec;
          nf.flow_id = net.NextFlowId();
          nf.start_time = net.eq().Now();
          net.StartFlow(nf);
          (void)topo;
          (void)i;
        });
  }
  net.RunFor(Milliseconds(40));
  Bytes total = 0;
  for (const auto& nic : net.hosts()) {
    for (const auto& rec : nic->completed_flows()) total += rec.bytes;
  }
  return static_cast<double>(total) * 8 / 40e-3 / 1e9;  // completed goodput
}

}  // namespace

int main() {
  std::printf("Ablation: loss recovery under a lossy fabric "
              "(4:1 incast of 4 MB chunks, no PFC)\n\n");
  std::printf("%12s | %14s | %14s\n", "lossy cap", "go-back-N Gbps",
              "go-back-0 Gbps");
  for (Bytes cap : {2000 * kKB, 500 * kKB, 250 * kKB, 125 * kKB}) {
    std::printf("%9lld KB | %14.2f | %14.2f\n",
                static_cast<long long>(cap / 1000), Run(false, cap),
                Run(true, cap));
  }
  std::printf("\nexpected: go-back-N degrades gracefully as the cap "
              "tightens; go-back-0 collapses once losses recur within a "
              "message (its whole-message replays multiply the load)\n");
  return 0;
}
