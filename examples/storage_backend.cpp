// Storage-backend scenario (the paper's motivating §6.2 deployment):
// a 3-tier Clos testbed carrying user request traffic plus a disk-rebuild
// incast, with and without DCQCN.
//
// Prints the user / rebuild goodput distributions and the PAUSE-frame
// totals, showing how DCQCN keeps PFC quiescent and protects the user
// traffic from the incast.
//
// Usage: storage_backend [incast_degree] [num_pairs]   (defaults 8, 12)
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "net/topology.h"
#include "workload/pairs.h"
#include "workload/sim_host.h"

using namespace dcqcn;

namespace {

constexpr Time kRunTime = Milliseconds(40);

void RunOnce(const char* cc, int incast_degree, int pairs) {
  Network net(/*seed=*/2026);
  ClosTopology topo = BuildClos(net, /*hosts_per_tor=*/5, TopologyOptions{});

  workload::PairsOptions opt;
  opt.num_pairs = pairs;
  opt.incast_degree = incast_degree;
  opt.seed = 7;
  workload::PairsPattern traffic(opt);
  workload::SimWorkloadHost host(net, topo.AllHosts(), CcPolicyIdByName(cc));
  host.Begin(traffic);
  net.RunFor(kRunTime);

  int64_t spine_pauses = 0;
  for (auto* s : topo.spines) {
    spine_pauses += s->counters().pause_frames_received;
  }
  const char* label = std::strcmp(cc, "dcqcn") == 0 ? "DCQCN " : "PFC-only";
  std::printf(
      "%s: user median %5.2f Gbps, user p10 %5.2f | rebuild median %5.2f, "
      "p10 %5.2f | PAUSE@spines %lld | drops %lld\n",
      label, traffic.user_goodput().Quantile(0.5),
      traffic.user_goodput().Quantile(0.1),
      traffic.incast_goodput().Quantile(0.5),
      traffic.incast_goodput().Quantile(0.1),
      static_cast<long long>(spine_pauses),
      static_cast<long long>(net.TotalDrops()));
}

}  // namespace

int main(int argc, char** argv) {
  const int degree = argc > 1 ? std::atoi(argv[1]) : 8;
  const int pairs = argc > 2 ? std::atoi(argv[2]) : 12;
  std::printf(
      "Cloud-storage backend on the Fig. 2 Clos testbed: %d user pairs + "
      "%d:1 disk-rebuild incast, %.0f ms\n\n",
      pairs, degree, ToMilliseconds(kRunTime));
  RunOnce("raw", degree, pairs);
  RunOnce("dcqcn", degree, pairs);
  std::printf(
      "\nDCQCN keeps the fabric nearly PAUSE-free, so the incast cannot "
      "spread congestion into the user traffic.\n");
  return 0;
}
