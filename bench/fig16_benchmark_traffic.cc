// Figure 16 — DCQCN performance with benchmark traffic (§6.2).
//
// 20 user pairs of trace-shaped transfers + one disk-rebuild incast of
// degree 2..10, with and without DCQCN. Four panels:
//   (a) median user goodput        — collapses with incast degree w/o DCQCN
//   (b) 10th-pct user goodput      — collapses harder w/o DCQCN
//   (c) median incast goodput      — w/o DCQCN deceptively high (unfair)
//   (d) 10th-pct incast goodput    — near the 40/K ideal with DCQCN
#include "bench/common.h"

using namespace dcqcn;
using namespace dcqcn::bench;

int main() {
  const Time kDuration = Milliseconds(40);
  const int kPairs = 20;

  std::printf("Figure 16: user and incast goodput vs incast degree "
              "(Gbps; 40 ms runs, 20 user pairs)\n\n");
  std::printf("%7s | %21s | %21s | %9s\n", "", "user median / p10",
              "incast median / p10", "ideal40/K");
  std::printf("%7s | %10s %10s | %10s %10s |\n", "degree", "no-DCQCN",
              "DCQCN", "no-DCQCN", "DCQCN");

  for (int degree : {2, 4, 6, 8, 10}) {
    const auto off = RunBenchmarkTraffic(CcPolicyIdByName("raw"), degree,
                                         kPairs, kDuration,
                                         static_cast<uint64_t>(degree),
                                         DefaultTopo());
    const auto on = RunBenchmarkTraffic(CcPolicyIdByName("dcqcn"), degree,
                                        kPairs, kDuration,
                                        static_cast<uint64_t>(degree),
                                        DefaultTopo());
    std::printf("%7d | med %5.2f  med %5.2f | med %5.2f  med %5.2f | %6.2f\n",
                degree, Q(off.user, 0.5), Q(on.user, 0.5),
                Q(off.incast, 0.5), Q(on.incast, 0.5), 40.0 / degree);
    std::printf("%7s | p10 %5.2f  p10 %5.2f | p10 %5.2f  p10 %5.2f |\n", "",
                Q(off.user, 0.1), Q(on.user, 0.1), Q(off.incast, 0.1),
                Q(on.incast, 0.1));
  }
  std::printf(
      "\npaper shape: without DCQCN, user goodput falls as incast degree "
      "grows (cascading PAUSEs) and incast p10 is far below fair; with "
      "DCQCN user goodput is flat and incast p10 ~= 40/K\n");
  return 0;
}
