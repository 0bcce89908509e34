// Figure 15 — total PAUSE messages received at the spine switches, with and
// without DCQCN, under the §6.2 benchmark traffic (20 user pairs + 10:1
// disk-rebuild incast).
//
// Paper (2-minute hardware run): >6,000,000 PAUSE frames without DCQCN vs
// ~300 with. Our runs are ~1000x shorter, so absolute counts scale down;
// the orders-of-magnitude gap is the result.
#include "bench/common.h"

using namespace dcqcn;
using namespace dcqcn::bench;

int main() {
  const Time kDuration = Milliseconds(40);
  const auto without =
      RunBenchmarkTraffic(CcPolicyIdByName("raw"), /*incast_degree=*/10,
                          /*num_pairs=*/20, kDuration, 11, DefaultTopo());
  const auto with =
      RunBenchmarkTraffic(CcPolicyIdByName("dcqcn"), /*incast_degree=*/10,
                          /*num_pairs=*/20, kDuration, 11, DefaultTopo());

  std::printf("Figure 15: PAUSE frames received at S1+S2 (40 ms benchmark "
              "run)\n");
  std::printf("  %-16s %10lld\n", "without DCQCN",
              static_cast<long long>(without.spine_pauses));
  std::printf("  %-16s %10lld\n", "with DCQCN",
              static_cast<long long>(with.spine_pauses));
  std::printf("\n  total PAUSE frames anywhere: %lld vs %lld\n",
              static_cast<long long>(without.total_pauses),
              static_cast<long long>(with.total_pauses));
  std::printf("\npaper shape: several orders of magnitude fewer PAUSEs with "
              "DCQCN (6M vs ~300 over 2 minutes)\n");
  return 0;
}
