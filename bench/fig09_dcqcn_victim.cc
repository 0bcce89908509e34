// Figure 9 — DCQCN solves the Fig. 4 victim-flow problem.
//
// "With DCQCN, the throughput of the VS-VR flow does not change as we add
// senders under T3."
#include "bench/common.h"

using namespace dcqcn;
using namespace dcqcn::bench;

int main() {
  std::printf("Figure 9: median victim-flow goodput with DCQCN\n");
  std::printf("%-22s %12s\n", "senders under T3", "VS median (Gbps)");
  std::vector<Cdf> per_config;
  for (int t3 = 0; t3 <= 2; ++t3) {
    per_config.push_back(RunVictim(CcPolicyIdByName("dcqcn"), t3,
                                   Milliseconds(40), /*repeats=*/9,
                                   /*seed_base=*/300));
    std::printf("%-22d %12.2f\n", t3, Q(per_config.back(), 0.5));
  }
  std::printf("\npaper shape: flat (~20 Gbps) regardless of T3 senders\n");
  std::printf("measured   : spread across T3 configs = %.2f Gbps\n",
              Spread(Medians(per_config)));
  return 0;
}
