// Figure 8 — DCQCN solves the Fig. 3 unfairness.
//
// Identical setup to fig03_pfc_unfairness but with DCQCN enabled: "All four
// flows get equal share of the bottleneck bandwidth, and there is little
// variance."
#include <algorithm>

#include "bench/common.h"

using namespace dcqcn;
using namespace dcqcn::bench;

int main() {
  const auto res = RunUnfairness(CcPolicyIdByName("dcqcn"),
                                 Milliseconds(40), /*repeats=*/8,
                                 /*seed_base=*/100);
  std::printf("Figure 8: per-sender goodput with DCQCN, Gbps\n");
  std::printf("%-6s %8s %8s %8s\n", "host", "min", "median", "max");
  const std::vector<double> medians = Medians(res.per_host);
  for (int h = 0; h < 4; ++h) {
    const Cdf& c = res.per_host[static_cast<size_t>(h)];
    std::printf("H%-5d %8.2f %8.2f %8.2f\n", h + 1, Q(c, 0.0),
                medians[static_cast<size_t>(h)], Q(c, 1.0));
  }
  std::printf("\npaper shape: all four senders ~10 Gbps with little "
              "variance\n");
  std::printf("measured   : medians within [%.2f, %.2f], Jain index %.3f\n",
              *std::min_element(medians.begin(), medians.end()),
              *std::max_element(medians.begin(), medians.end()),
              JainIndex(medians));
  return 0;
}
