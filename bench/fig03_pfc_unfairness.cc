// Figure 3 — PFC unfairness (no DCQCN).
//
// Four senders push 4 MB transfers to one receiver R under T4. H1-H3 sit in
// the other pod and share T4's two leaf-facing ports; H4 sits under T4 and
// has a port to itself. PFC pauses ports, not flows, so H4 systematically
// beats H1-H3 (the parking-lot problem): the paper reports H4's *minimum*
// above H1-H3's *maximum*, with H4 up to ~20 Gbps.
#include <algorithm>

#include "bench/common.h"

using namespace dcqcn;
using namespace dcqcn::bench;

int main() {
  const auto res = RunUnfairness(CcPolicyIdByName("raw"),
                                 Milliseconds(40), /*repeats=*/8,
                                 /*seed_base=*/100);
  std::printf("Figure 3(b): per-sender goodput without DCQCN (PFC only), "
              "Gbps\n");
  std::printf("%-6s %8s %8s %8s\n", "host", "min", "median", "max");
  for (int h = 0; h < 4; ++h) {
    const Cdf& c = res.per_host[static_cast<size_t>(h)];
    std::printf("H%-5d %8.2f %8.2f %8.2f\n", h + 1, Q(c, 0.0), Q(c, 0.5),
                Q(c, 1.0));
  }
  std::printf("\npaper shape: H4 min > H1-H3 max; H4 reaches ~20 Gbps; "
              "H1-H3 around 5-10 Gbps\n");
  std::printf("measured   : H4 min %.2f vs best other max %.2f\n",
              Q(res.per_host[3], 0.0),
              std::max({Q(res.per_host[0], 1.0), Q(res.per_host[1], 1.0),
                        Q(res.per_host[2], 1.0)}));
  return 0;
}
