// Figure 4 — the victim-flow problem (no DCQCN).
//
// An H11-H14 -> R incast congests T4; cascading PAUSEs reach T1 and throttle
// the victim flow VS -> VR even though no link on VS's path is congested.
// Adding senders under T3 (who also target R) makes it worse: the paper sees
// VS fall from ~20 to ~10 Gbps and then to ~4.5 Gbps.
#include "bench/common.h"

using namespace dcqcn;
using namespace dcqcn::bench;

int main() {
  std::printf("Figure 4(b): median victim-flow goodput without DCQCN "
              "(PFC only)\n");
  std::printf("%-22s %12s\n", "senders under T3", "VS median (Gbps)");
  double prev = 1e9;
  for (int t3 = 0; t3 <= 2; ++t3) {
    const Cdf c = RunVictim(CcPolicyIdByName("raw"), t3, Milliseconds(40),
                            /*repeats=*/9, /*seed_base=*/300);
    const double med = Q(c, 0.5);
    std::printf("%-22d %12.2f%s\n", t3, med,
                med <= prev + 0.5 ? "" : "  (!) expected monotone decrease");
    prev = med;
  }
  std::printf("\npaper shape: ~10 Gbps with no T3 senders (instead of the "
              "expected 20), dropping to ~4.5 Gbps with two\n");
  return 0;
}
