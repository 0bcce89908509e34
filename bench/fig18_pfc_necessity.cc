// Figure 18 — the need for PFC and for correct buffer thresholds.
//
// 8:1 incast + 20 user pairs under four configurations:
//   1. No DCQCN (PFC only)            — baseline, congestion spreading
//   2. DCQCN without PFC              — flows start at line rate, so bursts
//      overflow the (lossy) buffer; go-back-N struggles; the paper's 10th
//      percentile incast goodput is ZERO
//   3. DCQCN + PFC, misconfigured     — static t_PFC at its upper bound and
//      t_ECN = 120 KB (5x): PFC fires before ECN, masking DCQCN
//   4. DCQCN + PFC, correct thresholds (deployment)
//
// Paper shape (10th pct): (4) > (3) > (1) for both traffic classes, with
// (2) catastrophically bad for the incast.
#include "bench/common.h"

using namespace dcqcn;
using namespace dcqcn::bench;

int main() {
  const Time kDuration = Milliseconds(40);
  const int kDegree = 8, kPairs = 20;
  const uint64_t kSeed = 31;

  struct Row {
    const char* label;
    TrafficResult res;
  };
  std::vector<Row> rows;

  // 1. PFC only.
  rows.push_back({"No DCQCN (PFC only)",
                  RunBenchmarkTraffic(CcPolicyIdByName("raw"), kDegree,
                                      kPairs, kDuration, kSeed,
                                      DefaultTopo())});

  // 2. DCQCN without PFC: lossy fabric with a per-queue cap standing in for
  // the shared-buffer dynamic limit on lossy classes. With the incast
  // keeping the shared pool hot, a queue's share of the free pool is small
  // (~160 KB) — right where DCQCN's high-fan-in queue oscillates, so drops
  // recur and go-back-0 recovery livelocks (the paper's "unable to recover
  // from persistent packet losses").
  {
    TopologyOptions topo = DefaultTopo();
    topo.switch_config.pfc_enabled = false;
    topo.switch_config.lossy_egress_cap = 160 * kKB;
    rows.push_back({"DCQCN without PFC",
                    RunBenchmarkTraffic(CcPolicyIdByName("dcqcn"), kDegree,
                                        kPairs, kDuration, kSeed, topo)});
  }

  // 3. DCQCN with misconfigured thresholds: static t_PFC upper bound
  // (~24.5 KB) and Kmin = 120 KB, so PFC fires long before ECN.
  {
    TopologyOptions topo = DefaultTopo();
    const Bytes headroom =
        HeadroomPerPortPriority(topo.switch_config.buffer);
    topo.switch_config.dynamic_pfc = false;
    topo.switch_config.static_pfc_threshold =
        StaticPfcThreshold(topo.switch_config.buffer, headroom);
    topo.switch_config.red.kmin = 120 * kKB;
    topo.switch_config.red.kmax = 320 * kKB;
    rows.push_back({"DCQCN (misconfigured)",
                    RunBenchmarkTraffic(CcPolicyIdByName("dcqcn"), kDegree,
                                        kPairs, kDuration, kSeed, topo)});
  }

  // 4. DCQCN, correct thresholds.
  rows.push_back({"DCQCN",
                  RunBenchmarkTraffic(CcPolicyIdByName("dcqcn"), kDegree,
                                      kPairs, kDuration, kSeed,
                                      DefaultTopo())});

  std::printf("Figure 18: 10th-percentile goodput for 8:1 incast + 20 user "
              "pairs (Gbps)\n");
  std::printf("%-26s %12s %12s %10s\n", "configuration", "user p10",
              "incast p10", "drops");
  for (const Row& r : rows) {
    std::printf("%-26s %12.2f %12.2f %10lld\n", r.label, Q(r.res.user, 0.1),
                Q(r.res.incast, 0.1),
                static_cast<long long>(r.res.drops));
  }
  std::printf("\npaper shape: without PFC the incast p10 is ~0 (persistent "
              "go-back-N losses); misconfigured thresholds land between "
              "PFC-only and full DCQCN\n");
  return 0;
}
