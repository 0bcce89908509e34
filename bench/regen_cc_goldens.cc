// Regenerates the pinned congestion-control goldens:
//   * the (scenario x policy) trace fingerprints asserted by
//     tests/cc_differential_test.cc, and
//   * the per-policy 2-flow star constants (cc::RunGoldenStar) asserted by
//     tests/golden_test.cc.
//
// Run after an *intended* behaviour change and paste the printed blocks over
// the corresponding tables/constants (see EXPERIMENTS.md, "Regenerating
// goldens"). Usage:
//   regen_cc_goldens                         # both blocks, every pinned policy
//   regen_cc_goldens --cc=dctcp              # both blocks, one policy
//   regen_cc_goldens --cc=dcqcn --scenario=fig08  # dump one full trace
// Honors --cc only of the runner flags (any other exits 2); --scenario
// without --cc dumps the DCQCN trace.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "cc/scenarios.h"

using namespace dcqcn;

int main(int argc, char** argv) {
  const bench::BenchCli args =
      bench::ParseBenchCli(argc, argv, runner::kCliCc, {}, {"--scenario"});
  if (!args.cli.ok) return 2;
  const std::vector<std::string> scenarios = cc::ConformanceScenarios();
  if (args.Has("--scenario")) {
    const std::string& scenario = args.own.at("--scenario").back();
    if (std::find(scenarios.begin(), scenarios.end(), scenario) ==
        scenarios.end()) {
      std::fprintf(stderr, "unknown --scenario '%s' (scenarios:",
                   scenario.c_str());
      for (const std::string& s : scenarios) {
        std::fprintf(stderr, " %s", s.c_str());
      }
      std::fprintf(stderr, ")\n");
      return 2;
    }
    const std::string t = cc::RunScenarioTrace(
        scenario, runner::ResolveCc(args.cli.cc, kDcqcnPolicyId), 42);
    std::fputs(t.c_str(), stdout);
    return 0;
  }

  // The pinned policies, in pin order (or the one --cc names).
  std::vector<std::string> policies = {"dcqcn", "dctcp", "timely", "qcn"};
  if (!args.cli.cc.empty()) policies = {args.cli.cc};

  std::printf("// ---- cc_differential_test fingerprints (seed 42) ----\n");
  for (const std::string& scenario : scenarios) {
    for (const std::string& name : policies) {
      const std::string t =
          cc::RunScenarioTrace(scenario, CcPolicyIdByName(name), 42);
      std::printf("{\"%s\", \"%s\", 0x%016llxull, %zu},\n", scenario.c_str(),
                  name.c_str(),
                  static_cast<unsigned long long>(cc::TraceFingerprint(t)),
                  t.size());
    }
  }
  std::printf("\n// ---- golden_test per-policy constants ----\n");
  for (const std::string& name : policies) {
    const cc::GoldenStarRun g = cc::RunGoldenStar(CcPolicyIdByName(name), 42);
    std::printf("// %s @ seed 42\n", name.c_str());
    std::printf("rx=%lld tx=%lld drops=%lld marks=%lld qcn_sent=%lld\n",
                static_cast<long long>(g.sw.rx_packets),
                static_cast<long long>(g.sw.tx_packets),
                static_cast<long long>(g.sw.dropped_packets),
                static_cast<long long>(g.sw.ecn_marked_packets),
                static_cast<long long>(g.sw.qcn_feedback_sent));
    for (int i = 0; i < 2; ++i) {
      std::printf(
          "flow%d delivered=%lld cnps=%lld sent=%lld rate=%.17g cwnd=%lld "
          "dctcp_alpha=%.17g\n",
          i, static_cast<long long>(g.delivered[i]),
          static_cast<long long>(g.cnps[i]),
          static_cast<long long>(g.pkts_sent[i]), g.rate_bps[i],
          static_cast<long long>(g.cwnd[i]), g.dctcp_alpha[i]);
    }
  }
  return 0;
}
