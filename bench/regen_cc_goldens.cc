// Regenerates the pinned congestion-control goldens:
//   * the (scenario x policy) trace fingerprints asserted by
//     tests/cc_differential_test.cc, and
//   * the per-policy 2-flow star constants asserted by tests/golden_test.cc.
//
// Run after an *intended* behaviour change and paste the printed blocks over
// the corresponding tables/constants (see EXPERIMENTS.md, "Regenerating
// goldens"). Usage:
//   regen_cc_goldens            # both blocks
//   regen_cc_goldens --trace fig08 dcqcn   # dump one full trace to stdout
#include <cstdio>
#include <cstring>
#include <string>

#include "cc/scenarios.h"
#include "net/topology.h"

using namespace dcqcn;

namespace {

// The pinned policies, in pin order.
constexpr const char* kPolicies[] = {"dcqcn", "dctcp", "timely", "qcn"};

// The golden_test 2-flow star scenario, parameterized by policy (must
// mirror tests/golden_test.cc RunScenario exactly).
void PrintGoldenConstants(const char* name) {
  const int16_t policy = CcPolicyIdByName(name);
  Network net(42);
  TopologyOptions opt;
  cc::ApplyCcSwitchDefaults(policy, &opt.switch_config);
  StarTopology topo = BuildStar(net, 3, opt);
  for (int i = 0; i < 2; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[2]->id();
    f.size_bytes = 0;
    f.cc_policy = policy;
    net.StartFlow(f);
  }
  net.RunFor(Milliseconds(2));
  const SwitchCounters& sw = topo.sw->counters();
  std::printf("// %s @ seed 42\n", name);
  std::printf("rx=%lld tx=%lld drops=%lld marks=%lld qcn_sent=%lld\n",
              static_cast<long long>(sw.rx_packets),
              static_cast<long long>(sw.tx_packets),
              static_cast<long long>(sw.dropped_packets),
              static_cast<long long>(sw.ecn_marked_packets),
              static_cast<long long>(sw.qcn_feedback_sent));
  for (int i = 0; i < 2; ++i) {
    const SenderQp* qp = topo.hosts[static_cast<size_t>(i)]->FindQp(i);
    std::printf(
        "flow%d delivered=%lld cnps=%lld sent=%lld rate=%.17g cwnd=%lld "
        "dctcp_alpha=%.17g\n",
        i, static_cast<long long>(topo.hosts[2]->ReceiverDeliveredBytes(i)),
        static_cast<long long>(qp->counters().cnps_received),
        static_cast<long long>(qp->counters().packets_sent),
        qp->current_rate(), static_cast<long long>(qp->cwnd()),
        qp->dctcp_alpha());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::strcmp(argv[1], "--trace") == 0) {
    for (const char* name : kPolicies) {
      if (std::strcmp(argv[3], name) == 0) {
        const std::string t =
            cc::RunScenarioTrace(argv[2], CcPolicyIdByName(name), 42);
        std::fputs(t.c_str(), stdout);
        return 0;
      }
    }
    std::fprintf(stderr, "unknown policy %s\n", argv[3]);
    return 1;
  }

  std::printf("// ---- cc_differential_test fingerprints (seed 42) ----\n");
  for (const std::string& scenario : cc::ConformanceScenarios()) {
    for (const char* name : kPolicies) {
      const std::string t =
          cc::RunScenarioTrace(scenario, CcPolicyIdByName(name), 42);
      std::printf("{\"%s\", \"%s\", 0x%016llxull, %zu},\n", scenario.c_str(),
                  name,
                  static_cast<unsigned long long>(cc::TraceFingerprint(t)),
                  t.size());
    }
  }
  std::printf("\n// ---- golden_test per-policy constants ----\n");
  for (const char* name : kPolicies) PrintGoldenConstants(name);
  return 0;
}
