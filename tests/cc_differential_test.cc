// Differential conformance: the pre-refactor behaviour of all four
// congestion-control algorithms on the fig08 / fig09 / victim / incast
// scenarios, pinned as trace fingerprints. These constants were captured
// from the pre-CcPolicy code (direct RpState/TimelyState/DCTCP branches in
// SenderQp) and assert that the CcPolicy implementations reproduce that
// behaviour byte-for-byte — and that no later change drifts it silently.
//
// On an *intended* behaviour change, re-pin with:
//   ./build/bench/regen_cc_goldens   (paste the first block over kPins in
//                                     tests/cc_pins.h)
// and diff the offending pair's full trace via
//   ./build/bench/regen_cc_goldens --trace <scenario> <policy>
#include <gtest/gtest.h>

#include <string>

#include "cc/scenarios.h"
#include "cc_pins.h"

namespace dcqcn {
namespace {

class CcDifferential : public ::testing::TestWithParam<Pin> {};

TEST_P(CcDifferential, MatchesPreRefactorTrace) {
  const Pin& pin = GetParam();
  const std::string trace =
      cc::RunScenarioTrace(pin.scenario, CcPolicyIdByName(pin.policy), 42);
  EXPECT_EQ(trace.size(), pin.trace_bytes)
      << "trace for " << pin.scenario << "/" << pin.policy
      << " changed length; full trace:\n"
      << trace;
  EXPECT_EQ(cc::TraceFingerprint(trace), pin.fingerprint)
      << "behaviour drifted for " << pin.scenario << "/" << pin.policy
      << "; diff against `regen_cc_goldens --trace " << pin.scenario << " "
      << pin.policy << "`. Current trace:\n"
      << trace;
}

// The harness itself must be replay-deterministic, or the pins above would
// be meaningless.
TEST(CcDifferential, TraceIsReplayStable) {
  const std::string a =
      cc::RunScenarioTrace("incast", CcPolicyIdByName("dcqcn"), 7);
  const std::string b =
      cc::RunScenarioTrace("incast", CcPolicyIdByName("dcqcn"), 7);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, cc::RunScenarioTrace("incast", CcPolicyIdByName("dcqcn"), 8));
}

// Sanity: the four algorithms genuinely behave differently on every pinned
// scenario (a digest that collapsed them would prove nothing).
TEST(CcDifferential, PoliciesDivergeOnEveryScenario) {
  for (const std::string& s : cc::ConformanceScenarios()) {
    const uint64_t dcqcn = cc::TraceFingerprint(
        cc::RunScenarioTrace(s, CcPolicyIdByName("dcqcn"), 42));
    const uint64_t dctcp = cc::TraceFingerprint(
        cc::RunScenarioTrace(s, CcPolicyIdByName("dctcp"), 42));
    const uint64_t timely = cc::TraceFingerprint(
        cc::RunScenarioTrace(s, CcPolicyIdByName("timely"), 42));
    const uint64_t qcn = cc::TraceFingerprint(
        cc::RunScenarioTrace(s, CcPolicyIdByName("qcn"), 42));
    EXPECT_NE(dcqcn, dctcp) << s;
    EXPECT_NE(dcqcn, timely) << s;
    EXPECT_NE(dcqcn, qcn) << s;
    EXPECT_NE(dctcp, timely) << s;
    EXPECT_NE(dctcp, qcn) << s;
    EXPECT_NE(timely, qcn) << s;
  }
}

std::string PinName(const ::testing::TestParamInfo<Pin>& info) {
  return std::string(info.param.scenario) + "_" + info.param.policy;
}

INSTANTIATE_TEST_SUITE_P(AllPairs, CcDifferential,
                         ::testing::ValuesIn(kPins), PinName);

}  // namespace
}  // namespace dcqcn
