// Golden-trace regression: a small 2-flow + 1-switch DCQCN scenario at a
// fixed seed, with exact switch counters, delivered bytes, and final rates
// pinned. Any change to event ordering, the RNG stream layout, packet
// accounting, or the RP/NP state machines trips this test *explicitly*
// instead of silently shifting every figure in EXPERIMENTS.md.
//
// If a change is *intended* to alter simulation behaviour, re-derive the
// constants (run the scenario, copy the new values) and say so in the
// commit message — that is the point of the pin.
#include <gtest/gtest.h>

#include "cc/scenarios.h"
#include "net/topology.h"

namespace dcqcn {
namespace {

// The scenario is cc::RunGoldenStar, shared with bench/regen_cc_goldens.
using GoldenRun = cc::GoldenStarRun;

GoldenRun RunScenario(uint64_t seed, int16_t policy = kDcqcnPolicyId) {
  return cc::RunGoldenStar(policy, seed);
}

TEST(GoldenTrace, TwoFlowDcqcnIncastAtSeed42) {
  const GoldenRun g = RunScenario(42);

  // Switch counters after 2 ms of a 2:1 greedy DCQCN incast, seed 42.
  EXPECT_EQ(g.sw.rx_packets, 4700);
  EXPECT_EQ(g.sw.tx_packets, 4700);
  EXPECT_EQ(g.sw.dropped_packets, 0);
  EXPECT_EQ(g.sw.ecn_marked_packets, 594);
  EXPECT_EQ(g.sw.pause_frames_sent, 0);
  EXPECT_EQ(g.sw.resume_frames_sent, 0);
  EXPECT_EQ(g.sw.pause_frames_received, 0);

  EXPECT_EQ(g.delivered[0], 1633000);
  EXPECT_EQ(g.delivered[1], 2915000);
  EXPECT_EQ(g.cnps[0], 4);
  EXPECT_EQ(g.cnps[1], 3);
  EXPECT_EQ(g.pkts_sent[0], 1635);
  EXPECT_EQ(g.pkts_sent[1], 2918);

  // Final rate-limiter settings are exact doubles: the RP update chain is
  // pure floating-point arithmetic from pinned inputs.
  EXPECT_DOUBLE_EQ(g.rate_bps[0], 6119999999.7834673);
  EXPECT_DOUBLE_EQ(g.rate_bps[1], 11119999999.49243);
}

// Per-policy pins on the same 2-flow star: captured before the CcPolicy
// refactor, these freeze each algorithm's state machine independently of
// the differential fingerprints (which hash whole traces — these give a
// readable first diff when something drifts).
TEST(GoldenTrace, TwoFlowDctcpIncastAtSeed42) {
  const GoldenRun g = RunScenario(42, CcPolicyIdByName("dctcp"));

  EXPECT_EQ(g.sw.rx_packets, 20113);
  EXPECT_EQ(g.sw.tx_packets, 19973);
  EXPECT_EQ(g.sw.dropped_packets, 0);
  EXPECT_EQ(g.sw.ecn_marked_packets, 1935);
  EXPECT_EQ(g.sw.qcn_feedback_sent, 0);

  EXPECT_EQ(g.delivered[0], 4380000);
  EXPECT_EQ(g.delivered[1], 5606000);
  EXPECT_EQ(g.cnps[0], 0);  // DCTCP echoes marks in ACKs, never CNPs.
  EXPECT_EQ(g.cnps[1], 0);
  EXPECT_EQ(g.pkts_sent[0], 4460);
  EXPECT_EQ(g.pkts_sent[1], 5678);

  // Window-based: the rate limiter stays at line rate; cwnd and the DCTCP
  // alpha EWMA carry the control state.
  EXPECT_DOUBLE_EQ(g.rate_bps[0], 40000000000.0);
  EXPECT_DOUBLE_EQ(g.rate_bps[1], 40000000000.0);
  EXPECT_EQ(g.cwnd[0], 81652);
  EXPECT_EQ(g.cwnd[1], 81849);
  EXPECT_DOUBLE_EQ(g.dctcp_alpha[0], 0.014351005605689695);
  EXPECT_DOUBLE_EQ(g.dctcp_alpha[1], 0.013673756934668621);
}

TEST(GoldenTrace, TwoFlowTimelyIncastAtSeed42) {
  const GoldenRun g = RunScenario(42, CcPolicyIdByName("timely"));

  // TIMELY runs with RED/ECN disabled — it reacts to RTT gradients only.
  EXPECT_EQ(g.sw.rx_packets, 1119);
  EXPECT_EQ(g.sw.tx_packets, 1119);
  EXPECT_EQ(g.sw.dropped_packets, 0);
  EXPECT_EQ(g.sw.ecn_marked_packets, 0);
  EXPECT_EQ(g.sw.qcn_feedback_sent, 0);

  EXPECT_EQ(g.delivered[0], 544000);
  EXPECT_EQ(g.delivered[1], 541000);
  EXPECT_EQ(g.cnps[0], 0);
  EXPECT_EQ(g.cnps[1], 0);
  EXPECT_EQ(g.pkts_sent[0], 545);
  EXPECT_EQ(g.pkts_sent[1], 541);

  EXPECT_DOUBLE_EQ(g.rate_bps[0], 1944030037.7152839);
  EXPECT_DOUBLE_EQ(g.rate_bps[1], 1741645420.2643888);
}

TEST(GoldenTrace, TwoFlowQcnIncastAtSeed42) {
  const GoldenRun g = RunScenario(42, CcPolicyIdByName("qcn"));

  // QCN runs with RED off and the switch-side CP sampler on: feedback
  // arrives as quantized congestion messages, counted like CNPs at the RP.
  EXPECT_EQ(g.sw.rx_packets, 6694);
  EXPECT_EQ(g.sw.tx_packets, 6701);
  EXPECT_EQ(g.sw.dropped_packets, 0);
  EXPECT_EQ(g.sw.ecn_marked_packets, 0);
  EXPECT_EQ(g.sw.qcn_feedback_sent, 7);

  EXPECT_EQ(g.delivered[0], 4127000);
  EXPECT_EQ(g.delivered[1], 2363000);
  EXPECT_EQ(g.cnps[0], 3);
  EXPECT_EQ(g.cnps[1], 4);
  EXPECT_EQ(g.pkts_sent[0], 4131);
  EXPECT_EQ(g.pkts_sent[1], 2365);

  EXPECT_DOUBLE_EQ(g.rate_bps[0], 16433720702.322058);
  EXPECT_DOUBLE_EQ(g.rate_bps[1], 8856498794.676384);
}

TEST(GoldenTrace, RepeatedRunsAreBitIdentical) {
  const GoldenRun a = RunScenario(42);
  const GoldenRun b = RunScenario(42);
  EXPECT_EQ(a.sw.rx_packets, b.sw.rx_packets);
  EXPECT_EQ(a.sw.ecn_marked_packets, b.sw.ecn_marked_packets);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(a.delivered[i], b.delivered[i]);
    EXPECT_EQ(a.rate_bps[i], b.rate_bps[i]);  // exact, not approximate
    EXPECT_EQ(a.cnps[i], b.cnps[i]);
  }
}

TEST(GoldenTrace, DifferentSeedDiverges) {
  // Sanity check that the pin is actually sensitive to the RNG stream:
  // NIC timer jitter draws differ under another seed.
  const GoldenRun a = RunScenario(42);
  const GoldenRun b = RunScenario(43);
  EXPECT_TRUE(a.delivered[0] != b.delivered[0] ||
              a.delivered[1] != b.delivered[1] ||
              a.rate_bps[0] != b.rate_bps[0] ||
              a.rate_bps[1] != b.rate_bps[1]);
}

}  // namespace
}  // namespace dcqcn
