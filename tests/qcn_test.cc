// QCN (802.1Qau) baseline tests — the protocol DCQCN generalizes, and the
// §2.3 demonstration of why it cannot run across an IP-routed fabric.
#include "core/qcn.h"

#include <gtest/gtest.h>

#include "net/topology.h"

namespace dcqcn {
namespace {

QcnParams Params() {
  QcnParams p;
  p.enabled = true;
  return p;
}

TEST(QcnCp, NoFeedbackBelowEquilibrium) {
  QcnParams p = Params();
  p.sample_prob = 1.0;  // sample everything for determinism
  QcnCp cp;
  Rng rng(1);
  // Ramp the queue up to just below q_eq: Fb = -(q_off + w*q_delta) with
  // q_off < 0 and small deltas stays positive-or-zero => no feedback.
  for (Bytes q = 0; q < p.q_eq / 2; q += 1000) {
    EXPECT_EQ(cp.OnPacketArrival(p, q, rng), 0) << q;
  }
}

TEST(QcnCp, FeedbackGrowsWithCongestion) {
  QcnParams p = Params();
  p.sample_prob = 1.0;
  QcnCp cp;
  Rng rng(1);
  (void)cp.OnPacketArrival(p, p.q_eq, rng);  // settle q_old at q_eq
  const int mild = cp.OnPacketArrival(p, p.q_eq + 10 * kKB, rng);
  QcnCp cp2;
  (void)cp2.OnPacketArrival(p, p.q_eq, rng);
  const int severe = cp2.OnPacketArrival(p, p.q_eq + 60 * kKB, rng);
  EXPECT_GT(mild, 0);
  EXPECT_GT(severe, mild);
  EXPECT_LT(severe, p.quant_levels);
}

TEST(QcnCp, DerivativeTermReactsToRapidGrowth) {
  QcnParams p = Params();
  p.sample_prob = 1.0;
  QcnCp slow_cp, fast_cp;
  Rng rng(1);
  // Same queue level, different growth since the last sample.
  (void)slow_cp.OnPacketArrival(p, p.q_eq + 9 * kKB, rng);
  const int slow = slow_cp.OnPacketArrival(p, p.q_eq + 10 * kKB, rng);
  (void)fast_cp.OnPacketArrival(p, p.q_eq - 30 * kKB, rng);
  const int fast = fast_cp.OnPacketArrival(p, p.q_eq + 10 * kKB, rng);
  EXPECT_GT(fast, slow);
}

TEST(QcnCp, SamplingRateRespected) {
  QcnParams p = Params();
  p.sample_prob = 0.01;
  QcnCp cp;
  Rng rng(7);
  int fed = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    fed += cp.OnPacketArrival(p, p.q_eq + 50 * kKB, rng) > 0 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(fed) / n, 0.01, 0.003);
}

TEST(QcnRp, FeedbackCutsRateProportionally) {
  DcqcnParams params;
  RpState rp(params, Gbps(40));
  rp.OnQcnFeedback(0.25);
  EXPECT_DOUBLE_EQ(rp.current_rate(), Gbps(30));
  EXPECT_DOUBLE_EQ(rp.target_rate(), Gbps(40));
  EXPECT_TRUE(rp.limiting());
  // Alpha untouched (QCN has none).
  EXPECT_DOUBLE_EQ(rp.alpha(), 1.0);
}

TEST(Qcn, TwoFlowsShareWithinAnL2Domain) {
  // On a single switch ("within an L2 domain", §2.3) QCN works: two greedy
  // flows share the bottleneck and the queue tracks q_eq.
  TopologyOptions opt;
  opt.switch_config.red.enabled = false;  // QCN only
  opt.switch_config.qcn = Params();
  Network net(5);
  StarTopology topo = BuildStar(net, 3, opt);
  FlowSpec f1;
  f1.flow_id = 0;
  f1.src_host = topo.hosts[0]->id();
  f1.dst_host = topo.hosts[2]->id();
  f1.size_bytes = 0;
  f1.cc_policy = CcPolicyIdByName("qcn");
  net.StartFlow(f1);
  FlowSpec f2 = f1;
  f2.flow_id = 1;
  f2.src_host = topo.hosts[1]->id();
  net.StartFlow(f2);
  net.RunFor(Milliseconds(40));
  const Bytes a0 = topo.hosts[2]->ReceiverDeliveredBytes(0);
  const Bytes b0 = topo.hosts[2]->ReceiverDeliveredBytes(1);
  net.RunFor(Milliseconds(20));
  const double ra =
      static_cast<double>(topo.hosts[2]->ReceiverDeliveredBytes(0) - a0);
  const double rb =
      static_cast<double>(topo.hosts[2]->ReceiverDeliveredBytes(1) - b0);
  EXPECT_GT((ra + rb) * 8 / 20e-3, 0.8 * Gbps(40));
  EXPECT_NEAR(ra / (ra + rb), 0.5, 0.2);
  EXPECT_GT(topo.sw->counters().qcn_feedback_sent, 0);
  EXPECT_EQ(topo.sw->counters().qcn_feedback_dropped, 0);
}

TEST(Qcn, FeedbackCannotCrossRoutedHops) {
  // The §2.3 argument as an executable: in the Clos fabric, congestion at
  // the destination ToR generates QCN feedback, but the frames die at the
  // first L3 boundary, so remote senders never slow down and PFC has to
  // take over.
  TopologyOptions opt;
  opt.switch_config.red.enabled = false;
  opt.switch_config.qcn = Params();
  Network net(5);
  ClosTopology topo = BuildClos(net, 5, opt);
  for (int h = 0; h < 4; ++h) {
    FlowSpec f;
    f.flow_id = h;
    f.src_host = topo.host(0, h)->id();  // pod 0 senders
    f.dst_host = topo.host(3, 0)->id();  // pod 1 receiver
    f.size_bytes = 0;
    f.cc_policy = CcPolicyIdByName("qcn");
    net.StartFlow(f);
  }
  net.RunFor(Milliseconds(20));
  // Feedback was generated at the congested ToR...
  EXPECT_GT(topo.tors[3]->counters().qcn_feedback_sent, 0);
  // ...but dropped at the leaves (first routed hop toward the senders).
  int64_t dropped = 0;
  for (const auto& sw : net.switches()) {
    dropped += sw->counters().qcn_feedback_dropped;
  }
  EXPECT_GT(dropped, 0);
  // Every notification the bottleneck ToR generated was dropped en route
  // (its neighbors are all switches). Senders may still receive feedback —
  // but only from their *own* ToR once PFC backpressure piles queues up
  // there, never about the true bottleneck; PFC had to carry the
  // congestion across the fabric.
  int64_t dropped_at_pod1_leaves = 0;
  for (int leaf : {2, 3}) {
    dropped_at_pod1_leaves +=
        topo.leaves[static_cast<size_t>(leaf)]->counters()
            .qcn_feedback_dropped;
  }
  EXPECT_GE(dropped_at_pod1_leaves,
            topo.tors[3]->counters().qcn_feedback_sent);
  EXPECT_GT(net.TotalPauseFramesSent(), 0);
}

TEST(Qcn, DcqcnSucceedsWhereQcnFails) {
  // Same Clos incast: DCQCN's IP-routable CNPs reach the senders and PFC
  // goes quiet — the whole point of the paper.
  auto pauses = [](int16_t policy, bool qcn_enabled) {
    TopologyOptions opt;
    if (qcn_enabled) {
      opt.switch_config.red.enabled = false;
      opt.switch_config.qcn = Params();
    }
    Network net(5);
    ClosTopology topo = BuildClos(net, 5, opt);
    for (int h = 0; h < 4; ++h) {
      FlowSpec f;
      f.flow_id = h;
      f.src_host = topo.host(0, h)->id();
      f.dst_host = topo.host(3, 0)->id();
      f.size_bytes = 0;
      f.cc_policy = policy;
      net.StartFlow(f);
    }
    net.RunFor(Milliseconds(20));
    return net.TotalPauseFramesSent();
  };
  const int64_t qcn = pauses(CcPolicyIdByName("qcn"), true);
  const int64_t dcqcn = pauses(CcPolicyIdByName("dcqcn"), false);
  EXPECT_GT(qcn, 100);
  EXPECT_LT(dcqcn, qcn / 10);
}

}  // namespace
}  // namespace dcqcn
