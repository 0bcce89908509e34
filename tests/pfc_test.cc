// PFC system tests: cascade propagation across the Clos fabric, the
// lossless guarantee under adversarial load, and resume behavior. Includes
// property-style parameterized sweeps (seeds / incast degrees).
#include <gtest/gtest.h>

#include "net/topology.h"

namespace dcqcn {
namespace {

FlowSpec Greedy(Network& net, RdmaNic* src, RdmaNic* dst, uint64_t salt) {
  FlowSpec f;
  f.flow_id = net.NextFlowId();
  f.src_host = src->id();
  f.dst_host = dst->id();
  f.size_bytes = 0;
  f.cc_policy = CcPolicyIdByName("raw");
  f.ecmp_salt = salt;
  return f;
}

TEST(PfcCascade, IncastPausesPropagateUpstream) {
  // H11-H14 (pod 0) -> R (pod 1) incast: T4 must pause its uplinks, leaves
  // must pause spines, and spines must pause the pod-0 leaves — the full
  // §2.2 cascade.
  Network net(4);
  ClosTopology topo = BuildClos(net, 5, TopologyOptions{});
  for (int h = 0; h < 4; ++h) {
    net.StartFlow(Greedy(net, topo.host(0, h), topo.host(3, 0),
                         static_cast<uint64_t>(h)));
  }
  net.RunFor(Milliseconds(20));
  // The receiving ToR paused someone.
  EXPECT_GT(topo.tors[3]->counters().pause_frames_sent, 0);
  // The cascade reached the spine layer.
  int64_t spine_rx = 0;
  for (auto* s : topo.spines) spine_rx += s->counters().pause_frames_received;
  EXPECT_GT(spine_rx, 0);
  // And finally the sender-side ToR got paused by its leaves... which shows
  // up as PAUSE frames received at T1.
  EXPECT_GT(topo.tors[0]->counters().pause_frames_received, 0);
  // Lossless despite all of it.
  EXPECT_EQ(net.TotalDrops(), 0);
}

TEST(PfcCascade, SenderNicsGetPausedAtTheEdge) {
  Network net(4);
  ClosTopology topo = BuildClos(net, 5, TopologyOptions{});
  for (int h = 0; h < 4; ++h) {
    net.StartFlow(Greedy(net, topo.host(0, h), topo.host(3, 0),
                         static_cast<uint64_t>(h)));
  }
  net.RunFor(Milliseconds(20));
  int64_t nic_pauses = 0;
  for (int h = 0; h < 4; ++h) {
    nic_pauses += topo.host(0, h)->counters().pause_frames_received;
  }
  EXPECT_GT(nic_pauses, 0);
}

TEST(PfcCascade, NoPausesWithoutCongestion) {
  Network net(4);
  ClosTopology topo = BuildClos(net, 2, TopologyOptions{});
  net.StartFlow(Greedy(net, topo.host(0, 0), topo.host(3, 0), 1));
  net.RunFor(Milliseconds(10));
  EXPECT_EQ(net.TotalPauseFramesSent(), 0);
  EXPECT_EQ(net.TotalDrops(), 0);
}

// ---- Lossless property: PFC + correct thresholds never drop, whatever the
// seed, degree or traffic mix throws at the fabric. ----
class LosslessProperty : public ::testing::TestWithParam<int> {};

TEST_P(LosslessProperty, AdversarialIncastNeverDrops) {
  const int seed = GetParam();
  Network net(static_cast<uint64_t>(seed));
  ClosTopology topo = BuildClos(net, 5, TopologyOptions{});
  Rng rng(static_cast<uint64_t>(seed) * 77 + 1);
  // Random all-to-one incast plus random background pairs, all raw senders
  // at line rate: the worst case for buffer occupancy.
  const int receiver_tor = static_cast<int>(rng.UniformInt(0, 3));
  RdmaNic* r = topo.host(receiver_tor, 0);
  int flows = 0;
  for (int tor = 0; tor < 4 && flows < 8; ++tor) {
    for (int h = 0; h < 5 && flows < 8; ++h) {
      RdmaNic* s = topo.host(tor, h);
      if (s == r) continue;
      net.StartFlow(Greedy(net, s, r, rng.NextU64()));
      ++flows;
    }
  }
  for (int i = 0; i < 4; ++i) {
    RdmaNic* a = topo.host(static_cast<int>(rng.UniformInt(0, 3)),
                           static_cast<int>(rng.UniformInt(0, 4)));
    RdmaNic* b = topo.host(static_cast<int>(rng.UniformInt(0, 3)),
                           static_cast<int>(rng.UniformInt(0, 4)));
    if (a == b) continue;
    net.StartFlow(Greedy(net, a, b, rng.NextU64()));
  }
  net.RunFor(Milliseconds(15));
  EXPECT_EQ(net.TotalDrops(), 0) << "seed " << seed;
  // The bottleneck egress stayed busy: receiver got ~line rate.
  Bytes total = 0;
  for (const auto& nic : net.hosts()) {
    (void)nic;
  }
  for (int fid = 0; fid < flows; ++fid) total += r->ReceiverDeliveredBytes(fid);
  EXPECT_GT(static_cast<double>(total) * 8 / 15e-3, 0.85 * Gbps(40));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LosslessProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---- Star-topology incast sweep: lossless + full utilization for any
// degree (the §6.1 validation as a property). ----
class IncastDegree : public ::testing::TestWithParam<int> {};

TEST_P(IncastDegree, LosslessAndUtilizedWithPfcOnly) {
  const int k = GetParam();
  Network net(9);
  StarTopology topo = BuildStar(net, k + 1, TopologyOptions{});
  for (int i = 0; i < k; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[static_cast<size_t>(k)]->id();
    f.size_bytes = 0;
    f.cc_policy = CcPolicyIdByName("raw");
    net.StartFlow(f);
  }
  net.RunFor(Milliseconds(10));
  EXPECT_EQ(net.TotalDrops(), 0);
  Bytes total = 0;
  for (int i = 0; i < k; ++i) {
    total += topo.hosts[static_cast<size_t>(k)]->ReceiverDeliveredBytes(i);
  }
  EXPECT_GT(static_cast<double>(total) * 8 / 10e-3, 0.95 * Gbps(40));
}

INSTANTIATE_TEST_SUITE_P(Degrees, IncastDegree,
                         ::testing::Values(2, 3, 4, 8, 12, 16, 20));

// ---- The §4 guarantee, observed end to end: with the deployment
// thresholds, the first ECN mark precedes the first PAUSE. ----
class EcnBeforePfc : public ::testing::TestWithParam<int> {};

TEST_P(EcnBeforePfc, FirstMarkPrecedesFirstPause) {
  const int k = GetParam();
  Network net(static_cast<uint64_t>(k) * 31 + 5);
  StarTopology topo = BuildStar(net, k + 1, TopologyOptions{});
  for (int i = 0; i < k; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[static_cast<size_t>(k)]->id();
    f.size_bytes = 0;
    net.StartFlow(f);
  }
  // Step the simulation in 1 us slices and record when marking / pausing
  // first happens.
  Time first_mark = -1, first_pause = -1;
  for (Time t = Microseconds(1); t <= Milliseconds(5); t += Microseconds(1)) {
    net.RunUntil(t);
    if (first_mark < 0 && topo.sw->counters().ecn_marked_packets > 0) {
      first_mark = t;
    }
    if (first_pause < 0 && topo.sw->counters().pause_frames_sent > 0) {
      first_pause = t;
    }
    if (first_mark >= 0 && first_pause >= 0) break;
  }
  ASSERT_GE(first_mark, 0) << "incast must trigger marking";
  if (first_pause >= 0) {
    EXPECT_LE(first_mark, first_pause)
        << "ECN must fire before PFC (the §4 threshold guarantee)";
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, EcnBeforePfc, ::testing::Values(4, 8, 16));

TEST(EcnBeforePfcMisconfig, InvertedWithBadThresholds) {
  // The Fig. 18 misconfiguration (static t_PFC at its bound, Kmin = 120 KB)
  // must invert the ordering: PFC first.
  TopologyOptions opt;
  const Bytes headroom = HeadroomPerPortPriority(opt.switch_config.buffer);
  opt.switch_config.dynamic_pfc = false;
  opt.switch_config.static_pfc_threshold =
      StaticPfcThreshold(opt.switch_config.buffer, headroom);
  opt.switch_config.red.kmin = 120 * kKB;
  opt.switch_config.red.kmax = 320 * kKB;
  Network net(6);
  StarTopology topo = BuildStar(net, 9, opt);
  for (int i = 0; i < 8; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[8]->id();
    f.size_bytes = 0;
    net.StartFlow(f);
  }
  Time first_mark = -1, first_pause = -1;
  for (Time t = Microseconds(1); t <= Milliseconds(5); t += Microseconds(1)) {
    net.RunUntil(t);
    if (first_mark < 0 && topo.sw->counters().ecn_marked_packets > 0) {
      first_mark = t;
    }
    if (first_pause < 0 && topo.sw->counters().pause_frames_sent > 0) {
      first_pause = t;
    }
    if (first_mark >= 0 && first_pause >= 0) break;
  }
  ASSERT_GE(first_pause, 0);
  EXPECT_TRUE(first_mark < 0 || first_pause < first_mark);
}

TEST(PfcResume, TrafficResumesAfterCongestionClears) {
  // A finite incast: once it drains, PAUSE state must fully clear and a
  // later flow must see an unobstructed fabric.
  Network net(6);
  ClosTopology topo = BuildClos(net, 5, TopologyOptions{});
  for (int h = 0; h < 4; ++h) {
    FlowSpec f;
    f.flow_id = net.NextFlowId();
    f.src_host = topo.host(0, h)->id();
    f.dst_host = topo.host(3, 0)->id();
    f.size_bytes = 2000 * kKB;
    f.cc_policy = CcPolicyIdByName("raw");
    net.StartFlow(f);
  }
  net.RunFor(Milliseconds(10));  // incast done and drained
  // No lingering pause state on any switch port.
  for (const auto& sw : net.switches()) {
    for (int p = 0; p < sw->num_ports(); ++p) {
      EXPECT_FALSE(sw->PauseSent(p, kDataPriority));
      EXPECT_FALSE(sw->TxPaused(p, kDataPriority));
    }
    EXPECT_EQ(sw->shared_occupancy(), 0);
  }
  // Fresh flow gets full line rate.
  FlowSpec f;
  f.flow_id = net.NextFlowId();
  f.src_host = topo.host(0, 0)->id();
  f.dst_host = topo.host(3, 1)->id();
  f.size_bytes = 4000 * kKB;
  f.start_time = net.eq().Now();
  f.cc_policy = CcPolicyIdByName("raw");
  net.StartFlow(f);
  net.RunFor(Milliseconds(2));
  const auto& recs = topo.host(0, 0)->completed_flows();
  ASSERT_FALSE(recs.empty());
  EXPECT_GT(recs.back().goodput(), 0.95 * Gbps(40));
}

TEST(PfcPriorities, PauseOnOneClassDoesNotBlockAnother) {
  // Two flows on different priorities through the same congested port; only
  // the data class is paused upstream, control-class experiments flow.
  // (The switch pauses per (port, priority) — §2.2's "port plus priority".)
  Network net(2);
  StarTopology topo = BuildStar(net, 3, TopologyOptions{});
  // Saturate the egress with a data-priority incast from host 0.
  FlowSpec f;
  f.flow_id = 0;
  f.src_host = topo.hosts[0]->id();
  f.dst_host = topo.hosts[2]->id();
  f.size_bytes = 0;
  f.cc_policy = CcPolicyIdByName("raw");
  net.StartFlow(f);
  net.RunFor(Milliseconds(5));
  // The switch's data-priority state may be paused, but control priority
  // never is.
  for (int p = 0; p < topo.sw->num_ports(); ++p) {
    EXPECT_FALSE(topo.sw->PauseSent(p, kControlPriority));
  }
}

}  // namespace
}  // namespace dcqcn
