// Cross-module integration tests on the full Clos testbed: fairness across
// transports, DCQCN's end-to-end effect on PFC activity, deterministic
// replay of whole simulations, and mixed-mode coexistence.
#include <gtest/gtest.h>

#include "fault/fault_injector.h"
#include "net/topology.h"
#include "stats/stats.h"

namespace dcqcn {
namespace {

FlowSpec Make(Network& net, RdmaNic* src, RdmaNic* dst, Bytes size,
              int16_t policy, uint64_t salt = 0) {
  FlowSpec f;
  f.flow_id = net.NextFlowId();
  f.src_host = src->id();
  f.dst_host = dst->id();
  f.size_bytes = size;
  f.cc_policy = policy;
  f.ecmp_salt = salt;
  return f;
}

// ---- DCQCN fairness across incast degrees (parameterized). ----
class DcqcnFairness : public ::testing::TestWithParam<int> {};

TEST_P(DcqcnFairness, JainIndexHighAtEveryDegree) {
  const int k = GetParam();
  Network net(31);
  StarTopology topo = BuildStar(net, k + 1, TopologyOptions{});
  for (int i = 0; i < k; ++i) {
    net.StartFlow(Make(net, topo.hosts[static_cast<size_t>(i)],
                       topo.hosts[static_cast<size_t>(k)], 0,
                       CcPolicyIdByName("dcqcn")));
  }
  // Let rates converge, then measure a window.
  net.RunFor(Milliseconds(40));
  std::vector<Bytes> before(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    before[static_cast<size_t>(i)] =
        topo.hosts[static_cast<size_t>(k)]->ReceiverDeliveredBytes(i);
  }
  net.RunFor(Milliseconds(20));
  std::vector<double> rates;
  for (int i = 0; i < k; ++i) {
    rates.push_back(static_cast<double>(
        topo.hosts[static_cast<size_t>(k)]->ReceiverDeliveredBytes(i) -
        before[static_cast<size_t>(i)]));
  }
  EXPECT_GT(JainIndex(rates), 0.85) << "degree " << k;
}

INSTANTIATE_TEST_SUITE_P(Degrees, DcqcnFairness,
                         ::testing::Values(2, 4, 8, 16));

// ---- Deterministic replay: identical seeds => identical simulations. ----
TEST(Replay, WholeClosRunIsBitIdentical) {
  auto run = [] {
    Network net(123);
    ClosTopology topo = BuildClos(net, 5, TopologyOptions{});
    Rng traffic_rng(7);
    for (int i = 0; i < 10; ++i) {
      RdmaNic* a = topo.host(static_cast<int>(traffic_rng.UniformInt(0, 3)),
                             static_cast<int>(traffic_rng.UniformInt(0, 4)));
      RdmaNic* b = topo.host(static_cast<int>(traffic_rng.UniformInt(0, 3)),
                             static_cast<int>(traffic_rng.UniformInt(0, 4)));
      if (a == b) continue;
      net.StartFlow(Make(net, a, b, 500 * kKB, CcPolicyIdByName("dcqcn"),
                         traffic_rng.NextU64()));
    }
    net.RunFor(Milliseconds(10));
    // A fingerprint of the run: per-switch tx counts + pause totals.
    int64_t fp = net.TotalPauseFramesSent() * 1000003;
    for (const auto& sw : net.switches()) {
      fp = fp * 31 + sw->counters().tx_packets;
      fp = fp * 31 + sw->counters().ecn_marked_packets;
    }
    for (const auto& h : net.hosts()) {
      fp = fp * 31 + static_cast<int64_t>(h->completed_flows().size());
    }
    return fp;
  };
  EXPECT_EQ(run(), run());
}

TEST(Replay, DifferentSeedsDiverge) {
  auto run = [](uint64_t seed) {
    Network net(seed);
    StarTopology topo = BuildStar(net, 5, TopologyOptions{});
    for (int i = 0; i < 4; ++i) {
      net.StartFlow(Make(net, topo.hosts[static_cast<size_t>(i)],
                         topo.hosts[4], 0, CcPolicyIdByName("dcqcn")));
    }
    net.RunFor(Milliseconds(5));
    return topo.sw->counters().ecn_marked_packets;
  };
  // RED draws differ, so marking counts virtually never coincide exactly.
  EXPECT_NE(run(1), run(2));
}

// ---- DCQCN end-to-end: PFC activity collapses on the real testbed. ----
TEST(EndToEnd, DcqcnCutsClosFabricPausesByOrdersOfMagnitude) {
  auto run = [](int16_t policy) {
    Network net(17);
    ClosTopology topo = BuildClos(net, 5, TopologyOptions{});
    for (int h = 0; h < 4; ++h) {
      net.StartFlow(Make(net, topo.host(0, h), topo.host(3, 0), 0, policy,
                         static_cast<uint64_t>(h)));
    }
    for (int h = 0; h < 2; ++h) {
      net.StartFlow(Make(net, topo.host(2, h), topo.host(3, 0), 0, policy,
                         100 + static_cast<uint64_t>(h)));
    }
    net.RunFor(Milliseconds(25));
    return net.TotalPauseFramesSent();
  };
  const int64_t raw = run(CcPolicyIdByName("raw"));
  const int64_t dcqcn = run(CcPolicyIdByName("dcqcn"));
  EXPECT_GT(raw, 200);
  EXPECT_LT(dcqcn, raw / 20);
}

TEST(EndToEnd, DcqcnKeepsVictimPathClear) {
  // Victim flow alongside a cross-pod incast: with DCQCN the victim keeps a
  // healthy share. ECMP salts are chosen so the four incast flows split 2/2
  // across T1's uplinks (the median case the paper describes), leaving
  // 40 - 2x10 = 20 Gbps for the victim on its uplink.
  Network net(21);
  ClosTopology topo = BuildClos(net, 5, TopologyOptions{});
  auto salt_for_port = [&](int flow_id, int dst, int want) -> uint64_t {
    for (uint64_t salt = 0; salt < 4096; ++salt) {
      if (topo.tors[0]->EcmpSelect(FlowEcmpKey(flow_id, salt), dst) ==
          topo.hosts_per_tor + want) {
        return salt;
      }
    }
    return 0;
  };
  const int incast_dst = topo.host(3, 0)->id();
  for (int h = 0; h < 4; ++h) {
    FlowSpec f = Make(net, topo.host(0, h), topo.host(3, 0), 0,
                      CcPolicyIdByName("dcqcn"));
    f.ecmp_salt = salt_for_port(f.flow_id, incast_dst, h % 2);
    net.StartFlow(f);
  }
  FlowSpec vf = Make(net, topo.host(0, 4), topo.host(1, 0), /*size=*/0,
                     CcPolicyIdByName("dcqcn"));
  vf.ecmp_salt = salt_for_port(vf.flow_id, topo.host(1, 0)->id(), 0);
  net.StartFlow(vf);
  net.RunFor(Milliseconds(30));  // converge
  const Bytes before = topo.host(1, 0)->ReceiverDeliveredBytes(vf.flow_id);
  net.RunFor(Milliseconds(20));
  const Bytes after = topo.host(1, 0)->ReceiverDeliveredBytes(vf.flow_id);
  const double gbps = static_cast<double>(after - before) * 8 / 20e-3 / 1e9;
  EXPECT_GT(gbps, 12.0);
}

TEST(EndToEnd, MixedDctcpAndDcqcnCoexist) {
  // Different transports through the same switch must not corrupt each
  // other's state (distinct feedback paths: CNP vs ECN-echo ACKs).
  Network net(5);
  StarTopology topo = BuildStar(net, 3, TopologyOptions{});
  FlowSpec a = Make(net, topo.hosts[0], topo.hosts[2], 0,
                    CcPolicyIdByName("dcqcn"));
  FlowSpec b = Make(net, topo.hosts[1], topo.hosts[2], 0,
                    CcPolicyIdByName("dctcp"));
  net.StartFlow(a);
  net.StartFlow(b);
  net.RunFor(Milliseconds(30));
  const Bytes da = topo.hosts[2]->ReceiverDeliveredBytes(a.flow_id);
  const Bytes db = topo.hosts[2]->ReceiverDeliveredBytes(b.flow_id);
  // Both make real progress and together fill most of the link.
  EXPECT_GT(static_cast<double>(da) * 8 / 30e-3, Gbps(2));
  EXPECT_GT(static_cast<double>(db) * 8 / 30e-3, Gbps(2));
  EXPECT_GT(static_cast<double>(da + db) * 8 / 30e-3, 0.8 * Gbps(40));
}

TEST(EndToEnd, ClosAccessLinkFlapRecoversCrossPodFlow) {
  // Kill the destination's access link mid-transfer on the full Clos fabric.
  // In-flight frames on the flapped link are lost, the sender stalls until
  // its RTO fires, and (go-back-0) the message restarts once the link heals.
  // The flow must still complete exactly — faults delay RDMA transfers, they
  // must never truncate or corrupt them.
  Network net(97);
  ClosTopology topo = BuildClos(net, 2, TopologyOptions{});
  RdmaNic* src = topo.host(0, 0);
  RdmaNic* dst = topo.host(1, 0);
  const FlowSpec f = Make(net, src, dst, 500 * kKB,
                          CcPolicyIdByName("dcqcn"));
  net.StartFlow(f);

  FaultPlan plan;
  plan.Add(LinkFlap(topo.tors[1]->id(), dst->id(), Microseconds(100),
                    Milliseconds(2)));
  FaultInjector inj(&net, plan, /*seed=*/97);
  inj.Arm();

  net.RunFor(Milliseconds(50));
  EXPECT_TRUE(net.FindLink(topo.tors[1]->id(), dst->id())->up());
  EXPECT_GT(net.FindLink(topo.tors[1]->id(), dst->id())
                ->FramesLost(topo.tors[1]),
            0);
  ASSERT_EQ(src->completed_flows().size(), 1u);
  const FlowRecord& rec = src->completed_flows()[0];
  EXPECT_EQ(rec.bytes, 500 * kKB);
  // Receiver-side delivered bytes include the pre-flap partial attempt that
  // go-back-0 re-sent, so they can exceed (never undershoot) the message.
  EXPECT_GE(dst->ReceiverDeliveredBytes(f.flow_id), 500 * kKB);
  // An unfaulted 500 kB transfer takes ~100 us; surviving a 2 ms outage
  // means the completion time must sit beyond the heal point.
  EXPECT_GT(rec.fct(), Milliseconds(2));
}

TEST(EndToEnd, HyperFastStartDeliversFirstBytesImmediately) {
  // "hyper-fast start in the common case of no congestion": a DCQCN flow's
  // very first RTT already carries line-rate bursts (no slow start).
  Network net(2);
  StarTopology topo = BuildStar(net, 2, TopologyOptions{});
  net.StartFlow(Make(net, topo.hosts[0], topo.hosts[1], 0,
                     CcPolicyIdByName("dcqcn")));
  // After 100 us: expect ~line-rate delivery minus one path latency.
  net.RunFor(Microseconds(100));
  const Bytes d = topo.hosts[1]->ReceiverDeliveredBytes(0);
  // 100 us at 40G = 500 kB; path latency ~2 us => >= ~480 kB.
  EXPECT_GT(d, 450 * 1000);
}

}  // namespace
}  // namespace dcqcn
