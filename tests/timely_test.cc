// TIMELY extension tests: the RTT-gradient engine in isolation, and the
// end-to-end transport over the simulated fabric.
#include "core/timely.h"

#include <gtest/gtest.h>

#include "net/topology.h"
#include "telemetry/probes.h"

namespace dcqcn {
namespace {

TimelyParams Params() { return TimelyParams{}; }

TEST(TimelyEngine, LowRttIncreasesRate) {
  TimelyState t(Params(), Gbps(40));
  // Drag the rate down first so there is room to grow.
  for (int i = 0; i < 50; ++i) t.OnRttSample(Microseconds(300));
  const Rate low = t.rate();
  ASSERT_LT(low, Gbps(40));
  for (int i = 0; i < 50; ++i) t.OnRttSample(Microseconds(5));
  EXPECT_GT(t.rate(), low);
}

TEST(TimelyEngine, HighRttDecreasesRate) {
  TimelyState t(Params(), Gbps(40));
  for (int i = 0; i < 20; ++i) t.OnRttSample(Microseconds(500));
  EXPECT_LT(t.rate(), Gbps(40));
}

TEST(TimelyEngine, RateStaysWithinBounds) {
  TimelyParams p = Params();
  TimelyState t(p, Gbps(40));
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    t.OnRttSample(Microseconds(rng.UniformInt(2, 1000)));
    EXPECT_GE(t.rate(), p.min_rate);
    EXPECT_LE(t.rate(), Gbps(40));
  }
}

TEST(TimelyEngine, PositiveGradientInBandDecreases) {
  TimelyState t(Params(), Gbps(40));
  // RTTs inside [t_low, t_high] but rising: gradient positive -> decrease.
  Time rtt = Microseconds(30);
  for (int i = 0; i < 30; ++i) {
    t.OnRttSample(rtt);
    rtt += Microseconds(2);
    if (rtt > Microseconds(90)) rtt = Microseconds(90);
  }
  EXPECT_LT(t.rate(), Gbps(40));
}

TEST(TimelyEngine, FlatRttInBandIncreases) {
  TimelyState t(Params(), Gbps(40));
  for (int i = 0; i < 20; ++i) t.OnRttSample(Microseconds(400));
  const Rate low = t.rate();
  // Steady in-band RTT: gradient ~0 -> additive increase.
  for (int i = 0; i < 100; ++i) t.OnRttSample(Microseconds(50));
  EXPECT_GT(t.rate(), low);
}

TEST(Timely, TwoFlowsShareABottleneck) {
  TopologyOptions opt;
  opt.switch_config.red.enabled = false;  // delay-based: no ECN needed
  Network net(8);
  StarTopology topo = BuildStar(net, 3, opt);
  for (int i = 0; i < 2; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[2]->id();
    f.size_bytes = 0;
    f.cc_policy = CcPolicyIdByName("timely");
    net.StartFlow(f);
  }
  net.RunFor(Milliseconds(40));
  Bytes b[2];
  for (int i = 0; i < 2; ++i) {
    b[i] = topo.hosts[2]->ReceiverDeliveredBytes(i);
  }
  net.RunFor(Milliseconds(20));
  double r[2];
  for (int i = 0; i < 2; ++i) {
    r[i] = static_cast<double>(topo.hosts[2]->ReceiverDeliveredBytes(i) -
                               b[i]);
  }
  EXPECT_GT((r[0] + r[1]) * 8 / 20e-3, 0.7 * Gbps(40));
  // Both flows make progress, but TIMELY has NO unique fixed point — the
  // rate split depends on history (proved in the authors' follow-up "ECN
  // or Delay: Lessons Learnt from Analysis of DCQCN and TIMELY",
  // CoNEXT'16) — so we deliberately do not assert a fair split here, only
  // that neither flow is starved outright.
  EXPECT_GT(r[0] / (r[0] + r[1]), 0.03);
  EXPECT_GT(r[1] / (r[0] + r[1]), 0.03);
  // RTT samples actually flowed.
  EXPECT_GT(topo.hosts[0]->FindQp(0)->timely()->samples(), 50);
}

TEST(Timely, KeepsQueueBelowPfcWithoutEcn) {
  // Delay-based control holds the queue around the T_low/T_high band
  // without any switch support (no RED, no QCN).
  TopologyOptions opt;
  opt.switch_config.red.enabled = false;
  Network net(9);
  StarTopology topo = BuildStar(net, 5, opt);
  for (int i = 0; i < 4; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[4]->id();
    f.size_bytes = 0;
    f.cc_policy = CcPolicyIdByName("timely");
    net.StartFlow(f);
  }
  telemetry::ProbeSet probes(&net.eq(), Microseconds(20));
  const size_t queue = probes.AddGauge("queue_bytes", [&] {
    return static_cast<double>(topo.sw->EgressQueueBytes(4, kDataPriority));
  });
  probes.Start();
  net.RunFor(Milliseconds(40));
  const Cdf q = probes.ToCdf(queue, Milliseconds(10));
  // t_high = 100 us of queueing at 40G = 500 KB; stay well under that and
  // far from the multi-MB PFC region.
  EXPECT_LT(q.Quantile(0.9), 700e3);
  EXPECT_GT(q.Quantile(1.0), 0.0);  // the queue does get used
}

}  // namespace
}  // namespace dcqcn
