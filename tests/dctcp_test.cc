// DCTCP baseline behavior (used by the Fig. 19 comparison): slow start,
// ECN-fraction estimation, window cuts, and the queue-pinning property that
// motivates DCQCN's shallower thresholds.
#include <gtest/gtest.h>

#include "net/topology.h"
#include "telemetry/probes.h"

namespace dcqcn {
namespace {

TopologyOptions DctcpOpts(Bytes k) {
  TopologyOptions opt;
  opt.switch_config.red = RedEcnConfig::CutOff(k);
  return opt;
}

FlowSpec Dctcp(Network& net, RdmaNic* src, RdmaNic* dst, Bytes size) {
  FlowSpec f;
  f.flow_id = net.NextFlowId();
  f.src_host = src->id();
  f.dst_host = dst->id();
  f.size_bytes = size;
  f.mode = TransportMode::kDctcp;
  return f;
}

TEST(Dctcp, SlowStartDoublesWindowPerRtt) {
  Network net(1);
  auto topo = BuildStar(net, 2, DctcpOpts(160 * kKB));
  SenderQp* qp = net.StartFlow(Dctcp(net, topo.hosts[0], topo.hosts[1], 0));
  const Bytes w0 = qp->cwnd();
  // RTT here is ~4-5 us; after ~5 RTTs the window should have grown by
  // well over 2x (exponential growth), absent any marks.
  net.RunFor(Microseconds(25));
  EXPECT_GT(qp->cwnd(), 2 * w0);
}

TEST(Dctcp, SingleFlowSaturatesLink) {
  Network net(2);
  auto topo = BuildStar(net, 2, DctcpOpts(160 * kKB));
  FlowSpec f = Dctcp(net, topo.hosts[0], topo.hosts[1], 0);
  net.StartFlow(f);
  net.RunFor(Milliseconds(10));
  const Bytes d1 = topo.hosts[1]->ReceiverDeliveredBytes(f.flow_id);
  net.RunFor(Milliseconds(10));
  const Bytes d2 = topo.hosts[1]->ReceiverDeliveredBytes(f.flow_id);
  EXPECT_GT(static_cast<double>(d2 - d1) * 8 / 10e-3, 0.9 * Gbps(40));
}

TEST(Dctcp, AlphaTracksMarkingFraction) {
  // With two flows pinning the queue at the cut-off threshold, some packets
  // get marked; alpha must settle strictly between 0 and 1. (A single flow
  // through a same-speed link is ACK-clocked and never builds queue.)
  Network net(3);
  auto topo = BuildStar(net, 3, DctcpOpts(100 * kKB));
  SenderQp* a = net.StartFlow(Dctcp(net, topo.hosts[0], topo.hosts[2], 0));
  SenderQp* b = net.StartFlow(Dctcp(net, topo.hosts[1], topo.hosts[2], 0));
  net.RunFor(Milliseconds(30));
  const double alpha = std::max(a->dctcp_alpha(), b->dctcp_alpha());
  EXPECT_GT(alpha, 0.001);
  EXPECT_LT(alpha, 0.9);
}

TEST(Dctcp, QueuePinsNearThreshold) {
  // The defining DCTCP behavior: the bottleneck queue hovers at ~K. This is
  // exactly why the paper's Fig. 19 shows DCTCP with a deep queue.
  for (Bytes k : {80 * kKB, 160 * kKB}) {
    Network net(4);
    auto topo = BuildStar(net, 3, DctcpOpts(k));
    net.StartFlow(Dctcp(net, topo.hosts[0], topo.hosts[2], 0));
    net.StartFlow(Dctcp(net, topo.hosts[1], topo.hosts[2], 0));
    telemetry::ProbeSet probes(&net.eq(), Microseconds(20));
    const size_t queue = probes.AddGauge("queue_bytes", [&] {
      return static_cast<double>(topo.sw->EgressQueueBytes(2, kDataPriority));
    });
    probes.Start();
    net.RunFor(Milliseconds(30));
    const Cdf cdf = probes.ToCdf(queue, Milliseconds(10));
    EXPECT_NEAR(cdf.Quantile(0.5), static_cast<double>(k),
                static_cast<double>(k) * 0.35)
        << "K=" << k;
  }
}

TEST(Dctcp, DeeperThresholdDeeperQueueThanDcqcn) {
  // Direct statement of the Fig. 19 comparison at moderate fan-in.
  auto queue_p90 = [](TransportMode mode, const RedEcnConfig& red) {
    Network net(12);
    TopologyOptions opt;
    opt.switch_config.red = red;
    auto topo = BuildStar(net, 5, opt);
    for (int i = 0; i < 4; ++i) {
      FlowSpec f;
      f.flow_id = i;
      f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
      f.dst_host = topo.hosts[4]->id();
      f.size_bytes = 0;
      f.mode = mode;
      net.StartFlow(f);
    }
    telemetry::ProbeSet probes(&net.eq(), Microseconds(20));
    const size_t queue = probes.AddGauge("queue_bytes", [&] {
      return static_cast<double>(topo.sw->EgressQueueBytes(4, kDataPriority));
    });
    probes.Start();
    net.RunFor(Milliseconds(30));
    return probes.ToCdf(queue, Milliseconds(10)).Quantile(0.9);
  };
  const double dcqcn = queue_p90(TransportMode::kRdmaDcqcn,
                                 RedEcnConfig::Deployment());
  const double dctcp = queue_p90(TransportMode::kDctcp,
                                 RedEcnConfig::CutOff(160 * kKB));
  EXPECT_LT(dcqcn, dctcp);
}

TEST(Dctcp, CutReducesWindowProportionallyToAlpha) {
  // Force a fully-marked regime (two flows, cut-off at one MTU) and verify
  // the multiplicative decrease drives alpha toward 1 and the window to its
  // floor.
  Network net(9);
  auto topo = BuildStar(net, 3, DctcpOpts(1 * kKB));
  SenderQp* a = net.StartFlow(Dctcp(net, topo.hosts[0], topo.hosts[2], 0));
  SenderQp* b = net.StartFlow(Dctcp(net, topo.hosts[1], topo.hosts[2], 0));
  net.RunFor(Milliseconds(10));
  EXPECT_GT(std::max(a->dctcp_alpha(), b->dctcp_alpha()), 0.2);
  EXPECT_LE(a->cwnd(), 40 * kMtu);
  EXPECT_LE(b->cwnd(), 40 * kMtu);
}

}  // namespace
}  // namespace dcqcn
