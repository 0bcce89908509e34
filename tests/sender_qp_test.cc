// Focused sender-QP tests: pacing, message bookkeeping, loss recovery
// granularity, timer arming, DCTCP windowing. Driven through a 2-3 host
// star so the QP runs against the real NIC scheduler and wire.
#include "nic/sender_qp.h"

#include <gtest/gtest.h>

#include "net/topology.h"

namespace dcqcn {
namespace {

struct World {
  Network net{1};
  StarTopology topo;

  explicit World(TopologyOptions opt = TopologyOptions{}, int hosts = 2)
      : topo(BuildStar(net, hosts, opt)) {}

  SenderQp* StartFlow(int src, int dst, Bytes size, int16_t policy,
                      Rate /*unused*/ = 0) {
    FlowSpec f;
    f.flow_id = net.NextFlowId();
    f.src_host = topo.hosts[static_cast<size_t>(src)]->id();
    f.dst_host = topo.hosts[static_cast<size_t>(dst)]->id();
    f.size_bytes = size;
    f.cc_policy = policy;
    return net.StartFlow(f);
  }
};

TEST(SenderQp, PacingEnforcesRpRate) {
  // Force the RP to a known rate via synthetic CNPs, then check the paced
  // throughput matches R_C.
  World w;
  SenderQp* qp = w.StartFlow(0, 1, 0, CcPolicyIdByName("dcqcn"));
  w.net.RunFor(Milliseconds(1));
  // Two synthetic CNPs: 40 -> 20 -> ~10 Gbps (alpha stays ~1).
  qp->OnCnp(w.net.eq().Now());
  qp->OnCnp(w.net.eq().Now());
  const Rate rate = qp->current_rate();
  ASSERT_LT(rate, Gbps(12));
  const Bytes before =
      w.topo.hosts[1]->ReceiverDeliveredBytes(qp->spec().flow_id);
  w.net.RunFor(Milliseconds(2));
  const Bytes after =
      w.topo.hosts[1]->ReceiverDeliveredBytes(qp->spec().flow_id);
  const double measured = static_cast<double>(after - before) * 8 / 2e-3;
  // Rate rises during the window (timers run), so allow generous headroom
  // above R_C but require it to be far below line rate.
  EXPECT_GT(measured, rate * 0.8);
  EXPECT_LT(measured, Gbps(25));
}

TEST(SenderQp, CompleteReflectsMessageQueue) {
  World w;
  SenderQp* qp = w.StartFlow(0, 1, 10 * 1000, CcPolicyIdByName("raw"));
  EXPECT_FALSE(qp->complete());
  w.net.RunFor(Milliseconds(1));
  EXPECT_TRUE(qp->complete());
  qp->EnqueueMessage(5 * 1000);
  EXPECT_FALSE(qp->complete());
  w.net.RunFor(Milliseconds(1));
  EXPECT_TRUE(qp->complete());
}

TEST(SenderQp, MessageRecordsCarryPerMessageBytesAndTimes) {
  World w;
  SenderQp* qp = w.StartFlow(0, 1, 100 * 1000, CcPolicyIdByName("raw"));
  w.net.RunFor(Milliseconds(1));
  qp->EnqueueMessage(300 * 1000);
  w.net.RunFor(Milliseconds(1));
  const auto& recs = w.topo.hosts[0]->completed_flows();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].bytes, 100 * 1000);
  EXPECT_EQ(recs[1].bytes, 300 * 1000);
  EXPECT_GT(recs[1].start_time, recs[0].start_time);
  EXPECT_GT(recs[1].finish_time, recs[1].start_time);
  // 300 KB at 40 Gbps = 60 us + ~RTT.
  EXPECT_LT(recs[1].fct(), Microseconds(80));
}

TEST(SenderQp, UnboundedFlowNeverCompletes) {
  World w;
  SenderQp* qp = w.StartFlow(0, 1, 0, CcPolicyIdByName("raw"));
  w.net.RunFor(Milliseconds(5));
  EXPECT_FALSE(qp->complete());
  EXPECT_TRUE(w.topo.hosts[0]->completed_flows().empty());
  EXPECT_GT(qp->counters().packets_sent, 20000);
}

TEST(SenderQp, EnqueueOnUnboundedFlowDies) {
  World w;
  SenderQp* qp = w.StartFlow(0, 1, 0, CcPolicyIdByName("raw"));
  EXPECT_DEATH(qp->EnqueueMessage(1000), "");
}

TEST(SenderQp, PartialLastPacketSizes) {
  World w;
  SenderQp* qp = w.StartFlow(0, 1, 2500, CcPolicyIdByName("raw"));
  w.net.RunFor(Milliseconds(1));
  EXPECT_TRUE(qp->complete());
  // 2500 B = 2 full MTUs + 500 B.
  EXPECT_EQ(qp->counters().packets_sent, 3);
  EXPECT_EQ(qp->counters().bytes_sent, 2500);
  EXPECT_EQ(w.topo.hosts[1]->ReceiverDeliveredBytes(qp->spec().flow_id),
            2500);
}

TEST(SenderQp, CnpCounterAndRpWiring) {
  World w(TopologyOptions{}, 3);
  SenderQp* a = w.StartFlow(0, 2, 0, CcPolicyIdByName("dcqcn"));
  SenderQp* b = w.StartFlow(1, 2, 0, CcPolicyIdByName("dcqcn"));
  w.net.RunFor(Milliseconds(10));
  EXPECT_GT(a->counters().cnps_received + b->counters().cnps_received, 0);
  // Any QP that received a CNP has an engaged (or recovered) RP.
  if (a->counters().cnps_received > 0) {
    EXPECT_EQ(a->rp()->cnps_received(), a->counters().cnps_received);
  }
}

TEST(SenderQp, RawModeHasNoRp) {
  World w;
  SenderQp* qp = w.StartFlow(0, 1, 0, CcPolicyIdByName("raw"));
  EXPECT_EQ(qp->rp(), nullptr);
  // CNPs to a raw QP are counted but ignored.
  qp->OnCnp(0);
  EXPECT_EQ(qp->counters().cnps_received, 1);
  w.net.RunFor(Milliseconds(1));
  EXPECT_DOUBLE_EQ(qp->current_rate(), Gbps(40));
}

TEST(SenderQp, DctcpSlowStartThenCa) {
  TopologyOptions opt;
  opt.switch_config.red = RedEcnConfig::CutOff(160 * kKB);
  World w(opt, 3);
  SenderQp* qp = w.StartFlow(0, 2, 0, CcPolicyIdByName("dctcp"));
  SenderQp* other = w.StartFlow(1, 2, 0, CcPolicyIdByName("dctcp"));
  const Bytes w0 = qp->cwnd();
  w.net.RunFor(Microseconds(200));
  // Slow start: window grows quickly from the initial 10 MTU.
  EXPECT_GT(qp->cwnd(), w0);
  w.net.RunFor(Milliseconds(20));
  // Two flows into one port pin the queue at K: marks arrive and at least
  // one sender's alpha becomes positive.
  EXPECT_GT(qp->dctcp_alpha() + other->dctcp_alpha(), 0.0);
}

TEST(SenderQp, DctcpWindowNeverBelowMinCwnd) {
  TopologyOptions opt;
  opt.switch_config.red = RedEcnConfig::CutOff(10 * kKB);  // heavy marking
  World w(opt, 3);
  SenderQp* a = w.StartFlow(0, 2, 0, CcPolicyIdByName("dctcp"));
  SenderQp* b = w.StartFlow(1, 2, 0, CcPolicyIdByName("dctcp"));
  w.net.RunFor(Milliseconds(20));
  EXPECT_GE(a->cwnd(), kMtu);
  EXPECT_GE(b->cwnd(), kMtu);
}

TEST(SenderQp, RetxTimeoutRecoversFromTotalAckLoss) {
  // Break the reverse path after start: the receiver's ACKs vanish, the
  // retransmission timer must eventually fire (we simulate by pausing the
  // receiver's control traffic for longer than the RTO).
  TopologyOptions opt;
  opt.nic_config.rto = Milliseconds(2);
  World w(opt, 2);
  SenderQp* qp = w.StartFlow(0, 1, 50 * 1000, CcPolicyIdByName("raw"));
  // Pause the receiver NIC's data priority (ACKs ride the data class) so
  // ACKs are held back.
  Packet pause;
  pause.type = PacketType::kPause;
  pause.pfc_priority = kDataPriority;
  w.topo.hosts[1]->ReceivePacket(pause, 0);
  w.net.RunFor(Milliseconds(1));
  EXPECT_FALSE(qp->complete());  // data delivered but ACKs stuck
  // Release the control class; everything completes (possibly after a
  // timeout-driven rewind).
  Packet resume = pause;
  resume.type = PacketType::kResume;
  w.topo.hosts[1]->ReceivePacket(resume, 0);
  w.net.RunFor(Milliseconds(10));
  EXPECT_TRUE(qp->complete());
}

TEST(SenderQp, JitterKeepsLineRateWithinTwoPercent) {
  // Pacing jitter must not meaningfully reduce a solo flow's goodput.
  World w;
  SenderQp* qp = w.StartFlow(0, 1, 4000 * 1000, CcPolicyIdByName("raw"));
  w.net.RunFor(Milliseconds(2));
  ASSERT_TRUE(qp->complete());
  const auto& rec = w.topo.hosts[0]->completed_flows()[0];
  EXPECT_GT(rec.goodput(), 0.975 * Gbps(40));
}

}  // namespace
}  // namespace dcqcn
