// End-to-end NIC / transport tests over small star networks.
#include "nic/rdma_nic.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/network.h"
#include "net/topology.h"

namespace dcqcn {
namespace {

TopologyOptions DefaultOpts() {
  TopologyOptions opt;
  opt.link_delay = Microseconds(1);
  return opt;
}

FlowSpec Flow(Network& net, RdmaNic* src, RdmaNic* dst, Bytes size,
              TransportMode mode, Time start = 0) {
  FlowSpec f;
  f.flow_id = net.NextFlowId();
  f.src_host = src->id();
  f.dst_host = dst->id();
  f.size_bytes = size;
  f.start_time = start;
  f.mode = mode;
  return f;
}

// Delivered bytes for a flow measured at the receiving NIC.
Bytes Delivered(RdmaNic* dst, int flow_id) {
  return dst->ReceiverDeliveredBytes(flow_id);
}

TEST(Nic, RawFlowCompletesAtNearLineRate) {
  Network net(1);
  auto t = BuildStar(net, 2, DefaultOpts());
  FlowSpec f = Flow(net, t.hosts[0], t.hosts[1], 4 * 1000 * 1000,
                    TransportMode::kRdmaRaw);
  net.StartFlow(f);
  net.RunFor(Milliseconds(5));
  ASSERT_EQ(t.hosts[0]->completed_flows().size(), 1u);
  const FlowRecord& rec = t.hosts[0]->completed_flows()[0];
  EXPECT_EQ(Delivered(t.hosts[1], f.flow_id), f.size_bytes);
  // Ideal: 4 MB at 40 Gbps = 800 us; allow 5% overhead (RTT + ACK wait).
  EXPECT_LT(rec.fct(), Microseconds(840));
  EXPECT_GT(rec.fct(), Microseconds(800));
}

TEST(Nic, DcqcnFlowAloneStaysAtLineRate) {
  // "When a flow starts, it sends at full line rate" — and with no
  // congestion there are no CNPs and no rate cuts.
  Network net(1);
  auto t = BuildStar(net, 2, DefaultOpts());
  FlowSpec f = Flow(net, t.hosts[0], t.hosts[1], 4 * 1000 * 1000,
                    TransportMode::kRdmaDcqcn);
  net.StartFlow(f);
  net.RunFor(Milliseconds(5));
  ASSERT_EQ(t.hosts[0]->completed_flows().size(), 1u);
  EXPECT_LT(t.hosts[0]->completed_flows()[0].fct(), Microseconds(840));
  EXPECT_EQ(t.hosts[0]->FindQp(f.flow_id)->counters().cnps_received, 0);
}

TEST(Nic, MessageSmallerThanMtuCompletes) {
  Network net(1);
  auto t = BuildStar(net, 2, DefaultOpts());
  FlowSpec f = Flow(net, t.hosts[0], t.hosts[1], 123,
                    TransportMode::kRdmaRaw);
  net.StartFlow(f);
  net.RunFor(Milliseconds(1));
  ASSERT_EQ(t.hosts[0]->completed_flows().size(), 1u);
  EXPECT_EQ(Delivered(t.hosts[1], f.flow_id), 123);
}

TEST(Nic, ManySmallMessagesAllComplete) {
  Network net(1);
  auto t = BuildStar(net, 3, DefaultOpts());
  for (int i = 0; i < 50; ++i) {
    net.StartFlow(Flow(net, t.hosts[i % 2], t.hosts[2], 32 * 1000,
                       TransportMode::kRdmaDcqcn, i * Microseconds(10)));
  }
  net.RunFor(Milliseconds(20));
  EXPECT_EQ(t.hosts[0]->completed_flows().size() +
                t.hosts[1]->completed_flows().size(),
            50u);
}

TEST(Nic, TwoGreedyDcqcnFlowsShareFairly) {
  Network net(7);
  auto t = BuildStar(net, 3, DefaultOpts());
  FlowSpec f1 = Flow(net, t.hosts[0], t.hosts[2], 0, TransportMode::kRdmaDcqcn);
  FlowSpec f2 = Flow(net, t.hosts[1], t.hosts[2], 0, TransportMode::kRdmaDcqcn);
  net.StartFlow(f1);
  net.StartFlow(f2);
  net.RunFor(Milliseconds(30));
  const Bytes d1 = Delivered(t.hosts[2], f1.flow_id);
  const Bytes d2 = Delivered(t.hosts[2], f2.flow_id);
  net.RunFor(Milliseconds(20));
  const double r1 =
      static_cast<double>(Delivered(t.hosts[2], f1.flow_id) - d1);
  const double r2 =
      static_cast<double>(Delivered(t.hosts[2], f2.flow_id) - d2);
  // Link fully used...
  EXPECT_GT((r1 + r2) * 8 / 0.020, 0.9 * Gbps(40));
  // ...and split close to evenly.
  EXPECT_NEAR(r1 / (r1 + r2), 0.5, 0.1);
}

TEST(Nic, IncastWithPfcIsLossless) {
  Network net(3);
  auto t = BuildStar(net, 9, DefaultOpts());
  for (int i = 0; i < 8; ++i) {
    net.StartFlow(Flow(net, t.hosts[static_cast<size_t>(i)], t.hosts[8], 0,
                       TransportMode::kRdmaRaw));
  }
  net.RunFor(Milliseconds(20));
  EXPECT_EQ(net.TotalDrops(), 0);
  EXPECT_GT(net.TotalPauseFramesSent(), 0);  // PFC had to act
  // All flows together fill the bottleneck.
  Bytes total = 0;
  for (int i = 0; i < 8; ++i) total += Delivered(t.hosts[8], i);
  EXPECT_GT(static_cast<double>(total) * 8 / 0.020, 0.9 * Gbps(40));
  // No retransmissions in a lossless fabric.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(t.hosts[static_cast<size_t>(i)]
                  ->FindQp(i)
                  ->counters()
                  .retransmitted_packets,
              0);
  }
}

TEST(Nic, IncastWithoutPfcDropsAndRecovers) {
  TopologyOptions opt = DefaultOpts();
  opt.switch_config.pfc_enabled = false;
  opt.switch_config.buffer.total_buffer = 500 * kKB;  // small lossy buffer
  opt.nic_config.go_back_zero = false;  // modern NIC: go-back-N
  Network net(3);
  auto t = BuildStar(net, 5, opt);
  std::vector<FlowSpec> flows;
  for (int i = 0; i < 4; ++i) {
    FlowSpec f = Flow(net, t.hosts[static_cast<size_t>(i)], t.hosts[4],
                      2 * 1000 * 1000, TransportMode::kRdmaRaw);
    flows.push_back(f);
    net.StartFlow(f);
  }
  net.RunFor(Milliseconds(200));
  EXPECT_GT(net.TotalDrops(), 0);
  // Go-back-N eventually delivers everything despite the losses.
  for (const auto& f : flows) {
    EXPECT_EQ(Delivered(t.hosts[4], f.flow_id), f.size_bytes)
        << "flow " << f.flow_id;
  }
}

TEST(Nic, GoBackZeroRestartsWholeMessageOnLoss) {
  // ConnectX-3-style recovery: a loss restarts the in-progress message, so
  // lossy fabrics are far more damaging than under go-back-N (the Fig. 18
  // rationale for keeping PFC under DCQCN).
  struct Result {
    size_t completed;
    int64_t retransmitted;
  };
  auto run = [](bool go_back_zero) {
    TopologyOptions opt = DefaultOpts();
    opt.switch_config.pfc_enabled = false;
    opt.switch_config.buffer.total_buffer = 300 * kKB;
    opt.nic_config.go_back_zero = go_back_zero;
    Network net(3);
    auto t = BuildStar(net, 3, opt);
    // Two colliding senders so drops occur repeatedly.
    FlowSpec a = Flow(net, t.hosts[0], t.hosts[2], 1000 * 1000,
                      TransportMode::kRdmaRaw);
    FlowSpec b = Flow(net, t.hosts[1], t.hosts[2], 1000 * 1000,
                      TransportMode::kRdmaRaw);
    net.StartFlow(a);
    net.StartFlow(b);
    net.RunFor(Milliseconds(100));
    return Result{t.hosts[0]->completed_flows().size() +
                      t.hosts[1]->completed_flows().size(),
                  t.hosts[0]->FindQp(a.flow_id)->counters()
                          .retransmitted_packets +
                      t.hosts[1]->FindQp(b.flow_id)->counters()
                          .retransmitted_packets};
  };
  const Result gbn = run(false);
  const Result gb0 = run(true);
  EXPECT_EQ(gbn.completed, 2u);
  EXPECT_EQ(gb0.completed, 2u);  // small messages still finish eventually
  // ...but go-back-0 pays for every loss with a whole-message replay.
  EXPECT_GT(gb0.retransmitted, 3 * gbn.retransmitted);
}

TEST(Nic, GoBackZeroStillCompletesWhenLossesStop) {
  // One loss episode then a clean fabric: the restart marker rewinds the
  // receiver and the message completes.
  TopologyOptions opt = DefaultOpts();
  opt.switch_config.pfc_enabled = false;
  opt.switch_config.buffer.total_buffer = 200 * kKB;
  Network net(5);
  auto t = BuildStar(net, 3, opt);
  // A short burst from host 1 collides with host 0's message start.
  FlowSpec burst = Flow(net, t.hosts[1], t.hosts[2], 300 * 1000,
                        TransportMode::kRdmaRaw);
  FlowSpec msg = Flow(net, t.hosts[0], t.hosts[2], 500 * 1000,
                      TransportMode::kRdmaRaw);
  net.StartFlow(burst);
  net.StartFlow(msg);
  net.RunFor(Milliseconds(100));
  ASSERT_EQ(t.hosts[0]->completed_flows().size(), 1u);
  EXPECT_EQ(t.hosts[0]->completed_flows()[0].bytes, 500 * 1000);
}

TEST(Nic, DcqcnDrasticallyReducesPauses) {
  auto run = [](TransportMode mode) {
    Network net(11);
    auto t = BuildStar(net, 9, DefaultOpts());
    for (int i = 0; i < 8; ++i) {
      FlowSpec f;
      f.flow_id = i;
      f.src_host = t.hosts[static_cast<size_t>(i)]->id();
      f.dst_host = t.hosts[8]->id();
      f.size_bytes = 0;
      f.mode = mode;
      net.StartFlow(f);
    }
    net.RunFor(Milliseconds(30));
    return net.TotalPauseFramesSent();
  };
  const int64_t without = run(TransportMode::kRdmaRaw);
  const int64_t with = run(TransportMode::kRdmaDcqcn);
  EXPECT_GT(without, 50);
  EXPECT_LT(with, without / 10);
}

TEST(Nic, CnpsFlowOnMarkedPackets) {
  Network net(5);
  auto t = BuildStar(net, 3, DefaultOpts());
  FlowSpec f1 = Flow(net, t.hosts[0], t.hosts[2], 0, TransportMode::kRdmaDcqcn);
  FlowSpec f2 = Flow(net, t.hosts[1], t.hosts[2], 0, TransportMode::kRdmaDcqcn);
  net.StartFlow(f1);
  net.StartFlow(f2);
  net.RunFor(Milliseconds(10));
  EXPECT_GT(t.hosts[2]->counters().cnps_sent, 0);
  EXPECT_GT(t.hosts[0]->FindQp(f1.flow_id)->counters().cnps_received, 0);
  EXPECT_GT(t.sw->counters().ecn_marked_packets, 0);
}

TEST(Nic, PausedNicHoldsData) {
  Network net(1);
  auto t = BuildStar(net, 2, DefaultOpts());
  // Pause the data priority on host 0's uplink by injecting a PAUSE.
  Packet pause;
  pause.type = PacketType::kPause;
  pause.pfc_priority = kDataPriority;
  t.hosts[0]->ReceivePacket(pause, 0);
  FlowSpec f = Flow(net, t.hosts[0], t.hosts[1], 100 * 1000,
                    TransportMode::kRdmaRaw);
  net.StartFlow(f);
  net.RunFor(Milliseconds(2));
  EXPECT_EQ(Delivered(t.hosts[1], f.flow_id), 0);
  EXPECT_TRUE(t.hosts[0]->TxPaused(kDataPriority));
  // Resume and the message completes.
  Packet resume = pause;
  resume.type = PacketType::kResume;
  t.hosts[0]->ReceivePacket(resume, 0);
  net.RunFor(Milliseconds(2));
  EXPECT_EQ(Delivered(t.hosts[1], f.flow_id), f.size_bytes);
}

TEST(Nic, DctcpFlowCompletes) {
  Network net(1);
  auto t = BuildStar(net, 2, DefaultOpts());
  FlowSpec f = Flow(net, t.hosts[0], t.hosts[1], 1 * 1000 * 1000,
                    TransportMode::kDctcp);
  net.StartFlow(f);
  net.RunFor(Milliseconds(50));
  ASSERT_EQ(t.hosts[0]->completed_flows().size(), 1u);
  EXPECT_EQ(Delivered(t.hosts[1], f.flow_id), f.size_bytes);
}

TEST(Nic, DctcpTwoFlowsShareAndKeepQueueNearK) {
  TopologyOptions opt = DefaultOpts();
  opt.switch_config.red = RedEcnConfig::CutOff(160 * kKB);
  Network net(17);
  auto t = BuildStar(net, 3, opt);
  FlowSpec f1 = Flow(net, t.hosts[0], t.hosts[2], 0, TransportMode::kDctcp);
  FlowSpec f2 = Flow(net, t.hosts[1], t.hosts[2], 0, TransportMode::kDctcp);
  net.StartFlow(f1);
  net.StartFlow(f2);
  net.RunFor(Milliseconds(30));
  const Bytes d1 = Delivered(t.hosts[2], f1.flow_id);
  const Bytes d2 = Delivered(t.hosts[2], f2.flow_id);
  net.RunFor(Milliseconds(30));
  const double r1 =
      static_cast<double>(Delivered(t.hosts[2], f1.flow_id) - d1);
  const double r2 =
      static_cast<double>(Delivered(t.hosts[2], f2.flow_id) - d2);
  EXPECT_GT((r1 + r2) * 8 / 0.030, 0.85 * Gbps(40));
  EXPECT_NEAR(r1 / (r1 + r2), 0.5, 0.15);
}

TEST(Nic, QpReuseCompletesEachMessageSeparately) {
  Network net(1);
  auto t = BuildStar(net, 2, DefaultOpts());
  FlowSpec f = Flow(net, t.hosts[0], t.hosts[1], 100 * 1000,
                    TransportMode::kRdmaRaw);
  SenderQp* qp = net.StartFlow(f);
  net.RunFor(Milliseconds(1));
  ASSERT_EQ(t.hosts[0]->completed_flows().size(), 1u);
  EXPECT_TRUE(qp->complete());
  // Two more transfers on the same (warm) QP.
  qp->EnqueueMessage(200 * 1000);
  net.RunFor(Milliseconds(1));
  qp->EnqueueMessage(50 * 1000);
  net.RunFor(Milliseconds(1));
  const auto& recs = t.hosts[0]->completed_flows();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[1].bytes, 200 * 1000);
  EXPECT_EQ(recs[2].bytes, 50 * 1000);
  // All bytes delivered in order on one sequence space.
  EXPECT_EQ(Delivered(t.hosts[1], f.flow_id), 350 * 1000);
  // Per-message goodput is sane.
  EXPECT_GT(recs[1].goodput(), Gbps(30));
}

TEST(Nic, BackToBackMessagesKeepLink100PercentBusy) {
  Network net(1);
  auto t = BuildStar(net, 2, DefaultOpts());
  FlowSpec f = Flow(net, t.hosts[0], t.hosts[1], 400 * 1000,
                    TransportMode::kRdmaRaw);
  SenderQp* qp = net.StartFlow(f);
  // Enqueue while the first is still in flight: no idle gap between them.
  for (int i = 0; i < 9; ++i) qp->EnqueueMessage(400 * 1000);
  net.RunFor(Milliseconds(2));
  // 4 MB total at 40 Gbps = 800 us; all ten messages done well within 2 ms.
  EXPECT_EQ(t.hosts[0]->completed_flows().size(), 10u);
  EXPECT_EQ(Delivered(t.hosts[1], f.flow_id), 4000 * 1000);
}

TEST(Nic, WarmQpKeepsRateLimiterStateAcrossMessages) {
  // After congestion, a new message on the same QP starts at the reduced
  // rate (not line rate) — the behavior QP reuse exists to model.
  Network net(9);
  auto t = BuildStar(net, 3, DefaultOpts());
  FlowSpec bg = Flow(net, t.hosts[1], t.hosts[2], 0,
                     TransportMode::kRdmaDcqcn);
  net.StartFlow(bg);
  FlowSpec f = Flow(net, t.hosts[0], t.hosts[2], 4000 * 1000,
                    TransportMode::kRdmaDcqcn);
  SenderQp* qp = net.StartFlow(f);
  net.RunFor(Milliseconds(5));
  ASSERT_TRUE(qp->rp() != nullptr);
  ASSERT_TRUE(qp->rp()->limiting());  // congested share of 40G
  const Rate rate_before = qp->current_rate();
  qp->EnqueueMessage(1000 * 1000);
  EXPECT_DOUBLE_EQ(qp->current_rate(), rate_before);
}

TEST(Nic, CompletionCallbackFires) {
  Network net(1);
  auto t = BuildStar(net, 2, DefaultOpts());
  int completions = 0;
  t.hosts[0]->AddCompletionCallback(
      [&](const FlowRecord&) { ++completions; });
  net.StartFlow(Flow(net, t.hosts[0], t.hosts[1], 10 * 1000,
                     TransportMode::kRdmaRaw));
  net.RunFor(Milliseconds(1));
  EXPECT_EQ(completions, 1);
}


// --- the network-wide flow directory: ownership ---

// A control frame carrying the flow id of a flow this NIC does not send.
Packet ControlFrame(PacketType type, int flow_id, int src, int dst) {
  Packet c;
  c.type = type;
  c.flow_id = flow_id;
  c.src_host = src;
  c.dst_host = dst;
  c.size_bytes = kControlFrameBytes;
  c.priority = kControlPriority;
  c.seq = 1u << 20;  // far ahead: an accepted ACK would complete the flow
  c.qcn_fbq = 63;
  return c;
}

// ACK, NAK, CNP and QCN feedback frames for a flow are acted on only by its
// sending NIC. Delivered to the receiving NIC or a bystander — each looks
// the id up in the one directory the sender's QP is filed in — they are
// ignored, as is a data frame at a NIC that does not receive the flow.
TEST(Nic, StrayFramesForAnotherNicsFlowAreIgnored) {
  Network net(1);
  auto t = BuildStar(net, 3, DefaultOpts());
  FlowSpec f = Flow(net, t.hosts[0], t.hosts[1], 0, TransportMode::kRdmaDcqcn);
  SenderQp* qp = net.StartFlow(f);
  net.RunFor(Microseconds(20));
  const uint64_t una = qp->snd_una();
  const Rate rate = qp->current_rate();
  for (RdmaNic* other : {t.hosts[1], t.hosts[2]}) {
    EXPECT_EQ(other->FindQp(f.flow_id), nullptr);
    for (PacketType type : {PacketType::kAck, PacketType::kNak,
                            PacketType::kCnp, PacketType::kQcnFeedback}) {
      other->ReceivePacket(
          ControlFrame(type, f.flow_id, t.hosts[1]->id(), other->id()), 0);
    }
  }
  EXPECT_EQ(t.hosts[0]->FindQp(f.flow_id), qp);
  EXPECT_EQ(qp->snd_una(), una);
  EXPECT_EQ(qp->current_rate(), rate);
  EXPECT_EQ(qp->counters().cnps_received, 0);
  EXPECT_EQ(qp->counters().naks_received, 0);
  // A data frame at a bystander: no receiver state, no ACK, not counted.
  Packet d;
  d.type = PacketType::kData;
  d.flow_id = f.flow_id;
  d.src_host = t.hosts[0]->id();
  d.dst_host = t.hosts[1]->id();
  d.size_bytes = kMtu;
  d.last_of_message = true;
  t.hosts[2]->ReceivePacket(d, 0);
  EXPECT_EQ(t.hosts[2]->counters().data_packets_received, 0);
  EXPECT_EQ(t.hosts[2]->counters().acks_sent, 0);
  EXPECT_EQ(t.hosts[2]->ReceiverDeliveredBytes(f.flow_id), 0);
  // The real flow is untouched by all of it.
  net.RunFor(Microseconds(100));
  EXPECT_GT(t.hosts[1]->ReceiverDeliveredBytes(f.flow_id), 0);
  EXPECT_EQ(qp->counters().cnps_received, 0);
}

TEST(Nic, ReceiverDeliveredBytesIsZeroOffTheReceiver) {
  Network net(1);
  auto t = BuildStar(net, 3, DefaultOpts());
  FlowSpec f = Flow(net, t.hosts[0], t.hosts[1], 5000, TransportMode::kRdmaRaw);
  net.StartFlow(f);
  net.RunFor(Microseconds(100));
  EXPECT_EQ(t.hosts[1]->ReceiverDeliveredBytes(f.flow_id), 5000);
  EXPECT_EQ(t.hosts[0]->ReceiverDeliveredBytes(f.flow_id), 0);  // sender
  EXPECT_EQ(t.hosts[2]->ReceiverDeliveredBytes(f.flow_id), 0);  // bystander
  EXPECT_EQ(t.hosts[1]->ReceiverDeliveredBytes(f.flow_id + 1), 0);  // unused
  EXPECT_EQ(t.hosts[1]->ReceiverDeliveredBytes(-1), 0);
}

// A released id is recycled to a different src/dst pair: the new flow's
// ends own it, the old ends answer null/0, and the receiver's packed store
// keeps its other flows' slots right across the swap-erase.
TEST(Nic, ReleasedIdIsRecycledToADifferentPair) {
  Network net(1);
  auto t = BuildStar(net, 3, DefaultOpts());
  FlowSpec a = Flow(net, t.hosts[0], t.hosts[1], 3000, TransportMode::kRdmaRaw);
  FlowSpec keep =
      Flow(net, t.hosts[2], t.hosts[1], 7000, TransportMode::kRdmaRaw);
  net.StartFlow(a);
  net.StartFlow(keep);
  net.RunFor(Microseconds(100));
  ASSERT_EQ(t.hosts[1]->ReceiverDeliveredBytes(a.flow_id), 3000);
  net.ReleaseFlow(a);
  net.RunFor(Microseconds(1));
  EXPECT_EQ(t.hosts[0]->FindQp(a.flow_id), nullptr);
  EXPECT_EQ(t.hosts[1]->ReceiverDeliveredBytes(a.flow_id), 0);
  EXPECT_EQ(t.hosts[1]->ReceiverDeliveredBytes(keep.flow_id), 7000);

  // The id comes back; give it to host 2 -> host 0.
  FlowSpec b = Flow(net, t.hosts[2], t.hosts[0], 4000, TransportMode::kRdmaRaw);
  ASSERT_EQ(b.flow_id, a.flow_id);
  SenderQp* qp = net.StartFlow(b);
  net.RunFor(Microseconds(100));
  EXPECT_TRUE(qp->complete());
  EXPECT_EQ(t.hosts[2]->FindQp(b.flow_id), qp);
  EXPECT_EQ(t.hosts[0]->FindQp(b.flow_id), nullptr);
  EXPECT_EQ(t.hosts[0]->ReceiverDeliveredBytes(b.flow_id), 4000);
  EXPECT_EQ(t.hosts[1]->ReceiverDeliveredBytes(b.flow_id), 0);
  EXPECT_EQ(t.hosts[1]->ReceiverDeliveredBytes(keep.flow_id), 7000);
  ASSERT_EQ(t.hosts[2]->completed_flows().size(), 2u);
  EXPECT_EQ(t.hosts[2]->completed_flows()[1].bytes, 4000);
}

// A two-port wire tap between a NIC and its peer: forwards every frame,
// folds each data frame arriving on port 0 — i.e. the sending NIC's
// transmit order — into a fingerprint, and drops chosen data frames to
// force loss recovery.
class TapNode : public Node {
 public:
  TapNode() : Node(/*id=*/1000, /*num_ports=*/2) {}

  uint64_t fingerprint = 0;
  int64_t data_frames = 0;
  int64_t dropped = 0;

  void ReceivePacket(const Packet& p, int in_port) override {
    if (in_port == 0 && p.type == PacketType::kData) {
      fingerprint = MixEventKey(
          fingerprint ^ (static_cast<uint64_t>(p.flow_id) << 32 | p.seq));
      ++data_frames;
      if (Drop(p)) {
        ++dropped;
        return;
      }
    }
    const auto out = static_cast<size_t>(1 - in_port);
    queued_[out].push_back(p);
    OnTransmitComplete(static_cast<int>(out));
  }

  void OnTransmitComplete(int port) override {
    std::vector<Packet>& q = queued_[static_cast<size_t>(port)];
    Link* l = link(port);
    if (q.empty() || l->Busy(this)) return;
    l->Transmit(this, q.front());
    q.erase(q.begin());
  }

 private:
  // The first sighting of every seventh flow's last packet (the flow has
  // drained: recovery needs a NAK from a later message or an RTO), plus
  // every 41st data frame early on (NAKs mid-flow).
  bool Drop(const Packet& p) {
    const auto fid = static_cast<size_t>(p.flow_id);
    if (tail_dropped_.size() <= fid) tail_dropped_.resize(fid + 1, false);
    if (p.last_of_message && p.flow_id % 7 == 3 && !tail_dropped_[fid]) {
      tail_dropped_[fid] = true;
      return true;
    }
    return data_frames < 1500 && data_frames % 41 == 17;
  }

  std::vector<Packet> queued_[2];
  std::vector<bool> tail_dropped_;
};

// Round-robin arbitration over 80 QPs on one NIC, so its ready set spans
// two 64-bit words. Mixed sizes, modes and start times make flows finish out
// of creation order; each completed flow is released, so swap-removes move
// the last slot's QP into the hole. Tap drops force go-back-0 restarts,
// go-back-N NAK rewinds (DCTCP) and RTO rewinds of QPs that had already
// sent everything, and DCTCP windows close while data remains. Every flow
// must complete, and the NIC's data transmit order must match the
// fingerprint pinned from the linear-scan arbiter.
TEST(Nic, ManyQpArbitrationKeepsTransmitOrder) {
  NicConfig cfg;
  cfg.rto = Microseconds(300);
  // A two-packet initial window against a ~22 us RTT: DCTCP QPs stall on
  // their window while they still have data and other QPs keep the wire.
  cfg.dctcp.init_cwnd = 2 * kMtu;
  Network net(11);
  RdmaNic* src = net.AddHost(cfg);
  RdmaNic* dst = net.AddHost(cfg);
  TapNode tap;
  Link up(&net.eq(), src, 0, &tap, 0, Gbps(40), Microseconds(1));
  Link down(&net.eq(), &tap, 1, dst, 0, Gbps(40), Microseconds(10));

  constexpr int kFlows = 80;
  int completed = 0;
  int64_t timeouts = 0;
  int64_t naks = 0;
  src->AddCompletionCallback([&](const FlowRecord& rec) {
    ++completed;
    const QpCounters& c = src->FindQp(rec.spec.flow_id)->counters();
    timeouts += c.timeouts;
    naks += c.naks_received;
    net.ReleaseFlow(rec.spec);
  });
  std::vector<int> dctcp_ids;
  for (int i = 0; i < kFlows; ++i) {
    const TransportMode mode = i % 5 == 2   ? TransportMode::kDctcp
                               : i % 2 == 0 ? TransportMode::kRdmaDcqcn
                                            : TransportMode::kRdmaRaw;
    const Bytes size = i % 9 == 0 ? 120 * 1000 : (1 + (i * 37) % 23) * 1100;
    FlowSpec f = Flow(net, src, dst, size, mode, (i % 13) * Nanoseconds(700));
    if (mode == TransportMode::kDctcp) dctcp_ids.push_back(f.flow_id);
    net.StartFlow(f);
  }

  // Probe: some DCTCP QP is window-blocked while it still has unsent data.
  bool window_closed_with_data = false;
  std::function<void()> probe = [&] {
    for (int id : dctcp_ids) {
      const SenderQp* qp = src->FindQp(id);
      if (qp != nullptr && qp->started() &&
          qp->snd_next() < qp->send_limit() && !qp->HasPacketReady()) {
        window_closed_with_data = true;
      }
    }
    if (completed < kFlows) net.eq().ScheduleIn(Nanoseconds(500), probe);
  };
  net.eq().ScheduleIn(0, probe);

  net.RunFor(Milliseconds(20));
  EXPECT_EQ(completed, kFlows);
  EXPECT_GT(tap.dropped, 0);
  EXPECT_GT(timeouts, 0);
  EXPECT_GT(naks, 0);
  EXPECT_TRUE(window_closed_with_data);
  // Pinned from the linear-scan arbiter (every QP probed on each send).
  EXPECT_EQ(tap.data_frames, 2593);
  EXPECT_EQ(tap.fingerprint, 18637797765709907u);
}

}  // namespace
}  // namespace dcqcn
