// Fault-injection subsystem tests: plan validation and serialization, each
// fault kind's end-to-end effect on a live simulation (flap -> recovery,
// loss/corruption counters, pause storms, slow receivers, buffer shrink),
// and the PauseStormDetector watchdog.
#include <gtest/gtest.h>

#include "cc/cc_policy.h"
#include "cc/scenarios.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/pause_storm_detector.h"
#include "net/topology.h"

namespace dcqcn {
namespace {

FlowSpec Make(Network& net, RdmaNic* src, RdmaNic* dst, Bytes size,
              int16_t policy = kDcqcnPolicyId) {
  FlowSpec f;
  f.flow_id = net.NextFlowId();
  f.src_host = src->id();
  f.dst_host = dst->id();
  f.size_bytes = size;
  f.cc_policy = policy;
  return f;
}

// ---- Plan construction and serialization ----

TEST(FaultPlan, FactoriesProduceValidSpecs) {
  FaultPlan plan;
  plan.Add(LinkFlap(0, 4, Milliseconds(1), Microseconds(500)));
  plan.Add(PacketLoss(0, 5, 0, Milliseconds(2), 0.01));
  plan.Add(Corruption(0, 5, 0, Milliseconds(2), 0.001));
  plan.Add(PauseStorm(4, kDataPriority, Milliseconds(1), Milliseconds(5)));
  plan.Add(SlowReceiver(4, 0, Milliseconds(3), Microseconds(100)));
  plan.Add(BufferShrink(0, 0, Milliseconds(2), 200 * kKB));
  plan.Validate();  // must not abort
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.faults.size(), 6u);
}

TEST(FaultPlan, LastHealTimeAndBoundedness) {
  FaultPlan plan;
  EXPECT_EQ(plan.LastHealTime(), 0);
  EXPECT_TRUE(plan.AllBounded());

  plan.Add(LinkFlap(0, 1, Milliseconds(1), Milliseconds(2)));
  plan.Add(PauseStorm(2, kDataPriority, Milliseconds(4), Milliseconds(3)));
  EXPECT_TRUE(plan.AllBounded());
  EXPECT_EQ(plan.LastHealTime(), Milliseconds(7));

  // Unbounded faults never heal; they must not extend the heal horizon.
  plan.Add(PauseStorm(3, kDataPriority, Milliseconds(1), /*duration=*/0));
  EXPECT_FALSE(plan.AllBounded());
  EXPECT_EQ(plan.LastHealTime(), Milliseconds(7));
}

TEST(FaultPlan, JsonIsDeterministicAndKindScoped) {
  FaultPlan plan;
  plan.Add(LinkFlap(0, 4, 1000000, 500000));
  plan.Add(PacketLoss(2, 3, 0, 2000000, 0.5));
  plan.Add(PauseStorm(4, 3, 7, 9, /*refresh=*/5));
  EXPECT_EQ(plan.ToJson(),
            "[{\"kind\":\"link_flap\",\"at\":1000000,\"duration\":500000,"
            "\"node_a\":0,\"node_b\":4},"
            "{\"kind\":\"packet_loss\",\"at\":0,\"duration\":2000000,"
            "\"node_a\":2,\"node_b\":3,\"probability\":0.5},"
            "{\"kind\":\"pause_storm\",\"at\":7,\"duration\":9,"
            "\"node_a\":4,\"priority\":3,\"refresh\":5}]");
}

TEST(FaultPlan, CompactStringIsCsvSafe) {
  FaultPlan plan;
  plan.Add(LinkFlap(0, 4, 1000000, 500000));
  plan.Add(SlowReceiver(7, 10, 20, 30));
  const std::string s = plan.ToCompactString();
  EXPECT_EQ(s, "link_flap:0-4:at1000000:dur500000;"
               "slow_receiver:7:at10:dur20:delay30");
  // No CSV metacharacters: the cell never needs quoting.
  EXPECT_EQ(s.find_first_of(",\"\n"), std::string::npos);
}

TEST(FaultPlan, PeriodicFlapsExpand) {
  FaultPlan plan;
  AddPeriodicFlaps(&plan, 0, 4, Milliseconds(1), Milliseconds(2),
                   Microseconds(100), 5);
  ASSERT_EQ(plan.faults.size(), 5u);
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(plan.faults[static_cast<size_t>(k)].at,
              Milliseconds(1) + k * Milliseconds(2));
    EXPECT_EQ(plan.faults[static_cast<size_t>(k)].duration,
              Microseconds(100));
  }
}

// ---- Link flap: in-flight frames die, go-back-N recovery completes ----

TEST(FaultInjector, LinkFlapKillsTrafficThenFlowRecovers) {
  Network net(11);
  StarTopology topo = BuildStar(net, 2, TopologyOptions{});
  // Star node ids: switch 0, hosts 1..N.
  const int src = topo.hosts[0]->id();
  const int dst = topo.hosts[1]->id();
  net.StartFlow(Make(net, topo.hosts[0], topo.hosts[1], 200 * kKB));

  FaultPlan plan;
  plan.Add(LinkFlap(0, dst, Microseconds(20), Milliseconds(1)));
  FaultInjector inj(&net, plan, /*seed=*/99);
  inj.Arm();

  // Transfer alone needs ~40 us at 40 Gbps; the 1 ms outage forces an RTO
  // (10 ms) go-back recovery, so completion lands well after the flap.
  net.RunFor(Milliseconds(50));
  Link* access = net.FindLink(0, dst);
  ASSERT_NE(access, nullptr);
  EXPECT_TRUE(access->up());
  EXPECT_GT(access->FramesLost(access->node_a()) +
                access->FramesLost(access->node_b()),
            0);
  ASSERT_EQ(net.host(src)->completed_flows().size(), 1u);
  const FlowRecord& rec = net.host(src)->completed_flows()[0];
  EXPECT_EQ(rec.bytes, 200 * kKB);
  EXPECT_GT(rec.fct(), Milliseconds(1));
  EXPECT_EQ(inj.faults_started(), 1);
  EXPECT_EQ(inj.faults_healed(), 1);
}

// ---- Bernoulli loss / corruption: counters tick, flow still finishes ----

TEST(FaultInjector, PacketLossWindowIsCountedAndRecoverable) {
  Network net(12);
  StarTopology topo = BuildStar(net, 2, TopologyOptions{});
  const int dst = topo.hosts[1]->id();
  net.StartFlow(Make(net, topo.hosts[0], topo.hosts[1], 500 * kKB));

  FaultPlan plan;
  plan.Add(PacketLoss(0, dst, 0, Milliseconds(5), 0.05));
  FaultInjector inj(&net, plan, 5);
  inj.Arm();
  net.RunFor(Milliseconds(100));

  Link* access = net.FindLink(0, dst);
  EXPECT_GT(access->FramesLost(access->node_a()) +
                access->FramesLost(access->node_b()),
            0);
  EXPECT_EQ(access->FramesCorrupted(access->node_a()) +
                access->FramesCorrupted(access->node_b()),
            0);
  ASSERT_EQ(net.host(topo.hosts[0]->id())->completed_flows().size(), 1u);
  EXPECT_EQ(net.host(topo.hosts[0]->id())->completed_flows()[0].bytes,
            500 * kKB);
}

TEST(FaultInjector, CorruptionIsCountedSeparatelyFromLoss) {
  Network net(13);
  StarTopology topo = BuildStar(net, 2, TopologyOptions{});
  const int dst = topo.hosts[1]->id();
  net.StartFlow(Make(net, topo.hosts[0], topo.hosts[1], 500 * kKB));

  FaultPlan plan;
  plan.Add(Corruption(0, dst, 0, Milliseconds(5), 0.05));
  FaultInjector inj(&net, plan, 5);
  inj.Arm();
  net.RunFor(Milliseconds(100));

  Link* access = net.FindLink(0, dst);
  EXPECT_GT(access->FramesCorrupted(access->node_a()) +
                access->FramesCorrupted(access->node_b()),
            0);
  EXPECT_EQ(access->FramesLost(access->node_a()) +
                access->FramesLost(access->node_b()),
            0);
  ASSERT_EQ(net.host(topo.hosts[0]->id())->completed_flows().size(), 1u);
}

// ---- Babbling NIC: the switch port pauses for the storm's whole span ----

TEST(FaultInjector, PauseStormPausesToRPortForStormDuration) {
  Network net(14);
  StarTopology topo = BuildStar(net, 3, TopologyOptions{});
  RdmaNic* babbler = topo.hosts[1];  // node id 2, switch port 1
  // Traffic toward the babbler so the paused egress class actually matters.
  net.StartFlow(Make(net, topo.hosts[0], babbler, /*size=*/0,
                     CcPolicyIdByName("raw")));

  const Time storm_at = Milliseconds(1);
  const Time storm_for = Milliseconds(4);
  FaultPlan plan;
  plan.Add(PauseStorm(babbler->id(), kDataPriority, storm_at, storm_for));
  FaultInjector inj(&net, plan, 7);
  inj.Arm();

  net.RunUntil(Milliseconds(3));
  EXPECT_TRUE(babbler->PauseStormActive(kDataPriority));
  EXPECT_TRUE(topo.sw->TxPaused(1, kDataPriority));
  EXPECT_GT(babbler->counters().pause_frames_sent, 1);

  net.RunUntil(Milliseconds(10));
  EXPECT_FALSE(babbler->PauseStormActive(kDataPriority));
  EXPECT_FALSE(topo.sw->TxPaused(1, kDataPriority));
  // Paused time integrates to ~ the storm length (PAUSE/RESUME propagation
  // adds one link delay of slack on each edge).
  const Time paused = topo.sw->PausedTimeTotal(1, kDataPriority);
  EXPECT_GT(paused, storm_for - Microseconds(50));
  EXPECT_LT(paused, storm_for + Microseconds(50));
  EXPECT_GE(net.TotalPausedTime(), paused);
}

// ---- Slow receiver: delayed ACK/CNP generation stretches the FCT ----

TEST(FaultInjector, SlowReceiverStretchesFlowCompletionTime) {
  auto fct_with_delay = [](Time delay) {
    Network net(15);
    StarTopology topo = BuildStar(net, 2, TopologyOptions{});
    net.StartFlow(Make(net, topo.hosts[0], topo.hosts[1], 1000 * kKB));
    FaultInjector* inj = nullptr;
    FaultPlan plan;
    if (delay > 0) {
      plan.Add(SlowReceiver(topo.hosts[1]->id(), 0, Milliseconds(500),
                            delay));
    }
    FaultInjector injector(&net, plan, 3);
    inj = &injector;
    inj->Arm();
    net.RunFor(Milliseconds(400));
    const auto& done = net.host(topo.hosts[0]->id())->completed_flows();
    return done.empty() ? Milliseconds(400) : done[0].fct();
  };
  const Time healthy = fct_with_delay(0);
  const Time slowed = fct_with_delay(Microseconds(500));
  EXPECT_GT(slowed, healthy + Microseconds(400));
}

// ---- Buffer shrink: a smaller shared pool forces earlier, longer PFC ----

TEST(FaultInjector, BufferShrinkIncreasesPauseActivity) {
  // In a star the PAUSEs go switch -> sender NIC, so the signal is the
  // switch's pause_frames_sent (switch-side paused time stays zero: hosts
  // never pause the switch here).
  auto pauses_sent = [](Bytes shrink_to) {
    Network net(16);
    StarTopology topo = BuildStar(net, 5, TopologyOptions{});
    for (int i = 0; i < 4; ++i) {
      net.StartFlow(Make(net, topo.hosts[static_cast<size_t>(i)],
                         topo.hosts[4], /*size=*/0, CcPolicyIdByName("raw")));
    }
    FaultPlan plan;
    if (shrink_to > 0) {
      plan.Add(BufferShrink(0, 0, Milliseconds(20), shrink_to));
    }
    FaultInjector inj(&net, plan, 3);
    inj.Arm();
    net.RunFor(Milliseconds(10));
    return topo.sw->counters().pause_frames_sent;
  };
  const int64_t baseline = pauses_sent(0);
  // Shrink to just above the reserved headroom (~5.7 MB on the 32-port
  // chip): a sliver of shared pool survives, so the PFC threshold collapses
  // and pause/resume cycles far faster than at the full 12 MB.
  const int64_t shrunk = pauses_sent(6 * kMiB);
  EXPECT_GT(shrunk, baseline);
  EXPECT_GT(shrunk, 0);
}

TEST(SharedBufferSwitch, BufferOverrideShrinksThresholdAndRestores) {
  Network net(17);
  StarTopology topo = BuildStar(net, 2, TopologyOptions{});
  const Bytes normal_threshold = topo.sw->CurrentPfcThreshold();
  topo.sw->SetSharedBufferOverride(1 * kMiB);
  EXPECT_LT(topo.sw->CurrentPfcThreshold(), normal_threshold);
  topo.sw->SetSharedBufferOverride(0);
  EXPECT_EQ(topo.sw->CurrentPfcThreshold(), normal_threshold);
}

// ---- PauseStormDetector ----

PauseStormDetectorConfig DetectorConfig() {
  PauseStormDetectorConfig cfg;
  cfg.window = Milliseconds(2);
  cfg.sample_period = Microseconds(100);
  cfg.paused_fraction_threshold = 0.5;
  return cfg;
}

TEST(PauseStormDetector, AlarmsOnStormAndClearsAfterHeal) {
  Network net(18);
  StarTopology topo = BuildStar(net, 3, TopologyOptions{});
  RdmaNic* babbler = topo.hosts[1];

  FaultPlan plan;
  plan.Add(PauseStorm(babbler->id(), kDataPriority, Milliseconds(1),
                      Milliseconds(6)));
  FaultInjector inj(&net, plan, 3);
  inj.Arm();

  PauseStormDetector det(&net.eq(), DetectorConfig());
  det.Watch(topo.sw);
  det.Start();

  net.RunUntil(Milliseconds(5));
  ASSERT_FALSE(det.alarms().empty());
  const PauseStormDetector::Alarm& a = det.alarms()[0];
  EXPECT_EQ(a.switch_id, topo.sw->id());
  EXPECT_EQ(a.port, 1);
  EXPECT_EQ(a.priority, kDataPriority);
  EXPECT_GE(a.fraction, 0.5);
  EXPECT_TRUE(det.Flagged(topo.sw, 1, kDataPriority));

  // After the heal plus one full window, the fraction decays below the
  // threshold and the flag clears (no new alarm is a rising-edge log).
  net.RunUntil(Milliseconds(12));
  EXPECT_FALSE(det.Flagged(topo.sw, 1, kDataPriority));
  EXPECT_EQ(det.alarms().size(), 1u);
}

TEST(PauseStormDetector, SilentUnderHealthyCongestion) {
  Network net(19);
  StarTopology topo = BuildStar(net, 3, TopologyOptions{});
  // A modest DCQCN incast: transient PFC is possible, a storm is not.
  net.StartFlow(Make(net, topo.hosts[0], topo.hosts[2], 0));
  net.StartFlow(Make(net, topo.hosts[1], topo.hosts[2], 0));

  PauseStormDetector det(&net.eq(), DetectorConfig());
  det.Watch(topo.sw);
  det.Start();
  net.RunFor(Milliseconds(10));
  EXPECT_TRUE(det.alarms().empty());
  EXPECT_GT(det.samples_taken(), 50);
}

TEST(PauseStormDetector, StopHaltsSampling) {
  Network net(20);
  StarTopology topo = BuildStar(net, 2, TopologyOptions{});
  PauseStormDetector det(&net.eq(), DetectorConfig());
  det.Watch(topo.sw);
  det.Start();
  net.RunFor(Milliseconds(1));
  det.Stop();
  const int64_t samples = det.samples_taken();
  net.RunFor(Milliseconds(5));
  EXPECT_EQ(det.samples_taken(), samples);
}

// ---- Policy x fault matrix: every registered CcPolicy rides out faults ----
//
// The fault machinery must be policy-agnostic: whatever owns the rate or
// window, a flow stalled by a PAUSE storm or a link flap completes once the
// fault heals. Swept over the registry so a newly registered policy is
// covered automatically.

class CcPolicyFaults : public ::testing::TestWithParam<std::string> {
 protected:
  int16_t id() const { return CcPolicyIdByName(GetParam()); }
  // Star fabric with the switch-side defaults the policy's deployment
  // assumes (RED off for TIMELY, the QCN congestion point on for QCN).
  StarTopology Build(Network& net, int hosts) const {
    TopologyOptions opt;
    cc::ApplyCcSwitchDefaults(id(), &opt.switch_config);
    return BuildStar(net, hosts, opt);
  }
  void Start(Network& net, RdmaNic* src, RdmaNic* dst, Bytes size) const {
    net.StartFlow(Make(net, src, dst, size, id()));
  }
};

TEST_P(CcPolicyFaults, FlowCompletesAfterPauseStormHeals) {
  Network net(31);
  StarTopology topo = Build(net, 3);
  // The victim flow targets the babbler, so the storm pauses exactly the
  // egress class the flow needs; clean of faults it would finish in ~60 us.
  RdmaNic* babbler = topo.hosts[1];
  Start(net, topo.hosts[0], babbler, 300 * kKB);

  const Time storm_at = Microseconds(10);  // mid-transfer (clean FCT ~60 us)
  const Time storm_for = Milliseconds(3);
  FaultPlan plan;
  plan.Add(PauseStorm(babbler->id(), kDataPriority, storm_at, storm_for));
  FaultInjector inj(&net, plan, 8);
  inj.Arm();

  net.RunFor(Milliseconds(200));
  EXPECT_EQ(inj.faults_healed(), 1);
  const auto& done = net.host(topo.hosts[0]->id())->completed_flows();
  ASSERT_EQ(done.size(), 1u) << GetParam() << " flow stuck after heal";
  EXPECT_EQ(done[0].bytes, 300 * kKB);
  // It really was held by the storm, not finished beforehand.
  EXPECT_GT(done[0].fct(), storm_at + storm_for);
  EXPECT_FALSE(topo.sw->TxPaused(1, kDataPriority));
}

TEST_P(CcPolicyFaults, FlowCompletesAfterLinkFlapHeals) {
  Network net(32);
  StarTopology topo = Build(net, 2);
  const int dst = topo.hosts[1]->id();
  Start(net, topo.hosts[0], topo.hosts[1], 200 * kKB);

  FaultPlan plan;
  plan.Add(LinkFlap(topo.sw->id(), dst, Microseconds(20), Milliseconds(1)));
  FaultInjector inj(&net, plan, 9);
  inj.Arm();

  net.RunFor(Milliseconds(200));
  Link* access = net.FindLink(topo.sw->id(), dst);
  ASSERT_NE(access, nullptr);
  EXPECT_TRUE(access->up());
  const auto& done = net.host(topo.hosts[0]->id())->completed_flows();
  ASSERT_EQ(done.size(), 1u) << GetParam() << " flow stuck after flap";
  EXPECT_EQ(done[0].bytes, 200 * kKB);
  EXPECT_GT(done[0].fct(), Milliseconds(1));
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistered, CcPolicyFaults, ::testing::ValuesIn(CcPolicyNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// ---- Injector bookkeeping ----

TEST(FaultInjector, CountsStartedAndHealedFaults) {
  Network net(21);
  StarTopology topo = BuildStar(net, 3, TopologyOptions{});
  (void)topo;
  FaultPlan plan;
  plan.Add(LinkFlap(0, 1, Milliseconds(1), Milliseconds(1)));
  plan.Add(PauseStorm(2, kDataPriority, Milliseconds(1), Milliseconds(2)));
  plan.Add(PauseStorm(3, kDataPriority, Milliseconds(1), /*duration=*/0));
  FaultInjector inj(&net, plan, 4);
  inj.Arm();
  net.RunUntil(Milliseconds(10));
  EXPECT_EQ(inj.faults_started(), 3);
  EXPECT_EQ(inj.faults_healed(), 2);  // the unbounded storm never heals
}

}  // namespace
}  // namespace dcqcn
