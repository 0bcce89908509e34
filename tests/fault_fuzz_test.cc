// Randomized fault-plan fuzzing: generate arbitrary bounded fault schedules
// (flaps, loss, corruption, pause storms, slow receivers, buffer shrinks)
// against a live star fabric with real flows and assert the two properties
// that make fault injection trustworthy:
//   * buffer-accounting invariants hold at every probe point, faults or not
//   * once every fault has healed, every flow completes and the fabric
//     drains back to a clean state (no stuck PAUSE, no leaked occupancy)
#include <gtest/gtest.h>

#include "cc/cc_policy.h"
#include "fault/fault_injector.h"
#include "net/topology.h"

namespace dcqcn {
namespace {

constexpr int kHosts = 4;

FaultPlan RandomBoundedPlan(Rng& rng, const StarTopology& topo) {
  FaultPlan plan;
  const int n = static_cast<int>(rng.UniformInt(1, 4));
  for (int i = 0; i < n; ++i) {
    const Time at = rng.UniformInt(0, 5) * kMillisecond;
    const Time dur = rng.UniformInt(1, 30) * 100 * kMicrosecond;
    const int host_idx = static_cast<int>(rng.UniformInt(0, kHosts - 1));
    const int host_id = topo.hosts[static_cast<size_t>(host_idx)]->id();
    switch (rng.UniformInt(0, 5)) {
      case 0:
        plan.Add(LinkFlap(topo.sw->id(), host_id, at, dur));
        break;
      case 1:
        // Loss stays small: go-back-0 restarts the whole message per loss,
        // so heavy loss windows only test patience, not correctness.
        plan.Add(PacketLoss(topo.sw->id(), host_id, at, dur,
                            0.001 * static_cast<double>(
                                        rng.UniformInt(1, 50))));
        break;
      case 2:
        plan.Add(Corruption(topo.sw->id(), host_id, at, dur,
                            0.001 * static_cast<double>(
                                        rng.UniformInt(1, 50))));
        break;
      case 3:
        plan.Add(PauseStorm(host_id, kDataPriority, at, dur));
        break;
      case 4:
        plan.Add(SlowReceiver(host_id, at, dur,
                              rng.UniformInt(10, 300) * kMicrosecond));
        break;
      default:
        plan.Add(BufferShrink(topo.sw->id(), at, dur,
                              rng.UniformInt(100, 1000) * kKB));
        break;
    }
  }
  plan.Validate();
  return plan;
}

class FaultFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FaultFuzz, RandomPlansNeverBreakInvariantsAndFlowsFinish) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Network net(seed);
  // Faulty links can eat RESUME frames, so the guaranteed-recovery property
  // needs the real 802.1Qbb pause-quanta semantics: received PAUSE expires
  // unless refreshed, senders refresh while the condition holds.
  TopologyOptions opt;
  opt.switch_config.pfc_pause_expiry = Microseconds(840);
  opt.switch_config.pfc_pause_refresh = Microseconds(200);
  opt.nic_config.pfc_pause_expiry = Microseconds(840);
  StarTopology topo = BuildStar(net, kHosts, opt);
  Rng fuzz(seed * 0x9e3779b97f4a7c15ULL + 1);

  // A few bounded flows between random distinct host pairs, each under a
  // random registered CcPolicy: the recovery guarantee must be
  // policy-agnostic, and mixed policies sharing a fabric must not wedge
  // each other's fault handling.
  const std::vector<std::string> policies = CcPolicyNames();
  const int num_flows = static_cast<int>(fuzz.UniformInt(2, 4));
  int started = 0;
  for (int i = 0; i < num_flows; ++i) {
    const int a = static_cast<int>(fuzz.UniformInt(0, kHosts - 1));
    int b = static_cast<int>(fuzz.UniformInt(0, kHosts - 1));
    if (a == b) b = (b + 1) % kHosts;
    const int16_t policy = CcPolicyIdByName(policies[static_cast<size_t>(
        fuzz.UniformInt(0, static_cast<int64_t>(policies.size()) - 1))]);
    FlowSpec f;
    f.flow_id = net.NextFlowId();
    f.src_host = topo.hosts[static_cast<size_t>(a)]->id();
    f.dst_host = topo.hosts[static_cast<size_t>(b)]->id();
    f.size_bytes = fuzz.UniformInt(50, 300) * kKB;
    f.cc_policy = policy;
    net.StartFlow(f);
    ++started;
  }

  const FaultPlan plan = RandomBoundedPlan(fuzz, topo);
  ASSERT_TRUE(plan.AllBounded());
  FaultInjector inj(&net, plan, seed + 42);
  inj.Arm();

  // Interleave running with invariant probes while faults are live.
  const Time horizon = plan.LastHealTime() + Milliseconds(1);
  while (net.eq().Now() < horizon) {
    net.RunFor(Microseconds(fuzz.UniformInt(50, 500)));
    EXPECT_GE(topo.sw->shared_occupancy(), 0);
    EXPECT_LE(topo.sw->shared_occupancy(),
              topo.sw->config().buffer.total_buffer);
  }
  EXPECT_EQ(inj.faults_started(), static_cast<int64_t>(plan.faults.size()));
  EXPECT_EQ(inj.faults_healed(), static_cast<int64_t>(plan.faults.size()));

  // All faults healed: every flow must complete. 10 ms RTOs with go-back-0
  // restarts can stack up, so give a generous (but bounded) grace period.
  net.RunFor(Milliseconds(500));
  int completed = 0;
  for (const auto& h : net.hosts()) {
    for (const FlowRecord& rec : h->completed_flows()) {
      EXPECT_EQ(rec.bytes, rec.spec.size_bytes);
      ++completed;
    }
  }
  EXPECT_EQ(completed, started) << "flows stuck after all faults healed";

  // The fabric drained clean: no leaked buffer, no stuck pause state.
  EXPECT_EQ(topo.sw->shared_occupancy(), 0);
  for (int port = 0; port < topo.sw->num_ports(); ++port) {
    for (int pr = 0; pr < kNumPriorities; ++pr) {
      EXPECT_EQ(topo.sw->EgressQueueBytes(port, pr), 0);
      EXPECT_EQ(topo.sw->IngressQueueBytes(port, pr), 0);
      EXPECT_FALSE(topo.sw->TxPaused(port, pr))
          << "port " << port << " pr " << pr << " still paused";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace dcqcn
