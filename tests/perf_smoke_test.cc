// Smoke variants of the engine microbenchmarks (ctest label: perf).
//
// These run the exact loops BM_EventQueueScheduleRun, BM_EventQueueCancel,
// BM_SwitchHotPath and BM_SimulatedIncastMillisecond time — shrunk to unit
// test size and with correctness assertions instead of timers — so the
// ASan/UBSan/TSan CI flavors sweep the allocation-free event core's hottest
// paths on every run. The wall-clock gating lives in CI's perf gate
// (perf_microbench vs the BENCH_MICRO.json baseline); these tests gate
// memory-safety of the same code.
#include <gtest/gtest.h>

#include "net/network.h"
#include "net/topology.h"
#include "sim/event_queue.h"

namespace dcqcn {
namespace {

TEST(PerfSmoke, EventQueueScheduleRunLoop) {
  // BM_EventQueueScheduleRun's loop body, iterated enough to churn slots
  // through the free list many times over.
  EventQueue eq;
  int64_t sink = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    for (int i = 0; i < 64; ++i) {
      eq.ScheduleIn(static_cast<Time>(i % 7), [&sink] { ++sink; });
    }
    eq.RunAll();
  }
  EXPECT_EQ(sink, 2000 * 64);
  EXPECT_TRUE(eq.Empty());
}

TEST(PerfSmoke, EventQueueCancelLoop) {
  // BM_EventQueueCancel's loop body: arm, cancel, drain tombstones.
  EventQueue eq;
  for (int iter = 0; iter < 20000; ++iter) {
    EventHandle h = eq.ScheduleIn(1000, [] { FAIL() << "cancelled ran"; });
    EXPECT_TRUE(eq.Cancel(h));
    eq.RunAll();
  }
  EXPECT_TRUE(eq.Empty());
  EXPECT_EQ(eq.Now(), 0);
}

TEST(PerfSmoke, SwitchHotPathMillisecond) {
  // BM_SwitchHotPath/0: one simulated millisecond of an 8:1 DCQCN incast —
  // the pooled egress/PFC rings, the link in-flight rings, and the NIC
  // timer churn all under load.
  const int k = 8;
  Network net(1);
  StarTopology topo = BuildStar(net, k + 1, TopologyOptions{});
  for (int i = 0; i < k; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[static_cast<size_t>(k)]->id();
    f.size_bytes = 0;
    f.mode = TransportMode::kRdmaDcqcn;
    net.StartFlow(f);
  }
  net.RunFor(Milliseconds(1));
  int64_t delivered = 0;
  for (int i = 0; i < k; ++i) {
    delivered += net.hosts().back()->ReceiverDeliveredBytes(i);
  }
  EXPECT_GT(delivered, 0);
  // The receiver's access link bounds a millisecond of goodput.
  EXPECT_LE(delivered, static_cast<int64_t>(40e9 / 8 * 1e-3 * 1.01));
}

TEST(PerfSmoke, IncastMillisecondSmallFanIn) {
  // BM_SimulatedIncastMillisecond/2 shape; checks the engine is quiescent-
  // clean for a smaller fan-in too (different ring/slot high-water marks).
  const int k = 2;
  Network net(1);
  StarTopology topo = BuildStar(net, k + 1, TopologyOptions{});
  for (int i = 0; i < k; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[static_cast<size_t>(k)]->id();
    f.size_bytes = 0;
    f.mode = TransportMode::kRdmaDcqcn;
    net.StartFlow(f);
  }
  net.RunFor(Milliseconds(1));
  EXPECT_GT(net.hosts().back()->counters().data_packets_received, 0);
}

}  // namespace
}  // namespace dcqcn
