// Allocation-counting hook for the allocation-free event core: after
// warm-up, the schedule→fire path, the pooled packet rings, a whole
// steady-state incast simulation, and the hybrid gate's max-min allocator
// must perform ZERO heap allocations, and a short flow's allocations must
// not grow with the host count. The hook replaces global operator new/delete
// in this test binary with counting wrappers (calls and bytes); the tests
// snapshot the counters around a measured phase. Everything under test is
// deterministic (seeded), so these are exact assertions, not thresholds.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.h"
#include "hybrid/allocator.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/event_queue.h"
#include "sim/queue_pool.h"
#include "sim/ring_buffer.h"

namespace {

std::atomic<int64_t> g_allocations{0};
std::atomic<int64_t> g_allocated_bytes{0};

void* CountedAllocNoThrow(size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(static_cast<int64_t>(size),
                              std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlloc(size_t size) {
  if (void* p = CountedAllocNoThrow(size)) return p;
  throw std::bad_alloc();
}

int64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

int64_t AllocatedBytes() {
  return g_allocated_bytes.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocNoThrow(size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocNoThrow(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dcqcn {
namespace {

TEST(EventCoreAlloc, ScheduleFireCycleIsAllocationFree) {
  EventQueue eq;
  int64_t sink = 0;
  // Warm-up: reach the steady-state slot/heap high-water mark.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 256; ++i) {
      eq.ScheduleIn(static_cast<Time>(i % 7), [&sink] { ++sink; });
    }
    eq.RunAll();
  }
  const int64_t before = AllocationCount();
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 256; ++i) {
      eq.ScheduleIn(static_cast<Time>(i % 7), [&sink] { ++sink; });
    }
    eq.RunAll();
  }
  EXPECT_EQ(AllocationCount() - before, 0)
      << "schedule->fire allocated on the steady-state path";
  EXPECT_EQ(sink, 104 * 256);
}

TEST(EventCoreAlloc, ScheduleCancelCycleIsAllocationFree) {
  EventQueue eq;
  for (int i = 0; i < 64; ++i) eq.Cancel(eq.ScheduleIn(1000, [] {}));
  eq.RunAll();
  const int64_t before = AllocationCount();
  for (int round = 0; round < 10000; ++round) {
    // The timer idiom: arm, cancel, and the tombstone drains at the next
    // quiescent point (tombstones are popped lazily, so an unbounded
    // cancel-without-ever-running loop would legitimately grow the heap).
    EventHandle h = eq.ScheduleIn(1000, [] {});
    eq.Cancel(h);
    eq.RunAll();
  }
  EXPECT_EQ(AllocationCount() - before, 0)
      << "schedule->cancel allocated on the steady-state path";
}

TEST(EventCoreAlloc, WarmRingBufferIsAllocationFree) {
  QueuePool pool;
  RingBuffer<Packet> ring(&pool);
  Packet p;
  for (int i = 0; i < 100; ++i) ring.push_back(p);  // warm to capacity 128
  ring.clear();
  const int64_t before = AllocationCount();
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 100; ++i) ring.push_back(p);
    while (!ring.empty()) ring.pop_front();
  }
  EXPECT_EQ(AllocationCount() - before, 0)
      << "warm RingBuffer push/pop allocated";
}

TEST(EventCoreAlloc, SteadyStateIncastIsAllocationFree) {
  // The whole engine end to end: an 8:1 unbounded DCQCN incast (the
  // BM_SimulatedIncastMillisecond workload). After the warm-up millisecond
  // every queue, ring, slot and hash table has hit its high-water mark;
  // forwarding, pacing, PFC, ECN marking, ACK/CNP generation and all timer
  // churn must then run without a single allocation.
  const int k = 8;
  Network net(1);
  StarTopology topo = BuildStar(net, k + 1, TopologyOptions{});
  for (int i = 0; i < k; ++i) {
    FlowSpec f;
    f.flow_id = i;
    f.src_host = topo.hosts[static_cast<size_t>(i)]->id();
    f.dst_host = topo.hosts[static_cast<size_t>(k)]->id();
    f.size_bytes = 0;  // unbounded
    f.mode = TransportMode::kRdmaDcqcn;
    net.StartFlow(f);
  }
  net.RunFor(Milliseconds(2));  // warm-up: converge past the incast onset
  const int64_t pool_blocks_before = net.pool().allocated_blocks();
  const int64_t before = AllocationCount();
  net.RunFor(Milliseconds(2));
  EXPECT_EQ(AllocationCount() - before, 0)
      << "steady-state incast forwarding allocated";
  EXPECT_EQ(net.pool().allocated_blocks(), pool_blocks_before);
}

// The hybrid gate's max-min allocator with a reused demand list, scratch
// and result (HybridEngine::AllocationFeasible's pattern): once warm on the
// largest demand set, calls over any prefix of it allocate nothing, and
// return bit for bit what the one-shot API returns.
TEST(EventCoreAlloc, WarmMaxMinAllocateIsAllocationFree) {
  Rng rng(7);
  std::vector<Rate> caps(64);
  for (Rate& c : caps) c = rng.Chance(0.5) ? Gbps(40) : Gbps(10);
  std::vector<hybrid::AllocDemand> demands(32);
  for (hybrid::AllocDemand& d : demands) {
    d.cap = rng.Chance(0.5) ? Gbps(40) : Gbps(rng.Uniform(1.0, 40.0));
    for (int64_t h = rng.UniformInt(1, 6); h > 0; --h) {
      d.links.push_back(static_cast<int32_t>(rng.UniformInt(0, 63)));
    }
  }
  std::vector<hybrid::AllocResult> want;
  for (size_t n = 0; n <= demands.size(); ++n) {
    want.push_back(hybrid::MaxMinAllocate(
        std::vector<hybrid::AllocDemand>(demands.begin(),
                                         demands.begin() +
                                             static_cast<ptrdiff_t>(n)),
        caps));
  }
  hybrid::AllocScratch scratch;
  hybrid::AllocResult out;
  hybrid::MaxMinAllocate(demands.data(), demands.size(), caps, &scratch,
                         &out);  // warm-up
  size_t mismatches = 0;
  const int64_t before = AllocationCount();
  for (int round = 0; round < 3; ++round) {
    for (size_t n = demands.size() + 1; n-- > 0;) {
      hybrid::MaxMinAllocate(demands.data(), n, caps, &scratch, &out);
      mismatches += out.rate != want[n].rate || out.rounds != want[n].rounds;
    }
  }
  EXPECT_EQ(AllocationCount() - before, 0)
      << "a warm MaxMinAllocate call allocated";
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(want.back().rounds, 1);  // the full set really shares links
}

// Bytes allocated while `flows` one-packet flows start and complete on a
// Clos of H hosts, after a warm-up of the same traffic. Flow j runs host
// j%H -> host (j%H + H/2)%H, started j us into its phase: spaced so no queue
// builds and RED never draws a mark. The Clos has one leaf per pod and one
// spine, so every (src, dst) pair has one path and the measured phase
// replays the warm-up's wire pattern exactly: every ring, slot and per-NIC
// table the measured flows touch is already at its high-water mark. The
// warm-up flows are released; the measured ones take fresh ids
// (flows..2*flows-1) — the ids a growing trial hands out.
int64_t ShortFlowPhaseBytes(int pods, int tors_per_pod, int hosts_per_tor,
                            int flows) {
  ClosShape shape;
  shape.pods = pods;
  shape.tors_per_pod = tors_per_pod;
  shape.leaves_per_pod = 1;
  shape.spines = 1;
  shape.hosts_per_tor = hosts_per_tor;
  Network net(3);
  const ClosTopology topo = BuildClos(net, shape, TopologyOptions{});
  const std::vector<RdmaNic*> hosts = topo.AllHosts();
  const int n = static_cast<int>(hosts.size());
  int completed = 0;
  for (RdmaNic* nic : hosts) nic->SetRetainCompletedRecords(false);
  net.AddCompletionHandler([&completed](const FlowRecord&) { ++completed; });
  std::vector<FlowSpec> specs(static_cast<size_t>(flows));
  auto run_phase = [&](int first_id) {
    const Time t0 = net.eq().Now();
    for (int j = 0; j < flows; ++j) {
      FlowSpec& f = specs[static_cast<size_t>(j)];
      f.flow_id = first_id + j;
      f.src_host = hosts[static_cast<size_t>(j % n)]->id();
      f.dst_host = hosts[static_cast<size_t>((j % n + n / 2) % n)]->id();
      f.size_bytes = kMtu;
      f.start_time = t0 + j * Microseconds(1);
      f.mode = TransportMode::kRdmaDcqcn;
      net.StartFlow(f);
    }
    completed = 0;
    while (completed < flows) net.RunFor(Microseconds(10));
  };
  run_phase(0);
  for (const FlowSpec& f : specs) net.ReleaseFlow(f);
  net.RunFor(Microseconds(10));  // drain the deferred releases
  const int64_t before = AllocatedBytes();
  run_phase(flows);
  return AllocatedBytes() - before;
}

// A started-and-completed short flow costs the same bytes on the paper's
// 20-host Clos and on a 512-host one: per-flow state is O(flow), with no
// per-NIC table sized by the network-wide flow id.
TEST(EventCoreAlloc, ShortFlowCostIsIndependentOfHostCount) {
  constexpr int kFlows = 512;
  const int64_t small = ShortFlowPhaseBytes(2, 2, 5, kFlows);
  const int64_t large = ShortFlowPhaseBytes(8, 4, 16, kFlows);
  EXPECT_EQ(small, large) << "bytes per flow: " << small / kFlows << " on 20 "
                          << "hosts, " << large / kFlows << " on 512 hosts";
  EXPECT_GT(small, 0);  // the flows' own state is still counted
}

}  // namespace
}  // namespace dcqcn
