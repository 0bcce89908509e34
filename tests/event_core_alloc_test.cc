// Allocation-counting hook for the allocation-free event core (PR 4
// acceptance criterion): after warm-up, the schedule→fire path, the pooled
// packet rings, a whole steady-state incast simulation, and the hybrid
// gate's max-min allocator must perform ZERO heap allocations. The hook replaces global operator new/delete in
// this test binary with counting wrappers; the tests snapshot the counter
// around a measured phase and assert it never moved. Everything under test
// is deterministic (seeded), so these are exact assertions, not thresholds.
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

void* CountedAlloc(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

int64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
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

}  // namespace
}  // namespace dcqcn
