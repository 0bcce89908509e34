// Property test for the hierarchical timer wheel (sim/timer_wheel.h),
// exercised both directly — a harness that replicates EventQueue's
// advance-and-pop loop against a sorted-vector reference model — and through
// EventQueue with delays spanning every wheel level plus the heap overflow
// band. Reuses the harness style of event_queue_property_test: random
// schedule/cancel/reschedule/advance interleavings over 10 seeds; any
// divergence in fire order or liveness is a determinism bug. Directed cases
// pin the shapes random churn rarely builds: dense same-tick bursts, a
// cascade landing on an occupied L0 bucket, cancels inside the ready chain,
// the level and horizon edges, schedules behind a peeked cursor, bounded
// peeks and runs that keep the cursor behind the clock, and
// canonical-key ties. Dense-tick cases put thousands of entries in one tick
// out of order, so its L0 chain must be sorted when the cursor adopts it —
// directly, after L1/L2 cascades, and with cancels inside the dirty chain —
// and pin the wheel's ordering-work counters exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "sim/event_queue.h"
#include "sim/timer_wheel.h"

namespace dcqcn {
namespace {

constexpr int64_t kBuckets = TimerWheel::kBucketsPerLevel;
constexpr int kTickBits = TimerWheel::kTickBits;
constexpr int kSlotBits = TimerWheel::kSlotBits;

constexpr Time TickStart(int64_t tick) { return tick << kTickBits; }

// Reference model shared by every test: append-only vector of scheduled
// events, popped by linear scan for the smallest live (time, key, seq).
struct RefEvent {
  Time at = 0;
  uint64_t key = 0;
  uint64_t seq = 0;
  bool live = false;
};

class ReferenceModel {
 public:
  void Schedule(Time at, uint64_t seq, uint64_t key = 0) {
    events_.push_back(RefEvent{at, key, seq, true});
  }

  bool Cancel(uint64_t seq) {
    for (RefEvent& e : events_) {
      if (e.seq != seq) continue;
      const bool was_live = e.live;
      e.live = false;
      return was_live;
    }
    return false;
  }

  // The earliest live (at, key, seq), or nullptr when drained.
  const RefEvent* Earliest() const {
    const RefEvent* best = nullptr;
    for (const RefEvent& e : events_) {
      if (!e.live) continue;
      if (best == nullptr || e.at < best->at ||
          (e.at == best->at &&
           (e.key < best->key || (e.key == best->key && e.seq < best->seq)))) {
        best = &e;
      }
    }
    return best;
  }

  // Pops the earliest live (at, key, seq), or nullptr when drained.
  const RefEvent* PopNext() {
    RefEvent* best = const_cast<RefEvent*>(Earliest());
    if (best != nullptr) best->live = false;
    return best;
  }

  size_t LiveCount() const {
    size_t n = 0;
    for (const RefEvent& e : events_) n += e.live ? 1 : 0;
    return n;
  }

 private:
  std::vector<RefEvent> events_;
};

// Test harness owning a bare TimerWheel the way EventQueue does: a slot table
// mapping wheel slots to armed sequence numbers (so a stale handle's cancel
// is refused), plus the advance-while-ready-is-empty loop from
// EventQueue::PrepareTop — here wheel-only, so there is no heap to merge.
class WheelHarness {
 public:
  explicit WheelHarness(uint32_t slots = 512) {
    wheel_.EnsureSlots(slots);
    armed_.assign(slots, 0);
    for (uint32_t s = slots; s-- > 0;) free_.push_back(s);
  }

  bool HasFreeSlot() const { return !free_.empty(); }
  size_t Live() const { return live_; }
  TimerWheel& wheel() { return wheel_; }

  // Returns the armed sequence number (the test's handle).
  uint64_t Schedule(Time at, uint64_t key = 0) {
    EXPECT_TRUE(wheel_.Accepts(at));
    const uint32_t slot = free_.back();
    free_.pop_back();
    const uint64_t seq = next_seq_++;
    armed_[slot] = seq;
    slot_of_[seq] = slot;
    wheel_.Insert(slot, at, key, seq);
    ++live_;
    return seq;
  }

  bool Cancel(uint64_t seq) {
    auto it = slot_of_.find(seq);
    if (it == slot_of_.end()) return false;
    const uint32_t slot = it->second;
    if (armed_[slot] != seq) return false;
    wheel_.OnCancel(slot);
    Release(slot);
    return true;
  }

  // Advances the wheel until an entry is ready, without popping it, exactly
  // like EventQueue::PrepareTop (so the cursor moves as it does under
  // EventQueue::NextEventTime). Returns false when the wheel is empty.
  bool Peek(Time* at) {
    while (wheel_.ReadyEmpty()) {
      if (wheel_.size() == 0) return false;
      wheel_.NextChainedStart();
      wheel_.DrainOneStep();
    }
    *at = wheel_.ReadyFront().at;
    return true;
  }

  // Pops the earliest entry. Returns false when the wheel is empty.
  bool PopNext(Time* at, uint64_t* seq) {
    if (!Peek(at)) return false;
    const TimerWheel::Entry e = wheel_.PopReady();
    EXPECT_EQ(armed_[e.slot], e.seq) << "wheel popped a dead entry";
    *at = e.at;
    *seq = e.seq;
    Release(e.slot);
    return true;
  }

 private:
  void Release(uint32_t slot) {
    armed_[slot] = 0;
    free_.push_back(slot);
    --live_;
  }

  TimerWheel wheel_;
  std::vector<uint64_t> armed_;  // slot -> armed seq (0 = free)
  std::vector<uint32_t> free_;
  std::unordered_map<uint64_t, uint32_t> slot_of_;
  uint64_t next_seq_ = 1;
  size_t live_ = 0;
};

// Pops up to `n` entries from both sides, checking each against the model;
// returns the time of the last pop (or `now` when nothing popped).
Time PopAndCompare(WheelHarness& harness, ReferenceModel& ref, int64_t n,
                   Time now) {
  for (int64_t i = 0; i < n; ++i) {
    Time at = 0;
    uint64_t seq = 0;
    const bool popped = harness.PopNext(&at, &seq);
    const RefEvent* e = ref.PopNext();
    EXPECT_EQ(popped, e != nullptr);
    if (!popped || e == nullptr) break;
    EXPECT_EQ(at, e->at);
    EXPECT_EQ(seq, e->seq);
    EXPECT_GE(at, now);
    now = at;
  }
  EXPECT_EQ(harness.Live(), ref.LiveCount());
  return now;
}

void DrainAndCompare(WheelHarness& harness, ReferenceModel& ref) {
  PopAndCompare(harness, ref, int64_t{1} << 40, 0);
  EXPECT_EQ(harness.Live(), 0u);
  EXPECT_EQ(harness.wheel().size(), 0u);
}

// Picosecond spans of each level and the horizon relative to a cursor at 0.
constexpr Time kL0Span = TickStart(kBuckets);
constexpr Time kL1Span = kL0Span << kSlotBits;
constexpr Time kHorizon = TickStart((kBuckets + 1) << (2 * kSlotBits));

// Random delay spanning the wheel's bands: ready (<= 1 tick), L0 (~2 us),
// L1 (~1 ms), L2 (~550 ms) — clamped into the horizon via Accepts.
Time RandomWheelDelay(Rng& rng, const TimerWheel& wheel, Time now) {
  const int band = static_cast<int>(rng.UniformInt(0, 3));
  Time delay = 0;
  switch (band) {
    case 0: delay = rng.UniformInt(0, TickStart(1) - 1); break;    // ready/L0 edge
    case 1: delay = rng.UniformInt(0, 2 * kL0Span - 1); break;     // L0/L1
    case 2: delay = rng.UniformInt(0, 2 * kL1Span - 1); break;     // L1/L2
    default: delay = rng.UniformInt(0, kHorizon - 1); break;       // deep L2
  }
  Time at = now + delay;
  while (!wheel.Accepts(at)) at = now + (at - now) / 2;
  return at;
}

// Random schedule/cancel/reschedule/advance churn against the model. With
// `bursts_and_keys`, schedules also come as dense bursts into one tick (the
// cursor's own or one just ahead) with out-of-order sub-tick times and small
// canonical keys, so same-(time) ties resolve by key.
void RunWheelChurn(uint64_t seed, bool bursts_and_keys) {
  WheelHarness harness;
  ReferenceModel ref;
  Rng rng(seed);

  Time now = 0;
  std::vector<uint64_t> handles;  // every handle ever handles
  auto schedule = [&](Time at) {
    const uint64_t key =
        bursts_and_keys ? static_cast<uint64_t>(rng.UniformInt(0, 2)) : 0;
    const uint64_t seq = harness.Schedule(at, key);
    ref.Schedule(at, seq, key);
    handles.push_back(seq);
  };

  const int kOps = 3000;
  for (int op = 0; op < kOps; ++op) {
    const int64_t roll = rng.UniformInt(0, 99);
    if (bursts_and_keys && roll < 10) {
      // Dense burst: up to 24 events in one tick, times in random order,
      // some repeated exactly.
      const int64_t tick = (now >> kTickBits) + rng.UniformInt(0, 2);
      const int64_t count = rng.UniformInt(2, 24);
      for (int64_t i = 0; i < count && harness.HasFreeSlot(); ++i) {
        const Time at = std::max(
            now, TickStart(tick) + rng.UniformInt(0, 3) * 1000 +
                     rng.UniformInt(0, 2));
        schedule(at);
      }
    } else if (roll < 55 && harness.HasFreeSlot()) {
      schedule(RandomWheelDelay(rng, harness.wheel(), now));
    } else if (roll < 70 && !handles.empty()) {
      // Cancel a random handle — possibly live, fired, or re-cancelled.
      const auto i = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(handles.size()) - 1));
      EXPECT_EQ(harness.Cancel(handles[i]), ref.Cancel(handles[i]));
    } else if (roll < 80 && !handles.empty() && harness.HasFreeSlot()) {
      // Reschedule: cancel + schedule anew (the NIC timer re-arm idiom).
      const auto i = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(handles.size()) - 1));
      EXPECT_EQ(harness.Cancel(handles[i]), ref.Cancel(handles[i]));
      schedule(RandomWheelDelay(rng, harness.wheel(), now));
    } else {
      // Advance: pop a burst, checking (time, seq) against the model.
      now = PopAndCompare(harness, ref, rng.UniformInt(1, 6), now);
    }
    ASSERT_EQ(harness.Live(), ref.LiveCount());
  }

  // Drain everything that's left, still in exact (time, key, seq) order.
  DrainAndCompare(harness, ref);
}

TEST(TimerWheelProperty, RandomChurnMatchesReferenceModel) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunWheelChurn(seed, /*bursts_and_keys=*/false);
  }
}

TEST(TimerWheelProperty, BurstyKeyedChurnMatchesReferenceModel) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunWheelChurn(seed, /*bursts_and_keys=*/true);
  }
}

// Dense same-tick bursts with out-of-order times: into an L0 bucket ahead of
// the cursor (ordered insert into a chained bucket), then into the cursor's
// own tick once it is the ready chain (ordered insert into ready, including
// times behind entries already there), at the first and last L0 buckets.
TEST(TimerWheelProperty, DenseSameTickBurstsFireInOrder) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    WheelHarness harness;
    ReferenceModel ref;
    Rng rng(seed);
    Time now = 0;
    for (int round = 0; round < 8; ++round) {
      const int64_t cur = now >> kTickBits;
      const int64_t tick = round % 2 == 0 ? cur + 1 : cur + kBuckets - 1;
      for (int i = 0; i < 64; ++i) {
        const Time at = TickStart(tick) + rng.UniformInt(0, 6);
        ref.Schedule(at, harness.Schedule(at));
      }
      // First pop turns the bucket into the ready chain; then burst into it
      // at times among and after what is already there.
      now = PopAndCompare(harness, ref, 1, now);
      for (int i = 0; i < 64; ++i) {
        const Time at = now + rng.UniformInt(0, 8);
        ref.Schedule(at, harness.Schedule(at));
      }
      now = PopAndCompare(harness, ref, 127, now);
      ASSERT_EQ(harness.Live(), 0u);
    }
    DrainAndCompare(harness, ref);
  }
}

// The coarser-first tie: an L1 bucket and an occupied L0 bucket start at the
// same tick. The cascade must move the cursor onto that tick, adopt the L0
// chain as the ready chain, and merge the cascaded entries into it in
// (time, key, seq) order.
TEST(TimerWheelProperty, L1CascadeOntoOccupiedL0BucketMerges) {
  WheelHarness harness;
  ReferenceModel ref;
  auto schedule = [&](Time at, uint64_t key) {
    const uint64_t seq = harness.Schedule(at, key);
    ref.Schedule(at, seq, key);
    return seq;
  };
  const int64_t s = kBuckets;  // L1 bucket 1's first tick
  // Cursor at tick 0: tick s is delta == kBuckets, the first L1 delta.
  schedule(TickStart(s) + 100, 1);
  schedule(TickStart(s) + 3000, 0);
  schedule(TickStart(s + 7) + 5, 0);
  schedule(TickStart(s) + 100, 0);
  // Move the cursor to tick 5; tick s is now an L0 delta.
  schedule(TickStart(5), 0);
  PopAndCompare(harness, ref, 1, 0);
  ASSERT_EQ(harness.wheel().cur_tick(), 5);
  schedule(TickStart(s) + 50, 0);
  schedule(TickStart(s) + 100, 0);  // same (time, key) as above: seq decides
  schedule(TickStart(s) + 100, 2);
  schedule(TickStart(s) + 4000, 1);
  schedule(TickStart(s) + 4000, 0);
  DrainAndCompare(harness, ref);
}

// The same tie one level up: an L2 bucket, an L1 bucket (the wrap-around
// one, filed at super-tick delta == kBuckets) and an L0 bucket all start on
// one tick. Also cancels inside the merged ready chain.
TEST(TimerWheelProperty, L2CascadeOntoOccupiedL1AndL0BucketsMerges) {
  WheelHarness harness;
  ReferenceModel ref;
  auto schedule = [&](Time at, uint64_t key) {
    const uint64_t seq = harness.Schedule(at, key);
    ref.Schedule(at, seq, key);
    return seq;
  };
  const int64_t l2_span = int64_t{1} << (2 * kSlotBits);  // ticks per L2 bucket
  const Time s = TickStart(2 * l2_span);                   // L2 bucket 2
  // Cursor at tick 0: these are L2 entries of bucket 2.
  schedule(s + 700, 0);
  schedule(s + TickStart(kBuckets) + 1, 0);
  const uint64_t a3 = schedule(s + 20, 0);
  // Cursor into L2 bucket 1, so s lies exactly kBuckets super-ticks ahead.
  schedule(TickStart(l2_span + 3), 0);
  Time now = PopAndCompare(harness, ref, 1, 0);
  ASSERT_EQ(harness.wheel().cur_tick(), l2_span + 3);
  const uint64_t b1 = schedule(s + 300, 0);
  schedule(s + TickStart(3), 0);
  schedule(s + 20, 1);
  // Cursor to two ticks before s, so s is an L0 delta.
  schedule(s - TickStart(2), 0);
  now = PopAndCompare(harness, ref, 1, now);
  ASSERT_EQ(harness.wheel().cur_tick(), 2 * l2_span - 2);
  schedule(s + 500, 0);
  schedule(s + 20, 0);  // ties a3 on (time, key): a3's lower seq fires first
  schedule(s + TickStart(1), 0);
  // First pop performs the three-way cascade.
  now = PopAndCompare(harness, ref, 1, now);
  ASSERT_EQ(harness.wheel().cur_tick(), 2 * l2_span);
  EXPECT_EQ(harness.Cancel(b1), ref.Cancel(b1));  // inside the ready chain
  EXPECT_EQ(harness.Cancel(a3), ref.Cancel(a3));  // already fired: refused
  DrainAndCompare(harness, ref);
}

// Cancels of ready entries unlink in place: head, middle, tail, entries
// inserted behind the cursor, and finally the whole chain, after which the
// wheel must advance to the next bucket.
TEST(TimerWheelProperty, CancelsInsideTheReadyChain) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    WheelHarness harness;
    ReferenceModel ref;
    Rng rng(seed);
    std::vector<uint64_t> ready;
    for (int i = 0; i < 12; ++i) {
      const Time at = TickStart(3) + rng.UniformInt(0, 4095);
      const uint64_t seq = harness.Schedule(at);
      ref.Schedule(at, seq);
      ready.push_back(seq);
    }
    const uint64_t later = harness.Schedule(TickStart(9));
    ref.Schedule(TickStart(9), later);
    Time now = PopAndCompare(harness, ref, 1, 0);  // tick 3 is now ready
    for (int i = 0; i < 6; ++i) {
      const Time at = now + rng.UniformInt(0, 100);
      const uint64_t seq = harness.Schedule(at);
      ref.Schedule(at, seq);
      ready.push_back(seq);
    }
    // Cancel a random half (fired ones are refused on both sides).
    for (int i = 0; i < 9; ++i) {
      const auto k = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(ready.size()) - 1));
      EXPECT_EQ(harness.Cancel(ready[k]), ref.Cancel(ready[k]));
    }
    now = PopAndCompare(harness, ref, 2, now);
    // Cancel everything left in the ready chain.
    for (uint64_t seq : ready) EXPECT_EQ(harness.Cancel(seq), ref.Cancel(seq));
    ASSERT_EQ(harness.Live(), 1u);
    Time at = 0;
    uint64_t seq = 0;
    ASSERT_TRUE(harness.PopNext(&at, &seq));
    EXPECT_EQ(seq, later);
    ASSERT_EQ(ref.PopNext()->seq, later);
    DrainAndCompare(harness, ref);
  }
}

// Level edges relative to a non-zero cursor: delta = kBuckets - 1 is the
// last L0 bucket, delta = kBuckets the first L1 delta (L0 would alias the
// ready bucket), with sub-tick times straddling each tick boundary. A
// cursor that advanced without a pop refuses ticks behind it.
TEST(TimerWheelProperty, LevelEdgesAroundTheCursor) {
  WheelHarness harness;
  ReferenceModel ref;
  auto schedule = [&](Time at) { ref.Schedule(at, harness.Schedule(at)); };
  schedule(TickStart(777) + 9);
  const Time now = PopAndCompare(harness, ref, 1, 0);
  // Peek steps the cursor onto tick 900 without popping; the window now
  // starts at that tick.
  schedule(TickStart(900) + 1);
  Time front = 0;
  ASSERT_TRUE(harness.Peek(&front));
  const int64_t cur = harness.wheel().cur_tick();
  ASSERT_EQ(cur, 900);
  EXPECT_FALSE(harness.wheel().Accepts(now));
  EXPECT_FALSE(harness.wheel().Accepts(TickStart(cur) - 1));
  EXPECT_TRUE(harness.wheel().Accepts(TickStart(cur)));
  schedule(TickStart(cur));  // delta 0: straight into the ready chain
  for (int64_t delta : {kBuckets, kBuckets - 1, kBuckets + 1, int64_t{1},
                        kBuckets * kBuckets, kBuckets * kBuckets - 1}) {
    schedule(TickStart(cur + delta));
    schedule(TickStart(cur + delta) - 1);
    schedule(TickStart(cur + delta + 1) - 1);
  }
  DrainAndCompare(harness, ref);
}

// A NextEventTime() peek moves the wheel cursor onto the next event's
// bucket without firing it; events then scheduled between the clock and
// that bucket are refused by the wheel, wait in the heap, and must still
// fire in (time, seq) order with the ready chain and what follows.
TEST(TimerWheelProperty, SchedulesBehindAPeekedCursorMergeThroughTheHeap) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EventQueue eq;
    ReferenceModel ref;
    Rng rng(seed);
    std::vector<uint64_t> fired;
    uint64_t next = 1;
    auto schedule = [&](Time at) {
      const uint64_t id = next++;
      eq.ScheduleAt(at, [&fired, id] { fired.push_back(id); });
      ref.Schedule(at, id);
    };
    std::vector<uint64_t> expected;
    for (int round = 0; round < 20; ++round) {
      const Time ahead = eq.Now() + Microseconds(rng.UniformInt(1, 40));
      schedule(ahead);
      schedule(ahead + rng.UniformInt(0, 3));
      ASSERT_LE(eq.NextEventTime(), ahead);  // earlier rounds may remain
      for (int i = 0; i < 40; ++i) {
        schedule(eq.Now() + rng.UniformInt(0, ahead - eq.Now() + 5000));
      }
      for (int64_t i = rng.UniformInt(1, 60); i > 0; --i) {
        const RefEvent* e = ref.PopNext();
        ASSERT_EQ(eq.RunOne(), e != nullptr);
        if (e == nullptr) break;
        expected.push_back(e->seq);
        ASSERT_EQ(eq.Now(), e->at);
      }
    }
    while (const RefEvent* e = ref.PopNext()) expected.push_back(e->seq);
    eq.RunAll();
    EXPECT_EQ(fired, expected);
  }
}

// The hybrid controller's pattern: peek with NextEventTime(limit), run to
// min(limit, peek), then schedule in [now, limit]; plain RunUntil(deadline)
// steps in between. A bounded peek is exact up to its limit and otherwise
// answers a lower bound past it; neither call advances the wheel onto a
// bucket that starts after its bound, so the cursor never passes the clock
// the caller runs to and no event is filed in the heap behind it. Delays
// reach every wheel level, and a few land beyond the horizon to keep the
// heap merge in play.
TEST(TimerWheelProperty, BoundedPeeksAndRunsKeepTheCursorBehindTheClock) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EventQueue eq;
    ReferenceModel ref;
    Rng rng(seed);
    std::vector<uint64_t> fired;
    std::vector<EventHandle> handles;  // index = ref seq - 1
    auto schedule = [&](Time at) {
      const uint64_t id = handles.size() + 1;
      handles.push_back(
          eq.ScheduleAt(at, [&fired, id] { fired.push_back(id); }));
      ref.Schedule(at, id);
    };
    auto delay_upto = [&rng](Time span) -> Time {
      switch (static_cast<int>(rng.UniformInt(0, 9))) {
        case 0: return 0;
        case 1: return rng.UniformInt(0, TickStart(1) - 1);
        case 2: return rng.UniformInt(0, 2 * kL1Span - 1);
        case 3: return rng.Chance(0.1) ? kHorizon + rng.UniformInt(0, kL1Span)
                                       : rng.UniformInt(0, kHorizon - 1);
        default: return rng.UniformInt(0, span);
      }
    };
    // Runs to `t`, checking every fire against the model.
    auto run_until = [&](Time t) {
      const size_t before = fired.size();
      std::vector<uint64_t> want;
      while (const RefEvent* e = ref.Earliest()) {
        if (e->at > t) break;
        want.push_back(ref.PopNext()->seq);
      }
      ASSERT_EQ(eq.RunUntil(t), want.size());
      ASSERT_EQ(std::vector<uint64_t>(fired.begin() +
                                          static_cast<ptrdiff_t>(before),
                                      fired.end()),
                want);
      ASSERT_EQ(eq.Now(), t);
    };
    for (int i = 0; i < 40; ++i) schedule(delay_upto(Microseconds(20)));
    for (int round = 0; round < 400; ++round) {
      const Time span = rng.Chance(0.2) ? TickStart(rng.UniformInt(0, 3))
                                        : Microseconds(rng.UniformInt(1, 30));
      const Time limit = eq.Now() + rng.UniformInt(0, span);
      if (rng.Chance(0.7)) {
        const Time ev = eq.NextEventTime(limit);
        const RefEvent* e = ref.Earliest();
        if (e != nullptr && e->at <= limit) {
          ASSERT_EQ(ev, e->at);
        } else {
          ASSERT_GT(ev, limit);
          if (e != nullptr) {
            ASSERT_LE(ev, e->at);  // a lower bound
          }
        }
        run_until(std::min(limit, ev));
      } else {
        run_until(limit);
      }
      if (HasFatalFailure()) return;
      for (int64_t k = rng.UniformInt(0, 6); k > 0; --k) {
        schedule(eq.Now() + rng.UniformInt(0, limit - eq.Now()));
      }
      for (int64_t k = rng.UniformInt(0, 4); k > 0; --k) {
        schedule(eq.Now() + delay_upto(span));
      }
      if (rng.Chance(0.3)) {
        const auto i = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(handles.size()) - 1));
        ASSERT_EQ(eq.Cancel(handles[i]), ref.Cancel(i + 1));
      }
    }
    std::vector<uint64_t> expected = fired;
    while (const RefEvent* e = ref.PopNext()) expected.push_back(e->seq);
    eq.RunAll();
    EXPECT_EQ(fired, expected);
    EXPECT_EQ(eq.heap_counters().behind_cursor, 0u);
    EXPECT_GT(eq.heap_counters().beyond_horizon, 0u);
  }
}

// The horizon: the last accepted tick is the end of the L2 bucket kBuckets
// super-super-ticks ahead; one tick later is refused. Through EventQueue,
// refused events wait in the heap and still merge with wheel entries in
// (time, key, seq) order — including a heap and a wheel entry at the very
// same picosecond once the cursor has moved so the wheel accepts it.
TEST(TimerWheelProperty, HorizonEdgeAndHeapFallbackMerge) {
  const int64_t l2_shift = 2 * kSlotBits;
  {
    TimerWheel wheel;
    const int64_t last = ((int64_t{kBuckets} + 1) << l2_shift) - 1;
    EXPECT_TRUE(wheel.Accepts(TickStart(last + 1) - 1));
    EXPECT_FALSE(wheel.Accepts(TickStart(last + 1)));
  }
  EventQueue eq;
  ReferenceModel ref;
  std::vector<uint64_t> fired;
  uint64_t next = 1;
  auto schedule = [&](Time at) {
    const uint64_t id = next++;
    eq.ScheduleAt(at, [&fired, id] { fired.push_back(id); });
    ref.Schedule(at, id);
  };
  const Time horizon = kHorizon;
  schedule(horizon - 1);  // last wheel picosecond
  schedule(horizon);      // heap
  schedule(horizon + 5);  // heap
  schedule(horizon - TickStart(1));
  // Move the cursor one L2 bucket on; the heap entries stay in the heap
  // while new events at the same instants now go to the wheel.
  schedule(TickStart(int64_t{1} << l2_shift) + 3);
  ASSERT_TRUE(eq.RunOne());
  schedule(horizon);
  schedule(horizon + 5);
  schedule(horizon + TickStart(1));
  std::vector<uint64_t> expected;
  while (const RefEvent* e = ref.PopNext()) expected.push_back(e->seq);
  eq.RunAll();
  EXPECT_EQ(fired, expected);
}

// Canonical-key ties through EventQueue: same picosecond, keys scheduled out
// of order, split across the ready chain, an L0 bucket, and the heap.
TEST(TimerWheelProperty, CanonicalKeyTiesResolveByKeyThenSequence) {
  EventQueue eq;
  ReferenceModel ref;
  std::vector<uint64_t> fired;
  uint64_t next = 1;
  auto schedule = [&](Time at, uint64_t key) {
    const uint64_t id = next++;
    eq.ScheduleAtWithKey(at, key, [&fired, id] { fired.push_back(id); });
    ref.Schedule(at, id, key);
  };
  const Time far = kHorizon;
  for (uint64_t key : {5u, 1u, 3u, 1u, 0u}) {
    schedule(Nanoseconds(10), key);  // L0 bucket
    schedule(far, key);              // heap
  }
  schedule(Nanoseconds(1), 0);
  ASSERT_TRUE(eq.RunOne());
  ASSERT_EQ(fired.size(), 1u);
  // The cursor now sits on tick 0; these join the ready chain.
  for (uint64_t key : {4u, 2u, 2u, 0u}) schedule(Nanoseconds(2), key);
  std::vector<uint64_t> expected;
  while (const RefEvent* e = ref.PopNext()) expected.push_back(e->seq);
  eq.RunAll();
  EXPECT_EQ(fired, expected);
}

// The same churn through EventQueue, now including delays beyond the wheel
// horizon (heap overflow band) — the heap/wheel merge must preserve global
// (time, seq) FIFO order across the routing boundary.
TEST(TimerWheelProperty, EventQueueChurnAcrossAllBandsMatchesReference) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EventQueue eq;
    ReferenceModel ref;
    Rng rng(seed);

    struct Issued {
      EventHandle handle;
      uint64_t ref_seq;
    };
    std::vector<Issued> issued;
    std::vector<uint64_t> fired;     // ref seqs in actual fire order
    std::vector<uint64_t> expected;  // ref seqs in reference fire order
    uint64_t next_ref_seq = 1;

    auto random_delay = [&rng]() -> Time {
      switch (static_cast<int>(rng.UniformInt(0, 4))) {
        case 0: return rng.UniformInt(0, TickStart(1) - 1);  // sub-tick
        case 1: return rng.UniformInt(0, 2 * kL0Span - 1);   // L0/L1
        case 2: return rng.UniformInt(0, 2 * kL1Span - 1);   // L1/L2
        case 3: return rng.UniformInt(0, kHorizon - 1);      // deep L2
        default:
          // Beyond the ~550 ms horizon: stays in the heap forever.
          return kHorizon + rng.UniformInt(0, kHorizon);
      }
    };

    const int kOps = 2500;
    for (int op = 0; op < kOps; ++op) {
      const int64_t roll = rng.UniformInt(0, 99);
      if (roll < 55) {
        const Time at = eq.Now() + random_delay();
        const uint64_t ref_seq = next_ref_seq++;
        Issued s;
        s.handle = eq.ScheduleAt(at, [&fired, ref_seq] {
          fired.push_back(ref_seq);
        });
        s.ref_seq = ref_seq;
        ref.Schedule(at, ref_seq);
        issued.push_back(s);
      } else if (roll < 75 && !issued.empty()) {
        const auto i = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(issued.size()) - 1));
        EXPECT_EQ(eq.Cancel(issued[i].handle), ref.Cancel(issued[i].ref_seq));
      } else {
        const int64_t burst = rng.UniformInt(1, 5);
        for (int64_t b = 0; b < burst; ++b) {
          const RefEvent* e = ref.PopNext();
          const bool ran = eq.RunOne();
          ASSERT_EQ(ran, e != nullptr);
          if (e == nullptr) break;
          expected.push_back(e->seq);
          EXPECT_EQ(eq.Now(), e->at);
        }
      }
      ASSERT_EQ(eq.PendingEvents(), ref.LiveCount());
    }

    while (const RefEvent* e = ref.PopNext()) expected.push_back(e->seq);
    eq.RunAll();
    EXPECT_TRUE(eq.Empty());
    EXPECT_EQ(fired, expected);
  }
}


// --- dense ticks: order-on-promote ---

// The (time, key) pair of the i-th of `n` entries packed into `tick`, in
// ascending order: pairs of entries share a picosecond and split on key.
Time DenseAt(int64_t tick, int i) { return TickStart(tick) + i / 2; }
uint64_t DenseKey(int i) { return static_cast<uint64_t>(i % 2); }

// Insertion orders for a dense tick: descending (every insert lands behind
// the tail) and a random shuffle.
std::vector<int> DenseOrder(int n, bool descending, Rng& rng) {
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = n - 1 - i;
  if (!descending) {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<size_t>(rng.UniformInt(
                                  0, static_cast<int64_t>(i) - 1))]);
    }
  }
  return order;
}

// 2,048 entries in one future L0 tick, inserted in descending and in random
// (time, key) order, with neighbours in the ticks around it; the chain is
// sorted once, when the cursor adopts it.
TEST(TimerWheelDense, FutureL0TickInDescendingAndRandomOrder) {
  constexpr int kDense = 2048;
  for (bool descending : {true, false}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(std::string(descending ? "descending" : "random") +
                   " seed " + std::to_string(seed));
      WheelHarness harness(kDense + 64);
      ReferenceModel ref;
      Rng rng(seed);
      auto schedule = [&](Time at, uint64_t key) {
        ref.Schedule(at, harness.Schedule(at, key), key);
      };
      const int64_t tick = 7;
      schedule(TickStart(tick - 1) + 5, 0);
      for (int i : DenseOrder(kDense, descending, rng)) {
        schedule(DenseAt(tick, i), DenseKey(i));
      }
      schedule(TickStart(tick + 1), 0);
      schedule(TickStart(tick), 1);  // ties the first dense entry's time
      DrainAndCompare(harness, ref);
      const TimerWheel::Counters& c = harness.wheel().counters();
      EXPECT_EQ(c.dirty_sorts, 1u);
      EXPECT_EQ(c.sorted_entries, static_cast<uint64_t>(kDense) + 1);
      EXPECT_EQ(c.ready_walk_steps, 0u);
    }
  }
}

// Cascades onto a dirty L0 bucket. L1: entries for tick s = kBuckets were
// filed in L1 bucket 1 while s lay beyond L0's window; once the cursor
// moves, a dense descending run into s's own L0 bucket marks it dirty, and
// the cascade appends the L1 entries to it as the new ready chain. L2: the
// same with an L2 bucket, an L1 bucket and an L0 bucket all starting on s.
TEST(TimerWheelDense, L1CascadeOntoDirtyL0Bucket) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    WheelHarness harness(2048);
    ReferenceModel ref;
    Rng rng(seed);
    auto schedule = [&](Time at, uint64_t key) {
      ref.Schedule(at, harness.Schedule(at, key), key);
    };
    const int64_t s = kBuckets;
    for (int i : DenseOrder(600, /*descending=*/false, rng)) {
      schedule(DenseAt(s, i), DenseKey(i));  // L1 bucket 1, unordered
    }
    schedule(TickStart(s + 9) + 1, 0);
    schedule(TickStart(5), 0);
    PopAndCompare(harness, ref, 1, 0);
    ASSERT_EQ(harness.wheel().cur_tick(), 5);
    for (int i : DenseOrder(600, /*descending=*/true, rng)) {
      schedule(DenseAt(s, i) + 1, DenseKey(i));  // L0 bucket s, dirty
    }
    DrainAndCompare(harness, ref);
    EXPECT_GE(harness.wheel().counters().dirty_sorts, 1u);
  }
}

TEST(TimerWheelDense, L2CascadeOntoDirtyL1AndL0Buckets) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    WheelHarness harness(2048);
    ReferenceModel ref;
    Rng rng(seed);
    auto schedule = [&](Time at, uint64_t key) {
      ref.Schedule(at, harness.Schedule(at, key), key);
    };
    const int64_t l2_span = int64_t{1} << (2 * kSlotBits);
    const int64_t s = 2 * l2_span;  // L2 bucket 2's first tick
    for (int i : DenseOrder(400, /*descending=*/false, rng)) {
      schedule(DenseAt(s, i), DenseKey(i));  // L2 bucket 2
    }
    schedule(TickStart(s + kBuckets + 3), 0);  // re-filed into L1
    // Cursor into L2 bucket 1: tick s is now exactly kBuckets L1 buckets on.
    schedule(TickStart(l2_span + 3), 0);
    Time now = PopAndCompare(harness, ref, 1, 0);
    ASSERT_EQ(harness.wheel().cur_tick(), l2_span + 3);
    for (int i : DenseOrder(400, /*descending=*/true, rng)) {
      schedule(DenseAt(s, i) + 1, DenseKey(i));  // L1 bucket of s
    }
    // Cursor to two ticks before s: tick s is an L0 delta.
    schedule(TickStart(s - 2), 0);
    now = PopAndCompare(harness, ref, 1, now);
    ASSERT_EQ(harness.wheel().cur_tick(), s - 2);
    for (int i : DenseOrder(400, /*descending=*/true, rng)) {
      schedule(DenseAt(s, i) + 2, DenseKey(i));  // L0 bucket s, dirty
    }
    DrainAndCompare(harness, ref);
    EXPECT_GE(harness.wheel().counters().dirty_sorts, 1u);
  }
}

// Cancels inside dirty chains: the head, the tail and a random middle
// share; a dirty bucket cancelled down to empty loses its dirty bit, so
// refilling it in order sorts nothing.
TEST(TimerWheelDense, CancelsInsideADirtyBucket) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    WheelHarness harness(1024);
    ReferenceModel ref;
    Rng rng(seed);
    auto schedule = [&](Time at, uint64_t key) {
      const uint64_t seq = harness.Schedule(at, key);
      ref.Schedule(at, seq, key);
      return seq;
    };
    auto cancel = [&](uint64_t seq) {
      EXPECT_EQ(harness.Cancel(seq), ref.Cancel(seq));
    };
    // Bucket 9: dirty, then lose its chain head, tail and ~a third.
    std::vector<uint64_t> dirty;
    for (int i : DenseOrder(300, /*descending=*/false, rng)) {
      dirty.push_back(schedule(DenseAt(9, i), DenseKey(i)));
    }
    cancel(dirty.front());  // chain head
    cancel(dirty.back());   // chain tail
    for (int i = 0; i < 100; ++i) {
      cancel(dirty[static_cast<size_t>(rng.UniformInt(1, 298))]);
    }
    schedule(DenseAt(9, 5) + 1, 0);  // append after the cancels
    // Bucket 12: dirty, then emptied, then refilled in order.
    std::vector<uint64_t> emptied;
    for (int i : DenseOrder(50, /*descending=*/true, rng)) {
      emptied.push_back(schedule(DenseAt(12, i), DenseKey(i)));
    }
    for (uint64_t seq : emptied) cancel(seq);
    for (int i = 0; i < 50; ++i) schedule(DenseAt(12, i), DenseKey(i));
    DrainAndCompare(harness, ref);
    EXPECT_EQ(harness.wheel().counters().dirty_sorts, 1u);
  }
}

// Exact ordering-work counters through EventQueue on a constructed dense
// tick. Eight entries land on tick 3 newest-first (dirty), three on tick 600
// from behind the L1 horizon (re-filed newest-first by a cascade: dirty),
// and two on tick 6 in order (clean). Ready inserts then walk in from both
// ends and pay for the shorter side: nothing for an insert at the head or
// one tying the tail's time, and only two steps to pass a run of
// equal-time entries near the head when the insert point is near the tail.
TEST(TimerWheelDense, CountersOnAConstructedDenseTick) {
  EventQueue eq;
  std::vector<int> fired;
  auto schedule = [&](Time at, int id) {
    eq.ScheduleAt(at, [&fired, id] { fired.push_back(id); });
  };
  auto walk_steps = [&eq] { return eq.wheel_counters().ready_walk_steps; };
  const Time t3 = TickStart(3);
  for (int i = 0; i < 8; ++i) schedule(t3 + 10 * (8 - i), 80 - 10 * i);
  for (int i = 0; i < 3; ++i) schedule(TickStart(600) + 3 - i, 603 - i);
  schedule(TickStart(6), 6000);
  schedule(TickStart(6) + 1, 6001);
  EXPECT_EQ(eq.wheel_counters().dirty_sorts, 0u);

  ASSERT_TRUE(eq.RunOne());  // adopts tick 3: one sort of 8
  EXPECT_EQ(eq.Now(), t3 + 10);
  EXPECT_EQ(eq.wheel_counters().dirty_sorts, 1u);
  EXPECT_EQ(eq.wheel_counters().sorted_entries, 8u);
  // Ready chain: 20 30 40 50 60 70 80.
  schedule(t3 + 10, 11);  // before the head: found at once
  EXPECT_EQ(walk_steps(), 0u);
  schedule(t3 + 80, 81);  // ties the tail's time: appends
  EXPECT_EQ(walk_steps(), 0u);
  schedule(t3 + 55, 55);  // 11 20 30 40 | 50 60 70 80 81: four steps
  EXPECT_EQ(walk_steps(), 4u);
  for (int id : {12, 13, 14}) schedule(t3 + 10, id);  // 1 + 2 + 3 steps
  EXPECT_EQ(walk_steps(), 10u);
  schedule(t3 + 79, 79);  // past the run of four at +10: two steps
  EXPECT_EQ(walk_steps(), 12u);

  eq.RunAll();
  EXPECT_EQ(fired,
            (std::vector<int>{10, 11, 12, 13, 14, 20, 30, 40, 50, 55, 60, 70,
                              79, 80, 81, 6000, 6001, 601, 602, 603}));
  const TimerWheel::Counters& c = eq.wheel_counters();
  EXPECT_EQ(c.dirty_sorts, 2u);
  EXPECT_EQ(c.sorted_entries, 11u);
  EXPECT_EQ(c.ready_walk_steps, 12u);
}

}  // namespace
}  // namespace dcqcn
