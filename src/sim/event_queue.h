// Discrete-event scheduler core.
//
// Allocation-free in steady state: callbacks live in InlineCallback slots
// (fixed inline capture storage, no heap fallback), slots are recycled
// through an intrusive free list, and pending events live in one of two
// structures keyed on (time, key, sequence):
//
//  * a hierarchical timer wheel (sim/timer_wheel.h) for everything within
//    ~550 ms of the wheel cursor — O(1) per event, which is nearly every
//    event a simulation schedules (serializations, propagations, DCQCN
//    timers, retransmission timeouts). Its L0 level spans ~2.1 us, a whole
//    fabric hop, so the common event is appended once to an L0 chain and
//    fires from it: the L0 bucket under the cursor is the wheel's ready list
//    in place, put in fire order when the cursor adopts it if an insert
//    arrived out of order. Insert cost does not grow with how many events
//    share a tick;
//  * a 4-ary min-heap of 32-byte entries for the rest: the rare far-future
//    event, and events scheduled behind a wheel cursor that an unbounded
//    NextEventTime() peek moved ahead of the clock. Heap entries never
//    migrate to the wheel. RunUntil(deadline) and NextEventTime(limit)
//    advance the wheel only onto buckets starting by their bound, so a
//    caller that runs to the bound never leaves the cursor ahead of its
//    clock; heap_counters() counts the fallbacks by reason.
//
// PrepareTop merges the ready front with the heap top using the same
// comparison the heap alone used, so the global fire order — and with it
// every golden trace — is unchanged: two events scheduled for the same
// picosecond fire in the order they were scheduled, keeping whole
// simulations reproducible across runs and platforms.
//
// Ordering is really (time, key, sequence). In the default mode every key
// is 0, which degenerates to the historical (time, sequence) FIFO — bit
// for bit. The sharded engine (net/shard.h) opts into *canonical keys*
// instead: each event gets a 64-bit key derived from the key of the event
// whose callback scheduled it (hash of the parent key, plus a per-parent
// spawn counter). A key is therefore a pure function of the causal chain
// that produced the event — independent of which shard's queue it sits in
// and of how many shards exist — so same-timestamp ties resolve
// identically at shards=1 and shards=N. Keys from outside any callback
// (topology setup, the coordinator between windows) come from a
// SpawnContext shared across all of a network's queues.
//
// Cancellation is O(1) and hash-free: an EventHandle carries its slot index
// and the 64-bit sequence number stamped on the slot when the event was
// armed. Cancel() frees the slot (clearing the stamp); a wheel entry is
// unlinked in place — ready or not, so the wheel holds no tombstones —
// while a heap entry becomes a tombstone skipped when it reaches the top.
// Sequence numbers are never reused, so a stale handle — fired or cancelled
// long ago — can never alias a newer event no matter how often its slot is
// recycled.
#pragma once

#include <cstdint>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "sim/inline_callback.h"
#include "sim/timer_wheel.h"

namespace dcqcn {

class EventQueue;

// splitmix64 finalizer: the key-derivation hash for canonical event keys.
inline constexpr uint64_t MixEventKey(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Key source for events scheduled outside any event callback (topology
// setup, the window coordinator). A sharded Network shares ONE SpawnContext
// across all of its queues, so setup-time keys do not depend on which shard
// a call lands in. Only ever touched single-threaded (setup and the
// inter-window phases run on the orchestrating thread).
struct SpawnContext {
  uint64_t hash = MixEventKey(0);
  uint64_t spawn = 0;
};

// Opaque handle to a scheduled event; obtained from EventQueue::Schedule and
// usable with Cancel(). A default-constructed handle refers to nothing.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return seq_ != 0; }

 private:
  friend class EventQueue;
  EventHandle(uint32_t slot, uint64_t seq) : slot_(slot), seq_(seq) {}
  uint32_t slot_ = 0;
  uint64_t seq_ = 0;  // 0 = refers to nothing
};

class EventQueue {
 public:
  using Callback = InlineCallback;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Current simulated time. Advances monotonically as events run.
  Time Now() const { return now_; }

  // Switches this queue to canonical event keys (see file comment). Must be
  // called before anything is scheduled; `root` must outlive the queue and
  // be shared with every sibling queue of the same network.
  void EnableCanonicalKeys(SpawnContext* root) {
    DCQCN_CHECK(root != nullptr && next_seq_ == 1);
    root_ctx_ = root;
  }

  // The key the next child scheduled from the current context would get,
  // consuming one spawn index. Used by boundary links to stamp a delivery's
  // key on the egress shard before the event is injected on the ingress
  // shard — identical key accounting to a locally delivered frame. Always 0
  // when canonical keys are off.
  uint64_t AllocChildKey() {
    if (root_ctx_ == nullptr) return 0;
    if (in_event_) return ctx_hash_ + ctx_spawn_++;
    return root_ctx_->hash + root_ctx_->spawn++;
  }

  // Schedules `cb` to run at absolute time `at` (must be >= Now()). The
  // callable's capture must fit InlineCallback::kCapacity (compile-time
  // checked).
  template <typename F>
  EventHandle ScheduleAt(Time at, F&& cb) {
    return ScheduleAtWithKey(at, AllocChildKey(), std::forward<F>(cb));
  }

  // ScheduleAt with an explicit canonical key (one previously allocated via
  // AllocChildKey on the scheduling context's queue). The plain overload is
  // the common case; this one exists for cross-shard injection, where the
  // key was fixed on the egress side.
  template <typename F>
  EventHandle ScheduleAtWithKey(Time at, uint64_t key, F&& cb) {
    DCQCN_CHECK(at >= now_);
    DCQCN_DCHECK(DebugAffinityOk());
    const uint32_t slot = AllocSlot();
    const uint64_t seq = next_seq_++;
    Slot& s = slots_[slot];
    s.cb.Emplace(std::forward<F>(cb));
    s.armed_seq = seq;
    wheel_.SyncIfIdle(now_);
    if (wheel_.Accepts(at)) {
      wheel_.Insert(slot, at, key, seq);
    } else {
      HeapFallback(HeapEntry{at, key, seq, slot});
    }
    ++live_;
    return EventHandle{slot, seq};
  }

  // Schedules `cb` to run `delay` from now.
  template <typename F>
  EventHandle ScheduleIn(Time delay, F&& cb) {
    DCQCN_CHECK(delay >= 0);
    return ScheduleAt(now_ + delay, std::forward<F>(cb));
  }

  // Cancels a pending event. Returns true if the event had not yet fired and
  // was cancelled; false for stale, fired, or default handles. O(1): the
  // slot is freed immediately; a wheel entry is unlinked, a heap entry dies
  // in place, to be skipped (and popped lazily) when it reaches the top.
  bool Cancel(EventHandle h) {
    DCQCN_DCHECK(DebugAffinityOk());
    if (!h.valid()) return false;
    Slot& s = slots_[h.slot_];
    if (s.armed_seq != h.seq_) return false;
    wheel_.OnCancel(h.slot_);  // unlink if in the wheel; heap tombstones
    s.cb.Reset();
    FreeSlot(h.slot_);
    --live_;
    return true;
  }

  // True if no runnable (non-cancelled) events remain.
  bool Empty() const { return live_ == 0; }

  size_t PendingEvents() const { return live_; }

  // The wheel's ordering work so far (dirty-chain sorts, entries sorted,
  // ready-insert walk steps): deterministic, like fire order.
  const TimerWheel::Counters& wheel_counters() const {
    return wheel_.counters();
  }

  // Events filed in the heap instead of the wheel, by reason: scheduled
  // behind the wheel cursor (only possible after an unbounded
  // NextEventTime() peek) or beyond the wheel's ~550 ms horizon. Also
  // deterministic.
  struct HeapCounters {
    uint64_t behind_cursor = 0;
    uint64_t beyond_horizon = 0;
  };
  const HeapCounters& heap_counters() const { return heap_counters_; }

  // Returned by NextEventTime() when no live events remain.
  static constexpr Time kNoEventTime = std::numeric_limits<Time>::max();

  // Timestamp of the earliest live event without firing it, or kNoEventTime
  // when the queue is drained. Prunes cancelled heap tops and advances the
  // wheel (same path RunOne takes), so the answer is exact — up to `limit`:
  // when no event is due at or before `limit`, the result is some time
  // after `limit` (a lower bound on the next event), and the wheel cursor
  // has not moved past `limit`'s tick. A caller that then runs to `limit`
  // or earlier keeps the cursor at or behind its clock, so what it
  // schedules next files into the wheel. Unbounded (the default), the peek
  // may leave the cursor ahead of the clock on the next event's bucket;
  // events scheduled behind it then merge through the heap. The hybrid
  // fast-forward controller uses this, bounded by its epoch end, to stop
  // analytic epochs at the next scheduled packet-level event (workload
  // arrival timers, fault transitions, probes).
  Time NextEventTime(Time limit = kNoEventTime) {
    switch (PrepareTop(limit)) {
      case TopSrc::kNone:
        return kNoEventTime;
      case TopSrc::kHeap:
        return heap_[0].at;
      case TopSrc::kReady:
        return wheel_.ReadyFront().at;
      case TopSrc::kLater:
        return wheel_.NextChainedStart();
    }
    return kNoEventTime;
  }

  // Runs the next event; returns false if the queue had no live events.
  bool RunOne() {
    DCQCN_DCHECK(DebugAffinityOk());
    switch (PrepareTop()) {
      case TopSrc::kNone:
      case TopSrc::kLater:  // only under a bound
        return false;
      case TopSrc::kHeap:
        FireTop();
        return true;
      case TopSrc::kReady:
        FireReady();
        return true;
    }
    return false;
  }

  // Runs events until the queue drains or the next live event lies beyond
  // `deadline`. Events at exactly `deadline` do run. Returns the number of
  // events executed; afterwards Now() >= deadline unless the queue drained
  // earlier (then Now() is advanced to `deadline` as well). The wheel
  // advances only onto buckets starting at or before `deadline`, so the
  // cursor ends at or behind the clock.
  uint64_t RunUntil(Time deadline) {
    DCQCN_DCHECK(DebugAffinityOk());
    uint64_t n = 0;
    for (;;) {
      const TopSrc src = PrepareTop(deadline);
      if (src == TopSrc::kNone || src == TopSrc::kLater) break;
      if (src == TopSrc::kHeap) {
        if (heap_[0].at > deadline) break;
        FireTop();
      } else {
        if (wheel_.ReadyFront().at > deadline) break;
        FireReady();
      }
      ++n;
    }
    if (now_ < deadline) now_ = deadline;
    return n;
  }

  // Runs until the queue is drained. Returns events executed.
  uint64_t RunAll() {
    uint64_t n = 0;
    while (RunOne()) ++n;
    return n;
  }

  // Pre-sizes slot and heap storage for `events` concurrent events, so even
  // the first simulated moments allocate nothing. Growth past the
  // reservation is amortized as usual.
  void Reserve(size_t events) {
    heap_.reserve(events);
    wheel_.Reserve(events);
    if (slots_.size() < events) {
      const auto first = static_cast<uint32_t>(slots_.size());
      slots_.resize(events);
      wheel_.EnsureSlots(slots_.size());
      for (uint32_t i = first; i < slots_.size(); ++i) FreeSlot(i);
    }
  }

  // --- debug thread affinity ---
  // A sharded Network binds each shard's queue to its executing thread for
  // the duration of a window; Schedule/Cancel/Run from any other thread then
  // trip a DCHECK. Unbound (the default, and between windows) means any
  // thread may touch the queue — which is safe, because the barrier protocol
  // guarantees exclusive access outside windows. The owner fields exist in
  // every build, so the layout does not depend on NDEBUG; only the DCHECKs
  // that call DebugAffinityOk compile away in release builds.
  void DebugBindToCurrentThread() {
    debug_owner_ = std::this_thread::get_id();
    debug_bound_ = true;
  }
  void DebugUnbind() { debug_bound_ = false; }
  bool DebugAffinityOk() const {
    return !debug_bound_ || debug_owner_ == std::this_thread::get_id();
  }

 private:
  struct Slot {
    InlineCallback cb;
    uint64_t armed_seq = 0;  // 0 = free; else the armed event's sequence
    uint32_t next_free = 0;  // intrusive free list link
  };
  struct HeapEntry {
    Time at;
    uint64_t key;  // canonical tie-break key; 0 outside canonical mode
    uint64_t seq;
    uint32_t slot;
  };

  static constexpr uint32_t kNoFreeSlot = ~0u;
  static constexpr Time kTimeMax = std::numeric_limits<Time>::max();

  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.key != b.key) return a.key < b.key;
    return a.seq < b.seq;
  }

  uint32_t AllocSlot() {
    if (free_head_ != kNoFreeSlot) {
      const uint32_t slot = free_head_;
      free_head_ = slots_[slot].next_free;
      return slot;
    }
    slots_.emplace_back();  // amortized growth; steady state hits free list
    wheel_.EnsureSlots(slots_.size());
    return static_cast<uint32_t>(slots_.size() - 1);
  }

  void FreeSlot(uint32_t slot) {
    Slot& s = slots_[slot];
    s.armed_seq = 0;
    s.next_free = free_head_;
    free_head_ = slot;
  }

  // The rare path of every (inlined) schedule, kept out of line so it does
  // not bloat the hot call sites.
  [[gnu::noinline, gnu::cold]] void HeapFallback(HeapEntry e) {
    ++(TimerWheel::TickOf(e.at) < wheel_.cur_tick()
           ? heap_counters_.behind_cursor
           : heap_counters_.beyond_horizon);
    HeapPush(e);
  }

  // 4-ary min-heap: shallower than a binary heap, and the four 32-byte
  // children of a node sit in two adjacent cache lines.
  void HeapPush(HeapEntry e) {
    heap_.push_back(e);
    size_t i = heap_.size() - 1;
    while (i > 0) {
      const size_t parent = (i - 1) >> 2;
      if (!Earlier(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void HeapPopMin() {
    const HeapEntry e = heap_.back();
    heap_.pop_back();
    const size_t n = heap_.size();
    if (n == 0) return;
    size_t i = 0;
    for (;;) {
      const size_t first = (i << 2) + 1;
      if (first >= n) break;
      size_t best = first;
      const size_t last = first + 4 < n ? first + 4 : n;
      for (size_t c = first + 1; c < last; ++c) {
        if (Earlier(heap_[c], heap_[best])) best = c;
      }
      if (!Earlier(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  // kLater: nothing is due by PrepareTop's bound, and the earliest event
  // is somewhere in the wheel at or after NextChainedStart() > bound.
  enum class TopSrc : uint8_t { kNone, kHeap, kReady, kLater };

  // The single pruning + merge point: drops cancelled entries off the heap
  // top, advances the wheel while a chained bucket could hold the next
  // event, and says where the earliest live event sits. RunOne/RunUntil/
  // RunAll all drain through here exactly once per pop. The wheel needs no
  // pruning (cancel unlinks), and it only advances while its ready chain is
  // empty: chained entries lie at later ticks than every ready entry. It
  // never advances onto a bucket starting after `bound`: every event in
  // such a bucket is later than `bound`, so the merge stays exact up to it.
  TopSrc PrepareTop(Time bound = kTimeMax) {
    for (;;) {
      while (!heap_.empty() &&
             slots_[heap_[0].slot].armed_seq != heap_[0].seq) {
        HeapPopMin();
      }
      if (wheel_.ReadyEmpty()) {
        if (wheel_.size() > 0) {
          // A chained bucket starting at or before the heap top may hold
          // the true earliest event: advance the wheel and re-check.
          const Time start = wheel_.NextChainedStart();
          const Time heap_at = heap_.empty() ? kTimeMax : heap_[0].at;
          if (start <= heap_at) {
            if (start > bound) return TopSrc::kLater;
            wheel_.DrainOneStep();
            continue;
          }
        }
        return heap_.empty() ? TopSrc::kNone : TopSrc::kHeap;
      }
      if (heap_.empty()) return TopSrc::kReady;
      const TimerWheel::Entry r = wheel_.ReadyFront();
      const HeapEntry& h = heap_[0];
      const bool ready_first =
          r.at != h.at ? r.at < h.at
                       : (r.key != h.key ? r.key < h.key : r.seq < h.seq);
      return ready_first ? TopSrc::kReady : TopSrc::kHeap;
    }
  }

  // Invokes an event's callback. In canonical-key mode the firing event's
  // key seeds the context its callback schedules children from: child key =
  // MixEventKey(parent key) + spawn index. Both sides of that sum are pure
  // functions of the causal chain, so the derived keys are too.
  void Invoke(uint64_t key, InlineCallback& cb) {
    if (root_ctx_ != nullptr) {
      ctx_hash_ = MixEventKey(key);
      ctx_spawn_ = 0;
      in_event_ = true;
      cb();
      in_event_ = false;
    } else {
      cb();
    }
  }

  // Pre: heap top is live. Frees the slot before invoking so the callback
  // may immediately schedule (possibly into the same slot) or cancel.
  void FireTop() {
    const HeapEntry e = heap_[0];
    HeapPopMin();
    DCQCN_DCHECK(e.at >= now_);
    now_ = e.at;
    Slot& s = slots_[e.slot];
    InlineCallback cb = std::move(s.cb);
    FreeSlot(e.slot);
    --live_;
    Invoke(e.key, cb);
  }

  // Pre: the ready chain is non-empty. Same contract as FireTop.
  void FireReady() {
    const TimerWheel::Entry e = wheel_.PopReady();
    if (!wheel_.ReadyEmpty()) {
      // Overlap the next event's slot fetch with this callback's execution.
      __builtin_prefetch(&slots_[wheel_.ReadyFront().slot]);
    }
    DCQCN_DCHECK(e.at >= now_);
    now_ = e.at;
    Slot& s = slots_[e.slot];
    InlineCallback cb = std::move(s.cb);
    FreeSlot(e.slot);
    --live_;
    Invoke(e.key, cb);
  }

  Time now_ = 0;
  uint64_t next_seq_ = 1;
  size_t live_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoFreeSlot;
  TimerWheel wheel_;
  // Canonical-key state (see file comment). root_ctx_ == nullptr is the
  // default (time, sequence) mode.
  SpawnContext* root_ctx_ = nullptr;
  uint64_t ctx_hash_ = 0;   // MixEventKey(key of the firing event)
  uint64_t ctx_spawn_ = 0;  // children scheduled by the firing event so far
  bool in_event_ = false;   // inside a callback (vs. setup / coordinator)
  std::thread::id debug_owner_;
  bool debug_bound_ = false;
  HeapCounters heap_counters_;  // cold: last, off the hot fields' lines
};

}  // namespace dcqcn
