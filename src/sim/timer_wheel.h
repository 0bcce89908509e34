// Hierarchical timer wheel for the short-horizon bulk of simulation events.
//
// The event core's 4-ary heap pays O(log n) twice per event. Almost every
// event a simulation schedules — packet serializations, link arrivals, CNP
// pacing, 55 us alpha/rate timers, retransmission timeouts — lands within
// milliseconds of the cursor, which is exactly the regime a timer wheel
// serves in O(1) per event. EventQueue routes events through this wheel when
// they fall inside its horizon and keeps the heap for the rare remainder.
//
// Shape: 3 levels x 512 buckets on a 2^12 ps (~4.1 ns) tick:
//   L0 covers [cursor, cursor + ~2.1 us)    — one tick per bucket
//   L1 covers up to ~1.07 ms                — 512 ticks per bucket
//   L2 covers up to ~550 ms                 — 256K ticks per bucket
// L0 spans a whole fabric hop (serialization + 1 us propagation), so the
// common event is filed once, straight into the bucket it fires from.
// Beyond L2 the event stays in the caller's heap forever (entries never
// migrate from heap to wheel), which keeps the horizon a pure routing
// decision with no re-dispatch cost; so does an event scheduled behind the
// cursor, which only an unbounded peek leaves ahead of the clock (see
// Accepts).
//
// Chains, ready list in place. Every bucket is an intrusive doubly-linked
// chain of nodes indexed by the caller's slot id (one pending event per
// slot, so a parallel node array is exact). Every insert ahead of the cursor
// is a tail append, O(1) however dense the bucket: L1/L2 chains are
// unordered, and an L0 chain is (time, key, seq)-ordered unless an insert
// landed behind its tail, which sets the bucket's dirty bit. The L0 bucket
// under the cursor *is* the ready list: advancing the cursor onto an
// occupied L0 bucket turns its chain into the ready chain in place, first
// putting a dirty chain in order (order-on-promote; see SortChain — a
// nearly sorted chain costs O(k)). A cascade re-files its L1/L2 entries one
// level down by tail appends too, those for the cursor's own tick included,
// and sorts the ready chain once afterwards if that made it dirty. Entries
// scheduled at the cursor's tick join the ready chain in order; one that
// does not append at the tail walks in from both ends at once, so it pays
// for the shorter side only, however long a run of equal-time entries is
// on the other.
// Cancel unlinks from any chain, ready included, in O(1), so the wheel holds
// no tombstones. Per-level occupancy bitmaps plus a per-level cached
// earliest bucket locate the next bucket; a level is rescanned only after
// its cached bucket empties.
//
// Determinism: whatever the insert order, the ready chain is in (time, key,
// seq) order whenever its front is read, and the caller merges that front
// against its heap top with the same comparison — so global fire order is
// exactly what the heap alone would produce. Keys are 0 outside the sharded
// engine's canonical mode (see sim/event_queue.h), where the comparison
// degenerates to the historical (time, sequence) FIFO. counters() reports
// the ordering work (dirty sorts, entries sorted, ready-insert walk steps);
// like fire order, the counts are pure functions of the schedule.
//
// Allocation-free in steady state: the node array grows only with the
// caller's slot array; buckets are fixed head/tail pairs, and the sort
// merges in place with a fixed-size run stack.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/units.h"

namespace dcqcn {

class TimerWheel {
 public:
  static constexpr int kTickBits = 12;  // 2^12 ps ~= 4.1 ns per tick
  static constexpr int kSlotBits = 9;   // 512 buckets per level
  static constexpr int kLevels = 3;
  static constexpr uint32_t kBucketsPerLevel = 1u << kSlotBits;
  static constexpr uint32_t kIndexMask = kBucketsPerLevel - 1;

  // A wheel entry in the caller's handle terms.
  struct Entry {
    Time at;
    uint64_t key;  // canonical tie-break key; 0 outside canonical mode
    uint64_t seq;
    uint32_t slot;
  };

  // Ordering work done so far; deterministic for a given schedule.
  struct Counters {
    uint64_t dirty_sorts = 0;       // dirty L0 chains sorted on adoption
    uint64_t sorted_entries = 0;    // entries in those chains
    uint64_t ready_walk_steps = 0;  // two-ended ready-insert walk steps
  };

  int64_t cur_tick() const { return cur_tick_; }
  static constexpr int64_t TickOf(Time at) { return at >> kTickBits; }

  // True when `at` falls inside the wheel's window — not before the
  // cursor's tick and within the horizon (route here); false means the
  // caller should keep the event in its heap. The cursor runs ahead of the
  // caller's clock only after an unbounded peek (EventQueue::NextEventTime
  // with no limit stepped it onto the next bucket without firing), and
  // events scheduled behind it then go to the heap rather than into the
  // middle of the ready chain. Bounded advances never pass the bound.
  bool Accepts(Time at) const {
    const int64_t tick = TickOf(at);
    return tick >= cur_tick_ &&
           (tick >> (2 * kSlotBits)) - (cur_tick_ >> (2 * kSlotBits)) <=
               static_cast<int64_t>(kBucketsPerLevel);
  }

  // Fast-forwards an empty wheel's cursor to `now`. The cursor normally
  // advances bucket by bucket; after a long heap-only stretch (e.g. an idle
  // network waiting on a far retransmission timeout) an empty wheel would
  // otherwise lag so far behind that new short-delay events miss the
  // horizon and fall back to the heap.
  void SyncIfIdle(Time now) {
    if (size_ == 0 && TickOf(now) > cur_tick_) cur_tick_ = TickOf(now);
  }

  // Grows the per-slot node array alongside the caller's slot array.
  void EnsureSlots(size_t n) {
    if (nodes_.size() < n) nodes_.resize(n);
  }

  void Reserve(size_t n) { nodes_.reserve(n); }

  // Files the armed event under `slot`. Pre: Accepts(at), slot < size from
  // EnsureSlots, and the slot holds no other wheel entry (the caller's
  // one-pending-event-per-slot invariant).
  void Insert(uint32_t slot, Time at, uint64_t key, uint64_t seq) {
    Node& n = nodes_[slot];
    DCQCN_DCHECK(n.bucket == kNoBucket);
    n.at = at;
    n.key = key;
    n.seq = seq;
    if (TickOf(at) == cur_tick_) {
      LinkReady(slot);
    } else {
      File(slot);
    }
  }

  // O(1) unlink from whichever chain holds the entry (ready included);
  // no-op for entries that live in the caller's heap.
  void OnCancel(uint32_t slot) {
    if (slot < nodes_.size() && nodes_[slot].bucket != kNoBucket) {
      Unlink(slot);
    }
  }

  // Entries held by the wheel: ready plus chained.
  size_t size() const { return size_; }

  const Counters& counters() const { return counters_; }

  // Start time of the earliest occupied bucket ahead of the cursor,
  // preferring coarser levels on ties so cascades happen before a same-time
  // L0 bucket becomes ready. Pre: ReadyEmpty() and size() > 0, i.e. every
  // entry is chained ahead of the cursor.
  Time NextChainedStart() {
    Time best = std::numeric_limits<Time>::max();
    for (int level = kLevels - 1; level >= 0; --level) {
      if (first_[level] == kLevelDirty) Rescan(level);
      if (first_[level] == kLevelEmpty) continue;
      const Time start = first_[level] << (level * kSlotBits + kTickBits);
      if (start < best) {
        best = start;
        next_level_ = level;
      }
    }
    DCQCN_DCHECK(best != std::numeric_limits<Time>::max());
    return best;
  }

  // One unit of wheel progress at the bucket NextChainedStart() just named:
  // either the cursor steps onto an L0 bucket, whose chain becomes the ready
  // chain in place (sorted first if dirty), or an L1/L2 bucket cascades one
  // level down. Pre: the
  // NextChainedStart() preconditions, and that call came last.
  void DrainOneStep() {
    DCQCN_DCHECK(ReadyEmpty());
    const int level = next_level_;
    const int64_t pos = first_[level];
    DCQCN_DCHECK(pos >= 0 && pos != kLevelEmpty);
    if (level == 0) {
      cur_tick_ = pos;
      const uint32_t index = static_cast<uint32_t>(pos) & kIndexMask;
      ClearBit(0, index);
      first_[0] = kLevelDirty;
      if (TestDirty(index)) SortChain(index);
    } else {
      Cascade(level, pos);
    }
  }

  // --- the ready chain (entries at the cursor's tick, (time, key, seq) order)

  bool ReadyEmpty() const { return ReadyChain().head == kNil; }

  Entry ReadyFront() const {
    DCQCN_DCHECK(!TestDirty(static_cast<uint32_t>(cur_tick_) & kIndexMask));
    const uint32_t slot = ReadyChain().head;
    const Node& n = nodes_[slot];
    return Entry{n.at, n.key, n.seq, slot};
  }

  Entry PopReady() {
    DCQCN_DCHECK(!ReadyEmpty());
    const Entry e = ReadyFront();
    Unlink(e.slot);
    return e;
  }

 private:
  static constexpr uint32_t kNil = ~0u;
  struct Node {
    Time at = 0;
    uint64_t key = 0;
    uint64_t seq = 0;
    uint32_t prev = kNil;
    uint32_t next = kNil;
    uint32_t bucket = kNoBucket;  // level * 512 + index, or kNoBucket
  };
  struct Chain {
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };

  static constexpr uint32_t kNoBucket = ~0u;
  static constexpr int kWordsPerLevel =
      static_cast<int>(kBucketsPerLevel / 64);
  // first_[level] sentinels; real values are absolute bucket positions.
  static constexpr int64_t kLevelDirty = -1;
  static constexpr int64_t kLevelEmpty = std::numeric_limits<int64_t>::max();
  // SortChain's run stack: bin i merges 2^i runs, and a chain holds fewer
  // than 2^32 entries.
  static constexpr int kMaxRunBins = 33;

  static bool Earlier(const Node& a, const Node& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.key != b.key) return a.key < b.key;
    return a.seq < b.seq;
  }

  const Chain& ReadyChain() const {
    return chains_[static_cast<uint32_t>(cur_tick_) & kIndexMask];
  }
  Chain& ReadyChain() {
    return chains_[static_cast<uint32_t>(cur_tick_) & kIndexMask];
  }

  // Chains a filled-in node by its tick relative to the cursor: within L0's
  // window (the cursor's own tick included) onto its L0 chain, marking the
  // chain dirty when the node sorts before the tail, else onto its L1/L2
  // chain. Always a tail append.
  void File(uint32_t slot) {
    const Node& n = nodes_[slot];
    const int64_t tick = TickOf(n.at);
    const int64_t delta = tick - cur_tick_;
    DCQCN_DCHECK(delta >= 0);
    if (delta < static_cast<int64_t>(kBucketsPerLevel)) {
      // delta == kBucketsPerLevel would alias the ready bucket's index, so
      // L0 takes deltas 1..511 and the ready chain delta 0.
      const uint32_t index = static_cast<uint32_t>(tick) & kIndexMask;
      const uint32_t tail = chains_[index].tail;
      if (tail != kNil && Earlier(n, nodes_[tail])) SetDirty(index);
      LinkTail(index, slot);
      if (delta > 0) Occupy(0, tick);
      return;
    }
    int level = 1;
    int64_t pos = tick >> kSlotBits;
    if (pos - (cur_tick_ >> kSlotBits) >
        static_cast<int64_t>(kBucketsPerLevel)) {
      level = 2;
      pos = tick >> (2 * kSlotBits);
      DCQCN_DCHECK(pos - (cur_tick_ >> (2 * kSlotBits)) <=
                   static_cast<int64_t>(kBucketsPerLevel));
    }
    const uint32_t b = static_cast<uint32_t>(level) * kBucketsPerLevel +
                       (static_cast<uint32_t>(pos) & kIndexMask);
    LinkTail(b, slot);
    Occupy(level, pos);
  }

  // Inserts `slot` (at the cursor's tick) into the sorted ready chain after
  // the last entry not later than it. A new entry carries the largest
  // sequence so far, so it usually appends at the tail. Otherwise the walk
  // goes in from both ends at once — forward past entries not later than
  // it, back past entries later than it — and stops at whichever end meets
  // the insert point first. Each step visits two nodes, and the walk is as
  // long as the shorter side, so a long run of equal-time entries on one
  // side costs only as much as the entries on the other.
  void LinkReady(uint32_t slot) {
    const uint32_t b = static_cast<uint32_t>(cur_tick_) & kIndexMask;
    Chain& c = chains_[b];
    Node& n = nodes_[slot];
    uint32_t after = c.tail;
    if (after != kNil && Earlier(n, nodes_[after])) {
      // The tail is later than n, so the forward end stops by the tail.
      uint32_t fwd = c.head;
      for (;;) {
        if (Earlier(n, nodes_[fwd])) {
          after = nodes_[fwd].prev;
          break;
        }
        fwd = nodes_[fwd].next;
        after = nodes_[after].prev;
        ++counters_.ready_walk_steps;
        if (after == kNil || !Earlier(n, nodes_[after])) break;
      }
    }
    n.prev = after;
    if (after == kNil) {
      n.next = c.head;
      c.head = slot;
    } else {
      n.next = nodes_[after].next;
      nodes_[after].next = slot;
    }
    if (n.next == kNil) {
      c.tail = slot;
    } else {
      nodes_[n.next].prev = slot;
    }
    n.bucket = b;
    ++size_;
  }

  void LinkTail(uint32_t b, uint32_t slot) {
    Chain& c = chains_[b];
    Node& n = nodes_[slot];
    n.prev = c.tail;
    n.next = kNil;
    if (c.tail == kNil) {
      c.head = slot;
    } else {
      nodes_[c.tail].next = slot;
    }
    c.tail = slot;
    n.bucket = b;
    ++size_;
  }

  // Marks the bucket at absolute position `pos` of `level` occupied and
  // refines a valid earliest-bucket cache (a dirty one stays dirty).
  void Occupy(int level, int64_t pos) {
    const uint32_t index = static_cast<uint32_t>(pos) & kIndexMask;
    bitmap_[level][index >> 6] |= uint64_t{1} << (index & 63);
    if (pos < first_[level]) first_[level] = pos;  // kLevelDirty is -1
  }

  void ClearBit(int level, uint32_t index) {
    bitmap_[level][index >> 6] &= ~(uint64_t{1} << (index & 63));
  }

  bool TestBit(int level, uint32_t index) const {
    return (bitmap_[level][index >> 6] >> (index & 63)) & 1;
  }

  void SetDirty(uint32_t index) {
    dirty_[index >> 6] |= uint64_t{1} << (index & 63);
  }

  void ClearDirty(uint32_t index) {
    dirty_[index >> 6] &= ~(uint64_t{1} << (index & 63));
  }

  bool TestDirty(uint32_t index) const {
    return (dirty_[index >> 6] >> (index & 63)) & 1;
  }

  void Unlink(uint32_t slot) {
    Node& n = nodes_[slot];
    const uint32_t b = n.bucket;
    Chain& c = chains_[b];
    if (n.prev != kNil) {
      nodes_[n.prev].next = n.next;
    } else {
      c.head = n.next;
    }
    if (n.next != kNil) {
      nodes_[n.next].prev = n.prev;
    } else {
      c.tail = n.prev;
    }
    n.bucket = kNoBucket;
    --size_;
    if (c.head == kNil) {
      // The ready bucket's bit is already clear, so for it this is a no-op
      // (and at most a spurious rescan).
      const uint32_t index = b & kIndexMask;
      const int level = static_cast<int>(b >> kSlotBits);
      ClearBit(level, index);
      if (level == 0) ClearDirty(index);
      // Buckets ahead of the cursor are unique per (level, index), so an
      // index match means the cached earliest bucket just emptied.
      if ((static_cast<uint64_t>(first_[level]) & kIndexMask) == index) {
        first_[level] = kLevelDirty;
      }
    }
  }

  // Bitmap scan for `level`'s earliest occupied bucket, filling first_.
  void Rescan(int level) {
    const int64_t base = (cur_tick_ >> (level * kSlotBits)) + 1;
    const int d =
        FirstOccupiedDistance(level, static_cast<uint32_t>(base) & kIndexMask);
    first_[level] = d < 0 ? kLevelEmpty : base + d;
  }

  // Circular distance (0..511) from `start` to the first occupied bucket of
  // `level`, or -1 when the level is empty. Distance order equals time
  // order because each level's live buckets span at most one wrap of the
  // index space starting at the cursor's successor.
  int FirstOccupiedDistance(int level, uint32_t start) const {
    const uint64_t* bm = bitmap_[level];
    uint32_t word = start >> 6;
    const uint64_t bits = bm[word] >> (start & 63);
    if (bits != 0) return static_cast<int>(__builtin_ctzll(bits));
    int scanned = 64 - static_cast<int>(start & 63);
    // kWordsPerLevel steps wrap back onto the start word's low bits.
    for (int i = 0; i < kWordsPerLevel; ++i) {
      word = (word + 1) & (kWordsPerLevel - 1);
      if (bm[word] != 0) {
        const int d = scanned + static_cast<int>(__builtin_ctzll(bm[word]));
        return d < static_cast<int>(kBucketsPerLevel) ? d : -1;
      }
      scanned += 64;
    }
    return -1;
  }

  // Moves the cursor to the first tick of the level-`level` bucket at
  // coarse position `pos` and re-files that bucket's entries by the new
  // window. A finer bucket starting at the same tick (the coarser-first
  // tie) now sits on the cursor: L0's becomes the ready chain in place and
  // L1's is re-filed along with this one. Entries re-filed onto the cursor's
  // tick append to the ready chain, which is then sorted once if it is
  // dirty — from before the cascade or from those appends.
  void Cascade(int level, int64_t pos) {
    const int64_t start = pos << (level * kSlotBits);
    DCQCN_DCHECK(start > cur_tick_);
    cur_tick_ = start;
    const uint32_t index0 = static_cast<uint32_t>(start) & kIndexMask;
    if (TestBit(0, index0)) {
      ClearBit(0, index0);
      first_[0] = kLevelDirty;
    }
    if (level == 2) {
      const int64_t pos1 = start >> kSlotBits;
      if (TestBit(1, static_cast<uint32_t>(pos1) & kIndexMask)) {
        Refile(1, pos1);
      }
    }
    Refile(level, pos);
    if (TestDirty(index0)) SortChain(index0);
  }

  // Empties the level-`level` bucket at `pos` and files each entry anew.
  void Refile(int level, int64_t pos) {
    const uint32_t index = static_cast<uint32_t>(pos) & kIndexMask;
    Chain& c = chains_[static_cast<uint32_t>(level) * kBucketsPerLevel + index];
    uint32_t slot = c.head;
    c = Chain{};
    ClearBit(level, index);
    if (first_[level] == pos) first_[level] = kLevelDirty;
    while (slot != kNil) {
      Node& n = nodes_[slot];
      const uint32_t next = n.next;
      // The chain hops through scattered node-array lines; start fetching
      // the successor while this entry is re-filed.
      if (next != kNil) __builtin_prefetch(&nodes_[next]);
      n.bucket = kNoBucket;
      --size_;
      File(slot);
      slot = next;
    }
  }

  // Puts L0 chain `index` in (time, key, seq) order and clears its dirty
  // bit: a natural merge sort. The chain is cut into maximal ascending runs
  // (a descending run is reversed as it is cut), and runs merge by binary
  // counter, so a chain of k entries in r runs costs O(k log r) — O(k) for
  // the nearly sorted chains out-of-order inserts leave, O(k log k) at
  // worst. Singly linked while sorting; prev links are rebuilt at the end.
  void SortChain(uint32_t index) {
    ClearDirty(index);
    Chain& c = chains_[index];
    // pending[i] holds the merge of 2^i runs, or kNil.
    uint32_t pending[kMaxRunBins];
    int bins = 0;
    uint64_t count = 0;
    uint32_t rest = c.head;
    while (rest != kNil) {
      uint32_t run = rest;
      rest = nodes_[rest].next;
      ++count;
      if (rest != kNil && Earlier(nodes_[rest], nodes_[run])) {
        nodes_[run].next = kNil;
        while (rest != kNil && Earlier(nodes_[rest], nodes_[run])) {
          const uint32_t next = nodes_[rest].next;
          nodes_[rest].next = run;
          run = rest;
          rest = next;
          ++count;
        }
      } else {
        uint32_t last = run;
        while (rest != kNil && !Earlier(nodes_[rest], nodes_[last])) {
          last = rest;
          rest = nodes_[rest].next;
          ++count;
        }
        nodes_[last].next = kNil;
      }
      int i = 0;
      for (; i < bins && pending[i] != kNil; ++i) {
        run = Merge(pending[i], run);
        pending[i] = kNil;
      }
      if (i == bins) {
        DCQCN_DCHECK(bins < kMaxRunBins);
        ++bins;
      }
      pending[i] = run;
    }
    uint32_t head = kNil;
    for (int i = 0; i < bins; ++i) {
      if (pending[i] == kNil) continue;
      head = head == kNil ? pending[i] : Merge(pending[i], head);
    }
    uint32_t prev = kNil;
    for (uint32_t s = head; s != kNil; s = nodes_[s].next) {
      nodes_[s].prev = prev;
      prev = s;
    }
    c.head = head;
    c.tail = prev;
    ++counters_.dirty_sorts;
    counters_.sorted_entries += count;
  }

  // Merges two sorted, kNil-terminated singly linked lists.
  uint32_t Merge(uint32_t a, uint32_t b) {
    uint32_t head = kNil;
    uint32_t* link = &head;
    while (a != kNil && b != kNil) {
      if (Earlier(nodes_[b], nodes_[a])) {
        *link = b;
        link = &nodes_[b].next;
        b = *link;
      } else {
        *link = a;
        link = &nodes_[a].next;
        a = *link;
      }
    }
    *link = a != kNil ? a : b;
    return head;
  }

  int64_t cur_tick_ = 0;
  size_t size_ = 0;
  // Per level: absolute position of the earliest occupied bucket, or
  // kLevelEmpty, or kLevelDirty (rescan on next use).
  int64_t first_[kLevels] = {kLevelEmpty, kLevelEmpty, kLevelEmpty};
  int next_level_ = 0;  // level NextChainedStart() chose
  std::vector<Node> nodes_;  // indexed by the caller's slot id
  Chain chains_[kLevels * kBucketsPerLevel];  // all kNil on construction
  uint64_t bitmap_[kLevels][kWordsPerLevel] = {};
  uint64_t dirty_[kWordsPerLevel] = {};  // L0 chains needing a sort
  Counters counters_;
};

}  // namespace dcqcn
