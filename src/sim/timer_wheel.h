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
// cursor (see Accepts).
//
// Ordered chains, ready list in place. Every bucket is an intrusive
// doubly-linked chain of nodes indexed by the caller's slot id (one pending
// event per slot, so a parallel node array is exact). L0 chains are kept
// (time, key, seq)-ordered on insert — new events carry the largest
// sequence so far, so most append at the tail. The L0 bucket under the
// cursor *is* the ready list: advancing the cursor onto an occupied L0
// bucket turns its chain into the ready chain without touching a node, and
// entries at the cursor's tick are inserted into it in order. L1/L2 chains
// are unordered; a cascade re-files their entries one level down (or into
// L0/ready) when the cursor reaches their bucket.
// Cancel unlinks from any chain, ready included, in O(1), so the wheel holds
// no tombstones. Per-level occupancy bitmaps plus a per-level cached
// earliest bucket locate the next bucket; a level is rescanned only after
// its cached bucket empties.
//
// Determinism: the wheel never reorders anything. The ready chain is sorted
// by (time, key, seq), and the caller merges its front against its heap top
// with the same comparison — so global fire order is exactly what the heap
// alone would produce. Keys are 0 outside the sharded engine's canonical
// mode (see sim/event_queue.h), where the comparison degenerates to the
// historical (time, sequence) FIFO.
//
// Allocation-free in steady state: the node array grows only with the
// caller's slot array; buckets are fixed head/tail pairs.
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

  int64_t cur_tick() const { return cur_tick_; }
  static constexpr int64_t TickOf(Time at) { return at >> kTickBits; }

  // True when `at` falls inside the wheel's window — not before the
  // cursor's tick and within the horizon (route here); false means the
  // caller should keep the event in its heap. The cursor runs ahead of the
  // caller's clock only after a peek (EventQueue::NextEventTime stepped it
  // onto the next bucket without firing), and events scheduled behind it
  // then go to the heap rather than into the middle of the ready chain.
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
    File(slot);
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
  // chain in place, or an L1/L2 bucket cascades one level down. Pre: the
  // NextChainedStart() preconditions, and that call came last.
  void DrainOneStep() {
    DCQCN_DCHECK(ReadyEmpty());
    const int level = next_level_;
    const int64_t pos = first_[level];
    DCQCN_DCHECK(pos >= 0 && pos != kLevelEmpty);
    if (level == 0) {
      cur_tick_ = pos;
      ClearBit(0, static_cast<uint32_t>(pos) & kIndexMask);
      first_[0] = kLevelDirty;
    } else {
      Cascade(level, pos);
    }
  }

  // --- the ready chain (entries at the cursor's tick, (time, key, seq) order)

  bool ReadyEmpty() const { return ReadyChain().head == kNil; }

  Entry ReadyFront() const {
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

  // Routes a filled-in node by its tick relative to the cursor: on it into
  // the ready chain, within L0's window into its L0 bucket (both ordered),
  // else onto the tail of its L1/L2 bucket.
  void File(uint32_t slot) {
    const Node& n = nodes_[slot];
    const int64_t tick = TickOf(n.at);
    const int64_t delta = tick - cur_tick_;
    DCQCN_DCHECK(delta >= 0);
    if (delta < static_cast<int64_t>(kBucketsPerLevel)) {
      // delta == kBucketsPerLevel would alias the ready bucket's index, so
      // L0 takes deltas 1..511 and the ready chain delta 0.
      const uint32_t index = static_cast<uint32_t>(tick) & kIndexMask;
      LinkOrdered(index, slot);
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

  // Inserts `slot` into L0 chain `b` after the last entry not later than it.
  // The common case appends at the tail; otherwise the walk starts from
  // whichever end is nearer in time.
  void LinkOrdered(uint32_t b, uint32_t slot) {
    Chain& c = chains_[b];
    Node& n = nodes_[slot];
    uint32_t after = c.tail;
    if (after != kNil && Earlier(n, nodes_[after])) {
      if (n.at - nodes_[c.head].at < nodes_[after].at - n.at) {
        // Forward to the first later entry; the tail is one, so this stops.
        uint32_t before = c.head;
        while (!Earlier(n, nodes_[before])) before = nodes_[before].next;
        after = nodes_[before].prev;
      } else {
        do {
          after = nodes_[after].prev;
        } while (after != kNil && Earlier(n, nodes_[after]));
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
  // L1's is re-filed along with this one.
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

  int64_t cur_tick_ = 0;
  size_t size_ = 0;
  // Per level: absolute position of the earliest occupied bucket, or
  // kLevelEmpty, or kLevelDirty (rescan on next use).
  int64_t first_[kLevels] = {kLevelEmpty, kLevelEmpty, kLevelEmpty};
  int next_level_ = 0;  // level NextChainedStart() chose
  std::vector<Node> nodes_;  // indexed by the caller's slot id
  Chain chains_[kLevels * kBucketsPerLevel];  // all kNil on construction
  uint64_t bitmap_[kLevels][kWordsPerLevel] = {};
};

}  // namespace dcqcn
