// Full-duplex point-to-point link.
//
// Each direction is an independent channel: a transmitter serializes one
// frame at a time at the link rate, and the frame is delivered to the far
// node after serialization + propagation (store-and-forward). The attached
// nodes own all queueing; the link only models the wire. PFC semantics rely
// on one property modeled here: a frame whose serialization has begun cannot
// be abandoned, which is exactly why switches need headroom buffer.
//
// The wire is also the only place nodes interact, which makes it the cut
// point for the sharded engine (net/shard.h): BindShardEngines splits a
// link's two directions across the endpoint shards' event queues, and a
// direction whose endpoints live in different shards delivers through a
// ShardChannel — a plain vector of (time, key, packet) messages written by
// the egress shard during a window and injected into the ingress shard's
// queue at the barrier. Propagation latency guarantees every such delivery
// lands strictly beyond the window that produced it.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "net/node.h"
#include "net/packet.h"
#include "sim/event_queue.h"
#include "sim/queue_pool.h"
#include "sim/ring_buffer.h"
#include "telemetry/event_trace.h"

namespace dcqcn {

class Link;

// One frame crossing a shard boundary: absolute delivery time, the
// canonical event key allocated on the egress side (so key accounting is
// identical to a locally delivered frame), and the packet itself.
struct ShardMsg {
  Time at;
  uint64_t key;
  Packet pkt;
};

// Mailbox for one direction of one boundary link. The egress shard's thread
// appends during a window; the orchestrator drains at the barrier via
// Link::InjectChannel. Never touched from two threads at once.
struct ShardChannel {
  Link* link = nullptr;
  bool forward = false;  // true: the link's a->b direction
  std::vector<ShardMsg> msgs;
};

class Link {
 public:
  // `pool` (may be null) backs the in-flight frame ring; Network passes its
  // per-network QueuePool so steady-state forwarding allocates nothing.
  Link(EventQueue* eq, Node* a, int port_a, Node* b, int port_b, Rate rate,
       Time propagation, QueuePool* pool = nullptr);

  // Begins serializing `p` out of node `from` (must be one of the endpoints
  // and that direction must be idle). On serialization end the link calls
  // from->OnTransmitComplete(port); on arrival, to->ReceivePacket(p, port).
  void Transmit(Node* from, const Packet& p);

  bool Busy(const Node* from) const { return dir(from).busy; }

  Rate rate() const { return rate_; }
  Time propagation() const { return propagation_; }

  // Wire time of `bytes` on this link.
  Time SerializationTime(Bytes bytes) const {
    return TransmissionTime(bytes, rate_);
  }

  // The endpoint opposite `n`.
  Node* Peer(const Node* n) const { return dir(n).to; }

  // The two attached endpoints (a is the node passed first at construction).
  Node* node_a() const { return fwd_.from; }
  Node* node_b() const { return rev_.from; }

  // Position in the owning Network's links() (assigned by Network::Connect;
  // -1 for a link built outside a Network). A dense key for per-link tables.
  int32_t index() const { return index_; }
  void set_index(int32_t index) { index_ = index; }

  // --- fault-injection hooks (driven by FaultInjector, src/fault) ---

  // Takes the link down / brings it back up (both directions). Going down
  // kills every frame still propagating — neither endpoint is told, exactly
  // like a yanked cable — and frames transmitted while down are blackholed
  // after serializing normally (the transmitter's MAC keeps clocking; the
  // simulator's nodes have no link-state awareness, matching NICs that need
  // go-back-N timeouts to notice).
  void SetUp(bool up);
  bool up() const { return up_; }

  // Installs a Bernoulli per-frame loss model on both directions: each frame
  // is independently dropped with `drop_p`, and a surviving frame is
  // corrupted with `corrupt_p` (a corrupted frame fails its FCS at the
  // receiving MAC and is discarded — same outcome, separate counter). Draws
  // come from `rng`, which must outlive the profile. Pass (0, 0, nullptr)
  // to clear.
  void SetLossProfile(double drop_p, double corrupt_p, Rng* rng);

  // Total frames / bytes that traversed each direction (telemetry).
  int64_t FramesSent(const Node* from) const { return dir(from).frames; }
  int64_t BytesSent(const Node* from) const { return dir(from).bytes; }
  // Frames killed by a down link or the loss profile, per direction.
  int64_t FramesLost(const Node* from) const { return dir(from).lost; }
  int64_t FramesCorrupted(const Node* from) const {
    return dir(from).corrupted;
  }

  // Structured event tracing (wire-level drops); null disables. Attaches
  // `tracer` to both directions; a sharded Network instead gives each
  // direction its egress shard's tracer via SetDirectionTracers.
  void SetTracer(telemetry::EventTracer* tracer) {
    fwd_.tracer = tracer;
    rev_.tracer = tracer;
  }
  void SetDirectionTracers(telemetry::EventTracer* fwd,
                           telemetry::EventTracer* rev) {
    fwd_.tracer = fwd;
    rev_.tracer = rev;
  }

  // --- sharded-engine wiring (called once by Network, before any traffic) --
  //
  // Rebinds the a->b direction onto `a_eq` (egress clock) delivering into
  // `b_eq`, and symmetrically for b->a. A non-null channel routes that
  // direction's deliveries through the barrier mailbox instead of a direct
  // schedule (pass channels only for cut links). In-flight rings re-home to
  // the *destination* shard's pool — arrival events pop on its thread.
  // `loss_seed` seeds the per-direction loss RNGs a later SetLossProfile
  // will create (shared injector RNGs would make draw order depend on shard
  // interleaving).
  void BindShardEngines(EventQueue* a_eq, EventQueue* b_eq, QueuePool* a_pool,
                        QueuePool* b_pool, ShardChannel* fwd_ch,
                        ShardChannel* rev_ch, uint64_t loss_seed);

  // Splices every message in `ch` (one of this link's channels) into the
  // direction's staged buffer and ensures ONE self-chaining delivery event
  // exists on the destination shard's queue — the barrier pays a single
  // schedule per channel per window instead of one per message. Each chain
  // event delivers its frame with the key fixed at egress, then schedules
  // the next, so event counts and canonical ordering are identical to
  // per-message scheduling. Called at the window barrier with all shards
  // quiescent; clears the channel. A live chain spans windows and picks
  // newly spliced messages up by itself.
  void InjectChannel(ShardChannel& ch);

  // True when nothing is serializing or propagating in either direction
  // (staged cross-shard frames count as propagating). The hybrid epoch
  // controller requires every link idle before fast-forwarding.
  bool Idle() const {
    return !fwd_.busy && !rev_.busy && fwd_.in_flight.empty() &&
           rev_.in_flight.empty() && fwd_.staged_next >= fwd_.staged.size() &&
           rev_.staged_next >= rev_.staged.size();
  }

 private:
  struct Direction {
    Node* from = nullptr;
    int from_port = -1;
    Node* to = nullptr;
    int to_port = -1;
    bool busy = false;
    int64_t frames = 0;
    int64_t bytes = 0;
    int64_t lost = 0;
    int64_t corrupted = 0;
    // Arrival events for frames still propagating, in FIFO arrival order
    // (serialization is sequential, so arrivals cannot reorder). SetUp(false)
    // cancels them.
    RingBuffer<EventHandle> in_flight;
    // Engine binding: `eq` is the egress side's queue (serialization events,
    // loss draws, trace timestamps); `dst_eq` the ingress side's (arrival
    // events). Identical except across a shard boundary.
    EventQueue* eq = nullptr;
    EventQueue* dst_eq = nullptr;
    ShardChannel* channel = nullptr;  // non-null: boundary direction
    // Cross-shard arrivals staged for chained delivery (boundary directions
    // only): [staged_next, size) awaits scheduling; the entry just below
    // staged_next is the chained-in head (its packet captured by value in
    // the pending event). Compacted at each barrier splice.
    std::vector<ShardMsg> staged;
    size_t staged_next = 0;
    telemetry::EventTracer* tracer = nullptr;
    std::unique_ptr<Rng> loss_rng;  // canonical mode only; see SetLossProfile
  };

  void KillInFlight(Direction& d);
  // Schedules the delivery event for staged[staged_next] (consuming it) and
  // files its handle in in_flight; the event delivers, then chains the next.
  void ScheduleChainHead(Direction& d);
  void TraceWireDrop(const Direction& d, const Packet& p);
  void Deliver(Direction& d, Time at, uint64_t key, const Packet& p);

  const Direction& dir(const Node* from) const {
    DCQCN_CHECK(from == fwd_.from || from == rev_.from);
    return from == fwd_.from ? fwd_ : rev_;
  }
  Direction& dir(const Node* from) {
    DCQCN_CHECK(from == fwd_.from || from == rev_.from);
    return from == fwd_.from ? fwd_ : rev_;
  }

  Rate rate_;
  Time propagation_;
  int32_t index_ = -1;
  bool up_ = true;
  bool canonical_ = false;  // BindShardEngines was called
  uint64_t loss_seed_ = 0;
  double drop_p_ = 0;
  double corrupt_p_ = 0;
  Rng* fault_rng_ = nullptr;
  Direction fwd_;
  Direction rev_;
};

}  // namespace dcqcn
