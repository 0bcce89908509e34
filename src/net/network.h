// Network: owns the event engine(s), RNG, all nodes and links, computes ECMP
// routing tables, and provides flow management helpers.
//
// Two execution modes:
//
//  * Default (seed-only constructor): one EventQueue runs everything, with
//    the historical (time, sequence) FIFO ordering — byte-identical to every
//    pre-sharding binary.
//  * Sharded (constructed with a ShardPlan): conservative parallel DES.
//    Each shard owns an EventQueue/TimerWheel/QueuePool and the nodes the
//    plan assigns to it; links crossing shards deliver through ShardChannel
//    mailboxes. Run() executes barrier-synchronized windows of length
//    lookahead() = the minimum link propagation: within a window shards
//    cannot interact (every cross-shard delivery lands beyond the window
//    end), so they run on parallel threads. The coordinator queue (eq())
//    carries everything that is not a single node's business — workload
//    patterns, fault injection, probes — and runs each window *before* the
//    shards, so its actions land at window granularity. Canonical event
//    keys (sim/event_queue.h) make the result byte-identical for every
//    shard count >= 1; the sharded family differs from the default engine
//    only in the documented window-quantization deltas (DESIGN §4j).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "net/link.h"
#include "net/shard.h"
#include "net/switch.h"
#include "nic/rdma_nic.h"
#include "sim/event_queue.h"
#include "sim/queue_pool.h"
#include "telemetry/event_trace.h"

namespace dcqcn {

class Network {
 public:
  explicit Network(uint64_t seed = 1) : seed_(seed), rng_(seed) {}

  // Sharded mode: `plan` (which must be ok) fixes every node's shard before
  // any AddSwitch/AddHost call; nodes must be created in plan id order (the
  // topology builders already do). shards=1 runs the same canonical engine
  // inline with no threads — the determinism baseline for shards=N.
  Network(uint64_t seed, const ShardPlan& plan);

  // The coordinator queue in sharded mode; the only queue otherwise. Always
  // safe to schedule on from setup code, fault plans, probes and workload
  // patterns — in sharded mode those callbacks run between windows.
  EventQueue& eq() { return eq_; }
  Rng& rng() { return rng_; }
  // Shared storage pool behind every switch/link/NIC packet ring in this
  // network (telemetry: pool().allocated_blocks() flat-lines once warm).
  // Sharded mode uses per-shard pools instead; this one stays for
  // coordinator-side consumers.
  QueuePool& pool() { return pool_; }

  bool sharded() const { return !shards_.empty(); }
  int num_shards() const {
    return sharded() ? static_cast<int>(shards_.size()) : 1;
  }
  // Conservative lookahead = window length: the minimum propagation delay
  // over all links. Only meaningful in sharded mode, after wiring.
  Time lookahead() const { return quantum_; }
  // Boundary-link mailboxes (two per cut link, one per direction).
  size_t num_channels() const { return channels_.size(); }

  SharedBufferSwitch* AddSwitch(int num_ports, const SwitchConfig& cfg);
  RdmaNic* AddHost(const NicConfig& cfg);

  Link* Connect(Node* a, int port_a, Node* b, int port_b, Rate rate,
                Time propagation);

  // Computes shortest-path routes from every switch toward every host, with
  // all equal-cost next hops retained for ECMP. Call after wiring.
  void BuildRoutes();

  // Registers a flow on its source NIC. Assigns a flow id if spec.flow_id
  // is negative. Returns the sender QP.
  SenderQp* StartFlow(FlowSpec spec);
  // Fresh flow id: recycled (see ReleaseFlow) if any are free, else the next
  // sequential counter value. Without ReleaseFlow callers this is exactly
  // the historical sequential counter.
  int NextFlowId() {
    if (!free_flow_ids_.empty()) {
      const int id = free_flow_ids_.back();
      free_flow_ids_.pop_back();
      return id;
    }
    return next_flow_id_++;
  }

  // --- hybrid fast-forward seam (src/hybrid) ---

  // Observer invoked on every StartFlow, after the sender QP exists. The
  // epoch controller uses it to fold arrivals that fire mid-epoch into the
  // flow-level allocation. At most one observer (null clears).
  void SetFlowObserver(std::function<void(SenderQp*)> cb) {
    flow_observer_ = std::move(cb);
  }
  // The ordered links a flow's data path traverses src -> dst, resolved
  // with the same per-switch ECMP hash the wire uses, written into the
  // caller-owned `*path` (cleared first, so a reused buffer allocates
  // nothing). Deterministic; used by the flow-level max-min allocator.
  void FlowPathLinks(const FlowSpec& spec, std::vector<Link*>* path) const;

  // Releases all per-NIC state of a completed flow (sender QP + receiver
  // slot) and recycles its id for a future StartFlow. Deferred to a
  // zero-delay event: completion callbacks run deep inside the QP being
  // released. Callers must guarantee no packets for the id remain in
  // flight (the hybrid controller releases only with the wire drained).
  // Opt-in — nothing in the default engine calls this — and the reason
  // dense flow tables stay bounded by *concurrent* flows in 10^6-flow runs.
  void ReleaseFlow(const FlowSpec& spec);

  const std::vector<std::unique_ptr<SharedBufferSwitch>>& switches() const {
    return switches_;
  }
  const std::vector<std::unique_ptr<RdmaNic>>& hosts() const { return nics_; }
  const std::vector<std::unique_ptr<Link>>& links() const { return links_; }
  RdmaNic* host(int node_id) const;
  // The switch with this node id, or nullptr.
  SharedBufferSwitch* FindSwitch(int node_id) const;
  // The link connecting the two node ids (in either order), or nullptr.
  // Fault plans name links this way — endpoint ids are stable under the
  // deterministic topology builders, unlike construction order indices.
  Link* FindLink(int node_a, int node_b) const;

  // Runs the simulation to `deadline` (the window loop in sharded mode, a
  // plain RunUntil otherwise). Returns events executed, coordinator
  // included — a count that is invariant across shard counts.
  uint64_t Run(Time deadline);
  void RunFor(Time duration) { Run(eq_.Now() + duration); }
  void RunUntil(Time deadline) { Run(deadline); }

  // Flow-completion chokepoint. Default mode registers `cb` on every
  // existing NIC (invoked inline at completion, exactly as before this hook
  // existed). Sharded mode spools completions per shard and replays them to
  // every handler at the window barrier, sorted by (finish_time, flow_id) —
  // an order independent of the shard count. Call after all AddHost calls.
  void AddCompletionHandler(std::function<void(const FlowRecord&)> cb);

  // Aggregate counters across all switches.
  int64_t TotalPauseFramesSent() const;
  int64_t TotalDrops() const;
  // Total paused transmission time across every switch (port, priority),
  // including still-open pause episodes — the Fig. 15-style "how much of the
  // fabric was stalled" measure fault experiments report.
  Time TotalPausedTime() const;
  // Aggregate counters across all NICs.
  int64_t TotalCnpsSent() const;
  int64_t TotalNaks() const;
  int64_t TotalOutOfOrderPackets() const;

  // --- structured event tracing ---
  // Creates the tracer (ring of `capacity` records) and attaches it to every
  // existing and future switch, NIC and link. Idempotent on capacity match;
  // calling again with a different capacity restarts with a fresh ring.
  // Sharded mode gives every shard its own ring of the same capacity (nodes
  // record to their shard's ring; the coordinator ring takes fault/probe
  // markers) and merges on export.
  telemetry::EventTracer* EnableTracing(
      size_t capacity = telemetry::kDefaultTraceCapacity);
  // Null until EnableTracing(). The coordinator ring in sharded mode.
  telemetry::EventTracer* tracer() const { return tracer_.get(); }
  // Chrome trace-event JSON of the retained records, with node tracks
  // labeled "switch N" / "host N". Empty string when tracing is off. The
  // sharded merge is shard-count-invariant as long as no ring overflowed.
  std::string ExportChromeTrace() const;

 private:
  struct Adjacency {
    Node* peer = nullptr;
    int local_port = -1;
  };

  // One shard's private engine. Only its owning thread touches `eq`/`pool`
  // during a window; the orchestrating thread owns everything between
  // windows (the barrier is the hand-off).
  struct NetShard {
    EventQueue eq;
    QueuePool pool;
    std::unique_ptr<telemetry::EventTracer> tracer;
    // Flow completions this shard's NICs reported during the current
    // window; replayed in canonical order at the barrier.
    std::vector<FlowRecord> completions;
    uint64_t executed = 0;
  };

  uint64_t RunWindows(Time deadline);
  Time NextWindowEnd(Time w, Time deadline) const;
  void RunShardWindow(NetShard& sh, Time end);
  // Barrier work: inject every channel's messages into its destination
  // queue, then replay spooled completions sorted by (finish_time, flow_id).
  void DrainWindow();
  void DrainReleases();
  telemetry::EventTracer* ShardTracerOf(int node_id) const;

  uint64_t seed_;
  EventQueue eq_;
  Rng rng_;
  // Declared before the node containers: the rings inside switches/links/
  // NICs release their blocks into the pools on destruction, so pools must
  // outlive them (destruction runs in reverse declaration order). The
  // per-shard pools live inside shards_, likewise declared first.
  QueuePool pool_;
  std::deque<NetShard> shards_;  // empty = default single-queue mode
  ShardPlan plan_;
  SpawnContext root_ctx_;  // canonical-key source shared by all queues
  // Per-switch RED/QCN sampling streams (sharded mode): a shared rng_ would
  // make marking draw order depend on thread interleaving. Deque: stable
  // addresses across AddSwitch calls.
  std::deque<Rng> switch_rngs_;
  std::vector<std::unique_ptr<ShardChannel>> channels_;
  Time quantum_ = 0;
  std::vector<std::function<void(const FlowRecord&)>> completion_handlers_;
  std::vector<FlowRecord> completion_scratch_;
  int next_node_id_ = 0;
  int next_flow_id_ = 0;
  std::function<void(SenderQp*)> flow_observer_;
  std::vector<int> free_flow_ids_;
  std::vector<FlowSpec> pending_release_;
  bool release_armed_ = false;
  std::vector<std::unique_ptr<SharedBufferSwitch>> switches_;
  std::vector<std::unique_ptr<RdmaNic>> nics_;
  // Dense node-id indexes (nullptr for the other kind): host()/FindSwitch()
  // are O(1), which matters once completions and path computations run per
  // flow at 10^6-flow scale.
  std::vector<RdmaNic*> nic_by_id_;
  std::vector<SharedBufferSwitch*> switch_by_id_;
  std::vector<std::unique_ptr<Link>> links_;
  // node id -> list of (peer, local port)
  std::vector<std::vector<Adjacency>> adj_;
  std::vector<Node*> nodes_;  // node id -> node
  std::unique_ptr<telemetry::EventTracer> tracer_;
  // Per-round state for the worker threads; writes on one side of a barrier
  // arrival are visible on the other (std::barrier synchronizes-with).
  Time window_end_ = 0;
  bool stop_ = false;
};

}  // namespace dcqcn
