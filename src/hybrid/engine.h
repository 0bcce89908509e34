// Hybrid packet/flow-level simulation: fast-forward uncongested epochs.
//
// The packet-level engine spends hundreds of events per flow even when the
// fabric is idle — every MTU of a lone 64 KB transfer is serialized hop by
// hop although its completion time is a closed-form function of the path. At
// 10^6 flows that arithmetic is the difference between minutes and days.
//
// HybridEngine wraps Network::Run with an epoch controller that alternates
// two regimes:
//
//   * Packet mode — the unmodified engine, byte-identical. A periodic probe
//     (cfg.check_interval) evaluates the quiescence gate: no switch queue
//     above queue_frac * RED kmin (below kmin nothing marks, so packet-level
//     CC would receive no signal anyway), no PFC pause anywhere, no drops or
//     NAKs since the last probe, no fault active or within guard of its
//     boundary, and every active flow rate-based, single-message,
//     non-rewound, with a max-min allocation within eps of its policy rate
//     cap (the water-filling allocator, src/hybrid/allocator.h). When the
//     gate passes, the controller enters flow mode.
//
//   * Flow mode — data transmission is suspended on every NIC (control and
//     in-flight traffic keep running physically, so the wire drains itself
//     while the clock advances); each active flow's remaining packets are
//     advanced analytically from the frozen pacing clock: eligibility u0 =
//     max(next_allowed, now), inter-packet gap = wire time of an MTU at the
//     flow's effective rate, completion = last virtual send + store-and-
//     forward data latency + ACK return. The integer arithmetic mirrors
//     SenderQp pacing and Link::Transmit exactly, so on an uncongested
//     fabric with zero pacing jitter the analytic FCT equals the packet
//     engine's to the picosecond (tests/hybrid_test.cc pins this). The
//     epoch advances to the earliest of: analytic completion, any scheduled
//     packet-level event (workload arrivals, probes), a fault boundary
//     minus guard, or cfg.max_epoch. Flow arrivals during the epoch are
//     folded in analytically when the allocation stays feasible; anything
//     else — infeasibility, a window-based flow, a fault — exits flow mode:
//     survivors get a partial advance to the packets provably acknowledged
//     by the exit instant, CC policies are reseeded from the allocation,
//     and transmission resumes packet by packet.
//
// Costs and approximations (DESIGN §4k): epoch exit may discard up to one
// RTT of un-ACK-able progress per flow (the conservative partial advance);
// ACKs sharing a reverse-path link with data can be queued behind one
// serialization per hop, which the analytic model ignores. Both are bounded
// and only occur on the entry/exit seams, never during steady fast-forward.
// The allocator's capacity table holds one entry per full-duplex Link, so
// opposite-direction flows on one cable share it; that keeps most
// ACK-behind-data pairs in packet mode and holds the under-load FCT error
// inside its 5% contract (per-direction capacity cuts the sparse
// benchmark's events by about a third but breaks that contract).
//
// Controller cost scales with devices and modelled flows, not ports or
// links: the gate reads each switch's maintained PFC counts
// (pauses_outstanding / tx_paused_count) and each NIC's pause mask in O(1),
// links are keyed by their dense Link::index(), and the allocator visits
// only the links the modelled flows cross.
//
// Default off; `--hybrid` everywhere the runner is (single-queue mode only,
// not composable with --shards or --host).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "fault/fault_plan.h"
#include "hybrid/allocator.h"
#include "net/network.h"

namespace dcqcn::hybrid {

struct HybridConfig {
  // Probe period in packet mode; also the reseed horizon hint.
  Time check_interval = Microseconds(20);
  // A flow is "uncongested" when its max-min allocation >= (1-eps) * cap.
  double eps = 0.01;
  // Queue gate: every switch's shared occupancy must be <= queue_frac *
  // RED kmin (below kmin nothing marks, so CC sees no signal regardless).
  double queue_frac = 0.9;
  // Upper bound on a single flow-mode step with no other boundary in sight.
  Time max_epoch = Milliseconds(10);
  // Exit flow mode this long before any fault activation/heal boundary so
  // the transition executes under the packet engine.
  Time fault_guard = Microseconds(5);
  // Release per-flow NIC state (sender QP + receiver slot) once a flow
  // completes with an empty wire, recycling its id. Required for 10^6-flow
  // runs (tables stay bounded by concurrent flows); off by default because
  // released ids make post-run per-flow readouts impossible and id reuse
  // is only safe on loss-free fabrics.
  bool release_completed = false;
};

// Parses the `--hybrid[:k=v,...]` argument body. `spec` is "" / "on" for
// defaults, or a comma list: check=<us>, eps=<f>, queue_frac=<f>,
// max_epoch=<us>, guard=<us>, release=<0|1>. Returns false (and leaves
// *out untouched) on an unknown key or malformed value.
bool ParseHybridSpec(const std::string& spec, HybridConfig* out);

// Why a packet-mode probe stayed in packet mode: the first gate condition
// that failed, in evaluation order.
enum class RejectReason : uint8_t {
  kLoss,            // drops or NAKs since the previous probe
  kFaultWindow,     // a fault is active or within guard of a boundary
  kSwitchQueue,     // a switch's shared occupancy is above queue_frac * kmin
  kSwitchPfc,       // a switch has a PAUSE outstanding or is itself paused
  kHostPfc,         // a NIC is PFC-paused on some priority
  kSlowReceiver,    // a NIC carries a slow-receiver control delay
  kFlowShape,       // a flow is unstarted, unbounded, window-based,
                    // multi-message or rewound
  kNothingToElide,  // no flow has unsent data
  kInfeasible,      // some flow's allocation is below (1 - eps) * cap
  kCount,
};
inline constexpr size_t kNumRejectReasons =
    static_cast<size_t>(RejectReason::kCount);
// Stable snake_case name ("loss", "switch_pfc", ...) for counters.
const char* RejectReasonName(RejectReason r);

struct HybridStats {
  int64_t probes = 0;            // quiescence evaluations in packet mode
  int64_t entry_rejects = 0;     // probes failing the gate
  // entry_rejects split by RejectReason; the entries sum to entry_rejects.
  std::array<int64_t, kNumRejectReasons> rejects{};
  int64_t epochs = 0;            // flow-mode epochs entered
  int64_t ff_completions = 0;    // flows completed analytically
  int64_t ff_packets = 0;        // data packets elided (never simulated)
  Time ff_time = 0;              // simulated time spent in flow mode
  int64_t exits_infeasible = 0;  // epochs ended by a congesting arrival
  int64_t exits_fault = 0;       // epochs ended by a fault boundary
};

// One epoch controller per Network. Construct after topology wiring and
// before any StartFlow (it registers the flow observer and indexes the
// links); call Run() where Network::Run would be called, and keep the
// engine alive for as long as the Network runs. Single-queue networks only.
class HybridEngine {
 public:
  HybridEngine(Network* net, const HybridConfig& cfg,
               const FaultPlan* faults = nullptr);
  ~HybridEngine();

  HybridEngine(const HybridEngine&) = delete;
  HybridEngine& operator=(const HybridEngine&) = delete;

  // Advances the simulation to `deadline`, alternating packet and flow mode.
  // Returns packet-level events executed (flow-mode completions are free).
  uint64_t Run(Time deadline);

  const HybridStats& stats() const { return stats_; }

 private:
  // A flow whose remaining transmission is being advanced analytically.
  struct FfFlow {
    SenderQp* qp = nullptr;
    int flow_id = -1;
    uint64_t k0 = 0;    // first virtual sequence (snd_next at model time)
    uint64_t end = 0;   // send_limit
    Time u0 = 0;        // pacing eligibility of packet k0
    Time gap = 0;       // inter-packet pacing interval at `reff`
    Time comp = 0;      // analytic completion (final ACK back at sender)
    Time na_final = 0;  // pacing clock value after the last virtual send
    Time rtt_hint = 0;  // one-MTU path latency + ACK return
    Rate reff = 0;      // effective rate: policy cap clamped to path min
    std::vector<int32_t> link_idx;  // dense data-path links (allocator)
  };

  void OnFlowStarted(SenderQp* qp);
  // Deregisters (and optionally releases) completed flows. Runs lazily at
  // probe time rather than from a completion callback: completion callbacks
  // fire before the workload's own, which may immediately re-enqueue on the
  // same QP (closed-loop patterns) — a sweep sees the settled state.
  void SweepCompleted();

  // Packet-mode probe: evaluates the gate, enters flow mode on pass.
  void Probe();
  // The fabric half of the gate: empty when quiescent, else why not. O(1)
  // per switch and per NIC.
  std::optional<RejectReason> FabricQuiescent();
  // True if `t` falls inside any fault's [at - guard, end + guard) window.
  bool InFaultWindow(Time t) const;
  // Earliest future fault boundary (activation or heal) minus guard;
  // kTimeMax if none.
  Time NextFaultBoundary(Time after) const;

  // The flow half of the gate: empty when flow mode was entered.
  std::optional<RejectReason> TryEnterFlowMode();
  // One flow-mode step toward `deadline`; sets in_ff_ = false on exit.
  void StepFlowMode(Time deadline);
  void ExitFlowMode(Time t_exit, bool infeasible, bool fault);

  // Analytic model for one flow; returns false when the flow cannot be
  // modeled (window-based, multi-message, rewound, infeasible allocation).
  bool ModelFlow(SenderQp* qp);
  // Re-runs the allocator over the modeled set + optional candidate; true
  // when every allocation lands within eps of its cap.
  bool AllocationFeasible(const FfFlow* candidate) const;
  bool ProcessPendingArrivals();
  void ApplyDueCompletions(Time now);
  void CompleteFlow(size_t idx);

  Time PathDataLatency(const std::vector<Link*>& path, Bytes bytes) const;
  Time PathControlLatency(const std::vector<Link*>& path) const;

  Network* net_;
  HybridConfig cfg_;
  FaultPlan faults_;
  HybridStats stats_;

  // Allocator capacity per Link::index(): one entry per full-duplex cable,
  // shared by both directions (see the file comment).
  std::vector<Rate> link_capacity_;
  // ModelFlow's reusable forward/reverse path buffers.
  std::vector<Link*> path_;
  std::vector<Link*> rpath_;
  // AllocationFeasible's reusable demand list (entries past the current
  // call's count are stale), allocator working storage and result.
  mutable std::vector<AllocDemand> demand_scratch_;
  mutable AllocScratch alloc_scratch_;
  mutable AllocResult alloc_result_;

  // Registered flows: everything StartFlow announced that the lazy sweep
  // has not yet retired. reg_pos_: flow id -> index (-1 = absent).
  std::vector<SenderQp*> active_;
  std::vector<int32_t> reg_pos_;

  bool in_ff_ = false;
  Time ff_entry_ = 0;
  std::vector<FfFlow> ff_flows_;
  std::vector<int32_t> ff_pos_;  // flow id -> ff_flows_ index (-1 = absent)
  std::vector<SenderQp*> pending_arrivals_;

  // Loss-activity deltas between probes.
  int64_t last_drops_ = 0;
  int64_t last_naks_ = 0;

  uint64_t executed_ = 0;
};

}  // namespace dcqcn::hybrid
