// HostPathDevice: message-level model of one host's verbs/NIC front end —
// the "last mile" between an application posting work requests and the
// wire-side transport (SenderQp) this simulator already had.
//
// What is modeled, per work request (Snippet-2 / smart-NIC shape):
//
//   post ──► [SQ admission] ──► [doorbell batch] ──► [PCIe + caches] ──► launch
//                 │                    │                    │
//                 │ SQ full: the app   │ batch fills or     │ descriptor fetch,
//                 │ blocks (backlog),  │ flush timer rings  │ QP/MR context
//                 │ admitted on a      │ the doorbell       │ lookups (LRU; a
//                 │ completion         │                    │ miss = ICM fetch
//                 │                    │                    │ serialized on one
//                 │                    │                    │ context engine),
//                 │                    │                    │ payload DMA
//   wire complete ──► [CQE DMA + poll latency] ──► completion visible
//
// "Launch" hands the message to the wire (VerbsWorkloadHost starts the
// flow / enqueues on the warm QP at that instant); the device never touches
// the Network itself. All costs are deterministic frontier arithmetic plus
// event-queue callbacks — no RNG — so runs replay bit-identically and the
// runner's jobs=1 == jobs=8 contract holds.
//
// The collapse mechanisms this enables (bench/ext_hostpath):
//   * QP/MR context-cache thrash: active QPs beyond qp_cache_entries turn
//     every lookup into a serialized ICM fetch — goodput falls off a cliff
//     while the fabric itself is idle.
//   * Doorbell/PCIe pressure: small messages at high rate saturate the
//     per-WR descriptor + doorbell budget.
//   * SQ depth: more outstanding WRs than sq_depth block the app.
//   * Slow host (fault composition): RdmaNic::SetControlDelay forwards to
//     SetDrainDelay, stretching doorbell service — the fault injector's
//     slow-receiver plans now also stall the victim's own sends.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.h"
#include "host/host_config.h"
#include "host/lru_cache.h"
#include "host/pcie.h"
#include "sim/event_queue.h"
#include "stats/stats.h"

namespace dcqcn {
namespace telemetry {
class MetricRegistry;
}  // namespace telemetry

namespace host {

// Monotonic device counters plus per-verb completion-latency distributions.
// Closure invariants (asserted in tests/host_path_test.cc):
//   wr_posted == wr_launched + wr_retired + (in SQ/backlog at end)
//   doorbells == ceil-batched post groups; with doorbell_batch == 1,
//     doorbells == wr_posted
//   qp_hits + qp_misses == qp_lookups (same for mr_*)
struct HostPathStats {
  int64_t wr_posted = 0;
  int64_t wr_launched = 0;
  int64_t wr_completed = 0;   // CQE delivered
  int64_t wr_retired = 0;     // launch declined (emission stopped)
  int64_t posted_by_verb[3] = {0, 0, 0};
  int64_t doorbells = 0;
  int64_t sq_stalls = 0;      // posts that hit a full SQ and backlogged
  Cdf verb_lat_us[3];         // post -> CQE, per verb
  Cdf launch_delay_us;        // post -> launch (host-side injection delay)
};

class HostPathDevice {
 public:
  // `node_id` is the owning NIC's node id (telemetry labeling only).
  HostPathDevice(EventQueue* eq, const HostPathConfig& cfg, int node_id);

  // Allocates a QP context. `ctx_id` names the QP; its paired MR context
  // (registered buffer) shares the id. Ids are small non-negative ints —
  // VerbsWorkloadHost uses the network flow id — and need not be dense on
  // one device: contexts live in a device-local table, and the QP/MR caches
  // key on the local index.
  void CreateQp(int ctx_id);

  // Posts a WR on `ctx_id` (must exist via CreateQp). When every host-side
  // cost has been charged, `launch` runs at the launch instant; it returns
  // true when the message actually entered the wire (false = emission
  // stopped, the device retires the WR immediately and will not expect a
  // wire completion). Per-QP launches are FIFO in post order.
  void Post(int ctx_id, Verb verb, Bytes bytes,
            std::function<bool()> launch);

  // Wire-side completion of the OLDEST launched-and-uncompleted WR on
  // `ctx_id`. After the CQE DMA + poll latency, the completion is recorded
  // (per-verb latency sample), the SQ slot freed (admitting backlog), and
  // `done` runs — VerbsWorkloadHost notifies the pattern there.
  void OnWireComplete(int ctx_id, std::function<void()> done);

  // Extra per-doorbell service delay (slow-host fault composition; see
  // RdmaNic::SetControlDelay). 0 restores normal drain.
  void SetDrainDelay(Time delay) { drain_delay_ = delay; }
  Time drain_delay() const { return drain_delay_; }

  int node_id() const { return node_id_; }
  const HostPathConfig& config() const { return cfg_; }
  const HostPathStats& stats() const { return stats_; }
  const LruCtxCache& qp_cache() const { return qp_cache_; }
  const LruCtxCache& mr_cache() const { return mr_cache_; }
  const PcieBus& pcie() const { return pcie_; }
  // WRs posted but not yet completed/retired, across all QPs.
  int64_t in_flight() const {
    return stats_.wr_posted - stats_.wr_completed - stats_.wr_retired;
  }

 private:
  struct Wr {
    int qp = -1;  // device-local context index
    Verb verb = Verb::kWrite;
    Bytes bytes = 0;
    Time posted = 0;
    std::function<bool()> launch;
  };

  // FIFO of WRs whose deque is created on first push. An unused FIFO
  // allocates nothing and every FIFO moves noexcept (a bare libstdc++
  // deque does neither), so the context table grows by cheap moves.
  class WrFifo {
   public:
    bool empty() const { return q_ == nullptr || q_->empty(); }
    Wr& front() { return q_->front(); }
    void push_back(Wr wr) {
      if (q_ == nullptr) q_ = std::make_unique<std::deque<Wr>>();
      q_->push_back(std::move(wr));
    }
    void pop_front() { q_->pop_front(); }

   private:
    std::unique_ptr<std::deque<Wr>> q_;
  };

  struct QpCtx {
    // posted-or-launched and not yet completed/retired (SQ occupancy).
    int sq_used = 0;
    // Launch-order FIFO of (verb, posted) for wire-completion matching.
    WrFifo inflight;
    // Posts blocked on a full SQ, admitted as completions free slots.
    WrFifo backlog;
    Time last_launch = 0;  // per-QP launch FIFO frontier
  };
  static_assert(std::is_nothrow_move_constructible_v<QpCtx>);

  // Device-local index of context `ctx_id` (must exist via CreateQp).
  int LocalIndex(int ctx_id) const;
  // SQ admission: batch the WR (possibly ringing the doorbell) or backlog
  // it when the QP's SQ is full.
  void Admit(Wr wr);
  void JoinBatch(Wr wr);
  // Charges doorbell + per-WR PCIe/cache costs for the open batch and
  // schedules each WR's launch. Cancels any pending flush.
  void RingDoorbell();
  void LaunchAt(Time at, Wr wr);
  // Admits the oldest backlogged WR of `q`, if any, into the freed SQ slot.
  void AdmitBacklog(QpCtx& q);

  EventQueue* eq_;
  const HostPathConfig cfg_;
  const int node_id_;
  std::vector<int32_t> local_;  // ctx id -> local index, -1 = none
  std::vector<QpCtx> qps_;      // local index -> context, creation order
  LruCtxCache qp_cache_;
  LruCtxCache mr_cache_;
  PcieBus pcie_;
  // ICM context-fetch engine: one fetch at a time (frontier).
  Time ctx_engine_ready_ = 0;
  // Open doorbell batch, in post order.
  std::vector<Wr> batch_;
  EventHandle flush_;
  bool flush_armed_ = false;
  Time drain_delay_ = 0;
  HostPathStats stats_;
};

// Exports one device's counters/caches/distributions as host.* metrics
// labeled with the device's node id (host.wr_posted, host.doorbells,
// host.qp_hits/qp_misses, host.pcie_busy_ps, host.write_lat_us, ...).
void ExportHostMetrics(const HostPathDevice& dev,
                       telemetry::MetricRegistry* registry);

}  // namespace host
}  // namespace dcqcn
