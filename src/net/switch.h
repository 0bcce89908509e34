// Shared-buffer output-queued switch with PFC and RED/ECN.
//
// Models the Broadcom Trident II-style accounting the paper's §4 analyzes:
//
//  * One shared packet buffer (default 12 MB). A packet occupies buffer from
//    ingress arrival until its egress transmission completes.
//  * Per-(ingress port, priority) byte accounting drives PFC. When a queue
//    exceeds the (dynamic) PFC threshold, a PAUSE control frame is emitted on
//    that ingress port; RESUME is emitted when the queue falls 2 MTU below
//    the threshold. Per-(port, priority) *headroom* absorbs the bytes in
//    flight after a PAUSE so nothing is dropped.
//  * The dynamic threshold follows the Trident II formula:
//        t_PFC = beta * (B - 8*n*t_flight - s) / 8
//    with `s` the instantaneous shared-buffer occupancy. A static threshold
//    can be configured instead (the misconfiguration experiment, Fig. 18).
//  * Per-(egress port, priority) queues with strict-priority scheduling.
//    Arriving data packets are ECN-marked per the RED curve (Fig. 5) on the
//    instantaneous egress queue length — the paper's CP algorithm.
//  * PFC frames received on a port pause this switch's *transmission* on
//    that (port, priority). A frame whose serialization began is never
//    abandoned.
//
// With PFC disabled (Fig. 18 "DCQCN w/o PFC"), buffer overflow drops packets
// and the counters record it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/qcn.h"
#include "core/red_ecn.h"
#include "core/thresholds.h"
#include "net/link.h"
#include "net/node.h"
#include "net/packet.h"
#include "net/route_plan.h"
#include "sim/event_queue.h"
#include "sim/queue_pool.h"
#include "sim/ring_buffer.h"
#include "telemetry/event_trace.h"

namespace dcqcn {

struct SwitchConfig {
  // Chip-level buffer organization used for threshold arithmetic. The
  // accounting uses the chip's full port count (32) even when fewer ports
  // are wired, matching how a real switch reserves headroom.
  SwitchBufferSpec buffer;

  bool pfc_enabled = true;
  // Dynamic (Trident II) thresholding with this beta; if dynamic_pfc is
  // false, `static_pfc_threshold` is used instead.
  bool dynamic_pfc = true;
  double beta = 8.0;
  Bytes static_pfc_threshold = 0;
  // 0 = compute worst-case headroom from `buffer` (≈22.4 KB per the paper).
  Bytes headroom = 0;
  Bytes resume_offset = 2 * kMtu;

  // CP: RED/ECN marking curve applied to data packets on every egress queue.
  RedEcnConfig red = RedEcnConfig::Deployment();

  // QCN congestion point (802.1Qau), per egress queue. Feedback frames are
  // L2-scoped: this switch can notify a directly attached sender, but a
  // feedback frame crossing another switch is dropped (§2.3).
  QcnParams qcn;

  // Per-(egress port, priority) queue cap for *lossy* operation (PFC off).
  // Real shared-buffer chips bound each queue to a fraction of the free
  // shared pool even for lossy classes; without some cap a single incast
  // queue could monopolize the whole 12 MB buffer. 0 disables.
  Bytes lossy_egress_cap = 0;

  // 802.1Qbb pause-quanta realism (both default 0 = off, keeping the
  // idealized latching PAUSE/RESUME model that truly lossless wires
  // justify). With `pfc_pause_expiry` > 0 a received PAUSE only holds for
  // that long unless refreshed — the 65535-quanta ceiling is ~840 us at
  // 40 Gbps — and with `pfc_pause_refresh` > 0 this switch re-sends PAUSE
  // at that period while the pause condition persists, so a healthy peer
  // never expires mid-episode. Enable both (refresh < expiry) for fault
  // experiments: once links can eat a RESUME, a latching model stays
  // paused forever, which is not what real PFC does.
  Time pfc_pause_expiry = 0;
  Time pfc_pause_refresh = 0;

  void Validate() const {
    red.Validate();
    DCQCN_CHECK(beta > 0);
    DCQCN_CHECK(resume_offset >= 0);
    if (!dynamic_pfc) DCQCN_CHECK(static_pfc_threshold > 0);
    if (pfc_pause_expiry > 0 && pfc_pause_refresh > 0) {
      DCQCN_CHECK(pfc_pause_refresh < pfc_pause_expiry);
    }
  }
};

struct SwitchCounters {
  int64_t rx_packets = 0;
  int64_t tx_packets = 0;
  int64_t dropped_packets = 0;
  int64_t dropped_bytes = 0;
  int64_t ecn_marked_packets = 0;
  int64_t pause_frames_sent = 0;
  int64_t resume_frames_sent = 0;
  int64_t pause_frames_received = 0;
  int64_t qcn_feedback_sent = 0;
  // QCN frames that arrived from another switch and were dropped at the L3
  // boundary (the reason QCN cannot run over routed fabrics).
  int64_t qcn_feedback_dropped = 0;
  // Total picoseconds this switch's transmission spent paused, summed over
  // every (port, priority). Finalized on RESUME edges; PausedTimeTotal()
  // additionally includes the still-open pause episodes.
  int64_t paused_time_total = 0;
};

class SharedBufferSwitch : public Node {
 public:
  // `pool` (may be null) backs the egress and PFC packet rings; Network
  // passes its per-network QueuePool so steady-state forwarding allocates
  // nothing.
  SharedBufferSwitch(EventQueue* eq, Rng* rng, int id, int num_ports,
                     SwitchConfig config, QueuePool* pool = nullptr);
  ~SharedBufferSwitch() override;

  // Routing: equal-cost output ports toward a destination host, held as a
  // RouteTable (net/route_plan.h). ECMP picks among them by hashing the
  // flow's key with this switch's id. ShareRoutes reads a table owned
  // elsewhere (Network's shared RoutePlan) in place — it must outlive the
  // switch or the next ShareRoutes — and replaces any earlier routes.
  // SetRoutes interns `ports` and points every host in `dst_hosts` at it
  // (RouteTable::Set); on a shared table it first copies it, so an override
  // never reaches the table's other readers. SetRoute is its one-host case.
  // RouteTo returns the interned set.
  void ShareRoutes(const RouteTable& table);
  void SetRoutes(std::span<const int> dst_hosts, const std::vector<int>& ports);
  void SetRoute(int dst_host, const std::vector<int>& ports) {
    SetRoutes(std::span<const int>(&dst_host, 1), ports);
  }
  const std::vector<int>& RouteTo(int dst_host) const;
  bool HasRouteTo(int dst_host) const {
    return dst_host >= 0 &&
           static_cast<size_t>(dst_host) < route_group_size_ &&
           route_group_[static_cast<size_t>(dst_host)] != RouteTable::kNoRoute;
  }
  // Distinct port sets interned so far (overridden ones included).
  size_t route_group_count() const { return route_group_count_; }

  // The output port ECMP would pick for a flow with this key (exposed so
  // experiments can pre-compute path collisions, e.g. the Fig. 20 parking
  // lot scenario).
  int EcmpSelect(uint64_t ecmp_key, int dst_host) const;

  // Node interface.
  void ReceivePacket(const Packet& p, int in_port) override;
  void OnTransmitComplete(int port) override;

  // --- telemetry ---
  const SwitchCounters& counters() const { return counters_; }
  Bytes shared_occupancy() const { return shared_used_; }
  Bytes EgressQueueBytes(int port, int priority) const;
  Bytes IngressQueueBytes(int port, int priority) const;
  // Per-(egress port, priority) resolution of the switch-global counters:
  // RED/ECN marks and the high-watermark of the egress queue depth. Fig. 13's
  // "which queue marked" and Fig. 12's depth analyses want this locality.
  int64_t EcnMarked(int port, int priority) const;
  Bytes MaxQueueDepth(int port, int priority) const;
  // Structured event tracing; null (the default) disables it.
  void SetTracer(telemetry::EventTracer* tracer) { tracer_ = tracer; }
  bool PauseSent(int port, int priority) const;
  bool TxPaused(int port, int priority) const;
  // Maintained counts of (port, priority) pairs with PauseSent / TxPaused
  // set — what a whole-switch "any PFC activity?" query reads in O(1)
  // instead of scanning every port and priority.
  int pauses_outstanding() const { return pauses_outstanding_; }
  int tx_paused_count() const { return tx_paused_count_; }
  // Cumulative time this (port, priority)'s transmission has spent paused,
  // including the currently open episode — what pause-storm detection and
  // Fig. 15-style "where did pauses propagate" analyses integrate over.
  Time PausedTimeTotal(int port, int priority) const;
  // Sum of PausedTimeTotal over all (port, priority) pairs.
  Time PausedTimeTotalAll() const;
  // Current PFC threshold given the instantaneous occupancy.
  Bytes CurrentPfcThreshold() const;
  Bytes headroom_per_queue() const { return headroom_; }
  const SwitchConfig& config() const { return config_; }

  // --- fault-injection hook (FaultInjector, src/fault) ---
  // Caps the chip's buffer at `bytes` at runtime: admission uses the shrunk
  // shared pool and the dynamic PFC threshold sees the shrunk B term, so
  // PAUSE fires earlier — modeling firmware/config faults that steal buffer.
  // Already-admitted bytes are never evicted; the pool shrinks as they
  // drain. `bytes <= 0` restores the configured capacity.
  void SetSharedBufferOverride(Bytes bytes);

 private:
  struct StoredPacket {
    Packet pkt;
    int in_port;
    bool in_headroom;  // charged to headroom rather than shared pool
  };

  // Everything OnTransmitComplete needs to release the serializing packet's
  // buffer share — 16 bytes per port instead of a full StoredPacket copy on
  // every transmission.
  struct InFlightRelease {
    Bytes size_bytes = 0;
    int32_t in_port = -1;
    int8_t priority = 0;
    bool in_headroom = false;
    bool active = false;
  };

  void TrySend(int port);
  void AdmitAndEnqueue(const Packet& p, int in_port, int out_port);
  void ReleaseBuffer(const InFlightRelease& rel);
  void CheckPause(int in_port, int priority);
  void CheckPauseAll();
  void CheckResumeAll();
  void SendPfcFrame(int port, int priority, bool pause);
  void ArmPauseRefresh(int port, int priority);
  void SetTxPaused(int port, int priority, bool paused);
  // Effective shared-pool capacity / chip buffer size under the fault
  // override (equal to the configured values when no override is active).
  Bytes SharedCapacity() const;
  Bytes EffectiveTotalBuffer() const;

  EventQueue* eq_;
  Rng* rng_;
  SwitchConfig config_;
  Bytes headroom_;
  Bytes reserved_headroom_;  // priorities*ports*headroom (0 if PFC off)
  Bytes shared_capacity_;    // B - reserved_headroom_
  Bytes buffer_override_ = 0;  // fault injection; 0 = none

  // Hot per-(port, priority) accounting, packed into one struct so a
  // packet's admission touches two cache lines — its ingress entry and its
  // egress entry — instead of seven parallel [port][priority] tables. At
  // large-Clos scale (tens of switches x 32+ ports) the parallel-table
  // layout blew the cache on every forwarded packet.
  struct PqState {
    Bytes egress_bytes = 0;
    Bytes ingress_bytes = 0;
    Bytes headroom_used = 0;
    Bytes max_egress_depth = 0;
    int64_t ecn_marks = 0;
    bool pause_sent = false;
    bool tx_paused = false;
  };
  PqState& Pq(int port, int priority) {
    return pq_[static_cast<size_t>(port) * kNumPriorities +
               static_cast<size_t>(priority)];
  }
  const PqState& Pq(int port, int priority) const {
    return pq_[static_cast<size_t>(port) * kNumPriorities +
               static_cast<size_t>(priority)];
  }

  // Every per-port and per-(port, priority) array below is its own
  // contiguous array, carved out of one allocation made at construction:
  // PlacePortArrays runs once with no block to sum the bytes, then once
  // more to construct each array in place.
  struct PortBlock {
    std::byte* base = nullptr;  // null while sizing
    size_t bytes = 0;
    template <typename T>
    std::span<T> Place(size_t n);
  };
  void PlacePortArrays(PortBlock& block, size_t ports);
  std::unique_ptr<std::byte[]> port_block_;

  // Indexed [port][priority].
  std::span<std::array<RingBuffer<StoredPacket>, kNumPriorities>> egress_;
  std::span<PqState> pq_;  // [port * kNumPriorities + priority]
  // Per-port priority bitmasks mirroring egress_ emptiness and PqState
  // tx_paused: TrySend picks the first sendable priority with one ctz
  // instead of probing eight ring buffers.
  static_assert(kNumPriorities <= 8, "priority masks are uint8_t");
  std::span<uint8_t> egress_nonempty_;
  std::span<uint8_t> tx_paused_mask_;
  // Count of (port, priority) pairs with pause_sent set, so the per-release
  // CheckResumeAll scan is skipped entirely in the common unpaused state.
  int pauses_outstanding_ = 0;
  // Count of (port, priority) pairs with tx_paused set; SetTxPaused is the
  // only writer of tx_paused, so it keeps this exact.
  int tx_paused_count_ = 0;
  // Paused-time integration per (port, priority): closed episodes accumulate
  // into `paused_accum_`; `paused_since_` stamps the open episode.
  std::span<std::array<Time, kNumPriorities>> paused_accum_;
  std::span<std::array<Time, kNumPriorities>> paused_since_;
  // Pause-quanta timers (only armed when the expiry/refresh knobs are on):
  // expiry of a received PAUSE, and periodic re-PAUSE of a sent one.
  std::span<std::array<EventHandle, kNumPriorities>> rx_pause_expiry_;
  std::span<std::array<EventHandle, kNumPriorities>> pause_refresh_;

  // QCN congestion-point state per (egress port, priority).
  std::span<std::array<QcnCp, kNumPriorities>> qcn_cp_;

  // PFC frames awaiting transmission, per port (sent ahead of all data).
  std::span<RingBuffer<Packet>> pfc_out_;
  // Release record for the buffered packet currently serializing on each
  // port (`active` false when the port is idle or sending a PFC frame).
  std::span<InFlightRelease> in_flight_;

  Bytes shared_used_ = 0;
  // The routes RouteTo reads: a shared table's arrays, or own_routes_'s
  // once SetRoutes wrote. Raw pointers, so a lookup costs the loads that
  // vector members did.
  void PointRoutesAt(const RouteTable& table);
  const uint16_t* route_group_ = nullptr;  // dst host -> group id
  size_t route_group_size_ = 0;
  const std::vector<int>* route_groups_ = nullptr;  // distinct port sets
  size_t route_group_count_ = 0;
  bool routes_shared_ = false;
  RouteTable own_routes_;
  SwitchCounters counters_;
  telemetry::EventTracer* tracer_ = nullptr;
};

}  // namespace dcqcn
