// Simulated RDMA NIC (one uplink port).
//
// The NIC owns sender QPs and receiver flow state, schedules the uplink
// among QPs (round robin over eligible flows, control traffic first), honors
// PFC PAUSE from the top-of-rack switch, and implements the receiver-side
// duties: go-back-N ACK/NAK generation, DCTCP ECN echo, and the DCQCN NP
// (CNP generation, paced per flow and gated NIC-wide like the ConnectX-3
// CNP engine).
//
// Scale-out hot path:
//   * DCQCN timers are batched per NIC. QPs arm embedded QpTimerNodes on a
//     per-NIC (deadline, arm_seq) min-heap; the NIC keeps a single tick
//     event at the head deadline and one tick services every due QP in
//     (deadline, arm order) — firmware-style QP iteration instead of one
//     event-queue entry per flow per timer. Thousands of flows cost one
//     pending event per NIC.
//   * Flow lookup goes through the Network's one FlowDirectory (below): a
//     flow id indexes a 16-byte entry naming its sender QP and its receiver
//     slot, so per-flow state costs O(flow), not O(flows x hosts). Each NIC
//     keeps only the flows it sends (qps_) and receives (a packed store).
//   * Data arbitration visits only QPs with unsent data. A bitmap over the
//     QP table, kept by the QPs themselves, marks them; the round-robin scan
//     walks its set bits, so a send costs O(QPs with data), not O(QPs).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/units.h"
#include "core/np.h"
#include "core/params.h"
#include "net/link.h"
#include "net/node.h"
#include "nic/flow.h"
#include "nic/nic_config.h"
#include "nic/sender_qp.h"
#include "sim/event_queue.h"
#include "sim/queue_pool.h"
#include "sim/ring_buffer.h"
#include "telemetry/event_trace.h"

namespace dcqcn {
namespace host {
class HostPathDevice;
}  // namespace host

// Network-wide flow directory: flow id -> the flow's sender QP, its
// receiving NIC and that NIC's receiver-store slot. One per Network, sized
// by Network::StartFlow — on the coordinator in sharded mode, so it never
// grows inside a window. During a window a NIC writes only the receiver
// slot of flows it receives; every other field changes between windows.
// Lookups check ownership: a NIC answers only for the flows it sends or
// receives, so a stray frame for another NIC's flow finds nothing.
class FlowDirectory {
 public:
  struct Entry {
    SenderQp* qp = nullptr;  // owned by the source NIC; null = none
    int32_t dst = -1;        // receiving NIC's node id
    int32_t rcv_slot = -1;   // index into the dst NIC's store; -1 = none
  };

  // Sanity bound: flow ids are small counters handed out by
  // Network::NextFlowId (or test-chosen small ints), never sparse 32-bit
  // values. A wild id would silently allocate gigabytes; assert instead.
  static constexpr int kMaxFlowId = 1 << 22;

  // The entry for `flow_id`, or null when no flow ever had the id.
  Entry* Find(int flow_id) {
    const auto fid = static_cast<size_t>(flow_id);
    return flow_id >= 0 && fid < entries_.size() ? &entries_[fid] : nullptr;
  }
  const Entry* Find(int flow_id) const {
    return const_cast<FlowDirectory*>(this)->Find(flow_id);
  }
  // Registers `spec` (flow_id >= 0) with its destination, growing the table
  // to cover the id. The sender QP is filled in by the source NIC.
  // CHECK-fails, naming the id and both flows' hosts, when the id still
  // belongs to a flow whose state has not been released.
  void Claim(const FlowSpec& spec);

 private:
  std::vector<Entry> entries_;
};

struct NicCounters {
  int64_t data_packets_sent = 0;
  int64_t data_packets_received = 0;
  int64_t marked_packets_received = 0;
  int64_t cnps_sent = 0;
  int64_t acks_sent = 0;
  int64_t naks_sent = 0;
  int64_t pause_frames_received = 0;
  // PAUSE frames this NIC emitted — nonzero only under the fault injector's
  // babbling-NIC pause storm (healthy hosts in these experiments never
  // pause their ToR).
  int64_t pause_frames_sent = 0;
  int64_t out_of_order_packets = 0;
};

class RdmaNic : public Node {
 public:
  // `pool` (may be null) backs the control/PFC transmit rings; Network
  // passes its per-network QueuePool so steady-state operation allocates
  // nothing. `host_eq` (may be null = `eq`) is the queue the host-path
  // device schedules on: a sharded Network passes its coordinator queue so
  // verbs/doorbell closures — which call back into the shared workload host
  // — run between windows instead of on a shard thread.
  //
  // `flows` is the owning Network's flow directory; it must outlive the NIC.
  RdmaNic(EventQueue* eq, int id, NicConfig config, FlowDirectory* flows,
          QueuePool* pool = nullptr, EventQueue* host_eq = nullptr);
  ~RdmaNic() override;

  // Creates a sender QP for `spec` (src_host must be this NIC, and the id
  // claimed in the directory) and schedules its start. Returns a non-owning
  // pointer valid until RemoveFlow or the NIC's destruction.
  SenderQp* AddFlow(const FlowSpec& spec);

  // Node interface.
  void ReceivePacket(const Packet& p, int in_port) override;
  void OnTransmitComplete(int port) override;

  // --- called by SenderQp ---
  void OnQpActivated(SenderQp* qp);  // eligibility may have changed
  // Marks whether the QP at `slot` of the QP table has unsent data.
  void SetQpUnsent(uint32_t slot, bool unsent) {
    const uint64_t bit = uint64_t{1} << (slot & 63);
    uint64_t& word = unsent_[slot >> 6];
    word = unsent ? word | bit : word & ~bit;
  }
  void OnMessageComplete(SenderQp* qp, const FlowRecord& rec);
  EventQueue* eq() { return eq_; }

  // (Re)arms a QP's embedded timer node to fire at `deadline`, filing it in
  // the NIC's per-NIC timer heap and moving the batched tick earlier if
  // needed. O(log armed timers on this NIC).
  void ArmQpTimer(QpTimerNode* node, Time deadline);
  // Removes an armed node in O(log n); no-op when idle. A now-stale tick
  // event is left to fire spuriously (it services nothing and re-arms from
  // the head).
  void CancelQpTimer(QpTimerNode* node);

  // Completion callbacks (flow records are also retained internally); any
  // number of observers may register.
  void AddCompletionCallback(std::function<void(const FlowRecord&)> cb) {
    completion_cbs_.push_back(std::move(cb));
  }

  // --- telemetry ---
  Rate line_rate() const;
  const NicCounters& counters() const { return counters_; }
  const std::vector<FlowRecord>& completed_flows() const { return completed_; }
  // Bytes delivered in order to this NIC for `flow_id` (receiver side); 0
  // for a flow this NIC does not receive.
  Bytes ReceiverDeliveredBytes(int flow_id) const;
  // This NIC's sender QP for `flow_id`, or null (no such flow, or another
  // NIC sends it).
  SenderQp* FindQp(int flow_id) const;
  const NicConfig& config() const { return config_; }
  bool TxPaused(int priority) const {
    return (tx_paused_mask_ >> priority) & 1u;
  }
  // True when PFC pauses this NIC's transmission on any priority.
  bool AnyTxPaused() const { return tx_paused_mask_ != 0; }
  // Structured event tracing; propagates to existing and future sender QPs.
  void SetTracer(telemetry::EventTracer* tracer);

  // --- hybrid fast-forward seam (src/hybrid) ---

  // Suspends data transmission (control/PFC unaffected) so the epoch
  // controller can drain the wire: outstanding data keeps getting ACKed
  // while no new data enters flight. Unsuspending kicks the scheduler.
  void SetTxSuspended(bool suspended);
  bool tx_suspended() const { return tx_suspended_; }
  // True when no generated control/PFC frame is waiting for the wire.
  bool ControlQueueEmpty() const {
    return ctrl_out_.empty() && pfc_out_.empty();
  }
  // Fast-forwards receiver state for `spec` (dst_host must be this NIC):
  // packets [expect, upto_seq) were delivered in order analytically. Creates
  // the receiver slot if the flow never got a real packet here.
  void HybridAdvanceReceiver(const FlowSpec& spec, uint64_t upto_seq);

  // --- memory controls for huge trials (bench/ext_million) ---

  // When off, completed FlowRecords are dispatched to callbacks but not
  // retained in completed_flows() — 10^6-flow runs cannot afford the
  // buffer. Default on (retain), preserving existing readouts.
  void SetRetainCompletedRecords(bool retain) { retain_completed_ = retain; }
  // Releases this NIC's state for `flow_id`: the sender QP (must be started
  // and complete) if this NIC sends it and/or the receiver slot if it
  // receives it; another NIC's flow is left alone. Stray late packets for
  // the id are ignored (FindQp -> null). Once both ends have released, the
  // id may be claimed again — for any src/dst pair.
  void RemoveFlow(int flow_id);

  // --- fault-injection hooks (FaultInjector, src/fault) ---

  // "Babbling NIC": continuously re-emits PFC PAUSE for `priority` every
  // `refresh` until stopped — the NIC-firmware failure that pauses the whole
  // upstream tree. PAUSE frames are MAC control: they jump the transmit
  // queue and ignore the NIC's own paused state. StopPauseStorm() sends the
  // healing RESUME.
  void StartPauseStorm(int priority, Time refresh);
  void StopPauseStorm(int priority);
  bool PauseStormActive(int priority) const {
    return storm_refresh_[static_cast<size_t>(priority)] > 0;
  }

  // Slow receiver: every control packet this NIC generates (ACK/NAK/CNP) is
  // held for `delay` before entering the transmit queue, modeling a host
  // whose response pipeline has stalled. 0 restores normal operation. When a
  // host-path device is attached, the same delay also stretches its
  // doorbell drain (a slow host is slow on both sides).
  void SetControlDelay(Time delay);
  Time control_delay() const { return control_delay_; }

  // Host-path device model (built when config.host_path.enabled); null
  // otherwise. See src/host/host_device.h.
  host::HostPathDevice* host_path() const { return host_path_.get(); }

 private:
  struct RcvFlow {
    int32_t src_host = -1;
    int32_t flow_id = -1;  // back-pointer for packed-store swap-erase
    uint64_t ecmp_key = 0;
    // The sending policy's registered wire behavior, read once at slot
    // open: picks CNPs vs per-packet ECN-echo ACKs.
    TransportMode mode = TransportMode::kRdmaDcqcn;
    uint64_t expect = 0;       // next in-order sequence
    Time last_data_ts = 0;     // echoed on ACKs for RTT measurement
    Bytes delivered = 0;       // cumulative in-order payload bytes
    int64_t in_order_since_ack = 0;
    NpState np;
    bool nak_ever = false;
    Time last_nak = 0;
  };

  // Puts the next frame on an idle uplink: a pause-storm PFC frame, else
  // control traffic, else one data packet. The data QP is chosen round
  // robin from rr_next_ among the QPs whose unsent_ bit is set — the QPs
  // skipped are exactly those HasPacketReady() would reject — so a send
  // costs O(QPs with unsent data), not O(QPs). When every such QP is
  // pacing-blocked, arms a wakeup at the earliest eligible time.
  void TrySend();
  bool QpUnsent(size_t slot) const {
    return (unsent_[slot >> 6] >> (slot & 63)) & 1;
  }
  // First QP-table slot in [from, end) with unsent data, or `end`.
  size_t NextUnsent(size_t from, size_t end) const;
  void ScheduleWakeupAt(Time t);
  // Ensures a tick event exists at (or before) the head deadline.
  void ScheduleQpTick();
  // The batched tick: services every node with deadline <= now in
  // (deadline, arm_seq) order, then re-arms for the new head.
  void ServiceQpTimers();
  // Receiver-flow slot for a data packet's flow id, created on first
  // packet; null when the directory names another NIC as the receiver (or
  // the id was never started).
  RcvFlow* RcvSlot(const Packet& p);
  void HandleData(const Packet& p);
  void SendControl(PacketType type, const RcvFlow& rcv, int flow_id,
                   uint64_t seq, bool ecn_echo);
  void EnqueueControl(const Packet& c);
  void EmitStormPause(int priority);
  void RearmStorm(size_t pr);
  void SetTxPaused(size_t pr, bool paused) {
    if (paused) {
      tx_paused_mask_ |= static_cast<uint8_t>(1u << pr);
    } else {
      tx_paused_mask_ &= static_cast<uint8_t>(~(1u << pr));
    }
  }

  EventQueue* eq_;
  NicConfig config_;

  // Batched DCQCN timer state: a 4-ary min-heap of armed QpTimerNodes keyed
  // by (deadline, arm_seq) — contiguous entries, with each node tracking its
  // heap index for O(log n) cancel — plus the single tick event at
  // qp_tick_at_. Declared before qps_ so the heap outlives the QPs, whose
  // destructors remove their nodes from it.
  struct QpTimerEntry {
    Time deadline;
    uint64_t arm_seq;
    QpTimerNode* node;
  };
  static bool QpEarlier(const QpTimerEntry& a, const QpTimerEntry& b);
  void QpHeapSiftUp(uint32_t pos);
  void QpHeapSiftDown(uint32_t pos);
  void QpHeapRemove(uint32_t pos);
  std::vector<QpTimerEntry> qp_timer_heap_;
  uint64_t qp_timer_arm_seq_ = 0;
  EventHandle qp_tick_;
  Time qp_tick_at_ = 0;
  std::vector<std::unique_ptr<SenderQp>> qps_;
  // Bit i set = qps_[i] has unsent data (started, snd_next < send_limit).
  // Window-blocked and pacing-blocked QPs keep their bit; TrySend checks
  // those conditions for the QPs the bitmap yields.
  std::vector<uint64_t> unsent_;
  // The Network's flow directory (flow id -> QP / receiver slot), and the
  // flows this NIC receives, packed in first-packet arrival order.
  FlowDirectory* flows_;
  std::vector<RcvFlow> rcv_store_;
  RingBuffer<Packet> ctrl_out_;
  // PFC frames from the pause-storm generator; sent ahead of everything and
  // exempt from PFC pauses (MAC control frames are never subject to PFC).
  RingBuffer<Packet> pfc_out_;
  CnpGenerationGate cnp_gate_;

  // Bit p set = transmission on priority p is PFC-paused.
  static_assert(kNumPriorities <= 8, "tx_paused_mask_ is uint8_t");
  uint8_t tx_paused_mask_ = 0;
  // Expiry of a received PAUSE when NicConfig::pfc_pause_expiry is on.
  EventHandle rx_pause_expiry_[kNumPriorities];
  // Pause-storm state per priority: refresh period (0 = no storm) and the
  // pending re-PAUSE event.
  Time storm_refresh_[kNumPriorities] = {};
  EventHandle storm_timer_[kNumPriorities];
  Time control_delay_ = 0;
  bool tx_suspended_ = false;   // hybrid wire-drain gate (data only)
  bool retain_completed_ = true;
  std::unique_ptr<host::HostPathDevice> host_path_;
  size_t rr_next_ = 0;
  EventHandle wakeup_;
  Time wakeup_time_ = 0;
  bool wakeup_armed_ = false;

  std::vector<std::function<void(const FlowRecord&)>> completion_cbs_;
  std::vector<FlowRecord> completed_;
  NicCounters counters_;
  telemetry::EventTracer* tracer_ = nullptr;
};

}  // namespace dcqcn
