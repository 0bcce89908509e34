// Sender-side queue pair (QP): one per outgoing flow.
//
// Combines the concerns the NIC hardware combines:
//   * reliable delivery  — RoCE-style go-back-N (cumulative ACKs, NAK on
//     out-of-sequence at the receiver, retransmission timeout as backstop);
//   * rate enforcement   — per-flow pacing at the policy's current rate for
//     the rate-based modes ("The rate limiting is on a per-packet
//     granularity", §3.3), or a byte-counted congestion window with bursty
//     line-rate transmission for window-based policies (DCTCP, modeling the
//     OS/NIC LSO interaction the paper blames for its deeper queues, §6.3);
//     flows start at full line rate, no slow start;
//   * congestion control — delegated to a pluggable CcPolicy (src/cc/): the
//     QP translates wire events (CNPs, ACK echoes, RTT samples, QCN
//     feedback, bytes sent, timer expiry) into the uniform CcPolicy signal
//     set and enforces whatever rate/window the policy dictates. The QP
//     implements CcHost: policies arm their timers through it, and the QP
//     maps them onto embedded QpTimerNodes in its NIC's per-NIC timer heap,
//     serviced from one batched tick event (see rdma_nic.h) — the way NIC
//     firmware iterates its QP context table on a timer interrupt rather
//     than keeping a hardware timer per QP.
#pragma once

#include <memory>
#include <optional>

#include "cc/cc_policy.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/rp.h"
#include "core/timely.h"
#include "net/packet.h"
#include "nic/flow.h"
#include "nic/nic_config.h"
#include "sim/event_queue.h"
#include "sim/ring_buffer.h"
#include "telemetry/event_trace.h"

namespace dcqcn {

class RdmaNic;
class SenderQp;

// One armed CC timer (alpha or rate-increase) of one QP, filed in its
// NIC's per-NIC timer heap. The node is owned by the QP (embedded, so arming
// allocates nothing) and filed/removed only by the NIC; `heap_pos` is its
// index in the NIC's heap for O(log n) arm and cancel. `arm_seq` is the
// NIC's monotonic arm counter: equal deadlines — e.g. both timers re-armed
// by one CNP under zero jitter — are serviced in arm order, matching the
// FIFO order individually scheduled events would fire in.
struct QpTimerNode {
  Time deadline = 0;
  uint64_t arm_seq = 0;
  SenderQp* qp = nullptr;
  uint32_t heap_pos = ~0u;  // index in RdmaNic::qp_timer_heap_; ~0u = idle
  uint8_t kind = 0;         // CcTimerKind: 0 = alpha, 1 = rate-increase
  bool armed = false;
};

struct QpCounters {
  int64_t packets_sent = 0;     // includes retransmissions
  int64_t bytes_sent = 0;
  int64_t retransmitted_packets = 0;
  int64_t naks_received = 0;
  int64_t timeouts = 0;
  int64_t cnps_received = 0;
};

class SenderQp : public CcHost {
 public:
  SenderQp(EventQueue* eq, RdmaNic* nic, FlowSpec spec,
           const NicConfig& config, Rate line_rate);
  ~SenderQp() override;

  SenderQp(const SenderQp&) = delete;
  SenderQp& operator=(const SenderQp&) = delete;

  const FlowSpec& spec() const { return spec_; }
  const QpCounters& counters() const { return counters_; }
  bool started() const { return started_; }
  // True when every enqueued message has been acknowledged. A "complete"
  // QP stays usable: EnqueueMessage() resumes transmission with the warm
  // rate-limiter state, which is how RoCE applications issue consecutive
  // transfers on one connection.
  bool complete() const { return messages_.empty(); }

  // Appends a `bytes`-sized message to this QP. Each message completion
  // produces its own FlowRecord (the unit the paper's "transfers" measure).
  // Only valid for bounded flows (unbounded flows are a single endless
  // message).
  void EnqueueMessage(Bytes bytes);
  Rate current_rate() const { return cc_->CurrentRate(); }
  // Congestion-control facade: the policy and its introspection hooks.
  // rp()/timely()/dctcp_alpha() return null/0 when the active policy does
  // not expose that state.
  const CcPolicy& cc() const { return *cc_; }
  const RpState* rp() const { return cc_->rp(); }
  const TimelyState* timely() const { return cc_->timely(); }
  Bytes cwnd() const { return cc_->Cwnd(); }
  double dctcp_alpha() const { return cc_->dctcp_alpha(); }

  // --- scheduling interface used by the NIC transmit scheduler ---
  void Start();                 // flow start time reached
  bool HasPacketReady() const;  // data available and window permits
  // Earliest time pacing allows the next packet; only meaningful when
  // HasPacketReady(). For window mode this is "now" (no pacing).
  Time EligibleAt() const { return next_allowed_; }
  // Builds the next packet (does not advance state).
  Packet BuildNextPacket() const;
  // The NIC handed the packet to the wire at `now`.
  void OnPacketSent(Time now, const Packet& p);
  // This QP's position in its NIC's QP table, which keys the NIC's
  // unsent-data bitmap; the NIC keeps it current across swap-removes.
  uint32_t nic_slot() const { return nic_slot_; }
  void set_nic_slot(uint32_t slot) { nic_slot_ = slot; }

  // --- feedback from the network ---
  void OnAck(Time now, uint64_t cumulative_seq, bool ecn_echo,
             Time echo_timestamp = 0);
  void OnNak(Time now, uint64_t expected_seq);
  void OnCnp(Time now);
  void OnQcnFeedback(Time now, int fbq);

  // --- batched CC timer service (called by RdmaNic's per-NIC tick) ---
  // Invoked when an embedded QpTimerNode's deadline is reached; forwards to
  // the policy, which re-arms while its limiter is engaged.
  void ServiceCcTimer(CcTimerKind kind) { cc_->OnTimer(*this, kind); }

  // --- hybrid fast-forward seam (src/hybrid) ---
  // Sequence-cursor introspection for the flow-level allocator: [snd_una,
  // send_limit) is the unacknowledged byte range, per-packet sizes come from
  // PacketBytesAt, and next_allowed is the pacing clock's next send slot.
  uint64_t snd_una() const { return snd_una_; }
  uint64_t snd_next() const { return snd_next_; }
  // snd_next < snd_high marks an in-progress loss rewind (go-back-N is
  // resending); the epoch controller pins such flows to packet mode.
  uint64_t snd_high() const { return snd_high_; }
  uint64_t send_limit() const { return send_limit_; }
  Time next_allowed() const { return next_allowed_; }
  bool unbounded() const { return unbounded_; }
  Bytes PacketBytesAt(uint64_t seq) const { return PacketBytes(seq); }
  bool LastOfMessageAt(uint64_t seq) const { return IsLastOfMessage(seq); }
  // Bytes not yet cumulatively acknowledged across all queued messages.
  Bytes UnackedBytes() const;
  // Messages still queued (0 == complete()). The epoch controller models
  // only single-message QPs; back-to-back enqueues pin a flow to packet mode.
  int OutstandingMessages() const { return static_cast<int>(messages_.size()); }

  // Fast-forward: every packet below `upto_seq` is now fully sent AND
  // acknowledged. Packets in [snd_next, upto_seq) were never simulated —
  // the epoch controller computed their wire traversal analytically — and
  // are counted into the tx counters here; the already-sent tail
  // [snd_una, snd_next) keeps its send-time accounting and is simply deemed
  // acknowledged. Completes covered messages at `now` (normal FlowRecord
  // path) and sets the pacing clock to `next_allowed`. CC signals are
  // intentionally NOT replayed; the controller reseeds policy state via
  // ReseedCc instead.
  void HybridAdvance(Time now, uint64_t upto_seq, Time next_allowed);
  // Forwards a flow-level allocation to the policy's reseed hook.
  void ReseedCc(Rate rate, Time rtt_hint) {
    cc_->ReseedRate(*this, rate, rtt_hint);
  }

  // --- CcHost (policy -> QP services) ---
  Time CcNow() const override;
  void ArmCcTimer(CcTimerKind kind, Time base_period) override;
  void CancelCcTimer(CcTimerKind kind) override;
  void TraceCcRate(Rate rate) override;
  void TraceCcAlpha(double alpha) override;

  // Structured event tracing (CNP receipt, CC rate/alpha updates); null
  // disables. Set by the owning NIC.
  void SetTracer(telemetry::EventTracer* tracer) { tracer_ = tracer; }

 private:
  bool WindowAllows() const;
  Bytes PacketBytes(uint64_t seq) const;
  bool IsLastOfMessage(uint64_t seq) const;
  void ArmRetxTimer(Time now);
  void OnRetxTimeout();
  // Loss rewind: go-back-N to snd_una_, or (go-back-0 hardware) restart the
  // in-progress message from its first packet.
  void RewindForLoss(Time now);
  // Pops and reports every leading message fully covered by snd_una_.
  void CompleteMessages(Time now);
  // Publishes "has unsent data" (started and snd_next_ < send_limit_) to
  // the NIC's arbitration bitmap; called wherever those fields change.
  void SyncUnsent();

  // Jittered interval: base * (1 +/- frac), drawn per use from this QP's
  // private RNG (seeded by flow id, so runs replay deterministically).
  Time Jittered(Time base, double frac);

  EventQueue* eq_;
  RdmaNic* nic_;
  const FlowSpec spec_;
  const Rate line_rate_;
  const Time rto_;
  const double timer_jitter_;
  const double pacing_jitter_;
  Rng rng_;

  bool started_ = false;
  Time actual_start_ = 0;
  uint32_t nic_slot_ = 0;

  // Outstanding messages in sequence order. For unbounded flows this holds
  // a single sentinel message that never completes.
  struct Message {
    uint64_t begin_seq = 0;
    uint64_t end_seq = 0;  // exclusive
    Bytes bytes = 0;
    Time start_time = 0;  // when its first packet became sendable
  };
  RingBuffer<Message> messages_;
  uint64_t send_limit_ = 0;  // total packets across all enqueued messages
  const bool unbounded_;

  // go-back-N / go-back-0
  uint64_t snd_next_ = 0;  // next sequence to transmit
  uint64_t snd_una_ = 0;   // lowest unacknowledged sequence
  uint64_t snd_high_ = 0;  // highest sequence ever transmitted + 1
  const bool go_back_zero_;
  EventHandle retx_timer_;

  // pacing (rate-based policies)
  Time next_allowed_ = 0;

  // The congestion-control policy: owns all rate/window state.
  std::unique_ptr<CcPolicy> cc_;
  // Embedded timer nodes for the NIC's batched per-NIC tick; armed via
  // nic_->ArmQpTimer, released via nic_->CancelQpTimer.
  QpTimerNode alpha_node_;
  QpTimerNode rate_node_;

  QpCounters counters_;
  telemetry::EventTracer* tracer_ = nullptr;
};

}  // namespace dcqcn
