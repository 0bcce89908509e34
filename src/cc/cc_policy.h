// Pluggable congestion control: one per-flow policy object behind a uniform
// signal interface, replacing the per-algorithm branches SenderQp used to
// carry (rp_ / timely_ / inline DCTCP fields).
//
// A flow's CC identity is its registered policy id (FlowSpec::cc_policy).
// DCQCN splits its algorithm across RP, NP and CP (paper Figs. 5-7), so the
// receiver feedback and switch treatment a flow gets belong to its
// algorithm too: each registration declares them once, as its
// TransportMode. Data packets carry the sender's policy id; the receiving
// NIC reads the registered mode when it opens the flow's receive slot, and
// cc::ApplyCcSwitchDefaults derives the switch settings from it. Nothing
// else carries a mode.
//
// Contract (the differential pins in tests/cc_differential_test.cc hold the
// implementations to the pre-refactor traces byte-for-byte):
//
//   * The policy owns ALL rate/window state. The QP owns transmission
//     mechanics (sequencing, pacing clock, retransmission) and consults the
//     policy via CurrentRate() / Cwnd() / window_based().
//   * The QP translates wire events into the uniform signal set below:
//     CNP receipt, ACK (with ECN echo + window position), RTT sample, bytes
//     handed to the wire, quantized QCN feedback, timer expiry. A policy
//     implements the subset it cares about; the rest default to no-ops.
//   * Policies never touch the event queue or an RNG. Timers are requested
//     through CcHost::ArmCcTimer with the *base* period; the host applies
//     its desynchronization jitter from the QP's private RNG stream at arm
//     time. This keeps replay determinism (jobs=1 == jobs=8) and the exact
//     pre-refactor RNG draw order.
//   * Trace emission goes through CcHost::TraceCc{Rate,Alpha}; the host
//     drops them when tracing is off, so policies call them unconditionally
//     at the same points the pre-refactor code traced.
//
// Adding a policy: subclass CcPolicy, then register a factory with
// RegisterCcPolicy({name, mode, make}), where `mode` picks the receiver
// feedback and switch defaults the policy rides on. The name becomes a
// valid `--cc=` value everywhere (runner, scenario_cli, bench harnesses),
// and the conformance suite (tests/cc_policy_conformance_test.cc) picks it
// up automatically from the registry.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "core/rp.h"
#include "core/timely.h"
#include "nic/nic_config.h"

namespace dcqcn {

// The wire behavior a policy registers (CcPolicyInfo::mode): which feedback
// the receiving NIC returns and which switch settings the policy's
// experiments assume.
enum class TransportMode : uint8_t {
  // RoCEv2 at line rate with go-back-N, no congestion control (PFC only) —
  // the paper's "No DCQCN" baseline.
  kRdmaRaw,
  // RoCEv2 with DCQCN: the receiver's NP generates paced CNPs (Fig. 6).
  kRdmaDcqcn,
  // Window-based DCTCP: the receiver ACKs every packet, echoing its CE bit.
  kDctcp,
  // QCN (802.1Qau): quantized switch feedback, L2-scoped (§2.3 baseline).
  kQcn,
  // TIMELY: RTT-gradient rate control (extension baseline, §3.3).
  kTimely,
};

// The two hardware timers a reaction point may hold (DCQCN Fig. 7). They
// map onto the QP's embedded nodes in the NIC's batched per-NIC timer heap.
enum class CcTimerKind : uint8_t { kAlpha = 0, kRate = 1 };

// Everything an ACK tells the policy. `newly_acked` is 0 for a duplicate
// cumulative ACK (which still carries an ECN echo sample); snd_una/snd_next
// are the post-update sequence positions, for window-boundary bookkeeping.
struct CcAckSignal {
  Bytes newly_acked = 0;
  bool ecn_echo = false;
  uint64_t snd_una = 0;
  uint64_t snd_next = 0;
};

// Host-side services a policy may call back into while handling a signal.
// Implemented by SenderQp.
class CcHost {
 public:
  virtual ~CcHost() = default;
  virtual Time CcNow() const = 0;
  // Arms (or re-arms) the given timer `base_period` from now, plus the
  // host's jitter. OnTimer(kind) fires when it expires.
  virtual void ArmCcTimer(CcTimerKind kind, Time base_period) = 0;
  virtual void CancelCcTimer(CcTimerKind kind) = 0;
  // Structured telemetry (kRateUpdate / kAlphaUpdate records); no-ops when
  // the owning NIC has no tracer attached.
  virtual void TraceCcRate(Rate rate) = 0;
  virtual void TraceCcAlpha(double alpha) = 0;
};

class CcPolicy {
 public:
  virtual ~CcPolicy() = default;

  virtual const char* name() const = 0;
  // Window-based policies (DCTCP) gate transmission on Cwnd() and send
  // bursty at line rate; rate-based policies are paced at CurrentRate().
  virtual bool window_based() const { return false; }

  // --- state the QP enforces ---
  virtual Rate CurrentRate() const = 0;
  // Lower bound CurrentRate() may reach; 0 if the policy has no floor.
  virtual Rate MinRate() const { return 0; }
  virtual Bytes Cwnd() const { return 0; }

  // --- uniform signal set (QP -> policy) ---
  virtual void OnCnp(CcHost& host) { (void)host; }
  virtual void OnAck(CcHost& host, const CcAckSignal& ack) {
    (void)host;
    (void)ack;
  }
  virtual void OnRttSample(CcHost& host, Time rtt) {
    (void)host;
    (void)rtt;
  }
  virtual void OnBytesSent(CcHost& host, Bytes bytes) {
    (void)host;
    (void)bytes;
  }
  virtual void OnQcnFeedback(CcHost& host, int fbq) {
    (void)host;
    (void)fbq;
  }
  virtual void OnTimer(CcHost& host, CcTimerKind kind) {
    (void)host;
    (void)kind;
  }

  // --- hybrid fast-forward seam (src/hybrid) ---
  // Upper bound the flow-level allocator must respect for this flow: the
  // rate the policy would enforce if the fabric presented no congestion.
  // Rate-based policies return their limiter rate; window-based policies
  // return line rate (their cap is Cwnd()-shaped and the allocator applies
  // it separately via Cwnd()/RTT).
  virtual Rate RateCap() const { return CurrentRate(); }
  // Reseeds the policy's rate state from a flow-level allocation when
  // packet-level operation resumes after a fast-forwarded epoch. Default:
  // keep state untouched (correct for policies with no reseedable state).
  virtual void ReseedRate(CcHost& host, Rate rate, Time rtt_hint) {
    (void)host;
    (void)rate;
    (void)rtt_hint;
  }

  // --- introspection (tests, telemetry, stats readouts) ---
  virtual const RpState* rp() const { return nullptr; }
  virtual const TimelyState* timely() const { return nullptr; }
  virtual double dctcp_alpha() const { return 0.0; }
};

// --- registry / factory -----------------------------------------------------

struct CcPolicyInfo {
  std::string name;
  // Wire behavior this policy rides on: what the receiver echoes (CNPs,
  // per-packet ECN ACKs, ...) and how switches treat the flow's packets.
  // The only place a policy's mode is declared.
  TransportMode mode = TransportMode::kRdmaDcqcn;
  std::function<std::unique_ptr<CcPolicy>(const NicConfig&, Rate line_rate)>
      make;
};

// Registers a policy; returns its id (the FlowSpec::cc_policy value).
// Built-ins (raw, dcqcn, dctcp, qcn, timely) are pre-registered in that
// order, so dcqcn's id is kDcqcnPolicyId (nic/flow.h), every flow's default.
int16_t RegisterCcPolicy(CcPolicyInfo info);

// Name lookup; -1 if unknown.
int16_t CcPolicyIdByName(const std::string& name);
const CcPolicyInfo& CcPolicyInfoById(int16_t id);
// Registered names, in registration order (the `--cc=` domain).
std::vector<std::string> CcPolicyNames();

std::unique_ptr<CcPolicy> CreateCcPolicy(int16_t id, const NicConfig& config,
                                         Rate line_rate);

}  // namespace dcqcn
