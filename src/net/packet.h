// Wire-level packet representation.
//
// Packets are small value types copied through the simulator. A single
// struct covers data and all control frames (ACK/NAK/CNP/PFC) — the
// simulator never allocates per-packet payload memory.
#pragma once

#include <cstdint>

#include "common/units.h"

namespace dcqcn {

// Priority classes. The experiments use one lossless data class and one
// high-priority control class (CNPs are sent with high priority per §3.3 of
// the paper); the switch supports all 8 PFC classes.
inline constexpr int kNumPriorities = 8;
inline constexpr int kControlPriority = 0;  // CNP/ACK/NAK: strict highest
inline constexpr int kDataPriority = 3;     // RDMA data: lossless via PFC

// RoCEv2 MTU used throughout the paper's analysis (1 byte short of 1024 in
// the text: "assuming a 1000 byte MTU").
inline constexpr Bytes kMtu = 1000;
// MAC control frame size used for PFC PAUSE/RESUME and for ACK/NAK/CNP.
inline constexpr Bytes kControlFrameBytes = 64;

enum class PacketType : uint8_t {
  kData,    // RDMA payload segment
  kAck,     // cumulative acknowledgment (go-back-N)
  kNak,     // out-of-sequence notification: "resend from `seq`"
  kCnp,     // RoCEv2 Congestion Notification Packet (NP -> RP)
  kPause,   // PFC PAUSE for `priority`
  kResume,  // PFC RESUME for `priority`
  // QCN congestion-notification frame (802.1Qau). L2-scoped: it addresses a
  // source MAC, so any switch that would have to *route* it drops it — the
  // §2.3 limitation that motivated DCQCN.
  kQcnFeedback,
};

struct Packet {
  PacketType type = PacketType::kData;
  int32_t flow_id = -1;   // -1 for PFC frames
  int32_t src_host = -1;  // originating host id (routing key for replies)
  int32_t dst_host = -1;  // destination host id (routing key)
  int8_t priority = kDataPriority;
  Bytes size_bytes = kMtu;

  // Data / ACK / NAK sequencing: packet index within the flow.
  uint64_t seq = 0;
  bool last_of_message = false;  // marks the final segment of a message
  // Go-back-0 recovery: this packet restarts its message; the receiver
  // rewinds its expected sequence to `seq`.
  bool message_restart = false;

  // ECN: set by the congestion point (switch egress RED), echoed by NP.
  bool ecn_ce = false;

  // Data packets: the sender's congestion-control policy id. The receiver
  // looks up the policy's registered feedback when it first sees the flow.
  int16_t cc_policy = -1;

  // PFC frames only: which priority class the PAUSE/RESUME applies to.
  int8_t pfc_priority = 0;

  // QCN feedback frames only: quantized |Fb| (1..quant_levels-1).
  int8_t qcn_fbq = 0;

  // Transmit timestamp of data packets; receivers echo the latest value on
  // ACKs so senders can measure RTT (used by TIMELY).
  Time tx_timestamp = 0;

  // Per-flow ECMP key, fixed at flow creation. Switches mix this with their
  // own id so different hops hash independently (like per-switch hash seeds).
  uint64_t ecmp_key = 0;

  bool IsControl() const { return type != PacketType::kData; }
  bool IsPfc() const {
    return type == PacketType::kPause || type == PacketType::kResume;
  }
};

// Packets are copied by value through every queue; keep them one cache line.
static_assert(sizeof(Packet) == 64);

// Mixes an ECMP key with a per-switch salt. SplitMix64 finalizer: cheap and
// well distributed, so consecutive flow ids spread across paths.
inline uint64_t EcmpMix(uint64_t key, uint64_t salt) {
  uint64_t z = key + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace dcqcn
