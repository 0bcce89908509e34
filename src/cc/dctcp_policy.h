// DCTCP as a CcPolicy: the byte-counted congestion window with per-ACK
// ECN-fraction estimation that used to live inline in SenderQp. Window
// based: the QP sends bursty at line rate while in-flight < Cwnd() (the
// LSO interaction the paper blames for DCTCP's deeper queues, §6.3).
#pragma once

#include <algorithm>

#include "cc/cc_policy.h"
#include "net/packet.h"

namespace dcqcn {

class DctcpPolicy : public CcPolicy {
 public:
  DctcpPolicy(const NicConfig& config, Rate line_rate)
      : dctcp_(config.dctcp), line_rate_(line_rate),
        cwnd_(config.dctcp.init_cwnd) {}

  const char* name() const override { return "dctcp"; }
  bool window_based() const override { return true; }
  // The rate limiter stays at line rate; cwnd carries the control state.
  Rate CurrentRate() const override { return line_rate_; }
  Bytes Cwnd() const override { return cwnd_; }
  double dctcp_alpha() const override { return alpha_; }

  // Window-based: the flow-level cap is cwnd-shaped, not limiter-shaped, so
  // the allocator must not treat CurrentRate() (= line rate) as binding per
  // se; it derives the effective cap from Cwnd()/RTT itself.
  Rate RateCap() const override { return line_rate_; }

  void ReseedRate(CcHost& host, Rate rate, Time rtt_hint) override {
    (void)host;
    if (rtt_hint <= 0) return;
    // cwnd = rate * RTT (bytes), clamped to the configured floor. Leaving
    // slow start matches the steady cruise the fast-forwarded epoch modeled.
    const double bytes = rate * static_cast<double>(rtt_hint) / 8e12;
    cwnd_ = std::max<Bytes>(dctcp_.min_cwnd, static_cast<Bytes>(bytes));
    in_slow_start_ = false;
  }

  void OnAck(CcHost& host, const CcAckSignal& ack) override {
    (void)host;
    window_acked_ += std::max<Bytes>(ack.newly_acked, kMtu);
    if (ack.ecn_echo) {
      window_marked_ += std::max<Bytes>(ack.newly_acked, kMtu);
      in_slow_start_ = false;
    }

    // Window growth: slow start doubles per RTT; congestion avoidance adds
    // one MSS per window of acknowledged bytes.
    if (in_slow_start_) {
      cwnd_ += ack.newly_acked;
    } else {
      ca_byte_accum_ += ack.newly_acked;
      if (ca_byte_accum_ >= cwnd_) {
        ca_byte_accum_ -= cwnd_;
        cwnd_ += kMtu;
      }
    }

    // Once per window: update the ECN fraction estimate and cut (DCTCP).
    if (ack.snd_una >= window_end_) {
      const double f = window_acked_ > 0
                           ? static_cast<double>(window_marked_) /
                                 static_cast<double>(window_acked_)
                           : 0.0;
      alpha_ = (1.0 - dctcp_.g) * alpha_ + dctcp_.g * f;
      if (window_marked_ > 0) {
        cwnd_ = std::max<Bytes>(
            dctcp_.min_cwnd,
            static_cast<Bytes>(static_cast<double>(cwnd_) *
                               (1.0 - alpha_ / 2.0)));
      }
      window_end_ = ack.snd_next;
      window_acked_ = 0;
      window_marked_ = 0;
    }
  }

 private:
  const DctcpConfig dctcp_;
  const Rate line_rate_;
  Bytes cwnd_;
  double alpha_ = 0.0;
  Bytes window_acked_ = 0;
  Bytes window_marked_ = 0;
  uint64_t window_end_ = 0;  // alpha update when snd_una passes this
  bool in_slow_start_ = true;
  Bytes ca_byte_accum_ = 0;
};

}  // namespace dcqcn
