#include "net/switch.h"

#include <algorithm>

namespace dcqcn {

SharedBufferSwitch::SharedBufferSwitch(EventQueue* eq, Rng* rng, int id,
                                       int num_ports, SwitchConfig config,
                                       QueuePool* pool)
    : Node(id, num_ports),
      eq_(eq),
      rng_(rng),
      config_(config),
      egress_(static_cast<size_t>(num_ports)),
      pq_(static_cast<size_t>(num_ports) * kNumPriorities),
      egress_nonempty_(static_cast<size_t>(num_ports)),
      tx_paused_mask_(static_cast<size_t>(num_ports)),
      paused_accum_(static_cast<size_t>(num_ports)),
      paused_since_(static_cast<size_t>(num_ports)),
      rx_pause_expiry_(static_cast<size_t>(num_ports)),
      pause_refresh_(static_cast<size_t>(num_ports)),
      qcn_cp_(static_cast<size_t>(num_ports)),
      pfc_out_(static_cast<size_t>(num_ports)),
      in_flight_(static_cast<size_t>(num_ports)) {
  config_.Validate();
  DCQCN_CHECK(num_ports <= config_.buffer.num_ports);
  headroom_ = config_.headroom > 0 ? config_.headroom
                                   : HeadroomPerPortPriority(config_.buffer);
  if (config_.pfc_enabled) {
    reserved_headroom_ = static_cast<Bytes>(config_.buffer.num_priorities) *
                         config_.buffer.num_ports * headroom_;
    DCQCN_CHECK(reserved_headroom_ < config_.buffer.total_buffer);
  } else {
    reserved_headroom_ = 0;
  }
  shared_capacity_ = config_.buffer.total_buffer - reserved_headroom_;
  for (auto& port_queues : egress_) {
    for (auto& q : port_queues) q.SetPool(pool);
  }
  for (auto& q : pfc_out_) q.SetPool(pool);
  for (auto& a : paused_accum_) a.fill(0);
  for (auto& a : paused_since_) a.fill(0);
}

Bytes SharedBufferSwitch::EffectiveTotalBuffer() const {
  return buffer_override_ > 0
             ? std::min(buffer_override_, config_.buffer.total_buffer)
             : config_.buffer.total_buffer;
}

Bytes SharedBufferSwitch::SharedCapacity() const {
  return std::max<Bytes>(0, EffectiveTotalBuffer() - reserved_headroom_);
}

void SharedBufferSwitch::SetSharedBufferOverride(Bytes bytes) {
  buffer_override_ = std::max<Bytes>(0, bytes);
  if (!config_.pfc_enabled) return;
  // The dynamic threshold moved: a shrink can push queues over it (pause
  // promptly, don't wait for the next arrival), a restore can free them.
  CheckPauseAll();
  CheckResumeAll();
}

void SharedBufferSwitch::SetRoute(int dst_host, std::vector<int> ports) {
  DCQCN_CHECK(dst_host >= 0);
  DCQCN_CHECK(!ports.empty());
  for (int p : ports) DCQCN_CHECK(p >= 0 && p < num_ports());
  if (static_cast<size_t>(dst_host) >= routes_.size()) {
    routes_.resize(static_cast<size_t>(dst_host) + 1);
  }
  routes_[static_cast<size_t>(dst_host)] = std::move(ports);
}

const std::vector<int>& SharedBufferSwitch::RouteTo(int dst_host) const {
  DCQCN_CHECK(dst_host >= 0 &&
              static_cast<size_t>(dst_host) < routes_.size());
  const auto& r = routes_[static_cast<size_t>(dst_host)];
  DCQCN_CHECK(!r.empty());
  return r;
}

Bytes SharedBufferSwitch::CurrentPfcThreshold() const {
  if (!config_.dynamic_pfc) return config_.static_pfc_threshold;
  // Inlined DynamicPfcThreshold(spec with EffectiveTotalBuffer(), headroom_,
  // beta, shared_used_), keeping the exact operation order so thresholds
  // match the closed-form helper bit for bit. This runs once per admitted
  // packet (CheckPause), so it must not copy a SwitchBufferSpec. The
  // reserved term is recomputed (not reserved_headroom_, which is zero when
  // PFC is off but this accessor is still meaningful to tests).
  const Bytes reserved = static_cast<Bytes>(config_.buffer.num_priorities) *
                         config_.buffer.num_ports * headroom_;
  const Bytes free_shared =
      std::max<Bytes>(0, EffectiveTotalBuffer() - reserved - shared_used_);
  return static_cast<Bytes>(config_.beta * static_cast<double>(free_shared) /
                            static_cast<double>(config_.buffer.num_priorities));
}

Bytes SharedBufferSwitch::EgressQueueBytes(int port, int priority) const {
  return Pq(port, priority).egress_bytes;
}

Bytes SharedBufferSwitch::IngressQueueBytes(int port, int priority) const {
  return Pq(port, priority).ingress_bytes;
}

int64_t SharedBufferSwitch::EcnMarked(int port, int priority) const {
  return Pq(port, priority).ecn_marks;
}

Bytes SharedBufferSwitch::MaxQueueDepth(int port, int priority) const {
  return Pq(port, priority).max_egress_depth;
}

bool SharedBufferSwitch::PauseSent(int port, int priority) const {
  return Pq(port, priority).pause_sent;
}

bool SharedBufferSwitch::TxPaused(int port, int priority) const {
  return Pq(port, priority).tx_paused;
}

Time SharedBufferSwitch::PausedTimeTotal(int port, int priority) const {
  const auto ip = static_cast<size_t>(port);
  const auto pr = static_cast<size_t>(priority);
  Time total = paused_accum_[ip][pr];
  if (Pq(port, priority).tx_paused) total += eq_->Now() - paused_since_[ip][pr];
  return total;
}

Time SharedBufferSwitch::PausedTimeTotalAll() const {
  Time total = 0;
  for (int port = 0; port < num_ports(); ++port) {
    for (int pr = 0; pr < kNumPriorities; ++pr) {
      total += PausedTimeTotal(port, pr);
    }
  }
  return total;
}

void SharedBufferSwitch::SetTxPaused(int port, int priority, bool paused) {
  const auto ip = static_cast<size_t>(port);
  const auto pr = static_cast<size_t>(priority);
  PqState& s = Pq(port, priority);
  if (s.tx_paused == paused) return;  // refresh PAUSE: episode is open
  s.tx_paused = paused;
  if (paused) {
    tx_paused_mask_[ip] |= static_cast<uint8_t>(1u << pr);
    ++tx_paused_count_;
    paused_since_[ip][pr] = eq_->Now();
  } else {
    tx_paused_mask_[ip] &= static_cast<uint8_t>(~(1u << pr));
    --tx_paused_count_;
    const Time episode = eq_->Now() - paused_since_[ip][pr];
    paused_accum_[ip][pr] += episode;
    counters_.paused_time_total += episode;
  }
  if (tracer_) {
    tracer_->Record(eq_->Now(),
                    paused ? telemetry::TraceEventType::kPauseRx
                           : telemetry::TraceEventType::kResumeRx,
                    id(), static_cast<int16_t>(port),
                    static_cast<int8_t>(priority), -1, 0);
  }
}

void SharedBufferSwitch::ReceivePacket(const Packet& p, int in_port) {
  counters_.rx_packets++;
  if (p.IsPfc()) {
    counters_.pause_frames_received++;
    const bool pause = p.type == PacketType::kPause;
    const int prio = p.pfc_priority;
    SetTxPaused(in_port, prio, pause);
    eq_->Cancel(rx_pause_expiry_[static_cast<size_t>(in_port)]
                                [static_cast<size_t>(prio)]);
    if (pause && config_.pfc_pause_expiry > 0) {
      // Pause-quanta timeout: unless the peer refreshes, transmission
      // resumes on its own — a lost RESUME can't wedge the port.
      rx_pause_expiry_[static_cast<size_t>(in_port)]
                      [static_cast<size_t>(prio)] =
          eq_->ScheduleIn(config_.pfc_pause_expiry, [this, in_port, prio] {
            SetTxPaused(in_port, prio, false);
            TrySend(in_port);
          });
    }
    if (!pause) TrySend(in_port);
    return;
  }

  if (p.type == PacketType::kQcnFeedback) {
    // A QCN frame addresses a source MAC; across a routed hop the original
    // Ethernet header is gone, so the notification cannot be delivered.
    counters_.qcn_feedback_dropped++;
    return;
  }

  AdmitAndEnqueue(p, in_port, EcmpSelect(p.ecmp_key, p.dst_host));
}

int SharedBufferSwitch::EcmpSelect(uint64_t ecmp_key, int dst_host) const {
  const auto& ports = RouteTo(dst_host);
  const size_t n = ports.size();
  if (n == 1) return ports[0];  // downlinks: nothing to hash over
  const uint64_t mix = EcmpMix(ecmp_key, static_cast<uint64_t>(id()));
  // Equal-cost sets are almost always a power of two (spine/uplink counts);
  // masking picks the same port the modulo would.
  const size_t idx = (n & (n - 1)) == 0 ? mix & (n - 1) : mix % n;
  return ports[idx];
}

void SharedBufferSwitch::AdmitAndEnqueue(const Packet& p, int in_port,
                                         int out_port) {
  const auto op = static_cast<size_t>(out_port);
  const auto pr = static_cast<size_t>(p.priority);
  PqState& in_state = Pq(in_port, p.priority);
  PqState& out_state = Pq(out_port, p.priority);

  // --- buffer admission ---
  if (config_.lossy_egress_cap > 0 && !config_.pfc_enabled &&
      out_state.egress_bytes + p.size_bytes > config_.lossy_egress_cap) {
    counters_.dropped_packets++;
    counters_.dropped_bytes += p.size_bytes;
    if (tracer_) {
      tracer_->Record(eq_->Now(), telemetry::TraceEventType::kPktDrop, id(),
                      static_cast<int16_t>(out_port), p.priority, p.flow_id,
                      p.size_bytes);
    }
    return;
  }
  bool in_headroom = false;
  if (config_.pfc_enabled && in_state.pause_sent &&
      in_state.headroom_used + p.size_bytes <= headroom_) {
    // Bytes arriving after we PAUSEd an upstream are exactly what the
    // headroom reservation exists for.
    in_headroom = true;
    in_state.headroom_used += p.size_bytes;
  } else if (shared_used_ + p.size_bytes <= SharedCapacity()) {
    shared_used_ += p.size_bytes;
  } else {
    counters_.dropped_packets++;
    counters_.dropped_bytes += p.size_bytes;
    if (tracer_) {
      tracer_->Record(eq_->Now(), telemetry::TraceEventType::kPktDrop, id(),
                      static_cast<int16_t>(out_port), p.priority, p.flow_id,
                      p.size_bytes);
    }
    return;
  }
  in_state.ingress_bytes += p.size_bytes;

  // --- CP: RED/ECN marking on the instantaneous egress queue (Fig. 5) ---
  // The mark is applied to the stored copy after enqueue; the decision (and
  // its RNG draw) stays here so the draw order is unchanged.
  bool mark_ecn = false;
  if (p.type == PacketType::kData &&
      RedShouldMark(config_.red, out_state.egress_bytes, *rng_)) {
    mark_ecn = true;
    counters_.ecn_marked_packets++;
    out_state.ecn_marks++;
    if (tracer_) {
      tracer_->Record(eq_->Now(), telemetry::TraceEventType::kEcnMark, id(),
                      static_cast<int16_t>(out_port), p.priority, p.flow_id,
                      out_state.egress_bytes);
    }
  }

  // --- QCN congestion point: sampled quantized feedback to the source ---
  if (p.type == PacketType::kData && config_.qcn.enabled) {
    const int fbq = qcn_cp_[op][pr].OnPacketArrival(
        config_.qcn, out_state.egress_bytes, *rng_);
    if (fbq > 0) {
      Packet fb;
      fb.type = PacketType::kQcnFeedback;
      fb.flow_id = p.flow_id;
      fb.src_host = -1;  // switch-originated
      fb.dst_host = p.src_host;
      fb.priority = kControlPriority;
      fb.size_bytes = kControlFrameBytes;
      fb.qcn_fbq = static_cast<int8_t>(fbq);
      fb.ecmp_key = p.ecmp_key;
      counters_.qcn_feedback_sent++;
      // Send it toward the source like any frame; if the next hop is a
      // switch, that switch drops it (L2 scope).
      AdmitAndEnqueue(fb, in_port, EcmpSelect(fb.ecmp_key, fb.dst_host));
    }
  }

  // Taken after the QCN recursion above: a feedback frame enqueued on this
  // same ring would have invalidated an earlier reference on growth.
  auto& q = egress_[op][pr];
  if (q.empty()) {
    egress_nonempty_[op] |= static_cast<uint8_t>(1u << pr);
  }
  StoredPacket& stored = q.push_slot();  // single Packet copy, no temporary
  stored.pkt = p;
  stored.pkt.ecn_ce = p.ecn_ce || mark_ecn;
  stored.in_port = in_port;
  stored.in_headroom = in_headroom;
  out_state.egress_bytes += p.size_bytes;
  if (out_state.egress_bytes > out_state.max_egress_depth) {
    out_state.max_egress_depth = out_state.egress_bytes;
  }
  if (tracer_) {
    tracer_->Record(eq_->Now(), telemetry::TraceEventType::kPktEnqueue, id(),
                    static_cast<int16_t>(out_port), p.priority, p.flow_id,
                    out_state.egress_bytes);
  }

  if (config_.pfc_enabled) CheckPause(in_port, p.priority);
  TrySend(out_port);
}

void SharedBufferSwitch::CheckPause(int in_port, int priority) {
  PqState& s = Pq(in_port, priority);
  if (s.pause_sent) return;
  if (s.ingress_bytes > CurrentPfcThreshold()) {
    s.pause_sent = true;
    ++pauses_outstanding_;
    SendPfcFrame(in_port, priority, /*pause=*/true);
    ArmPauseRefresh(in_port, priority);
  }
}

void SharedBufferSwitch::ArmPauseRefresh(int port, int priority) {
  if (config_.pfc_pause_refresh <= 0) return;
  pause_refresh_[static_cast<size_t>(port)][static_cast<size_t>(priority)] =
      eq_->ScheduleIn(config_.pfc_pause_refresh, [this, port, priority] {
        if (!Pq(port, priority).pause_sent) return;
        SendPfcFrame(port, priority, /*pause=*/true);
        ArmPauseRefresh(port, priority);
      });
}

void SharedBufferSwitch::CheckPauseAll() {
  for (int port = 0; port < num_ports(); ++port) {
    for (int pr = 0; pr < kNumPriorities; ++pr) {
      CheckPause(port, pr);
    }
  }
}

void SharedBufferSwitch::CheckResumeAll() {
  // The dynamic threshold rises as the shared pool drains, so any paused
  // ingress may become resumable when any packet leaves. In the common
  // ECN-controlled state nothing is paused, and this is one load.
  if (pauses_outstanding_ == 0) return;
  const Bytes thr = CurrentPfcThreshold();
  const Bytes resume_level = std::max<Bytes>(0, thr - config_.resume_offset);
  for (int port = 0; port < num_ports(); ++port) {
    for (int pr = 0; pr < kNumPriorities; ++pr) {
      PqState& s = Pq(port, pr);
      if (s.pause_sent && s.ingress_bytes <= resume_level) {
        s.pause_sent = false;
        --pauses_outstanding_;
        eq_->Cancel(pause_refresh_[static_cast<size_t>(port)]
                                  [static_cast<size_t>(pr)]);
        SendPfcFrame(port, pr, /*pause=*/false);
      }
    }
  }
}

void SharedBufferSwitch::SendPfcFrame(int port, int priority, bool pause) {
  Packet f;
  f.type = pause ? PacketType::kPause : PacketType::kResume;
  f.size_bytes = kControlFrameBytes;
  f.pfc_priority = static_cast<int8_t>(priority);
  f.priority = kControlPriority;
  pfc_out_[static_cast<size_t>(port)].push_back(f);
  if (pause) {
    counters_.pause_frames_sent++;
  } else {
    counters_.resume_frames_sent++;
  }
  if (tracer_) {
    tracer_->Record(eq_->Now(),
                    pause ? telemetry::TraceEventType::kPauseTx
                          : telemetry::TraceEventType::kResumeTx,
                    id(), static_cast<int16_t>(port),
                    static_cast<int8_t>(priority), -1, 0);
  }
  TrySend(port);
}

void SharedBufferSwitch::TrySend(int port) {
  Link* l = link(port);
  if (l == nullptr || l->Busy(this)) return;
  const auto ip = static_cast<size_t>(port);

  // PFC frames are MAC control frames: they go ahead of all queued data and
  // are never themselves subject to PFC.
  if (!pfc_out_[ip].empty()) {
    Packet f = pfc_out_[ip].front();
    pfc_out_[ip].pop_front();
    l->Transmit(this, f);
    return;
  }

  // Strict priority: the lowest set bit among non-empty, non-paused
  // priority queues (identical to scanning pr = 0..7 in order).
  const uint8_t sendable = egress_nonempty_[ip] &
                           static_cast<uint8_t>(~tx_paused_mask_[ip]);
  if (sendable == 0) return;
  const int pr = __builtin_ctz(sendable);
  const auto ipr = static_cast<size_t>(pr);
  auto& q = egress_[ip][ipr];
  const StoredPacket& sp = q.front();
  in_flight_[ip] = InFlightRelease{sp.pkt.size_bytes, sp.in_port,
                                   sp.pkt.priority, sp.in_headroom,
                                   /*active=*/true};
  PqState& s = Pq(port, pr);
  s.egress_bytes -= sp.pkt.size_bytes;
  counters_.tx_packets++;
  if (tracer_) {
    tracer_->Record(eq_->Now(), telemetry::TraceEventType::kPktDequeue,
                    id(), static_cast<int16_t>(port),
                    sp.pkt.priority, sp.pkt.flow_id, s.egress_bytes);
  }
  // Transmit straight from the ring slot (Link copies what it keeps), then
  // retire it; only the 16-byte release record outlives the call.
  l->Transmit(this, sp.pkt);
  q.pop_front();
  if (q.empty()) {
    egress_nonempty_[ip] &= static_cast<uint8_t>(~(1u << pr));
  }
}

void SharedBufferSwitch::OnTransmitComplete(int port) {
  const auto ip = static_cast<size_t>(port);
  if (in_flight_[ip].active) {
    // A buffered packet fully left the switch: release its buffer now
    // (paper accounting: occupancy until transmission completes).
    ReleaseBuffer(in_flight_[ip]);
    in_flight_[ip].active = false;
  }
  TrySend(port);
}

void SharedBufferSwitch::ReleaseBuffer(const InFlightRelease& rel) {
  PqState& s = Pq(rel.in_port, rel.priority);
  s.ingress_bytes -= rel.size_bytes;
  DCQCN_DCHECK(s.ingress_bytes >= 0);
  if (rel.in_headroom) {
    s.headroom_used -= rel.size_bytes;
    DCQCN_DCHECK(s.headroom_used >= 0);
  } else {
    shared_used_ -= rel.size_bytes;
    DCQCN_DCHECK(shared_used_ >= 0);
  }
  if (config_.pfc_enabled) CheckResumeAll();
}

}  // namespace dcqcn
