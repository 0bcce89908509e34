#include "host/host_device.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "telemetry/metric_registry.h"

namespace dcqcn {
namespace host {

HostPathDevice::HostPathDevice(EventQueue* eq, const HostPathConfig& cfg,
                               int node_id)
    : eq_(eq),
      cfg_(cfg),
      node_id_(node_id),
      qp_cache_(cfg.qp_cache_entries),
      mr_cache_(cfg.mr_cache_entries),
      pcie_(cfg.pcie_rate, cfg.pcie_burst) {
  DCQCN_CHECK(eq != nullptr);
  DCQCN_CHECK(cfg.enabled);
  batch_.reserve(static_cast<size_t>(cfg.doorbell_batch));
}

int HostPathDevice::LocalIndex(int ctx_id) const {
  DCQCN_CHECK(ctx_id >= 0);
  DCQCN_CHECK(static_cast<size_t>(ctx_id) < local_.size());
  const int32_t qp = local_[static_cast<size_t>(ctx_id)];
  DCQCN_CHECK(qp >= 0);  // Post/OnWireComplete before CreateQp
  return qp;
}

void HostPathDevice::CreateQp(int ctx_id) {
  DCQCN_CHECK(ctx_id >= 0);
  if (static_cast<size_t>(ctx_id) >= local_.size()) {
    local_.resize(static_cast<size_t>(ctx_id) + 1, -1);
  }
  int32_t& qp = local_[static_cast<size_t>(ctx_id)];
  DCQCN_CHECK(qp < 0);  // duplicate CreateQp
  qp = static_cast<int32_t>(qps_.size());
  qps_.emplace_back();
}

void HostPathDevice::Post(int ctx_id, Verb verb, Bytes bytes,
                          std::function<bool()> launch) {
  DCQCN_CHECK(bytes >= 0);
  DCQCN_CHECK(launch != nullptr);
  ++stats_.wr_posted;
  ++stats_.posted_by_verb[static_cast<int>(verb)];
  Wr wr;
  wr.qp = LocalIndex(ctx_id);
  wr.verb = verb;
  wr.bytes = bytes;
  wr.posted = eq_->Now();
  wr.launch = std::move(launch);
  Admit(std::move(wr));
}

void HostPathDevice::Admit(Wr wr) {
  QpCtx& q = qps_[static_cast<size_t>(wr.qp)];
  if (q.sq_used >= cfg_.sq_depth) {
    // SQ full: the app blocks; the WR is admitted when a completion (or a
    // retired launch) frees a slot.
    ++stats_.sq_stalls;
    q.backlog.push_back(std::move(wr));
    return;
  }
  ++q.sq_used;
  JoinBatch(std::move(wr));
}

void HostPathDevice::JoinBatch(Wr wr) {
  batch_.push_back(std::move(wr));
  if (static_cast<int>(batch_.size()) >= cfg_.doorbell_batch) {
    RingDoorbell();
    return;
  }
  if (!flush_armed_) {
    // First WR of a partial batch: guarantee the doorbell rings within
    // doorbell_flush even if the batch never fills.
    flush_armed_ = true;
    flush_ = eq_->ScheduleIn(cfg_.doorbell_flush, [this] {
      flush_armed_ = false;
      RingDoorbell();
    });
  }
}

void HostPathDevice::RingDoorbell() {
  DCQCN_CHECK(!batch_.empty());
  if (flush_armed_) {
    eq_->Cancel(flush_);
    flush_armed_ = false;
  }
  ++stats_.doorbells;
  const Time now = eq_->Now();
  // One MMIO posted write covers the whole batch; a slow host (fault
  // composition) stretches the drain of every doorbell.
  const Time ready = now + drain_delay_ + cfg_.doorbell_latency;
  for (Wr& wr : batch_) {
    // Per-WQE descriptor fetch over the shared PCIe budget.
    Time t = pcie_.Acquire(cfg_.desc_bytes, ready) + cfg_.desc_fetch_latency;
    // QP then MR context lookups. A miss is an ICM fetch: serialized on the
    // device's single context-fetch engine, charged to PCIe, plus the fixed
    // miss penalty. This serialization is the cache-thrash cliff.
    if (!qp_cache_.Touch(wr.qp)) {
      t = std::max(t, ctx_engine_ready_);
      t = pcie_.Acquire(cfg_.ctx_fetch_bytes, t) + cfg_.qp_miss_penalty;
      ctx_engine_ready_ = t;
    }
    if (!mr_cache_.Touch(wr.qp)) {
      t = std::max(t, ctx_engine_ready_);
      t = pcie_.Acquire(cfg_.ctx_fetch_bytes, t) + cfg_.mr_miss_penalty;
      ctx_engine_ready_ = t;
    }
    // WRITE/SEND DMA their payload from host memory before hitting the
    // wire; READ payload crosses PCIe at completion time instead.
    if (wr.verb != Verb::kRead) {
      t = pcie_.Acquire(wr.bytes, t);
    }
    // Launches on one QP are FIFO in post order.
    QpCtx& q = qps_[static_cast<size_t>(wr.qp)];
    t = std::max(t, q.last_launch);
    q.last_launch = t;
    LaunchAt(t, std::move(wr));
  }
  batch_.clear();
}

void HostPathDevice::LaunchAt(Time at, Wr wr) {
  const Time now = eq_->Now();
  DCQCN_CHECK(at >= now);
  eq_->ScheduleIn(at - now, [this, wr = std::move(wr)]() mutable {
    // Fetch the context after launching: the launch may create QPs.
    const bool launched = wr.launch();
    QpCtx& q = qps_[static_cast<size_t>(wr.qp)];
    if (launched) {
      ++stats_.wr_launched;
      stats_.launch_delay_us.Add(ToMicroseconds(eq_->Now() - wr.posted));
      wr.launch = nullptr;  // wire matching only needs verb/posted
      q.inflight.push_back(std::move(wr));
      return;
    }
    // Emission stopped between post and launch: retire the WR, free its SQ
    // slot, and let any backlogged post take it (it will retire the same
    // way, draining the backlog deterministically).
    ++stats_.wr_retired;
    --q.sq_used;
    AdmitBacklog(q);
  });
}

void HostPathDevice::AdmitBacklog(QpCtx& q) {
  if (q.backlog.empty()) return;
  ++q.sq_used;
  Wr next = std::move(q.backlog.front());
  q.backlog.pop_front();
  JoinBatch(std::move(next));
}

void HostPathDevice::OnWireComplete(int ctx_id, std::function<void()> done) {
  const int qp = LocalIndex(ctx_id);
  QpCtx& q = qps_[static_cast<size_t>(qp)];
  DCQCN_CHECK(!q.inflight.empty());  // completion with nothing launched
  const Verb verb = q.inflight.front().verb;
  const Bytes bytes = q.inflight.front().bytes;
  const Time posted = q.inflight.front().posted;
  q.inflight.pop_front();
  const Time now = eq_->Now();
  // READ payload lands in host memory now; then the CQE DMA write and the
  // completion-poll latency make the CQE visible to software.
  Time t = verb == Verb::kRead ? pcie_.Acquire(bytes, now) : now;
  t = pcie_.Acquire(cfg_.cqe_bytes, t) + cfg_.cqe_latency;
  eq_->ScheduleIn(t - now, [this, qp, verb, posted, done = std::move(done)] {
    ++stats_.wr_completed;
    stats_.verb_lat_us[static_cast<int>(verb)].Add(
        ToMicroseconds(eq_->Now() - posted));
    QpCtx& q = qps_[static_cast<size_t>(qp)];
    --q.sq_used;
    AdmitBacklog(q);
    if (done != nullptr) done();
  });
}

void ExportHostMetrics(const HostPathDevice& dev,
                       telemetry::MetricRegistry* registry) {
  DCQCN_CHECK(registry != nullptr);
  telemetry::MetricLabels l;
  l.node = dev.node_id();
  const HostPathStats& s = dev.stats();
  registry->Counter("host.wr_posted", l) += s.wr_posted;
  registry->Counter("host.wr_launched", l) += s.wr_launched;
  registry->Counter("host.wr_completed", l) += s.wr_completed;
  registry->Counter("host.wr_retired", l) += s.wr_retired;
  registry->Counter("host.doorbells", l) += s.doorbells;
  registry->Counter("host.sq_stalls", l) += s.sq_stalls;
  registry->Counter("host.qp_hits", l) += dev.qp_cache().hits();
  registry->Counter("host.qp_misses", l) += dev.qp_cache().misses();
  registry->Counter("host.qp_evictions", l) += dev.qp_cache().evictions();
  registry->Counter("host.mr_hits", l) += dev.mr_cache().hits();
  registry->Counter("host.mr_misses", l) += dev.mr_cache().misses();
  registry->Counter("host.mr_evictions", l) += dev.mr_cache().evictions();
  registry->Counter("host.pcie_bytes", l) += dev.pcie().bytes();
  registry->Counter("host.pcie_busy_ps", l) += dev.pcie().busy_ps();
  for (int v = 0; v < 3; ++v) {
    const Cdf& cdf = s.verb_lat_us[v];
    if (cdf.empty()) continue;
    const std::string name =
        std::string("host.") + VerbName(static_cast<Verb>(v)) + "_lat_us";
    for (double x : cdf.Values()) registry->Observe(name, l, x);
  }
  for (double x : s.launch_delay_us.Values()) {
    registry->Observe("host.launch_delay_us", l, x);
  }
}

}  // namespace host
}  // namespace dcqcn
