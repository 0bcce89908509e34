#include "workload/pairs.h"

#include <algorithm>

namespace dcqcn {
namespace workload {

PairsPattern::PairsPattern(const PairsOptions& opts)
    : opts_(opts),
      rng_(opts.seed),
      sizes_(EmpiricalSizeCdf::ByName(opts.size_cdf, opts.size_scale)) {
  DCQCN_CHECK(opts_.num_pairs >= 0);
}

void PairsPattern::Begin(WorkloadHost& host) {
  const auto n = static_cast<int64_t>(host.num_hosts());
  DCQCN_CHECK(opts_.incast_degree == 0 || opts_.incast_degree < n);

  // User pairs: random distinct endpoints ("each host communicates with one
  // or more randomly selected hosts").
  for (int i = 0; i < opts_.num_pairs; ++i) {
    const auto s = rng_.UniformInt(0, n - 1);
    int64_t d = s;
    while (d == s) d = rng_.UniformInt(0, n - 1);
    pairs_.push_back(Pair{static_cast<int>(s), static_cast<int>(d), -1});
  }

  // Incast group: one receiver, `incast_degree` distinct other senders.
  if (opts_.incast_degree > 0) {
    const auto r = rng_.UniformInt(0, n - 1);
    incast_receiver_ = static_cast<int>(r);
    std::vector<int> others;
    for (int64_t i = 0; i < n; ++i) {
      if (i != r) others.push_back(static_cast<int>(i));
    }
    std::shuffle(others.begin(), others.end(), rng_.engine());
    incast_senders_.assign(others.begin(),
                           others.begin() + opts_.incast_degree);
  }

  // Persistent connections: each pair / incast sender opens one QP and
  // issues consecutive transfers on it, keeping the NIC rate-limiter state
  // warm across messages (RoCE semantics).
  for (size_t i = 0; i < pairs_.size(); ++i) {
    Pair& pr = pairs_[i];
    EmitSpec e;
    e.src = pr.src;
    e.dst = pr.dst;
    e.size_bytes = sizes_.Sample(rng_);
    e.ecmp_salt = rng_.NextU64();
    e.tag = i;
    pr.flow_id = host.LaunchFlow(e);
  }
  if (incast_receiver_ >= 0) {
    for (size_t i = 0; i < incast_senders_.size(); ++i) {
      StartIncastChunk(host, i);
    }
  }
}

void PairsPattern::StartIncastChunk(WorkloadHost& host, size_t sender_idx) {
  EmitSpec e;
  e.src = incast_senders_[sender_idx];
  e.dst = incast_receiver_;
  e.size_bytes = opts_.incast_flow_bytes;
  e.ecmp_salt = rng_.NextU64();
  e.tag = kIncastTag | sender_idx;
  host.LaunchFlow(e);
}

void PairsPattern::StartUserTransfer(WorkloadHost& host, size_t pair_idx) {
  const Bytes bytes = sizes_.Sample(rng_);
  host.EnqueueOnFlow(pairs_[pair_idx].flow_id, bytes);
}

void PairsPattern::OnFlowComplete(WorkloadHost& host, const FlowRecord& rec,
                                  uint64_t tag) {
  const double gbps = rec.goodput() / 1e9;
  if (tag & kIncastTag) {
    ++incast_transfers_;
    incast_goodput_.Add(gbps);
    // The next chunk is a fresh RDMA operation: new QP, line-rate start.
    StartIncastChunk(host, static_cast<size_t>(tag & ~kIncastTag));
  } else {
    ++user_transfers_;
    user_goodput_.Add(gbps);
    const auto pair_idx = static_cast<size_t>(tag);
    const Time think = static_cast<Time>(
        rng_.Exponential(static_cast<double>(opts_.pair_think_time)));
    host.ScheduleIn(think, [this, &host, pair_idx] {
      StartUserTransfer(host, pair_idx);
    });
  }
}

}  // namespace workload
}  // namespace dcqcn
