// The §6.2 benchmark-traffic generator as a WorkloadPattern
// (`--workload=pairs`), driven through a SimWorkloadHost like every pattern.
// Its RNG draw order is pinned by the fig15-18 golden baselines.
//
// Models the backend network of a cloud storage service:
//
//   * User traffic — `num_pairs` randomly selected (src, dst) host pairs,
//     each running a closed loop: draw a transfer size from the flow-size
//     distribution, transfer, record the achieved goodput, think, repeat.
//     Each pair keeps one persistent QP (warm rate-limiter state, RoCE
//     semantics); each transfer is a message on it.
//   * Disk-rebuild traffic — a single incast group: `incast_degree` senders
//     each push consecutive `incast_flow_bytes` chunks to one randomly
//     chosen receiver (a failed disk is repaired by fetching erasure-coded
//     chunks from several servers [16]). Every source runs its own closed
//     loop so the incast pressure is continuous, and each chunk is a fresh
//     RDMA operation on a new QP — it starts at line rate ("hyper-fast
//     start"), which is exactly why the paper insists DCQCN needs PFC
//     underneath it (Fig. 18).
//
// The metrics mirror Figs. 15-17: per-transfer goodput CDFs for user and
// incast traffic, plus PAUSE totals read off the switches by the caller.
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "trace/distributions.h"
#include "workload/workload.h"

namespace dcqcn {
namespace workload {

struct PairsOptions {
  int num_pairs = 20;
  int incast_degree = 0;  // 0 disables the disk-rebuild group
  // Per-sender bytes per rebuild round. Must be a few MB so an incast round
  // actually pressures the 12 MB shared buffer (smaller rounds are absorbed
  // without ever tripping PFC).
  Bytes incast_flow_bytes = 4000 * kKB;
  // Transfer-size scale; < 1 shrinks the distribution so very short runs
  // complete many transfers (see DESIGN.md "Scaling note").
  double size_scale = 1.0;
  // One of EmpiricalSizeCdf::Names().
  std::string size_cdf = "storage-backend";
  // Mean think time between a pair's transfers (drawn exponentially). User
  // traffic is request/response-like, not a saturating stream: the paper
  // scales *offered load* by the pair count ("16x more user traffic"),
  // which only makes sense if a single pair is far from saturating.
  Time pair_think_time = Milliseconds(1);
  uint64_t seed = 1;
};

class PairsPattern : public WorkloadPattern {
 public:
  explicit PairsPattern(const PairsOptions& opts);

  const char* name() const override { return "pairs"; }
  void Begin(WorkloadHost& host) override;
  void OnFlowComplete(WorkloadHost& host, const FlowRecord& rec,
                      uint64_t tag) override;

  // Per-transfer goodput in Gbps, split by traffic class (Figs. 15-17).
  const Cdf& user_goodput() const { return user_goodput_; }
  const Cdf& incast_goodput() const { return incast_goodput_; }
  int64_t user_transfers() const { return user_transfers_; }
  int64_t incast_transfers() const { return incast_transfers_; }

 private:
  // Completion tags: incast flag + pair / sender index.
  static constexpr uint64_t kIncastTag = uint64_t{1} << 32;

  void StartUserTransfer(WorkloadHost& host, size_t pair_idx);
  void StartIncastChunk(WorkloadHost& host, size_t sender_idx);

  PairsOptions opts_;
  Rng rng_;
  EmpiricalSizeCdf sizes_;

  struct Pair {
    int src = -1;
    int dst = -1;
    int flow_id = -1;  // persistent connection; transfers reuse it
  };
  std::vector<Pair> pairs_;
  int incast_receiver_ = -1;
  std::vector<int> incast_senders_;

  Cdf user_goodput_;
  Cdf incast_goodput_;
  int64_t user_transfers_ = 0;
  int64_t incast_transfers_ = 0;
};

}  // namespace workload
}  // namespace dcqcn
