// Shared scaffolding for the extension benches (ext_*): CC-comparison
// helpers and the ext_scale trial. The paper's own figures live in
// bench/figures.h.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "cc/scenarios.h"
#include "core/params.h"
#include "net/topology.h"
#include "runner/runner.h"
#include "stats/stats.h"

namespace dcqcn {
namespace bench {

// ---------- CC-comparison scaffolding (ext_qcn / ext_timely) ----------
//
// The scenario-independent pieces the congestion-control comparison benches
// share: switch-side defaults for a policy's experiments, greedy-flow
// startup with the policy stamped on, and windowed goodput readouts.
// Keeping them here guarantees the harnesses differ only in scenario shape,
// and gives every bench the same --cc=POLICY axis (runner::ResolveCc).

// Topology options with the switch defaults `policy`'s experiments assume
// (QCN: switch CP on + RED off; TIMELY: RED off; others: deployment RED).
inline TopologyOptions CcTopo(int16_t policy) {
  TopologyOptions opt;
  cc::ApplyCcSwitchDefaults(policy, &opt.switch_config);
  return opt;
}

// Starts one greedy (unbounded) flow src -> dst with an explicit flow id
// under the given CC selection.
void StartGreedyFlow(Network& net, RdmaNic* src, RdmaNic* dst, int flow_id,
                     int16_t policy, Time start = 0, uint64_t ecmp_salt = 0);

// Delivered-bytes sum over flow ids [0, n) at `dst`.
Bytes DeliveredSum(const RdmaNic* dst, int n);

// Goodput in Gbps of `bytes` delivered over `window`.
double WindowGbps(Bytes bytes, Time window);

// ---------- ext_scale: large-Clos scaling sweep ----------
//
// One trial = one Clos fabric under sustained cross-ToR DCQCN load: every
// host opens `flows_per_host` unbounded flows (one deterministic incast
// into the neighbor ToR's first host so CNP/alpha/rate timers stay armed,
// the rest to seed-drawn hosts in other ToRs). The trial reports events
// executed and delivered bytes — all deterministic, so the runner's
// jobs=1 ≡ jobs=8 byte-identity holds. Wall-clock throughput
// (sim-sec/wall-sec, events/sec) is written to the optional side table
// indexed by trial_index, never into the TrialResult.
struct ScaleCase {
  std::string name;
  ClosShape shape;
  int flows_per_host = 2;
  Time duration = Milliseconds(1);
};

// The sweep from paper scale (4 ToRs / 20 hosts) to 32 ToRs / 512 hosts /
// 1024 concurrent flows. `smoke` keeps every shape but cuts the simulated
// window 10x for CI.
std::vector<ScaleCase> ScaleCases(bool smoke);

// Composition axes for a scale trial. Defaults reproduce the original
// sweep byte-for-byte: DCQCN, built-in greedy incast+random mix, wire-only.
struct ScaleTrialOptions {
  // Congestion control every flow runs under.
  int16_t cc = kDcqcnPolicyId;
  // `NAME[:k=v,...]` over the WorkloadPattern registry; non-empty replaces
  // the built-in greedy mix with the pattern (driven exactly like
  // ext_workload, wl_* counters in the result).
  std::string workload;
  // `PROFILE[:k=v,...]` host-path device spec; non-empty attaches the
  // device model and (with a workload) routes emission through it.
  std::string host;
  // When non-null, must be pre-sized to the matrix size; the trial body
  // writes its run-loop wall time into slot trial_index (distinct slots,
  // so concurrent trials never race).
  std::vector<double>* wall_seconds = nullptr;
  // Flow-size scale factor handed to CreateWorkloadPattern (1.0 = the
  // distribution's published shape). Million-flow sweeps compress sizes so
  // arrival count, not per-flow byte volume, dominates the run.
  double workload_size_scale = 1.0;
  // Reservoir cap on the workload host's per-flow Cdfs (0 = keep every
  // sample). Bounds runner memory at million-flow scale: wl_* summaries are
  // then computed over a deterministic fixed-seed reservoir while
  // wl_started / wl_completed stay exact totals.
  int64_t fct_reservoir = 0;
  // When false, receivers drop completed FlowRecords instead of retaining
  // them for post-run readouts — the other half of keeping memory bounded
  // by *concurrent* (not cumulative) flows on million-flow sweeps.
  bool retain_flow_records = true;
};

// The trial honors TrialContext::shards (0 = default engine, N >= 1 = the
// sharded engine via MakeClosShardPlan, clamped to the shape's ToR count —
// byte-identical results for every N) and arms TrialContext::faults when
// the spec carries a plan.
runner::TrialSpec ScaleTrial(const ScaleCase& c,
                             const ScaleTrialOptions& opt);

}  // namespace bench
}  // namespace dcqcn
