// Shared experiment runners for the figure-reproduction benches.
//
// Each paper experiment that appears twice (with and without DCQCN) has a
// single parameterized runner here, so the PFC-only and DCQCN benches are
// guaranteed to differ in nothing but the transport mode.
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

// ---------- Fig. 3 / Fig. 8: parking-lot unfairness on the testbed ----------
//
// H1-H3 under T1, H4 under T4, all sending 4 MB transfers back-to-back to R
// (also under T4). Per-transfer goodputs are pooled over `repeats` runs with
// different ECMP salts ("depending on how ECMP maps the flows").
struct UnfairnessResult {
  std::vector<Cdf> per_host;  // goodput (Gbps) of H1..H4
};

UnfairnessResult RunUnfairness(TransportMode mode, Time duration_per_run,
                               int repeats, uint64_t seed_base);

// ---------- Fig. 4 / Fig. 9: victim flow ----------
//
// H11-H14 (under T1) run a greedy incast into R (under T4); VS (under T1)
// sends 2 MB transfers to VR (under T2); `t3_senders` extra greedy senders
// under T3 also target R. Returns the pooled victim per-transfer goodputs.
Cdf RunVictim(TransportMode mode, int t3_senders, Time duration_per_run,
              int repeats, uint64_t seed_base);

// ---------- §6.2 benchmark traffic (Figs. 15-18) ----------
struct TrafficResult {
  Cdf user;    // per-transfer goodput, Gbps
  Cdf incast;  // per-rebuild-flow goodput, Gbps
  int64_t spine_pauses = 0;  // PAUSE frames received at S1+S2
  int64_t total_pauses = 0;  // PAUSE frames sent anywhere
  int64_t drops = 0;
};

TrafficResult RunBenchmarkTraffic(TransportMode mode, int incast_degree,
                                  int num_pairs, Time duration,
                                  uint64_t seed,
                                  const TopologyOptions& topo_opts);

// ---------- Fig. 13: two-flow parameter validation ----------
//
// Two unbounded flows through one star switch, the second joining at 5 ms;
// 100 ms run, statistics over the settled tail [50 ms, 100 ms). Shared by
// the fig. 13 bench and any parameter-ablation study.
struct TwoFlowResult {
  double r1 = 0, r2 = 0;  // tail-window mean goodput, Gbps
  double stddev1 = 0;     // flow-1 rate stddev over the tail (stability)
};

TwoFlowResult RunTwoFlowValidation(const DcqcnParams& params,
                                   uint64_t seed = 6);

// ---------- §6.1: K:1 incast with deployment parameters ----------
//
// 20 ms run; throughput and bottleneck-queue statistics over the second
// half (tail from 10 ms), sampled every 10 us.
struct IncastResult {
  double total_gbps = 0;       // aggregate delivered goodput over the tail
  double p99_queue_bytes = 0;  // bottleneck egress-queue p99 over the tail
};

IncastResult RunIncast(int k, uint64_t seed = 8);

inline TopologyOptions DefaultTopo() { return TopologyOptions{}; }

// ---------- CC-comparison scaffolding (ext_qcn / ext_timely) ----------
//
// The scenario-independent pieces the congestion-control comparison benches
// share: switch-side defaults for a policy's experiments, greedy-flow
// startup with the policy stamped on, and windowed goodput readouts.
// Keeping them here guarantees the harnesses differ only in scenario shape,
// and gives every bench the same --cc=POLICY axis (runner::ResolveCc).

// Topology options with the switch defaults `mode`'s experiments assume
// (QCN: switch CP on + RED off; TIMELY: RED off; others: deployment RED).
inline TopologyOptions CcTopo(TransportMode mode) {
  TopologyOptions opt;
  cc::ApplyCcSwitchDefaults(mode, &opt.switch_config);
  return opt;
}

// Starts one greedy (unbounded) flow src -> dst with an explicit flow id
// under the given CC selection.
void StartGreedyFlow(Network& net, RdmaNic* src, RdmaNic* dst, int flow_id,
                     const runner::CcSelection& cc, Time start = 0);

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
  runner::CcSelection cc = {TransportMode::kRdmaDcqcn, -1};
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

// Convenience quantile printers.
inline double Q(const Cdf& c, double p) {
  return c.empty() ? 0.0 : c.Quantile(p);
}

// Median of each pooled CDF (0 for an empty one) — the per-host / per-config
// statistic figs. 8 and 9 compare.
inline std::vector<double> Medians(const std::vector<Cdf>& cdfs) {
  std::vector<double> m;
  m.reserve(cdfs.size());
  for (const Cdf& c : cdfs) m.push_back(Q(c, 0.5));
  return m;
}

// max - min of a value set (fig. 9's "flat across configs" measure).
inline double Spread(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  return *hi - *lo;
}

}  // namespace bench
}  // namespace dcqcn
