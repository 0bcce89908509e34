// Shared scaffolding for the benches: the command line, CC-comparison
// helpers and the one Clos sweep trial (ext_scale, ext_workload,
// ext_hostpath, ext_million). The paper's own figures live in
// bench/figures.h.
#pragma once

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "cc/scenarios.h"
#include "core/params.h"
#include "net/topology.h"
#include "runner/runner.h"
#include "stats/stats.h"

namespace dcqcn {
namespace bench {

// ---------- Command line ----------
//
// A bench's own flags come off argv first — `switches` such as --smoke,
// and `options` that take a value such as --figure NAME (`--opt v` or
// `--opt=v`, repeatable) — and runner::ParseCli parses the rest, honoring
// the runner flags in `honored` (a runner::CliFlag set). A usage error is
// printed to stderr and leaves cli.ok false; the bench then exits 2.
struct BenchCli {
  runner::CliOptions cli;
  // Each own flag given -> its values in order (none for a switch).
  std::map<std::string, std::vector<std::string>> own;
  bool Has(const std::string& flag) const { return own.count(flag) != 0; }
};
BenchCli ParseBenchCli(int argc, char** argv, unsigned honored,
                       const std::vector<std::string>& switches = {},
                       const std::vector<std::string>& options = {});

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

// ---------- The Clos sweep trial ----------
//
// One trial = one Clos fabric under sustained load, with or without a
// structured pattern. Without one, every host opens `flows_per_host`
// unbounded cross-ToR DCQCN flows (one deterministic incast into the
// neighbor ToR's first host so CNP/alpha/rate timers stay armed, the rest
// to seed-drawn hosts in other ToRs). ext_scale sweeps the shapes;
// ext_workload (one pattern per case), ext_hostpath (one workload and host
// profile per case) and ext_million (one arrival horizon per case) run
// their matrices through the same trial. Every serialized number is
// deterministic, so the runner's jobs=1 ≡ jobs=8 byte-identity holds.
// Wall-clock throughput (sim-sec/wall-sec, events/sec) is written to the
// optional side table indexed by trial_index, never into the TrialResult.
struct ScaleCase {
  std::string name;
  ClosShape shape;
  int flows_per_host = 2;
  Time duration = Milliseconds(1);
};

// 32 ToRs / 512 hosts: ext_scale's headline shape, and the fabric
// ext_workload, ext_hostpath and ext_million run on.
inline constexpr ClosShape kXlargeShape{.pods = 8, .tors_per_pod = 4,
                                        .leaves_per_pod = 4, .spines = 8,
                                        .hosts_per_tor = 16};

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
  // the built-in greedy mix with the pattern (wl_* counters and the wl.*
  // registry snapshot in the result; agg_goodput_gbps counts completed
  // transfers).
  std::string workload;
  // `PROFILE[:k=v,...]` host-path device spec; non-empty attaches the
  // device model, (with a workload) routes emission through it, and adds
  // the host_* tally and qp_miss_pct to the result.
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
// byte-identical results for every N) and TrialContext::hybrid, and arms
// TrialContext::faults when the spec carries a plan.
runner::TrialSpec ScaleTrial(const ScaleCase& c,
                             const ScaleTrialOptions& opt);

// Runs one ScaleTrial per case, case i under opts[i], with --jobs, --seed,
// --shards and --hybrid from `cli`. Each case's workload spec is checked
// against its fabric's host count first: one that does not fit is printed
// as "bad --workload" naming the case and value, and nothing runs (returns
// false; the bench exits 2).
bool RunScaleSweep(const std::vector<ScaleCase>& cases,
                   const std::vector<ScaleTrialOptions>& opts,
                   const runner::CliOptions& cli,
                   std::vector<runner::TrialResult>* results);

}  // namespace bench
}  // namespace dcqcn
