#include <chrono>
#include <memory>
#include <optional>
#include <string>

#include "bench/common.h"
#include "fault/fault_injector.h"
#include "host/host_config.h"
#include "hybrid/engine.h"
#include "net/shard.h"
#include "telemetry/metric_registry.h"
#include "workload/sim_host.h"
#include "workload/verbs_host.h"
#include "workload/workload.h"

namespace dcqcn {
namespace bench {

BenchCli ParseBenchCli(int argc, char** argv, unsigned honored,
                       const std::vector<std::string>& switches,
                       const std::vector<std::string>& options) {
  BenchCli b;
  std::vector<char*> rest = {argv[0]};
  auto is = [](const std::vector<std::string>& set, const std::string& a) {
    return std::find(set.begin(), set.end(), a) != set.end();
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    if (is(switches, arg)) {
      b.own[arg];
    } else if (is(options, name)) {
      if (eq == std::string::npos && i + 1 >= argc) {
        b.cli.ok = false;
        b.cli.error = name + " requires a value";
        break;
      }
      b.own[name].push_back(eq != std::string::npos ? arg.substr(eq + 1)
                                                    : argv[++i]);
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (b.cli.ok) {
    b.cli = runner::ParseCli(static_cast<int>(rest.size()), rest.data(),
                             honored);
  }
  if (!b.cli.ok) std::fprintf(stderr, "%s\n", b.cli.error.c_str());
  return b;
}

std::vector<ScaleCase> ScaleCases(bool smoke) {
  const Time unit = smoke ? Microseconds(100) : Milliseconds(1);
  std::vector<ScaleCase> cases;
  // Paper testbed shape (Fig. 2): 4 ToRs, 20 hosts.
  cases.push_back({"paper_4tor_20h", ClosShape{}, 2, 4 * unit});
  // 8 ToRs / 64 hosts.
  cases.push_back({"mid_8tor_64h",
                   ClosShape{.pods = 4, .tors_per_pod = 2, .leaves_per_pod = 2,
                             .spines = 4, .hosts_per_tor = 8},
                   2, 2 * unit});
  // 16 ToRs / 256 hosts / 1024 flows.
  cases.push_back({"large_16tor_256h",
                   ClosShape{.pods = 4, .tors_per_pod = 4, .leaves_per_pod = 4,
                             .spines = 8, .hosts_per_tor = 16},
                   4, unit});
  // 32 ToRs / 512 hosts / 1024 flows — the headline scale target.
  cases.push_back({"xlarge_32tor_512h", kXlargeShape, 2, unit});
  return cases;
}

runner::TrialSpec ScaleTrial(const ScaleCase& c,
                             const ScaleTrialOptions& opt) {
  runner::TrialSpec spec;
  spec.name = c.name;
  // Specs are parsed at matrix-build time (callers validated them — the
  // benches via ParseCli, tests with literals), so trial bodies only carry
  // plain values.
  workload::WorkloadSpec wspec;
  if (!opt.workload.empty()) {
    wspec = workload::ParseWorkloadSpec(opt.workload);
    DCQCN_CHECK(wspec.ok);
  }
  host::HostPathConfig host_cfg;  // default: disabled (wire-only)
  if (!opt.host.empty()) {
    host_cfg = host::MakeHostPathConfig(host::ParseHostSpec(opt.host));
  }
  std::vector<double>* wall_seconds = opt.wall_seconds;
  const int16_t cc = opt.cc;
  const bool use_pattern = !opt.workload.empty();
  const int64_t fct_reservoir = opt.fct_reservoir;
  const bool retain_flow_records = opt.retain_flow_records;
  const double size_scale = opt.workload_size_scale;
  spec.run = [c, wall_seconds, cc, wspec, host_cfg, use_pattern,
              fct_reservoir, retain_flow_records,
              size_scale](const runner::TrialContext& ctx) {
    // --shards=N selects the sharded engine; both engines sit behind the
    // same Network surface, so everything below is engine-agnostic.
    std::optional<Network> net_storage;
    if (ctx.shards > 0) {
      // A ToR plus its hosts is the smallest shard unit, so a sweep shape
      // with fewer ToRs than --shards runs at its maximum cut. Result bytes
      // are shard-count-invariant, which makes the clamp invisible.
      const ShardPlan plan = MakeClosShardPlan(
          c.shape, std::min(ctx.shards, c.shape.num_tors()));
      DCQCN_CHECK(plan.ok);
      net_storage.emplace(ctx.seed, plan);
    } else {
      net_storage.emplace(ctx.seed);
    }
    Network& net = *net_storage;
    TopologyOptions topt = CcTopo(cc);
    topt.nic_config.host_path = host_cfg;
    const ClosTopology topo = BuildClos(net, c.shape, topt);
    // --hybrid wraps the run loop in the flow-level fast-forward controller.
    // Constructed after wiring and before any StartFlow, per its contract;
    // ParseCli already rejected the --shards/--host combinations.
    std::optional<hybrid::HybridEngine> hyb;
    if (!ctx.hybrid.empty()) {
      DCQCN_CHECK(ctx.shards == 0 && !host_cfg.enabled);
      hybrid::HybridConfig hcfg;
      DCQCN_CHECK(hybrid::ParseHybridSpec(
          ctx.hybrid == "on" ? "" : ctx.hybrid, &hcfg));
      hyb.emplace(&net, hcfg, ctx.faults);
    }
    const std::vector<RdmaNic*> hosts = topo.AllHosts();
    if (!retain_flow_records) {
      for (RdmaNic* h : hosts) h->SetRetainCompletedRecords(false);
    }
    const int n = static_cast<int>(hosts.size());
    const int hpt = c.shape.hosts_per_tor;
    const int num_tors = c.shape.num_tors();

    struct FlowRef {
      RdmaNic* dst;
      int flow_id;
    };
    std::vector<FlowRef> flows;
    std::unique_ptr<workload::WorkloadPattern> pattern;
    std::optional<workload::SimWorkloadHost> whost;
    std::unique_ptr<workload::VerbsWorkloadHost> vhost;
    if (use_pattern) {
      // Structured workload instead of the built-in greedy mix: pattern
      // randomness on its own stream, host-path emission when the device
      // model is attached.
      pattern = workload::CreateWorkloadPattern(
          wspec, runner::DeriveTrialSeed(ctx.seed, 0x3a11), size_scale);
      whost.emplace(net, hosts, cc);
      if (host_cfg.enabled) {
        vhost = std::make_unique<workload::VerbsWorkloadHost>(
            net, hosts, cc);
      }
      if (fct_reservoir > 0) {
        // Caps apply before any sample lands, so capped and uncapped runs
        // agree exactly until the reservoir overflows.
        workload::WorkloadMetrics& m =
            host_cfg.enabled ? vhost->metrics() : whost->metrics();
        const auto cap = static_cast<size_t>(fct_reservoir);
        m.goodput_gbps.SetCap(cap);
        m.fct_us.SetCap(cap);
        m.slowdown.SetCap(cap);
        m.iteration_us.SetCap(cap);
      }
      if (host_cfg.enabled) {
        vhost->Begin(*pattern);
      } else {
        whost->Begin(*pattern);
      }
    } else {
      // Traffic draws come from a stream distinct from the network's own
      // (RED marking etc.) so adding a flow never perturbs wire randomness.
      Rng traffic(runner::DeriveTrialSeed(ctx.seed, 0x5ca1e));
      flows.reserve(static_cast<size_t>(n) * c.flows_per_host);
      for (int i = 0; i < n; ++i) {
        const int tor = i / hpt;
        for (int f = 0; f < c.flows_per_host; ++f) {
          int dst;
          if (f == 0) {
            // Deterministic hpt:1 incast into the next ToR's first host —
            // guarantees sustained congestion, so CNPs flow and every QP's
            // alpha/rate timers stay armed (the load the timer wheel exists
            // for). The destination is in the *next* ToR, so every flow of
            // the mix crosses a shard boundary under any ToR partition.
            dst = ((tor + 1) % num_tors) * hpt;
          } else {
            do {
              dst = static_cast<int>(traffic.UniformInt(0, n - 1));
            } while (dst / hpt == tor);
          }
          FlowSpec fs;
          fs.flow_id = net.NextFlowId();
          fs.src_host = hosts[static_cast<size_t>(i)]->id();
          fs.dst_host = hosts[static_cast<size_t>(dst)]->id();
          fs.size_bytes = 0;  // unbounded: concurrent for the whole window
          fs.cc_policy = cc;
          fs.ecmp_salt = traffic.NextU64();
          net.StartFlow(fs);
          flows.push_back({hosts[static_cast<size_t>(dst)], fs.flow_id});
        }
      }
    }

    // Declarative faults from the spec (empty plan = no injector, result
    // bytes unchanged). The injector outlives the run: installed loss
    // profiles draw from its Rng.
    std::optional<FaultInjector> inj;
    if (ctx.faults != nullptr && !ctx.faults->empty()) {
      inj.emplace(&net, *ctx.faults, ctx.seed * 0x9e3779b97f4a7c15ULL + 1);
      inj->Arm();
    }

    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t events =
        hyb.has_value() ? hyb->Run(c.duration) : net.Run(c.duration);
    const auto t1 = std::chrono::steady_clock::now();
    if (wall_seconds != nullptr) {
      (*wall_seconds)[ctx.trial_index] =
          std::chrono::duration<double>(t1 - t0).count();
    }

    int64_t delivered = 0;
    for (const FlowRef& fr : flows) {
      delivered += fr.dst->ReceiverDeliveredBytes(fr.flow_id);
    }

    runner::TrialResult r;
    r.counters["hosts"] = n;
    r.counters["flows"] = static_cast<int64_t>(flows.size());
    r.counters["events"] = static_cast<int64_t>(events);
    r.counters["delivered_bytes"] = delivered;
    r.counters["cnps"] = net.TotalCnpsSent();
    r.counters["drops"] = net.TotalDrops();
    r.counters["pause_frames"] = net.TotalPauseFramesSent();
    double goodput_gbps =
        8.0 * static_cast<double>(delivered) / ToSeconds(c.duration) / 1e9;
    if (use_pattern) {
      const workload::WorkloadMetrics& m =
          host_cfg.enabled ? vhost->metrics() : whost->metrics();
      workload::FillTrialResult(m, &r);
      telemetry::MetricRegistry reg;
      workload::ExportMetrics(m, &reg);
      r.registry = reg.Snapshot();
      // Pattern flows are finite: goodput is completed-transfer bytes
      // (application goodput, what a host-path cliff collapses).
      double completed_bytes = 0;
      for (const RdmaNic* h : hosts) {
        for (const FlowRecord& rec : h->completed_flows()) {
          completed_bytes += static_cast<double>(rec.bytes);
        }
      }
      goodput_gbps = completed_bytes * 8.0 / ToMicroseconds(c.duration) / 1e3;
    }
    if (host_cfg.enabled) {
      const workload::HostPathTally t = workload::TallyHostPath(hosts);
      r.counters["host_wr_posted"] = t.wr_posted;
      r.counters["host_wr_launched"] = t.wr_launched;
      r.counters["host_wr_completed"] = t.wr_completed;
      r.counters["host_wr_retired"] = t.wr_retired;
      r.counters["host_doorbells"] = t.doorbells;
      r.counters["host_sq_stalls"] = t.sq_stalls;
      r.counters["host_qp_hits"] = t.qp_hits;
      r.counters["host_qp_misses"] = t.qp_misses;
      r.counters["host_qp_lookups"] = t.qp_lookups();
      r.counters["host_mr_hits"] = t.mr_hits;
      r.counters["host_mr_misses"] = t.mr_misses;
      r.metrics["qp_miss_pct"] = t.qp_miss_pct();
    }
    if (inj.has_value()) {
      r.counters["faults_started"] = inj->faults_started();
      r.counters["faults_healed"] = inj->faults_healed();
    }
    if (hyb.has_value()) {
      // Emitted only under --hybrid, so hybrid-off output stays
      // byte-identical to every pre-hybrid binary.
      const hybrid::HybridStats& hs = hyb->stats();
      r.counters["hybrid_epochs"] = hs.epochs;
      r.counters["hybrid_ff_completions"] = hs.ff_completions;
      r.counters["hybrid_ff_packets"] = hs.ff_packets;
      r.counters["hybrid_probes"] = hs.probes;
      r.counters["hybrid_entry_rejects"] = hs.entry_rejects;
      r.counters["hybrid_exits_infeasible"] = hs.exits_infeasible;
      r.counters["hybrid_exits_fault"] = hs.exits_fault;
      for (size_t i = 0; i < hybrid::kNumRejectReasons; ++i) {
        r.counters[std::string("hybrid_reject_") +
                   hybrid::RejectReasonName(
                       static_cast<hybrid::RejectReason>(i))] =
            hs.rejects[i];
      }
      r.metrics["hybrid_ff_ms"] = ToMilliseconds(hs.ff_time);
    }
    r.metrics["sim_ms"] = ToSeconds(c.duration) * 1e3;
    r.metrics["agg_goodput_gbps"] = goodput_gbps;
    return r;
  };
  return spec;
}

bool RunScaleSweep(const std::vector<ScaleCase>& cases,
                   const std::vector<ScaleTrialOptions>& opts,
                   const runner::CliOptions& cli,
                   std::vector<runner::TrialResult>* results) {
  DCQCN_CHECK(cases.size() == opts.size());
  std::vector<runner::TrialSpec> matrix;
  matrix.reserve(cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    const std::string& wl = opts[i].workload;
    if (!wl.empty()) {
      const std::string err = workload::WorkloadSpecError(
          workload::ParseWorkloadSpec(wl), cases[i].shape.num_hosts());
      if (!err.empty()) {
        std::fprintf(stderr, "bad --workload '%s' on %s (%d hosts): %s\n",
                     wl.c_str(), cases[i].name.c_str(),
                     cases[i].shape.num_hosts(), err.c_str());
        return false;
      }
    }
    matrix.push_back(ScaleTrial(cases[i], opts[i]));
  }
  runner::RunnerOptions opt;
  opt.jobs = cli.jobs;
  opt.base_seed = cli.seed;
  opt.shards = cli.shards;
  opt.hybrid = cli.hybrid;
  *results = runner::RunTrials(matrix, opt);
  return true;
}

void StartGreedyFlow(Network& net, RdmaNic* src, RdmaNic* dst, int flow_id,
                     int16_t policy, Time start, uint64_t ecmp_salt) {
  FlowSpec f;
  f.flow_id = flow_id;
  f.src_host = src->id();
  f.dst_host = dst->id();
  f.size_bytes = 0;  // greedy
  f.cc_policy = policy;
  f.start_time = start;
  f.ecmp_salt = ecmp_salt;
  net.StartFlow(f);
}

Bytes DeliveredSum(const RdmaNic* dst, int n) {
  Bytes total = 0;
  for (int i = 0; i < n; ++i) total += dst->ReceiverDeliveredBytes(i);
  return total;
}

double WindowGbps(Bytes bytes, Time window) {
  if (window <= 0) return 0.0;
  return static_cast<double>(bytes) * 8 /
         (static_cast<double>(window) / static_cast<double>(kSecond)) / 1e9;
}

}  // namespace bench
}  // namespace dcqcn
