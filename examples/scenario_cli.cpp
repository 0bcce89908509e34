// scenario_cli — drive a whole experiment from the command line.
//
// Usage:
//   scenario_cli [options]
//     --topo=star|clos          (default clos)
//     --hosts=N                 hosts (star) or hosts-per-ToR (clos), def 5
//     --cc=POLICY               congestion control: any registered CcPolicy
//                               name (raw|dcqcn|dctcp|qcn|timely|...),
//                               default dcqcn
//     --workload=SPEC           traffic: a registered WorkloadPattern,
//                               NAME[:key=val,...] (e.g. incast:fanin=16 or
//                               allreduce-ring:nodes=8,kb=4096); composes
//                               with --cc. Default: the §6.2 storage
//                               backend, pairs:pairs=12,incast=K with
//                               K = min(8, host count - 1)
//     --host=SPEC               attach the host-path device model to every
//                               NIC and route --workload emission through
//                               it, PROFILE[:key=val,...] (e.g. default or
//                               tiny-cache:qp_cache=8); requires --workload
//     --shards=N                run on the sharded parallel engine with N
//                               shards (clos only: the fabric is cut by
//                               ToR, so N must be <= the ToR count; the
//                               run's outputs are byte-identical for every
//                               valid N). Absent = the default engine.
//     --ms=D                    simulated milliseconds (default 30)
//     --seed=S                  RNG seed (default 1)
//     --no-pfc                  disable PFC (lossy fabric)
//     --storm-host=IDX          babbling NIC: host IDX (< host count) emits
//                               a PAUSE storm
//     --storm-ms=D              storm duration (default 5, with --storm-host)
//     --trace=PATH              dump a Chrome/Perfetto trace of the run
//
// --trace enables the structured event tracer on every switch, NIC and
// link and writes the run's records as Chrome trace-event JSON (load in
// ui.perfetto.dev or chrome://tracing): queue-depth counters per
// (switch, port, priority), PAUSE/RESUME and ECN instants, per-flow CNP
// and rate/alpha tracks, and fault begin/heal markers.
//
// With --storm-host the run arms a FaultInjector (storm starts at 1/4 of
// the simulated time) and a PauseStormDetector watchdogging every switch,
// and the report grows a pause-storm section: alarms raised and per-switch
// paused-time totals.
//
// Prints a one-screen report: workload completions and goodput / FCT
// distributions, then the fabric's PAUSE, ECN-mark and drop totals. A
// compact way to explore the system without writing code — exercises the
// whole public API via the umbrella header. A bad command line (unknown
// option, policy, workload key or value, impossible --shards cut or
// --storm-host) exits 2 with a message naming the offending argument.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "dcqcn.h"
#include "runner/serialize.h"

using namespace dcqcn;

namespace {

struct Args {
  std::string topo = "clos";
  int hosts = 5;
  std::string cc = "dcqcn";
  std::string workload;  // empty = the default storage-backend pairs spec
  std::string host;      // empty = no host-path device model
  int shards = 0;        // 0 = default engine; >= 1 = sharded engine
  int ms = 30;
  uint64_t seed = 1;
  bool pfc = true;
  int storm_host = -1;  // host index; -1 = no storm
  int storm_ms = 5;
  std::string trace_path;  // empty = tracing off
};

bool Parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    auto val = [&s](const char* key) -> const char* {
      const size_t n = std::strlen(key);
      return s.compare(0, n, key) == 0 ? s.c_str() + n : nullptr;
    };
    if (const char* v = val("--topo=")) {
      a->topo = v;
    } else if (const char* v = val("--hosts=")) {
      a->hosts = std::atoi(v);
    } else if (const char* v = val("--cc=")) {
      a->cc = v;
    } else if (const char* v = val("--workload=")) {
      a->workload = v;
    } else if (const char* v = val("--host=")) {
      a->host = v;
    } else if (const char* v = val("--shards=")) {
      a->shards = std::atoi(v);
      if (a->shards < 1) {
        std::fprintf(stderr, "--shards must be >= 1 (got '%s')\n", v);
        return false;
      }
    } else if (const char* v = val("--ms=")) {
      a->ms = std::atoi(v);
    } else if (const char* v = val("--seed=")) {
      a->seed = static_cast<uint64_t>(std::atoll(v));
    } else if (const char* v = val("--storm-host=")) {
      a->storm_host = std::atoi(v);
    } else if (const char* v = val("--storm-ms=")) {
      a->storm_ms = std::atoi(v);
    } else if (const char* v = val("--trace=")) {
      a->trace_path = v;
    } else if (s == "--no-pfc") {
      a->pfc = false;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", s.c_str());
      return false;
    }
  }
  return true;
}

void PrintCdf(const char* label, const Cdf& c) {
  if (c.empty()) {
    std::printf("  %-18s (no samples)\n", label);
    return;
  }
  std::printf("  %-18s p10 %6.2f  p50 %6.2f  p90 %6.2f  (%zu samples)\n",
              label, c.Quantile(0.1), c.Quantile(0.5), c.Quantile(0.9),
              c.size());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) return 2;

  // Factory lookup: --cc names the CcPolicy; its registration also fixes
  // the receiver feedback and switch defaults its flows ride on.
  const int16_t cc_policy = CcPolicyIdByName(args.cc);
  if (cc_policy < 0) {
    std::string names;
    for (const std::string& n : CcPolicyNames()) {
      if (!names.empty()) names += ", ";
      names += n;
    }
    std::fprintf(stderr, "unknown --cc policy '%s' (registered: %s)\n",
                 args.cc.c_str(), names.c_str());
    return 2;
  }

  // --host: validate the spec up front; the config lands in every NIC via
  // TopologyOptions below, and emission is routed through VerbsWorkloadHost.
  host::HostPathConfig host_cfg;
  if (!args.host.empty()) {
    const host::HostSpec hspec = host::ParseHostSpec(args.host);
    const std::string herr = host::CheckHostSpec(hspec);
    if (!herr.empty()) {
      std::fprintf(stderr, "bad --host '%s': %s\n", args.host.c_str(),
                   herr.c_str());
      return 2;
    }
    host_cfg = host::MakeHostPathConfig(hspec);
    if (host_cfg.enabled && args.workload.empty()) {
      std::fprintf(stderr,
                   "--host models workload emission; combine it with "
                   "--workload=SPEC\n");
      return 2;
    }
  }

  // --shards: the sharded engine needs a partition of the topology before
  // the Network exists. Only the Clos fabric has one (cut by ToR); report
  // an impossible cut as an error rather than silently falling back.
  ShardPlan shard_plan;
  if (args.shards > 0) {
    if (args.topo != "clos") {
      std::fprintf(stderr,
                   "--shards=%d: no valid cut for --topo=%s (only the Clos "
                   "fabric partitions by ToR)\n",
                   args.shards, args.topo.c_str());
      return 2;
    }
    ClosShape shape;  // BuildClos(net, hosts, opt) uses the paper defaults
    shape.hosts_per_tor = args.hosts;
    shard_plan = MakeClosShardPlan(shape, args.shards);
    if (!shard_plan.ok) {
      std::fprintf(stderr, "--shards=%d: %s\n", args.shards,
                   shard_plan.error.c_str());
      return 2;
    }
  }

  std::optional<Network> net_storage;
  if (args.shards > 0) {
    net_storage.emplace(args.seed, shard_plan);
  } else {
    net_storage.emplace(args.seed);
  }
  Network& net = *net_storage;
  // A deep ring (1M records, ~40 MB) so multi-ms runs keep their rare
  // events (fault markers, early PAUSE edges) alongside the dense ones.
  if (!args.trace_path.empty()) net.EnableTracing(size_t{1} << 20);
  TopologyOptions opt;
  cc::ApplyCcSwitchDefaults(cc_policy, &opt.switch_config);
  opt.switch_config.pfc_enabled = args.pfc;
  if (!args.pfc) opt.switch_config.lossy_egress_cap = 1 * kMiB;
  if (args.storm_host >= 0) {
    // A babbling NIC is only meaningful under real 802.1Qbb quanta
    // semantics: PAUSE is a lease the storm has to keep refreshing.
    opt.switch_config.pfc_pause_expiry = Microseconds(840);
    opt.switch_config.pfc_pause_refresh = Microseconds(200);
    opt.nic_config.pfc_pause_expiry = Microseconds(840);
  }
  opt.nic_config.host_path = host_cfg;

  std::vector<RdmaNic*> hosts;
  std::vector<SharedBufferSwitch*> spines;
  if (args.topo == "star") {
    StarTopology topo = BuildStar(net, args.hosts, opt);
    hosts = topo.hosts;
  } else {
    ClosTopology topo = BuildClos(net, args.hosts, opt);
    hosts = topo.AllHosts();
    spines = topo.spines;
  }

  if (args.storm_host >= static_cast<int>(hosts.size())) {
    std::fprintf(stderr, "--storm-host=%d: no such host (%zu hosts)\n",
                 args.storm_host, hosts.size());
    return 2;
  }

  // One traffic path: a registered pattern over every host, flows stamped
  // with the --cc policy. The default is the §6.2 storage backend, its
  // incast clamped so small fabrics still have a receiver to spare.
  if (args.workload.empty()) {
    args.workload =
        "pairs:pairs=12,incast=" +
        std::to_string(std::min(8, static_cast<int>(hosts.size()) - 1));
  }
  const workload::WorkloadSpec spec =
      workload::ParseWorkloadSpec(args.workload);
  const std::string wl_err =
      workload::WorkloadSpecError(spec, static_cast<int>(hosts.size()));
  if (!wl_err.empty()) {
    std::fprintf(stderr, "bad --workload '%s': %s (usage: --workload=NAME"
                 "[:key=val,...])\n", args.workload.c_str(), wl_err.c_str());
    return 2;
  }
  const std::unique_ptr<workload::WorkloadPattern> pattern =
      workload::CreateWorkloadPattern(spec, args.seed);
  std::unique_ptr<workload::SimWorkloadHost> wl_host;
  std::unique_ptr<workload::VerbsWorkloadHost> verbs_host;
  const workload::WorkloadMetrics* wl_metrics = nullptr;
  if (host_cfg.enabled) {
    verbs_host =
        std::make_unique<workload::VerbsWorkloadHost>(net, hosts, cc_policy);
    verbs_host->Begin(*pattern);
    wl_metrics = &verbs_host->metrics();
  } else {
    wl_host =
        std::make_unique<workload::SimWorkloadHost>(net, hosts, cc_policy);
    wl_host->Begin(*pattern);
    wl_metrics = &wl_host->metrics();
  }

  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<PauseStormDetector> detector;
  if (args.storm_host >= 0) {
    FaultPlan plan;
    plan.Add(PauseStorm(hosts[static_cast<size_t>(args.storm_host)]->id(),
                        kDataPriority,
                        static_cast<Time>(args.ms) * kMillisecond / 4,
                        static_cast<Time>(args.storm_ms) * kMillisecond));
    injector = std::make_unique<FaultInjector>(&net, plan, args.seed + 7);
    injector->Arm();
    detector = std::make_unique<PauseStormDetector>(
        &net.eq(), PauseStormDetectorConfig{});
    for (const auto& sw : net.switches()) detector->Watch(sw.get());
    detector->Start();
  }

  net.RunFor(static_cast<Time>(args.ms) * kMillisecond);

  const workload::WorkloadMetrics& m = *wl_metrics;
  std::printf("scenario: %s, %zu hosts, cc=%s, workload=%s, ",
              args.topo.c_str(), hosts.size(), args.cc.c_str(),
              args.workload.c_str());
  if (host_cfg.enabled) std::printf("host=%s, ", args.host.c_str());
  std::printf("%d ms, pfc=%s", args.ms, args.pfc ? "on" : "OFF");
  if (net.sharded()) std::printf(", shards=%d", net.num_shards());
  std::printf("\n\n");
  std::printf("workload: started %lld, completed %lld, in flight %lld, "
              "skipped %lld\n",
              static_cast<long long>(m.started),
              static_cast<long long>(m.completed),
              static_cast<long long>(m.in_flight),
              static_cast<long long>(m.skipped));
  PrintCdf("goodput (Gbps)", m.goodput_gbps);
  PrintCdf("fct (us)", m.fct_us);
  PrintCdf("fct slowdown", m.slowdown);
  PrintCdf("iteration (us)", m.iteration_us);
  if (host_cfg.enabled) {
    const workload::HostPathTally t = workload::TallyHostPath(hosts);
    std::printf("host path: posted %lld, doorbells %lld, sq stalls %lld, "
                "qp-cache miss %.1f%% (%lld/%lld)\n",
                static_cast<long long>(t.wr_posted),
                static_cast<long long>(t.doorbells),
                static_cast<long long>(t.sq_stalls), t.qp_miss_pct(),
                static_cast<long long>(t.qp_misses),
                static_cast<long long>(t.qp_lookups()));
  }

  int64_t marks = 0;
  for (const auto& sw : net.switches()) {
    marks += sw->counters().ecn_marked_packets;
  }
  int64_t spine_pauses = 0;
  for (auto* s : spines) spine_pauses += s->counters().pause_frames_received;
  std::printf("\nfabric: PAUSE sent %lld (at spines: %lld), ECN marks %lld, "
              "drops %lld\n",
              static_cast<long long>(net.TotalPauseFramesSent()),
              static_cast<long long>(spine_pauses),
              static_cast<long long>(marks),
              static_cast<long long>(net.TotalDrops()));

  if (detector) {
    std::printf("\npause storm (host %d babbling for %d ms):\n",
                args.storm_host, args.storm_ms);
    std::printf("  detector alarms: %zu\n", detector->alarms().size());
    for (const PauseStormDetector::Alarm& a : detector->alarms()) {
      std::printf("    t=%.2f ms  switch %d port %d prio %d  paused "
                  "fraction %.2f\n",
                  static_cast<double>(a.at) /
                      static_cast<double>(kMillisecond),
                  a.switch_id, a.port, a.priority, a.fraction);
    }
    std::printf("  paused time by switch (ms):");
    for (const auto& sw : net.switches()) {
      std::printf("  %d:%.2f", sw->id(),
                  static_cast<double>(sw->PausedTimeTotalAll()) /
                      static_cast<double>(kMillisecond));
    }
    std::printf("\n");
  }

  if (!args.trace_path.empty()) {
    if (runner::WriteFile(args.trace_path, net.ExportChromeTrace())) {
      if (net.sharded()) {
        // Records live in per-shard rings; the export already merged them.
        std::printf("\nwrote trace %s\n", args.trace_path.c_str());
      } else {
        std::printf("\nwrote trace %s (%zu of %zu events retained)\n",
                    args.trace_path.c_str(), net.tracer()->size(),
                    net.tracer()->total_recorded());
      }
    } else {
      std::fprintf(stderr, "failed to write trace %s\n",
                   args.trace_path.c_str());
      return 1;
    }
  }
  return 0;
}
