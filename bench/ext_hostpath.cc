// Extension — the host-path last mile: QP-cache thrash on the large Clos.
//
// Runs the qpchurn workload (every host cycling 4 KB messages over `fanout`
// warm QPs to random peers) on the 32-ToR / 512-host Clos, sweeping
// active-QP-count (fanout) against the host-path QP/MR cache size:
//
//   wire      no host-path device — the pre-PR8 baseline
//   cache64   --host=default       (64-entry QP cache: fanout always fits)
//   cache8    --host=tiny-cache    ( 8-entry QP cache)
//
// The point of the matrix: with fanout <= 8 the tiny cache behaves like the
// big one, but the moment fanout exceeds it, qpchurn's near-round-robin
// completion order is the LRU worst case — EVERY work request pays a
// serialized ICM context fetch over PCIe — and application goodput
// collapses by well over 2x while the fabric itself is idle. That is the
// "last mile" host bottleneck (RDCA-style), invisible to any wire-only
// model, reproduced deterministically: no RNG in the device, so
// `--jobs 1` and `--jobs 8` emit byte-identical --json/--csv (CI checks).
//
// Flags: `--smoke` (10x shorter window, for CI), `--cc=POLICY` (sweep under
// another congestion control), `--host=SPEC` (replace the cache axis with
// one profile), `--workload=SPEC` (replace qpchurn), plus the standard
// `--jobs/--seed/--json/--csv`. The device's microbench rows
// (BM_HostDoorbell, BM_QpCacheChurn) are gated in BENCH_MICRO.json.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "host/host_config.h"
#include "host/host_device.h"
#include "runner/runner.h"
#include "telemetry/collect.h"
#include "telemetry/metric_registry.h"
#include "workload/sim_host.h"
#include "workload/verbs_host.h"
#include "workload/workload.h"

using namespace dcqcn;

namespace {

struct HostPathCase {
  std::string name;
  std::string workload;  // --workload spec text
  std::string host;      // --host spec text; empty = wire-only
};

// fanout x cache matrix. fanout is the per-host ACTIVE QP count; the cliff
// is the cache8 column crossing its capacity between fanout 8 and 16.
std::vector<HostPathCase> DefaultCases(const std::string& wl_override,
                                       const std::string& host_override) {
  const std::vector<int> fanouts = {4, 8, 16, 32};
  struct Axis {
    const char* label;
    const char* spec;
  };
  const std::vector<Axis> caches = {
      {"wire", ""},
      {"cache64", "default"},
      {"cache8", "tiny-cache"},
  };
  std::vector<HostPathCase> cases;
  for (int f : fanouts) {
    const std::string wl =
        !wl_override.empty() ? wl_override
                             : "qpchurn:fanout=" + std::to_string(f) + ",kb=4";
    if (!host_override.empty()) {
      cases.push_back({"fan" + std::to_string(f) + "_custom", wl,
                       host_override});
      continue;
    }
    for (const Axis& c : caches) {
      cases.push_back(
          {"fan" + std::to_string(f) + "_" + c.label, wl, c.spec});
    }
  }
  return cases;
}

runner::TrialSpec HostPathTrial(const HostPathCase& c, Time duration,
                                int16_t cc) {
  runner::TrialSpec spec;
  spec.name = c.name;
  const workload::WorkloadSpec wspec = workload::ParseWorkloadSpec(c.workload);
  DCQCN_CHECK(wspec.ok);
  host::HostPathConfig host_cfg;
  if (!c.host.empty()) {
    host_cfg = host::MakeHostPathConfig(host::ParseHostSpec(c.host));
  }
  spec.run = [c, wspec, host_cfg, duration,
              cc](const runner::TrialContext& ctx) {
    Network net(ctx.seed);
    const ClosShape shape{.pods = 8, .tors_per_pod = 4, .leaves_per_pod = 4,
                          .spines = 8, .hosts_per_tor = 16};
    TopologyOptions topt = bench::CcTopo(cc);
    topt.nic_config.host_path = host_cfg;
    const ClosTopology topo = BuildClos(net, shape, topt);
    const std::vector<RdmaNic*> hosts = topo.AllHosts();

    std::unique_ptr<workload::WorkloadPattern> pattern =
        workload::CreateWorkloadPattern(
            wspec, runner::DeriveTrialSeed(ctx.seed, 0x3a11));
    workload::SimWorkloadHost whost(net, hosts, cc);
    std::unique_ptr<workload::VerbsWorkloadHost> vhost;
    if (host_cfg.enabled) {
      vhost = std::make_unique<workload::VerbsWorkloadHost>(net, hosts,
                                                            cc);
      vhost->Begin(*pattern);
    } else {
      whost.Begin(*pattern);
    }
    const uint64_t events = net.eq().RunUntil(duration);
    const workload::WorkloadMetrics& m =
        host_cfg.enabled ? vhost->metrics() : whost.metrics();

    runner::TrialResult r;
    r.name = c.name;
    workload::FillTrialResult(m, &r);
    r.counters["events"] = static_cast<int64_t>(events);
    r.counters["hosts"] = static_cast<int64_t>(hosts.size());
    r.counters["pause_frames"] = net.TotalPauseFramesSent();
    r.counters["drops"] = net.TotalDrops();
    r.metrics["sim_ms"] = ToMilliseconds(duration);
    // The headline column: application goodput summed over all hosts
    // (completed message bytes over the window) — what the cache cliff
    // collapses.
    double completed_bytes = 0;
    for (RdmaNic* h : hosts) {
      for (const FlowRecord& rec : h->completed_flows()) {
        completed_bytes += static_cast<double>(rec.bytes);
      }
    }
    r.metrics["agg_goodput_gbps"] =
        completed_bytes * 8.0 / ToMicroseconds(duration) / 1e3;

    telemetry::MetricRegistry reg;
    workload::ExportMetrics(m, &reg);
    if (host_cfg.enabled) {
      int64_t posted = 0, launched = 0, completed = 0, retired = 0;
      int64_t doorbells = 0, stalls = 0;
      int64_t qp_hits = 0, qp_miss = 0, mr_hits = 0, mr_miss = 0;
      for (RdmaNic* h : hosts) {
        const host::HostPathDevice* d = h->host_path();
        posted += d->stats().wr_posted;
        launched += d->stats().wr_launched;
        completed += d->stats().wr_completed;
        retired += d->stats().wr_retired;
        doorbells += d->stats().doorbells;
        stalls += d->stats().sq_stalls;
        qp_hits += d->qp_cache().hits();
        qp_miss += d->qp_cache().misses();
        mr_hits += d->mr_cache().hits();
        mr_miss += d->mr_cache().misses();
      }
      r.counters["host_wr_posted"] = posted;
      r.counters["host_wr_launched"] = launched;
      r.counters["host_wr_completed"] = completed;
      r.counters["host_wr_retired"] = retired;
      r.counters["host_doorbells"] = doorbells;
      r.counters["host_sq_stalls"] = stalls;
      r.counters["host_qp_hits"] = qp_hits;
      r.counters["host_qp_misses"] = qp_miss;
      r.counters["host_mr_hits"] = mr_hits;
      r.counters["host_mr_misses"] = mr_miss;
      const int64_t qp_look = qp_hits + qp_miss;
      r.metrics["qp_miss_pct"] =
          qp_look > 0 ? 100.0 * static_cast<double>(qp_miss) /
                            static_cast<double>(qp_look)
                      : 0.0;
    }
    r.registry = reg.Snapshot();
    return r;
  };
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  // ParseCli rejects flags it does not know, so peel off --smoke first.
  bool smoke = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  const runner::CliOptions cli =
      runner::ParseCli(static_cast<int>(args.size()), args.data());
  if (!cli.ok) {
    std::fprintf(stderr, "%s\n", cli.error.c_str());
    return 2;
  }

  const std::vector<HostPathCase> cases =
      DefaultCases(cli.workload, cli.host);
  const Time duration = smoke ? Microseconds(200) : Milliseconds(2);
  const int16_t cc = runner::ResolveCc(cli.cc, CcPolicyIdByName("dcqcn"));
  std::vector<runner::TrialSpec> matrix;
  matrix.reserve(cases.size());
  for (const HostPathCase& c : cases) {
    matrix.push_back(HostPathTrial(c, duration, cc));
  }

  runner::RunnerOptions opt;
  opt.jobs = cli.jobs;
  opt.base_seed = cli.seed;
  const std::vector<runner::TrialResult> results =
      runner::RunTrials(matrix, opt);

  std::printf("Extension: host-path QP-cache cliff, qpchurn on the "
              "32-ToR/512-host Clos (jobs=%d%s%s%s)\n\n",
              cli.jobs, smoke ? ", smoke" : "",
              cli.cc.empty() ? "" : ", cc=", cli.cc.c_str());
  std::printf("%-16s %9s %9s %9s %8s %9s %10s %9s\n", "case", "started",
              "compl", "goodputG", "miss%", "stalls", "fct_p50us",
              "fct_p90us");
  for (const runner::TrialResult& r : results) {
    const auto fct = r.summaries.find("wl_fct_us");
    const auto miss = r.metrics.find("qp_miss_pct");
    const auto stalls = r.counters.find("host_sq_stalls");
    std::printf("%-16s %9lld %9lld %9.1f %8s %9lld %10.2f %9.2f\n",
                r.name.c_str(),
                static_cast<long long>(r.counters.at("wl_started")),
                static_cast<long long>(r.counters.at("wl_completed")),
                r.metrics.at("agg_goodput_gbps"),
                miss == r.metrics.end()
                    ? "-"
                    : (std::to_string(miss->second).substr(0, 5)).c_str(),
                stalls == r.counters.end()
                    ? 0LL
                    : static_cast<long long>(stalls->second),
                fct == r.summaries.end() ? 0.0 : fct->second.median,
                fct == r.summaries.end() ? 0.0 : fct->second.p90);
  }
  std::printf("\n(cache8 collapses once fanout exceeds 8 active QPs/host — "
              "the last-mile cliff; columns are a pure function of "
              "{matrix, --seed}, byte-identical across --jobs.)\n");

  return runner::WriteRequestedOutputs(cli, results) ? 0 : 1;
}
