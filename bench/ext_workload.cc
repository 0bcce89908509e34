// Extension — structured workloads on the large Clos.
//
// Sweeps the WorkloadPattern registry (open-loop poisson at two offered
// loads, the §6.2 closed-loop pairs mix, an N:1 incast fan, a ring
// all-reduce and an all-to-all shuffle) over the 32-ToR / 512-host Clos —
// the headline scale target — and reports the uniform per-pattern metrics:
// flows started/completed/in-flight, FCT and FCT-slowdown quantiles, and
// collective iteration times where the pattern has barriers.
//
// Determinism: each trial derives its traffic stream from the runner's
// per-trial seed and patterns never touch the network-wide RNG, so
// `--jobs 1` and `--jobs 8` produce byte-identical --json/--csv output
// (workload_conformance_test and CI verify this).
//
// Flags: `--smoke` (10x shorter simulated window, for CI),
// `--workload=NAME[:k=v,...]` (replace the default pattern matrix with one
// registered pattern), `--cc=POLICY` (run the sweep under another
// congestion control), `--host=PROFILE[:k=v,...]` (attach the host-path
// device model and route emission through it; absent = wire-only, output
// byte-identical to before the knob existed), plus the standard
// `--jobs/--seed/--json/--csv`.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "host/host_config.h"
#include "host/host_device.h"
#include "runner/runner.h"
#include "telemetry/metric_registry.h"
#include "workload/sim_host.h"
#include "workload/verbs_host.h"
#include "workload/workload.h"

using namespace dcqcn;

namespace {

// 32 ToRs / 512 hosts — the ext_scale headline shape.
constexpr ClosShape kShape{.pods = 8, .tors_per_pod = 4, .leaves_per_pod = 4,
                           .spines = 8, .hosts_per_tor = 16};

struct WorkloadCase {
  std::string name;  // trial name (also the spec text)
  std::string spec;
};

// The default pattern matrix: one representative configuration per
// registered built-in, sized for 512 hosts.
std::vector<WorkloadCase> DefaultCases() {
  return {
      {"poisson_500g", "poisson:load_gbps=500"},
      {"poisson_2000g", "poisson:load_gbps=2000"},
      {"pairs_256p_16i", "pairs:pairs=256,incast=16"},
      {"incast_fan32", "incast:fanin=32,kb=1024"},
      {"allreduce_ring16", "allreduce-ring:nodes=16,kb=8192"},
      {"alltoall_12", "alltoall:nodes=12,kb=256"},
  };
}

runner::TrialSpec WorkloadTrial(const WorkloadCase& c, Time duration,
                                runner::CcSelection cc,
                                host::HostPathConfig host_cfg) {
  runner::TrialSpec spec;
  spec.name = c.name;
  const workload::WorkloadSpec wspec = workload::ParseWorkloadSpec(c.spec);
  DCQCN_CHECK(wspec.ok);
  spec.run = [c, wspec, duration, cc,
              host_cfg](const runner::TrialContext& ctx) {
    Network net(ctx.seed);
    TopologyOptions topt = bench::CcTopo(cc.mode);
    topt.nic_config.host_path = host_cfg;
    const ClosTopology topo = BuildClos(net, kShape, topt);
    const std::vector<RdmaNic*> hosts = topo.AllHosts();

    // Pattern randomness comes from a stream distinct from the network's
    // own (RED marking etc.), derived from the per-trial seed.
    std::unique_ptr<workload::WorkloadPattern> pattern =
        workload::CreateWorkloadPattern(
            wspec, runner::DeriveTrialSeed(ctx.seed, 0x3a11));
    // With --host, emission runs through each source's HostPathDevice
    // (verbs SQ / doorbells / PCIe / context caches); without it, this is
    // the exact pre-host-path wire-only path.
    workload::SimWorkloadHost whost(net, hosts, cc.mode, cc.policy);
    std::unique_ptr<workload::VerbsWorkloadHost> vhost;
    if (host_cfg.enabled) {
      vhost = std::make_unique<workload::VerbsWorkloadHost>(net, hosts,
                                                            cc.mode,
                                                            cc.policy);
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
    telemetry::MetricRegistry reg;
    workload::ExportMetrics(m, &reg);
    if (host_cfg.enabled) {
      // Aggregate host-path counters across the 512 devices (per-node
      // host.* rows live in the telemetry path; here totals suffice).
      int64_t posted = 0, doorbells = 0, stalls = 0;
      int64_t qp_miss = 0, qp_look = 0;
      for (RdmaNic* h : hosts) {
        const host::HostPathDevice* d = h->host_path();
        posted += d->stats().wr_posted;
        doorbells += d->stats().doorbells;
        stalls += d->stats().sq_stalls;
        qp_miss += d->qp_cache().misses();
        qp_look += d->qp_cache().lookups();
      }
      r.counters["host_wr_posted"] = posted;
      r.counters["host_doorbells"] = doorbells;
      r.counters["host_sq_stalls"] = stalls;
      r.counters["host_qp_misses"] = qp_miss;
      r.counters["host_qp_lookups"] = qp_look;
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

  std::vector<WorkloadCase> cases;
  if (!cli.workload.empty()) {
    // ParseCli checked keys and values; the host-count bounds need the
    // fabric.
    const std::string err = workload::WorkloadSpecError(
        workload::ParseWorkloadSpec(cli.workload), kShape.num_hosts());
    if (!err.empty()) {
      std::fprintf(stderr, "bad --workload '%s': %s\n", cli.workload.c_str(),
                   err.c_str());
      return 2;
    }
    cases.push_back({cli.workload, cli.workload});
  } else {
    cases = DefaultCases();
  }

  const Time duration = smoke ? Microseconds(200) : Milliseconds(2);
  const runner::CcSelection cc =
      runner::ResolveCc(cli.cc, TransportMode::kRdmaDcqcn);
  host::HostPathConfig host_cfg;  // default: disabled (wire-only)
  if (!cli.host.empty()) {
    host_cfg = host::MakeHostPathConfig(host::ParseHostSpec(cli.host));
  }
  std::vector<runner::TrialSpec> matrix;
  matrix.reserve(cases.size());
  for (const WorkloadCase& c : cases) {
    matrix.push_back(WorkloadTrial(c, duration, cc, host_cfg));
  }

  runner::RunnerOptions opt;
  opt.jobs = cli.jobs;
  opt.base_seed = cli.seed;
  const std::vector<runner::TrialResult> results =
      runner::RunTrials(matrix, opt);

  std::printf("Extension: structured workloads on the 32-ToR/512-host Clos "
              "(jobs=%d%s%s%s%s%s)\n\n",
              cli.jobs, smoke ? ", smoke" : "",
              cli.cc.empty() ? "" : ", cc=", cli.cc.c_str(),
              cli.host.empty() ? "" : ", host=", cli.host.c_str());
  std::printf("%-18s %8s %8s %8s %9s %9s %8s %6s %10s\n", "pattern",
              "started", "compl", "inflight", "fct_p50", "fct_p90",
              "slow_p50", "iters", "iter_p50us");
  for (const runner::TrialResult& r : results) {
    const auto fct = r.summaries.find("wl_fct_us");
    const auto slow = r.summaries.find("wl_slowdown");
    const auto iter = r.summaries.find("wl_iteration_us");
    std::printf("%-18s %8lld %8lld %8lld %9.2f %9.2f %8.2f %6zu %10.2f\n",
                r.name.c_str(),
                static_cast<long long>(r.counters.at("wl_started")),
                static_cast<long long>(r.counters.at("wl_completed")),
                static_cast<long long>(r.counters.at("wl_in_flight")),
                fct == r.summaries.end() ? 0.0 : fct->second.median,
                fct == r.summaries.end() ? 0.0 : fct->second.p90,
                slow == r.summaries.end() ? 0.0 : slow->second.median,
                iter == r.summaries.end() ? size_t{0} : iter->second.count,
                iter == r.summaries.end() ? 0.0 : iter->second.median);
  }
  std::printf("\n(every column is a pure function of {matrix, --seed}; "
              "--json/--csv output is byte-identical across --jobs.)\n");

  return runner::WriteRequestedOutputs(cli, results) ? 0 : 1;
}
