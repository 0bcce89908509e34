// Extension — structured workloads on the large Clos.
//
// Sweeps the WorkloadPattern registry (open-loop poisson at two offered
// loads, the §6.2 closed-loop pairs mix, an N:1 incast fan, a ring
// all-reduce and an all-to-all shuffle) over the 32-ToR / 512-host Clos —
// the headline scale target — and reports the uniform per-pattern metrics:
// flows started/completed/in-flight, FCT and FCT-slowdown quantiles, and
// collective iteration times where the pattern has barriers. Each pattern
// is one case of the Clos sweep trial (bench::ScaleTrial).
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
// device model and route emission through it; absent = wire-only),
// `--shards=N` (the sharded engine; bytes identical for every N),
// `--hybrid[:k=v,...]` (the flow-level fast path; not with --host), plus
// `--jobs/--seed/--json/--csv`. Any other runner flag exits 2.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"

using namespace dcqcn;

int main(int argc, char** argv) {
  const bench::BenchCli args = bench::ParseBenchCli(
      argc, argv,
      runner::kCliSweep | runner::kCliCc | runner::kCliWorkload |
          runner::kCliHost | runner::kCliShards | runner::kCliHybrid,
      {"--smoke"});
  if (!args.cli.ok) return 2;
  const runner::CliOptions& cli = args.cli;
  const bool smoke = args.Has("--smoke");

  // The default pattern matrix: one representative configuration per
  // registered built-in, sized for 512 hosts. The trial name is the
  // pattern's label (the spec text itself for --workload).
  std::vector<std::pair<std::string, std::string>> patterns = {
      {"poisson_500g", "poisson:load_gbps=500"},
      {"poisson_2000g", "poisson:load_gbps=2000"},
      {"pairs_256p_16i", "pairs:pairs=256,incast=16"},
      {"incast_fan32", "incast:fanin=32,kb=1024"},
      {"allreduce_ring16", "allreduce-ring:nodes=16,kb=8192"},
      {"alltoall_12", "alltoall:nodes=12,kb=256"},
  };
  if (!cli.workload.empty()) patterns = {{cli.workload, cli.workload}};

  std::vector<bench::ScaleCase> cases;
  std::vector<bench::ScaleTrialOptions> opts;
  for (const auto& [name, spec] : patterns) {
    bench::ScaleCase c;
    c.name = name;
    c.shape = bench::kXlargeShape;
    c.duration = smoke ? Microseconds(200) : Milliseconds(2);
    cases.push_back(c);
    bench::ScaleTrialOptions o;
    o.cc = runner::ResolveCc(cli.cc, CcPolicyIdByName("dcqcn"));
    o.workload = spec;
    o.host = cli.host;
    opts.push_back(o);
  }
  std::vector<runner::TrialResult> results;
  if (!bench::RunScaleSweep(cases, opts, cli, &results)) return 2;

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
