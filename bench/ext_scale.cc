// Extension — large-Clos scaling throughput.
//
// The paper's title promises *large-scale* deployments; this bench measures
// how fast the simulator itself scales toward that regime. It sweeps the
// generalized Clos fabric from the paper's testbed (4 ToRs / 20 hosts) to
// 32 ToRs / 512 hosts / 1024 concurrent DCQCN flows under sustained
// cross-ToR incast + random traffic, and reports two engine-throughput
// figures per shape: simulated-seconds-per-wall-second and events/sec.
//
// Determinism: every number inside the runner's JSON/CSV output (events,
// delivered bytes, CNPs, ...) is a pure function of {matrix, --seed}, so
// `--jobs 1` and `--jobs 8` produce byte-identical files (scale_test and CI
// verify this). Wall-clock throughput is printed to stdout only.
//
// Flags: `--smoke` (10x shorter simulated windows, for CI), `--shards=N`
// (run every trial on the sharded parallel engine with N shards — the
// JSON/CSV bytes are identical for every N >= 1, which CI enforces with a
// {1,2,4,8} sweep + cmp), `--workload=NAME[:k=v,...]` / `--host=PROFILE`
// (compose a structured pattern / the host-path device model onto the
// sweep), plus the standard runner flags `--jobs/--seed/--json/--csv` and
// `--cc=POLICY` (run the whole sweep under another registered congestion
// control).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "runner/runner.h"

using namespace dcqcn;

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

  const std::vector<bench::ScaleCase> cases = bench::ScaleCases(smoke);
  std::vector<double> wall_seconds(cases.size(), 0.0);
  std::vector<runner::TrialSpec> matrix;
  matrix.reserve(cases.size());
  bench::ScaleTrialOptions topt;
  topt.cc = runner::ResolveCc(cli.cc, TransportMode::kRdmaDcqcn);
  topt.workload = cli.workload;
  topt.host = cli.host;
  topt.wall_seconds = &wall_seconds;
  for (const bench::ScaleCase& c : cases) {
    matrix.push_back(bench::ScaleTrial(c, topt));
  }

  runner::RunnerOptions opt;
  opt.jobs = cli.jobs;
  opt.base_seed = cli.seed;
  opt.shards = cli.shards;
  opt.hybrid = cli.hybrid;
  const std::vector<runner::TrialResult> results =
      runner::RunTrials(matrix, opt);

  std::printf("Extension: simulator throughput on large Clos fabrics "
              "(jobs=%d%s%s%s)\n\n", cli.jobs, smoke ? ", smoke" : "",
              cli.shards > 0 ? ", shards=" : "",
              cli.shards > 0
                  ? std::to_string(cli.shards).c_str()
                  : "");
  std::printf("%-18s %6s %6s %9s %12s %12s %11s %11s\n", "shape", "hosts",
              "flows", "sim_ms", "events", "goodput_gb", "sim_s/wall", "events/s");
  for (size_t i = 0; i < results.size(); ++i) {
    const runner::TrialResult& r = results[i];
    const double wall = wall_seconds[i];
    const double sim_s = r.metrics.at("sim_ms") / 1e3;
    std::printf("%-18s %6lld %6lld %9.2f %12lld %12.1f %11.4f %11.3g\n",
                r.name.c_str(),
                static_cast<long long>(r.counters.at("hosts")),
                static_cast<long long>(r.counters.at("flows")),
                r.metrics.at("sim_ms"),
                static_cast<long long>(r.counters.at("events")),
                r.metrics.at("agg_goodput_gbps"),
                wall > 0 ? sim_s / wall : 0.0,
                wall > 0 ? static_cast<double>(r.counters.at("events")) / wall
                         : 0.0);
  }
  std::printf(
      "\n(sim_s/wall and events/s are wall-clock figures — stdout only, "
      "never serialized, so --json/--csv stay jobs- and machine-"
      "independent.)\n");

  return runner::WriteRequestedOutputs(cli, results) ? 0 : 1;
}
