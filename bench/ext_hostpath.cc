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
// Each (fanout, cache) cell is one case of the Clos sweep trial
// (bench::ScaleTrial) with its own workload and host profile.
//
// Flags: `--smoke` (10x shorter window, for CI), `--cc=POLICY` (sweep under
// another congestion control), `--host=SPEC` (replace the cache axis with
// one profile), `--workload=SPEC` (replace qpchurn), `--shards=N` (the
// sharded engine; bytes identical for every N), plus
// `--jobs/--seed/--json/--csv`. Any other runner flag exits 2 — --hybrid
// too: the matrix runs the host path, which the fast path does not model.
// The device's microbench rows (BM_HostDoorbell, BM_QpCacheChurn) are gated
// in BENCH_MICRO.json.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"

using namespace dcqcn;

int main(int argc, char** argv) {
  const bench::BenchCli args = bench::ParseBenchCli(
      argc, argv,
      runner::kCliSweep | runner::kCliCc | runner::kCliWorkload |
          runner::kCliHost | runner::kCliShards,
      {"--smoke"});
  if (!args.cli.ok) return 2;
  const runner::CliOptions& cli = args.cli;
  const bool smoke = args.Has("--smoke");

  // fanout x cache matrix. fanout is the per-host ACTIVE QP count; the
  // cliff is the cache8 column crossing its capacity between fanout 8 and
  // 16. --host replaces the cache axis, --workload replaces qpchurn.
  struct Axis {
    const char* label;
    const char* spec;  // --host spec text; empty = wire-only
  };
  std::vector<Axis> caches = {
      {"wire", ""},
      {"cache64", "default"},
      {"cache8", "tiny-cache"},
  };
  if (!cli.host.empty()) caches = {{"custom", cli.host.c_str()}};
  std::vector<bench::ScaleCase> cases;
  std::vector<bench::ScaleTrialOptions> opts;
  for (const int f : {4, 8, 16, 32}) {
    for (const Axis& a : caches) {
      bench::ScaleCase c;
      c.name = "fan" + std::to_string(f) + "_" + a.label;
      c.shape = bench::kXlargeShape;
      c.duration = smoke ? Microseconds(200) : Milliseconds(2);
      cases.push_back(c);
      bench::ScaleTrialOptions o;
      o.cc = runner::ResolveCc(cli.cc, CcPolicyIdByName("dcqcn"));
      o.workload = !cli.workload.empty()
                       ? cli.workload
                       : "qpchurn:fanout=" + std::to_string(f) + ",kb=4";
      o.host = a.spec;
      opts.push_back(o);
    }
  }
  std::vector<runner::TrialResult> results;
  if (!bench::RunScaleSweep(cases, opts, cli, &results)) return 2;

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
